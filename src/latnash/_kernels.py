"""Bitmask kernels of the order layer.

Orders are handled as bitmask rows: row ``up[i]`` has bit ``j`` set iff
element ``i <= j``.  The pair-scan kernels additionally assume the rows are
indexed by a linear extension (topological rank), which makes least upper
bounds readable in O(1) word operations: the least element of a bound set,
when it exists, is its lowest-rank member.
"""

BACKEND = "pure"

# pair_scan result codes
SCAN_OK = 0
SCAN_NO_JOIN = 1
SCAN_NO_MEET = 2
SCAN_JOIN_ESCAPES = 3
SCAN_MEET_ESCAPES = 4


def transitive_closure(rows, n):
    """Reflexive-transitive closure of bitmask adjacency rows (Warshall)."""
    rows = list(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def pair_scan(up_t, down_t, members, member_mask):
    """Scan member pairs for existence and membership of joins and meets.

    ``up_t``/``down_t`` are rows in topological-rank space.  ``members`` is
    the sequence of ranks to scan, in the order that determines which
    witness is reported first.  ``member_mask`` is the same set as a rank
    bitmask.  Returns ``(code, p, q, bound)`` where ``p``/``q`` index into
    ``members`` and ``bound`` is the escaping rank (-1 when not applicable).
    """
    k = len(members)
    for p in range(k):
        a = members[p]
        ua = up_t[a]
        da = down_t[a]
        for q in range(p + 1, k):
            b = members[q]
            ub = ua & up_t[b]
            if not ub:
                return (SCAN_NO_JOIN, p, q, -1)
            c = (ub & -ub).bit_length() - 1
            if up_t[c] & ub != ub:
                return (SCAN_NO_JOIN, p, q, -1)
            if not (member_mask >> c) & 1:
                return (SCAN_JOIN_ESCAPES, p, q, c)
            db = da & down_t[b]
            if not db:
                return (SCAN_NO_MEET, p, q, -1)
            d = db.bit_length() - 1
            if down_t[d] & db != db:
                return (SCAN_NO_MEET, p, q, -1)
            if not (member_mask >> d) & 1:
                return (SCAN_MEET_ESCAPES, p, q, d)
    return (SCAN_OK, -1, -1, -1)


# No latnash module calls this; latbench/tracer.py still binds it by name.
def family_close(masks, full):
    """Close a family of subset bitmasks under pairwise union/intersection.

    Always contains 0 and ``full``.  Each unordered pair is combined
    exactly once; elements produced along the way are queued and combined
    in turn, so the result is the genuine generated family.  Returns a
    sorted list.
    """
    fam = []
    seen = set()

    def add(m):
        if m not in seen:
            seen.add(m)
            fam.append(m)

    add(0)
    add(full)
    for m in masks:
        add(m)
    q = 1
    while q < len(fam):
        x = fam[q]
        for p in range(q):
            y = fam[p]
            add(x | y)
            add(x & y)
        q += 1
    return sorted(seen)
