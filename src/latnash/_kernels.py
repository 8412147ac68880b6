"""Bitmask kernels of the order layer.

Orders are handled as bitmask rows by element index, in any element
order: row ``up[i]`` has bit ``j`` set iff element ``i <= j``, and
``down`` is the transpose.  The least member of a bound set is found by a
walk that tries its lowest member and steps down inside the set; when the
element order is a linear extension the first try decides.  The covering
rows come from the same walk: the covers of an element are the minimal
members of its strict up-set, taken one walk at a time.
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


def indices(m):
    """Indices of the set bits of the bitmask ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def least(up, down, m):
    """Least member of the bitmask ``m``, as an index, or None.

    Tries the lowest member, and while the candidate's up-row misses part
    of ``m`` steps to a member of ``m`` strictly below it.  A candidate
    with none below it is minimal in ``m``; if it fails, nothing is least.
    """
    if not m:
        return None
    c = (m & -m).bit_length() - 1
    while up[c] & m != m:
        below = down[c] & m & ~(1 << c)
        if not below:
            return None
        c = (below & -below).bit_length() - 1
    return c


def greatest(up, down, m):
    """Greatest member of the bitmask ``m``, as an index, or None: the walk
    of :func:`least` upwards, from the highest member."""
    if not m:
        return None
    c = m.bit_length() - 1
    while down[c] & m != m:
        above = up[c] & m & ~(1 << c)
        if not above:
            return None
        c = above.bit_length() - 1
    return c


def cover_rows(up, down):
    """Covering rows: bit ``j`` of row ``i`` is set iff ``i < j`` with
    nothing strictly between, in any element order.

    Per element, the walk of :func:`least` takes a minimal member of what
    lies strictly above it; that member is a cover, and its up-set is
    dropped from what is left, until nothing is.
    """
    out = []
    for i, ui in enumerate(up):
        m = ui & ~(1 << i)
        row = 0
        while m:
            c = (m & -m).bit_length() - 1
            below = down[c] & m & ~(1 << c)
            while below:
                c = (below & -below).bit_length() - 1
                below = down[c] & m & ~(1 << c)
            row |= 1 << c
            m &= ~up[c]
        out.append(row)
    return out


def pair_scan(up, down, members, member_mask):
    """Scan member pairs for existence and membership of joins and meets.

    ``up``/``down`` are index rows.  ``members`` is the sequence of indices
    to scan, in the order that determines which witness is reported first.
    ``member_mask`` is the same set as a bitmask.  Returns
    ``(code, p, q, bound)`` where ``p``/``q`` index into ``members`` and
    ``bound`` is the escaping index (-1 when not applicable).  The first
    try of :func:`least`/:func:`greatest` is inlined.
    """
    k = len(members)
    for p in range(k):
        a = members[p]
        ua = up[a]
        da = down[a]
        for q in range(p + 1, k):
            b = members[q]
            ub = ua & up[b]
            if not ub:
                return (SCAN_NO_JOIN, p, q, -1)
            c = (ub & -ub).bit_length() - 1
            if up[c] & ub != ub:
                c = least(up, down, ub)
                if c is None:
                    return (SCAN_NO_JOIN, p, q, -1)
            if not (member_mask >> c) & 1:
                return (SCAN_JOIN_ESCAPES, p, q, c)
            db = da & down[b]
            if not db:
                return (SCAN_NO_MEET, p, q, -1)
            d = db.bit_length() - 1
            if down[d] & db != db:
                d = greatest(up, down, db)
                if d is None:
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
