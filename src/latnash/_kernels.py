"""Bitmask kernels of the order layer.

Orders are handled as bitmask rows by element index, in any element
order: row ``up[i]`` has bit ``j`` set iff element ``i <= j``, and
``down`` is the transpose.  A set of elements crosses this boundary only
as a bitmask, both ways: the scans take one member mask and answer in
element indices and element masks.  The least member of a bound set is
found by a walk that tries its lowest member and steps down inside the
set; when the element order is a linear extension the first try
decides.  The covering rows come from the same walk: the covers of an
element are the minimal members of its strict up-set, taken one walk at
a time.  So do the joins and meets of :func:`sublattice_close`, the one
sublattice closure that every random generator runs.  :func:`pair_scan`, the join/meet check of
a member set, skips comparable pairs, whose join and meet are the pair
itself, and tries each member only against the incomparable members
above it, read off the member mask and the member's two rows.
:func:`subset_scan`, the sup/inf check of every nonempty subset of a
member mask, takes the members as generators in the same ascending walk
and extends each subset's bound masks from those of the subset
without its lowest member.  :func:`transitive_closure` (Warshall) closes
only relations that do not ascend in element order; ``build_poset``
closes the others in one pass.
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


def sublattice_close(up, down, seeds):
    """Bitmask of the sublattice generated by the elements at the indices
    ``seeds``: the least superset closed under the joins and meets of the
    rows ``up``/``down``, or None when a pair met on the way has no join
    or no meet.  Each member is combined once with each member queued
    before it, and a bound not yet a member is queued in turn.
    """
    queue = list(seeds)
    members = 0
    for a in queue:
        members |= 1 << a
    for q, a in enumerate(queue):
        ua, da = up[a], down[a]
        for b in queue[:q]:
            for c in (least(up, down, ua & up[b]), greatest(up, down, da & down[b])):
                if c is None:
                    return None
                if not (members >> c) & 1:
                    members |= 1 << c
                    queue.append(c)
    return members


def pair_scan(up, down, member_mask):
    """Scan member pairs for existence and membership of joins and meets.

    ``up``/``down`` are index rows and ``member_mask`` the member set, as
    a bitmask.  Returns ``(code, a, b, bound)`` for the first failing pair
    of element indices a < b, in that order, where ``bound`` is the
    escaping index (-1 when not applicable).  A comparable pair cannot
    fail, since its join and meet are the pair itself, so each member a,
    walked up the mask, is tried only against the incomparable members
    above it; the first failure is the one the scan over all pairs would
    meet.  The first try of :func:`least`/:func:`greatest` is inlined.
    """
    rest = member_mask
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        ua = up[a]
        da = down[a]
        later = rest & ~(ua | da)
        while later:
            low = later & -later
            later ^= low
            b = low.bit_length() - 1
            ub = ua & up[b]
            c = (ub & -ub).bit_length() - 1
            if not ub or up[c] & ub != ub:
                c = least(up, down, ub)
                if c is None:
                    return (SCAN_NO_JOIN, a, b, -1)
            if not (member_mask >> c) & 1:
                return (SCAN_JOIN_ESCAPES, a, b, c)
            db = da & down[b]
            d = db.bit_length() - 1
            if not db or down[d] & db != db:
                d = greatest(up, down, db)
                if d is None:
                    return (SCAN_NO_MEET, a, b, -1)
            if not (member_mask >> d) & 1:
                return (SCAN_MEET_ESCAPES, a, b, d)
    return (SCAN_OK, -1, -1, -1)


def subset_scan(up, down, member_mask):
    """Scan the nonempty subsets of the bitmask ``member_mask`` for
    existence and membership of their sups and infs.

    The members, ascending, are the generators: subset ``m`` holds the
    t-th member iff bit ``t`` of ``m`` is set, and the subsets are walked
    in increasing ``m``.  Returns ``(code, subset, bound)`` with a
    :func:`pair_scan` code (join for sup, meet for inf) for the first
    subset whose sup or inf is missing or lies outside ``member_mask``,
    sup checked before inf, where ``subset`` is that subset as an element
    bitmask and ``bound`` is the escaping index (-1 when not applicable).
    Each subset's bound sets extend those of the subset without its
    lowest member, so a subset costs two ANDs and, when the element order
    is a linear extension, the inlined first try of
    :func:`least`/:func:`greatest`.
    """
    idx = indices(member_mask)
    full = (1 << len(up)) - 1
    ups = [full] * (1 << len(idx))
    downs = ups[:]
    rows_up = [up[i] for i in idx]
    rows_down = [down[i] for i in idx]
    for m in range(1, 1 << len(idx)):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        ub = ups[m] = ups[rest] & rows_up[low]
        c = (ub & -ub).bit_length() - 1
        if not ub or up[c] & ub != ub:
            c = least(up, down, ub)
            if c is None:
                return (SCAN_NO_JOIN, _generated(idx, m), -1)
        if not (member_mask >> c) & 1:
            return (SCAN_JOIN_ESCAPES, _generated(idx, m), c)
        db = downs[m] = downs[rest] & rows_down[low]
        d = db.bit_length() - 1
        if not db or down[d] & db != db:
            d = greatest(up, down, db)
            if d is None:
                return (SCAN_NO_MEET, _generated(idx, m), -1)
        if not (member_mask >> d) & 1:
            return (SCAN_MEET_ESCAPES, _generated(idx, m), d)
    return (SCAN_OK, 0, -1)


def _generated(idx, m):
    """The element bitmask of the subset ``m`` of the indices ``idx``."""
    return sum(1 << idx[t] for t in indices(m))


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
