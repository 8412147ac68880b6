"""Bitmask kernels of the order layer.

Orders are handled as bitmask rows by element index, in any element
order: row ``up[i]`` has bit ``j`` set iff element ``i <= j``, and
``down`` is the transpose.  A set of elements crosses this boundary only
as a bitmask, both ways: the scans take member masks and answer in
element indices and element masks.  The scans find; they do not name:
each answers with the first pair or subset that fails, and the caller
names the bound that failed, in its own order.  The least member of a
bound set is found by a walk that tries its lowest member and steps down
inside the set; when the element order is a linear extension the first
try decides.  The covering rows come from the same walk: the covers of
an element are the minimal members of its strict up-set, taken one walk
at a time.  So do the joins and meets of :func:`sublattice_close`, the
one sublattice closure that every random generator runs.
:func:`pair_scan` is the one join/meet check of pairs, inside one set
(a sublattice) or from one set to another (Veinott's strong set order);
it skips the pairs that cannot fail, read off the masks and each
member's two rows.  :func:`increasing_scan` runs it over a family of
sets along given rows, each distinct set and each distinct pair once.
:func:`subset_scan`, the sup/inf check of every nonempty subset of a
member mask, takes the members as generators in the same ascending walk
and extends each subset's bound masks from those of the subset without
its lowest member.  The order layer walks only a
mask that :func:`pair_scan` fails, to name its first failing subset: a
mask that passes the pair scan passes every subset, so it is certified
without a walk.  :func:`transitive_closure`
(Warshall) closes only relations that do not ascend in element order;
``build_poset`` closes the others in one pass.
"""

BACKEND = "pure"


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


def pair_scan(up, down, lower, upper):
    """The first pair whose meet or join leaves the sets it must stay in.

    ``up``/``down`` are index rows and ``lower``/``upper`` bitmasks.
    Returns the first pair (a, b) of element indices, a in ``lower`` and b
    in ``upper``, whose meet is missing or outside ``lower`` or whose join
    is missing or outside ``upper``, or None when there is none.  a walks
    up ``lower``.  A pair a <= b has the meet a and the join b, so b is
    tried only outside the up-set of a; with equal masks b > a is tried
    only if incomparable to a, as a pair b <= a was tried the other way
    round.  The first failure is the one the scan over all pairs would
    meet.  The first try of :func:`least`/:func:`greatest` is inlined.
    """
    same = lower == upper
    rest = lower
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        ua = up[a]
        da = down[a]
        later = rest & ~(ua | da) if same else upper & ~ua
        while later:
            low = later & -later
            later ^= low
            b = low.bit_length() - 1
            ub = ua & up[b]
            c = (ub & -ub).bit_length() - 1
            if not ub or up[c] & ub != ub:
                c = least(up, down, ub)
            db = da & down[b]
            d = db.bit_length() - 1
            if not db or down[d] & db != db:
                d = greatest(up, down, db)
            if c is None or d is None or not (upper >> c) & 1 or not (lower >> d) & 1:
                return a, b
    return None


def increasing_scan(up, down, images, rows):
    """The first failure of Veinott's strong set order along ``rows``, as
    (t, t2, a, b), or None when there is none.

    ``images[t]`` is the bitmask of the image at domain index t and
    ``rows[t]`` the mask of the domain indices t2 to compare it with.
    Each distinct image is first checked closed, at its first index t, as
    the pair (t, t); then each pair (t, t2) with t2 in ``rows[t]`` and a
    different image, each distinct pair of images once.  (a, b) is the
    first pair that :func:`pair_scan` fails, from image t to image t2.
    """
    first = {}  # distinct image -> the first domain index holding it
    for t, mask in enumerate(images):
        if first.setdefault(mask, t) == t:
            pair = pair_scan(up, down, mask, mask)
            if pair is not None:
                return t, t, *pair
    passed = set()
    for t, mask in enumerate(images):
        later = rows[t]
        while later:
            low = later & -later
            t2 = low.bit_length() - 1
            later ^= low
            mask2 = images[t2]
            if mask2 == mask or (mask, mask2) in passed:
                continue
            pair = pair_scan(up, down, mask, mask2)
            if pair is not None:
                return t, t2, *pair
            passed.add((mask, mask2))
    return None


def subset_scan(up, down, member_mask):
    """The first nonempty subset of the bitmask ``member_mask`` whose sup
    or inf is missing or lies outside ``member_mask``, as an element
    bitmask, or 0 when there is none.

    The members, ascending, are the generators: subset ``m`` holds the
    t-th member iff bit ``t`` of ``m`` is set, and the subsets are walked
    in increasing ``m``.  Each subset's bound sets extend those of the
    subset without its lowest member, so a subset costs two ANDs and, when
    the element order is a linear extension, the inlined first try of
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
        db = downs[m] = downs[rest] & rows_down[low]
        d = db.bit_length() - 1
        if not db or down[d] & db != db:
            d = greatest(up, down, db)
        if c is None or d is None or not (member_mask >> c) & 1 or not (member_mask >> d) & 1:
            return sum(1 << idx[t] for t in indices(m))
    return 0


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
