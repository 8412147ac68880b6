"""Independent reference implementations used as test oracles.

Everything here recomputes results from definitions with naive data
structures (dicts of sets, explicit scans), deliberately sharing no code
with the production paths it checks.  The reference scans at the end are
the label-based forms of three order checks, written over the public
Poset and Game methods, and the supermodular inequality over every pair
of S with comparable rests, by brute force.  The random generators at
the very end keep the sublattice closures that the engine had before it
closed sets on index rows: pairwise joins and meets by name, and
componentwise max and min of string profiles.  The all-pairs scans after
them are the order scans as they were before they skipped comparable
pairs: every member pair of a pair scan, every image pair of the
increasing scan, and the sublattice verdict of a game's S over the
labels of its strategy product.  Last come
the order constructions and subset walks as they were before orders were
closed in one pass: ``build_poset`` by Warshall and a transpose for every
relation, the exhaustive completeness checks over a generator of subset
bounds, and the rows of S's order by a union over every up-row bit.
The game tables at the very end are built from their definitions: each
profile's strategy indices, per strategy the positions that play it, and
each player's sections grouped by the other players' strategies.
"""

import reprlib
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import lcm, prod


def reachability_closure(elements, pairs):
    """Reflexive-transitive closure as a dict element -> set of successors,
    via iterated relational composition."""
    succ = {e: {e} for e in elements}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in elements:
            new = set()
            for b in succ[a]:
                new |= succ[b]
            if not new <= succ[a]:
                succ[a] |= new
                changed = True
    return succ


def upper_bounds(leq, carrier, subset):
    """All common upper bounds of subset under the given leq predicate."""
    return [u for u in carrier if all(leq(a, u) for a in subset)]


def least_of(leq, candidates):
    """The least element of candidates, or None."""
    for c in candidates:
        if all(leq(c, d) for d in candidates):
            return c
    return None


def extremum_oracle(leq, candidates, direction):
    """The greatest or least element of candidates, or None: the least
    element under leq, or under leq reversed for "greatest"."""
    if direction == "greatest":
        return least_of(lambda a, b: leq(b, a), candidates)
    return least_of(leq, candidates)


def transpose_oracle(rows, n):
    """Transpose of n bitmask rows over n elements, read off bit by bit."""
    return tuple(sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n))


def sup_oracle(leq, carrier, subset):
    return least_of(leq, upper_bounds(leq, carrier, subset))


def inf_oracle(leq, carrier, subset):
    lower = [u for u in carrier if all(leq(u, a) for a in subset)]
    for c in lower:
        if all(leq(d, c) for d in lower):
            return c
    return None


def hasse_oracle(leq, carrier):
    """Transitive reduction: drop (a, b) whenever some c sits strictly
    between."""
    out = []
    for a in carrier:
        for b in carrier:
            if a == b or not leq(a, b):
                continue
            if any(c not in (a, b) and leq(a, c) and leq(c, b) for c in carrier):
                continue
            out.append((a, b))
    return out


def cover_rows_oracle(up):
    """Covering rows read off pair by pair: bit j of row i is set iff i < j
    in the up-rows and no third element is above i and below j."""
    n = len(up)
    down = transpose_oracle(up, n)
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if i != j and (up[i] >> j) & 1 and not up[i] & down[j] & ~((1 << i) | (1 << j)):
                row |= 1 << j
        rows.append(row)
    return rows


def alternating_pass_closure(masks, full):
    """Closure of a set family under union/intersection by alternating a
    full pairwise-union pass and a full pairwise-intersection pass until
    no growth."""
    fam = set(masks) | {0, full}
    while True:
        before = len(fam)
        fam |= {a | b for a in fam for b in fam}
        fam |= {a & b for a in fam for b in fam}
        if len(fam) == before:
            return sorted(fam)


def poset_canon(leq, carrier):
    """Isomorphism-invariant canonical form of a finite poset: the
    lexicographically least relation matrix over all relabelings."""
    n = len(carrier)
    best = None
    for perm in permutations(range(n)):
        mat = tuple(leq(carrier[perm[i]], carrier[perm[j]])
                    for i in range(n) for j in range(n))
        if best is None or mat < best:
            best = mat
    return best


# --------------------------------------------------------------------------
# games on exact rationals: feasible is a set of profile tuples, carriers[i]
# lists player i's strategies, payoffs[i] maps each feasible profile to a
# Fraction.  Results are sets; every comparison and sum is on Fractions.


def _deviate(x, i, s):
    return x[:i] + (s,) + x[i + 1:]


def section_oracle(feasible, carriers, i, x):
    return [s for s in carriers[i] if _deviate(x, i, s) in feasible]


def best_response_oracle(feasible, carriers, payoffs, i, x):
    options = section_oracle(feasible, carriers, i, x)
    top = max(payoffs[i][_deviate(x, i, s)] for s in options)
    return {s for s in options if payoffs[i][_deviate(x, i, s)] == top}


def group_response_oracle(feasible, carriers, payoffs, members, x):
    """Argmax over the feasible box at x of the members' summed payoffs,
    member j's payoff taken at x with coordinate j replaced by y[j]."""
    sections = [set(section_oracle(feasible, carriers, j, x))
                for j in range(len(carriers))]
    box = [y for y in feasible
           if all(y[j] in sections[j] for j in range(len(carriers)))]

    def score(y):
        return sum((payoffs[j][_deviate(x, j, y[j])] for j in members), Fraction(0))

    top = max(score(y) for y in box)
    return {y for y in box if score(y) == top}


def stable_set_oracle(feasible, carriers, payoffs, i):
    return {x for x in feasible
            if all(payoffs[i][_deviate(x, i, s)] <= payoffs[i][x]
                   for s in section_oracle(feasible, carriers, i, x))}


def equilibria_oracle(feasible, carriers, payoffs):
    out = set(feasible)
    for i in range(len(carriers)):
        out &= stable_set_oracle(feasible, carriers, payoffs, i)
    return out


def feasible_box_oracle(feasible, carriers, x):
    sections = [set(section_oracle(feasible, carriers, j, x)) for j in range(len(carriers))]
    return {y for y in feasible if all(y[j] in sections[j] for j in range(len(carriers)))}


def joint_response_oracle(feasible, carriers, payoffs, x):
    best = [best_response_oracle(feasible, carriers, payoffs, j, x)
            for j in range(len(carriers))]
    return {y for y in feasible if all(y[j] in best[j] for j in range(len(carriers)))}


def iteration_oracle(g, direction):
    """Trace of the extremal iteration: from the join (greatest) or meet
    (least) of S, step to the fold of the group response of all players
    until it repeats; every fold is over profile_join/profile_meet."""
    from latnash.games import partial_response

    op = g.profile_join if direction == "greatest" else g.profile_meet
    x = reduce(op, g.feasible)
    trace = [x]
    for _ in range(len(g.feasible)):
        nxt = reduce(op, partial_response(g, g.players, x))
        if nxt == x:
            break
        x = nxt
        trace.append(x)
    return trace


# --------------------------------------------------------------------------
# Reference scans: the label-based order checks that the indexed ones
# replaced, over the public Poset and Game methods only.  They must agree
# with the indexed checks on the verdict, the first witness and every
# raised error.


def increasing_correspondence_scan(phi):
    """For all t <= t' in the domain order, x in phi(t), x' in phi(t'):
    x meet x' in phi(t) and x join x' in phi(t'); each distinct image
    checked for closure once, then every comparable pair scanned."""
    from latnash.errors import NotALattice
    from latnash.order import CheckResult

    dom, cod = phi.domain, phi.codomain
    by_index = lambda img: sorted(img, key=cod.index)

    def bound(op, kind, x, x2):
        got = op(x, x2)
        if got is None:
            raise NotALattice(f"codomain has no {kind} for {x!r}, {x2!r}")
        return got

    first_rep = {}
    for t in dom.elements:
        first_rep.setdefault(phi(t), t)
    for img, t in first_rep.items():
        ordered = by_index(img)
        for i, x in enumerate(ordered):
            for x2 in ordered[i:]:
                lo = bound(cod.meet, "meet", x, x2)
                if lo not in img:
                    return CheckResult(False, witness=(t, t, x, x2, lo, "meet"))
                hi = bound(cod.join, "join", x, x2)
                if hi not in img:
                    return CheckResult(False, witness=(t, t, x, x2, hi, "join"))
    for t in dom.elements:
        for t2 in dom.elements:
            if not dom.leq(t, t2) or phi(t2) == phi(t):
                continue
            for x in by_index(phi(t)):
                for x2 in by_index(phi(t2)):
                    lo = bound(cod.meet, "meet", x, x2)
                    if lo not in phi(t):
                        return CheckResult(False, witness=(t, t2, x, x2, lo, "meet"))
                    hi = bound(cod.join, "join", x, x2)
                    if hi not in phi(t2):
                        return CheckResult(False, witness=(t, t2, x, x2, hi, "join"))
    return CheckResult(True)


def increasing_differences_scan(g, player):
    """Every pair of comparable opponent rests t < t2 (canonical order) and
    own strategies a < b with all four profiles feasible must satisfy
    u(b,t) - u(a,t) <= u(b,t2) - u(a,t2), on the game's Fraction payoffs.
    Then, on a non-product S only, every such pair of rests and pair of
    incomparable own strategies b at t and a at t2, in both orders, whose
    meet (a meet b, t) and join (a join b, t2) are feasible, must satisfy
    u(meet) + u(join) >= u(b,t) + u(a,t2); that failure's witness is
    (player, b, a, t, t2)."""
    from latnash.order import CheckResult

    i = g.players.index(player)
    lat = g.lattices[player]
    others = g.players[:i] + g.players[i + 1:]
    rests = sorted({prof[:i] + prof[i + 1:] for prof in g.feasible},
                   key=lambda rest: [g.lattices[p].index(s) for p, s in zip(others, rest)])
    pairs = [(t, t2) for t in rests for t2 in rests
             if t != t2 and all(g.lattices[p].leq(a, b) for p, a, b in zip(others, t, t2))]
    own_pairs = [(a, b) for a in lat.elements for b in lat.elements
                 if a != b and lat.leq(a, b)]
    make = lambda s, rest: rest[:i] + (s,) + rest[i:]
    u = lambda prof: g.payoff(player, prof)
    for t, t2 in pairs:
        for a, b in own_pairs:
            four = [make(a, t), make(b, t), make(a, t2), make(b, t2)]
            if not all(g.is_feasible(prof) for prof in four):
                continue
            if u(four[1]) + u(four[2]) > u(four[0]) + u(four[3]):
                return CheckResult(False, witness=(player, a, b, t, t2))
    if len(g.feasible) == prod(len(L) for L in g.lattices.values()):
        return CheckResult(True)
    for t, t2 in pairs:
        for a in lat.elements:
            for b in lat.elements:
                if lat.comparable(a, b):
                    continue
                four = [make(b, t), make(a, t2), make(lat.meet(a, b), t), make(lat.join(a, b), t2)]
                if not all(g.is_feasible(prof) for prof in four):
                    continue
                if u(four[2]) + u(four[3]) < u(four[0]) + u(four[1]):
                    return CheckResult(False, witness=(player, b, a, t, t2),
                                       note="incomparable own strategies at comparable rests")
    return CheckResult(True)


def supermodular_on_comparable_rests_oracle(g, player):
    """Does the player's payoff satisfy u(p meet q) + u(p join q) >= u(p) +
    u(q) for every ordered pair p, q of S whose rests (the other players'
    strategies) are comparable, p's below q's?  The condition Topkis's
    comparative statics need on a constrained S, by brute force over all
    pairs; S must be a sublattice, so that both bounds are feasible."""
    i = g.players.index(player)
    lats = [g.lattices[p] for p in g.players]
    u = lambda prof: g.payoff(player, prof)
    for p in g.feasible:
        for q in g.feasible:
            if not all(L.leq(a, b) for j, (L, a, b) in enumerate(zip(lats, p, q)) if j != i):
                continue
            meet = tuple(L.meet(a, b) for L, a, b in zip(lats, p, q))
            join = tuple(L.join(a, b) for L, a, b in zip(lats, p, q))
            if u(meet) + u(join) < u(p) + u(q):
                return False
    return True


def supermodular_sections_scan(g, player):
    """Every incomparable pair y, z of a section (the first profile of S
    with each opponent rest, sections in carrier order) must keep its meet
    and join in the section and satisfy u(lo) + u(hi) >= u(y) + u(z)."""
    from latnash.order import CheckResult

    i = g.players.index(player)
    lat = g.lattices[player]
    make = lambda x, s: x[:i] + (s,) + x[i + 1:]
    seen = set()
    for x in g.feasible:
        if x[:i] + x[i + 1:] in seen:
            continue
        seen.add(x[:i] + x[i + 1:])
        sec = [s for s in lat.elements if g.is_feasible(make(x, s))]
        for a_pos, y in enumerate(sec):
            for z in sec[a_pos + 1:]:
                if lat.leq(y, z) or lat.leq(z, y):
                    continue
                lo, hi = lat.meet(y, z), lat.join(y, z)
                if lo not in sec or hi not in sec:
                    return CheckResult(False, witness=(player, x, y, z),
                                       note="join/meet of a section pair leaves the section")
                u = lambda s: g.payoff(player, make(x, s))
                if u(lo) + u(hi) < u(y) + u(z):
                    return CheckResult(False, witness=(player, x, y, z))
    return CheckResult(True)


def response_values_scan(g):
    """The fixed-point audit's value hypothesis by its full loop: unless S
    fails to be a sublattice of the strategy product, the first joint
    response value, in the order of S, that is empty, is not a sublattice
    of S, or lacks a max or a min; each distinct value checked once."""
    from latnash.games import partial_response
    from latnash.order import CheckResult, is_sublattice, product_poset

    labels = [g.profile_label(x) for x in g.feasible]
    if not is_sublattice(product_poset([g.lattices[p] for p in g.players]), labels):
        return CheckResult(False, witness=None, note="not evaluated: S is not a sublattice")
    S = g.feasible_poset()
    passed = set()
    for x in g.feasible:
        ys = frozenset(g.profile_label(y) for y in partial_response(g, g.players, x))
        if ys in passed:
            continue
        if not ys:
            return CheckResult(False, witness=(x, "empty value"))
        r = is_sublattice(S, ys)
        if not r:
            return CheckResult(False, witness=(x,) + r.witness)
        # S is a lattice here, so ys has a max (min) iff its sup (inf) is in it
        if S.sup(ys) not in ys or S.inf(ys) not in ys:
            return CheckResult(False, witness=(x, "no max/min"))
        passed.add(ys)
    return CheckResult(True)


def random_game_oracle(spec, seed):
    """The random generator with each payoff polynomial evaluated term by
    term in Fraction arithmetic: the same draws, in the same order, and
    the same feasible set, built into a Game."""
    import random
    from itertools import product as iter_product

    from latnash.games import Game, _as_range
    from latnash.order import chain

    rng = random.Random(seed)
    n = rng.randint(*_as_range(spec, "players"))
    lengths = [rng.randint(*_as_range(spec, "chain_length")) for _ in range(n)]
    players = [f"p{i + 1}" for i in range(n)]
    lattices = {p: chain([str(v) for v in range(lengths[i])])
                for i, p in enumerate(players)}
    all_profiles = list(iter_product(*(lattices[p].elements for p in players)))
    mode = spec.feasibility
    if mode == "mixed":
        mode = rng.choice(["product", "sublattice"])
    if mode == "product" or len(all_profiles) <= 2:
        profiles = all_profiles
    else:
        profiles = grow_sublattice_oracle(rng, all_profiles, lengths)
    linear, interaction = _as_range(spec, "linear_range"), _as_range(spec, "interaction_range")
    payoffs = {}
    for p in players:
        a = [Fraction(rng.randint(*linear)) for _ in range(n)]
        b = {(j, k): Fraction(rng.randint(*interaction))
             for j in range(n) for k in range(j + 1, n)}
        table = {}
        for prof in profiles:
            v = [int(s) for s in prof]
            total = sum((a[j] * v[j] for j in range(n)), Fraction(0))
            for (j, k), c in b.items():
                total += c * v[j] * v[k]
            table[prof] = total
        payoffs[p] = table
    return Game(players, lattices, profiles, payoffs, name=f"random-{seed}")


def grow_sublattice_oracle(rng, all_profiles, lengths, retries: int = 60):
    """The generator's grown S by componentwise max and min of string
    profiles: the same draws, the same set, in integer-tuple order."""
    from latnash.errors import GenerationFailed

    n = len(lengths)
    for _ in range(retries):
        k = rng.randint(2, min(len(all_profiles), 4 + len(all_profiles) // 4))
        members = set(rng.sample(all_profiles, k))
        frontier = list(members)
        while frontier:
            fresh = []
            for a in frontier:
                for b in list(members):
                    jo = tuple(str(max(int(u), int(v))) for u, v in zip(a, b))
                    me = tuple(str(min(int(u), int(v))) for u, v in zip(a, b))
                    for c in (jo, me):
                        if c not in members:
                            members.add(c)
                            fresh.append(c)
            frontier = fresh
        surjective = all(
            {prof[i] for prof in members} == {str(v) for v in range(lengths[i])}
            for i in range(n))
        if surjective:
            return sorted(members, key=lambda prof: tuple(int(s) for s in prof))
    raise GenerationFailed(
        f"no surjective sublattice found within {retries} attempts")


def close_in_lattice_oracle(P, seeds):
    """The sublattice of P generated by the names ``seeds``, by pairwise
    ``Poset.join``/``meet`` from a frontier; NotALattice on a missing
    bound."""
    from latnash.errors import NotALattice

    members = set(seeds)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (P.join(a, b), P.meet(a, b)):
                    if c is None:
                        raise NotALattice("closure requires a lattice ambient")
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return members


def random_lattice_oracle(rng, max_size: int = 8, min_size: int = 2):
    """:func:`latnash.order.random_lattice` by closing names and rebuilding
    the result from its covers: the same draws and the same lattice."""
    from latnash.order import build_poset, chain, induced_poset, product_poset

    for _ in range(200):
        k = rng.randint(2, 3)
        lengths = [rng.randint(2, 3) for _ in range(k)]
        grid = product_poset([chain([str(v) for v in range(ln)])
                              for ln in lengths])
        pool = list(grid.elements)
        seeds = rng.sample(pool, rng.randint(2, min(6, len(pool))))
        members = close_in_lattice_oracle(grid, seeds)
        if min_size <= len(members) <= max_size:
            sub = induced_poset(grid, members)
            relabel = {e: f"e{i}" for i, e in enumerate(sub.elements)}
            return build_poset([relabel[e] for e in sub.elements],
                               [(relabel[a], relabel[b]) for a, b in sub.covers()])
    return chain([f"e{i}" for i in range(min_size)])


def random_sublattice_oracle(rng, P):
    """:func:`latnash.order.random_sublattice` by closing names."""
    seeds = rng.sample(list(P.elements), rng.randint(1, max(1, len(P.elements) // 2)))
    return close_in_lattice_oracle(P, seeds)


# --------------------------------------------------------------------------
# All-pairs scans: the order scans as they were before they tried only the
# pairs that can fail.  Each tries comparable pairs too, in the same order,
# so it names the same first witness as the skipping scan.


def pair_scan_oracle(up, down, lower, upper):
    """:func:`latnash._kernels.pair_scan` over every pair: with equal
    masks every member pair a < b, comparable or not, and otherwise every
    a in ``lower`` against every b in ``upper``."""
    from latnash import _kernels

    for a in _kernels.indices(lower):
        for b in _kernels.indices(upper):
            if lower == upper and b <= a:
                continue
            c = _kernels.least(up, down, up[a] & up[b])
            d = _kernels.greatest(up, down, down[a] & down[b])
            if c is None or d is None or not (upper >> c) & 1 or not (lower >> d) & 1:
                return a, b
    return None


def increasing_scan_oracle(dom, cod, images, rows):
    """``latnash.order._increasing_scan`` over every element pair: each
    distinct image's pairs with repetition, then every element pair of
    each distinct image pair (t, t') with t' in ``rows[t]``."""
    from itertools import combinations_with_replacement
    from itertools import product as iter_product

    from latnash import _kernels
    from latnash.errors import NotALattice
    from latnash.order import CheckResult

    names = cod.elements

    def scan(t, t2, mask, mask2, pairs):
        for a, b in pairs:
            lo = cod._meet_at(a, b)
            if lo is None:
                raise NotALattice(f"codomain has no meet for {names[a]!r}, {names[b]!r}")
            if not (mask >> lo) & 1:
                return witness(t, t2, a, b, lo, "meet")
            hi = cod._join_at(a, b)
            if hi is None:
                raise NotALattice(f"codomain has no join for {names[a]!r}, {names[b]!r}")
            if not (mask2 >> hi) & 1:
                return witness(t, t2, a, b, hi, "join")
        return None

    def witness(t, t2, a, b, c, kind):
        return CheckResult(False, witness=(dom.elements[t], dom.elements[t2],
                                           names[a], names[b], names[c], kind))

    ids = {}
    distinct = []
    of = []
    for t, mask in enumerate(images):
        k = ids.get(mask)
        if k is None:
            k = ids[mask] = len(distinct)
            distinct.append((_kernels.indices(mask), mask, t))
        of.append(k)
    for ix, mask, t in distinct:
        r = scan(t, t, mask, mask, combinations_with_replacement(ix, 2))
        if r is not None:
            return r
    passed = set()
    m = len(distinct)
    for t, k in enumerate(of):
        ix, mask, _ = distinct[k]
        for t2 in _kernels.indices(rows[t]):
            k2 = of[t2]
            if k2 == k or k * m + k2 in passed:
                continue
            ix2, mask2, _ = distinct[k2]
            r = scan(t, t2, mask, mask2, iter_product(ix, ix2))
            if r is not None:
                return r
            passed.add(k * m + k2)
    return CheckResult(True)


def sublattice_verdict_oracle(g):
    """The "S is a sublattice of the strategy product" verdict over
    labels: S passes when it is the whole product, and otherwise S's
    labels are looked up in the product poset, sorted by index and run
    through the all-pairs scan, whose failing pair is named join first;
    NotALattice on a missing bound."""
    from latnash.errors import NotALattice
    from latnash.order import CheckResult, product_poset

    if len(g.feasible) == g.product_size:
        return CheckResult(True)
    P = product_poset([g.lattices[p] for p in g.players])
    labels = {g.profile_label(prof) for prof in g.feasible}
    mask = sum(1 << P.index(e) for e in labels)
    pair = pair_scan_oracle(P._up, P._down, mask, mask)
    if pair is None:
        return CheckResult(True)
    a, b = pair
    x, y = P.elements[a], P.elements[b]
    for kind, c in (("join", P.join(x, y)), ("meet", P.meet(x, y))):
        if c is None:
            raise NotALattice(f"ambient poset has no {kind} for {x!r}, {y!r}")
        if c not in labels:
            return CheckResult(False, witness=(x, y, c, kind))


def trace_rows_oracle(rows, kept):
    """The rows at the set bits of the bitmask ``kept``, cut down to those
    bits and renumbered, by testing every kept index against every kept
    row."""
    keep = [j for j in range(len(rows)) if (kept >> j) & 1]
    out = []
    for i in keep:
        m, row = rows[i], 0
        for new, j in enumerate(keep):
            if (m >> j) & 1:
                row |= 1 << new
        out.append(row)
    return out


# --------------------------------------------------------------------------
# Order construction and subset walks before the one-pass closure.


def build_poset_oracle(elements, order_pairs):
    """:func:`latnash.order.build_poset` closing every relation by Warshall,
    transposing bit by bit and then looking for a cycle."""
    from latnash import _kernels
    from latnash.errors import CycleDetected, DuplicateElement, EmptySubset, UnknownElement
    from latnash.order import Poset

    elements = list(elements)
    if not elements:
        raise EmptySubset("a poset needs at least one element")
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(f"duplicate element {e!r}")
        seen.add(e)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    rows = [0] * n
    for a, b in order_pairs:
        if a not in index:
            raise UnknownElement(f"order pair references unknown element {a!r}")
        if b not in index:
            raise UnknownElement(f"order pair references unknown element {b!r}")
        rows[index[a]] |= 1 << index[b]
    up = _kernels.transitive_closure(rows, n)
    down = [0] * n
    for i, m in enumerate(up):
        while m:
            j = (m & -m).bit_length() - 1
            down[j] |= 1 << i
            m &= m - 1
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise CycleDetected(
                f"elements {elements[i]!r} and {elements[j]!r} are mutually comparable")
    return Poset(elements, up, down, _trusted=True)


def subset_bounds_oracle(P, idx):
    """Per nonempty subset ``m`` of the elements at the indices ``idx`` (bit
    t for ``idx[t]``), in increasing m: ``(m, sup, inf)`` as indices in P,
    None when the bound does not exist."""
    from latnash import _kernels

    up, down = P._up, P._down
    full = (1 << len(P.elements)) - 1
    ups = [full] * (1 << len(idx))
    downs = [full] * (1 << len(idx))
    for m in range(1, 1 << len(idx)):
        low = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        ups[m] = ups[rest] & up[idx[low]]
        downs[m] = downs[rest] & down[idx[low]]
        yield (m, _kernels.least(up, down, ups[m]), _kernels.greatest(up, down, downs[m]))


def _subset_members(P, idx, m):
    return tuple(P.elements[idx[t]] for t in range(len(idx)) if (m >> t) & 1)


def complete_lattice_exhaustive_oracle(P):
    """``is_complete_lattice(P, exhaustive=True)`` over
    :func:`subset_bounds_oracle`."""
    from latnash.errors import ProductTooLarge
    from latnash.order import CheckResult

    n = len(P.elements)
    if n > 20:
        raise ProductTooLarge(
            f"exhaustive check over 2^{n} subsets exceeds the limit of 2^20")
    idx = range(n)
    for m, sup, inf in subset_bounds_oracle(P, idx):
        if sup is None or inf is None:
            kind = "sup" if sup is None else "inf"
            return CheckResult(False, witness=(_subset_members(P, idx, m), None, kind),
                               mode="exhaustive")
    return CheckResult(True, mode="exhaustive")


def subcomplete_exhaustive_oracle(P, S):
    """The exhaustive mode of ``is_subcomplete(P, S)`` over
    :func:`subset_bounds_oracle`."""
    from latnash.errors import NotALattice
    from latnash.order import CheckResult

    idx = sorted(P.index(e) for e in set(S))
    smask = sum(1 << i for i in idx)
    for m, sup, inf in subset_bounds_oracle(P, idx):
        for c, kind in ((sup, "sup"), (inf, "inf")):
            if c is None:
                raise NotALattice(
                    f"ambient poset has no {kind} for "
                    f"{reprlib.repr(_subset_members(P, idx, m))}")
            if not (smask >> c) & 1:
                return CheckResult(False, mode="exhaustive",
                                   witness=(_subset_members(P, idx, m), P.elements[c], kind))
    return CheckResult(True, mode="exhaustive")


def order_rows_oracle(keys, ups, masks):
    """Up-rows of the componentwise order on distinct index tuples, where
    ``ups[c]`` are coordinate c's up-rows (or down-rows, for down-rows) and
    bit k of ``masks[c][j]`` is set iff keys[k][c] == j: per coordinate and
    index j, the union of ``masks[c][j2]`` over every set bit j2 of
    ``ups[c][j]``."""
    full = (1 << len(keys)) - 1
    above = []
    for at, up in zip(masks, ups):
        above.append([reduce(int.__or__, (at[j] for j in range(len(at)) if (row >> j) & 1), 0)
                      for row in up])
    return [reduce(int.__and__, (above[c][j] for c, j in enumerate(key)), full)
            for key in keys]


def game_tables_oracle(carriers, feasible, payoffs):
    """(feasible, keys, masks, sections, columns, scale) of a game, as
    ``Game`` builds them, from their definitions.  ``carriers[i]`` lists
    player i's strategies in index order, ``feasible`` lists the profiles
    in any order and ``payoffs[i]`` maps each profile to an int, a Fraction
    or a string ``Fraction`` reads.

    The profiles are sorted by their strategy indices, and the scale is
    the least common multiple of all payoff denominators.  Bit k of
    ``masks[i][j]`` is set iff profile k plays index j for player i.  A
    player's sections group the profiles by the other players' strategy
    indices, in order of first appearance; each section is (its first
    position, those indices, the scaled payoff per own index or None where
    it holds no profile, the OR of the masks of the own indices it holds,
    the bitmask of those indices, the OR of the masks of its argmax own
    indices, the bitmask of those argmax indices).  ``columns[i][k]`` is
    the section of position k."""
    keys = sorted(tuple(c.index(s) for c, s in zip(carriers, x)) for x in feasible)
    profiles = [tuple(c[j] for c, j in zip(carriers, key)) for key in keys]
    values = [{x: Fraction(v) for x, v in table.items()} for table in payoffs]
    scale = lcm(*(v.denominator for table in values for v in table.values()))
    masks = [[sum(1 << k for k, key in enumerate(keys) if key[i] == j) for j in range(len(c))]
             for i, c in enumerate(carriers)]
    sections, columns = [], []
    for i, c in enumerate(carriers):
        groups = {}
        for k, key in enumerate(keys):
            groups.setdefault(key[:i] + key[i + 1:], []).append(k)
        table = {}
        for rest, ks in groups.items():
            pay = [None] * len(c)
            for k in ks:
                pay[keys[k][i]] = int(values[i][profiles[k]] * scale)
            own = [keys[k][i] for k in ks]
            top = max(pay[j] for j in own)
            table[rest] = (ks[0], rest, tuple(pay), sum(masks[i][j] for j in own),
                           sum(1 << j for j in own),
                           sum(masks[i][j] for j in own if pay[j] == top),
                           sum(1 << j for j in own if pay[j] == top))
        sections.append(tuple(table.values()))
        columns.append(tuple(table[key[:i] + key[i + 1:]] for key in keys))
    return (tuple(profiles), tuple(keys), tuple(tuple(m) for m in masks), tuple(sections),
            tuple(columns), scale)
