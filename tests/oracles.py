"""Independent reference implementations used as test oracles.

Everything here recomputes results from definitions with naive data
structures (dicts of sets, explicit scans), deliberately sharing no code
with the production paths it checks.
"""

from fractions import Fraction
from itertools import permutations


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
