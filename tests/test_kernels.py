import random

from latnash import _kernels

from oracles import alternating_pass_closure, reachability_closure


def test_closure_against_reachability_oracle():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 25)
        elements = list(range(n))
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))]
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        got = _kernels.transitive_closure(rows, n)
        succ = reachability_closure(elements, pairs)
        for i in elements:
            want = 0
            for j in succ[i]:
                want |= 1 << j
            assert got[i] == want


def test_family_close_against_alternating_pass_oracle():
    rng = random.Random(1)
    for _ in range(60):
        nbits = rng.randint(1, 9)
        full = (1 << nbits) - 1
        masks = [rng.randint(0, full) for _ in range(rng.randint(0, 8))]
        assert _kernels.family_close(masks, full) == \
            alternating_pass_closure(masks, full)
