"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names alone give the same pass/fail map under plain -v.
"""

import random
import time
from itertools import combinations

import pytest

from latnash import equilibria, gallery, games, omega, topology
from latnash.order import (
    chain,
    induced_poset,
    is_complete_lattice,
    is_increasing_correspondence,
    is_lattice,
    is_sublattice,
    is_subcomplete,
    product_poset,
    random_lattice,
    random_sublattice,
)

from catalogue import all_lattices_of_size, catalogue
from oracles import extremum_oracle


def _report(criterion: int, message: str):
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def solved_corpus(corpus):
    """Corpus with validation and brute-force equilibria computed once."""
    out = []
    for g in corpus:
        validation = games.validate_supermodular(g)
        assert validation.ok
        out.append((g, validation, equilibria.equilibria_bruteforce(g)))
    return out


def test_criterion_1_main_theorem_suite(solved_corpus):
    t0 = time.perf_counter()
    ok = 0
    for g, validation, eq in solved_corpus:
        E = eq.profiles
        assert E, f"empty equilibrium set on {g.name}"
        labels = [g.profile_label(x) for x in E]
        inducedE = induced_poset(product_poset([g.lattices[p] for p in g.players]), labels)
        if len(E) <= 12:
            assert is_complete_lattice(inducedE, exhaustive=True), g.name
        else:
            assert is_complete_lattice(inducedE), g.name
        ok += 1
    elapsed = time.perf_counter() - t0
    assert ok == 200
    assert elapsed < 120
    _report(1, f"200/200 games have a nonempty complete-lattice equilibrium "
               f"set ({elapsed:.1f}s)")


def test_criterion_2_fixed_point_identities(solved_corpus):
    joint_checked = 0
    group_checked = 0
    for g, validation, eq in solved_corpus:
        # Fix of the joint response must equal E exactly (the call itself
        # raises InternalContradiction on any mismatch)
        fix = equilibria.fixed_points(g, "joint")
        assert fix == eq.profiles
        joint_checked += 1
        if len(g.players) <= 3:
            for r in range(1, len(g.players) + 1):
                for subset in combinations(g.players, r):
                    fix_i = equilibria.fixed_points(g, "partial", subset)
                    stable = [set(equilibria.stable_set(g, p)) for p in subset]
                    want = tuple(x for x in g.feasible
                                 if all(x in s for s in stable))
                    assert fix_i == want
                    group_checked += 1
    assert joint_checked == 200
    _report(2, f"Fix(joint)=E on 200/200 games; group fixed-point identity "
               f"exact on {group_checked} player subsets")


def test_criterion_3_constructive_extremal_equilibria(solved_corpus):
    for g, validation, eq in solved_corpus:
        for direction in ("greatest", "least"):
            got, trace = equilibria.extremal_equilibrium(g, direction)
            want = extremum_oracle(g.profile_leq, eq.profiles, direction)
            assert got == want, g.name
            assert 1 <= len(trace) <= len(g.feasible)
            for a, b in zip(trace, trace[1:]):
                assert a != b
                if direction == "greatest":
                    assert g.profile_leq(b, a)
                else:
                    assert g.profile_leq(a, b)
    _report(3, "iteration reaches the brute-force extremal equilibria on "
               "200/200 games with monotone traces of length <= |S|")


def test_criterion_4_correspondence_structure(solved_corpus):
    rng = random.Random(4)
    violations = 0
    for g, validation, eq in solved_corpus:
        for p in g.players:
            assert is_increasing_correspondence(
                equilibria.individual_response_correspondence(g, p)), (g.name, p)
        assert is_increasing_correspondence(
            equilibria.group_response_correspondence(g)), g.name
        S = g.feasible_poset()
        sample_I = [rng.sample(g.players, rng.randint(1, len(g.players)))
                    for _ in range(2)]
        for x in g.feasible:
            ys = games.partial_response(g, g.players, x)
            assert ys, (g.name, x)
            assert is_sublattice(S, [g.profile_label(y) for y in ys]), (g.name, x)
            assert extremum_oracle(g.profile_leq, ys, "greatest") is not None
            assert extremum_oracle(g.profile_leq, ys, "least") is not None
            R = set(games.joint_response(g, x))
            for I in sample_I:
                assert R <= set(games.partial_response(g, I, x)), (g.name, x, I)
    assert violations == 0
    _report(4, "individual/joint responses increasing, joint values are "
               "nonempty bounded sublattices, R(x) within sampled group "
               "responses: 0 violations on 200 games")


def test_criterion_5_topology_lemmas():
    t0 = time.perf_counter()
    rng = random.Random(5)
    for _ in range(100):
        P = random_lattice(rng, max_size=8)
        Q = random_sublattice(rng, P)
        assert topology.check_restriction_lemma(P, Q), (P.elements, sorted(Q))
    prod_done = 0
    while prod_done < 50:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        total = 1
        for s in sizes:
            total *= s
        if total > 12:
            continue
        factors = [chain([str(v) for v in range(s)]) for s in sizes]
        assert topology.check_product_interval_lemma(factors), sizes
        prod_done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(5, f"restriction lemma 100/100, product-interval lemma 50/50 "
               f"({elapsed:.1f}s)")


def test_criterion_6_finite_topkis_equivalence():
    small = [P for n in range(1, 6) for P in all_lattices_of_size(n)]
    assert len(small) == 10  # every lattice class on <= 5 elements
    cat = catalogue(min_entries=20)
    assert len(cat) >= 20
    checked = 0
    for P in cat:
        elems = P.elements
        for r in range(1, len(elems) + 1):
            for subset in combinations(elems, r):
                exhaustive = is_subcomplete(P, subset, cap=12)
                assert exhaustive.mode == "exhaustive"
                pairwise = is_sublattice(P, subset)
                assert bool(exhaustive) == bool(pairwise), (elems, subset)
                checked += 1
    _report(6, f"subcomplete(exhaustive) == sublattice(pairwise) on all "
               f"{checked} subsets across {len(cat)} non-isomorphic lattices "
               f"(all 10 classes of size <= 5 included)")


def test_criterion_7_counterexample_refutation():
    r1 = omega.refute_statement(1)
    r2 = omega.refute_statement(2)
    for r in (r1, r2):
        assert r.subcomplete is True
        assert r.compact is True
        assert r.closed is False
        assert r.refutes()
        assert r.witness == omega.CofiniteSet.without({"x0"})
    for n in range(1, 7):
        P = omega.finite_truncation(n)
        T = topology.interval_topology(P)
        assert len(T.closed_masks) == 2 ** len(P.elements), n
    _report(7, "both closure claims refuted by L \\ {x0} "
               "(subcomplete, compact, not closed); truncations n=1..6 are "
               "discrete")


def test_criterion_8_determinism_and_format(tmp_path):
    # gallery round-trips
    for name in gallery.GAME_FIXTURES:
        text = gallery.fixture_text(name)
        g = games.load_game(text, source=name)
        canonical = games.serialize_game(g)
        again = games.load_game(canonical, source=name)
        assert again == g
        assert games.serialize_game(again) == canonical
    # byte-identical generation and reports
    spec = games.RandomGameSpec()
    a = games.serialize_game(games.random_supermodular_game(spec, 42))
    b = games.serialize_game(games.random_supermodular_game(spec, 42))
    assert a == b
    g = games.random_supermodular_game(spec, 42)
    r1 = equilibria.equilibrium_report(g).to_text()
    r2 = equilibria.equilibrium_report(
        games.random_supermodular_game(spec, 42)).to_text()
    assert r1 == r2
    _report(8, "gallery files round-trip; seed 42 reproduces byte-identical "
               "games and reports")
