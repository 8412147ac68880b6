import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from itertools import product as iter_product

import pytest

from latnash import _kernels, equilibria, gallery, games, order
from latnash.errors import (
    EmptyPlayerSet,
    InternalContradiction,
    PreconditionViolated,
    UnknownElement,
)
from latnash.order import (
    CheckResult,
    build_poset,
    chain,
    induced_poset,
    is_increasing_correspondence,
    is_lattice,
    is_subcomplete,
    is_sublattice,
)

from oracles import extremum_oracle


def coordination():
    return gallery.load_fixture("coordination")


def diag2():
    return gallery.load_fixture("diag2")


def one_player_chain(payoffs):
    n = len(payoffs)
    return games.load_game(json.dumps({
        "players": ["solo"],
        "strategies": {"solo": {
            "elements": [str(i) for i in range(n)],
            "order": [[str(i), str(i + 1)] for i in range(n - 1)]}},
        "feasible": "product",
        "payoffs": {"solo": {str(i): payoffs[i] for i in range(n)}},
    }))


# --------------------------------------------------------------------------
# stable sets and brute force


def test_one_player_stable_set_is_argmax():
    g = one_player_chain(["0", "5", "3", "5"])
    assert equilibria.stable_set(g, "solo") == (("1",), ("3",))
    assert equilibria.equilibria_bruteforce(g).profiles == (("1",), ("3",))


def test_constant_payoffs_stable_everywhere():
    g = one_player_chain(["2", "2", "2"])
    assert equilibria.stable_set(g, "solo") == g.feasible


def test_coordination_stable_sets_and_equilibria():
    g = coordination()
    eq = equilibria.equilibria_bruteforce(g)
    assert equilibria.stable_set(g, "p1") == (("0", "0"), ("1", "1"))
    assert eq.profiles == (("0", "0"), ("1", "1"))


def test_anti_coordination_has_anti_diagonal_equilibria():
    g = gallery.load_fixture("anti-coordination")
    assert equilibria.equilibria_bruteforce(g).profiles == \
        (("0", "1"), ("1", "0"))


def test_matching_pennies_has_no_equilibrium():
    g = gallery.load_fixture("matching-pennies")
    assert equilibria.equilibria_bruteforce(g).profiles == ()


def test_diag2_equilibria_both_profiles():
    # sections are singletons at both feasible profiles, so neither player
    # has any deviation at all
    g = diag2()
    assert equilibria.equilibria_bruteforce(g).profiles == \
        (("0", "0"), ("1", "1"))


# --------------------------------------------------------------------------
# fixed-point identities


def test_fixed_points_of_joint_response_equal_equilibria():
    for name in ("coordination", "anti-coordination", "matching-pennies", "diag2"):
        g = gallery.load_fixture(name)
        fix = equilibria.fixed_points(g, "joint")
        assert fix == equilibria.equilibria_bruteforce(g).profiles


def test_group_fixed_points_all_player_subsets(small_corpus):
    for g in small_corpus[:15]:
        if len(g.players) > 3:
            continue
        for r in range(1, len(g.players) + 1):
            for subset in combinations(g.players, r):
                fix = equilibria.fixed_points(g, "partial", subset)
                stable = [set(equilibria.stable_set(g, p)) for p in subset]
                want = tuple(x for x in g.feasible
                             if all(x in s for s in stable))
                assert fix == want


def test_fixed_points_rejects_empty_player_set():
    # the set is read in full before it is found empty
    for players in ([], None, iter(()), (p for p in [])):
        with pytest.raises(EmptyPlayerSet, match="^player set is empty$"):
            equilibria.fixed_points(coordination(), "partial", players)


def test_group_correspondence_player_set():
    g = gallery.load_fixture("lattice-not-sublattice")
    everyone = equilibria.group_response_correspondence(g, g.players)
    assert equilibria.group_response_correspondence(g).mapping == everyone.mapping
    one = equilibria.group_response_correspondence(g, g.players[:1])
    assert one.mapping == {g.profile_label(x): frozenset(
        g.profile_label(y) for y in games.partial_response(g, g.players[:1], x))
        for x in g.feasible}
    for empty in ([], (p for p in [])):
        with pytest.raises(EmptyPlayerSet, match="^player set is empty$"):
            equilibria.group_response_correspondence(g, empty)


# --------------------------------------------------------------------------
# extremal iteration


def test_coordination_extremal():
    g = coordination()
    top, trace = equilibria.extremal_equilibrium(g, "greatest")
    assert top == ("1", "1") and trace == [("1", "1")]
    bot, trace = equilibria.extremal_equilibrium(g, "least")
    assert bot == ("0", "0") and trace == [("0", "0")]


def test_one_player_extremal_breaks_ties_toward_the_ends():
    g = one_player_chain(["0", "5", "3", "5"])
    top, _ = equilibria.extremal_equilibrium(g, "greatest")
    bot, _ = equilibria.extremal_equilibrium(g, "least")
    assert top == ("3",) and bot == ("1",)


def test_extremal_requires_validated_game():
    g = gallery.load_fixture("anti-coordination")
    with pytest.raises(PreconditionViolated):
        equilibria.extremal_equilibrium(g, "greatest")
    with pytest.raises(ValueError):
        equilibria.extremal_equilibrium(coordination(), "upwards")


def test_validation_of_another_game_is_refused():
    # the anti-coordination game read with the coordination game's verdict
    # would be "validated" and then contradict itself; a report of an equal
    # copy of the game is refused too
    g, other = gallery.load_fixture("anti-coordination"), coordination()
    refused = "not validate_supermodular of this game"
    for report in (games.validate_supermodular(other),
                   games.validate_supermodular(gallery.load_fixture("anti-coordination"))):
        with pytest.raises(PreconditionViolated, match=refused):
            equilibria.equilibrium_report(g, report)
    for report in (games.validate_supermodular(g), games.validate_supermodular(coordination())):
        with pytest.raises(PreconditionViolated, match=refused):
            equilibria.equilibrium_report(other, report)
    rep = equilibria.equilibrium_report(other, games.validate_supermodular(other))
    assert rep.validation is games.validate_supermodular(other)
    assert rep.min_equilibrium == ("0", "0")


def test_extremal_matches_bruteforce_on_corpus_sample(small_corpus):
    for g in small_corpus:
        E = equilibria.equilibria_bruteforce(g).profiles
        for direction in ("greatest", "least"):
            got, trace = equilibria.extremal_equilibrium(g, direction)
            assert got == extremum_oracle(g.profile_leq, E, direction)
            assert 1 <= len(trace) <= len(g.feasible)
            for a, b in zip(trace, trace[1:]):
                if direction == "greatest":
                    assert g.profile_leq(b, a) and a != b
                else:
                    assert g.profile_leq(a, b) and a != b


# --------------------------------------------------------------------------
# correspondences on games


def test_individual_and_group_responses_increasing(small_corpus):
    for g in small_corpus[:12]:
        for p in g.players:
            assert is_increasing_correspondence(
                equilibria.individual_response_correspondence(g, p))
        assert is_increasing_correspondence(
            equilibria.group_response_correspondence(g))


@pytest.mark.parametrize("build", [equilibria.individual_response_correspondence,
                                   equilibria.section_correspondence])
def test_correspondence_of_unknown_player_rejected(build):
    with pytest.raises(UnknownElement, match="unknown player 'nobody'"):
        build(coordination(), "nobody")


def test_section_and_box_correspondences_increasing(small_corpus):
    for g in small_corpus[:12]:
        for p in g.players:
            assert is_increasing_correspondence(
                equilibria.section_correspondence(g, p))
        assert is_increasing_correspondence(equilibria.box_correspondence(g))


# The diamond, N5 and M3, each listed in an element order that is not a
# linear extension, so that index order and order rank differ
_SHUFFLED_LATTICES = [
    build_poset(["t", "l", "b", "r"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),
    build_poset(["1", "a", "0", "c", "b"],
                [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
    build_poset(["x", "1", "z", "0", "y"],
                [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")]),
]


def _shuffled_lattice_games():
    """Games of each shuffled lattice against a 2-chain, with random
    integer payoffs, on the product and on the product less the profile
    (top, 0), which keeps every strategy and is not a product."""
    rng = random.Random(26)
    two = chain(["0", "1"])
    for L in _SHUFFLED_LATTICES:
        product = list(iter_product(L.elements, two.elements))
        for S in (product, [x for x in product if x != (L.top(), "0")]):
            yield games.Game(["p1", "p2"], {"p1": L, "p2": two}, S,
                             {p: {x: Fraction(rng.randint(-2, 2)) for x in S}
                              for p in ("p1", "p2")})


@pytest.mark.parametrize("g", [gallery.load_fixture(n) for n in sorted(gallery.GAME_FIXTURES)]
                         + list(_shuffled_lattice_games()), ids=repr)
def test_correspondence_builders_match_the_label_definitions(g):
    # the builders read the game's masks; the definitions list profiles
    label = g.profile_label

    def same(phi, image):
        want = {label(x): frozenset(image(x)) for x in g.feasible}
        assert phi.mapping == want and list(phi.mapping) == list(phi.domain.elements)
        assert all(phi(t) == images for t, images in want.items())

    for p in g.players:
        same(equilibria.individual_response_correspondence(g, p),
             lambda x: games.best_response(g, p, x))
        same(equilibria.section_correspondence(g, p), lambda x: games.section(g, p, x))
    for players in (g.players, g.players[:1]):
        same(equilibria.group_response_correspondence(g, players),
             lambda x: map(label, games.partial_response(g, players, x)))
    same(equilibria.box_correspondence(g), lambda x: map(label, games.feasible_box(g, x)))


def test_report_and_audit_on_e_build_no_labels(monkeypatch):
    # 1,001 x 1,000 strategies, S = E = 1,001 profiles, every payoff 0: E
    # crosses into the order layer as S's position mask, and S's own
    # labels are built with S
    wide, tall = chain([str(v) for v in range(1001)]), chain([str(v) for v in range(1000)])
    S = [(str(v), str(min(v, 999))) for v in range(1001)]
    g = games.Game(["p1", "p2"], {"p1": wide, "p2": tall}, S,
                   {p: {x: Fraction(0) for x in S} for p in ("p1", "p2")})
    g.feasible_poset()
    calls = Counter()
    label = games.Game._label

    def counted(self, prof):
        calls["_label"] += 1
        return label(self, prof)

    monkeypatch.setattr(games.Game, "_label", counted)
    report = equilibria.equilibrium_report(g, run_iteration=False)
    audit = equilibria.tarski_zhou_check(g)
    assert calls["_label"] == 0
    assert len(report.equilibria) == len(S) and report.is_subcomplete_in_S and audit.ok


def test_sections_are_sublattices_on_validated_games(small_corpus):
    for g in small_corpus[:12]:
        for p in g.players:
            lat = g.lattices[p]
            for x in g.feasible:
                assert is_sublattice(lat, games.section(g, p, x))


# --------------------------------------------------------------------------
# fixed-point audit


def test_audit_passes_on_generated_games(small_corpus):
    for g in small_corpus[:12]:
        audit = equilibria.tarski_zhou_check(g)
        assert audit.ok, audit.render()


def test_audit_flags_non_increasing_response():
    g = gallery.load_fixture("matching-pennies")
    audit = equilibria.tarski_zhou_check(g)
    assert not audit.ok
    r = audit.hypotheses["the joint best-response correspondence is increasing"]
    assert not r and r.witness is not None
    t, t2, x, x2, bound, rule = r.witness
    assert rule in ("meet", "join")
    assert not audit.conclusion.ok  # empty fixed-point set here


def test_product_form_joint_response_nonempty_and_matches_group(small_corpus):
    import math
    for g in small_corpus:
        total = math.prod(len(g.lattices[p]) for p in g.players)
        if len(g.feasible) != total:
            continue
        for x in g.feasible:
            assert games.joint_response(g, x)
        fix_joint = equilibria.fixed_points(g, "joint")
        fix_group = equilibria.fixed_points(g, "partial", g.players)
        assert fix_joint == fix_group


def test_product_form_max_selection_of_R_iterates_like_group_response(small_corpus):
    # iterate x -> max R(x) from the top of S; on product-form games this
    # must land on the same greatest equilibrium as the group iteration
    import math
    for g in small_corpus[:20]:
        total = math.prod(len(g.lattices[p]) for p in g.players)
        if len(g.feasible) != total:
            continue
        x = g.feasible[-1]  # canonical order puts the top last
        for _ in range(len(g.feasible) + 1):
            R = games.joint_response(g, x)
            assert R
            nxt = R[0]
            for y in R[1:]:
                nxt = g.profile_join(nxt, y)
            assert nxt in set(R)
            if nxt == x:
                break
            x = nxt
        top, _ = equilibria.extremal_equilibrium(g, "greatest")
        assert x == top


# --------------------------------------------------------------------------
# reports


def test_report_on_coordination():
    rep = equilibria.equilibrium_report(coordination())
    assert rep.nonempty
    assert rep.equilibria == (("0", "0"), ("1", "1"))
    assert rep.induced_is_lattice and rep.induced_is_complete
    assert rep.is_sublattice_of_S and rep.is_subcomplete_in_S
    assert rep.max_equilibrium == ("1", "1")
    assert rep.min_equilibrium == ("0", "0")
    text = rep.to_text()
    assert "greatest equilibrium: (1,1)" in text
    assert "equilibria (2):" in text
    dot = rep.to_dot()
    assert '"(1,1)" [label="(1,1)", shape=box];' in dot
    assert '"(0,1)" [label="(0,1)", shape=ellipse];' in dot


def test_report_on_empty_equilibrium_set():
    rep = equilibria.equilibrium_report(gallery.load_fixture("matching-pennies"))
    assert not rep.nonempty
    assert rep.equilibria == ()
    assert rep.induced_is_lattice is None
    assert rep.traces is None
    assert "equilibria (0):" in rep.to_text()


def test_report_randoms_always_complete(small_corpus):
    for g in small_corpus[:20]:
        rep = equilibria.equilibrium_report(g)
        assert rep.nonempty and rep.induced_is_complete
        assert rep.traces is not None


def test_report_skip_iteration_flag():
    rep = equilibria.equilibrium_report(coordination(), run_iteration=False)
    assert rep.traces is None
    assert rep.nonempty


def test_complete_lattice_need_not_be_sublattice_golden():
    """Archived find from a seeded search over tie-rich payoffs: a
    validated supermodular game whose equilibrium set is a complete
    lattice in the induced order but not a sublattice of S."""
    g = gallery.load_fixture("lattice-not-sublattice")
    assert games.validate_supermodular(g).ok
    rep = equilibria.equilibrium_report(g, run_iteration=False)
    assert rep.nonempty and rep.induced_is_complete
    assert not rep.is_sublattice_of_S
    x, y, escaped, kind = rep.is_sublattice_of_S.witness
    assert (x, y, escaped, kind) == ("(0,0,0,1)", "(0,1,0,0)", "(0,1,0,1)", "join")
    # the escaped join is feasible but some player deviates profitably there
    assert g.is_feasible(("0", "1", "0", "1"))
    assert ("0", "1", "0", "1") not in set(rep.equilibria)
    # inside E the sup of the two witnesses still exists (completeness)
    S_E = [e for e in rep.equilibria
           if g.profile_leq(("0", "0", "0", "1"), e)
           and g.profile_leq(("0", "1", "0", "0"), e)]
    assert S_E, "E must contain an upper bound for the witness pair"


# --------------------------------------------------------------------------
# work done once per game


def test_report_and_audit_scan_each_box_and_stable_set_once(monkeypatch):
    # random-seeded has product S (48 of 48 profiles); the generated game
    # has a grown S (30 of 36), and some of its boxes miss the members'
    # best masks
    spec = games.RandomGameSpec(feasibility="sublattice")
    for build in (partial(gallery.load_fixture, "random-seeded"),
                  partial(games.random_supermodular_game, spec, 9)):
        # the store is cleared first, so that S's order is built here
        games._product_space.cache_clear()
        _count_report_and_audit_work(monkeypatch, build())


def _count_report_and_audit_work(monkeypatch, g):
    argmax, boxes, stable = (Counter() for _ in range(3))
    grids = []

    def counted(counter, key, fn):
        def wrapper(*args):
            counter[key(*args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(games, "_argmax_mask",
                        counted(argmax, lambda g, idx, k: (idx, k), games._argmax_mask))
    monkeypatch.setattr(games, "_scanned_argmax",
                        counted(boxes, lambda g, idx, k, box: (idx, k), games._scanned_argmax))
    monkeypatch.setattr(equilibria, "_stable_mask",
                        counted(stable, lambda g, i: i, games._stable_mask))
    product_rows = order._product_rows

    def grid(rows_a, rows_b):
        grids.append((len(rows_a), len(rows_b)))
        return product_rows(rows_a, rows_b)

    monkeypatch.setattr(order, "_product_rows", grid)
    # the game cut S into each player's sections when it was built; the
    # validation, the report and the audit read the same tables
    tables = list(g._sections)
    games.validate_supermodular(g)
    rep = equilibria.equilibrium_report(g)
    audit = equilibria.tarski_zhou_check(g)
    assert rep.traces is not None and audit.ok
    assert all(a is b for a, b in zip(tables, g._sections, strict=True))
    # each (player set, position) response mask is computed at most once
    # across the report and the audit; a response's box is scanned, once,
    # iff the box misses the members' best masks; each player's stable mask
    # is computed once
    assert argmax and max(argmax.values()) == 1
    assert max(boxes.values(), default=0) <= 1
    missed = {(idx, k) for idx, k in argmax
              if not games._box_mask(g, k) & reduce(int.__and__,
                                                    (g._columns[i][k][5] for i in idx))}
    assert set(boxes) == missed
    assert stable == Counter(range(len(g.players)))
    # no product's rows are multiplied: every S, a product or not, is
    # checked and ordered from its own profiles
    assert grids == []
    product = len(g.feasible) == g.product_size
    # a product box always meets the best masks; the grown S keeps boxes
    # that miss them, so both argmax paths run
    assert bool(boxes) != product
    monkeypatch.undo()


def test_group_responses_are_one_tuple_for_every_reader(monkeypatch):
    # the correspondence and the audit read the player set's one stored
    # tuple of responses, not a list built per caller; diag2's S is a
    # sublattice, not the product, so its audit scans the responses
    handed = []
    by_covers = equilibria.is_increasing_by_covers

    def captured(dom, cod, images):
        handed.append(images)
        return by_covers(dom, cod, images)

    monkeypatch.setattr(equilibria, "is_increasing_by_covers", captured)
    g = gallery.load_fixture("diag2")
    assert len(g.feasible) < g.product_size
    images = equilibria.group_response_correspondence(g)._images
    assert equilibria.tarski_zhou_check(g).ok
    stored = g._responses[tuple(range(len(g.players)))]
    assert images is stored and handed == [stored]
    # a product S's audit is decided player by player: a pass scans no
    # response
    handed.clear()
    product = gallery.load_fixture("random-seeded")
    assert len(product.feasible) == product.product_size
    assert equilibria.tarski_zhou_check(product).ok and handed == []


def test_report_and_audit_check_completeness_of_e_once_per_cap(monkeypatch):
    # E's induced order is built once, and its completeness checked once
    # per cap, both kept by the equilibrium set and none by the game
    calls, induced = Counter(), []

    def counted(P, *, exhaustive):
        calls[exhaustive] += 1
        return complete(P, exhaustive=exhaustive)

    def counted_induced(P, mask):
        induced.append(mask)
        return induce(P, mask)

    complete, induce = equilibria.is_complete_lattice, equilibria._induced
    monkeypatch.setattr(equilibria, "is_complete_lattice", counted)
    monkeypatch.setattr(equilibria, "_induced", counted_induced)
    g = gallery.load_fixture("lattice-not-sublattice")
    rep = equilibria.equilibrium_report(g, run_iteration=False)
    audit = equilibria.tarski_zhou_check(g)
    assert audit.conclusion is rep.induced_is_complete
    assert equilibria.tarski_zhou_check(g, exhaustive_cap=2).conclusion.mode == "pairwise"
    equilibria.equilibrium_report(g, run_iteration=False, exhaustive_cap=2)
    # |E| = 7: all subsets at the default cap of 12, pairwise at a cap of 2
    assert calls == Counter({True: 1, False: 1})
    eq = equilibria.equilibria_bruteforce(g)
    assert induced == [eq.mask] and vars(eq)["induced"] is eq.induced
    assert {"_induced_S", "_induced_E", "_E_complete"}.isdisjoint(vars(g))


def test_report_above_the_cap_scans_e_once_per_verdict(monkeypatch):
    # |E| = 7 > 2 on a product S: each of the four verdicts is read off
    # one pair scan of E, by the order layer's own check
    g = gallery.load_fixture("lattice-not-sublattice")
    validation = equilibria.validate_supermodular(g)
    scans = []
    pair_scan = _kernels.pair_scan

    def counted(up, down, lower, upper):
        scans.append(lower)
        return pair_scan(up, down, lower, upper)

    monkeypatch.setattr(_kernels, "pair_scan", counted)
    rep = equilibria.equilibrium_report(g, validation, run_iteration=False,
                                        exhaustive_cap=2)
    monkeypatch.undo()
    assert len(rep.equilibria) == 7
    assert [mask.bit_count() for mask in scans] == [7, 7, 7, 7]
    assert not rep.is_sublattice_of_S and rep.induced_is_complete
    assert rep.induced_is_complete.mode == "pairwise"
    assert rep.is_subcomplete_in_S.mode == "finite-equivalence"


@pytest.mark.parametrize("name, sublattice", [("coordination", True),
                                              ("lattice-not-sublattice", False)],
                         ids=["coordination-2", "lattice-not-sublattice-3"])
def test_report_at_or_below_the_cap_scans_e_once_per_verdict(monkeypatch, name, sublattice):
    # each of the four verdicts runs one pair scan of E; only a failing
    # subcompleteness scan walks the subsets, to name its witness
    g = gallery.load_fixture(name)
    validation = equilibria.validate_supermodular(g)
    calls = []
    pair_scan = _kernels.pair_scan

    def counted(up, down, lower, upper):
        calls.append(lower)
        return pair_scan(up, down, lower, upper)

    monkeypatch.setattr(_kernels, "pair_scan", counted)
    rep = equilibria.equilibrium_report(g, validation, run_iteration=False)
    monkeypatch.undo()
    assert len(rep.equilibria) <= equilibria.DEFAULT_EXHAUSTIVE_CAP
    assert [mask.bit_count() for mask in calls] == [len(rep.equilibria)] * 4
    assert rep.induced_is_lattice and rep.induced_is_complete.mode == "exhaustive"
    assert bool(rep.is_sublattice_of_S) == sublattice
    assert rep.is_subcomplete_in_S.mode == "exhaustive"


@pytest.mark.parametrize("name", ["anti-coordination", "coordination", "diag2",
                                  "lattice-not-sublattice", "random-seeded"])
@pytest.mark.parametrize("cap", [1, 2, equilibria.DEFAULT_EXHAUSTIVE_CAP])
def test_report_verdicts_equal_the_direct_checks(name, cap):
    g = gallery.load_fixture(name)
    rep = equilibria.equilibrium_report(g, run_iteration=False, exhaustive_cap=cap)
    S = g.feasible_poset()
    labels = [g.profile_label(x) for x in rep.equilibria]
    assert rep.induced_is_lattice == is_lattice(induced_poset(S, labels))
    assert rep.is_subcomplete_in_S == is_subcomplete(S, labels, cap=cap)


def test_equilibrium_oracle_is_shared_and_read_only():
    # the stable sets are stored once, as masks; stable_set reads a
    # player's out as a tuple of profiles, and neither the equilibrium set
    # nor the report has another form of them
    g = coordination()
    eq = equilibria.equilibria_bruteforce(g)
    assert equilibria.equilibria_bruteforce(g) is eq
    rep = equilibria.equilibrium_report(g)
    for i, p in enumerate(g.players):
        stable = equilibria.stable_set(g, p)
        assert stable == tuple(x for k, x in enumerate(g.feasible) if eq.stable_masks[i] >> k & 1)
    assert not hasattr(eq, "per_player") and not hasattr(rep, "per_player")
    with pytest.raises(FrozenInstanceError):
        eq.stable_masks = ()


def test_a_report_and_an_audit_cannot_be_changed_after_they_are_built():
    # the audit's hypotheses and the report's traces are read-only
    # mappings, each trace a tuple, so the verdicts and the renders stay
    # those computed
    g = coordination()
    rep, audit = equilibria.equilibrium_report(g), equilibria.tarski_zhou_check(g)
    text, render = rep.to_text(), audit.render()
    name = next(iter(audit.hypotheses))
    with pytest.raises(TypeError):
        audit.hypotheses[name] = CheckResult(False)
    with pytest.raises(AttributeError):
        audit.hypotheses.clear()
    with pytest.raises(TypeError):
        rep.traces["greatest"] = rep.traces["least"]
    with pytest.raises(AttributeError):
        rep.traces["greatest"].append(("1", "1"))
    assert audit.ok and audit.render() == render and rep.to_text() == text
    assert type(rep.traces["greatest"]) is tuple
    # the iteration itself still hands out a list
    assert equilibria.extremal_equilibrium(g)[1] == list(rep.traces["greatest"])


def test_audit_exhaustive_cap_selects_mode():
    g = gallery.load_fixture("lattice-not-sublattice")
    assert equilibria.tarski_zhou_check(g).conclusion.mode == "exhaustive"
    assert equilibria.tarski_zhou_check(g, exhaustive_cap=2).conclusion.mode == "pairwise"
    rep = equilibria.equilibrium_report(g, run_iteration=False, exhaustive_cap=2)
    assert rep.induced_is_complete.mode == "pairwise"
    assert rep.is_subcomplete_in_S.mode == "finite-equivalence"


@pytest.mark.parametrize("target, fake, run, phase", [
    ("_joint_mask", lambda g, k: 0,
     lambda g: equilibria.fixed_points(g, "joint"), "joint fixed points"),
    ("_group_responses", lambda g, idx: (0,) * len(g.feasible),
     lambda g: equilibria.fixed_points(g, "partial", ["p1"]), "group fixed points"),
    # E read as {(0,0)} alone: the iteration from the top reaches (1,1)
    ("_stable_mask", lambda g, i: 1,
     lambda g: equilibria.extremal_equilibrium(g, "greatest"),
     "iteration to the greatest equilibrium"),
    ("is_complete_lattice", lambda *a, **k: CheckResult(False, witness=("w",)),
     lambda g: equilibria.equilibrium_report(g), "equilibrium report"),
], ids=["joint", "partial", "iteration", "report"])
def test_contradiction_names_game_and_phase(monkeypatch, target, fake, run, phase):
    g = coordination()
    monkeypatch.setattr(equilibria, target, fake)
    with pytest.raises(InternalContradiction) as err:
        run(g)
    assert str(err.value).startswith(f"game coordination, {phase}: ")
