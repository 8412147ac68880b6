import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnash import _kernels, gallery, games, order, topology
from latnash.errors import (
    CycleDetected,
    DuplicateElement,
    ElementOutOfCarrier,
    EmptySubset,
    InvalidArgument,
    LatnashError,
    NotALattice,
    ProductTooLarge,
    UnknownElement,
)
from latnash.omega import finite_truncation

from catalogue import catalogue
from oracles import (
    build_poset_oracle,
    close_in_lattice_oracle,
    complete_lattice_exhaustive_oracle,
    cover_rows_oracle,
    hasse_oracle,
    increasing_correspondence_scan,
    increasing_scan_oracle,
    inf_oracle,
    pair_scan_oracle,
    random_lattice_oracle,
    random_sublattice_oracle,
    reachability_closure,
    subcomplete_exhaustive_oracle,
    sup_oracle,
    trace_rows_oracle,
    transpose_oracle,
)


def diamond():
    return order.build_poset(
        ["m", "x", "y", "M"], [("m", "x"), ("m", "y"), ("x", "M"), ("y", "M")])


# --------------------------------------------------------------------------
# construction


def test_singleton_reflexive():
    P = order.build_poset(["a"], [])
    assert P.leq("a", "a")


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        order.build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_diamond_closure_matches_reachability_oracle():
    elements = ["m", "x", "y", "M"]
    pairs = [("m", "x"), ("m", "y"), ("x", "M"), ("y", "M")]
    P = order.build_poset(elements, pairs)
    succ = reachability_closure(elements, pairs)
    for a in elements:
        for b in elements:
            assert P.leq(a, b) == (b in succ[a])
    assert P.leq("m", "M")  # transitivity kicked in
    # a poset is never equal to another type, its elements included
    assert P.__eq__(P.elements) is NotImplemented and P != P.elements


def test_duplicate_and_unknown():
    with pytest.raises(DuplicateElement):
        order.build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        order.build_poset(["a"], [("a", "z")])
    # the one refusal that is no LatnashError: a poset is only built by
    # the functions that certify its rows
    with pytest.raises(TypeError, match="^use build_poset / product_poset / induced_poset$"):
        order.Poset(["a"], [1], [1])


def test_chain_rows_match_build_poset():
    # chain writes its rows down; build_poset closes the consecutive pairs
    rng = random.Random(14)
    for n in range(1, 9):
        for _ in range(5):
            xs = [f"x{i}" for i in range(n)]
            rng.shuffle(xs)
            c = order.chain(xs)
            want = order.build_poset(xs, list(zip(xs, xs[1:])))
            assert c.elements == want.elements
            assert c._up == want._up and c._down == want._down


@pytest.mark.parametrize("xs", [[], ["a", "b", "a"], ["a", "b", "b", "a"], ["x", "x"]])
def test_chain_refuses_what_build_poset_refuses(xs):
    with pytest.raises((EmptySubset, DuplicateElement)) as via_chain:
        order.chain(xs)
    with pytest.raises((EmptySubset, DuplicateElement)) as via_pairs:
        order.build_poset(xs, list(zip(xs, xs[1:])))
    assert type(via_chain.value) is type(via_pairs.value)
    assert str(via_chain.value) == str(via_pairs.value)


# --------------------------------------------------------------------------
# joins, meets, subset bounds


def test_join_examples():
    d = diamond()
    assert d.join("x", "y") == "M"
    assert d.meet("x", "y") == "m"
    c = order.chain(["0", "1", "2"])
    assert c.join("0", "2") == "2"
    ac = order.antichain(["a", "b", "c", "d"])
    assert ac.join("a", "b") is None
    with pytest.raises(UnknownElement):
        d.join("x", "zzz")


def test_sup_singleton():
    d = diamond()
    for e in d.elements:
        assert d.sup({e}) == e
        assert d.inf({e}) == e


def test_sup_on_truncation():
    # three anti-chain points between bottom m and top M
    L = finite_truncation(3)
    assert L.sup({"x1", "x2"}) == "M"
    assert L.inf({"x1", "x2"}) == "m"


def test_sup_against_bound_scan_oracle():
    d = diamond()
    assert d.sup({"m", "x", "y"}) == sup_oracle(d.leq, d.elements, ["m", "x", "y"])
    assert d.sup({"m", "x", "y"}) == "M"


def test_sup_exists_without_pairwise_joins():
    # b and c have two incomparable upper bounds, yet sup{a} trivially works
    # and sup of {b, c} must be None rather than an arbitrary upper bound
    P = order.build_poset(["b", "c", "u", "v"],
                          [("b", "u"), ("c", "u"), ("b", "v"), ("c", "v")])
    assert P.join("b", "c") is None
    assert P.sup({"b", "c"}) is None
    assert P.sup({"b"}) == "b"
    with pytest.raises(EmptySubset):
        P.sup(set())


# --------------------------------------------------------------------------
# lattice predicates


def test_is_lattice_examples():
    assert order.is_lattice(order.chain(list("abcde")))
    assert order.is_complete_lattice(order.chain(list("abcde")))
    two = order.antichain(["a", "b"])
    assert not order.is_lattice(two)
    assert not order.is_complete_lattice(two)
    L = finite_truncation(3)
    assert order.is_lattice(L)
    assert order.is_complete_lattice(L, exhaustive=True)
    # above the report's default exhaustive cap of 12, the walk still runs
    assert order.is_complete_lattice(finite_truncation(12), exhaustive=True) == \
        order.CheckResult(True, mode="exhaustive")


def test_exhaustive_vs_pairwise_completeness():
    rng = random.Random(3)
    for _ in range(20):
        P = order.random_lattice(rng, max_size=8)
        assert bool(order.is_complete_lattice(P)) == \
            bool(order.is_complete_lattice(P, exhaustive=True))
    # and on a non-lattice both modes refuse
    two = order.antichain(["a", "b"])
    assert not order.is_complete_lattice(two, exhaustive=True)


# --------------------------------------------------------------------------
# products


def test_product_of_two_chains_is_diamond_shaped():
    c2 = order.chain(["0", "1"])
    P = order.product_poset([c2, c2])
    assert len(P) == 4
    assert P.join("(0,1)", "(1,0)") == "(1,1)"
    assert P.meet("(0,1)", "(1,0)") == "(0,0)"


def test_product_single_factor_identity():
    d = diamond()
    assert order.product_poset([d]) == d
    with pytest.raises(EmptySubset, match="^product of zero factors$"):
        order.product_poset([])


def test_product_grid_componentwise_join():
    c2 = order.chain(["0", "1"])
    c3 = order.chain(["0", "1", "2"])
    g = order.product_poset([c2, c3])
    assert len(g) == 6
    assert g.join("(1,0)", "(0,2)") == "(1,2)"
    # oracle: componentwise over all pairs
    for a in ("0", "1"):
        for b in ("0", "1", "2"):
            for a2 in ("0", "1"):
                for b2 in ("0", "1", "2"):
                    want = f"({max(a, a2)},{max(b, b2)})"
                    assert g.join(f"({a},{b})", f"({a2},{b2})") == want


def test_product_refuses_colliding_labels():
    # ("a", "b,c") and ("a,b", "c") would both be named (a,b,c)
    A = order.build_poset(["a", "a,b"], [("a", "a,b")])
    B = order.build_poset(["b,c", "c"], [("b,c", "c")])
    with pytest.raises(DuplicateElement, match=r"duplicate element '\(a,b,c\)'"):
        order.product_poset([A, B])


def test_product_cap():
    c = order.chain([str(i) for i in range(10)])
    with pytest.raises(ProductTooLarge):
        order.product_poset([c] * 7)
    with pytest.raises(ProductTooLarge):
        order.product_poset([c, c], cap=99)
    assert len(order.product_poset([c, c], cap=100)) == 100


def test_exhaustive_checks_refuse_more_than_2_to_the_20_subsets(monkeypatch):
    # 21 elements, admitted by is_subcomplete's cap of 21 or by
    # is_complete_lattice, have 2^21 subsets, which are refused before any
    # scan runs, whether the set would pass or fail; 20 elements that pass
    # the pair scan are certified without the subset walk, which runs only
    # on a set that fails, to name its first failing subset
    c21 = order.chain([str(i) for i in range(21)])
    a21 = order.antichain([str(i) for i in range(21)])
    walked = []
    subset_scan = _kernels.subset_scan

    def counted(up, down, member_mask):
        walked.append(member_mask.bit_count())
        return subset_scan(up, down, member_mask)

    monkeypatch.setattr(_kernels, "subset_scan", counted)
    message = r"exhaustive check over 2\^21 subsets exceeds the limit of 2\^20"
    for P in (c21, a21):
        with pytest.raises(ProductTooLarge, match=message):
            order.is_complete_lattice(P, exhaustive=True)
        with pytest.raises(ProductTooLarge, match=message):
            order.is_subcomplete(P, P.elements, cap=40)
    assert walked == []
    assert order.is_subcomplete(c21, c21.elements[1:], cap=21).mode == "exhaustive"
    c20 = order.induced_poset(c21, c21.elements[1:])
    assert order.is_complete_lattice(c20, exhaustive=True).mode == "exhaustive"
    assert walked == []
    r = order.is_complete_lattice(order.antichain(["a", "b", "c"]), exhaustive=True)
    assert r == order.CheckResult(False, witness=(("a", "b"), None, "sup"), mode="exhaustive")
    assert walked == [3]


# --------------------------------------------------------------------------
# induced posets


def test_induced_full_is_identity():
    d = diamond()
    assert order.induced_poset(d, d.elements) is d


def test_induced_diamond_to_chain():
    d = diamond()
    r = order.induced_poset(d, {"m", "M"})
    assert r.elements == ("m", "M")
    assert r.leq("m", "M") and not r.leq("M", "m")


def test_induced_grid_restriction():
    g = order.product_poset([order.chain(["0", "1"]),
                             order.chain(["0", "1", "2"])])
    r = order.induced_poset(g, {"(0,0)", "(1,1)", "(0,2)"})
    assert r.leq("(0,0)", "(1,1)")
    assert r.leq("(0,0)", "(0,2)")
    assert not r.leq("(1,1)", "(0,2)") and not r.leq("(0,2)", "(1,1)")
    with pytest.raises(EmptySubset):
        order.induced_poset(g, set())


# --------------------------------------------------------------------------
# sublattice / subcomplete


def test_sublattice_examples():
    d = diamond()
    assert order.is_sublattice(d, {"m", "M"})
    r = order.is_sublattice(d, {"x", "y"})
    assert not r
    # both bounds escape; the sublattice check names the join first
    x, y, esc, kind = r.witness
    assert {x, y} == {"x", "y"} and (esc, kind) == ("M", "join")


def test_sublattice_requires_ambient_lattice():
    two = order.antichain(["a", "b"])
    with pytest.raises(NotALattice):
        order.is_sublattice(two, {"a", "b"})


def test_subcomplete_examples():
    d = diamond()
    assert order.is_subcomplete(d, set(d.elements))
    assert not order.is_subcomplete(d, {"x", "y"})
    for n in (2, 3, 4):
        L = finite_truncation(n)
        S = set(L.elements) - {"x0"}
        assert order.is_subcomplete(L, S)


def test_subcomplete_two_modes_agree():
    rng = random.Random(11)
    for _ in range(30):
        P = order.random_lattice(rng, max_size=8)
        members = rng.sample(list(P.elements), rng.randint(1, len(P)))
        exhaustive = order.is_subcomplete(P, members, cap=12)
        pairwise = order.is_subcomplete(P, members, cap=0)
        assert pairwise.mode == "finite-equivalence"
        assert bool(exhaustive) == bool(pairwise)


# --------------------------------------------------------------------------
# correspondences


def test_constant_correspondence_increasing():
    d = diamond()
    c2 = order.chain(["0", "1"])
    phi = order.Correspondence(c2, d, {"0": {"m", "M"}, "1": {"m", "M"}})
    assert order.is_increasing_correspondence(phi)


def test_non_increasing_correspondence_witness():
    d = diamond()
    c2 = order.chain(["0", "1"])
    phi = order.Correspondence(c2, d, {"0": {"x"}, "1": {"y"}})
    r = order.is_increasing_correspondence(phi)
    assert not r
    t, t2, a, b, bound, rule = r.witness
    assert (t, t2) == ("0", "1")
    assert bound == "m" and rule == "meet"
    # a constant image {x, y}: both bounds escape, and the increasing
    # check names the meet first
    r = order.is_increasing_correspondence(
        order.Correspondence(c2, d, {"0": {"x", "y"}, "1": {"x", "y"}}))
    assert r.witness[4:] == ("m", "meet")


def test_image_must_be_nonempty_and_in_codomain():
    c2 = order.chain(["0", "1"])
    with pytest.raises(EmptySubset):
        order.Correspondence(c2, c2, {"0": set(), "1": {"1"}})
    with pytest.raises(UnknownElement, match=r"elements not in codomain: \['zz'\]"):
        order.Correspondence(c2, c2, {"0": {"zz"}, "1": {"1"}})
    with pytest.raises(UnknownElement, match="^no image given for domain element '1'$"):
        order.Correspondence(c2, c2, {"0": {"1"}})
    with pytest.raises(UnknownElement, match=r"^images for non-domain elements: \[2, 'zz'\]$"):
        order.Correspondence(c2, c2, {"0": {"1"}, "1": {"1"}, "zz": {"0"}, 2: {"0"}})


def test_increasing_needs_lattice_codomain():
    two = order.antichain(["a", "b"])
    c2 = order.chain(["0", "1"])
    phi = order.Correspondence(c2, two, {"0": {"a", "b"}, "1": {"a", "b"}})
    with pytest.raises(NotALattice):
        order.is_increasing_correspondence(phi)


# --------------------------------------------------------------------------
# hasse / dot


def test_hasse_examples():
    c = order.chain(["0", "1", "2"])
    assert set(c.covers()) == {("0", "1"), ("1", "2")}
    d = diamond()
    assert set(d.covers()) == {("m", "x"), ("m", "y"),
                               ("x", "M"), ("y", "M")}


def test_hasse_grid_matches_reduction_oracle():
    g = order.product_poset([order.chain(["0", "1"]), order.chain(["0", "1"])])
    got = set(g.covers())
    assert got == set(hasse_oracle(g.leq, g.elements))
    assert len(got) == 4


def test_dot_shape_attributes():
    d = diamond()
    dot = order.to_dot(d, highlight={"M"})
    assert '"M" [label="M", shape=box];' in dot
    assert '"m" [label="m", shape=ellipse];' in dot
    assert "rankdir=BT;" in dot


# --------------------------------------------------------------------------
# property tests


@st.composite
def random_lattice_st(draw):
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return order.random_lattice(random.Random(seed), max_size=8)


@given(random_lattice_st(), st.data())
@settings(max_examples=60, deadline=None)
def test_join_is_least_upper_bound(P, data):
    x = data.draw(st.sampled_from(P.elements))
    y = data.draw(st.sampled_from(P.elements))
    j = P.join(x, y)
    assert j is not None
    assert P.leq(x, j) and P.leq(y, j)
    for u in P.elements:
        if P.leq(x, u) and P.leq(y, u):
            assert P.leq(j, u)
    m = P.meet(x, y)
    assert m is not None and P.leq(m, x) and P.leq(m, y)
    for u in P.elements:
        if P.leq(u, x) and P.leq(u, y):
            assert P.leq(u, m)


@given(random_lattice_st(), st.data())
@settings(max_examples=60, deadline=None)
def test_sup_subset_agrees_with_pairwise_join(P, data):
    x = data.draw(st.sampled_from(P.elements))
    y = data.draw(st.sampled_from(P.elements))
    assert P.sup({x, y}) == P.join(x, y)
    assert P.inf({x, y}) == P.meet(x, y)


@given(random_lattice_st(), st.data())
@settings(max_examples=40, deadline=None)
def test_sup_matches_naive_oracle(P, data):
    k = data.draw(st.integers(min_value=1, max_value=len(P)))
    subset = data.draw(st.permutations(P.elements)) [:k]
    assert P.sup(subset) == sup_oracle(P.leq, P.elements, subset)
    assert P.inf(subset) == inf_oracle(P.leq, P.elements, subset)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_induced_sublattice_keeps_ambient_joins(seed):
    rng = random.Random(seed)
    P = order.random_lattice(rng, max_size=8)
    S = order.random_sublattice(rng, P)
    sub = order.induced_poset(P, S)
    assert order.is_lattice(sub)
    for x in sub.elements:
        for y in sub.elements:
            assert sub.join(x, y) == P.join(x, y)
            assert sub.meet(x, y) == P.meet(x, y)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_product_join_is_componentwise(seed):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 3))]
    chains = [order.chain([str(v) for v in range(s)]) for s in sizes]
    P = order.product_poset(chains)
    for _ in range(10):
        a = [str(rng.randrange(s)) for s in sizes]
        b = [str(rng.randrange(s)) for s in sizes]
        want = order.product_element_name(
            [str(max(int(u), int(v))) for u, v in zip(a, b)])
        got = P.join(order.product_element_name(a), order.product_element_name(b))
        assert got == want


def _random_poset(rng, size):
    """A poset from random upper-triangular pairs under shuffled labels:
    often without some meets or joins."""
    names = [f"q{k}" for k in range(size)]
    pairs = [(names[i], names[j]) for i in range(size) for j in range(i + 1, size)
             if rng.random() < 0.35]
    rng.shuffle(names)
    return order.build_poset(names, pairs)


def _shuffled_lattice(rng):
    """A random lattice with its elements listed in random order, so the
    element order is mostly not a linear extension."""
    L = order.random_lattice(rng, max_size=8)
    names = list(L.elements)
    rng.shuffle(names)
    return order.build_poset(names, L.covers())


def test_sublattice_close_matches_the_name_closure():
    # random lattices, the catalogue, and lattices listed out of
    # linear-extension order, each closed from random seed sets
    rng = random.Random(16)
    lattices = catalogue() + [order.random_lattice(rng, max_size=8) for _ in range(40)]
    lattices += [_shuffled_lattice(rng) for _ in range(40)]
    for P in lattices:
        for _ in range(5):
            seeds = rng.sample(range(len(P)), rng.randint(1, len(P)))
            want = close_in_lattice_oracle(P, [P.elements[i] for i in seeds])
            got = _kernels.sublattice_close(P._up, P._down, seeds)
            assert set(P.elements[i] for i in _kernels.indices(got)) == want


def test_random_lattice_and_sublattice_equal_the_name_closure():
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        max_size = 4 + seed % 5
        P = order.random_lattice(rng, max_size=max_size)
        W = random_lattice_oracle(ref, max_size=max_size)
        assert (P.elements, P._up, P._down) == (W.elements, W._up, W._down)
        assert order.random_sublattice(rng, P) == random_sublattice_oracle(ref, W)
        assert rng.getstate() == ref.getstate()


def test_random_lattice_refuses_a_bound_below_two_before_the_first_draw():
    # no lattice has fewer than one element, and every draw closes two
    # grid points or more; a bound of 2 still returns a lattice within it.
    # A bound that is no int, a bool or a float equal to one included, is
    # refused as omega refuses its arguments, before the first draw too
    for max_size, message in ((1, "max_size must be >= 2, got 1"),
                              (0, "max_size must be >= 2, got 0"),
                              (-3, "max_size must be >= 2, got -3"),
                              ("8", "max_size must be an int, got '8'"),
                              (None, "max_size must be an int, got None"),
                              (8.0, "max_size must be an int, got 8.0"),
                              (True, "max_size must be an int, got True")):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidArgument) as info:
            order.random_lattice(rng, max_size=max_size)
        assert str(info.value) == message
        assert rng.getstate() == state
    assert len(order.random_lattice(random.Random(0), max_size=2)) <= 2


def test_random_sublattice_needs_a_lattice_ambient():
    # posets that often lack a join or a meet: the closure fails exactly
    # when the name closure does, with its message
    raised = 0
    for seed in range(100):
        P = _random_poset(random.Random(seed), 2 + seed % 6)
        rng, ref = random.Random(seed), random.Random(seed)
        try:
            want = random_sublattice_oracle(ref, P)
        except NotALattice:
            with pytest.raises(NotALattice, match="^closure requires a lattice ambient$"):
                order.random_sublattice(rng, P)
            raised += 1
            continue
        assert order.random_sublattice(rng, P) == want
        assert rng.getstate() == ref.getstate()
    assert raised


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_bounds_in_any_element_order_match_oracle(seed):
    rng = random.Random(seed)
    P = (_shuffled_lattice(rng) if rng.random() < 0.5
         else _random_poset(rng, rng.randint(1, 7)))
    E = P.elements
    sup = lambda xs: sup_oracle(P.leq, E, xs)
    inf = lambda xs: inf_oracle(P.leq, E, xs)
    for x in E:
        for y in E:
            assert P.join(x, y) == sup([x, y])
            assert P.meet(x, y) == inf([x, y])
    assert P.top() == sup(E) and P.bottom() == inf(E)
    for _ in range(6):
        S = rng.sample(E, rng.randint(1, len(E)))
        assert P.sup(S) == sup(S) and P.inf(S) == inf(S)
        for check in (order.is_sublattice, order.is_subcomplete):
            try:
                r = check(P, S)
            except NotALattice:
                continue
            if not r:
                # (x, y, escape, kind) or ((members...), escape, kind)
                *members, esc, kind = r.witness
                if check is order.is_subcomplete:
                    (members,) = members
                bound = sup if kind in ("join", "sup") else inf
                assert esc not in S and esc == bound(members)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_every_constructor_supplies_transposed_rows(seed):
    rng = random.Random(seed)
    factors = [_shuffled_lattice(rng) if rng.random() < 0.5
               else order.random_lattice(rng, max_size=5)
               for _ in range(rng.randint(1, 3))]
    product = order.product_poset(factors)
    posets = [_random_poset(rng, rng.randint(1, 7)),
              order.chain([str(v) for v in range(rng.randint(1, 6))]),
              product,
              order.induced_poset(product, rng.sample(
                  product.elements, rng.randint(1, len(product))))] + factors
    for P in posets:
        assert P._down == transpose_oracle(P._up, len(P))


def _monotone_map(rng, dom, cod):
    """An order-preserving map from dom into the lattice cod, built along
    a linear extension of the domain."""
    f = {}
    for t in sorted(dom.elements, key=lambda e: len(dom.down_set(e))):
        below = [f[s] for s in dom.down_set(t) if s != t]
        f[t] = cod.sup(below + [rng.choice(cod.elements)])
    return f


def _monotone_images(rng, dom, cod):
    """t -> {f(t)} for an order-preserving f: an increasing correspondence
    when cod is a lattice."""
    f = _monotone_map(rng, dom, cod)
    return {t: {f[t]} for t in dom.elements}


def _outcome(check, phi):
    try:
        return check(phi)
    except NotALattice as e:
        return ("NotALattice", str(e))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=300, deadline=None)
def test_increasing_correspondence_matches_reference_scan(seed):
    rng = random.Random(seed)
    dom = (order.random_lattice(rng, max_size=8) if rng.random() < 0.5
           else _random_poset(rng, rng.randint(1, 7)))
    cod = (order.random_lattice(rng, max_size=8) if rng.random() < 0.7
           else _random_poset(rng, rng.randint(1, 6)))
    kind = rng.random()
    if kind < 0.2 and order.is_lattice(cod):
        mapping = _monotone_images(rng, dom, cod)
    elif kind < 0.5:
        # few distinct images, each shared by many domain elements
        pool = [set(rng.sample(cod.elements, rng.randint(1, min(3, len(cod)))))
                for _ in range(rng.randint(1, 3))]
        mapping = {t: rng.choice(pool) for t in dom.elements}
    else:
        mapping = {t: set(rng.sample(cod.elements, rng.randint(1, min(3, len(cod)))))
                   for t in dom.elements}
    phi = order.Correspondence(dom, cod, mapping)
    assert _outcome(order.is_increasing_correspondence, phi) == \
        _outcome(increasing_correspondence_scan, phi)


# --------------------------------------------------------------------------
# covering pairs


def test_covers_in_an_order_that_is_not_a_linear_extension():
    # the top is listed first and the bottom last
    P = order.build_poset(["M", "x", "y", "m"],
                          [("m", "x"), ("m", "y"), ("x", "M"), ("y", "M")])
    assert P.covers() == [("x", "M"), ("y", "M"), ("m", "x"), ("m", "y")]


def _cover_test_posets(rng, seed):
    """Random posets and lattices listed in shuffled orders, and S of a
    product and of a grown-S game."""
    posets = [_random_poset(rng, rng.randint(1, 9)), _shuffled_lattice(rng)]
    for shape in ("product", "sublattice"):
        spec = games.RandomGameSpec(feasibility=shape)
        posets.append(games.random_supermodular_game(spec, seed).feasible_poset())
    return posets


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_cover_rows_match_pairwise_reference(seed):
    rng = random.Random(seed)
    for P in _cover_test_posets(rng, seed):
        want = cover_rows_oracle(P._up)
        assert _kernels.cover_rows(P._up, P._down) == want
        n = len(P)
        assert P.covers() == [(P.elements[i], P.elements[j])
                              for i in range(n) for j in range(n) if (want[i] >> j) & 1]


def _interval_masks(rng, dom, cod):
    """t -> [f(t), f(t) join h(t)] for order-preserving f and h, as codomain
    masks: intervals that increase with t in the strong set order."""
    f, h = _monotone_map(rng, dom, cod), _monotone_map(rng, dom, cod)
    masks = []
    for t in dom.elements:
        lo, hi = f[t], cod.join(f[t], h[t])
        masks.append(sum(1 << k for k, x in enumerate(cod.elements)
                         if cod.leq(lo, x) and cod.leq(x, hi)))
    return masks


def _random_masks(rng, dom, cod):
    return [sum(1 << k for k in rng.sample(range(len(cod)), rng.randint(1, min(3, len(cod)))))
            for _ in dom.elements]


def _product_masks(rng, dom, factors):
    """Images in the product of two lattices that are products of one
    image per factor, each family increasing or random."""
    parts = [(_interval_masks if rng.random() < 0.6 else _random_masks)(rng, dom, L)
             for L in factors]
    width = len(factors[1])
    return [sum(1 << (a * width + b) for a in _kernels.indices(m0) for b in _kernels.indices(m1))
            for m0, m1 in zip(*parts)]


def _covers_first(dom, cod, images):
    """is_increasing_by_covers's verdict, and whether it walked the covers."""
    walked = []
    cover_rows = _kernels.cover_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "cover_rows",
                   lambda up, down: walked.append(1) or cover_rows(up, down))
        return order.is_increasing_by_covers(dom, cod, images), bool(walked)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=300, deadline=None)
def test_increasing_by_covers_matches_full_scan(seed):
    # the covers-first verdict and first witness equal the full scan's on
    # increasing, random and product-valued families into a lattice; a
    # family with an empty image takes the full scan
    rng = random.Random(seed)
    dom = (_shuffled_lattice(rng) if rng.random() < 0.5
           else _random_poset(rng, rng.randint(1, 7)))
    kind = rng.choice(["increasing", "random", "product", "empty"])
    if kind == "product":
        factors = [order.random_lattice(rng, max_size=4) for _ in range(2)]
        cod = order.product_poset(factors)
        images = _product_masks(rng, dom, factors)
    else:
        cod = _shuffled_lattice(rng)
        make = {"increasing": _interval_masks, "random": _random_masks,
                "empty": rng.choice([_interval_masks, _random_masks])}[kind]
        images = make(rng, dom, cod)
        if kind == "empty":
            images[rng.randrange(len(images))] = 0
    got, walked = _covers_first(dom, cod, images)
    assert got == order._increasing_scan(dom, cod, images, dom._up)
    assert walked == (kind != "empty")



# --------------------------------------------------------------------------
# scans that skip the pairs that cannot fail, against the all-pairs scans


def _diamond_tlbr():
    """The diamond listed top first: its element order is no linear
    extension."""
    return order.build_poset(["t", "l", "b", "r"],
                             [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])


def _scan_posets(rng):
    """A poset that often lacks joins or meets, a lattice listed out of
    linear-extension order, a random lattice and the t, l, b, r diamond."""
    return [_random_poset(rng, rng.randint(1, 8)), _shuffled_lattice(rng),
            order.random_lattice(rng, max_size=8), _diamond_tlbr()]


def _outcome(check, *args):
    """The check's result, or the type and message of the error it raised."""
    try:
        return check(*args)
    except NotALattice as e:
        return (type(e).__name__, str(e))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_pair_scan_matches_the_all_pairs_scan(seed):
    # the first failing pair inside one mask and from one mask to another,
    # both ways; and through the lattice and sublattice checks, their
    # witnesses and NotALattice messages; the all-pairs arm's first scan
    # must be the lattice check's own, not a verdict kept from the first arm
    rng = random.Random(seed)
    for P in _scan_posets(rng):
        members = rng.sample(range(len(P)), rng.randint(1, len(P)))
        mask = sum(1 << i for i in members)
        other = rng.randrange(1, 1 << len(P))
        for lower, upper in ((mask, mask), (mask, other), (other, mask)):
            assert _kernels.pair_scan(P._up, P._down, lower, upper) == \
                pair_scan_oracle(P._up, P._down, lower, upper)
        names = [P.elements[i] for i in members]
        got = [_outcome(order.is_lattice, P), _outcome(order.is_sublattice, P, names)]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "pair_scan",
                       lambda *args: calls.append(args) or pair_scan_oracle(*args))
            assert got == [_outcome(order.is_lattice, P),
                           _outcome(order.is_sublattice, P, names)]
        full = (1 << len(P)) - 1
        assert calls[0] == (P._up, P._down, full, full)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_increasing_scan_matches_the_all_pairs_scan(seed):
    # random images, some empty, into codomains that are lattices or lack
    # bounds, over the domain's order and over its covers
    rng = random.Random(seed)
    dom = (_shuffled_lattice(rng) if rng.random() < 0.5
           else _random_poset(rng, rng.randint(1, 6)))
    for cod in _scan_posets(rng):
        n = len(cod)
        images = [sum(1 << k for k in rng.sample(range(n), rng.randint(0, min(4, n))))
                  for _ in dom.elements]
        if rng.random() < 0.5:
            images = [m or 1 for m in images]
        for rows in (dom._up, dom._cover_rows):
            assert _outcome(order._increasing_scan, dom, cod, images, rows) == \
                _outcome(increasing_scan_oracle, dom, cod, images, rows)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_trace_rows_match_the_bit_by_bit_trace(seed):
    # through induced_poset on posets in any element order, and through
    # random_lattice, which traces its grid's rows to a closed set
    rng = random.Random(seed)
    for P in [_random_poset(rng, rng.randint(1, 12)), _shuffled_lattice(rng)]:
        keep = sum(1 << i for i in rng.sample(range(len(P)), rng.randint(1, len(P))))
        Q = order.induced_poset(P, [e for i, e in enumerate(P.elements) if (keep >> i) & 1])
        assert Q._up == tuple(trace_rows_oracle(P._up, keep))
        assert Q._down == tuple(trace_rows_oracle(P._down, keep))
    state = rng.getstate()
    L = order.random_lattice(rng)
    rng.setstate(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "_trace_rows", trace_rows_oracle)
        W = order.random_lattice(rng)
    assert (L.elements, L._up, L._down) == (W.elements, W._up, W._down)


# --------------------------------------------------------------------------
# one-pass closure, subset scans and label indexes on first use


def _built(build, elements, pairs):
    """The poset's elements and rows, or the type and message of the
    error the build raised."""
    try:
        P = build(elements, pairs)
    except LatnashError as e:
        return (type(e).__name__, str(e))
    return (P.elements, P._up, P._down)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=400, deadline=None)
def test_build_poset_matches_warshall_and_transpose(seed):
    # ascending pair lists (with self-pairs and repeats, in any pair order)
    # take the one-pass closure; shuffled elements, cycles, unknown names,
    # repeated and missing elements give the same rows or the same error
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    names = [f"q{k}" for k in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i, n)
             if rng.random() < 0.3]
    pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
    rng.shuffle(pairs)
    elements = list(names)
    kind = rng.choice(["ascending", "shuffled", "cycle", "unknown", "duplicate", "empty"])
    if kind == "shuffled":
        rng.shuffle(elements)
    elif kind == "cycle":
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        for pair in [(names[i], names[j]), (names[j], names[i])]:
            pairs.insert(rng.randint(0, len(pairs)), pair)
    elif kind == "unknown":
        pair = rng.choice([("zz", rng.choice(names)), (rng.choice(names), "zz"), ("zz", "yy")])
        pairs.insert(rng.randint(0, len(pairs)), pair)
    elif kind == "duplicate":
        elements.insert(rng.randint(0, n), rng.choice(names))
    elif kind == "empty":
        elements = []
    assert _built(lambda e, ps: order.build_poset(e, iter(ps)), elements, pairs) == \
        _built(build_poset_oracle, elements, pairs)


def test_ascending_relations_build_without_warshall(monkeypatch):
    # an ascending 2,000-chain, every gallery game and the lattices of the
    # topology benchmark plan close in one pass; an element order that is
    # not a linear extension still takes the Warshall closure
    def no_warshall(rows, n):
        raise AssertionError("Warshall closure")

    monkeypatch.setattr(_kernels, "transitive_closure", no_warshall)
    names = [str(v) for v in range(2000)]
    P = order.build_poset(names, zip(names, names[1:]))
    C = order.chain(names)
    assert (P._up, P._down) == (C._up, C._down)
    for name in gallery.names():
        if gallery.fixture_filename(name).endswith(".json"):
            gallery.load_fixture(name)
    path = Path(__file__).resolve().parents[1] / "latbench" / "plans.py"
    spec = importlib.util.spec_from_file_location("latbench_plans", path)
    plans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plans)
    for item in plans.topology_plan(7)["items"]:
        if item["kind"] == "restriction":
            order.build_poset(item["elements"], item["covers"])
    with pytest.raises(AssertionError, match="Warshall closure"):
        _diamond_tlbr()


def _exhaustive_outcomes(P, S):
    """is_complete_lattice(exhaustive=True) and is_subcomplete on S, then
    the same from the subset-bounds oracles; NotALattice as type and
    message."""
    return ([_outcome(lambda: order.is_complete_lattice(P, exhaustive=True)),
             _outcome(lambda: order.is_subcomplete(P, S))],
            [_outcome(lambda: complete_lattice_exhaustive_oracle(P)),
             _outcome(lambda: subcomplete_exhaustive_oracle(P, S))])


def _random_members(rng, P):
    if rng.random() < 0.5 and order.is_lattice(P):
        return order.random_sublattice(rng, P)
    return rng.sample(P.elements, rng.randint(1, len(P)))


def test_subset_scan_matches_the_subset_bounds_walk_on_the_catalogue():
    rng = random.Random(20)
    for P in catalogue():
        for _ in range(3):
            got, want = _exhaustive_outcomes(P, _random_members(rng, P))
            assert got == want


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_subset_scan_matches_the_subset_bounds_walk(seed):
    # verdicts, modes, witnesses and NotALattice messages, on lattices in
    # and out of linear-extension order and on posets that lack bounds
    rng = random.Random(seed)
    for P in _scan_posets(rng):
        got, want = _exhaustive_outcomes(P, _random_members(rng, P))
        assert got == want


def _m3():
    return order.build_poset(["0", "a", "b", "c", "1"],
                             [("0", x) for x in "abc"] + [(x, "1") for x in "abc"])


def _n5():
    return order.build_poset(["0", "a", "b", "c", "1"],
                             [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_certified_subset_scan_matches_the_walk(seed):
    # the pair scan's certificate, then the walk on a failing set, against
    # the walk alone, over random member masks: on chains, the diamond in
    # two element orders, N5, M3 and random relations that are not lattices
    rng = random.Random(seed)
    posets = [order.chain([f"c{i}" for i in range(rng.randint(1, 6))]), diamond(),
              _diamond_tlbr(), _n5(), _m3()]
    while len(posets) < 7:
        P = _random_poset(rng, rng.randint(2, 8))
        if not order.is_lattice(P):
            posets.append(P)
    for P in posets:
        for _ in range(4):
            mask = rng.randrange(1, 1 << len(P))
            assert order._subset_scan(P, mask) == _kernels.subset_scan(P._up, P._down, mask)


def _index_unread(obj):
    return "_index" not in vars(obj)


def _answer(f):
    try:
        return f()
    except LatnashError as e:
        return (type(e).__name__, str(e))


def test_unread_label_indexes_answer_as_read_ones():
    # each query runs on a fresh poset or topology whose index was never
    # read, and on one whose index was read first
    makers = [lambda: order.chain(["a", "b", "c"]),
              lambda: order.random_lattice(random.Random(5)),
              lambda: order.product_poset([order.chain(["0", "1"])] * 2),
              lambda: order.induced_poset(order.chain(["a", "b", "c"]), ["a", "c"])]
    for make in makers:
        names = list(make().elements)
        queries = [lambda P, x=x: P.index(x) for x in names + ["zz"]]
        queries += [lambda P, x=x: x in P for x in names + ["zz"]]
        queries += [lambda P: order.induced_poset(P, names[:2]),
                    lambda P: order.induced_poset(P, names[:1] + ["zz"])]
        for query in queries:
            fresh, read = make(), make()
            read.index(names[0])
            assert _index_unread(fresh)
            assert _answer(lambda: query(fresh)) == _answer(lambda: query(read))
        for query in [lambda T: T.mask_of(names[1:]), lambda T: T.mask_of(["zz"]),
                      lambda T: topology.restrict(T, names[1:]),
                      lambda T: topology.restrict(T, names[:1] + ["zz", "yy"])]:
            fresh, read = (topology.interval_topology(make()) for _ in range(2))
            read.mask_of(names[:1])
            assert _index_unread(fresh)
            assert _answer(lambda: query(fresh)) == _answer(lambda: query(read))
    with pytest.raises(ElementOutOfCarrier, match=r"^'zz' is not in the carrier$"):
        topology.restrict(topology.interval_topology(order.chain(["a"])), ["a", "zz", "yy"])
