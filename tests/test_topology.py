import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnash import order, topology
from latnash.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    DuplicateElement,
    ElementOutOfCarrier,
    NotALattice,
    PreconditionViolated,
)
from latnash.omega import finite_truncation
from latnash.order import (
    build_poset,
    chain,
    product_poset,
    random_lattice,
    random_sublattice,
)

from oracles import alternating_pass_closure


def diamond():
    return build_poset(["m", "x", "y", "M"],
                       [("m", "x"), ("m", "y"), ("x", "M"), ("y", "M")])


# --------------------------------------------------------------------------
# generation


def test_empty_subbasis_is_indiscrete():
    T = topology.generate_topology(["a", "b", "c"], [])
    assert T.closed_masks == frozenset({0, 0b111})
    assert T.closure([]) == frozenset() and T.closure(["b"]) == frozenset("abc")
    T = topology.generate_topology(["a", "b", "c"], [["a", "b"], ["b"]])
    assert [T.closure([x]) for x in "abc"] == [{"a", "b"}, {"b"}, {"a", "b", "c"}]


def test_singletons_generate_power_set():
    T = topology.generate_topology(["a", "b", "c"], [["a"], ["b"], ["c"]])
    assert len(T.closed_masks) == 8


def test_truncation_interval_subbasis_generates_power_set():
    # {x1} is the intersection of the rays above and below x1, so the
    # finite slice collapses to the discrete topology; the cofinite
    # behaviour of the infinite lattice is NOT reproduced by truncations.
    L = finite_truncation(2)  # carrier m, x0, x1, M
    subbasis = [L.down_set(e) for e in L.elements]
    subbasis += [L.up_set(e) for e in L.elements]
    T = topology.generate_topology(L.elements, subbasis)
    assert len(T.closed_masks) == 2 ** 4
    assert T.is_closed({"x1"})


def test_generation_matches_alternating_pass_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        carrier = [f"c{i}" for i in range(n)]
        full = (1 << n) - 1
        masks = [rng.randint(0, full) for _ in range(rng.randint(0, 5))]
        subbasis = [[carrier[i] for i in range(n) if (m >> i) & 1]
                    for m in masks]
        T = topology.generate_topology(carrier, subbasis)
        assert sorted(T.closed_masks) == alternating_pass_closure(masks, full)


def test_generate_validates_carrier():
    with pytest.raises(ElementOutOfCarrier):
        topology.generate_topology(["a"], [["zz"]])
    # a repeated point would get two closures and list one closed set twice
    with pytest.raises(DuplicateElement, match="duplicate element 'a'"):
        topology.generate_topology(["a", "a"], [["a"]])
    # no carrier size is refused: 40 points, indiscrete, list two sets
    T = topology.generate_topology([f"c{i}" for i in range(40)], [])
    assert T.closed_masks == frozenset({0, (1 << 40) - 1})


def test_generation_idempotent():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 6)
        carrier = [f"c{i}" for i in range(n)]
        full = (1 << n) - 1
        masks = [rng.randint(0, full) for _ in range(rng.randint(0, 5))]
        subbasis = [[carrier[i] for i in range(n) if (m >> i) & 1] for m in masks]
        T = topology.generate_topology(carrier, subbasis)
        again = topology.generate_topology(
            carrier, [T.set_of(m) for m in T.closed_masks])
        assert again == T


# --------------------------------------------------------------------------
# interval topology


def test_interval_topology_of_chain_is_discrete():
    c = chain([str(i) for i in range(5)])
    T = topology.interval_topology(c)
    assert len(T.closed_masks) == 2 ** 5


def test_interval_topology_singleton():
    P = build_poset(["a"], [])
    T = topology.interval_topology(P)
    assert T.closed_masks == frozenset({0, 1})


def test_interval_topology_diamond_discrete():
    T = topology.interval_topology(diamond())
    assert len(T.closed_masks) == 16


@st.composite
def interval_posets(draw):
    """Posets of every shape the lemma checkers meet, and others: random
    DAG orders (rarely lattices) and antichains in shuffled label order,
    random lattices, products of chains and truncations of omega."""
    kind = draw(st.sampled_from(["dag", "antichain", "lattice", "product", "omega"]))
    if kind == "lattice":
        return random_lattice(random.Random(draw(st.integers(0, 10 ** 6))), max_size=8)
    if kind == "product":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        return product_poset([chain([f"{k}{i}" for i in range(n)])
                              for k, n in enumerate(sizes)])
    if kind == "omega":
        return finite_truncation(draw(st.integers(0, 30)))
    n = draw(st.integers(1, 24))
    names = draw(st.permutations([f"e{i}" for i in range(n)]))
    if kind == "antichain":
        return build_poset(names, [])
    # pairs that go up a random rank order: acyclic, listed in an order
    # that need not be a linear extension
    rank = draw(st.permutations(names))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return build_poset(names, [(rank[min(a, b)], rank[max(a, b)])
                               for a, b in pairs if a != b])


@given(interval_posets())
@settings(max_examples=200, deadline=None)
def test_interval_topology_matches_label_subbasis(P):
    # the rows path against the label path, on carriers of up to 64
    # points; equal carriers and rows make equal dumps, so the 2^|P|
    # closed sets of these discrete topologies are listed only up to 12
    # points
    subbasis = [P.down_set(x) for x in P.elements] + [P.up_set(x) for x in P.elements]
    T = topology.interval_topology(P)
    want = topology.generate_topology(P.elements, subbasis)
    assert T == want and T.carrier == P.elements
    if len(P) <= 12:
        assert T.dump() == want.dump()


def test_listing_more_than_2_to_the_16_closed_sets_is_refused():
    # a 17-chain is built on both paths, but its 2^17 closed sets are not
    # listed, whichever way they are asked for
    P = chain([f"c{i}" for i in range(17)])
    subbasis = [P.down_set(x) for x in P.elements] + [P.up_set(x) for x in P.elements]
    T = topology.interval_topology(P)
    assert T == topology.generate_topology(P.elements, subbasis)
    msg = r"^closed-set family exceeds 2\^16 sets$"
    for listing in (lambda: T.closed_masks, T.closed_sets, T.dump):
        with pytest.raises(CarrierTooLarge, match=msg):
            listing()
    # the limit is on the family, not the carrier: 17 points whose last two
    # share every closed set have exactly 2^16 of them
    carrier = [f"c{i}" for i in range(17)]
    joined = topology.generate_topology(carrier, [[c] for c in carrier[:15]] + [carrier[15:]])
    assert len(joined.closed_masks) == 1 << 16
    assert repr(topology.interval_topology(product_poset([chain("abcd")] * 3))) == \
        "FiniteTopology(64 points)"


def test_rays_are_closed():
    rng = random.Random(7)
    for _ in range(10):
        P = random_lattice(rng, max_size=7)
        T = topology.interval_topology(P)
        for x in P.elements:
            assert T.is_closed(P.down_set(x))
            assert T.is_closed(P.up_set(x))


# --------------------------------------------------------------------------
# restriction and products


def test_restrict_identity_and_discrete():
    d = diamond()
    T = topology.interval_topology(d)
    assert topology.restrict(T, d.elements) == T
    R = topology.restrict(T, {"m", "x"})
    assert len(R.closed_masks) == 4  # discrete on two points


def test_restrict_diamond_to_chain():
    d = diamond()
    lhs = topology.restrict(topology.interval_topology(d), {"m", "x", "M"})
    rhs = topology.interval_topology(chain(["m", "x", "M"]))
    assert lhs == rhs


def test_restrict_unknown_element():
    T = topology.generate_topology(["a"], [])
    with pytest.raises(ElementOutOfCarrier):
        topology.restrict(T, {"zz"})


def test_product_of_discrete_is_discrete():
    c2 = chain(["0", "1"])
    T = topology.interval_topology(c2)
    P = topology.product_topology([T, T])
    assert len(P.closed_masks) == 16
    assert P.carrier == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def test_product_refuses_colliding_labels():
    # ("a", "b,c") and ("a,b", "c") would both be named (a,b,c), as in
    # the product poset
    A = topology.generate_topology(["a", "a,b"], [])
    B = topology.generate_topology(["b,c", "c"], [])
    with pytest.raises(DuplicateElement, match=r"duplicate element '\(a,b,c\)'"):
        topology.product_topology([A, B])


def test_product_single_factor_unchanged():
    T = topology.generate_topology(["a", "b"], [["a"]])
    assert topology.product_topology([T]) == T
    with pytest.raises(ElementOutOfCarrier, match="^product of zero topologies$"):
        topology.product_topology([])


def test_product_lemma_instance_chain2_chain3():
    c2, c3 = chain(["0", "1"]), chain(["0", "1", "2"])
    lhs = topology.interval_topology(product_poset([c2, c3]))
    rhs = topology.product_topology(
        [topology.interval_topology(c2), topology.interval_topology(c3)])
    assert lhs == rhs


def _random_subbasis(rng, n):
    """A random topology on n points: its carrier, subbasis masks and the
    generated topology."""
    carrier = [f"c{i}" for i in range(n)]
    masks = [rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 5))]
    subbasis = [[carrier[i] for i in range(n) if (m >> i) & 1] for m in masks]
    return carrier, masks, topology.generate_topology(carrier, subbasis)


def test_restrict_matches_oracle_traces():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 7)
        carrier, masks, T = _random_subbasis(rng, n)
        keep = [i for i in range(n) if rng.random() < 0.6]
        family = alternating_pass_closure(masks, (1 << n) - 1)
        traces = set()
        for m in family:
            traces.add(sum(1 << new for new, old in enumerate(keep)
                           if (m >> old) & 1))
        R = topology.restrict(T, [carrier[i] for i in keep])
        assert R.carrier == tuple(carrier[i] for i in keep)
        assert sorted(R.closed_masks) == \
            alternating_pass_closure(traces, (1 << len(keep)) - 1)


def test_product_matches_oracle_cylinders():
    rng = random.Random(9)
    done = 0
    while done < 100:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        total = 1
        for s in sizes:
            total *= s
        if total > 9:
            continue
        factors = [_random_subbasis(rng, s) for s in sizes]
        tuples = list(product(*(range(s) for s in sizes)))
        cylinders = []
        for k, (_, masks, _) in enumerate(factors):
            for m in alternating_pass_closure(masks, (1 << sizes[k]) - 1):
                cylinders.append(sum(1 << pos for pos, t in enumerate(tuples)
                                     if (m >> t[k]) & 1))
        P = topology.product_topology([T for _, _, T in factors])
        assert sorted(P.closed_masks) == \
            alternating_pass_closure(cylinders, (1 << total) - 1)
        done += 1


# --------------------------------------------------------------------------
# lemma checkers


def test_restriction_lemma_trivial_and_diamond():
    d = diamond()
    assert topology.check_restriction_lemma(d, d.elements)
    assert topology.check_restriction_lemma(d, {"m", "M"})


def test_restriction_lemma_precondition():
    d = diamond()
    with pytest.raises(PreconditionViolated):
        topology.check_restriction_lemma(d, {"x", "y"})


def test_restriction_lemma_converts_q_once(monkeypatch):
    # Q becomes a bitmask once; the precondition, the induced order and the
    # restriction all read that mask, through none of the label functions
    conversions = []
    subset_mask = order._subset_mask

    def counted(*args):
        conversions.append(args[1])
        return subset_mask(*args)

    def refused(*args, **kwargs):
        raise AssertionError("a label function converted Q again")

    for module in (order, topology):
        monkeypatch.setattr(module, "_subset_mask", counted)
    for module, name in ((topology, "restrict"), (order, "induced_poset"),
                         (order, "is_subcomplete")):
        monkeypatch.setattr(module, name, refused)
    for P, Q in ((diamond(), {"m", "M"}), (diamond(), diamond().elements),
                 (product_poset([chain(["0", "1"])] * 3), ["(0,0,0)", "(0,1,1)"])):
        conversions.clear()
        assert topology.check_restriction_lemma(P, Q)
        assert conversions == [Q]


def _chain_products():
    """Products of chains with 32, 64, 125 and 512 points."""
    for sizes in ((2, 4, 4), (4, 4, 4), (5, 5, 5), (8, 8, 8)):
        yield [chain([str(v) for v in range(s)]) for s in sizes]


def test_restriction_lemma_random_instances():
    rng = random.Random(0)
    for _ in range(100):
        P = random_lattice(rng, max_size=8)
        Q = random_sublattice(rng, P)
        assert topology.check_restriction_lemma(P, Q)
    for factors in _chain_products():
        P = product_poset(factors)
        assert topology.check_restriction_lemma(P, P.elements)
        for _ in range(3):
            assert topology.check_restriction_lemma(P, random_sublattice(rng, P))


def test_product_lemma_single_and_random():
    c2 = chain(["0", "1"])
    assert topology.check_product_interval_lemma([c2])
    assert topology.check_product_interval_lemma([c2, c2])
    rng = random.Random(1)
    done = 0
    while done < 20:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        total = 1
        for s in sizes:
            total *= s
        if total > 12:
            continue
        factors = [chain([str(v) for v in range(s)]) for s in sizes]
        assert topology.check_product_interval_lemma(factors)
        done += 1
    for factors in _chain_products():
        assert topology.check_product_interval_lemma(factors)


def _lemma_sides(check, *args):
    """The two topologies the lemma check compares, taken from its call of
    ``_same_topology``."""
    sides = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_same_topology",
                   lambda lhs, rhs: sides.append((lhs, rhs)) or order.PASS)
        assert check(*args)
    (pair,) = sides
    return pair


def _shuffled(rng, L):
    """L with its elements listed in random order: mostly not a linear
    extension."""
    names = list(L.elements)
    rng.shuffle(names)
    return build_poset(names, L.covers())


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_lemma_sides_equal_the_public_compositions(seed):
    # the restriction lemma's sides on random lattices, in and out of
    # linear-extension order, and random sublattices or the whole of P; the
    # product lemma's sides on products of one to three random lattices
    rng = random.Random(seed)
    P = random_lattice(rng, max_size=8)
    if rng.random() < 0.5:
        P = _shuffled(rng, P)
    Q = sorted(random_sublattice(rng, P)) if rng.random() < 0.8 else P.elements
    lhs, rhs = _lemma_sides(topology.check_restriction_lemma, P, Q)
    assert lhs == topology.interval_topology(order.induced_poset(P, Q))
    assert rhs == topology.restrict(topology.interval_topology(P), Q)
    Ls = [random_lattice(rng, max_size=4) for _ in range(rng.randint(1, 3))]
    Ls = [_shuffled(rng, L) if rng.random() < 0.5 else L for L in Ls]
    lhs, rhs = _lemma_sides(topology.check_product_interval_lemma, Ls)
    assert lhs == topology.interval_topology(product_poset(Ls))
    assert rhs == topology.product_topology([topology.interval_topology(L) for L in Ls])


def test_product_lemma_rejects_non_lattice():
    two = build_poset(["a", "b"], [])
    with pytest.raises(NotALattice):
        topology.check_product_interval_lemma([two])


def _closed_in_exactly_one(witness, T1, T2):
    return T1.is_closed(witness) != T2.is_closed(witness)


@pytest.mark.parametrize("n", [5, 17])
def test_failed_comparison_names_its_witness_without_listing(n):
    # the discrete interval topology of a chain against the indiscrete one:
    # above 16 points neither family can be listed, and the witness is
    # still the least closure that differs
    P = chain([f"c{i}" for i in range(n)])
    discrete = topology.interval_topology(P)
    indiscrete = topology.generate_topology(P.elements, [])
    for lhs, rhs in ((discrete, indiscrete), (indiscrete, discrete)):
        r = topology._same_topology(lhs, rhs)
        assert not r and r.witness == (frozenset({"c0"}),)
        assert _closed_in_exactly_one(r.witness[0], lhs, rhs)


def test_failed_comparison_witness_is_closed_in_one_topology_only():
    rng = random.Random(11)
    for _ in range(300):
        carrier = [f"p{i}" for i in range(rng.randint(1, 8))]
        T1, T2 = (topology.generate_topology(
            carrier, [rng.sample(carrier, rng.randint(0, len(carrier)))
                      for _ in range(rng.randint(0, 4))]) for _ in range(2))
        r = topology._same_topology(T1, T2)
        assert bool(r) == (T1.closed_masks == T2.closed_masks)
        if not r:
            assert _closed_in_exactly_one(r.witness[0], T1, T2)


# --------------------------------------------------------------------------
# finer_than


def test_finer_than_basics():
    carrier = ["a", "b"]
    disc = topology.generate_topology(carrier, [["a"], ["b"]])
    indisc = topology.generate_topology(carrier, [])
    assert topology.finer_than(disc, disc)
    assert topology.finer_than(disc, indisc)
    assert not topology.finer_than(indisc, disc)
    other = topology.generate_topology(["z"], [])
    with pytest.raises(CarrierMismatch):
        topology.finer_than(disc, other)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_finer_than_is_a_partial_order(seed):
    rng = random.Random(seed)
    carrier = [f"c{i}" for i in range(rng.randint(1, 4))]
    full = (1 << len(carrier)) - 1

    def rand_topology():
        masks = [rng.randint(0, full) for _ in range(rng.randint(0, 4))]
        sb = [[carrier[i] for i in range(len(carrier)) if (m >> i) & 1]
              for m in masks]
        return topology.generate_topology(carrier, sb)

    a, b, c = rand_topology(), rand_topology(), rand_topology()
    assert topology.finer_than(a, a)
    if topology.finer_than(a, b) and topology.finer_than(b, a):
        assert a == b
    if topology.finer_than(a, b) and topology.finer_than(b, c):
        assert topology.finer_than(a, c)


# --------------------------------------------------------------------------
# dump format


def test_dump_golden():
    T = topology.generate_topology(["a", "b", "c"], [["a", "c"]])
    # closed family: {}, {a,c}, {a,b,c}
    assert T.dump() == "\na,b,c\na,c\n"


def test_dump_lines_sorted_and_stable():
    d = diamond()
    T = topology.interval_topology(d)
    dump = T.dump()
    lines = dump.strip("\n").split("\n")
    assert lines == sorted(lines)
    assert topology.interval_topology(d).dump() == dump
