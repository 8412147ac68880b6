from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnash import omega, topology
from latnash.errors import EmptySet
from latnash.omega import CofiniteSet


def fin(*tokens):
    return CofiniteSet.finite(tokens)


def cof(*exceptions):
    return CofiniteSet.without(exceptions)


# --------------------------------------------------------------------------
# sup / inf case analysis


def test_sup_inf_of_antichain_pair():
    A = fin("x1", "x2")
    assert omega.sym_sup(A) == "M"
    assert omega.sym_inf(A) == "m"


def test_sup_inf_singleton():
    A = fin("x5")
    assert omega.sym_sup(A) == "x5"
    assert omega.sym_inf(A) == "x5"


def test_sup_inf_cofinite():
    A = cof("x0")
    assert omega.sym_sup(A) == "M"
    assert omega.sym_inf(A) == "m"


def test_sup_inf_chain_subsets():
    assert omega.sym_sup(fin("m")) == "m"
    assert omega.sym_inf(fin("M")) == "M"
    assert omega.sym_sup(fin("m", "x3")) == "x3"
    assert omega.sym_inf(fin("x3", "M")) == "x3"
    assert omega.sym_sup(fin("m", "M")) == "M"
    assert omega.sym_inf(fin("m", "M")) == "m"


def test_sup_of_empty_rejected():
    with pytest.raises(EmptySet):
        omega.sym_sup(fin())
    with pytest.raises(EmptySet):
        omega.sym_inf(fin())
    with pytest.raises(EmptySet, match="^subcompleteness of the empty set$"):
        omega.sym_is_subcomplete(fin())


# --------------------------------------------------------------------------
# closure / compactness


def test_finite_sets_are_closed():
    A = fin("m", "x3")
    assert omega.sym_closure(A) == A


def test_whole_carrier_closed():
    L = CofiniteSet.whole()
    assert omega.sym_closure(L) == L


def test_cofinite_proper_subset_not_closed():
    A = cof("x0")
    assert omega.sym_closure(A) == CofiniteSet.whole()
    assert omega.sym_closure(A) != A


def test_everything_compact():
    for A in (fin("x1"), cof("x0"), cof("x1", "x2"), CofiniteSet.whole()):
        assert omega.sym_is_compact(A) is True


def test_closure_idempotent_and_extensive():
    for A in (fin("m", "x1"), cof("x0", "M"), fin(), CofiniteSet.whole()):
        c = omega.sym_closure(A)
        assert omega.sym_closure(c) == c
        # extensive: A subset of closure(A)
        for t in ("m", "M", "x0", "x1", "x7"):
            if t in A:
                assert t in c


# --------------------------------------------------------------------------
# subcompleteness


def test_carrier_minus_one_antichain_point_subcomplete():
    assert omega.sym_is_subcomplete(cof("x0"))


def test_two_antichain_points_not_subcomplete():
    r = omega.sym_is_subcomplete(fin("x1", "x2"))
    assert not r
    witness_set, bound, kind = r.witness
    assert witness_set == fin("x1", "x2")
    assert bound == "M" and kind == "sup"


def test_chain_with_one_antichain_point_subcomplete():
    A = fin("m", "x1", "M")
    assert omega.sym_is_subcomplete(A)
    # exhaustive confirmation over its 7 nonempty subsets
    toks = sorted(A.data, key=lambda t: (t != "m", t))
    for r in range(1, 4):
        for sub in combinations(toks, r):
            B = fin(*sub)
            assert omega.sym_sup(B) in A
            assert omega.sym_inf(B) in A


def test_cofinite_missing_top_not_subcomplete():
    r = omega.sym_is_subcomplete(cof("M"))
    assert not r and r.witness[1] == "M"


def _exhaustive_subcomplete(A: CofiniteSet) -> bool:
    toks = sorted(A.data)
    assert not A.cofinite
    for r in range(1, len(toks) + 1):
        for sub in combinations(toks, r):
            B = fin(*sub)
            if omega.sym_sup(B) not in A or omega.sym_inf(B) not in A:
                return False
    return True


_token_pool = ["m", "M"] + [omega.anti_token(k) for k in range(6)]


@given(st.sets(st.sampled_from(_token_pool), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_subcomplete_closed_form_matches_exhaustive(tokens):
    A = fin(*tokens)
    assert bool(omega.sym_is_subcomplete(A)) == _exhaustive_subcomplete(A)


# --------------------------------------------------------------------------
# set algebra properties


cofinite_st = st.builds(
    CofiniteSet,
    st.booleans(),
    st.sets(st.sampled_from(_token_pool), max_size=5).map(frozenset),
)

_probe_tokens = _token_pool + [omega.anti_token(k) for k in range(6, 10)]


def _same_set(a: CofiniteSet, b: CofiniteSet) -> bool:
    if a == b:
        return True
    if a.cofinite != b.cofinite:
        return False
    return a.data == b.data


@given(cofinite_st, cofinite_st)
@settings(max_examples=200, deadline=None)
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersection(b.complement())
    assert _same_set(lhs, rhs)
    lhs2 = a.intersection(b).complement()
    rhs2 = a.complement().union(b.complement())
    assert _same_set(lhs2, rhs2)


@given(cofinite_st, cofinite_st)
@settings(max_examples=200, deadline=None)
def test_union_intersection_membership_semantics(a, b):
    u = a.union(b)
    i = a.intersection(b)
    c = a.complement()
    for t in _probe_tokens:
        assert (t in u) == ((t in a) or (t in b))
        assert (t in i) == ((t in a) and (t in b))
        assert (t in c) == (t not in a)


@given(cofinite_st)
@settings(max_examples=100, deadline=None)
def test_complement_involution_and_canonical_form(a):
    assert a.complement().complement() == a
    # canonical form: the stored data set is always finite and meaningful
    assert isinstance(a.data, frozenset)


# --------------------------------------------------------------------------
# refutation reports


def test_refute_statement_kind1():
    r = omega.refute_statement(1)
    assert r.subcomplete and r.compact and not r.closed
    assert r.refutes()
    text = r.render()
    assert "L \\ {x0}" in text
    # a finite set lists its tokens bottom first, top last
    assert CofiniteSet.finite(["M", "x1", "m", "x0"]).render() == "{m, x0, x1, M}"
    assert "REFUTED" in text


def test_refute_statement_kind2():
    r = omega.refute_statement(2)
    assert r.compact and not r.closed
    assert r.refutes()


def test_refute_statement_bad_kind():
    with pytest.raises(ValueError):
        omega.refute_statement(3)


# --------------------------------------------------------------------------
# finite truncations (cross-module)


def test_truncations_have_discrete_interval_topology():
    for n in range(1, 7):
        P = omega.finite_truncation(n)
        T = topology.interval_topology(P)
        assert len(T.closed_masks) == 2 ** len(P.elements)


def test_truncation_structure():
    P = omega.finite_truncation(3)
    assert P.bottom() == "m" and P.top() == "M"
    assert not P.comparable("x0", "x1")
    assert P.leq("m", "x2") and P.leq("x2", "M")
