"""Every conversion of a name, and every refusal of an argument or a
precondition, raises a ``LatnashError`` in one short line: no bare Python
error leaks out, and no value is echoed at full length."""

import pytest

from latnash import equilibria, gallery, games, omega, order, topology
from latnash.errors import (
    ElementOutOfCarrier,
    InfeasibleProfile,
    InvalidArgument,
    NotALattice,
    ParseError,
    PreconditionViolated,
    UnknownElement,
)

LONG = "x" * 5000


def _game():
    return gallery.load_fixture("coordination")


def _carrier():
    return topology.interval_topology(order.chain(["0", "1"]))


PROBES = {
    # labels that do not sort together, or do not hash
    "sublattice of mixed labels": (
        UnknownElement, lambda: order.is_sublattice(order.chain(["0", "1"]), [1, "a"])),
    "induced poset of mixed labels": (
        UnknownElement, lambda: order.induced_poset(order.chain(["0", "1"]), [1, "a"])),
    "correspondence image of mixed labels": (
        UnknownElement,
        lambda: order.Correspondence(order.chain(["t"]), order.chain(["0", "1"]),
                                     {"t": [1, "a"]})),
    "index of a list": (UnknownElement, lambda: order.chain(["0"]).index(["0"])),
    "sup of a list": (UnknownElement, lambda: order.chain(["0"]).sup([["0"]])),
    "mask of a list": (ElementOutOfCarrier, lambda: _carrier().mask_of([["0"]])),
    "restriction to a list": (ElementOutOfCarrier, lambda: topology.restrict(_carrier(), [["0"]])),
    "poset of a list": (ParseError, lambda: order.build_poset([["a"]], [])),
    "player named by a list": (UnknownElement, lambda: _game().player_pos(["p1"])),
    "player set holding a list": (
        UnknownElement, lambda: games.partial_response(_game(), [["p1"]], ("0", "0"))),
    "profile holding a list, compared": (
        UnknownElement, lambda: _game().profile_leq((["0"], "0"), ("1", "1"))),
    "profile holding a list, paid": (
        InfeasibleProfile, lambda: _game().payoff("p1", (["0"], "0"))),
    "profile of an int, paid": (InfeasibleProfile, lambda: _game().payoff("p1", 5)),
    "profile of an int, compared": (ParseError, lambda: _game().profile_leq(5, ("0", "0"))),
    "order pair holding a list": (UnknownElement, lambda: order.build_poset(["a"], [(["a"], "a")])),
    "truncation of a string": (InvalidArgument, lambda: omega.finite_truncation("a")),
    "player named by an int": (
        ParseError, lambda: games.Game([1], {1: order.chain(["0"])}, [("0",)],
                                       {1: {("0",): 0}})),
    # arguments outside the values a function accepts
    "unknown correspondence kind": (
        InvalidArgument, lambda: equilibria.fixed_points(_game(), LONG)),
    "unknown direction": (
        InvalidArgument, lambda: equilibria.extremal_equilibrium(_game(), LONG)),
    "unknown carrier token": (InvalidArgument, lambda: omega.CofiniteSet.finite([LONG])),
    "unknown refutation kind": (InvalidArgument, lambda: omega.refute_statement(LONG)),
    "negative truncation": (InvalidArgument, lambda: omega.finite_truncation(-1)),
    # witnesses that quote long labels
    "restriction lemma precondition": (
        PreconditionViolated,
        lambda: topology.check_restriction_lemma(
            order.build_poset(["m", "a" + LONG, "b" + LONG, "M"],
                              [("m", "a" + LONG), ("m", "b" + LONG),
                               ("a" + LONG, "M"), ("b" + LONG, "M")]),
            ["a" + LONG, "b" + LONG])),
    "product lemma factor": (
        NotALattice,
        lambda: topology.check_product_interval_lemma([order.antichain([LONG, "b"])])),
    "subcompleteness in a non-lattice": (
        NotALattice, lambda: order.is_subcomplete(order.antichain([LONG, "b"]), [LONG, "b"])),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_refusal_is_a_latnash_error_in_one_short_line(name):
    cls, probe = PROBES[name]
    with pytest.raises(cls) as info:
        probe()
    message = str(info.value)
    assert len(message) <= 200 and "\n" not in message, message


def test_a_profile_holding_a_list_is_not_feasible():
    assert _game().is_feasible((["0"], "0")) is False


def test_refusals_of_arguments_are_value_errors_too():
    assert issubclass(InvalidArgument, ValueError)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        omega.finite_truncation(-1)


def test_string_labels_keep_their_refusal_text():
    with pytest.raises(UnknownElement, match=r"^elements not in poset: \['a', 'b'\]$"):
        order.is_sublattice(order.chain(["0", "1"]), ["b", "0", "a"])
    with pytest.raises(UnknownElement, match=r"^elements not in poset: \[1, 'a'\]$"):
        order.is_sublattice(order.chain(["0", "1"]), ["a", 1])
