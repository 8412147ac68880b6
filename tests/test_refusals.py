"""Every conversion of a name, and every refusal of an argument or a
precondition, raises a ``LatnashError`` in one short line: no bare Python
error leaks out, and no value is echoed at full length."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnash import equilibria, gallery, games, omega, order, topology
from latnash.errors import (
    ElementOutOfCarrier,
    InfeasibleProfile,
    InvalidArgument,
    LatnashError,
    NonSurjectiveProjection,
    NotALattice,
    ParseError,
    PreconditionViolated,
    UnknownElement,
)

LONG = "x" * 5000
DIGITS = "1" * (sys.get_int_max_str_digits() + 1)  # more than int() converts


def _game():
    return gallery.load_fixture("coordination")


def _carrier():
    return topology.interval_topology(order.chain(["0", "1"]))


def _one_payoff_document(payoff):
    """A one-player game document whose one payoff is the JSON text ``payoff``."""
    return ('{"players": ["p1"], "strategies": {"p1": {"elements": ["0"], "order": []}}, '
            '"feasible": "product", "payoffs": {"p1": {"0": ' + payoff + '}}}')


def _player_listed_twice_document():
    """A game document that lists its one player twice."""
    return ('{"players": ["p1", "p1"], "strategies": {"p1": {"elements": ["0"], "order": []}}, '
            '"feasible": "product", "payoffs": {"p1": {"0|0": "1"}}}')


def _stray_key_document(feasible, p2_payoffs):
    """A two-player game document on 2-chains whose player 1 has a payoff at
    "0|2", a profile that is not listed."""
    return ('{"players": ["p1", "p2"], "strategies": {"p1": {"elements": ["0", "1"], '
            '"order": [["0", "1"]]}, "p2": {"elements": ["0", "1"], "order": [["0", "1"]]}}, '
            '"feasible": ' + feasible + ', "payoffs": {"p1": {"0|0": "1", "0|2": "1", '
            '"1|1": "0"}, "p2": ' + p2_payoffs + '}}')


class _Entries:
    """A payoff table that hands over its (key, value) pairs as given:
    the keys of a dict cannot hold unhashable names."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


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
    # a string is never a profile, a player set or a set of labels or points
    "profile of a string, paid": (InfeasibleProfile, lambda: _game().payoff("p1", "00")),
    "profile of a string, compared": (ParseError, lambda: _game().profile_leq("00", "11")),
    "player set of a string": (
        ParseError, lambda: games.partial_response(_game(), "p1", ("0", "1"))),
    "sublattice of a string": (
        UnknownElement, lambda: order.is_sublattice(order.chain(["a", "b", "c"]), "ac")),
    "mask of a string": (
        ElementOutOfCarrier,
        lambda: topology.interval_topology(order.chain(["a", "b", "c"])).mask_of("ac")),
    "truncation of a string": (InvalidArgument, lambda: omega.finite_truncation("a")),
    "payoff keyed by a string": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0", "1"])},
                                       [("0",), ("1",)], {"solo": {"0": 2, ("1",): 0}})),
    "payoff keyed by an int": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       {"solo": {5: 1}})),
    "payoff keyed by a name holding a list": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       {"solo": _Entries([([["0"]], 1)])})),
    "player named by an int": (
        ParseError, lambda: games.Game([1], {1: order.chain(["0"])}, [("0",)],
                                       {1: {("0",): 0}})),
    # a set has no order, so it is never a profile, a payoff key, an order
    # pair, a game's players or a chain's elements
    "profile of a set, paid": (
        ParseError, lambda: _game().payoff("p1", frozenset({"0", "1"}))),
    "profile of a set, compared": (
        ParseError, lambda: _game().profile_leq(frozenset({"0", "1"}), ("0", "1"))),
    "payoff keyed by a set": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       {"solo": {frozenset({"0"}): 1}})),
    "order pair of a set": (
        ParseError, lambda: order.build_poset(["a", "b"], [frozenset({"a", "b"})])),
    "players of a set": (
        ParseError, lambda: games.Game(frozenset({"solo"}), {"solo": order.chain(["0"])},
                                       [("0",)], {"solo": {("0",): 0}})),
    "chain of a set": (ParseError, lambda: order.chain({"a", "b"})),
    # payoffs that are not a mapping
    "payoff table of a list": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0", "1"])},
                                       [("0",), ("1",)], {"solo": [1]})),
    "payoffs of an int": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0", "1"])},
                                       [("0",), ("1",)], 5)),
    # arguments of Game(...) that are not what a game is built from
    "lattices of a list": (
        ParseError, lambda: games.Game(["solo"], [order.chain(["0"])], [("0",)],
                                       {"solo": {("0",): 0}})),
    "lattice that is not a poset": (
        ParseError, lambda: games.Game(["solo"], {"solo": ["0"]}, [("0",)],
                                       {"solo": {("0",): 0}})),
    "lattice for a non-player": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"]), "x": None},
                                       [("0",)], {"solo": {("0",): 0}})),
    "feasible set of an int": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, 5,
                                       {"solo": {("0",): 0}})),
    "payoffs of a list": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       [{("0",): 0}])),
    "payoffs for a non-player": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       {"solo": {("0",): 0}, "x": {}})),
    "game name of an int": (
        ParseError, lambda: games.Game(["solo"], {"solo": order.chain(["0"])}, [("0",)],
                                       {"solo": {("0",): 0}}, name=5)),
    # a profile labelled is converted as every profile is
    "label of a string": (ParseError, lambda: _game().profile_label("00")),
    "label of an int": (ParseError, lambda: _game().profile_label(5)),
    "label of an unknown strategy": (UnknownElement, lambda: _game().profile_label(("0", "9"))),
    "label of the wrong arity": (ParseError, lambda: _game().profile_label(("0",))),
    # numbers with more digits than int() converts, in a string or in JSON
    "payoff string of too many digits": (
        ParseError, lambda: games.load_game(_one_payoff_document(f'"{DIGITS}"'), "game.json")),
    "JSON number of too many digits": (
        ParseError, lambda: games.load_game(_one_payoff_document(DIGITS), "game.json")),
    # a key that names no listed profile is refused after the checks of S,
    # as it is in a table given to Game(...)
    "payoff key of no listed profile, and a payoff missing": (
        ParseError, lambda: games.load_game(
            _stray_key_document('[["0", "0"], ["1", "1"]]', '{"0|0": "1"}'), "d.json")),
    "payoff key of no listed profile, and a strategy no profile plays": (
        NonSurjectiveProjection, lambda: games.load_game(
            _stray_key_document('[["0", "0"], ["0", "1"]]', '{"0|0": "1", "0|1": "1"}'),
            "d.json")),
    # a player listed twice has one payoff table, converted once
    "player listed twice": (
        ParseError, lambda: games.load_game(_player_listed_twice_document(), "d.json")),
    # arguments outside the values a function accepts
    "unknown correspondence kind": (
        InvalidArgument, lambda: equilibria.fixed_points(_game(), LONG)),
    "unknown direction": (
        InvalidArgument, lambda: equilibria.extremal_equilibrium(_game(), LONG)),
    "unknown carrier token": (InvalidArgument, lambda: omega.CofiniteSet.finite([LONG])),
    "unknown refutation kind": (InvalidArgument, lambda: omega.refute_statement(LONG)),
    "negative truncation": (InvalidArgument, lambda: omega.finite_truncation(-1)),
    # a bool is no int here, as it is no payoff
    "refutation kind of a bool": (InvalidArgument, lambda: omega.refute_statement(True)),
    # nor is a float or a Fraction equal to 1 or 2
    "refutation kind of a float": (InvalidArgument, lambda: omega.refute_statement(1.0)),
    "refutation kind of a Fraction": (
        InvalidArgument, lambda: omega.refute_statement(Fraction(2))),
    "truncation of a bool": (InvalidArgument, lambda: omega.finite_truncation(True)),
    # values that quote long names nested in containers
    "profile of nested long names, joined": (
        UnknownElement, lambda: _game().profile_join(("0", "0"), [[LONG, LONG], [LONG]])),
    "player of nested long names": (
        UnknownElement, lambda: _game().player_pos(((LONG, LONG), (LONG, LONG), (LONG, LONG)))),
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


def test_a_string_is_not_a_feasible_profile():
    assert _game().is_feasible("00") is False


def test_a_set_is_not_a_feasible_profile():
    assert _game().is_feasible(frozenset({"0", "1"})) is False


def test_set_refusals_share_one_wording():
    with pytest.raises(ParseError, match=r"^profile frozenset\(\{'0'\}\) is a set, "
                                         r"which has no order$"):
        _game().profile_join(frozenset({"0"}), ("0", "0"))
    with pytest.raises(ParseError, match=r"^chain elements \{'a'\} is a set, which has no order$"):
        order.chain({"a"})
    # a poset's elements and a topology's carrier, given as a set, would
    # take the order of the hash seed, and so would covers, DOT output and
    # a topology's dump
    with pytest.raises(ParseError, match=r"^poset elements \{'a'\} is a set, which has no order$"):
        order.build_poset({"a"}, [])
    with pytest.raises(ParseError, match=r"^poset elements frozenset\(\{'a'\}\) is a set, "
                                         r"which has no order$"):
        order.antichain(frozenset({"a"}))
    with pytest.raises(ParseError, match=r"^carrier \{'a'\} is a set, which has no order$"):
        topology.generate_topology({"a"}, [])


def test_payoff_refusals_name_the_player():
    message = "payoffs for player 'solo' are not given as a mapping of profiles to values"
    with pytest.raises(ParseError, match=f"^{message}$"):
        games.Game(["solo"], {"solo": order.chain(["0", "1"])}, [("0",), ("1",)], {"solo": [1]})


def test_arguments_by_player_share_one_wording():
    # lattices and payoffs are each a mapping by player, with no entry for
    # a name that is no player, as the loader requires of a document
    solo = order.chain(["0"])
    for lattices, payoffs, message in (
            ([solo], {"solo": {("0",): 0}}, r"strategy lattices \[.*\] are not a mapping by player"),
            ({"solo": solo}, 5, r"payoffs 5 are not a mapping by player"),
            ({"solo": solo}, [{("0",): 0}], r"payoffs \[\{\('0',\): 0\}\] are not a mapping by player"),
            ({"solo": solo, "x": solo}, {"solo": {("0",): 0}},
             r"strategy lattices given for 'x', which is not a player"),
            ({"solo": solo}, {"solo": {("0",): 0}, "x": {}},
             r"payoffs given for 'x', which is not a player")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            games.Game(["solo"], lattices, [("0",)], payoffs)


def test_digit_limit_refusals_share_one_wording():
    # a payoff string and a JSON number past int()'s limit are refused
    # alike, naming no Python setting; the string's refusal names its entry
    limit = sys.get_int_max_str_digits()
    for payoff, entry in ((f'"{DIGITS}"', "payoff of player 'p1' at '0': "), (DIGITS, "")):
        with pytest.raises(ParseError) as info:
            games.load_game(_one_payoff_document(payoff), "game.json")
        assert str(info.value) == f"game.json: {entry}number with more than {limit} digits"


def test_sets_are_taken_where_a_set_is_meant():
    # player sets, label sets, point sets and Q
    g = _game()
    assert games.partial_response(g, {"p1"}, ("0", "1")) == \
        games.partial_response(g, ["p1"], ("0", "1"))
    P = order.chain(["a", "b", "c"])
    assert order.is_sublattice(P, {"a", "c"})
    T = topology.interval_topology(P)
    assert T.mask_of(frozenset({"a", "c"})) == 0b101
    assert topology.check_restriction_lemma(P, {"a", "c"})
    # a dict's keys view is ordered by insertion, so it may stand for a
    # sequence of names
    lattices = {"p2": order.chain(["0", "1"]), "p1": order.chain(["0", "1"])}
    profiles = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    pay = {p: {x: 0 for x in profiles} for p in lattices}
    assert games.Game(lattices.keys(), lattices, profiles, pay).players == ("p2", "p1")
    assert order.chain(dict.fromkeys("ba").keys()).elements == ("b", "a")


def test_refusals_of_arguments_are_value_errors_too():
    assert issubclass(InvalidArgument, ValueError)
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        omega.finite_truncation(-1)


def test_string_labels_keep_their_refusal_text():
    with pytest.raises(UnknownElement, match=r"^elements not in poset: \['a', 'b'\]$"):
        order.is_sublattice(order.chain(["0", "1"]), ["b", "0", "a"])
    with pytest.raises(UnknownElement, match=r"^elements not in poset: \[1, 'a'\]$"):
        order.is_sublattice(order.chain(["0", "1"]), ["a", 1])


# --------------------------------------------------------------------------
# every conversion, on arguments drawn from what a name or a collection of
# names may be and from what it is not

_G = _game()
_P = order.chain(["a", "b", "c"])
_T = topology.interval_topology(_P)
_SHORT = st.sampled_from(["0", "1", "p1", "p2", "a", "b", "t", "m", "x0", "a,b"])
_NAMES = st.one_of(_SHORT, st.just(LONG))


def _mix(valid):
    """Valid values, mixed with strings, bytes, ints, None, nested lists of
    short and long names and other unhashable values, sets of names,
    collections of the wrong arity and long names."""
    return st.one_of(
        valid,
        st.text(max_size=3), st.binary(max_size=3), st.just(LONG),
        st.integers(-2, 3), st.none(),
        st.lists(st.lists(_NAMES, max_size=2), max_size=3),
        st.builds(dict), st.builds(bytearray, st.binary(max_size=2)),
        st.frozensets(_SHORT, max_size=3),
        st.lists(_NAMES, max_size=4).map(tuple))


_PROFILE = _mix(st.sampled_from(_G.feasible))
_PLAYER = _mix(st.sampled_from(_G.players))
_PLAYERS = _mix(st.lists(st.sampled_from(_G.players), min_size=1, max_size=2))
_LABEL = _mix(st.sampled_from(_P.elements))
_LABELS = _mix(st.lists(st.sampled_from(_P.elements), max_size=3))
_CARRIER = _mix(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
_PAIRS = _mix(st.lists(_mix(st.tuples(_NAMES, _NAMES)), max_size=3))
_POINT_SETS = _mix(st.lists(_mix(st.lists(_NAMES, max_size=2)), max_size=2))
_RANGE = _mix(st.tuples(st.integers(1, 4), st.integers(1, 4)))


def _pair_of(f):
    return lambda a, b: f([a, b])


# name -> (argument strategies, call, positions of carrier arguments)
CONVERSIONS = {
    "profile_leq": ((_PROFILE, _PROFILE), _G.profile_leq, ()),
    "profile_join": ((_PROFILE, _PROFILE), _G.profile_join, ()),
    "profile_meet": ((_PROFILE, _PROFILE), _G.profile_meet, ()),
    "is_feasible": ((_PROFILE,), _G.is_feasible, ()),
    "profile_label": ((_PROFILE,), _G.profile_label, ()),
    "player_pos": ((_PLAYER,), _G.player_pos, ()),
    "payoff": ((_PLAYER, _PROFILE), _G.payoff, ()),
    "section": ((_PLAYER, _PROFILE), lambda p, x: games.section(_G, p, x), ()),
    "best_response": ((_PLAYER, _PROFILE), lambda p, x: games.best_response(_G, p, x), ()),
    "feasible_box": ((_PROFILE,), lambda x: games.feasible_box(_G, x), ()),
    "joint_response": ((_PROFILE,), lambda x: games.joint_response(_G, x), ()),
    "partial_response": (
        (_PLAYERS, _PROFILE), lambda ps, x: games.partial_response(_G, ps, x), ()),
    "fixed_points": (
        (_mix(st.sampled_from(["joint", "partial"])), _PLAYERS),
        lambda kind, ps: equilibria.fixed_points(_G, kind, ps), ()),
    "group_response_correspondence": (
        (_PLAYERS,), lambda ps: equilibria.group_response_correspondence(_G, ps), ()),
    "extremal_equilibrium": (
        (_mix(st.sampled_from(["greatest", "least"])),),
        lambda d: equilibria.extremal_equilibrium(_G, d), ()),
    "index": ((_LABEL,), _P.index, ()),
    "sup": ((_LABELS,), _P.sup, ()),
    "inf": ((_LABELS,), _P.inf, ()),
    "is_sublattice": ((_LABELS,), lambda S: order.is_sublattice(_P, S), ()),
    "is_subcomplete": ((_LABELS,), lambda S: order.is_subcomplete(_P, S), ()),
    "induced_poset": ((_LABELS,), lambda S: order.induced_poset(_P, S), ()),
    "Correspondence": (
        (_LABELS, _LABELS),
        lambda a, b: order.Correspondence(order.chain(["t", "u"]), _P, {"t": a, "u": b}), ()),
    "chain": ((_CARRIER,), order.chain, (0,)),
    "build_poset": ((_CARRIER, _PAIRS), order.build_poset, (0,)),
    "product_poset": (
        (_CARRIER, _CARRIER), _pair_of(lambda cs: order.product_poset(map(order.chain, cs))),
        (0, 1)),
    "product_topology": (
        (_CARRIER, _CARRIER),
        _pair_of(lambda cs: topology.product_topology(
            [topology.generate_topology(c, []) for c in cs])), (0, 1)),
    "generate_topology": ((_CARRIER, _POINT_SETS), topology.generate_topology, (0,)),
    "mask_of": ((_mix(st.lists(st.sampled_from(_P.elements))),), _T.mask_of, ()),
    "restrict": (
        (_mix(st.lists(st.sampled_from(_P.elements))),), lambda S: topology.restrict(_T, S), ()),
    "RandomGameSpec": (
        (_RANGE, _RANGE, _mix(st.sampled_from(["product", "sublattice", "mixed"]))),
        lambda n, length, f: games.RandomGameSpec(players=n, chain_length=length,
                                                  feasibility=f), ()),
    "CofiniteSet.finite": ((_mix(st.lists(_NAMES, max_size=2)),), omega.CofiniteSet.finite, ()),
    "refute_statement": ((_mix(st.sampled_from([1, 2])),), omega.refute_statement, ()),
    "finite_truncation": ((_mix(st.integers(0, 3)),), omega.finite_truncation, ()),
}


def _iterable(value):
    try:
        iter(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", list(CONVERSIONS))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_conversions_return_or_refuse_in_one_short_line(name, data):
    strategies, call, carriers = CONVERSIONS[name]
    args = [data.draw(s) for s in strategies]
    try:
        call(*args)
    except LatnashError as e:
        message = str(e)
        assert len(message) <= 200 and "\n" not in message, message
    except TypeError:
        # the one exemption: a carrier that is not iterable is not listed,
        # and raises Python's TypeError, as chain(5) does
        assert not all(_iterable(args[c]) for c in carriers)


def test_a_carrier_that_is_not_iterable_still_raises_type_error():
    with pytest.raises(TypeError):
        order.chain(5)
