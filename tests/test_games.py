import gc
import json
import random
import sys
import weakref
from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latnash import _kernels, cli, equilibria, gallery, games, order
from latnash.errors import (
    CycleDetected,
    DuplicateProfile,
    EmptyPlayerSet,
    InfeasibleProfile,
    LatnashError,
    MissingPayoff,
    NonSurjectiveProjection,
    NotALattice,
    ParseError,
    ProductTooLarge,
    SpecOutOfRange,
    UnknownElement,
)
from latnash.order import (
    DEFAULT_PRODUCT_CAP,
    PASS,
    build_poset,
    chain,
    induced_poset,
    is_increasing_correspondence,
    is_sublattice,
    product_poset,
)
from oracles import (
    best_response_oracle,
    equilibria_oracle,
    extremum_oracle,
    feasible_box_oracle,
    game_tables_oracle,
    group_response_oracle,
    increasing_differences_scan,
    increasing_scan_oracle,
    inf_oracle,
    iteration_oracle,
    joint_response_oracle,
    order_rows_oracle,
    pair_scan_oracle,
    random_game_oracle,
    reachability_closure,
    response_values_scan,
    section_oracle,
    stable_set_oracle,
    sublattice_verdict_oracle,
    sup_oracle,
    supermodular_on_comparable_rests_oracle,
    supermodular_sections_scan,
    trace_rows_oracle,
    transpose_oracle,
)


def chain2():
    return {"elements": ["0", "1"], "order": [["0", "1"]]}


def doc(**overrides):
    base = {
        "players": ["p1", "p2"],
        "strategies": {"p1": chain2(), "p2": chain2()},
        "feasible": "product",
        "payoffs": {"p1": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"},
                    "p2": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"}},
    }
    base.update(overrides)
    return json.dumps(base)


def coordination():
    return games.load_game(doc(name="coordination"))


def diag2():
    return games.load_game(doc(
        name="diag2",
        feasible=[["0", "0"], ["1", "1"]],
        payoffs={"p1": {"0|0": "0", "1|1": "1"},
                 "p2": {"0|0": "0", "1|1": "1"}}))


# --------------------------------------------------------------------------
# rationals


def test_parse_rational_exact():
    assert games.parse_rational("1/3") == Fraction(1, 3)
    assert games.parse_rational("-2/4") == Fraction(-1, 2)
    assert games.parse_rational("0.1") == Fraction(1, 10)  # exact, not float
    assert games.parse_rational(7) == Fraction(7)
    assert games.parse_rational("-3.25") == Fraction(-13, 4)


def test_parse_rational_rejects_floats_and_junk():
    with pytest.raises(ParseError):
        games.parse_rational(0.1)
    with pytest.raises(ParseError):
        games.parse_rational("1/0")
    with pytest.raises(ParseError):
        games.parse_rational("abc")
    with pytest.raises(ParseError):
        games.parse_rational(True)
    # more digits than int() converts
    for text in ("1" * 5000, "1/" + "1" * 5000, "0." + "1" * 5000):
        with pytest.raises(ParseError):
            games.parse_rational(text)
    # a trailing line break, digits other than ASCII 0-9, and signs that
    # are not one sign before the digits
    for text in ("1\n", "0.5\n", "1/2\n", "\u0663.\u0665", "\u0663", "+-5", "--5", "+",
                 "-", "", "5-"):
        with pytest.raises(ParseError):
            games.parse_rational(text)


def test_integer_payoff_strings_load_as_parse_rational_reads_them():
    # an integer string loads as an int, and a game scales ints and
    # Fractions alike, in a table mixing them and in one of integers alone;
    # past int()'s 4,300 digits it is refused, naming its entry
    for texts, scale in (({"0|0": "+5", "0|1": "-0", "1|0": "007", "1|1": "1/2"}, 2),
                         ({"0|0": "0.25", "0|1": "-0", "1|0": "+5", "1|1": "007"}, 4),
                         ({"0|0": "+5", "0|1": "-0", "1|0": "007", "1|1": "-12"}, 1)):
        g = games.load_game(doc(payoffs={"p1": texts, "p2": texts}))
        for key, text in texts.items():
            assert g.payoff("p1", tuple(key.split("|"))) == games.parse_rational(text)
        assert g._scale == scale and all(type(v) is int for sec in g._sections[0] for v in sec[2])
    limit = sys.get_int_max_str_digits()
    for big in ("1" * (limit + 1), "-" + "1" * (limit + 1)):
        texts = {"0|0": "1", "0|1": big, "1|0": "0", "1|1": "1"}
        with pytest.raises(ParseError) as e:
            games.load_game(doc(payoffs={"p1": texts, "p2": texts}))
        assert str(e.value) == (f"<game>: payoff of player 'p1' at '0|1': number with "
                                f"more than {limit} digits")


def test_payoff_strings_are_parsed_once_per_process(monkeypatch):
    # the loader's store parses each distinct short payoff string once, so
    # a second document holding the same strings parses none of them
    games._stored_number.cache_clear()
    parsed = []
    number = games._number
    monkeypatch.setattr(games, "_number", lambda value: parsed.append(value) or number(value))
    text = gallery.fixture_text("random-seeded")
    first = games.load_game(text)
    strings = [v for table in json.loads(text)["payoffs"].values() for v in table.values()]
    assert all(isinstance(v, str) for v in strings)
    assert sorted(parsed) == sorted(set(strings))
    parsed.clear()
    assert games.load_game(text) == first and parsed == []


def test_a_refused_payoff_string_is_refused_on_every_load():
    # a refusal is not stored: the string is refused on each load, in the
    # same words, naming the table's first bad entry in document order
    games._stored_number.cache_clear()
    texts = {"0|0": "1", "0|1": "1/0", "1|0": "2", "1|1": "+-3"}
    refusals = []
    for _ in range(2):
        with pytest.raises(ParseError) as e:
            games.load_game(doc(payoffs={"p1": texts, "p2": texts}))
        refusals.append(str(e.value))
    assert refusals == ["<game>: payoff of player 'p1' at '0|1': not a rational "
                        "value: '1/0'"] * 2
    # only "1", read before the refusal, is kept
    assert games._stored_number.cache_info().currsize == 1


def test_a_long_payoff_string_is_read_under_each_loads_digit_limit():
    # a long string is never stored, so a digit limit lowered after one
    # load, down to 640, the least Python accepts, refuses it on the next
    # load, as a first load under that limit would
    big = "7" * 700
    texts = {"0|0": big, "0|1": "0", "1|0": "0", "1|1": "1"}
    text = doc(payoffs={"p1": texts, "p2": texts})
    limit = sys.get_int_max_str_digits()
    value = int(big)
    assert games.load_game(text).payoff("p1", ("0", "0")) == value
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError) as e:
            games.load_game(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(e.value) == ("<game>: payoff of player 'p1' at '0|0': number with more "
                            "than 640 digits")
    assert games.load_game(text).payoff("p2", ("0", "0")) == value


def test_the_payoff_string_store_is_bounded():
    # 2 x 4,225 distinct strings leave the store at its bound, and each
    # payoff is still the one its string names
    store = games._stored_number
    store.cache_clear()
    elements = [str(j) for j in range(65)]
    lattice = {"elements": elements, "order": [[a, b] for a, b in zip(elements, elements[1:])]}
    keys = [f"{a}|{b}" for a in elements for b in elements]
    g = games.load_game(doc(strategies={"p1": lattice, "p2": lattice}, payoffs={
        "p1": {key: str(k) for k, key in enumerate(keys)},
        "p2": {key: f"-{k}/7" for k, key in enumerate(keys)}}))
    info = store.cache_info()
    assert info.currsize == info.maxsize == 4096 and info.misses == 2 * len(keys)
    for k in (0, 1, 4095, 4224):
        x = tuple(keys[k].split("|"))
        assert (g.payoff("p1", x), g.payoff("p2", x)) == (k, Fraction(-k, 7))


@pytest.mark.parametrize("texts, key, shown", [
    ({"0|0": "1", "0|1": "x", "1|0": "2", "1|1": "3"}, "0|1", "'x'"),
    ({"0|0": "1", "0|1": "2", "1|0": "1/0", "1|1": "+-3"}, "1|0", "'1/0'"),
    ({"0|0": "1", "0|1": "2", "1|0": "3", "1|1": "+"}, "1|1", "'+'"),
    ({"0|0": "1", "0|1": " 2", "1|0": "3", "1|1": "4"}, "0|1", "' 2'"),
    ({"0|0": "1_0", "0|1": "2", "1|0": "3", "1|1": "4"}, "0|0", "'1_0'"),
], ids=["letter", "zero-denominator", "lone-sign", "space", "underscore"])
def test_the_first_bad_payoff_in_document_order_is_named(texts, key, shown):
    # one bad value among integers, or two; int() would take " 2" and "1_0"
    with pytest.raises(ParseError) as e:
        games.load_game(doc(payoffs={"p1": texts, "p2": texts}))
    assert str(e.value) == (f"<game>: payoff of player 'p1' at {key!r}: not a rational "
                            f"value: {shown}")


@pytest.mark.parametrize("feasible, payoffs, message", [
    ([["0", "0"], ["1", "1"]],
     {"p1": {"0|0": "1", "0|2": "1", "1|1": "0"}, "p2": {"0|0": "1"}},
     "payoff given for infeasible profile ('0', '2') (player 'p1')"),
    ([["0", "0"], ["1", "1"]],
     {"p1": {"0|0": "1"}, "p2": {"0|0": "1", "9|9": "1", "1|1": "0"}},
     "player 'p1' has no payoff for profile ('1', '1')"),
    ([["1", "1"], ["0", "0"]],
     {"p1": {"1|1": "1", "0|1|": "1"}, "p2": {"1|1": "1", "0|0": "0"}},
     "payoff given for infeasible profile ('0', '1', '') (player 'p1')"),
    ([["1", "1"], ["0", "0"]],
     {"p1": {"1|1": "1"}, "p2": {"0": "1", "1|1": "1", "0|0": "0"}},
     "player 'p1' has no payoff for profile ('0', '0')"),
    ([["0", "0"], ["0", "1"]],
     {"p1": {"0|0": "1", "1|1": "1", "0|1": "0"}, "p2": {"0|0": "1"}},
     "strategy '1' of player 'p1' appears in no feasible profile"),
], ids=["stray-then-missing", "missing-then-stray", "stray-unordered",
        "missing-first-canonical", "stray-and-unplayed-strategy"])
def test_a_key_of_no_listed_profile_is_refused_after_the_checks_of_s(feasible, payoffs,
                                                                    message):
    # the checks of S come first, then each player's table in player order:
    # a key naming no profile listed, then a missing payoff, reported at the
    # first position of S in canonical order
    with pytest.raises(LatnashError) as e:
        games.load_game(doc(feasible=feasible, payoffs=payoffs))
    assert str(e.value) == f"<game>: {message}"


def test_distinct_rationals_never_compare_equal():
    a = games.parse_rational("1/3")
    b = games.parse_rational("0.3333333333333333")
    assert a != b


# --------------------------------------------------------------------------
# loading


def test_minimal_one_player_game():
    g = games.load_game(json.dumps({
        "players": ["solo"],
        "strategies": {"solo": {"elements": ["s"], "order": []}},
        "feasible": "product",
        "payoffs": {"solo": {"s": "0"}},
    }))
    assert g.feasible == (("s",),)


def test_non_surjective_projection_rejected():
    with pytest.raises(NonSurjectiveProjection):
        games.load_game(doc(
            feasible=[["0", "0"], ["0", "1"]],
            payoffs={"p1": {"0|0": "0", "0|1": "0"},
                     "p2": {"0|0": "0", "0|1": "0"}}))


def test_coordination_loads_with_four_profiles():
    g = coordination()
    assert len(g.feasible) == 4
    assert g.payoff("p1", ("1", "1")) == 1


def test_parse_errors():
    with pytest.raises(ParseError):
        games.load_game("{not json")
    with pytest.raises(ParseError):
        games.load_game(json.dumps({"players": ["a"]}))
    with pytest.raises(ParseError):
        games.load_game(doc(extra_key=1))
    with pytest.raises(ParseError):
        games.load_game(doc(feasible=42))


def _with_entries(**extra):
    """The coordination document with extra entries under given keys."""
    d = json.loads(doc())
    for key, entries in extra.items():
        d[key].update(entries)
    return json.dumps(d)


@pytest.mark.parametrize("text, match", [
    (_with_entries(payoffs={"p3": {"0|0": "1"}},
                   strategies={"p9": {"elements": "junk", "order": 7}}),
     r"'strategies' has entries for unknown players \['p9'\]"),
    (_with_entries(payoffs={"p3": {"0|0": "1"}}),
     r"'payoffs' has entries for unknown players \['p3'\]"),
    (doc().replace('"0|0": "1"', '"0|0": "7", "0|0": "1"', 1), r"duplicate key '0\|0'"),
    ('{"name": "a", "name": "b", ' + doc()[1:], "duplicate key 'name'"),
    (doc().replace('"strategies": {', '"strategies": {"p1": {"elements": ["x"], "order": []}, '),
     "duplicate key 'p1'"),
    (doc().replace('"0|0": "1"', '"0|0": ' + "1" * 5000, 1), "4300"),
    (doc().replace('"p2"', '"p\\t2"'), r"player name 'p\\t2' contains a non-printable"),
    (doc(name="coordination\nnonempty: no"), "game name .* contains a non-printable"),
    (doc().replace('"p1"', '"p1, p2"'), r"player name 'p1, p2' contains ','"),
    # one payoff table, converted once: Game(...) refuses the repeat
    (doc(players=["p1", "p1"], strategies={"p1": chain2()},
         payoffs={"p1": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"}}),
     r"^<game>: duplicate player names$"),
], ids=["strategies-and-payoffs", "payoffs", "payoff-key", "top-level-key",
        "player-key", "long-integer", "player-name", "game-name", "player-comma",
        "player-twice"])
def test_document_faults_rejected(text, match):
    with pytest.raises(ParseError, match=match):
        games.load_game(text)


def test_ambiguous_labels_rejected():
    # product labels "(a,b,c)" of (a, "b,c") and ("a,b", c) collide
    with pytest.raises(ParseError, match="separator"):
        games.load_game(doc(
            name="ambiguous-labels",
            strategies={"p1": {"elements": ["a", "a,b"], "order": [["a", "a,b"]]},
                        "p2": {"elements": ["b,c", "c"], "order": [["b,c", "c"]]}},
            payoffs={p: {"a|b,c": "1", "a|c": "0", "a,b|b,c": "0", "a,b|c": "2"}
                     for p in ("p1", "p2")}))


SEPARATORS = (",", "|", '"', "\\")


# separators, and characters that do not print: a line break, a tab and
# U+2028 (a line separator)
@given(st.lists(st.lists(st.text(alphabet='ab,|"\\\n\t\u2028', min_size=1, max_size=3),
                         min_size=1, max_size=3, unique=True),
                min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_separator_in_name_rejected_else_round_trips(chains):
    players = [f"p{i + 1}" for i in range(len(chains))]
    strategies = {p: {"elements": c, "order": [[a, b] for a, b in zip(c, c[1:])]}
                  for p, c in zip(players, chains)}
    keys = ["|".join(prof) for prof in iter_product(*chains)]
    text = json.dumps({"players": players, "strategies": strategies,
                       "feasible": "product",
                       "payoffs": {p: {k: "0" for k in keys} for p in players}})
    if any(c in name or not name.isprintable()
           for chain in chains for name in chain for c in SEPARATORS):
        with pytest.raises(ParseError):
            games.load_game(text)
    else:
        g = games.load_game(text)
        assert games.load_game(games.serialize_game(g)) == g


@pytest.mark.parametrize("name, message", [
    ("a|b,c", "contains ',', a separator in profile labels, payoff keys or DOT output"),
    ('x"', """contains '"', a separator in profile labels, payoff keys or DOT output"""),
    ("a\\b", "contains '\\\\', a separator in profile labels, payoff keys or DOT output"),
    ("a\t|", "contains '|', a separator in profile labels, payoff keys or DOT output"),
    ("a\tb", "contains a non-printable character"),
    (1, "is not a string"),
])
def test_strategy_name_faults_keep_their_messages(name, message):
    # the first separator in the order ',', '|', '"', '\\' is named, and a
    # separator is named before a character that does not print
    with pytest.raises(ParseError) as e:
        games.Game(["p1"], {"p1": chain([name, "z"])}, [(name,), ("z",)],
                   {"p1": {(name,): 0, ("z",): 0}})
    assert str(e.value) == f"strategy name {name!r} of player 'p1' {message}"


def test_strategy_poset_must_be_lattice():
    bad = {"elements": ["a", "b"], "order": []}
    with pytest.raises(NotALattice):
        games.load_game(json.dumps({
            "players": ["p1"],
            "strategies": {"p1": bad},
            "feasible": [["a"], ["b"]],
            "payoffs": {"p1": {"a": "0", "b": "0"}},
        }))


def test_duplicate_profile_rejected():
    with pytest.raises(DuplicateProfile):
        games.load_game(doc(
            feasible=[["0", "0"], ["0", "0"], ["1", "1"]],
            payoffs={"p1": {"0|0": "0", "1|1": "0"},
                     "p2": {"0|0": "0", "1|1": "0"}}))


def test_missing_payoff_rejected():
    with pytest.raises(MissingPayoff, match=r"player 'p2' has no payoff for profile \('1', '1'\)"):
        games.load_game(doc(
            payoffs={"p1": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"},
                     "p2": {"0|0": "1", "0|1": "0", "1|0": "0"}}))
    # a string key names no profile, not even the one of its characters
    with pytest.raises(ParseError, match=r"^payoff key '0' of player 'solo' is not a sequence "
                                         r"of names$"):
        games.Game(["solo"], {"solo": chain(["0", "1"])}, [("0",), ("1",)],
                   {"solo": {("0",): 1, "0": 2}})


@pytest.mark.parametrize("args, error, match", [
    (([], {}, [], {}), ParseError, "a game needs at least one player"),
    ((["p1"], {}, [("0",)], {}), ParseError, "no strategy lattice for player 'p1'"),
    ((["p1"], {"p1": chain(["0"])}, [("0",)], {}), MissingPayoff,
     "no payoffs for player 'p1'"),
], ids=["no-players", "no-lattice", "no-payoffs"])
def test_constructor_only_refusals(args, error, match):
    # load_game refuses each of these documents before it builds a game
    with pytest.raises(error, match=match):
        games.Game(*args)


def test_unknown_strategy_in_profile():
    with pytest.raises(UnknownElement):
        games.load_game(doc(feasible=[["0", "7"], ["0", "0"], ["1", "1"]]))


def test_float_payoff_rejected_at_boundary():
    with pytest.raises(ParseError):
        games.load_game(doc(
            payoffs={"p1": {"0|0": 0.5, "0|1": "0", "1|0": "0", "1|1": "1"},
                     "p2": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"}}))


def test_a_profile_object_listed_twice_is_refused():
    # as many profiles as the product has, or fewer, one of them twice
    solo = {"solo": chain(["0", "1", "2"])}
    p = ("0",)
    for feasible in ([p, ("1",), p], [p, p]):
        with pytest.raises(DuplicateProfile, match=r"^profile \('0',\) listed twice$"):
            games.Game(["solo"], solo, feasible, {"solo": {p: 0, ("1",): 0}})


def test_profiles_listed_as_lists_build_the_tables_of_tuples():
    # lists are not looked up as product profiles, so S is walked; a lone
    # player then has the empty rest in each section
    solo = {"solo": chain(["0", "1"])}
    pay = {"solo": {("0",): 1, ("1",): 2}}
    g, h = (games.Game(["solo"], solo, S, pay) for S in ([["0"], ["1"]], [("0",), ("1",)]))
    assert g == h and g._columns == h._columns and g.payoff("solo", ("0",)) == 1


def _payoff_value(rng, exact):
    """A payoff, often tied, as a Fraction or an int, or also as a string
    unless ``exact``."""
    v = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 4]))
    forms = [v] if exact else [v, str(v), str(float(v))]
    if v.denominator == 1:
        forms += [v.numerator] if exact else [v.numerator, f"{v.numerator:+d}",
                                              f"{v.numerator:03d}"]
    return rng.choice(forms)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_game_tables_match_their_definitions(data):
    # a product S is cut by its strides and a listed S by the walk; both
    # give the tables of the definitions, on chains, the diamond, N5 and M3,
    # with payoffs given as Fractions, ints and strings, or as Fractions and
    # ints alone, S and the payoff tables in any order, and the profiles of
    # S as tuples or as lists
    n = data.draw(st.integers(1, 3))
    orders = [data.draw(st.sampled_from(_LATTICES[:4] if n == 3 else _LATTICES))
              for _ in range(n)]
    lats = [build_poset(elements, pairs) for elements, pairs in orders]
    players = [f"p{i + 1}" for i in range(n)]
    product = list(iter_product(*(L.elements for L in lats)))
    listed = data.draw(st.lists(st.sampled_from(product), min_size=1, unique=True))
    for j, L in enumerate(lats):  # every strategy must occur in S
        listed += [next(x for x in product if x[j] == e) for e in L.elements
                   if not any(x[j] == e for x in listed)]
    listed = list(dict.fromkeys(listed))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    exact = data.draw(st.booleans())
    as_lists = data.draw(st.booleans())  # profiles handed over as lists
    for S in (data.draw(st.permutations(product)), listed):
        payoffs = [{x: _payoff_value(rng, exact) for x in S} for _ in players]
        given = [list(x) for x in S] if as_lists else S
        g = games.Game(players, dict(zip(players, lats)), given, dict(zip(players, payoffs)))
        assert (g.feasible, g._keys, g._masks, g._sections, g._columns, g._scale) == \
            game_tables_oracle([L.elements for L in lats], S, payoffs)


def test_sections_share_one_int_per_cylinder():
    # a section's mask and best mask are cylinders, built once per player
    # and own-strategy set: on a product S every section holds the one
    # full mask, and no two sections hold equal masks as two ints
    for spec in (games.RandomGameSpec(players=3, chain_length=4, feasibility="product"),
                 games.RandomGameSpec(players=3, chain_length=4, feasibility="sublattice")):
        g = games.random_supermodular_game(spec, 2)
        product = len(g.feasible) == g.product_size
        assert product == (spec.feasibility == "product")
        for sections in g._sections:
            masks = [sec[3] for sec in sections] + [sec[5] for sec in sections]
            assert len(set(map(id, masks))) == len(set(masks))
            if product:
                assert all(sec[3] is g._full for sec in sections)


def test_equal_responses_share_one_int():
    # a product S whose payoffs tie: positions with equal group responses
    # hold one int between them, after the report and the audit alike
    spec = games.RandomGameSpec(players=3, chain_length=4, feasibility="product",
                                linear_range=(0, 1), interaction_range=0)
    g = games.random_supermodular_game(spec, 3)
    equilibria.equilibrium_report(g)
    equilibria.tarski_zhou_check(g)
    masks = g._responses[(0, 1, 2)]
    assert len(set(masks)) < len(masks)
    assert len(set(map(id, masks))) == len(set(masks))


def test_a_printable_game_name_is_never_quoted(monkeypatch):
    # the refusal text that names a game is built only for a name it refuses
    quoted = []
    monkeypatch.setattr(games, "quote", lambda value: quoted.append(value) or "")
    g = games.Game(["p"], {"p": chain(["0", "1"])}, [("0",), ("1",)],
                   {"p": {("0",): 0, ("1",): 1}}, name="a game")
    assert g.name == "a game" and quoted == []
    with pytest.raises(ParseError, match="non-printable"):
        games.Game(["p"], {"p": chain(["0"])}, [("0",)], {"p": {("0",): 0}}, name="a\ngame")
    assert quoted == ["a\ngame"]


class _Text(str):
    """A document text that can be weakly referenced."""


def test_load_game_frees_the_text_before_building_the_game(monkeypatch):
    # no frame holds the text once Game(...) starts: the caller passes it
    # without keeping a name for it
    refs, alive = [], []

    def text():
        t = _Text(doc(name="coordination"))
        refs.append(weakref.ref(t))
        return t

    init = games.Game.__init__

    def build(self, *args, **kwargs):
        alive.append(refs[0]() is not None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(games.Game, "__init__", build)
    g = games.load_game(text(), source="doc")  # not in an assert, which keeps its operands
    assert alive == [False] and g == coordination()


class _Table(dict):
    """A decoded JSON object that can be weakly referenced."""


def test_load_game_frees_each_payoff_table_once_converted(monkeypatch):
    # while player 2's JSON numbers are converted, no one holds player 1's
    # decoded table, which is converted already
    loads, refs, alive = json.loads, {}, []

    def decode(text, object_pairs_hook):
        d = loads(text, object_pairs_hook=lambda pairs: _Table(object_pairs_hook(pairs)))
        refs.update((p, weakref.ref(table)) for p, table in d["payoffs"].items())
        return d

    number = games._number

    def convert(value):
        if not isinstance(value, str):
            alive.append(refs["p1"]() is not None)
        return number(value)

    monkeypatch.setattr(games.json, "loads", decode)
    monkeypatch.setattr(games, "_number", convert)
    text = doc(name="coordination", payoffs={
        "p1": {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"},
        "p2": {"0|0": 1, "0|1": 0, "1|0": 0, "1|1": 1}})
    g = games.load_game(text, source="doc")
    assert alive == [False] * 4 and g == coordination()


def _one_player_document(strategies, payoffs=None):
    """A one-player game document on the given strategy entry, paying 0 at
    every strategy unless payoffs are given."""
    if payoffs is None:
        payoffs = {e: "0" for e in strategies["elements"]}
    return json.dumps({"players": ["p"], "strategies": {"p": strategies},
                       "feasible": "product", "payoffs": {"p": payoffs}})


def test_equal_strategy_entries_share_one_lattice():
    # across documents and within one: a poset is immutable, and it keeps
    # its lattice verdict and its cover rows for every game it serves
    g, h = coordination(), diag2()
    assert g._lattices[0] is g._lattices[1] is h._lattices[0] is h._lattices[1]
    other = games.load_game(doc(strategies={"p1": chain2(), "p2": {
        "elements": ["0", "1", "2"], "order": [["0", "1"], ["1", "2"]]}},
        payoffs={p: {f"{a}|{b}": "0" for a in "01" for b in "012"} for p in ("p1", "p2")}))
    assert other._lattices[0] is g._lattices[0] and other._lattices[1] is not g._lattices[0]


@pytest.mark.parametrize("strategies, error, message", [
    ({"elements": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}, CycleDetected,
     "elements 'a' and 'b' are mutually comparable"),
    ({"elements": ["a", "b"], "order": [["a", "c"]]}, UnknownElement,
     "order pair references unknown element 'c'"),
    ({"elements": ["a", "b"], "order": ["ab"]}, ParseError,
     "strategies['p']['order'] must be an array of [lower, upper] pairs of strings"),
    ({"elements": ["a", "b"], "order": [["a", ["b"]]]}, ParseError,
     "strategies['p']['order'] must be an array of [lower, upper] pairs of strings"),
    ({"elements": "ab", "order": [["a", "b"]]}, ParseError,
     "strategies['p']['elements'] must be an array of strings"),
    ({"elements": [["a"], "b"], "order": []}, ParseError,
     "strategies['p']['elements'] must be an array of strings"),
], ids=["cycle", "unknown-element", "pair-of-a-string", "pair-holding-a-list",
        "elements-of-a-string", "element-of-a-list"])
def test_a_refused_strategy_entry_is_refused_on_every_load(strategies, error, message):
    # the chain a < b is loaded first: an entry whose pairs or elements,
    # read as tuples, would name it is still refused, as the document's
    # arrays are checked before they key the shared lattices
    games.load_game(_one_player_document({"elements": ["a", "b"], "order": [["a", "b"]]}))
    text = _one_player_document(strategies, {"a": "0", "b": "0"})
    for _ in range(2):
        with pytest.raises(error) as e:
            games.load_game(text)
        assert str(e.value) == f"<game>: {message}"


def test_the_shared_lattices_are_bounded():
    # more distinct entries than it keeps: the oldest are dropped
    cache = games._interned
    for size in range(1, games._INTERNED_LATTICES + 3):
        names = [str(i) for i in range(size)]
        games.load_game(_one_player_document(
            {"elements": names, "order": [[a, b] for a, b in zip(names, names[1:])]}))
    assert cache.cache_info().maxsize == games._INTERNED_LATTICES
    assert cache.cache_info().currsize == games._INTERNED_LATTICES


def test_a_lattice_given_to_game_is_not_shared():
    # only the loader shares lattices: a caller's poset is taken as it is
    # and never enters the loader's store
    before = games._interned.cache_info()
    lat = chain(["0", "1"])
    g = games.Game(["p1", "p2"], {"p1": lat, "p2": lat}, [(a, b) for a in "01" for b in "01"],
                   {p: {(a, b): 0 for a in "01" for b in "01"} for p in ("p1", "p2")})
    assert g._lattices[0] is lat and games._interned.cache_info() == before
    assert coordination()._lattices[0] is not lat


# --------------------------------------------------------------------------
# sections / boxes


def test_product_form_sections_are_full():
    g = coordination()
    for x in g.feasible:
        for p in g.players:
            assert games.section(g, p, x) == ("0", "1")
        assert games.feasible_box(g, x) == g.feasible


def test_section_contains_own_coordinate():
    for g in (coordination(), diag2()):
        for x in g.feasible:
            for i, p in enumerate(g.players):
                assert x[i] in games.section(g, p, x)
                assert x in games.feasible_box(g, x)


def test_diag2_sections_are_singletons():
    g = diag2()
    assert games.section(g, "p2", ("0", "0")) == ("0",)
    assert games.feasible_box(g, ("0", "0")) == ((("0", "0")),)


def test_section_rejects_infeasible_profile():
    g = diag2()
    with pytest.raises(InfeasibleProfile):
        games.section(g, "p1", ("0", "1"))
    with pytest.raises(InfeasibleProfile):
        games.feasible_box(g, ("0", "1"))


def test_payoff_rejects_unknown_player_and_infeasible_profile():
    g = diag2()
    assert g.payoff("p1", ["0", "0"]) == g.payoffs["p1"][("0", "0")]
    with pytest.raises(UnknownElement, match="unknown player 'p3'"):
        g.payoff("p3", ("0", "0"))
    with pytest.raises(InfeasibleProfile, match=r"profile \('0', '1'\) is not feasible"):
        g.payoff("p1", ("0", "1"))


def test_profile_order_rejects_unknown_strategies():
    # each operand is converted as a feasible profile is, whole, before
    # any coordinate is compared: zip no longer cuts the longer one short
    g = coordination()
    for op in (g.profile_leq, g.profile_join, g.profile_meet):
        with pytest.raises(UnknownElement,
                           match=r"profile \('0', '7'\) uses unknown strategy '7' for player 'p2'"):
            op(("0", "7"), ("1", "1"))
        with pytest.raises(UnknownElement, match="unknown strategy '7'"):
            op(("1", "0"), ("0", "7"))
        for a, b in ((("0",), ("1", "1")), (("1", "1"), ("0", "1", "1"))):
            with pytest.raises(ParseError, match="has wrong arity"):
                op(a, b)


def test_load_caps_an_explicit_feasible_list():
    # two 3-chains: 9 profiles in the product, 3 of them listed
    chain3 = {"elements": ["0", "1", "2"], "order": [["0", "1"], ["1", "2"]]}
    text = doc(strategies={"p1": chain3, "p2": chain3},
               feasible=[[s, s] for s in "012"],
               payoffs={p: {f"{s}|{s}": "0" for s in "012"} for p in ("p1", "p2")})
    assert len(games.load_game(text, product_cap=9).feasible) == 3
    with pytest.raises(ProductTooLarge, match="product has 9 elements, cap is 8"):
        games.load_game(text, product_cap=8)


def test_validation_accepts_a_sparse_s_in_a_product_above_the_cap():
    # 1,001 x 1,000 strategies, 1,001 profiles: the sublattice verdict is
    # read off S alone, so a product above the default cap is no obstacle
    wide, tall = chain([str(v) for v in range(1001)]), chain([str(v) for v in range(1000)])
    S = [(str(v), str(min(v, 999))) for v in range(1001)]
    g = games.Game(["p1", "p2"], {"p1": wide, "p2": tall}, S,
                   {p: {x: Fraction(0) for x in S} for p in ("p1", "p2")})
    assert g.product_size > DEFAULT_PRODUCT_CAP
    assert games.validate_supermodular(g).ok


# Strategy lattices as (elements, generating pairs): chains, and lattices
# with incomparable pairs, some listed in an element order that is not a
# linear extension, so that index order and order rank differ.
_LATTICES = [
    (["0"], []),
    (["0", "1"], [("0", "1")]),
    (["0", "1", "2"], [("0", "1"), ("1", "2")]),
    (["t", "l", "b", "r"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]),
    (["1", "a", "0", "c", "b"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
    (["0", "x", "y", "z", "1"], [("0", "x"), ("0", "y"), ("0", "z"),
                                ("x", "1"), ("y", "1"), ("z", "1")]),
]


def _height(elements, pairs):
    """Number of elements below or equal: an isotone supermodular function
    on any finite lattice."""
    succ = reachability_closure(elements, pairs)
    return {e: sum(e in succ[d] for d in elements) for e in elements}


@st.composite
def order_games(draw, shapes=("product", "sublattice", "subset")):
    """(game, strategy orders as (elements, pairs) per player) with S the
    full product, a sublattice grown by componentwise joins and meets, or
    an arbitrary subset (seldom a sublattice), one of ``shapes``, and
    payoffs either random with many ties or a nonnegative polynomial in
    the strategies' heights (supermodular with increasing differences)."""
    n = draw(st.integers(1, 3))
    orders = [draw(st.sampled_from(_LATTICES[:4] if n == 3 else _LATTICES))
              for _ in range(n)]
    lats = [build_poset(elements, pairs) for elements, pairs in orders]
    players = [f"p{i + 1}" for i in range(n)]
    product = list(iter_product(*(L.elements for L in lats)))
    shape = draw(st.sampled_from(shapes))
    if shape == "product":
        S = product
    else:
        S = set(draw(st.lists(st.sampled_from(product), min_size=1, max_size=6)))
        while shape == "sublattice":
            grown = {tuple(op(a[j], b[j]) for j, op in
                           enumerate(L.join if up else L.meet for L in lats))
                     for a in S for b in S for up in (True, False)}
            if grown <= S:
                break
            S |= grown
        # every strategy must occur in some feasible profile
        for j, L in enumerate(lats):
            for e in L.elements:
                if not any(x[j] == e for x in S):
                    S.add(draw(st.sampled_from([x for x in product if x[j] == e])))
        S = sorted(S)
    if draw(st.booleans()):
        values = st.integers(-2, 2)
        payoffs = {p: {x: Fraction(draw(values)) for x in S} for p in players}
    else:
        h = [_height(*o) for o in orders]
        payoffs = {}
        for p in players:
            a = [draw(st.integers(0, 2)) for _ in range(n)]
            b = [[draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
            payoffs[p] = {x: Fraction(sum(a[j] * h[j][x[j]] for j in range(n))
                                      + sum(b[j][k] * h[j][x[j]] * h[k][x[k]]
                                            for j in range(n) for k in range(j + 1, n)))
                          for x in S}
    g = games.Game(players, dict(zip(players, lats)), S, payoffs, name=f"{shape}-game")
    return g, orders


@given(order_games(), st.data())
@settings(max_examples=120, deadline=None)
def test_indexed_primitives_match_label_oracles(game, data):
    g, orders = game
    carriers = [elements for elements, _ in orders]
    succ = [reachability_closure(*o) for o in orders]
    leqs = [lambda a, b, s=s: b in s[a] for s in succ]
    canon = lambda profs: tuple(sorted(
        profs, key=lambda y: [c.index(s) for c, s in zip(carriers, y)]))
    feasible = set(g.feasible)
    payoffs = [g.payoffs[p] for p in g.players]
    assert g.feasible == canon(feasible)
    for x in g.feasible:
        assert games.feasible_box(g, x) == canon(feasible_box_oracle(feasible, carriers, x))
        assert games.joint_response(g, x) == \
            canon(joint_response_oracle(feasible, carriers, payoffs, x))
        # sections and responses, as ordered tuples: strategies in carrier
        # order, profiles in canonical order
        for i, p in enumerate(g.players):
            assert games.section(g, p, x) == tuple(section_oracle(feasible, carriers, i, x))
            assert games.best_response(g, p, x) == tuple(sorted(
                best_response_oracle(feasible, carriers, payoffs, i, x),
                key=carriers[i].index))
        members = data.draw(st.sets(st.integers(0, len(g.players) - 1), min_size=1))
        assert games.partial_response(g, [g.players[j] for j in sorted(members)], x) == \
            canon(group_response_oracle(feasible, carriers, payoffs, members, x))
    for i, p in enumerate(g.players):
        assert equilibria.stable_set(g, p) == \
            canon(stable_set_oracle(feasible, carriers, payoffs, i))
    product = list(iter_product(*carriers))
    for _ in range(20):
        a, b = data.draw(st.sampled_from(product)), data.draw(st.sampled_from(product))
        assert g.profile_leq(a, b) == all(leq(u, v) for leq, u, v in zip(leqs, a, b))
        assert g.profile_join(a, b) == tuple(
            sup_oracle(leq, c, [u, v]) for leq, c, u, v in zip(leqs, carriers, a, b))
        assert g.profile_meet(a, b) == tuple(
            inf_oracle(leq, c, [u, v]) for leq, c, u, v in zip(leqs, carriers, a, b))
    labels = [g.profile_label(x) for x in g.feasible]
    S = g.feasible_poset()
    assert S == induced_poset(product_poset([g.lattices[p] for p in g.players]), labels)
    assert S.elements == tuple(labels)
    for x, ex in zip(g.feasible, labels):
        for y, ey in zip(g.feasible, labels):
            assert S.leq(ex, ey) == all(leq(u, v) for leq, u, v in zip(leqs, x, y))


@given(order_games())
@settings(max_examples=120, deadline=None)
def test_separable_argmax_matches_the_box_scan(game):
    # on the box each member's payoff is at most their section's top, so
    # where the box meets the members' best masks that AND is the argmax;
    # on non-product S, with ties, it agrees with the scan of the box at
    # every position and for every player set
    g, _ = game
    assume(len(g.feasible) < g.product_size)
    n = len(g.players)
    for k in range(len(g.feasible)):
        box = games._box_mask(g, k)
        for idx in (c for r in range(1, n + 1) for c in combinations(range(n), r)):
            assert games._argmax_mask(g, idx, k) == games._scanned_argmax(g, idx, k, box)


@given(order_games(), st.data())
@settings(max_examples=120, deadline=None)
def test_feasible_order_rows_and_extrema(game, data):
    # S's down-rows come from the strategy lattices' down-rows, not from a
    # transpose; extrema of subsets of S, which often have none, and of S
    # itself match a scan over profile_leq
    g, _ = game
    S = g.feasible_poset()
    assert S._down == transpose_oracle(S._up, len(S))
    subsets = [list(g.feasible), []]
    subsets += [data.draw(st.lists(st.sampled_from(g.feasible), unique=True))
                for _ in range(8)]
    for ys in subsets:
        mask = sum(1 << g.feasible.index(y) for y in ys)
        for direction in ("greatest", "least"):
            assert equilibria._extremum_of(g, mask, direction) == \
                extremum_oracle(g.profile_leq, ys, direction)


@given(order_games())
@settings(max_examples=150, deadline=None)
def test_order_rows_match_the_union_over_every_row_bit(game):
    # the cylinders ORed over the lattices' rows, ANDed over the players,
    # give the up- and down-rows of the componentwise order, for lattices
    # listed in any element order
    g, _ = game
    for rows in ([lat._up for lat in g._lattices], [lat._down for lat in g._lattices]):
        assert games._order_rows(g._keys, rows, g._masks) == \
            order_rows_oracle(g._keys, rows, g._masks)


def test_order_rows_of_a_chain_walk_no_row_bit_by_bit(monkeypatch):
    # on a chain every rest of a row is the next row, so building S's up-
    # and down-rows walks no lattice row's bits; ORing every row bit by bit
    # would walk each of the 20,100 pairs i <= j once per direction
    # the store is cleared first, so that S's rows are built here
    games._product_space.cache_clear()
    names = [str(i) for i in range(200)]
    g = _solo(names)
    walked = []
    indices = _kernels.indices

    def counted(m):
        out = indices(m)
        walked.append(len(out))
        return out

    monkeypatch.setattr(_kernels, "indices", counted)
    S = g.feasible_poset()
    monkeypatch.undo()
    assert sum(walked) == 0
    assert S._up == order.chain(names)._up and S._down == order.chain(names)._down


def test_a_lone_player_has_its_whole_lattice_and_one_empty_rest():
    # S projects onto every strategy, so a lone player's S is its lattice
    # and a gap in it is refused; the player's rests are the one empty
    # tuple, above and below itself, and a payoff that is not supermodular
    # fails on the sections only
    with pytest.raises(NonSurjectiveProjection, match="^strategy '1' of player 'solo'"):
        games.Game(["solo"], {"solo": order.chain(["0", "1", "2"])}, [("0",), ("2",)],
                   {"solo": {("0",): 1, ("2",): 3}})
    assert games._order_rows([()], [], []) == order_rows_oracle([()], [], []) == [1]
    g = games.load_game(json.dumps({
        "players": ["solo"], "strategies": {"solo": _DIAMOND}, "feasible": "product",
        "payoffs": {"solo": {"t": "0", "l": "1", "b": "0", "r": "1"}}}))
    validation = games.validate_supermodular(g)
    assert not validation.sections["solo"].ok
    assert validation.increasing_differences["solo"].ok


_DIAMOND = {"elements": ["t", "l", "b", "r"],
            "order": [["l", "t"], ["b", "l"], ["b", "r"], ["r", "t"]]}

# Games that passed validation before it tried incomparable own strategies
# at comparable rests, each with an E that is not a complete lattice: the
# property below found them at --hypothesis-seed 2, 21 and 48, where the
# iteration reached a least equilibrium that does not exist.
_FORMER_FLAKES = [
    {"players": ["p1", "p2", "p3"],
     "strategies": {"p1": {"elements": ["0"], "order": []},
                    "p2": {"elements": ["0", "1", "2"], "order": [["0", "1"], ["1", "2"]]},
                    "p3": _DIAMOND},
     "feasible": [["0", "0", "l"], ["0", "0", "b"], ["0", "1", "t"], ["0", "1", "r"],
                  ["0", "2", "t"], ["0", "2", "r"]],
     "payoffs": {p: {"0|0|l": "1" if p == "p3" else "0", "0|0|b": "0", "0|1|t": "0",
                     "0|1|r": "0", "0|2|t": "0", "0|2|r": "0"} for p in ("p1", "p2", "p3")}},
    {"players": ["p1", "p2"],
     "strategies": {"p1": _DIAMOND, "p2": _DIAMOND},
     "feasible": [["t", "t"], ["t", "l"], ["l", "l"], ["b", "b"], ["r", "b"], ["r", "r"]],
     "payoffs": {p: {"t|t": "0", "t|l": "0", "l|l": "0", "b|b": "0",
                     "r|b": "1" if p == "p1" else "0", "r|r": "0"} for p in ("p1", "p2")}},
    {"players": ["p1", "p2"],
     "strategies": {"p1": {"elements": ["1", "a", "0", "c", "b"],
                           "order": [["a", "b"], ["0", "a"], ["0", "c"], ["c", "1"], ["b", "1"]]},
                    "p2": chain2()},
     "feasible": [["1", "1"], ["a", "1"], ["0", "0"], ["c", "0"], ["b", "1"]],
     "payoffs": {p: {"1|1": "0", "a|1": "0", "0|0": "0", "c|0": "1" if p == "p1" else "0",
                     "b|1": "0"} for p in ("p1", "p2")}},
]


@given(order_games())
@settings(max_examples=150, deadline=None)
@example((games.load_game(json.dumps(_FORMER_FLAKES[0])), None))
@example((games.load_game(json.dumps(_FORMER_FLAKES[1])), None))
@example((games.load_game(json.dumps(_FORMER_FLAKES[2])), None))
def test_audit_and_iteration_on_masks_match_label_paths(game):
    # the audit's "increasing" hypothesis, run on response masks, against
    # the label correspondence; the iteration, run on positions, against
    # a fold of partial_response values
    g, _ = game
    validation = games.validate_supermodular(g)
    if validation.sublattice:
        audit = equilibria.tarski_zhou_check(g)
        assert audit.hypotheses["the joint best-response correspondence is increasing"] == \
            is_increasing_correspondence(equilibria.group_response_correspondence(g))
    if validation.ok:
        for direction in ("greatest", "least"):
            _, trace = equilibria.extremal_equilibrium(g, direction)
            assert trace == iteration_oracle(g, direction)


_INCREASING = "the joint best-response correspondence is increasing"
_VALUES = "every response value is a nonempty sublattice with max and min"


@given(order_games())
@settings(max_examples=150, deadline=None)
def test_audit_value_hypothesis_matches_full_loop(game):
    # the value hypothesis skips its loop after a pass of "increasing";
    # either way it must give the full loop's verdict and first witness
    g, _ = game
    assert equilibria.tarski_zhou_check(g).hypotheses[_VALUES] == response_values_scan(g)


def _square_game(u):
    square = build_poset(["00", "01", "10", "11"],
                         [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")])
    return games.Game(["solo"], {"solo": square}, [(e,) for e in square.elements],
                      {"solo": {(e,): Fraction(v) for e, v in u.items()}})


def test_audit_value_hypothesis_where_increasing_fails_or_s_is_no_sublattice():
    c3 = chain(["0", "1", "2"])
    hole = [x for x in iter_product(c3.elements, c3.elements) if x != ("1", "1")]
    cases = [
        # "increasing" fails, every value is a singleton
        (gallery.load_fixture("matching-pennies"), True, None),
        # "increasing" fails, and the value at the bottom, {01, 10}, has
        # its join outside
        (_square_game({"00": 0, "01": 1, "10": 1, "11": 0}), True,
         (("00",), "01", "10", "11", "join")),
        # S misses (1,1), the join of (0,1) and (1,0)
        (games.Game(["p1", "p2"], {"p1": c3, "p2": c3}, hole,
                    {p: {x: Fraction(0) for x in hole} for p in ("p1", "p2")}),
         False, None),
    ]
    for g, sublattice, witness in cases:
        hyps = equilibria.tarski_zhou_check(g).hypotheses
        assert games.validate_supermodular(g).sublattice.ok == sublattice
        assert not hyps[_INCREASING]
        assert hyps[_VALUES] == response_values_scan(g)
        assert hyps[_VALUES].witness == witness


@given(order_games())
@settings(max_examples=150, deadline=None)
def test_axiom_checks_match_reference_scans(game):
    g, _ = game
    for p in g.players:
        assert games.check_increasing_differences(g, p) == increasing_differences_scan(g, p)
        assert games.check_supermodular_sections(g, p) == supermodular_sections_scan(g, p)
    # on a sublattice S, sections and increasing differences together are
    # the supermodular inequality on every pair of S with comparable rests,
    # and a game that passes has a complete lattice of equilibria
    validation = games.validate_supermodular(g)
    if validation.sublattice:
        for p in g.players:
            assert bool(validation.sections[p] and validation.increasing_differences[p]) == \
                supermodular_on_comparable_rests_oracle(g, p)
    if validation.ok:
        equilibria.equilibrium_report(g)


@pytest.mark.parametrize("raised, witness", [
    # u(2, t=0) raised: the first failing pair has own strategies 0 < 2,
    # not a cover; the covering pair 1 < 2 fails later in the scan
    ({("2", "0"): 5}, ("p1", "0", "2", ("0",), ("1",))),
    # u(1, t) = 1, 1, 0: the first failing pair has rests 0 < 2, not a
    # cover; the covering pair of rests 1 < 2 fails later in the scan
    ({("1", "0"): 1, ("1", "1"): 1}, ("p1", "0", "1", ("0",), ("2",))),
])
def test_increasing_differences_on_product_names_first_comparable_pair(raised, witness):
    c3 = build_poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
    S = list(iter_product(c3.elements, c3.elements))
    u1 = {x: Fraction(raised.get(x, 0)) for x in S}
    g = games.Game(["p1", "p2"], {"p1": c3, "p2": c3}, S,
                   {"p1": u1, "p2": {x: Fraction(0) for x in S}})
    got = games.check_increasing_differences(g, "p1")
    assert got == increasing_differences_scan(g, "p1")
    assert got.witness == witness
    _, a, b, t, t2 = witness
    assert (a, b) not in c3.covers() or (t[0], t2[0]) not in c3.covers()


def _analysis(g):
    """The validation, report (text and DOT) and audit of g, rendered, or
    the type and message of the error each raised."""
    out = []
    for step in (lambda: games.validate_supermodular(g).render(),
                 lambda: equilibria.equilibrium_report(g).to_text(),
                 lambda: equilibria.equilibrium_report(g).to_dot(),
                 lambda: equilibria.tarski_zhou_check(g).render()):
        try:
            out.append(step())
        except LatnashError as e:
            out.append((type(e).__name__, str(e)))
    return out


def _same_scans_as_all_pairs(g):
    # the sublattice verdict of S against the label scan over the product
    # poset, and every rendered output against a fresh copy of the game run
    # on the all-pairs scans, which must certify each strategy lattice
    # itself, not read a verdict kept from an earlier check
    assert games.validate_supermodular(g).sublattice == sublattice_verdict_oracle(g)
    got = _analysis(games.Game(g.players, g.lattices, g.feasible, g.payoffs, name=g.name))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "pair_scan",
                   lambda *args: calls.append(args) or pair_scan_oracle(*args))
        mp.setattr(order, "_increasing_scan", increasing_scan_oracle)
        mp.setattr(order, "_trace_rows", trace_rows_oracle)
        want = _analysis(games.Game(g.players, g.lattices, g.feasible, g.payoffs,
                                    name=g.name))
    assert got == want
    for lat in g.lattices.values():
        full = (1 << len(lat)) - 1
        assert (lat._up, lat._down, full, full) in calls


@given(order_games())
@settings(max_examples=150, deadline=None)
def test_order_scans_match_the_all_pairs_scans(game):
    _same_scans_as_all_pairs(game[0])


def test_order_scans_match_the_all_pairs_scans_on_corpus(small_corpus):
    for g in small_corpus:
        _same_scans_as_all_pairs(g)


def test_validated_game_with_incomplete_equilibrium_set():
    # p3's payoff is not supermodular on S: at (0,0,l) and (0,1,r), join
    # plus meet pays -2 < 1, their sum.  Sections are chains and no
    # rectangle is feasible, so only the pairs with incomparable own
    # strategies at comparable rests see it.  E = {(0,0,l), (0,1,r)} has
    # no top, and the report says so without an InternalContradiction.
    diamond = build_poset(["t", "l", "b", "r"], [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])
    S = [("0", "0", "l"), ("0", "0", "b"), ("0", "1", "t"), ("0", "1", "r")]
    u3 = dict(zip(S, (-1, -2, 0, 2)))
    g = games.Game(["p1", "p2", "p3"],
                   {"p1": chain(["0"]), "p2": chain(["0", "1"]), "p3": diamond}, S,
                   {"p1": {x: Fraction(0) for x in S}, "p2": {x: Fraction(0) for x in S},
                    "p3": {x: Fraction(u3[x]) for x in S}})
    validation = games.validate_supermodular(g)
    assert validation.sublattice and all(validation.sections.values())
    assert validation.increasing_differences["p3"] == order.CheckResult(
        False, witness=("p3", "l", "r", ("0", "0"), ("0", "1")),
        note="incomparable own strategies at comparable rests")
    assert not validation.ok
    text = equilibria.equilibrium_report(g).to_text()
    assert "supermodular: no" in text
    assert "equilibria (2):\n  (0,0,l)\n  (0,1,r)\n" in text


def test_axiom_checks_match_reference_scans_on_corpus(small_corpus):
    for g in small_corpus:
        for p in g.players:
            assert games.check_increasing_differences(g, p) == increasing_differences_scan(g, p)
            assert games.check_supermodular_sections(g, p) == supermodular_sections_scan(g, p)


# --------------------------------------------------------------------------
# supermodularity checks


def _one_player_square(payoffs_by_name):
    square = build_poset(["00", "01", "10", "11"],
                         [("00", "01"), ("00", "10"),
                          ("01", "11"), ("10", "11")])
    return games.Game(
        ["solo"], {"solo": square},
        [(e,) for e in square.elements],
        {"solo": {(e,): games.parse_rational(v)
                  for e, v in payoffs_by_name.items()}},
        name="square")


def test_product_s_takes_the_product_posets_order():
    # a product S has the order of the product poset of the strategy
    # lattices, labels and row-major order included; one player's S has
    # the order of their strategy lattice
    product_games = [g for g in map(gallery.load_fixture, sorted(gallery.GAME_FIXTURES))
                     if len(g.feasible) == g.product_size]
    assert len(product_games) >= 4
    solo = _one_player_square({"00": "0", "01": "0", "10": "0", "11": "1"})
    for g in product_games + [solo]:
        S = g.feasible_poset()
        assert S == product_poset(g._lattices)
        assert S.elements == tuple(map(g.profile_label, g.feasible))


_RANDOM_LATTICES = st.integers(0, 2 ** 16).map(
    lambda seed: order.random_lattice(random.Random(seed), max_size=5))


@given(st.lists(st.one_of(st.sampled_from(_LATTICES).map(lambda o: build_poset(*o)),
                          _RANDOM_LATTICES), min_size=1, max_size=3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_a_product_s_is_ordered_as_the_product_poset(factors, data):
    # the order built from a product S's own strategy masks is the product
    # poset of its strategy lattices, in elements, up-rows and down-rows,
    # on chains, the diamond, N5, M3 and random lattices, each listed in
    # any element order
    lats = []
    for L in factors:
        elements = data.draw(st.permutations(L.elements))
        lats.append(build_poset(elements, list(L.covers())))
    players = [f"p{i + 1}" for i in range(len(lats))]
    S = list(iter_product(*(L.elements for L in lats)))
    g = games.Game(players, dict(zip(players, lats)), data.draw(st.permutations(S)),
                   {p: dict.fromkeys(S, 0) for p in players})
    P, got = product_poset(g._lattices), g.feasible_poset()
    assert (got.elements, got._up, got._down) == (P.elements, P._up, P._down)


def _renders(g):
    """Validation, report text and DOT, traces and audit of the game."""
    validation = games.validate_supermodular(g)
    report = equilibria.equilibrium_report(g, validation)
    return (validation.render(), report.to_text(), report.to_dot(), report.traces,
            equilibria.tarski_zhou_check(g).render())


@given(order_games(shapes=("product",)), st.data())
@settings(max_examples=100, deadline=None)
def test_a_shared_product_renders_as_one_laid_out_anew(game, data):
    # games over equal strategy lattices share one product space; each of
    # a game's renders is the same byte for byte whether an earlier game
    # laid its space out and built S's order and rest covers, or the game
    # lays it out anew, on products of chains, the diamond, N5 and M3; two
    # games with different payoffs hand out one S
    g, orders = game
    players = g.players

    def rebuilt(payoffs):
        return games.Game(players, {p: build_poset(*o) for p, o in zip(players, orders)},
                          list(g.feasible), payoffs, name=g.name)

    _renders(g)
    shared = rebuilt(g.payoffs)
    warm = _renders(shared)
    other = rebuilt({p: {x: data.draw(st.integers(-2, 2)) for x in g.feasible}
                     for p in players})
    assert shared._space is g._space is other._space
    assert other.feasible_poset() is g.feasible_poset()
    games._product_space.cache_clear()
    anew = rebuilt(g.payoffs)
    assert anew._space is not g._space
    assert _renders(anew) == warm


@given(order_games(shapes=("product",)))
@settings(max_examples=150, deadline=None)
def test_a_product_audit_decided_by_players_agrees_with_the_scan_over_s(game):
    # on a product S the all-player response is increasing iff each
    # player's best own sets are closed and increase along the rest covers:
    # the factored verdict passes exactly when the scan over S's covers
    # does, and the audit renders the same with or without it, on
    # products of chains, the diamond, N5 and M3, with ties and failing
    # images
    g, orders = game
    S = g.feasible_poset()
    images = games._group_responses(g, tuple(range(len(g.players))))
    factored = games._increasing_by_players(g)
    assert factored in (PASS, None)
    assert (factored is PASS) == bool(order.is_increasing_by_covers(S, S, images))
    scanned = games.Game(g.players, g.lattices, g.feasible, g.payoffs, name=g.name)
    with mock.patch.object(equilibria, "_increasing_by_players", lambda g: None):
        want = equilibria.tarski_zhou_check(scanned).render()
    assert equilibria.tarski_zhou_check(g).render() == want


@given(st.lists(st.one_of(st.sampled_from(_LATTICES).map(lambda o: build_poset(*o)),
                          _RANDOM_LATTICES), min_size=1, max_size=3),
       st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_product_lists_its_sections_in_rest_order(factors, as_lists, data):
    # a product S's rest covers number the sections by the rests'
    # row-major order, so its section tables list them sorted by rest,
    # whatever the lattices' element order and however S is listed: as
    # tuples or as lists, in any order
    lats = [build_poset(data.draw(st.permutations(L.elements)), list(L.covers()))
            for L in factors]
    players = [f"p{i + 1}" for i in range(len(lats))]
    S = data.draw(st.permutations(list(iter_product(*(L.elements for L in lats)))))
    g = games.Game(players, dict(zip(players, lats)), [list(x) for x in S] if as_lists else S,
                   {p: dict.fromkeys(S, 0) for p in players})
    assert g._space is not None
    for sections in g._sections:
        assert list(sections) == sorted(sections, key=itemgetter(1))


def _polynomial_chain_product(n, m, seed=1):
    """n players on chains of m, each paid a polynomial in the strategies
    drawn as :func:`latnash.games.random_supermodular_game` draws it:
    linear terms in -3..3 and interaction terms in 0..2."""
    rng = random.Random(seed)
    players = [f"p{i + 1}" for i in range(n)]
    lattice = chain([str(v) for v in range(m)])
    S = list(iter_product(range(m), repeat=n))
    payoffs = {}
    for p in players:
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = [(j, k, rng.randint(0, 2)) for j in range(n) for k in range(j + 1, n)]
        payoffs[p] = {tuple(map(str, v)): sum(a[j] * v[j] for j in range(n))
                      + sum(c * v[j] * v[k] for j, k, c in b) for v in S}
    return games.Game(players, dict.fromkeys(players, lattice), list(payoffs[players[0]]),
                      payoffs, name=f"polynomial-{n}x{m}")


def test_a_passing_product_audit_scans_no_image(monkeypatch):
    # the audit of the 5 x 5 chain product (3,125 profiles) runs no scan
    # over S's images: at most one pair scan of a strategy lattice per
    # distinct best own set and per distinct pair of them along a rest
    # cover, player by player
    g = _polynomial_chain_product(5, 5)
    equilibria.equilibrium_report(g)
    bound = 0
    for sections in g._sections:
        best = {sec[1]: sec[6] for sec in sections}
        # on chains a rest cover raises one coordinate by one
        steps = {(b, best.get(rest[:c] + (rest[c] + 1,) + rest[c + 1:], b))
                 for rest, b in best.items() for c in range(len(rest))}
        bound += len(set(best.values())) + sum(b != b2 for b, b2 in steps)
    scanned, pairs = [], []
    increasing_scan, pair_scan = order._increasing_scan, _kernels.pair_scan
    monkeypatch.setattr(order, "_increasing_scan",
                        lambda *args: scanned.append(args) or increasing_scan(*args))
    monkeypatch.setattr(_kernels, "pair_scan",
                        lambda *args: pairs.append(args) or pair_scan(*args))
    assert equilibria.tarski_zhou_check(g).ok
    assert scanned == [] and 0 < len(pairs) <= bound


def _solo(names):
    """A one-player game on the chain ``names``, every payoff 0."""
    return games.Game(["solo"], {"solo": chain(names)}, [(x,) for x in names],
                      {"solo": {(x,): 0 for x in names}})


def test_the_shared_products_are_bounded():
    # 17 distinct products leave the last 16; a product of more profiles
    # than the share limit is laid out for its game alone, which keeps its
    # rest covers, and one of exactly that many is kept
    store = games._product_space
    store.cache_clear()
    for size in range(1, games._INTERNED_LATTICES + 2):
        _solo([str(i) for i in range(size)])
    kept = store.cache_info()
    assert (kept.maxsize, kept.currsize, kept.misses) == (games._INTERNED_LATTICES,) * 2 + (17,)
    large = _solo([str(i) for i in range(games._SHARED_PROFILES + 1)])
    assert store.cache_info() == kept
    assert large._space is not None
    assert large.feasible_poset() == chain(large._lattices[0].elements)
    assert games.validate_supermodular(large).ok and list(large._space.rest_covers) == [0]
    _solo([str(i) for i in range(games._SHARED_PROFILES)])
    assert store.cache_info().misses == kept.misses + 1


def test_equal_elements_in_another_order_lay_out_another_product():
    # the store is keyed by the lattices' rows as well as their elements:
    # a over b and b over a share no space, and each S has its own order
    games._product_space.cache_clear()
    posets = []
    for pair in (("a", "b"), ("b", "a")):
        g = games.Game(["solo"], {"solo": build_poset(["a", "b"], [pair])}, [("a",), ("b",)],
                       {"solo": {("a",): 0, ("b",): 1}})
        posets.append(g.feasible_poset())
    assert games._product_space.cache_info().misses == 2
    assert posets[0].leq("a", "b") and posets[1].leq("b", "a")


def test_a_lattice_given_to_game_is_not_kept_by_the_shared_products():
    # the store is keyed by the lattices' elements and rows, so it keeps
    # none of the posets a caller hands to Game(...); a game and its cached
    # verdicts refer to each other, so the game goes at a collection
    lat = chain(["lo", "mid", "hi"])
    S = list(iter_product(lat.elements, lat.elements))
    g = games.Game(["p1", "p2"], {"p1": lat, "p2": lat}, S,
                   {p: dict.fromkeys(S, 1) for p in ("p1", "p2")})
    _renders(g)
    space, lattice = g._space, weakref.ref(lat)
    del g, lat
    gc.collect()
    assert lattice() is None
    assert games._product_space(space._shapes) is space


def test_validation_and_check_on_a_product_leave_its_order_unbuilt(tmp_path, capsys):
    # increasing differences on a product S read the space's rest covers,
    # not S's order; neither validate_supermodular nor latnash check build it,
    # however S's profiles are listed
    games._product_space.cache_clear()
    g = gallery.load_fixture("coordination")
    assert games.validate_supermodular(g).ok
    assert list(g._space.rest_covers) == [0, 1] and "poset" not in vars(g._space)
    games._product_space.cache_clear()
    path = tmp_path / "coordination.json"
    path.write_text(gallery.fixture_text("coordination"), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    space = games._product_space(g._space._shapes)  # the one latnash check laid out
    assert games._product_space.cache_info().hits == 1
    assert list(space.rest_covers) == [0, 1] and "poset" not in vars(space)
    # the product listed as lists, which the space cannot look up, is the
    # product all the same
    listed = games.Game(g.players, g.lattices, [list(x) for x in g.feasible], g.payoffs)
    assert listed._space is space and games.validate_supermodular(listed).ok
    assert "poset" not in vars(space)


def test_lazy_fields_are_kept_where_the_next_read_finds_them():
    # a poset's label index and cover rows and a space's poset are computed
    # on their first read, without the lock of a cached_property, and kept
    # in the object's dict, which later reads find before the class
    for cls, names in ((order.Poset, ("_index", "_cover_rows")), (games._Space, ("poset",))):
        assert all(type(vars(cls)[name]) is order._lazy for name in names)
    games._product_space.cache_clear()
    g = coordination()
    space = g._space
    S = space.poset
    assert vars(space)["poset"] is S is g.feasible_poset()
    assert "_cover_rows" not in vars(S) and S._cover_rows is vars(S)["_cover_rows"]
    assert S._index is S._index == {x: k for k, x in enumerate(S.elements)}


def test_chain_strategies_make_sections_vacuously_supermodular():
    g = coordination()
    for p in g.players:
        assert games.check_supermodular_sections(g, p)


def test_product_payoff_on_square_is_supermodular():
    g = _one_player_square({"00": "0", "01": "0", "10": "0", "11": "1"})
    assert games.check_supermodular_sections(g, "solo")


def test_negated_min_on_square_fails_supermodularity():
    # f = -(min of the two coordinates): strictly submodular at the
    # incomparable pair
    g = _one_player_square({"00": "0", "01": "0", "10": "0", "11": "-1"})
    r = games.check_supermodular_sections(g, "solo")
    assert not r
    player, x, y, z = r.witness
    assert {y, z} == {"01", "10"}


def test_one_player_increasing_differences_vacuous():
    g = _one_player_square({"00": "0", "01": "3", "10": "-2", "11": "7"})
    assert games.check_increasing_differences(g, "solo")


def test_coordination_has_increasing_differences():
    g = coordination()
    for p in g.players:
        assert games.check_increasing_differences(g, p)


def test_anti_coordination_fails_increasing_differences():
    g = games.load_game(doc(
        name="anti",
        payoffs={"p1": {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"},
                 "p2": {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"}}))
    r = games.check_increasing_differences(g, "p1")
    assert not r
    player, a, b, t, t2 = r.witness
    assert (a, b) == ("0", "1") and (t, t2) == (("0",), ("1",))


def test_validate_supermodular_aggregates():
    assert games.validate_supermodular(coordination()).ok
    assert games.validate_supermodular(diag2()).ok
    g = games.load_game(doc(
        feasible=[["0", "1"], ["1", "0"]],
        payoffs={"p1": {"0|1": "0", "1|0": "0"},
                 "p2": {"0|1": "0", "1|0": "0"}}))
    rep = games.validate_supermodular(g)
    assert not rep.ok
    x, y, esc, kind = rep.sublattice.witness
    assert esc in ("(1,1)", "(0,0)")


def test_validation_is_cached_and_read_only():
    g = coordination()
    rep = games.validate_supermodular(g)
    assert games.validate_supermodular(g) is rep
    assert equilibria.equilibrium_report(g).validation is rep
    with pytest.raises(TypeError):
        rep.sections["p1"] = rep.sublattice
    with pytest.raises(TypeError):
        rep.increasing_differences["p1"] = rep.sublattice


# --------------------------------------------------------------------------
# responses


def test_best_response_examples():
    g = coordination()
    assert games.best_response(g, "p1", ("0", "0")) == ("0",)
    d = diag2()
    assert games.best_response(d, "p1", ("0", "0")) == ("0",)  # singleton section
    flat = games.load_game(doc(
        payoffs={"p1": {"0|0": "2", "0|1": "2", "1|0": "2", "1|1": "2"},
                 "p2": {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "0"}}))
    assert games.best_response(flat, "p1", ("0", "0")) == ("0", "1")  # all ties


def test_partial_response_examples():
    g = coordination()
    assert games.partial_response(g, g.players, ("0", "0")) == ((("0", "0")),)
    d = diag2()
    assert games.partial_response(d, ["p1"], ("0", "0")) == ((("0", "0")),)
    with pytest.raises(EmptyPlayerSet):
        games.partial_response(g, [], ("0", "0"))


def test_partial_response_singleton_player_identity():
    # for one player, the group argmax equals the individual best response
    # spread over the feasible box
    g = coordination()
    for x in g.feasible:
        for p in g.players:
            i = g.player_pos(p)
            br = set(games.best_response(g, p, x))
            box = games.feasible_box(g, x)
            want = tuple(y for y in box if y[i] in br)
            assert games.partial_response(g, [p], x) == want


# Payoffs as a game file writes them: integers, "p/q" over small, decimal
# and large denominators, decimals, and neighbours of 10^20/q that no float
# tells apart; few distinct values per game, so that sums of different
# players' payoffs tie often.
_DENOMINATORS = (1, 2, 3, 6, 7, 10, 1000, 10 ** 12 + 39, 2 ** 61 - 1)
_rational_texts = st.one_of(
    st.integers(-10 ** 9, 10 ** 9).map(str),
    st.builds(lambda n, d: f"{n}/{d}",
              st.integers(-10 ** 6, 10 ** 6), st.sampled_from(_DENOMINATORS)),
    st.builds(lambda n, k: f"{'-' if n < 0 else ''}{abs(n) // 10 ** k}."
                           f"{abs(n) % 10 ** k:0{k}d}",
              st.integers(-10 ** 6, 10 ** 6), st.integers(1, 8)),
    st.builds(lambda k, d: f"{10 ** 20 + k}/{d}",
              st.integers(-3, 3), st.sampled_from(_DENOMINATORS)),
)


@st.composite
def rational_game_docs(draw):
    n = draw(st.integers(1, 3))
    carriers = [[str(v) for v in range(draw(st.integers(1, 3)))] for _ in range(n)]
    players = [f"p{i + 1}" for i in range(n)]
    profiles = list(iter_product(*carriers))
    # the diagonal keeps every strategy in some feasible profile
    diagonal = {tuple(c[min(t, len(c) - 1)] for c in carriers)
                for t in range(max(map(len, carriers)))}
    keep = draw(st.lists(st.booleans(), min_size=len(profiles), max_size=len(profiles)))
    feasible = [list(prof) for prof, k in zip(profiles, keep) if k or prof in diagonal]
    pool = draw(st.lists(_rational_texts, min_size=1, max_size=4))
    return {
        "players": players,
        "strategies": {p: {"elements": c, "order": [[a, b] for a, b in zip(c, c[1:])]}
                       for p, c in zip(players, carriers)},
        "feasible": feasible,
        "payoffs": {p: {"|".join(prof): draw(st.sampled_from(pool)) for prof in feasible}
                    for p in players},
    }


# JSON values that are not an array of strings: scalars, objects, and
# arrays holding at least one non-string
_non_arrays = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_non_strings = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.lists(st.text(max_size=2), max_size=2))
_not_strings = st.one_of(_non_arrays, st.builds(
    lambda head, bad, at: head[:at] + [bad] + head[at:],
    st.lists(st.text(max_size=2), max_size=2), _non_strings, st.integers(0, 2)))
_not_pairs = st.one_of(_not_strings, st.lists(st.text(max_size=2), max_size=4)
                       .filter(lambda v: len(v) != 2))


@given(rational_game_docs(), st.sampled_from(["elements", "order", "order entry",
                                              "profile"]), st.data())
@settings(max_examples=150, deadline=None)
def test_malformed_shapes_rejected(doc, where, data):
    strategies = doc["strategies"][data.draw(st.sampled_from(doc["players"]))]
    if where == "elements":
        strategies["elements"] = data.draw(_not_strings)
    elif where == "order":
        strategies["order"] = data.draw(_non_arrays)
    elif where == "order entry":
        strategies["order"].append(data.draw(_not_pairs))
    else:
        doc["feasible"].insert(data.draw(st.integers(0, len(doc["feasible"]))),
                               data.draw(_not_strings))
    with pytest.raises(ParseError):
        games.load_game(json.dumps(doc))


@given(rational_game_docs(), st.data())
@settings(max_examples=150, deadline=None)
def test_scaled_int_payoffs_match_fraction_oracle(doc, data):
    g = games.load_game(json.dumps(doc))
    players = doc["players"]
    carriers = [doc["strategies"][p]["elements"] for p in players]
    feasible = {tuple(prof) for prof in doc["feasible"]}
    payoffs = [{tuple(k.split("|")): Fraction(v) for k, v in doc["payoffs"][p].items()}
               for p in players]
    for x in sorted(feasible):
        for i, p in enumerate(players):
            assert set(games.best_response(g, p, x)) == \
                best_response_oracle(feasible, carriers, payoffs, i, x)
        members = data.draw(st.sets(st.integers(0, len(players) - 1), min_size=1))
        assert set(games.partial_response(g, [players[j] for j in members], x)) == \
            group_response_oracle(feasible, carriers, payoffs, members, x)
    for i, p in enumerate(players):
        assert set(equilibria.stable_set(g, p)) == \
            stable_set_oracle(feasible, carriers, payoffs, i)
    assert set(equilibria.equilibria_bruteforce(g).profiles) == \
        equilibria_oracle(feasible, carriers, payoffs)
    # the Fractions read back from the scaled section tables
    for i, p in enumerate(players):
        for x in feasible:
            v = g.payoff(p, x)
            assert type(v) is Fraction and v == payoffs[i][x]
    assert g.payoffs == dict(zip(players, payoffs))
    assert all(list(table) == list(g.feasible) for table in g.payoffs.values())
    written = json.loads(games.serialize_game(g))["payoffs"]
    for i, p in enumerate(players):
        assert list(written[p].items()) == [("|".join(x), str(payoffs[i][x]))
                                            for x in g.feasible]


def test_joint_response_examples():
    g = coordination()
    assert games.joint_response(g, ("1", "1")) == ((("1", "1")),)
    # product form keeps it nonempty everywhere
    for x in g.feasible:
        assert games.joint_response(g, x)


def test_joint_response_subset_of_group_response(small_corpus):
    rng = random.Random(9)
    for g in small_corpus[:15]:
        for x in g.feasible:
            R = set(games.joint_response(g, x))
            players = rng.sample(g.players, rng.randint(1, len(g.players)))
            assert R <= set(games.partial_response(g, players, x))


# --------------------------------------------------------------------------
# generator


def test_spec_bounds():
    with pytest.raises(SpecOutOfRange):
        games.RandomGameSpec(players=(2, 9))
    with pytest.raises(SpecOutOfRange):
        games.RandomGameSpec(chain_length=(0, 3))
    with pytest.raises(SpecOutOfRange):
        games.RandomGameSpec(feasibility="banana")
    with pytest.raises(SpecOutOfRange):
        games.RandomGameSpec(interaction_range=(-1, 2))
    for bad in ({"linear_range": (3, -3)}, {"interaction_range": (2, 1)},
                {"linear_range": (0,)}, {"players": (1, "a")}, {"players": (1, 2, 3)},
                {"chain_length": 2.5}, {"players": True}):
        with pytest.raises(SpecOutOfRange):
            games.RandomGameSpec(**bad)


def test_one_player_spec():
    g = games.random_supermodular_game(
        games.RandomGameSpec(players=1, chain_length=3), 5)
    assert len(g.players) == 1
    assert games.validate_supermodular(g).ok


def test_generated_games_always_validate(small_corpus):
    for g in small_corpus:
        assert games.validate_supermodular(g).ok


def test_generator_deterministic():
    spec = games.RandomGameSpec()
    a = games.serialize_game(games.random_supermodular_game(spec, 42))
    b = games.serialize_game(games.random_supermodular_game(spec, 42))
    assert a == b


# every feasibility mode and player count, with the default ranges, wide
# ones, constant coefficients and negative-only linear terms
GENERATOR_SPECS = [
    games.RandomGameSpec(players=k, chain_length=length, feasibility=mode,
                         linear_range=linear, interaction_range=interaction)
    for mode in ("product", "sublattice", "mixed")
    for k in (1, 2, 3, 4)
    for length, linear, interaction in (((2, 4), (-3, 3), (0, 2)),
                                        ((1, 4), (-40, 25), (0, 9)),
                                        ((3, 3), (-5, -5), (4, 4)))]


def test_generator_payoffs_equal_the_fraction_oracle():
    pairs = [(spec, seed) for i, spec in enumerate(GENERATOR_SPECS)
             for seed in (i, 1000 + i, 7919 * i)]
    assert len(pairs) >= 100
    for spec, seed in pairs:
        g = games.random_supermodular_game(spec, seed)
        want = random_game_oracle(spec, seed)
        assert g.payoffs == want.payoffs
        assert all(type(v) is Fraction for table in g.payoffs.values() for v in table.values())
        assert games.serialize_game(g) == games.serialize_game(want)


def test_generator_produces_sublattice_feasible_sets():
    spec = games.RandomGameSpec(feasibility="sublattice")
    seen_proper = False
    for seed in range(30):
        g = games.random_supermodular_game(spec, seed)
        names = [g.profile_label(x) for x in g.feasible]
        assert is_sublattice(product_poset([g.lattices[p] for p in g.players]), names)
        total = 1
        for p in g.players:
            total *= len(g.lattices[p])
        seen_proper |= len(g.feasible) < total
    assert seen_proper  # at least one genuinely constrained game


# --------------------------------------------------------------------------
# serialization


def test_round_trip_identity():
    for g in (coordination(), diag2()):
        text = games.serialize_game(g)
        g2 = games.load_game(text)
        assert g2 == g
        assert games.serialize_game(g2) == text


def test_equal_scaled_ints_at_different_scales_are_different_games():
    # payoffs (1/2, 1) and (1, 2) are both the ints (1, 2), at scales 2 and 1
    def one_player(u):
        return games.Game(["solo"], {"solo": chain(["0", "1"])}, [("0",), ("1",)],
                          {"solo": {("0",): u[0], ("1",): u[1]}})

    half = one_player((Fraction(1, 2), Fraction(1)))
    whole = one_player((Fraction(1), Fraction(2)))
    assert half._columns == whole._columns
    assert half != whole and whole != half
    assert half == one_player(("1/2", 1)) and whole == one_player((1, "2"))


def test_handed_out_tables_cannot_change_the_game():
    # what g.payoffs and g.lattices hand out is read-only, all the way
    # down; the game answers as an untouched copy does
    def answers(g):
        return (g.payoff("p1", ("0", "1")), games.serialize_game(g),
                games.validate_supermodular(g).render(),
                games.best_response(g, "p1", ("0", "1")),
                equilibria.equilibrium_report(g).to_text(),
                equilibria.tarski_zhou_check(g).render())

    g = coordination()
    payoffs, lattices = g.payoffs, g.lattices
    for table, key, value in ((payoffs["p1"], ("0", "1"), Fraction(5)),
                              (payoffs, "p1", {}), (lattices, "p1", chain(["a", "b"]))):
        with pytest.raises(TypeError):
            table[key] = value
        with pytest.raises(TypeError):
            del table[key]
    assert answers(g) == answers(coordination())
    assert g.payoffs is not payoffs and g.payoffs == payoffs


def test_canonical_profile_order_by_index_not_name():
    g = games.load_game(json.dumps({
        "players": ["p1"],
        "strategies": {"p1": {"elements": ["9", "10"], "order": [["9", "10"]]}},
        "feasible": [["10"], ["9"]],
        "payoffs": {"p1": {"10": "0", "9": "1"}},
    }))
    # "9" comes first because it is the smaller element index, despite
    # "10" < "9" lexicographically
    assert g.feasible == (("9",), ("10",))


def test_product_feasible_serializes_compactly():
    g = coordination()
    assert json.loads(games.serialize_game(g))["feasible"] == "product"
    d = diag2()
    assert json.loads(games.serialize_game(d))["feasible"] == [["0", "0"], ["1", "1"]]
