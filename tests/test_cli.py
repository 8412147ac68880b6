import copy
import functools
import hashlib
import io
import json
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnash import cli, gallery, games, order
from latnash.errors import LatnashError, UnknownGalleryName
from latnash.games import load_game, serialize_game


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture()
def game_file(tmp_path):
    def write(name):
        path = tmp_path / gallery.fixture_filename(name)
        path.write_text(gallery.fixture_text(name), encoding="utf-8")
        return str(path)
    return write


# --------------------------------------------------------------------------
# check


def test_check_supermodular_game_exits_zero(game_file):
    code, out = run_cli("check", game_file("coordination"))
    assert code == 0
    assert "supermodular game: yes" in out
    assert "latnash" in out and "sha256:" in out


class _Text(str):
    """A document text that can be weakly referenced."""


def test_check_frees_the_text_before_building_the_game(game_file, monkeypatch):
    # the file's text is read, handed to load_game and freed by it before
    # Game(...) starts: no frame of the command holds it
    read, refs, alive = cli._read, [], []

    def weak_read(path):
        text, digest = read(path)
        t = _Text(text)
        refs.append(weakref.ref(t))
        return t, digest

    init = games.Game.__init__

    def build(self, *args, **kwargs):
        alive.append(refs[0]() is not None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_read", weak_read)
    monkeypatch.setattr(games.Game, "__init__", build)
    code, out = run_cli("check", game_file("coordination"))
    assert code == 0 and alive == [False]


def test_check_failing_game_exits_one_with_witness(game_file):
    code, out = run_cli("check", game_file("anti-coordination"))
    assert code == 1
    assert "increasing differences" in out and "FAIL" in out


def test_incomparable_own_strategies_at_comparable_rests_fail_the_check(tmp_path):
    # p3 plays a diamond; S is a sublattice whose sections are chains and
    # which holds no rectangle, so only the pair (0,0,l), (0,1,r) of
    # incomparable own strategies at comparable rests breaks supermodularity.
    # E = {(0,0,l), (0,1,r)} has no top: the report shows that and exits 0.
    S = [["0", "0", "l"], ["0", "0", "b"], ["0", "1", "t"], ["0", "1", "r"]]
    u3 = dict(zip(("0|0|l", "0|0|b", "0|1|t", "0|1|r"), ("-1", "-2", "0", "2")))
    doc = {
        "players": ["p1", "p2", "p3"],
        "strategies": {"p1": {"elements": ["0"], "order": []},
                       "p2": {"elements": ["0", "1"], "order": [["0", "1"]]},
                       "p3": {"elements": ["t", "l", "b", "r"],
                              "order": [["b", "l"], ["b", "r"], ["l", "t"], ["r", "t"]]}},
        "feasible": S,
        "payoffs": {"p1": {k: "0" for k in u3}, "p2": {k: "0" for k in u3}, "p3": u3},
    }
    path = tmp_path / "diamond-rests.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli("check", str(path))
    assert code == 1
    assert ("increasing differences (p3): FAIL, witness ('p3', 'l', 'r', ('0', '0'), "
            "('0', '1')) (incomparable own strategies at comparable rests)") in out
    assert "supermodular game: NO" in out
    code, out = run_cli("equilibria", str(path))
    assert code == 0
    assert "supermodular: no" in out and "induced order on E is a lattice: no" in out


def test_check_missing_file_exits_two(capsys):
    code, _ = run_cli("check", "/no/such/file.json")
    assert code == 2


def test_check_unparsable_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _ = run_cli("check", str(bad))
    assert code == 2


def test_deeply_nested_file_exits_two(tmp_path, capsys):
    # the JSON decoder runs out of stack long before the schema is read
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["check", str(deep)], ["equilibria", str(deep)]):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            f"error: {deep}: arrays or objects nested too deeply\n"


def test_deeply_nested_payoff_names_its_place_in_one_short_line(tmp_path, capsys):
    doc = json.loads(gallery.fixture_text("coordination"))
    value = "1"
    for _ in range(900):
        value = [value]
    doc["payoffs"]["p1"]["0|1"] = value
    path = tmp_path / "deep-payoff.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("check", str(path)) == (2, "")
    err = capsys.readouterr().err
    assert err == (f"error: {path}: payoff of player 'p1' at '0|1': "
                   "not a rational value: [[[[[[[...]]]]]]]\n")


_DELETE = object()


def _set(doc, path, value):
    """The document with the entry at ``path`` set to ``value``, or
    deleted for ``_DELETE``."""
    *parents, key = path
    target = doc
    for k in parents:
        target = target[k]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda d: [d], "top level must be an object"),
    (lambda d: _set(d, ["players"], []), "'players' must be a nonempty array of strings"),
    (lambda d: _set(d, ["players"], ["p1", 2]),
     "'players' must be a nonempty array of strings"),
    (lambda d: _set(d, ["strategies"], []), "'strategies' must be an object"),
    (lambda d: _set(d, ["strategies", "p2", "order"], _DELETE),
     "strategies['p2'] needs 'elements' and 'order'"),
    (lambda d: _set(d, ["feasible"], [["0", "0", "0"]]),
     "profile ('0', '0', '0') has wrong arity"),
    (lambda d: _set(d, ["feasible"], []), "the feasible set is empty"),
    (lambda d: _set(d, ["feasible"], [["0", "0"], ["1", "1"]]),
     "payoff given for infeasible profile ('0', '1') (player 'p1')"),
    (lambda d: _set(d, ["payoffs"], []), "'payoffs' must be an object"),
    (lambda d: _set(d, ["payoffs", "p2"], _DELETE), "no payoff table for player 'p2'"),
    (lambda d: _set(d, ["name"], 5), "'name' must be a string"),
    (lambda d: _set(d, ["strategies", "p1", "order"], [["0", "1"], ["1", "0"]]),
     "elements '0' and '1' are mutually comparable"),
], ids=["top-level", "no-players", "player-not-a-string", "strategies", "no-order",
        "arity", "empty-feasible", "infeasible-payoff", "payoffs", "no-payoff-table",
        "name", "cyclic-order"])
def test_schema_refusals_exit_two(tmp_path, capsys, edit, message):
    # one edit of a gallery document reaches each refusal of the schema,
    # the game's own and the strategy orders' included, each named by its file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(gallery.fixture_text("coordination")))),
                    encoding="utf-8")
    assert run_cli("check", str(path)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and message in err


def test_a_long_payoff_key_is_refused_in_one_short_line(tmp_path, capsys):
    # the key names no feasible profile; its 5,000 characters are not echoed
    doc = json.loads(gallery.fixture_text("anti-coordination"))
    doc["payoffs"]["p1"]["0|" + "x" * 4998] = "0"
    path = tmp_path / "long-key.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("check", str(path)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: payoff given for infeasible profile ('0', 'xxx")
    assert err.count("\n") == 1 and len(err) <= 201


def test_ambiguous_labels_exit_two(tmp_path, capsys):
    # "," joins product labels: (a, "b,c") and ("a,b", c) both read (a,b,c)
    doc = {
        "name": "ambiguous-labels",
        "players": ["p1", "p2"],
        "strategies": {"p1": {"elements": ["a", "a,b"], "order": [["a", "a,b"]]},
                       "p2": {"elements": ["b,c", "c"], "order": [["b,c", "c"]]}},
        "feasible": "product",
        "payoffs": {p: {"a|b,c": "1", "a|c": "0", "a,b|b,c": "0", "a,b|c": "2"}
                    for p in ("p1", "p2")},
    }
    path = tmp_path / "ambiguous-labels.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli("equilibria", str(path))
    assert code == 2 and out == ""
    assert "separator" in capsys.readouterr().err


@pytest.mark.parametrize("where, bad", [
    ("elements", "01"), ("elements", [["0"], "1"]),
    ("order", [["0", "1", "2"]]), ("order", 5), ("order", [5]),
    ("feasible", ["00", "01", "10", "11"]), ("feasible", [5, ["1", "1"]]),
])
def test_malformed_shapes_exit_two(tmp_path, capsys, where, bad):
    doc = json.loads(gallery.fixture_text("coordination"))
    if where == "feasible":
        doc["feasible"] = bad
    else:
        doc["strategies"]["p1"][where] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["check", str(path)], ["equilibria", str(path)]):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def _strategy_renamed(text, name):
    """The coordination document with strategy 1 of both players renamed."""
    doc = json.loads(text)
    for entry in doc["strategies"].values():
        entry["elements"], entry["order"] = ["0", name], [["0", name]]
    doc["payoffs"] = {p: {key.replace("1", name): v for key, v in table.items()}
                      for p, table in doc["payoffs"].items()}
    return json.dumps(doc)


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('"payoffs": {', '"payoffs": {"p3": {"0|0": "1"}, ', 1),
    lambda text: text.replace('"strategies": {',
                              '"strategies": {"p9": {"elements": "junk", "order": 7}, ', 1),
    lambda text: text.replace('"0|0": "1"', '"0|0": "7", "0|0": "1"', 1),
    # a line break in a name would print as a report line of its own
    lambda text: _strategy_renamed(text, "1\nnonempty: no"),
    lambda text: text.replace('"p1"', '"p\\t1"'),
    lambda text: text.replace('"coordination"', '"coordination\\u2028"'),
    # the README's rationals have no trailing line break
    lambda text: text.replace('"0|0": "1"', '"0|0": "1\\n"', 1),
    # "players: p1, p2, p2" would read as three players
    lambda text: text.replace('"p1"', '"p1, p2"'),
    lambda text: b"\xff\xfe" + text.encode(),
], ids=["unknown-payoff-player", "unknown-strategy-player", "duplicate-key",
        "unprintable-strategy", "unprintable-player", "unprintable-game-name",
        "payoff-trailing-newline", "comma-in-player", "not-utf-8"])
def test_document_faults_exit_two(tmp_path, capsys, edit):
    text = gallery.fixture_text("coordination")
    path = tmp_path / "bad.json"
    data = edit(text)
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    assert data != text
    for argv in (["check", str(path)], ["equilibria", str(path)]):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


# Inputs meant to fool the loader.  Names: empty, whitespace, non-ASCII,
# commas and other separators, characters that do not print, and a player
# named like another player's strategy.  Rationals: a zero denominator,
# signs, more digits than int() converts, whitespace, non-ASCII digits.
# A document holds at most one bad name and one bad rational, so that
# about half of them load.
NAMES = st.sampled_from(["", " ", " a ", "0", "1", "p1", "a", "é", "名", "١"]) | st.text(
    st.characters(blacklist_categories=("C", "Z"), blacklist_characters=',|"\\'),
    max_size=3)
BAD_NAMES = st.sampled_from(
    ["a,b", ",", "a|b", '"', "\\", "\n", "\u00a0", "\u2028", "\u200b"]) | st.text(max_size=3)
RATIONALS = st.sampled_from(["-0", "+1", "+1/2", "-3/4", "0.25"]) | st.integers(-3, 3)
BAD_RATIONALS = st.sampled_from(
    ["1/0", "1 ", " 1", "1\t", "1/2 ", "١", "٣.٥", "３", "1" * 4301, "1/" + "1" * 4301,
     "0." + "1" * 4301, "1e3", "0x1", "1_0"])


@st.composite
def adversarial_documents(draw):
    chains = draw(st.lists(st.lists(NAMES, min_size=1, max_size=2), min_size=1, max_size=2))
    players = [draw(NAMES) for _ in chains]
    if len(chains) == 2 and draw(st.booleans()):
        players[1] = draw(st.sampled_from(chains[0]))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(chains) - 1))
        if draw(st.booleans()):
            players[j] = draw(BAD_NAMES)
        else:
            chains[j][draw(st.integers(0, len(chains[j]) - 1))] = draw(BAD_NAMES)
    profiles = list(iter_product(*chains))
    doc = {"players": players,
           "strategies": {p: {"elements": c, "order": [[a, b] for a, b in zip(c, c[1:])]}
                          for p, c in zip(players, chains)},
           "feasible": draw(st.sampled_from(["product", [list(x) for x in profiles]])),
           "payoffs": {p: {"|".join(x): draw(RATIONALS) for x in profiles}
                       for p in players}}
    if draw(st.booleans()):
        table = doc["payoffs"][draw(st.sampled_from(players))]
        table[draw(st.sampled_from(sorted(table)))] = draw(BAD_RATIONALS)
    if draw(st.booleans()):
        doc["name"] = draw(NAMES | BAD_NAMES)
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


@pytest.fixture(scope="module")
def adversarial_path(tmp_path_factory):
    return tmp_path_factory.mktemp("adversarial") / "game.json"


@given(adversarial_documents())
@settings(max_examples=150, deadline=None)
def test_adversarial_documents_rejected_or_round_trip(adversarial_path, text):
    # a document the loader refuses exits 2 with an error line; one it
    # takes survives serialize -> load
    try:
        g = load_game(text)
    except LatnashError:
        g = None
    else:
        assert load_game(serialize_game(g)) == g
    adversarial_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("check", str(adversarial_path), "--quiet")
    if g is None:
        assert code == 2 and out == "" and err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1) and err.getvalue() == ""


class _Object(list):
    """A JSON object as its list of [key, value] pairs, so that an edit
    can repeat a key."""


class _Raw(str):
    """JSON text written as it is: nesting too deep to build as lists."""


def _dump(value):
    """The JSON text of a document whose objects are :class:`_Object`."""
    if isinstance(value, _Raw):
        return value
    if isinstance(value, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _places(value, path=()):
    """Every path to an entry of the document, each step an index into a
    list, or into an object's pairs."""
    entries = [v for _, v in value] if isinstance(value, _Object) else value
    if isinstance(value, list):
        for i, v in enumerate(entries):
            yield path + (i,)
            yield from _places(v, path + (i,))


def _renamed(value, old, new):
    """The document with ``old`` replaced by ``new`` wherever a name
    stands: in a list, as a key, and as a "|"-joined part of a key.  A
    player or strategy is renamed everywhere, and no payoff with it."""
    if isinstance(value, str):
        return "|".join(new if part == old else part for part in value.split("|"))
    if isinstance(value, _Object):
        return _Object([_renamed(k, old, new), v if isinstance(v, str) else _renamed(v, old, new)]
                       for k, v in value)
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    return value


# what one edit puts in a gallery document: long names, deep nesting,
# wrong types, wrong-arity profiles and payoff keys, and strategy names
# holding the separators that would make product labels or payoff keys
# collide
_LONG = "x" * 5000
_VALUES = st.sampled_from([
    _LONG, _Raw("[" * 5000 + "1" + "]" * 5000), _Raw("[" * 900 + "1" + "]" * 900),
    0, -1, 1.5, True, None, "", "0|0|0", ["0", "0", "0"], ["0"], [], _Object(),
    "product", "p1", "p3", "0", "1", "a,b"])
_NAMES = st.sampled_from([_LONG, "", "0", "1", "p1", "p2", "p3", "0,1", "1,0", "0|1", "1\n",
                          "extra", "name", "order"])


@functools.cache
def _gallery_document(name):
    return json.loads(gallery.fixture_text(name),
                      object_pairs_hook=lambda pairs: _Object(map(list, pairs)))


@st.composite
def gallery_mutations(draw):
    """A gallery game document, as JSON text, after one edit."""
    doc = copy.deepcopy(_gallery_document(draw(st.sampled_from(sorted(gallery.GAME_FIXTURES)))))
    # an entry under one top-level key, each key as likely
    places = list(_places(doc))
    top = draw(st.sampled_from(sorted({place[:1] for place in places})))
    path = draw(st.sampled_from([place for place in places if place[:1] == top]))
    edit = draw(st.sampled_from(["delete", "repeat", "replace", "rename key", "add",
                                 "rename everywhere"]))
    parent = doc
    for i in path[:-1]:
        parent = parent[i][1] if isinstance(parent, _Object) else parent[i]
    i = path[-1]
    target = parent[i][1] if isinstance(parent, _Object) else parent[i]
    if edit == "delete":
        del parent[i]
    elif edit == "repeat":
        parent.insert(i, copy.deepcopy(parent[i]))
    elif edit == "replace":
        if isinstance(parent, _Object):
            parent[i][1] = draw(_VALUES)
        else:
            parent[i] = draw(_VALUES)
    elif edit == "rename key" and isinstance(parent, _Object):
        parent[i][0] = draw(_NAMES)
    elif edit == "add" and isinstance(target, list):
        target.append([draw(_NAMES), draw(_VALUES)] if isinstance(target, _Object)
                      else draw(_VALUES))
    elif isinstance(target, str):
        doc = _renamed(doc, target, draw(_NAMES))
    else:  # an edit that does not apply here deletes the entry
        del parent[i]
    return _dump(doc)


@given(gallery_mutations())
@settings(max_examples=800, deadline=None)
def test_one_edit_of_a_gallery_document_loads_or_is_refused_in_one_line(adversarial_path,
                                                                        text):
    try:
        load_game(text)
    except LatnashError:
        loads = False
    else:
        loads = True
    adversarial_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("check", str(adversarial_path), "--quiet")
    err = err.getvalue()
    if loads:
        assert code in (0, 1) and err == ""
    else:
        prefix = f"error: {adversarial_path}: "
        assert code == 2 and out == "" and err.startswith(prefix)
        assert err.count("\n") == 1 and len(err) - len(prefix) <= 200


@pytest.mark.parametrize("flag", ["--cap-product", "--cap-exhaustive"])
@pytest.mark.parametrize("argv", [["check", "X"], ["equilibria", "X"],
                                  ["verify", "--suite", "counterexample"],
                                  ["gallery", "list"]],
                         ids=["check", "equilibria", "verify", "gallery"])
def test_zero_cap_exits_two(game_file, capsys, argv, flag):
    argv = [game_file("coordination") if a == "X" else a for a in argv]
    code, out = run_cli(*argv, flag, "0")
    assert code == 2 and out == ""
    assert "caps must be positive" in capsys.readouterr().err


def test_caps_do_not_outlive_the_call(game_file):
    five = order.chain([str(i) for i in range(5)])
    assert order.is_subcomplete(five, five.elements[:4]).mode == "exhaustive"
    code, _ = run_cli("check", game_file("coordination"),
                      "--cap-exhaustive", "3", "--cap-product", "4")
    assert code == 0
    assert order.is_subcomplete(five, five.elements[:4]).mode == "exhaustive"
    assert len(order.product_poset([five, five])) == 25


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_flags_and_defaults_do_not_outlive_the_call(game_file):
    # the shared parser sees a usage error, a flag, its default and another
    # flag; the same calls in reverse order give the same results
    path = game_file("lattice-not-sublattice")
    calls = [["equilibria", path, "--method", "sideways"],
             ["equilibria", path, "--cap-exhaustive", "2"],
             ["equilibria", path],
             ["check", path, "--cap-product", "1"]]
    forward = [_run_captured(argv) for argv in calls]
    backward = [_run_captured(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 0, 0, 2]
    assert "invalid choice: 'sideways'" in forward[0][2]
    assert forward[1][1] != forward[2][1]
    assert forward[3][2] == f"error: {path}: product has 36 elements, cap is 1\n"


@pytest.mark.parametrize("argv", [["check", "X"], ["equilibria", "X"],
                                  ["verify", "--suite", "lemmas", "--trials", "4"]],
                         ids=["check", "equilibria", "verify"])
def test_product_cap_is_honoured(game_file, capsys, argv):
    argv = [game_file("coordination") if a == "X" else a for a in argv]
    code, out = run_cli(*argv, "--cap-product", "1")
    assert code == 2
    assert "cap is 1" in capsys.readouterr().err


def test_product_cap_is_honoured_before_expansion(tmp_path, capsys):
    # three 40-chains: 64,000 profiles; the document has no payoffs, so
    # expanding "product" before the cap is checked ends in MissingPayoff
    chain40 = {"elements": [str(i) for i in range(40)],
               "order": [[str(i), str(i + 1)] for i in range(39)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"players": ["p1", "p2", "p3"],
                                "strategies": {p: chain40 for p in ("p1", "p2", "p3")},
                                "feasible": "product", "payoffs": {}}), encoding="utf-8")
    code, out = run_cli("check", str(path), "--cap-product", "1000")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {path}: product has 64000 elements, cap is 1000\n"


def _diagonal(tmp_path, n):
    """Three n-chains, S = the n diagonal profiles, every player paid the
    common strategy: a game file in an n**3-element strategy product."""
    chain_n = {"elements": [str(i) for i in range(n)],
               "order": [[str(i), str(i + 1)] for i in range(n - 1)]}
    path = tmp_path / f"diagonal-{n}.json"
    path.write_text(json.dumps({
        "players": ["p1", "p2", "p3"],
        "strategies": {p: chain_n for p in ("p1", "p2", "p3")},
        "feasible": [[str(i)] * 3 for i in range(n)],
        "payoffs": {p: {f"{i}|{i}|{i}": str(i) for i in range(n)}
                    for p in ("p1", "p2", "p3")}}), encoding="utf-8")
    return str(path)


def _wide(tmp_path):
    """A 1,001-chain and a 1,000-chain, S = the 1,001 profiles (v, min(v,
    999)), every payoff 0: a game file in a 1,001,000-element product."""
    S = [[str(v), str(min(v, 999))] for v in range(1001)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "players": ["p1", "p2"],
        "strategies": {"p1": {"elements": [str(v) for v in range(1001)],
                              "order": [[str(v), str(v + 1)] for v in range(1000)]},
                       "p2": {"elements": [str(v) for v in range(1000)],
                              "order": [[str(v), str(v + 1)] for v in range(999)]}},
        "feasible": S,
        "payoffs": {p: {"|".join(x): "0" for x in S} for p in ("p1", "p2")}}),
        encoding="utf-8")
    return str(path)


def test_sparse_feasible_set_in_a_large_product(tmp_path, monkeypatch):
    # S = the diagonal of three n-chains; at n = 100 the strategy product
    # has 10**6 elements, the default cap.  The 1,001 x 1,000 case needs a
    # cap above 10**6 to load.  Validation and the report read S alone:
    # the product's rows, O(|product|**2) bits, are never built.  Each S is
    # a chain on which every profile is an equilibrium.
    def no_grid(rows_a, rows_b):
        raise AssertionError("the strategy product's rows were built")

    monkeypatch.setattr(order, "_product_rows", no_grid)
    cases = [(_diagonal(tmp_path, n), ("p1", "p2", "p3"),
              [f"({i},{i},{i})" for i in range(n)], ()) for n in (20, 100)]
    cases.append((_wide(tmp_path), ("p1", "p2"),
                  [f"({v},{min(v, 999)})" for v in range(1001)],
                  ("--cap-product", "2000000")))
    for path, players, S, caps in cases:
        validation = ("feasible set is a sublattice of the product: ok\n"
                      + "".join(f"supermodular payoff on sections ({p}): ok\n" for p in players)
                      + "".join(f"increasing differences ({p}): ok\n" for p in players)
                      + "supermodular game: yes\n")
        top, bottom = S[-1], S[0]
        report = (f"game: (unnamed)\nplayers: {', '.join(players)}\n"
                  f"feasible profiles: {len(S)}\n"
                  f"supermodular: yes\nequilibria ({len(S)}):\n"
                  + "".join(f"  {x}\n" for x in S)
                  + "nonempty: yes\n"
                  "induced order on E is a lattice: yes\n"
                  "induced order on E is a complete lattice: yes\n"
                  "E is a sublattice of S: yes\n"
                  "E is subcomplete in S: yes\n"
                  f"greatest equilibrium: {top}\nleast equilibrium: {bottom}\n"
                  f"iteration trace (greatest): {top}\niteration trace (least): {bottom}\n"
                  "cross-check (iteration vs brute force): ok\n")
        t0 = time.perf_counter()
        assert run_cli("check", path, "--quiet", *caps) == (0, validation)
        assert run_cli("equilibria", path, "--quiet", *caps) == (0, report)
        assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("command", ["check", "equilibria"])
def test_running_out_of_memory_exits_2_in_one_line(game_file, monkeypatch, capsys, command):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "validate_supermodular", exhausted)
    assert cli.main([command, game_file("coordination")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: out of memory\n")


def test_small_exhaustive_cap_keeps_verdicts(game_file):
    path = game_file("lattice-not-sublattice")
    code, out = run_cli("equilibria", path)
    small_code, small_out = run_cli("equilibria", path, "--cap-exhaustive", "2")
    assert code == small_code == 0
    # a pairwise check words its witnesses differently; verdicts stay
    verdicts = lambda text: [line.split(" (witness")[0] for line in text.splitlines()]
    assert verdicts(small_out) == verdicts(out)
    assert "E is subcomplete in S: no" in verdicts(out)


def test_exhaustive_cap_above_the_subset_walk_limit_exits_2(tmp_path, monkeypatch, capsys):
    # a one-player 21-chain with zero payoffs: E = S has 21 profiles, and
    # a cap of 21 would walk 2^21 subsets; the check is refused before the
    # subset scan allocates anything.  At a cap of 20, E is checked pairwise.
    path = tmp_path / "chain-21.json"
    carrier = [str(v) for v in range(21)]
    path.write_text(json.dumps({
        "players": ["solo"],
        "strategies": {"solo": {"elements": carrier,
                                "order": [[a, b] for a, b in zip(carrier, carrier[1:])]}},
        "feasible": "product", "payoffs": {"solo": {v: "0" for v in carrier}}}),
        encoding="utf-8")

    def no_walk(*args):
        raise AssertionError("the subset scan ran")

    monkeypatch.setattr(order._kernels, "subset_scan", no_walk)
    assert run_cli("equilibria", str(path), "--quiet", "--cap-exhaustive", "21") == (2, "")
    assert capsys.readouterr().err == \
        "error: exhaustive check over 2^21 subsets exceeds the limit of 2^20\n"
    code, out = run_cli("equilibria", str(path), "--quiet", "--cap-exhaustive", "20")
    assert code == 0 and "induced order on E is a complete lattice: yes\n" in out


# --------------------------------------------------------------------------
# equilibria


def test_equilibria_both_prints_cross_check(game_file):
    code, out = run_cli("equilibria", game_file("coordination"), "--method", "both")
    assert code == 0
    assert "equilibria (2):" in out
    assert "cross-check (iteration vs brute force): ok" in out


def test_equilibria_one_player_argmax(tmp_path):
    doc = {
        "players": ["solo"],
        "strategies": {"solo": {"elements": ["0", "1", "2"],
                                "order": [["0", "1"], ["1", "2"]]}},
        "feasible": "product",
        "payoffs": {"solo": {"0": "1", "1": "3", "2": "3"}},
    }
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli("equilibria", str(path), "--method", "brute")
    assert code == 0
    assert "equilibria (2):" in out and "\n  1\n" in out and "\n  2\n" in out


def test_lone_player_with_a_gap_in_s_is_refused_in_one_line(tmp_path):
    # a lone player's S must hold every strategy, so leaving one out is a
    # refusal, not a game
    path = tmp_path / "solo-gap.json"
    path.write_text(json.dumps({
        "players": ["solo"],
        "strategies": {"solo": {"elements": ["0", "1", "2"],
                                "order": [["0", "1"], ["1", "2"]]}},
        "feasible": [["0"], ["2"]], "payoffs": {"solo": {"0": "1", "2": "3"}}}),
        encoding="utf-8")
    for command in ("check", "equilibria"):
        assert _run_captured([command, str(path)]) == (2, "", (
            f"error: {path}: strategy '1' of player 'solo' appears in no feasible profile\n"))


def test_equilibria_iterate_on_invalid_game_exits_one(game_file):
    code, out = run_cli("equilibria", game_file("matching-pennies"),
                        "--method", "iterate")
    assert code == 1
    assert "not supermodular" in out


def test_equilibria_dot_output(game_file, tmp_path):
    out_dir = tmp_path / "dots"
    code, _ = run_cli("equilibria", game_file("coordination"),
                      "--format", "both", "--out", str(out_dir), "--quiet")
    assert code == 0
    dot = (out_dir / "coordination.dot").read_text(encoding="utf-8")
    assert "shape=box" in dot and "rankdir=BT" in dot
    # without --quiet, the header is followed by the path written
    code, out = run_cli("equilibria", game_file("coordination"), "--format", "dot",
                        "--out", str(out_dir))
    assert code == 0 and out.startswith("latnash ")
    assert out.endswith(f"\n\nwrote {out_dir / 'coordination.dot'}\n")
    assert (out_dir / "coordination.dot").read_text(encoding="utf-8") == dot


def test_equilibria_dot_onto_a_file_exits_two(game_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, _ = run_cli("equilibria", game_file("coordination"),
                      "--format", "dot", "--out", str(taken))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text(encoding="utf-8") == ""


def test_equilibria_report_deterministic(game_file):
    path = game_file("random-seeded")
    code1, out1 = run_cli("equilibria", path, "--method", "both")
    code2, out2 = run_cli("equilibria", path, "--method", "both")
    assert code1 == code2 == 0
    assert out1 == out2


# SHA-256 of `latnash equilibria FILE --quiet` stdout per --method, and of
# the DOT file of `--format dot`, per gallery game, with the exit codes.
# Any change to a report, a witness, a trace or a DOT file shows here.
GALLERY_DIGESTS = {
    "anti-coordination": {
        "brute": (0, "23d2535d90f75f1ebfc5a7377ce829f1e598eff9dd90667cf0479ab7640e6041"),
        "iterate": (1, "cce4ae0c2bdc62d6b4ca69812e047db838144e506217d3f317850db63fa81ea1"),
        "both": (0, "23d2535d90f75f1ebfc5a7377ce829f1e598eff9dd90667cf0479ab7640e6041"),
        "dot": (0, "44a190ebc652a97d28ff206494b85af50d5c3cc7f52460f5119f155d2d5ac81f"),
    },
    "coordination": {
        "brute": (0, "55858590e2b412f474775a91bb8b271ba18b52a51351824d129951b170cf54aa"),
        "iterate": (0, "5f02d21c8784bf3b0658e250528847c1e99ef54f713b4b329b20876463b66e12"),
        "both": (0, "d0dc62a9c1b78220e36e04a22589c60a26109d336276badc0a9374f6506f4f99"),
        "dot": (0, "11bb0adb7dfd365550960ae38e07ab90e05e1d862c1e6e9e0f707c7b2b049c20"),
    },
    "diag2": {
        "brute": (0, "40bcd043af747bc6bc9f4e2f5bbe6deb7fd8c9e72451a7eb1ec04102b2bd42a5"),
        "iterate": (0, "5f02d21c8784bf3b0658e250528847c1e99ef54f713b4b329b20876463b66e12"),
        "both": (0, "d04a5c1535cf088f8412cbea44574fa0389e1f049d917dfddce887b3ae329741"),
        "dot": (0, "17b8937174c68c724b0e9c42a4aab96b958798634455d877a35e371cf9c1b356"),
    },
    "lattice-not-sublattice": {
        "brute": (0, "5cb1194abf94b727626b26009446b50a123713a1a472ea9eecca90a5742e3803"),
        "iterate": (0, "9529373008f376a9a0f658e07b192b7fe91cc6d5f3b78f77fd2d4920f10243d6"),
        "both": (0, "ab7c30f48ac6c9d6faf456d2cd1d906d040276d613b31b96dd5eb7f337bb3ebb"),
        "dot": (0, "1bb96201aacfbe6f3f214a12b5f011ed982d43e9bebcd41ad65bf73b08ecafa9"),
    },
    "matching-pennies": {
        "brute": (0, "410c46245625800c9975de29389c04d80d64b2d2fc298180b776a1e8789bdf36"),
        "iterate": (1, "d99d7ae7066e9daf61c2ac62fe8f51663f07f41e5c9b6b57a5468290c441bc9c"),
        "both": (0, "410c46245625800c9975de29389c04d80d64b2d2fc298180b776a1e8789bdf36"),
        "dot": (0, "e1c7dae0070a362e1d8566f9d8882714aef2da03494fc9692624f68716980458"),
    },
    "random-seeded": {
        "brute": (0, "774c5fdc5c1b453d365a62c6bb755e608264ed506a29ad9db23d21218a66f3f0"),
        "iterate": (0, "4815f78c78e87d5242c0a29df16e908e9d49792524502bbee54132597ae09bcf"),
        "both": (0, "0c52b31d1d9a6213de1531e66467ef1efa0760d9ff22398e06400ef32c842ce2"),
        "dot": (0, "1f0725c9e7994beded1c19aa2f46ffd728ffd718e51eb7df6b2dc25d53acfd1d"),
    },
}


@pytest.mark.parametrize("name", sorted(GALLERY_DIGESTS))
def test_gallery_outputs_are_byte_identical(game_file, tmp_path, name):
    assert sorted(GALLERY_DIGESTS) == sorted(n for n in gallery.names()
                                             if gallery.fixture_filename(n).endswith(".json"))
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    path = game_file(name)
    got = {}
    for method in ("brute", "iterate", "both"):
        code, out = run_cli("equilibria", path, "--method", method, "--quiet")
        got[method] = (code, sha(out))
    code, _ = run_cli("equilibria", path, "--format", "dot", "--out", str(tmp_path), "--quiet")
    got["dot"] = (code, sha((tmp_path / f"{name}.dot").read_text(encoding="utf-8")))
    assert got == GALLERY_DIGESTS[name]


# A game whose strategy lists are not in a linear extension of their
# orders: a reversed 3-chain and the diamond listed M, x, m, y.  Its
# profiles, S and E are then out of order too, so bounds are found by
# stepping through the order, not by a first try.  E = {(2,M), (0,x),
# (0,m), (0,y)} is a lattice whose join of (0,x) and (0,y) escapes in S.
_CHAIN = {"0": 0, "1": 1, "2": 2}
_DIAMOND = {"m": 0, "x": 1, "y": 2, "M": 3}
OUT_OF_ORDER = {
    "name": "out-of-order",
    "players": ["p1", "p2"],
    "strategies": {
        "p1": {"elements": ["2", "1", "0"], "order": [["0", "1"], ["1", "2"]]},
        "p2": {"elements": ["M", "x", "m", "y"],
               "order": [["m", "x"], ["m", "y"], ["x", "M"], ["y", "M"]]},
    },
    "feasible": "product",
    "payoffs": {
        "p1": {f"{a}|{b}": str(2 * u * v - 5 * u)
               for a, u in _CHAIN.items() for b, v in _DIAMOND.items()},
        "p2": {f"{a}|{b}": str(u * v)
               for a, u in _CHAIN.items() for b, v in _DIAMOND.items()},
    },
}

# SHA-256 of `check --quiet` and `equilibria --method both --quiet` stdout
# and of the DOT file, with the exit codes.
OUT_OF_ORDER_DIGESTS = {
    "check": (0, "c1459bcbda5f602758298d229ba3f6b60a2a991db42a537a1a162b734b45534d"),
    "both": (0, "10bfeac8dd7a8e43b1abef9a67564fc3630b7c5b292c0ed47c36305737e0c7bb"),
    "dot": (0, "51882715d6016ae9e7ce59f3521baaf6fb7af1e9b59c8e87aa0fe56906be8b3a"),
}


def test_out_of_order_strategies_are_byte_identical(tmp_path):
    path = tmp_path / "out-of-order.json"
    path.write_text(json.dumps(OUT_OF_ORDER), encoding="utf-8")
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    got = {}
    code, out = run_cli("check", str(path), "--quiet")
    got["check"] = (code, sha(out))
    code, out = run_cli("equilibria", str(path), "--method", "both", "--quiet")
    got["both"] = (code, sha(out))
    code, _ = run_cli("equilibria", str(path), "--format", "dot", "--out", str(tmp_path),
                      "--quiet")
    got["dot"] = (code, sha((tmp_path / "out-of-order.dot").read_text(encoding="utf-8")))
    assert got == OUT_OF_ORDER_DIGESTS


# --------------------------------------------------------------------------
# verify


def test_verify_all_passes():
    code, out = run_cli("verify", "--suite", "all", "--trials", "10", "--seed", "3")
    assert code == 0
    assert "10/10 ok" in out
    assert "closure claims refuted" in out
    assert "all checks passed" in out


def test_verify_zero_trials_vacuous():
    code, out = run_cli("verify", "--suite", "lemmas", "--trials", "0")
    assert code == 0
    assert "0/0 ok" in out


def test_verify_negative_trials_exits_two(capsys):
    code, out = run_cli("verify", "--suite", "lemmas", "--trials", "-1")
    assert code == 2 and out == ""
    assert "--trials must be >= 0" in capsys.readouterr().err


def test_verify_counterexample_only():
    code, out = run_cli("verify", "--suite", "counterexample")
    assert code == 0
    assert "subcomplete ✓ compact ✓ closed ✗" in out
    assert "discrete interval topology: ok" in out


# --------------------------------------------------------------------------
# gallery


def test_gallery_list_has_at_least_five():
    code, out = run_cli("gallery", "list")
    assert code == 0
    names = out.split()
    assert len(names) >= 5
    assert "coordination" in names and "omega-counterexample" in names


def test_gallery_round_trip(tmp_path):
    for name in gallery.GAME_FIXTURES:
        code, _ = run_cli("gallery", name, "--out", str(tmp_path), "--quiet")
        assert code == 0
        text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
        load_game(text)  # must parse and validate


def test_gallery_unknown_name_exits_two():
    code, _ = run_cli("gallery", "definitely-not-a-fixture")
    assert code == 2
    with pytest.raises(UnknownGalleryName,
                       match=r"^no gallery game named 'definitely-not-a-fixture'$"):
        gallery.load_fixture("definitely-not-a-fixture")


def test_gallery_long_unknown_name_is_refused_in_one_short_line(capsys):
    assert run_cli("gallery", "x" * 5000) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: no gallery fixture named 'xxx")
    assert err.count("\n") == 1 and len(err) <= 200


def test_gallery_out_below_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, out = run_cli("gallery", "coordination", "--out", str(taken / "x"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_gallery_omega_report(tmp_path):
    code, _ = run_cli("gallery", "omega-counterexample", "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "omega-counterexample.txt").read_text(encoding="utf-8")
    assert "L \\ {x0}" in text and "REFUTED" in text
