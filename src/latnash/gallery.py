"""Built-in example games and the symbolic counterexample report.

Game fixtures are kept as documents (not Game objects) so that writing
them to disk and loading them back exercises the same code path users go
through.
"""

import json

from latnash.errors import UnknownGalleryName, quote
from latnash.games import Game, RandomGameSpec, load_game, random_supermodular_game, serialize_game
from latnash.omega import refute_statement


def _chain2():
    return {"elements": ["0", "1"], "order": [["0", "1"]]}


def _two_player(name, payoff1, payoff2, feasible="product"):
    doc = {
        "name": name,
        "players": ["p1", "p2"],
        "strategies": {"p1": _chain2(), "p2": _chain2()},
        "feasible": feasible,
        "payoffs": {"p1": payoff1, "p2": payoff2},
    }
    return json.dumps(doc, indent=2) + "\n"


def _coordination():
    pay = {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"}
    return _two_player("coordination", pay, dict(pay))


def _anti_coordination():
    pay = {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"}
    return _two_player("anti-coordination", pay, dict(pay))


def _matching_pennies():
    # one player wants to match, the other to differ: no equilibrium at all
    match = {"0|0": "1", "0|1": "0", "1|0": "0", "1|1": "1"}
    differ = {"0|0": "0", "0|1": "1", "1|0": "1", "1|1": "0"}
    return _two_player("matching-pennies", match, differ)


def _diag2():
    doc = {
        "name": "diag2",
        "players": ["p1", "p2"],
        "strategies": {"p1": _chain2(), "p2": _chain2()},
        "feasible": [["0", "0"], ["1", "1"]],
        "payoffs": {"p1": {"0|0": "0", "1|1": "1"},
                    "p2": {"0|0": "0", "1|1": "1"}},
    }
    return json.dumps(doc, indent=2) + "\n"


def _random_seeded():
    return serialize_game(random_supermodular_game(RandomGameSpec(), 42))


def _lattice_not_sublattice():
    """Supermodular game whose equilibrium set is a complete lattice in the
    induced order yet NOT a sublattice of S: the profiles (0,0,0,1) and
    (0,1,0,0) are equilibria, their product join (0,1,0,1) is feasible but
    not an equilibrium, and the sup within E lands strictly higher.
    Found by seeded search over tie-rich integer payoffs; regenerated
    deterministically here.
    """
    spec = RandomGameSpec(linear_range=(-1, 1), interaction_range=(0, 1))
    g = random_supermodular_game(spec, 659)
    doc = json.loads(serialize_game(g))
    doc["name"] = "lattice-not-sublattice"
    return json.dumps(doc, indent=2) + "\n"


def _omega_report():
    return (refute_statement(1).render() + "\n" + refute_statement(2).render())


GAME_FIXTURES = {
    "coordination": _coordination,
    "anti-coordination": _anti_coordination,
    "matching-pennies": _matching_pennies,
    "diag2": _diag2,
    "random-seeded": _random_seeded,
    "lattice-not-sublattice": _lattice_not_sublattice,
}

REPORT_FIXTURES = {
    "omega-counterexample": _omega_report,
}


def names():
    return sorted(GAME_FIXTURES) + sorted(REPORT_FIXTURES)


def fixture_text(name: str) -> str:
    """Document text of a fixture (game JSON or plain-text report)."""
    if name in GAME_FIXTURES:
        return GAME_FIXTURES[name]()
    if name in REPORT_FIXTURES:
        return REPORT_FIXTURES[name]()
    raise UnknownGalleryName(f"no gallery fixture named {quote(name)}")


def fixture_filename(name: str) -> str:
    return f"{name}.json" if name in GAME_FIXTURES else f"{name}.txt"


def load_fixture(name: str) -> Game:
    """Gallery game as a loaded Game (reports are not games)."""
    if name not in GAME_FIXTURES:
        raise UnknownGalleryName(f"no gallery game named {quote(name)}")
    return load_game(fixture_text(name), source=f"gallery:{name}")
