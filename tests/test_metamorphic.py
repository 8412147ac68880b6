"""Metamorphic relations on games: three changes to a game's payoffs or to
the order of its document that leave every best and group response, and
so every verdict, witness and report, as they were.

* Adding to each player's payoff a rational that depends only on the
  other players' strategies: a response compares a member's payoffs at
  one fixed rest, and each side of the supermodular inequality holds the
  two rests once each.
* One positive affine map of every payoff: it keeps the order of the
  sums of any fixed number of payoffs.
* Shuffling the feasible list and the payoff entries: a game sorts S
  into canonical order.

Each transformed game must render its validation, report, DOT and audit
byte for byte as the original.  Scaling each player by a different
factor is not such a relation: it moves the argmax of a sum over a box
that misses the members' best masks.
"""

import random
from fractions import Fraction

import pytest

from latnash import equilibria, gallery, games
from latnash.games import RandomGameSpec, random_supermodular_game

SEEDS = range(0, 200, 3)
CASES = ([("gallery", name) for name in sorted(gallery.GAME_FIXTURES)]
         + [("mixed", seed) for seed in SEEDS] + [("sublattice", seed) for seed in SEEDS])


def _game(source, key):
    if source == "gallery":
        return gallery.load_fixture(key)
    spec = RandomGameSpec() if source == "mixed" else RandomGameSpec(feasibility="sublattice")
    return random_supermodular_game(spec, key)


def _renders(g):
    report = equilibria.equilibrium_report(g)
    return (games.validate_supermodular(g).render(), report.to_text(), report.to_dot(),
            equilibria.tarski_zhou_check(g).render())


def _rebuilt(g, payoffs, feasible=None):
    return games.Game(g.players, g.lattices, g.feasible if feasible is None else feasible,
                      payoffs, name=g.name)


def _add_rest_terms(g, rng):
    shifted = {}
    for i, p in enumerate(g.players):
        terms = {}  # rest -> the rational added at it
        table = shifted[p] = {}
        for x, v in g.payoffs[p].items():
            rest = x[:i] + x[i + 1:]
            if rest not in terms:
                terms[rest] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            table[x] = v + terms[rest]
    return _rebuilt(g, shifted)


def _affine(g, rng):
    a, b = Fraction(rng.randint(1, 7), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), 5)
    return _rebuilt(g, {p: {x: a * v + b for x, v in table.items()}
                        for p, table in g.payoffs.items()})


def _shuffled(g, rng):
    feasible = list(g.feasible)
    rng.shuffle(feasible)
    payoffs = {}
    for p, table in g.payoffs.items():
        entries = list(table.items())
        rng.shuffle(entries)
        payoffs[p] = dict(entries)
    return _rebuilt(g, payoffs, feasible)


@pytest.mark.parametrize("source, key", CASES, ids=[f"{s}-{k}" for s, k in CASES])
def test_relations_keep_every_render(source, key):
    rng = random.Random(f"{source}-{key}")
    want = _renders(_game(source, key))
    for relation in (_add_rest_terms, _affine, _shuffled):
        assert _renders(relation(_game(source, key), rng)) == want, relation.__name__
