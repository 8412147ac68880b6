"""Every report the package builds is read-only all the way down."""

import dataclasses
import importlib
import pkgutil
import random
from itertools import product as iter_product
from types import MappingProxyType

import latnash
from latnash import equilibria, gallery, games, omega, order, topology
from latnash.order import CheckResult


def mutable_parts(value, path="report", seen=None):
    """Where ``value`` holds a dict, a list or a set, as paths from it,
    walked through dataclass fields, tuples, frozensets and read-only
    mappings, keys included; a game, a poset or any other object is not
    walked into.  The dataclass types met are added to ``seen``."""
    if isinstance(value, (dict, list, set)):
        return [path]
    found = []
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if seen is not None:
            seen.add(type(value))
        for field in dataclasses.fields(value):
            found += mutable_parts(getattr(value, field.name), f"{path}.{field.name}", seen)
    elif isinstance(value, MappingProxyType):
        for key, item in value.items():
            found += mutable_parts(key, f"{path} key {key!r}", seen)
            found += mutable_parts(item, f"{path}[{key!r}]", seen)
    elif isinstance(value, (tuple, frozenset)):
        for j, item in enumerate(value):
            found += mutable_parts(item, f"{path}[{j}]", seen)
    return found


def test_mutable_report_parts_are_found():
    g = gallery.load_fixture("coordination")
    rep, audit = equilibria.equilibrium_report(g), equilibria.tarski_zhou_check(g)
    planted = [
        (dataclasses.replace(audit, hypotheses=dict(audit.hypotheses)), "report.hypotheses"),
        (dataclasses.replace(rep, traces=MappingProxyType(
            {"greatest": list(rep.traces["greatest"]), "least": rep.traces["least"]})),
         "report.traces['greatest']"),
        (CheckResult(False, witness=(("0", "1"), {"0"})), "report.witness[1]"),
        (dataclasses.replace(rep, validation=dataclasses.replace(
            rep.validation, sections=MappingProxyType(
                {"p1": CheckResult(False, witness=[1])}))),
         "report.validation.sections['p1'].witness"),
    ]
    for report, path in planted:
        assert mutable_parts(report) == [path]
    # the game a report holds has dicts of its own, and is not walked into
    assert mutable_parts(rep) == mutable_parts(equilibria.equilibria_bruteforce(g)) == []


def _random_games():
    """A few games beside the gallery: generated supermodular ones, and
    products and subsets of random lattices with random payoffs, which
    often fail the axioms and name witnesses."""
    out = [games.random_supermodular_game(games.RandomGameSpec(), seed) for seed in range(6)]
    for seed in range(6):
        rng = random.Random(seed)
        lats = [order.random_lattice(rng, max_size=4) for _ in range(rng.randint(1, 3))]
        players = [f"p{i + 1}" for i in range(len(lats))]
        S = list(iter_product(*(L.elements for L in lats)))
        if seed % 2:
            S = [x for x in S if rng.random() < 0.8] or S
        try:
            out.append(games.Game(players, dict(zip(players, lats)), S,
                                  {p: {x: rng.randint(-2, 2) for x in S} for p in players}))
        except games.NonSurjectiveProjection:
            continue
    return out


def test_every_report_is_read_only():
    # every report dataclass of the package, built on the gallery, on a
    # few random games, by the topology lemmas and by omega, holds no
    # dict, list or set, so nothing it hands out can change it; only the
    # random generator's spec, an input, is left out
    reports = []
    for g in [gallery.load_fixture(name) for name in sorted(gallery.GAME_FIXTURES)] + \
            _random_games():
        reports += [games.validate_supermodular(g), equilibria.equilibria_bruteforce(g),
                    equilibria.tarski_zhou_check(g), equilibria.tarski_zhou_check(g, 1),
                    equilibria.equilibrium_report(g),
                    equilibria.equilibrium_report(g, run_iteration=False, exhaustive_cap=1)]
    L = order.random_lattice(random.Random(3), max_size=6)
    reports += [topology.check_restriction_lemma(L, L.elements),
                topology.check_product_interval_lemma([L, order.chain(["0", "1"])]),
                omega.refute_statement(1), omega.refute_statement(2)]
    seen = set()
    assert [path for r in reports for path in mutable_parts(r, seen=seen)] == []
    modules = [importlib.import_module(f"latnash.{m.name}")
               for m in pkgutil.iter_modules(latnash.__path__)]
    declared = {cls for module in modules for cls in vars(module).values()
                if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__}
    assert seen == declared - {games.RandomGameSpec}
    # traces and failing verdicts, with their witnesses, were walked
    assert any(r.traces is not None for r in reports
               if isinstance(r, equilibria.EquilibriumReport))
    assert any(not r.ok for r in reports if isinstance(r, games.ValidationReport))
    assert any(not r.ok for r in reports if isinstance(r, equilibria.FixedPointAudit))
