"""SHA-256 digests of the engine's outputs, pinned in tests/golden.json.

The cases are the gallery's `check` and `equilibria` output (every method,
text and DOT, with the default exhaustive cap and with cap 2), `verify`
with seeds 0 and 3, and for generated and hand-built games the validation
render, the report's text and DOT and the fixed-point audit.  The CLI runs
with `--quiet`, so no version or path is digested.  A change that alters
an output on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from latnash import cli, equilibria, gallery, games
from latnash.order import build_poset, chain

GOLDEN = Path(__file__).with_name("golden.json")
RANDOM_SEEDS = range(24)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n" + out.getvalue()


def _game(name, lattices, feasible, payoff):
    """A game on the given strategy lattices whose players' payoffs are
    ``payoff(i, profile)``."""
    players = [f"p{i + 1}" for i in range(len(lattices))]
    payoffs = {p: {x: Fraction(payoff(i, x)) for x in feasible}
               for i, p in enumerate(players)}
    return games.Game(players, dict(zip(players, lattices)), feasible, payoffs, name=name)


def _hand_built():
    # strategy lists out of linear-extension order: a reversed 3-chain and
    # N5 listed top first; payoffs supermodular, with five equilibria that
    # are a complete lattice but not a sublattice of S
    n5 = build_poset(["1", "a", "0", "c", "b"],
                     [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    h = [{"2": 2, "1": 1, "0": 0}, {"0": 0, "a": 1, "c": 1, "b": 2, "1": 3}]
    out_of_order = _game(
        "out-of-order", [build_poset(["2", "1", "0"], [("0", "1"), ("1", "2")]), n5],
        list(iter_product(["2", "1", "0"], n5.elements)),
        lambda i, x: h[0][x[0]] * h[1][x[1]] - (0 if i else 2 * h[0][x[0]]))
    # S misses (1,1), the join of (0,1) and (1,0)
    three = chain(["0", "1", "2"])
    not_sublattice = _game(
        "not-sublattice", [three, three],
        [x for x in iter_product("012", "012") if x != ("1", "1")],
        lambda i, x: (int(x[0]) - int(x[1])) * (1 if i else -1))
    # the diamond's two middle strategies pay more than its ends together
    diamond = build_poset(["m", "x", "y", "M"], [("m", "x"), ("m", "y"), ("x", "M"), ("y", "M")])
    mid = {"m": 0, "x": 2, "y": 2, "M": 1}
    not_supermodular = _game(
        "not-supermodular", [diamond, chain(["0", "1"])],
        list(iter_product(diamond.elements, "01")),
        lambda i, x: mid[x[0]] - 3 * int(x[1]) * mid[x[0]] if i == 0 else int(x[1]) * mid[x[0]])
    return [out_of_order, not_sublattice, not_supermodular]


def outputs(tmp: Path):
    """Case name -> output text."""
    cases = {}
    for name in gallery.names():
        if not gallery.fixture_filename(name).endswith(".json"):
            continue
        path = tmp / gallery.fixture_filename(name)
        path.write_text(gallery.fixture_text(name), encoding="utf-8")
        cases[f"check {name}"] = _cli(["check", str(path), "--quiet"])
        for method in ("brute", "iterate", "both"):
            for cap in ([], ["--cap-exhaustive", "2"]):
                case = f"equilibria {name} {method}" + (" cap 2" if cap else "")
                cases[case] = _cli(["equilibria", str(path), "--quiet", "--method", method,
                                    "--format", "both", "--out", str(tmp / "dot")] + cap)
                dot = tmp / "dot" / f"{path.stem}.dot"
                if dot.exists():
                    cases[case + " dot"] = dot.read_text(encoding="utf-8")
                    dot.unlink()
    for seed in (0, 3):
        cases[f"verify seed {seed}"] = _cli(["verify", "--seed", str(seed)])
    spec = games.RandomGameSpec()
    generated = [games.random_supermodular_game(spec, seed) for seed in RANDOM_SEEDS]
    for g in generated + _hand_built():
        validation = games.validate_supermodular(g)
        report = equilibria.equilibrium_report(g, validation)
        cases[f"{g.name} validation"] = validation.render()
        cases[f"{g.name} text"] = report.to_text()
        cases[f"{g.name} dot"] = report.to_dot()
        cases[f"{g.name} audit"] = equilibria.tarski_zhou_check(g).render()
        cases[f"{g.name} audit cap 2"] = equilibria.tarski_zhou_check(g, 2).render()
    return cases


def digests(tmp: Path):
    return {case: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for case, text in outputs(tmp).items()}


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
    print()
