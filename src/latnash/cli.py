"""Command-line front end.

Exit codes are stable across commands: 0 success, 1 analysis-level
failure (a verdict or hypothesis did not hold), 2 usage, IO or parse
errors, or running out of memory.  All output is deterministic given the
inputs, the seed and the flags; file reports start with the tool version
and the input digest.
"""

import argparse
import functools
import hashlib
import math
import random
import sys
from pathlib import Path

import latnash
from latnash import gallery, omega, topology
from latnash.equilibria import (
    equilibrium_report,
    extremal_equilibrium,
    validate_supermodular,
)
from latnash.errors import LatnashError, ParseError
from latnash.games import load_game
from latnash.order import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_PRODUCT_CAP,
    chain,
    random_lattice,
    random_sublattice,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str):
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    return text, _digest(raw)


def _header(path: str, digest: str, quiet: bool) -> str:
    if quiet:
        return ""
    return f"latnash {latnash.__version__}\ninput: {path} (sha256:{digest})\n\n"


def _load(args):
    """The game at args.path and its input digest.  The text is popped
    into the call of load_game, which frees it before it builds the game:
    no frame here holds it."""
    read = [*_read(args.path)]  # [text, digest]
    digest = read.pop()
    return load_game(read.pop(), source=args.path, product_cap=args.cap_product), digest


def cmd_check(args) -> int:
    game, digest = _load(args)
    report = validate_supermodular(game)
    sys.stdout.write(_header(args.path, digest, args.quiet))
    sys.stdout.write(report.render())
    return EXIT_OK if report.ok else EXIT_ANALYSIS


def cmd_equilibria(args) -> int:
    game, digest = _load(args)
    validation = validate_supermodular(game)
    out = [_header(args.path, digest, args.quiet)]

    if args.method == "iterate":
        if not validation.ok:
            sys.stdout.write(out[0])
            sys.stdout.write("cannot iterate: the game is not supermodular\n")
            sys.stdout.write(validation.render())
            return EXIT_ANALYSIS
        top, trace_top = extremal_equilibrium(game, "greatest")
        bot, trace_bot = extremal_equilibrium(game, "least")
        out.append(f"greatest equilibrium: {game.profile_label(top)}\n")
        out.append("trace: "
                   + " -> ".join(game.profile_label(p) for p in trace_top) + "\n")
        out.append(f"least equilibrium: {game.profile_label(bot)}\n")
        out.append("trace: "
                   + " -> ".join(game.profile_label(p) for p in trace_bot) + "\n")
        sys.stdout.write("".join(out))
        return EXIT_OK

    run_iteration = args.method == "both" and validation.ok
    report = equilibrium_report(game, validation, run_iteration=run_iteration,
                                exhaustive_cap=args.cap_exhaustive)
    if args.format in ("text", "both"):
        out.append(report.to_text())
        if run_iteration:
            out.append("cross-check (iteration vs brute force): ok\n")
    sys.stdout.write("".join(out))
    if args.format in ("dot", "both"):
        dot_path = Path(args.out or ".") / (Path(args.path).stem + ".dot")
        dot_path.parent.mkdir(parents=True, exist_ok=True)
        dot_path.write_text(report.to_dot(), encoding="utf-8")
        if not args.quiet:
            print(f"wrote {dot_path}")
    return EXIT_OK


def _verify_lemmas(args) -> bool:
    rng = random.Random(args.seed)
    trials = args.trials
    ok_restrict = 0
    for _ in range(trials):
        P = random_lattice(rng, max_size=8)
        Q = random_sublattice(rng, P)
        if topology.check_restriction_lemma(P, Q, exhaustive_cap=args.cap_exhaustive):
            ok_restrict += 1
    prod_trials = trials // 2
    ok_prod = 0
    for _ in range(prod_trials):
        while True:
            k = rng.randint(1, 3)
            sizes = [rng.randint(1, 4) for _ in range(k)]
            if math.prod(sizes) <= 12:
                break
        factors = [chain([str(v) for v in range(s)]) for s in sizes]
        if topology.check_product_interval_lemma(factors, product_cap=args.cap_product):
            ok_prod += 1
    if not args.quiet:
        print(f"interval topology restricts to sublattices: {ok_restrict}/{trials} ok")
        print(f"interval topology of products is the product topology: "
              f"{ok_prod}/{prod_trials} ok")
    return ok_restrict == trials and ok_prod == prod_trials


def _verify_counterexample(quiet: bool) -> bool:
    r1 = omega.refute_statement(1)
    r2 = omega.refute_statement(2)
    ok = (r1.subcomplete and r1.compact and not r1.closed and r1.refutes()
          and r2.compact and not r2.closed and r2.refutes())
    truncations_ok = True
    for n in range(1, 7):
        T = topology.interval_topology(omega.finite_truncation(n))
        if len(T.closed_masks) != 2 ** (n + 2):
            truncations_ok = False
    if not quiet:
        mark = lambda b: "✓" if b else "✗"
        print(f"subcomplete {mark(r1.subcomplete)} compact {mark(r1.compact)} "
              f"closed {mark(r1.closed)} "
              + ("- closure claims refuted" if ok else "- NOT refuted"))
        print("finite truncations n=1..6 have discrete interval topology: "
              + ("ok" if truncations_ok else "FAIL"))
    return ok and truncations_ok


def cmd_verify(args) -> int:
    ok = True
    if args.suite in ("lemmas", "all"):
        ok &= _verify_lemmas(args)
    if args.suite in ("counterexample", "all"):
        ok &= _verify_counterexample(args.quiet)
    if not args.quiet:
        print("verify:", "all checks passed" if ok else "FAILURES above")
    return EXIT_OK if ok else EXIT_ANALYSIS


def cmd_gallery(args) -> int:
    if args.name == "list":
        for name in gallery.names():
            print(name)
        return EXIT_OK
    text = gallery.fixture_text(args.name)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / gallery.fixture_filename(args.name)
    path.write_text(text, encoding="utf-8")
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later one in the process; parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="latnash",
        description="finite-lattice analysis of generalized supermodular games")
    parser.add_argument("--version", action="version",
                        version=f"latnash {latnash.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress headers and progress lines")
    common.add_argument("--cap-product", type=int, default=DEFAULT_PRODUCT_CAP,
                        help="maximum size of a game file's strategy product, and of "
                             "the product lattices that verify builds")
    common.add_argument("--cap-exhaustive", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                        help="maximum subset size for exhaustive subset checks")

    p = sub.add_parser("check", parents=[common],
                       help="validate the supermodular-game axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("equilibria", parents=[common],
                       help="compute and certify the equilibrium set")
    p.add_argument("path")
    p.add_argument("--method", choices=["brute", "iterate", "both"],
                   default="both")
    p.add_argument("--format", choices=["text", "dot", "both"], default="text")
    p.add_argument("--out", default=None, help="directory for dot output")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("verify", parents=[common],
                       help="run the lemma and counterexample checkers")
    p.add_argument("--suite", choices=["lemmas", "counterexample", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gallery", parents=[common],
                       help="list built-in fixtures or write one to disk")
    p.add_argument("name", help="fixture name, or 'list'")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cap_product <= 0 or args.cap_exhaustive <= 0:
        print("error: caps must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "trials", 0) < 0:
        print("error: --trials must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, LatnashError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
