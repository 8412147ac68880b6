"""Planted-error self-test of the benchmark's output checks.

    python3 latbench/selftest.py

Produces genuine outputs with latnash for one item of each workload,
confirms that the checks accept them, then plants one error at a time (a
dropped equilibrium, a flipped payoff, a wrong digest, ...) and confirms
that the matching check rejects it.  Exits 1 if any genuine output is
rejected or any planted error slips through.
"""

import copy
import json
import os
import shutil
import sys

import run

run.load_latnash()

import oracle  # noqa: E402
import worker  # noqa: E402
from latnash import gallery  # noqa: E402

failures = []


def expect(name, errors, planted):
    caught = bool(errors)
    ok = caught == planted
    print(f"{'ok  ' if ok else 'FAIL'} {name}: "
          f"{'rejected' if caught else 'accepted'}"
          + (f" ({errors[0]})" if caught else ""))
    if not ok:
        failures.append(name)


def corpus_cases():
    text = gallery.fixture_text("random-seeded")
    item = {"name": "random-seeded", "text": text}
    run_item, record, _ = worker._corpus({})
    rec = record(item, run_item(item))
    model = oracle.GameModel(text)
    expect("corpus: genuine output", oracle.check_corpus_item(model, rec), False)

    bad = copy.deepcopy(rec)
    bad["E"] = bad["E"][1:] if len(bad["E"]) > 1 else []
    expect("corpus: dropped equilibrium", oracle.check_corpus_item(model, bad), True)

    # raise a deviation's payoff above an equilibrium's, so the oracle's
    # Nash set no longer contains it
    doc = json.loads(text)
    x = tuple(rec["E"][0])
    for i, p in enumerate(model.players):
        devs = [y for y in model.deviations(i, x) if y != x]
        if devs:
            key = "|".join(devs[0])
            doc["payoffs"][p][key] = str(model.u[i][x] + 1)
            break
    flipped = oracle.GameModel(json.dumps(doc))
    expect("corpus: flipped payoff", oracle.check_corpus_item(flipped, rec), True)

    bad = copy.deepcopy(rec)
    bad["max"] = next(list(x) for x in model.S if list(x) != rec["max"])
    expect("corpus: wrong greatest equilibrium", oracle.check_corpus_item(model, bad), True)

    bad = copy.deepcopy(rec)
    bad["traces"]["least"] = list(reversed(bad["traces"]["least"])) + [bad["min"]]
    expect("corpus: non-monotone trace", oracle.check_corpus_item(model, bad), True)

    bad = dict(rec, audit_ok=False)
    expect("corpus: failed audit", oracle.check_corpus_item(model, bad), True)

    bad = dict(rec, dot=rec["dot"].replace("shape=box", "shape=ellipse", 1))
    expect("corpus: DOT box dropped", oracle.check_corpus_item(model, bad), True)


def topology_cases():
    item = {"kind": "product", "sizes": [2, 3]}
    run_item, record, extras = worker._topology({})
    rec = dict(record(item, run_item(item)), closed_counts=extras(item))
    expect("topology: genuine output", oracle.check_topology_item(item, rec), False)
    expect("topology: lemma false",
           oracle.check_topology_item(item, dict(rec, ok=False)), True)
    counts = [list(c) for c in rec["closed_counts"]]
    counts[-1][1] -= 1
    expect("topology: closed-set count not 2^n",
           oracle.check_topology_item(item, dict(rec, closed_counts=counts)), True)


def cli_cases():
    here = run.RUNS / "selftest"
    if here.exists():
        shutil.rmtree(here)
    here.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(here)
    try:
        plan = {"inputs": {}}
        run_item, record, _ = worker._cli(plan)
        items = [
            {"kind": "gallery", "argv": ["gallery", "random-seeded", "--out", "gallery"],
             "writes": "gallery/random-seeded.json"},
            {"kind": "check", "argv": ["check", "gallery/random-seeded.json"]},
            {"kind": "equilibria", "argv": ["equilibria", "gallery/random-seeded.json",
                                            "--format", "both", "--out", "dot"],
             "writes": "dot/random-seeded.dot"},
            {"kind": "iterate", "argv": ["equilibria", "gallery/random-seeded.json",
                                         "--method", "iterate"]},
        ]
        recs = [record(it, run_item(it)) for it in items]
        files = run.pass_files(here)
    finally:
        os.chdir(cwd)
        shutil.rmtree(here)
    for it, rec in zip(items, recs):
        expect(f"cli {it['kind']}: genuine output",
               oracle.check_cli_item(it, rec, files), False)

    chk, eq, it_ = recs[1], recs[2], items[2]
    digest = chk["stdout"].split("sha256:")[1][:64]
    wrong = "0" * 64 if digest != "0" * 64 else "1" * 64
    bad = dict(chk, stdout=chk["stdout"].replace(digest, wrong))
    expect("cli: wrong digest", oracle.check_cli_item(items[1], bad, files), True)
    expect("cli: wrong exit code",
           oracle.check_cli_item(items[1], dict(chk, exit=1), files), True)
    lines = eq["stdout"].split("\n")
    at = next(i for i, ln in enumerate(lines) if ln.startswith("equilibria ("))
    dropped = "\n".join(lines[:at + 1] + lines[at + 2:])
    expect("cli: dropped equilibrium",
           oracle.check_cli_item(it_, dict(eq, stdout=dropped), files), True)
    dot = files["dot/random-seeded.dot"].decode()
    node = next(ln for ln in dot.split("\n") if "shape=ellipse" in ln)
    bad_files = dict(files, **{"dot/random-seeded.dot": dot.replace(node + "\n", "").encode()})
    expect("cli: DOT node dropped", oracle.check_cli_item(it_, eq, bad_files), True)
    trace_line = next(ln for ln in recs[3]["stdout"].split("\n") if ln.startswith("trace: "))
    steps = trace_line.removeprefix("trace: ").split(" -> ")
    shuffled = "trace: " + " -> ".join(steps[::-1] + steps[:1])
    bad = dict(recs[3], stdout=recs[3]["stdout"].replace(trace_line, shuffled, 1))
    expect("cli: non-monotone trace", oracle.check_cli_item(items[3], bad, files), True)

    plan = {"workload": "cli", "items": items}
    passes = [{"records": recs}, {"records": recs}]
    expect("cli: identical passes", run.check(plan, passes, [files, files])[0], False)
    other = copy.deepcopy(recs)
    other[1]["stdout"] += " "
    passes = [{"records": recs}, {"records": other}]
    expect("cli: stdout differs across passes", run.check(plan, passes, [files, files])[0], True)


def tracer_cases():
    """The wrapper counts must equal sys.setprofile's counts of the same code
    objects; a binding the tracer missed makes them differ."""
    from latnash import topology
    from tracer import Tracer
    t = Tracer()
    t.install()
    run_item, _, _ = worker._topology({})
    item = {"kind": "product", "sizes": [2, 2]}
    t.active = True
    try:
        wrapped, profiled = t.profile_check(lambda: run_item(item))
        expect("trace: wrapper and profiler counts", [] if wrapped == profiled
               else [f"{wrapped} != {profiled}"], False)
        topology.interval_topology = topology.interval_topology.__wrapped__
        wrapped, profiled = t.profile_check(lambda: run_item(item))
        expect("trace: a binding left unwrapped", [] if wrapped == profiled
               else [f"{wrapped} != {profiled}"], True)
    finally:
        t.active = False


def main():
    corpus_cases()
    topology_cases()
    cli_cases()
    tracer_cases()
    if failures:
        print(f"{len(failures)} self-test case(s) failed: {failures}")
        sys.exit(1)
    print("all planted errors were caught")


if __name__ == "__main__":
    main()
