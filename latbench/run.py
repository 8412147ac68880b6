"""End-to-end benchmark of latnash on the pure-Python kernel backend.

    python3 latbench/run.py --workload corpus|topology|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The item list of the workload is made
from the seed (see plans.py), then passes over the whole list run one
after another, each in a fresh interpreter with ``LATNASH_PURE=1`` and its
own ``PYTHONHASHSEED``.  No state crosses passes; every item starts from
its document text or its seed.

The host is shared and its speed for Python code swings by up to 2x over
seconds, so wall times are scaled to a reference speed: a fixed
standard-library loop (worker.host_probe) is timed just before and just
after each item, and the item's time is scaled by PROBE_REF_S over the
mean of the two.  An item's time is the median of its scaled times over
the passes; set-up time is scaled by the probe that follows it.

Outputs are checked against oracle.py, which shares no code with latnash,
and every pass must produce the same outputs.  The last line of stdout is
one JSON object with the verdict, the operation counts and the metrics:
end-to-end ones with ``--trace 0``, per-layer ones from an untraced and
a traced pass with ``--trace 1``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

WORKLOADS = ("corpus", "topology", "cli")
# Seconds one untraced pass takes on the reference host (2 vCPU, Python
# 3.11, pure backend).  --seconds buys round(seconds / this) passes, at
# least three, so a run measures about --seconds there and is never cut
# off mid-pass.
NOMINAL_PASS_S = {"corpus": 1.6, "topology": 1.5, "cli": 0.35}
MIN_PASSES = 3
MAX_PASSES = 15
PASS_TIMEOUT_S = 150
# worker.host_probe's time on the reference host when it runs at full
# speed (its 5th percentile over three 25-second runs was 0.60-0.63 ms).
PROBE_REF_S = 0.6e-3

E2E_UNITS = {"items_per_s": "items/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_ms": "ms", "_pct": "%", "_ratio": "ratio", "_per_item": "calls/item"}


def fail(msg):
    print(f"latbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_latnash():
    """Import latnash from this checkout's sources, never from elsewhere."""
    if not (SRC / "latnash" / "__init__.py").is_file():
        fail(f"no latnash sources under {SRC}")
    os.environ["LATNASH_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    import latnash
    if Path(latnash.__file__).resolve().parent != (SRC / "latnash").resolve():
        fail(f"imported latnash from {latnash.__file__}, not from {SRC}")


def run_pass(workdir, plan_path, index, extras=False, trace=None):
    """One pass in a fresh interpreter; returns its result and set-up time."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir.parent / f"{workdir.name}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--plan", str(plan_path),
           "--out", str(out)]
    if extras:
        cmd.append("--extras")
    if trace:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, LATNASH_PURE="1", PYTHONHASHSEED=str(index + 1),
               PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"pass {index} exited {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result["latnash_file"]).resolve().parent != (SRC / "latnash").resolve():
        fail(f"pass {index} imported latnash from {result['latnash_file']}")
    if result["backend"] != "pure":
        fail(f"pass {index} ran the {result['backend']} backend")
    result["setup_s"] = result["first_item_monotonic"] - spawned
    return result


def pass_files(workdir):
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def check(plan, passes, files):
    """Oracle checks on the first pass, then equality of every pass with it.
    Returns (errors, failed operations per pass)."""
    items = plan["items"]
    first = passes[0]["records"]
    errors, failed = [], 0
    for i, (item, rec) in enumerate(zip(items, first)):
        if "error" in rec:
            failed += 1
            print(f"latbench: item {i} failed: {rec['error']}", file=sys.stderr)
            continue
        if plan["workload"] == "corpus":
            errs = oracle.check_corpus_item(oracle.GameModel(item["text"]), rec)
        elif plan["workload"] == "topology":
            extra = passes[0].get("extras")
            rec = dict(rec, closed_counts=extra[i] if extra else [])
            errs = oracle.check_topology_item(item, rec)
        elif item["kind"] == "usage-error":
            if rec["exit"] != 2:
                failed += 1
            continue
        else:
            errs = oracle.check_cli_item(item, rec, files[0])
        errors += [f"item {i} ({item.get('name') or item.get('argv') or item['kind']}): {e}"
                   for e in errs]
    for k, p in enumerate(passes[1:], 1):
        for i, (a, b) in enumerate(zip(first, p["records"])):
            if a != b:
                errors.append(f"item {i}: pass {k} output differs from pass 0")
        if files[k] != files[0]:
            errors.append(f"pass {k} wrote different files than pass 0")
    return errors, failed


def tail(sorted_values):
    """The value at the highest percentile with at least ten values above it."""
    return sorted_values[len(sorted_values) - 11]


def item_times(passes):
    """Each item's time: the median over passes of its wall time scaled to
    the reference host speed, ``time * PROBE_REF_S / probe``."""
    return [statistics.median(t * PROBE_REF_S / c for t, c in pairs)
            for pairs in zip(*(zip(p["times"], p["probes"]) for p in passes))]


def end_to_end(passes):
    times = item_times(passes)
    return {"items_per_s": len(times) / sum(times),
            "item_p50_ms": statistics.median(times) * 1e3,
            "item_tail_ms": tail(sorted(times)) * 1e3,
            "setup_s": statistics.median(p["setup_s"] * PROBE_REF_S / p["setup_probe"]
                                         for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_latnash()
    import plans

    rundir = RUNS / args.workload
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    plan = plans.make_plan(args.workload, args.seed)
    plan_path = rundir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    n_items = len(plan["items"])

    if args.trace:
        # one untraced pass, then one traced pass over the same items
        untraced = run_pass(rundir / "pass0", plan_path, 0, extras=True)
        traced = run_pass(rundir / "pass1", plan_path, 1, trace=rundir / "trace.json")
        passes = [untraced, traced]
    else:
        count = max(MIN_PASSES, min(MAX_PASSES,
                                    round(args.seconds / NOMINAL_PASS_S[args.workload])))
        passes = [run_pass(rundir / f"pass{k}", plan_path, k, extras=(k == 0))
                  for k in range(count)]
    files = [pass_files(rundir / f"pass{k}") for k in range(len(passes))]
    errors, failed = check(plan, passes, files)

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_pct"] = 100 * (sum(item_times([traced]))
                                               / sum(item_times([untraced])) - 1)
        probe = traced["probe"]
        if probe["wrapper_calls"] != probe["profiler_calls"]:
            errors.append(f"wrapper call counts {probe['wrapper_calls']} differ from "
                          f"sys.setprofile counts {probe['profiler_calls']} on item {probe['item']}")
        units = {name: next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)),
                            "count")
                 for name in metrics}
    else:
        metrics = end_to_end(passes)
        units = E2E_UNITS

    for e in errors:
        print(f"latbench: CHECK FAILED: {e}", file=sys.stderr)
    for k in range(len(passes)):
        shutil.rmtree(rundir / f"pass{k}")
    print(f"latbench {args.workload} seed={args.seed} backend={passes[0]['backend']} "
          f"items={n_items} passes={len(passes)} failed_per_pass={failed}")
    print(json.dumps({
        "correct": not errors,
        "attempted": n_items * len(passes),
        "failed": failed * len(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
