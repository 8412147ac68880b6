"""One pass over a workload's items, in a fresh interpreter.

Started by ``run.py`` once per pass, one pass at a time.  Reads the plan,
builds the pass's inputs, times each item on its own with
``time.perf_counter`` and writes times, outputs and peak memory to a JSON
file.  Output records are taken after each item's clock stops.

    python3 worker.py --plan PLAN.json --out RESULT.json [--extras] [--trace FILE]
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from fractions import Fraction
from pathlib import Path

import latnash
from latnash import _kernels, cli, equilibria, games, gallery, omega, order, topology  # noqa: F401

from tracer import Tracer


def _corpus(plan):
    def run(item):
        g = games.load_game(item["text"], source=item["name"])
        v = games.validate_supermodular(g)
        rep = equilibria.equilibrium_report(g, v)
        text, dot = rep.to_text(), rep.to_dot()
        audit = equilibria.tarski_zhou_check(g)
        return v, rep, text, dot, audit

    def record(item, out):
        v, rep, text, dot, audit = out
        as_list = lambda x: None if x is None else list(x)
        return {"valid": v.ok,
                "E": [list(e) for e in rep.equilibria],
                "max": as_list(rep.max_equilibrium),
                "min": as_list(rep.min_equilibrium),
                "traces": None if rep.traces is None else
                {k: [list(p) for p in t] for k, t in rep.traces.items()},
                "complete": bool(rep.induced_is_complete),
                "audit_ok": audit.ok,
                "audit_hyps": [r.ok for r in audit.hypotheses.values()],
                "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "dot": dot}

    return run, record, None


def _topology(plan):
    def lattices(item):
        if item["kind"] == "restriction":
            return [order.build_poset(item["elements"], item["covers"])]
        return [order.chain([str(v) for v in range(s)]) for s in item["sizes"]]

    def run(item):
        Ls = lattices(item)
        if item["kind"] == "restriction":
            return topology.check_restriction_lemma(Ls[0], item["Q"])
        return topology.check_product_interval_lemma(Ls)

    def record(item, out):
        return {"ok": out.ok}

    def extras(item):
        """Closed-set counts of the interval topology of every lattice the
        item involves; run after the timed items of one pass only."""
        Ls = lattices(item)
        if item["kind"] == "restriction":
            Ls.append(order.induced_poset(Ls[0], item["Q"]))
        else:
            Ls.append(order.product_poset(Ls))
        return [[len(L.elements), len(topology.interval_topology(L).closed_masks)]
                for L in Ls]

    return run, record, extras


def _cli(plan):
    for path, text in plan["inputs"].items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")

    def run(item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(item["argv"]))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def record(item, out):
        code, stdout, stderr = out
        return {"exit": code, "stdout": stdout, "stderr": stderr}

    return run, record, None


WORKLOADS = {"corpus": _corpus, "topology": _topology, "cli": _cli}


def host_probe():
    """Seconds for a fixed standard-library loop (exact-rational sums and
    dict stores, the operations latnash spends its time on).  Timed just
    before and just after each item, it measures how fast the shared host
    runs Python at that moment."""
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i, 7)
        seen[(i, i % 7)] = total
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--extras", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here; run traced")
    args = ap.parse_args()

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run, record, extras = WORKLOADS[plan["workload"]](plan)
    items = plan["items"]

    times, probes, records = [], [], []
    first_item = time.monotonic()
    for i, item in enumerate(items):
        before = host_probe()
        if i == 0:
            setup_probe = before
        if tracer:
            tracer.item, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            out = run(item)
        except Exception as e:  # an item that raises is a failed operation
            out, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if tracer:
            tracer.active = False
        times.append(t1 - t0)
        probes.append((before + host_probe()) / 2)
        records.append(record(item, out) if out is not None else {"error": error})
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"backend": _kernels.BACKEND, "latnash_file": latnash.__file__,
              "first_item_monotonic": first_item, "setup_probe": setup_probe,
              "times": times, "probes": probes, "records": records,
              "peak_rss_mb": peak_rss_kb / 1024}
    if args.extras and extras is not None:
        result["extras"] = [extras(item) for item in items]
    if tracer:
        result["layers"] = tracer.metrics(len(items))
        tracer.item, tracer.active = -1, True
        wrapped, profiled = tracer.profile_check(lambda: run(items[plan["probe"]]))
        tracer.active = False
        result["probe"] = {"item": plan["probe"], "wrapper_calls": wrapped,
                           "profiler_calls": profiled}
        tracer.write(args.trace)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
