"""The names the benchmark (latbench/) binds in latnash must keep existing.

latbench/tracer.py wraps every function listed in its LAYERS table, and
latbench/run.py refuses a pass unless the kernel backend is named "pure".
latbench/worker.py runs each workload's items; its item code is run here
on one hand-built item per kind, so a changed call shape fails in the
suite.  latbench/plans.py builds each workload's items from the random
generators; the digests of its plans at one seed are pinned here, so a
generator that draws other sets or leaves another random state fails in
the suite.  A traced worker run on the corpus plan must count each traced
function's calls the same in its wrappers and in a profiler, the check
latbench/run.py refuses a traced run on.  The latbench modules are loaded
from their files or run as scripts, and only read.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import latnash
from latnash import _kernels, gallery
from latnash.games import RandomGameSpec, random_supermodular_game, serialize_game

LATBENCH = Path(__file__).resolve().parents[1] / "latbench"
TRACER = LATBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _load("latbench_tracer", TRACER).LAYERS


def test_every_traced_function_exists():
    layers = _layers()
    assert layers
    for layer, fns in layers.items():
        mod = importlib.import_module(f"latnash.{layer}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"latnash.{layer}.{fn}"


def test_every_traced_function_is_plain():
    # the tracer's profile check matches calls by each function's __code__;
    # a cache decorator would hide the code object or wrap it in another
    for layer, fns in _layers().items():
        mod = importlib.import_module(f"latnash.{layer}")
        for fn in fns:
            f = getattr(mod, fn)
            assert isinstance(f, types.FunctionType), f"latnash.{layer}.{fn}"
            assert hasattr(f, "__code__") and not hasattr(f, "__wrapped__"), \
                f"latnash.{layer}.{fn}"


def test_backend_is_pure():
    assert _kernels.BACKEND == "pure"


def _worker(monkeypatch):
    # worker.py imports its tracer as a top-level module
    monkeypatch.syspath_prepend(str(LATBENCH))
    return _load("latbench_worker", LATBENCH / "worker.py")


# SHA-256 of json.dumps(make_plan(workload, 7)); the same under any
# PYTHONHASHSEED
PLAN_DIGESTS = {
    "corpus": "4572a481bcec609fee0d2a0859a5d83440e3e74a2937eac26c03fa8e939a7938",
    "topology": "1954bc3cadab6d0fa39d108498573367c243b01a52c520384b948e2c58cd43bc",
    "cli": "34e0527ea039748b45b16267f0412fcaeb06df18a063d60ebedd47bd048efa83",
}


@pytest.mark.parametrize("workload", sorted(PLAN_DIGESTS))
def test_plans_are_pinned(workload):
    plan = _load("latbench_plans", LATBENCH / "plans.py").make_plan(workload, 7)
    assert hashlib.sha256(json.dumps(plan).encode()).hexdigest() == PLAN_DIGESTS[workload]


DIAMOND = {"elements": ["0", "a", "b", "1"],
           "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}

# random-seeded has a product S, so only the separable argmax runs on it;
# the grown S (30 of 36 profiles) also has boxes that miss the members'
# best masks, which are scanned
GROWN = random_supermodular_game(RandomGameSpec(feasibility="sublattice"), 9)

PLANS = {
    "corpus": {"items": [{"name": "random-seeded",
                          "text": gallery.fixture_text("random-seeded")},
                         {"name": GROWN.name, "text": serialize_game(GROWN)}]},
    "topology": {"items": [{"kind": "restriction", **DIAMOND, "Q": ["0", "a"]},
                           {"kind": "product", "sizes": [2, 3]}]},
    "cli": {"inputs": {"inputs/coordination.json": gallery.fixture_text("coordination")},
            "items": [{"kind": "check", "argv": ["check", "inputs/coordination.json"]}]},
}


@pytest.mark.parametrize("workload", sorted(PLANS))
def test_worker_items_run(workload, monkeypatch, tmp_path):
    worker = _worker(monkeypatch)
    assert sorted(worker.WORKLOADS) == sorted(PLANS)
    monkeypatch.chdir(tmp_path)  # the cli workload writes its inputs here
    plan = {"workload": workload, **PLANS[workload]}
    run, record, extras = worker.WORKLOADS[workload](plan)
    for item in plan["items"]:
        rec = record(item, run(item))
        assert "error" not in rec
        if extras is not None:
            assert extras(item)
    if workload == "cli":
        assert rec["exit"] == 0 and rec["stdout"] and not rec["stderr"]


def test_traced_worker_counts_calls_like_the_profiler(tmp_path):
    # a traced function reached through a binding the tracer did not
    # replace (an alias, a default argument, a partial) is counted by the
    # profiler only
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"workload": "corpus", "probe": 1, **PLANS["corpus"]}),
                    encoding="utf-8")
    src = str(Path(latnash.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, str(LATBENCH / "worker.py"), "--plan", str(plan),
                    "--out", str(out), "--trace", str(tmp_path / "spans.json")],
                   env=env, check=True, timeout=120)
    result = json.loads(out.read_text(encoding="utf-8"))
    assert not any("error" in rec for rec in result["records"])
    probe = result["probe"]
    assert probe["item"] == 1 and probe["wrapper_calls"]
    assert probe["wrapper_calls"] == probe["profiler_calls"]
