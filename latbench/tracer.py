"""Spans around calls into latnash's public functions, recorded from outside.

Every binding of each listed function (its defining module, modules that
imported it by name, the package's re-exports, the kernel dispatch module)
is replaced by a wrapper that records a span: function, item, start, end
and the enclosing span.  Spans stay in memory and are written when the run
ends.  A span's self time is its duration minus the durations of the spans
it directly encloses.
"""

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "games": ["load_game", "serialize_game", "validate_supermodular", "section",
              "feasible_box", "best_response", "partial_response", "joint_response"],
    "equilibria": ["stable_set", "equilibria_bruteforce", "fixed_points",
                   "extremal_equilibrium", "individual_response_correspondence",
                   "group_response_correspondence", "equilibrium_report",
                   "tarski_zhou_check"],
    "order": ["build_poset", "product_poset", "induced_poset", "is_lattice",
              "is_sublattice", "is_subcomplete", "is_complete_lattice",
              "is_increasing_correspondence", "to_dot"],
    "_kernels": ["transitive_closure", "pair_scan", "family_close"],
    "topology": ["generate_topology", "interval_topology", "restrict",
                 "product_topology", "check_restriction_lemma",
                 "check_product_interval_lemma"],
    "omega": ["refute_statement", "finite_truncation"],
    "cli": ["main"],
    "gallery": ["fixture_text"],
}

class Tracer:
    def __init__(self):
        self.names = []        # function id -> metric prefix
        self.originals = []    # function id -> original function object
        self.spans = []        # [fid, item, start_ns, end_ns, parent span index]
        self.calls = []
        self.self_ns = []
        self._child_ns = []    # per open span: time covered by its children
        self._stack = []
        self.item = -1
        self.active = False
        self.profiles_scanned = 0
        self.response_keys = set()
        self.iteration_steps = 0
        self.closed_sets = 0
        self.exhaustive_subsets = 0

    def install(self):
        """Wrap every binding of each listed function in loaded latnash modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "latnash" or name.startswith("latnash."))]
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"latnash.{layer}"]
            for fn in fns:
                orig = getattr(mod, fn)
                wrapper = self._wrap(len(self.names), orig, fn)
                # metric names must start with a letter: "_kernels" -> "kernels"
                self.names.append(f"{layer.lstrip('_')}.{fn}")
                self.originals.append(orig)
                self.calls.append(0)
                self.self_ns.append(0)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def _wrap(self, fid, orig, fn):
        clock = time.perf_counter_ns
        post = getattr(self, f"_post_{fn}", None)
        pre = getattr(self, f"_pre_{fn}", None)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if pre is not None:
                pre(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [fid, self.item, 0, 0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._child_ns.append(0)
            span[2] = start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = end = clock()
                self._stack.pop()
                children = self._child_ns.pop()
                dur = end - start
                if self._child_ns:
                    self._child_ns[-1] += dur
                self.calls[fid] += 1
                self.self_ns[fid] += dur - children
            if post is not None:
                post(args, kwargs, out, parent)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    # -- work counts at the same boundaries --------------------------------

    def _pre_partial_response(self, args, kwargs):
        g, players, x = args[:3]
        self.response_keys.add((self.item, id(g), tuple(sorted(players)), tuple(x)))

    def _post_feasible_box(self, args, kwargs, out, parent):
        if parent >= 0 and self.names[self.spans[parent][0]] == "games.partial_response":
            self.profiles_scanned += len(out)

    def _post_extremal_equilibrium(self, args, kwargs, out, parent):
        self.iteration_steps += len(out[1])

    def _post_family_close(self, args, kwargs, out, parent):
        self.closed_sets += len(out)

    def _post_is_complete_lattice(self, args, kwargs, out, parent):
        if kwargs.get("exhaustive"):
            self.exhaustive_subsets += 2 ** len(args[0].elements) - 1

    # -- results -----------------------------------------------------------

    def metrics(self, items):
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_ms"] = self.self_ns[fid] / 1e6
        pr = self.names.index("games.partial_response")
        bf = self.names.index("equilibria.equilibria_bruteforce")
        out["games.partial_response.profiles_scanned"] = self.profiles_scanned
        out["games.partial_response.repeat_ratio"] = (
            self.calls[pr] / len(self.response_keys) if self.response_keys else 0.0)
        out["equilibria.equilibria_bruteforce.calls_per_item"] = self.calls[bf] / items
        out["equilibria.extremal_equilibrium.steps"] = self.iteration_steps
        out["kernels.family_close.closed_sets"] = self.closed_sets
        out["order.is_complete_lattice.exhaustive_subsets"] = self.exhaustive_subsets
        return out

    def profile_check(self, run):
        """Run ``run()`` once with ``sys.setprofile`` counting calls of the
        original code objects; return (wrapper counts, profiler counts)."""
        codes = {f.__code__: fid for fid, f in enumerate(self.originals)}
        seen = defaultdict(int)

        def hook(frame, event, arg):
            if event == "call":
                fid = codes.get(frame.f_code)
                if fid is not None:
                    seen[fid] += 1

        before = list(self.calls)
        kept = len(self.spans)
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        del self.spans[kept:]
        wrapped = {self.names[fid]: self.calls[fid] - before[fid]
                   for fid in range(len(self.names)) if self.calls[fid] != before[fid]}
        profiled = {self.names[fid]: n for fid, n in seen.items()}
        return wrapped, profiled

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names,
                       "fields": ["function", "item", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
