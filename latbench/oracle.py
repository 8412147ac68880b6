"""Output checks that share no code with latnash.

Everything here is recomputed from the game document with the standard
library only: ``json`` for the file, ``fractions.Fraction`` for payoffs,
plain dicts and sets for orders.  Each ``check_*`` function returns a list
of error strings; an empty list means the output passed.
"""

import hashlib
import json
import re
from fractions import Fraction
from itertools import product


class GameModel:
    """A game document read naively: strategy orders as up-set dicts."""

    def __init__(self, text):
        doc = json.loads(text)
        self.players = list(doc["players"])
        self.ups = []
        for p in self.players:
            entry = doc["strategies"][p]
            up = {e: {e} for e in entry["elements"]}
            for a, b in entry["order"]:
                up[a].add(b)
            changed = True
            while changed:
                changed = False
                for e in up:
                    grown = set().union(*(up[f] for f in up[e]))
                    if grown != up[e]:
                        up[e] = grown
                        changed = True
            self.ups.append(up)
        if doc["feasible"] == "product":
            self.S = [tuple(x) for x in product(*(list(u) for u in self.ups))]
        else:
            self.S = [tuple(x) for x in doc["feasible"]]
        self.S_set = set(self.S)
        self.u = [{tuple(k.split("|")): Fraction(v)
                   for k, v in doc["payoffs"][p].items()}
                  for p in self.players]

    # -- order ---------------------------------------------------------------

    def label(self, x):
        return x[0] if len(x) == 1 else "(" + ",".join(x) + ")"

    def leq(self, x, y):
        return all(b in up[a] for up, a, b in zip(self.ups, x, y))

    def greatest(self, xs):
        for c in xs:
            if all(self.leq(y, c) for y in xs):
                return c
        return None

    def least(self, xs):
        for c in xs:
            if all(self.leq(c, y) for y in xs):
                return c
        return None

    def is_lattice(self, xs):
        """Every pair of xs has a least upper and a greatest lower bound
        inside xs (the induced order); for a finite nonempty set this is
        completeness."""
        for a in xs:
            for b in xs:
                ub = [c for c in xs if self.leq(a, c) and self.leq(b, c)]
                lb = [c for c in xs if self.leq(c, a) and self.leq(c, b)]
                if self.least(ub) is None or self.greatest(lb) is None:
                    return False
        return True

    def componentwise(self, xs, pick):
        """Componentwise max (pick=max) or min (pick=min) of profiles, taken
        on chain heights."""
        return tuple(next(e for e, h in hs.items() if h == pick(hs[x[i]] for x in xs))
                     for i, hs in enumerate(self.chain_positions()))

    def chain_positions(self):
        """Per player: element -> height, when every strategy set is a chain."""
        out = []
        for up in self.ups:
            for a in up:
                for b in up:
                    if b not in up[a] and a not in up[b]:
                        return None
            out.append({e: len(up) - len(up[e]) for e in up})
        return out

    # -- game ----------------------------------------------------------------

    def deviations(self, i, x):
        return [x[:i] + (s,) + x[i + 1:] for s in self.ups[i]
                if x[:i] + (s,) + x[i + 1:] in self.S_set]

    def nash(self):
        """Profiles of S where no player gains by a feasible deviation."""
        return [x for x in self.S
                if all(self.u[i][y] <= self.u[i][x]
                       for i in range(len(self.players))
                       for y in self.deviations(i, x))]

    def supermodular(self):
        """Supermodular-game axioms for a game on chains: S closed under
        componentwise max and min, and increasing differences between a
        player's own strategy and the others' joint strategy."""
        pos = self.chain_positions()
        if pos is None:
            raise ValueError("supermodularity oracle needs chain strategy sets")
        n = len(self.players)
        inv = [{h: e for e, h in p.items()} for p in pos]
        for x in self.S:
            for y in self.S:
                hi = tuple(inv[i][max(pos[i][x[i]], pos[i][y[i]])] for i in range(n))
                lo = tuple(inv[i][min(pos[i][x[i]], pos[i][y[i]])] for i in range(n))
                if hi not in self.S_set or lo not in self.S_set:
                    return False
        for i in range(n):
            rests = {x[:i] + x[i + 1:] for x in self.S}
            own = sorted(pos[i], key=pos[i].get)
            for t in rests:
                for t2 in rests:
                    if t == t2 or not all(pos[j + (j >= i)][a] <= pos[j + (j >= i)][b]
                                          for j, (a, b) in enumerate(zip(t, t2))):
                        continue
                    for ai, a in enumerate(own):
                        for b in own[ai + 1:]:
                            at, bt = t[:i] + (a,) + t[i:], t[:i] + (b,) + t[i:]
                            at2, bt2 = t2[:i] + (a,) + t2[i:], t2[:i] + (b,) + t2[i:]
                            if not {at, bt, at2, bt2} <= self.S_set:
                                continue
                            if self.u[i][bt2] - self.u[i][at2] < self.u[i][bt] - self.u[i][at]:
                                return False
        return True


def _profiles(seq):
    return [tuple(x) for x in seq]


def _monotone_trace(model, trace, start, end, down):
    errs = []
    if not trace or trace[0] != start:
        errs.append(f"trace does not start at {start}")
    if trace and trace[-1] != end:
        errs.append(f"trace ends at {trace[-1]}, not at {end}")
    for a, b in zip(trace, trace[1:]):
        step_ok = model.leq(b, a) if down else model.leq(a, b)
        if a == b or not step_ok:
            errs.append(f"trace step {a} -> {b} is not strictly monotone")
    return errs


_DOT_NODE = re.compile(r'^  "([^"]*)" \[label="[^"]*", shape=(box|ellipse)\];$')


def check_dot(model, E, dot):
    """The Hasse diagram has one node per profile of S, the equilibria boxed."""
    nodes, boxes = [], []
    for line in dot.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            nodes.append(m.group(1))
            if m.group(2) == "box":
                boxes.append(m.group(1))
    errs = []
    if sorted(nodes) != sorted(model.label(x) for x in model.S):
        errs.append(f"DOT has {len(nodes)} nodes, S has {len(model.S)} profiles")
    if sorted(boxes) != sorted(model.label(x) for x in E):
        errs.append(f"DOT boxes {len(boxes)} nodes, E has {len(E)} profiles")
    return errs


def check_corpus_item(model, rec):
    """One corpus game: equilibrium set, its lattice structure, extremes,
    iteration traces, the fixed-point audit and the DOT rendering."""
    E = model.nash()
    errs = []
    got = _profiles(rec["E"])
    if sorted(got) != sorted(E) or len(set(got)) != len(got):
        errs.append(f"equilibria {got} differ from the Nash oracle {E}")
    if not E:
        errs.append("equilibrium set is empty")
        return errs
    if not model.is_lattice(E):
        errs.append("E is not a complete lattice in the induced order")
    if rec["valid"] != model.supermodular():
        errs.append(f"supermodular verdict {rec['valid']} disagrees with the oracle")
    top_E, bot_E = model.componentwise(E, max), model.componentwise(E, min)
    top_S, bot_S = model.componentwise(model.S, max), model.componentwise(model.S, min)
    if tuple(rec["max"] or ()) != top_E:
        errs.append(f"greatest equilibrium {rec['max']} is not the componentwise max {top_E}")
    if tuple(rec["min"] or ()) != bot_E:
        errs.append(f"least equilibrium {rec['min']} is not the componentwise min {bot_E}")
    traces = rec["traces"] or {}
    errs += _monotone_trace(model, _profiles(traces.get("greatest", [])),
                            top_S, top_E, down=True)
    errs += _monotone_trace(model, _profiles(traces.get("least", [])),
                            bot_S, bot_E, down=False)
    if not rec["complete"]:
        errs.append("report says E is not a complete lattice")
    if not rec["audit_ok"] or not all(rec["audit_hyps"]):
        errs.append("fixed-point audit is not ok")
    errs += check_dot(model, E, rec["dot"])
    return errs


def check_topology_item(item, rec):
    """Every lemma holds, and every finite lattice's interval topology is
    discrete: {x} is the intersection of the closed rays below and above x,
    so all 2^n subsets are closed."""
    errs = []
    if rec["ok"] is not True:
        errs.append(f"lemma returned {rec['ok']} on {item}")
    for n, count in rec.get("closed_counts", []):
        if count != 2 ** n:
            errs.append(f"interval topology of a {n}-element lattice has "
                        f"{count} closed sets, not {2 ** n}")
    return errs


def _header_digest(stdout, path, data):
    lines = stdout.split("\n")
    m = re.fullmatch(r"input: (.*) \(sha256:([0-9a-f]{64})\)", lines[1] if len(lines) > 1 else "")
    if not lines[0].startswith("latnash ") or not m:
        return ["report has no version/digest header"]
    if m.group(1) != path:
        return [f"header names {m.group(1)}, not {path}"]
    if m.group(2) != hashlib.sha256(data).hexdigest():
        return [f"header digest of {path} is not the sha256 of the file"]
    return []


_ARROW = " -> "


def _parse_label(label):
    return tuple(label[1:-1].split(",")) if label.startswith("(") else (label,)


def check_cli_item(item, rec, files):
    """One ``latnash`` call: exit code by the README contract, report
    header digest, listed equilibria, DOT file and iteration traces.
    ``files`` maps relative paths to the bytes the pass left on disk."""
    argv, kind = item["argv"], item["kind"]
    out, code = rec["stdout"], rec["exit"]
    errs = []
    if kind == "gallery-list":
        if code != 0 or out != "".join(n + "\n" for n in item["names"]):
            errs.append("gallery list does not print the fixture names")
        return errs
    if kind == "gallery":
        path = item["writes"]
        if code != 0 or out != f"wrote {path}\n" or path not in files:
            errs.append(f"gallery {argv[1]} did not write {path}")
        elif path.endswith(".json"):
            GameModel(files[path].decode("utf-8"))
        elif not files[path].strip():
            errs.append(f"gallery {argv[1]} wrote an empty report")
        return errs
    if kind == "verify":
        if code != 0 or not out.endswith("verify: all checks passed\n"):
            errs.append("verify --suite counterexample did not pass")
        return errs

    path = argv[1]
    data = files[path]
    model = GameModel(data.decode("utf-8"))
    supermodular = model.supermodular()
    E = model.nash()
    if kind == "check":
        want = 0 if supermodular else 1
        if code != want:
            errs.append(f"check {path} exited {code}, expected {want}")
        errs += _header_digest(out, path, data)
        verdict = "supermodular game: " + ("yes" if supermodular else "NO")
        if verdict not in out.split("\n"):
            errs.append(f"check {path} does not say '{verdict}'")
        return errs
    if kind == "equilibria":
        if code != 0:
            errs.append(f"equilibria {path} exited {code}, expected 0")
        errs += _header_digest(out, path, data)
        lines = out.split("\n")
        head = f"equilibria ({len(E)}):"
        if head not in lines:
            errs.append(f"equilibria {path}: no line '{head}'")
        else:
            at = lines.index(head) + 1
            listed = [ln.strip() for ln in lines[at:at + len(E)]]
            if sorted(listed) != sorted(model.label(x) for x in E):
                errs.append(f"equilibria {path}: listed {listed}, oracle {E}")
        dot = item.get("writes")
        if dot is None:
            return errs
        if dot not in files:
            errs.append(f"equilibria {path} wrote no {dot}")
        else:
            errs += check_dot(model, E, files[dot].decode("utf-8"))
        return errs
    if kind == "iterate":
        if not supermodular:
            if code != 1 or "cannot iterate" not in out:
                errs.append(f"iterate on non-supermodular {path} exited {code}")
            return errs
        if code != 0:
            errs.append(f"iterate {path} exited {code}, expected 0")
        errs += _header_digest(out, path, data)
        lines = out.split("\n")
        try:
            top = _parse_label(lines[3].removeprefix("greatest equilibrium: "))
            trace_top = [_parse_label(s) for s in lines[4].removeprefix("trace: ").split(_ARROW)]
            bot = _parse_label(lines[5].removeprefix("least equilibrium: "))
            trace_bot = [_parse_label(s) for s in lines[6].removeprefix("trace: ").split(_ARROW)]
        except IndexError:
            return errs + [f"iterate {path}: truncated output"]
        top_E, bot_E = model.componentwise(E, max), model.componentwise(E, min)
        if top != top_E or bot != bot_E:
            errs.append(f"iterate {path}: extremes {top}, {bot} are not E's "
                        f"componentwise max and min {top_E}, {bot_E}")
        errs += _monotone_trace(model, trace_top, model.componentwise(model.S, max),
                                top_E, down=True)
        errs += _monotone_trace(model, trace_bot, model.componentwise(model.S, min),
                                bot_E, down=False)
        return errs
    raise ValueError(f"unknown cli item kind {kind!r}")
