"""Item lists of the three workloads, made from the workload seed.

Each workload is a fixed number of items in fixed cost classes; the seed
decides which instances fill each class.  Cost on this engine grows with
the work of one best-response sweep, so a game's class is set by
``W = players * sum over x in S of |box(x)|`` (box(x): the profiles whose
every coordinate is a feasible deviation at x), computed here from the
profile list.  Fixing how many items fall in each class keeps the sum,
the median and the tail of per-item times from swinging with how many
heavy instances a seed happens to draw.

The plan is plain JSON data: game documents, lattice descriptions and
argument vectors.  The passes rebuild everything from it.
"""

import math
import random

from latnash import gallery
from latnash.games import RandomGameSpec, random_supermodular_game, serialize_game
from latnash.order import random_lattice, random_sublattice

# corpus: (lowest, highest) quarter-octave of W, floor(4 * log2(W)), and
# how many games to take.  The median item falls in the middle of the
# 20-game class at 2^8 <= W < 2^8.25 (34 games below it, 34 above), and
# the tail item (the 11th largest) in the middle of the 14-game class at
# 2^11.5 <= W < 2^11.75.  Near the top, where single games weigh most,
# each quarter-octave has its own count, so that no seed draws more of
# the dearer shapes than another.  Heavier games (about 50 ms and up) are
# left out: such an item spans many changes of the shared host's speed,
# which the probes around it see only at its ends, and a few of them
# would outweigh the rest of a pass.
CORPUS_CLASSES = [
    ((0, 23), 11),
    ((24, 27), 11),
    ((28, 31), 12),
    ((32, 32), 20),
    ((33, 39), 6),
    ((40, 43), 6),
    ((44, 45), 4),
    ((46, 46), 14),
    ((47, 47), 4),
]
CORPUS_SEED_STRIDE = 1000  # workload seed s draws generator seeds 1000*s, 1000*s+1, ...
CORPUS_MAX_PROFILES = 48   # skipped unmeasured; in seeds 0-599 all such games have W >= 2^12

# topology: restriction-lemma instances per |P| and product-lemma instances
# per carrier size, drawn from the criterion-5 stream.  The median item
# falls in the middle of the 20 restrictions on 6-element lattices (65
# items below, 65 above) and the tail item in the middle of the 20
# products on 9 points.  12-point products (about 4 s each) are left out
# for the reason given above; the 8- and 9-point ones keep
# ``_kernels.family_close`` the dominant cost.
RESTRICTION_CLASSES = {2: 10, 3: 10, 4: 15, 5: 12, 6: 20, 7: 10, 8: 16}
PRODUCT_CLASSES = {1: 4, 2: 4, 3: 4, 4: 6, 6: 8, 8: 11, 9: 20}

# cli: small generated games of one shape (two players on 4-chains, full
# product, 16 profiles), so that their calls cost about the same whatever
# the seed, from generator seeds the corpus does not draw below seed 10,000.
CLI_SPEC = RandomGameSpec(players=(2, 2), chain_length=(4, 4), feasibility="product")
CLI_SEED_BASE = 10 ** 7
CLI_GAMES = 12

AMBIGUOUS_LABELS = """{
  "name": "ambiguous-labels",
  "players": ["p1", "p2"],
  "strategies": {
    "p1": {"elements": ["a", "a,b"], "order": [["a", "a,b"]]},
    "p2": {"elements": ["b,c", "c"], "order": [["b,c", "c"]]}
  },
  "feasible": "product",
  "payoffs": {
    "p1": {"a|b,c": "1", "a|c": "0", "a,b|b,c": "0", "a,b|c": "2"},
    "p2": {"a|b,c": "1", "a|c": "0", "a,b|b,c": "0", "a,b|c": "2"}
  }
}
"""


def box_work(g):
    """W for a generated game, from its profile tuples alone."""
    S = g.feasible
    n = len(g.players)
    feasible = set(S)
    sections = {}
    total = 0
    for x in S:
        secs = []
        for i in range(n):
            key = (i, x[:i] + x[i + 1:])
            if key not in sections:
                sections[key] = {y[i] for y in S if y[:i] + y[i + 1:] == key[1]}
            secs.append(sections[key])
        total += sum(1 for y in feasible if all(y[i] in secs[i] for i in range(n)))
    return n * total


def _quarter_octave(w):
    return int(4 * math.log2(w))


def draw_games(start, classes):
    """Scan generator seeds from ``start`` and fill each (lowest, highest)
    quarter-octave class of W with its count of games, in class order."""
    want = dict(classes)
    got = {cls: [] for cls in want}
    spec = RandomGameSpec()
    gen = start
    while any(len(got[c]) < want[c] for c in want):
        if gen >= start + CORPUS_SEED_STRIDE:
            raise RuntimeError(f"classes not filled by seeds {start}..{gen - 1}")
        g = random_supermodular_game(spec, gen)
        if len(g.feasible) <= CORPUS_MAX_PROFILES:
            b = _quarter_octave(box_work(g))
            for (lo, hi) in want:
                if lo <= b <= hi and len(got[(lo, hi)]) < want[(lo, hi)]:
                    got[(lo, hi)].append({"name": g.name, "gen_seed": gen,
                                          "text": serialize_game(g)})
                    break
        gen += 1
    return [it for cls, _ in classes for it in got[cls]]


def corpus_plan(seed):
    items = draw_games(seed * CORPUS_SEED_STRIDE, CORPUS_CLASSES)
    return {"workload": "corpus", "seed": seed, "items": items,
            "probe": len(items) // 2}


def topology_plan(seed):
    """Instances drawn like acceptance criterion 5 (seed 5 there)."""
    rng = random.Random(seed)
    need = dict(RESTRICTION_CLASSES)
    items = []
    while any(need.values()):
        P = random_lattice(rng, max_size=8)
        Q = random_sublattice(rng, P)
        if need.get(len(P), 0):
            need[len(P)] -= 1
            items.append({"kind": "restriction", "elements": list(P.elements),
                          "covers": [list(c) for c in P.covers()],
                          "Q": sorted(Q, key=P.index)})
    need = dict(PRODUCT_CLASSES)
    while any(need.values()):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        total = math.prod(sizes)
        if need.get(total, 0):
            need[total] -= 1
            items.append({"kind": "product", "sizes": sizes})
    # the probe item for the profiler cross-check: a small multi-factor product
    probe = min((math.prod(it["sizes"]), i) for i, it in enumerate(items)
                if it["kind"] == "product" and len(it["sizes"]) >= 2
                and math.prod(it["sizes"]) >= 4)[1]
    return {"workload": "topology", "seed": seed, "items": items, "probe": probe}


def cli_plan(seed):
    inputs = {"inputs/ambiguous-labels.json": AMBIGUOUS_LABELS}
    for gen in range(CLI_SEED_BASE + seed * CLI_GAMES, CLI_SEED_BASE + (seed + 1) * CLI_GAMES):
        inputs[f"inputs/seed-{gen}.json"] = serialize_game(random_supermodular_game(CLI_SPEC, gen))

    names = gallery.names()
    items = [{"kind": "gallery-list", "argv": ["gallery", "list"], "names": names}]
    game_files = []
    for name in names:
        path = f"gallery/{gallery.fixture_filename(name)}"
        items.append({"kind": "gallery", "argv": ["gallery", name, "--out", "gallery"],
                      "writes": path})
        if path.endswith(".json"):
            game_files.append(path)
    game_files += [p for p in inputs if p.startswith("inputs/seed-")]
    for path in game_files:
        stem = path.rsplit("/", 1)[1].removesuffix(".json")
        items.append({"kind": "check", "argv": ["check", path]})
        items.append({"kind": "equilibria", "argv": ["equilibria", path]})
        items.append({"kind": "equilibria",
                      "argv": ["equilibria", path, "--format", "both", "--out", "dot"],
                      "writes": f"dot/{stem}.dot"})
        items.append({"kind": "iterate", "argv": ["equilibria", path, "--method", "iterate"]})
    items.append({"kind": "verify", "argv": ["verify", "--suite", "counterexample"]})
    # Two calls the README says must exit 2 and that exit 0 today: product
    # labels that collide, and a zero cap that the cap guard skips.
    items.append({"kind": "usage-error", "argv": ["equilibria", "inputs/ambiguous-labels.json"]})
    items.append({"kind": "usage-error",
                  "argv": ["equilibria", "gallery/coordination.json", "--cap-product", "0"]})
    probe = next(i for i, it in enumerate(items)
                 if it["argv"][:2] == ["equilibria", "gallery/random-seeded.json"])
    return {"workload": "cli", "seed": seed, "items": items, "inputs": inputs,
            "probe": probe}


def make_plan(workload, seed):
    return {"corpus": corpus_plan, "topology": topology_plan, "cli": cli_plan}[workload](seed)


if __name__ == "__main__":
    # PYTHONPATH=src python3 latbench/plans.py WORKLOAD SEED  -> the plan as JSON
    import json
    import sys
    print(json.dumps(make_plan(sys.argv[1], int(sys.argv[2])), indent=1))
