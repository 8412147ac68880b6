"""Generalized noncooperative games with explicit feasible sets.

A game holds per-player strategy lattices, a nonempty feasible set S of
joint profiles (not necessarily the full product), and exact-rational
payoffs on S.  Payoffs are :class:`fractions.Fraction`; floats are
rejected at the boundary so argmax sets and supermodularity verdicts are
exact.  For comparisons and sums the engine keeps a second copy of every
payoff as a Python int: all payoffs of a game times one common
denominator, the least common multiple over every player's payoffs.
Scaling by one positive constant is exact and keeps every order and every
sum of payoffs of different players, so argmax sets are unchanged.

Each response, the equilibrium oracle and the validation report are
computed once per game and cached on the game beside its sections; cached
values are tuples, frozensets and read-only mappings.

Profiles are tuples of strategy names in player order.  The canonical
ordering used everywhere (serialization, reports, witnesses) sorts
profiles by their per-player element indices.
"""

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from types import MappingProxyType

from latnash.errors import (
    DuplicateProfile,
    EmptyPlayerSet,
    GenerationFailed,
    InfeasibleProfile,
    MissingPayoff,
    NonSurjectiveProjection,
    NotALattice,
    ParseError,
    SpecOutOfRange,
    UnknownElement,
)
from latnash.order import (
    DEFAULT_PRODUCT_CAP,
    CheckResult,
    Poset,
    build_poset,
    chain,
    induced_poset,
    is_lattice,
    is_sublattice,
    product_element_name,
    product_poset,
)

# Characters a strategy name may not hold: "," joins product labels, "|"
# joins payoff keys, and '"' and "\\" would need escaping in DOT strings.
_SEPARATORS = (",", "|", '"', "\\")

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*|\.\d+)?$")


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a 'p/q' / decimal string."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"float payoff {value!r} rejected; write it as a string like '1/3' or '0.25'")
    if isinstance(value, str) and _RATIONAL.match(value):
        return Fraction(value)
    raise ParseError(f"not a rational value: {value!r}")


class Game:
    """Immutable game; all invariants are checked at construction."""

    def __init__(self, players, lattices, feasible, payoffs, name=None):
        self.name = name
        self.players = tuple(players)
        if not self.players:
            raise ParseError("a game needs at least one player")
        if len(set(self.players)) != len(self.players):
            raise ParseError("duplicate player names")
        self.lattices = dict(lattices)
        for p in self.players:
            if p not in self.lattices:
                raise ParseError(f"no strategy lattice for player {p!r}")
            lat = self.lattices[p]
            for strat in lat.elements:
                bad = next((c for c in _SEPARATORS if c in strat), None)
                if bad is not None:
                    raise ParseError(
                        f"strategy name {strat!r} of player {p!r} contains {bad!r}, "
                        "a separator in profile labels, payoff keys or DOT output")
            r = is_lattice(lat)
            if not r:
                raise NotALattice(
                    f"strategy poset of player {p!r} is not a lattice "
                    f"(witness {r.witness[:2]})")
        self._pos = {p: i for i, p in enumerate(self.players)}
        self._carriers = [self.lattices[p].elements for p in self.players]

        profiles = []
        seen = set()
        for prof in feasible:
            prof = tuple(prof)
            if len(prof) != len(self.players):
                raise ParseError(f"profile {prof} has wrong arity")
            for i, s in enumerate(prof):
                if s not in self.lattices[self.players[i]]:
                    raise UnknownElement(
                        f"profile {prof} uses unknown strategy {s!r} "
                        f"for player {self.players[i]!r}")
            if prof in seen:
                raise DuplicateProfile(f"profile {prof} listed twice")
            seen.add(prof)
            profiles.append(prof)
        if not profiles:
            raise ParseError("the feasible set is empty")
        profiles.sort(key=self.profile_key)
        self.feasible = tuple(profiles)
        self._feasible_set = frozenset(profiles)

        for i, p in enumerate(self.players):
            used = {prof[i] for prof in profiles}
            for s in self._carriers[i]:
                if s not in used:
                    raise NonSurjectiveProjection(
                        f"strategy {s!r} of player {p!r} appears in no feasible profile")

        self.payoffs = {}
        for p in self.players:
            if p not in payoffs:
                raise MissingPayoff(f"no payoffs for player {p!r}")
            table = {}
            for prof, val in payoffs[p].items():
                prof = tuple(prof)
                if prof not in self._feasible_set:
                    raise ParseError(
                        f"payoff given for infeasible profile {prof} (player {p!r})")
                table[prof] = val if isinstance(val, Fraction) else parse_rational(val)
            for prof in profiles:
                if prof not in table:
                    raise MissingPayoff(
                        f"player {p!r} has no payoff for profile {prof}")
            self.payoffs[p] = table
        scale = math.lcm(*{v.denominator for table in self.payoffs.values()
                           for v in table.values()})
        # one int table per player position, all scaled by the same factor
        self._scaled = tuple(
            {prof: v.numerator * (scale // v.denominator)
             for prof, v in self.payoffs[p].items()}
            for p in self.players)

        self._sections = {}
        self._responses = {}  # (sorted player positions, x) -> partial_response
        self._equilibria = None  # equilibria.equilibria_bruteforce, once computed
        self._validation = None  # validate_supermodular, once computed
        self._product = None
        self._induced_S = None
        self._projections = {}

    # -- bookkeeping ---------------------------------------------------------

    def profile_key(self, prof):
        return tuple(self.lattices[p].index(s)
                     for p, s in zip(self.players, prof))

    def player_pos(self, player) -> int:
        try:
            return self._pos[player]
        except KeyError:
            raise UnknownElement(f"unknown player {player!r}") from None

    def is_feasible(self, prof) -> bool:
        return tuple(prof) in self._feasible_set

    def payoff(self, player, prof) -> Fraction:
        return self.payoffs[player][tuple(prof)]

    def profile_label(self, prof) -> str:
        """Element name of the profile inside :meth:`product_lattice`.

        A one-player product is the strategy lattice itself, so labels are
        then bare strategy names.
        """
        if len(self.players) == 1:
            return prof[0]
        return product_element_name(prof)

    def product_lattice(self, cap: int = DEFAULT_PRODUCT_CAP) -> Poset:
        """Product of the strategy lattices; element names match
        :meth:`profile_label`.  Built once, under the size cap of the
        first call."""
        if self._product is None:
            self._product = product_poset(
                [self.lattices[p] for p in self.players], cap=cap)
        return self._product

    def feasible_poset(self) -> Poset:
        """The feasible set S under the product order."""
        if self._induced_S is None:
            self._induced_S = induced_poset(
                self.product_lattice(),
                [self.profile_label(prof) for prof in self.feasible])
        return self._induced_S

    def profile_leq(self, a, b) -> bool:
        return all(self.lattices[p].leq(x, y)
                   for p, x, y in zip(self.players, a, b))

    def profile_join(self, a, b):
        """Componentwise join in the product of strategy lattices."""
        return tuple(self.lattices[p].join(x, y)
                     for p, x, y in zip(self.players, a, b))

    def profile_meet(self, a, b):
        return tuple(self.lattices[p].meet(x, y)
                     for p, x, y in zip(self.players, a, b))

    def opponents_projection(self, player):
        """Image of S under dropping the player's coordinate, canonically
        ordered."""
        i = self.player_pos(player)
        if i not in self._projections:
            rests = {prof[:i] + prof[i + 1:] for prof in self.feasible}
            key = lambda rest: tuple(
                self.lattices[p].index(s)
                for p, s in zip(self.players[:i] + self.players[i + 1:], rest))
            self._projections[i] = tuple(sorted(rests, key=key))
        return self._projections[i]

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (self.players == other.players
                and all(self.lattices[p] == other.lattices[p] for p in self.players)
                and self.feasible == other.feasible
                and self.payoffs == other.payoffs
                and self.name == other.name)

    __hash__ = None

    def __repr__(self):
        label = self.name or "game"
        return (f"Game({label!r}: {len(self.players)} players, "
                f"|S|={len(self.feasible)})")


# --------------------------------------------------------------------------
# sections and responses


def section(g: Game, player, x):
    """Strategies the player can deviate to at x, in carrier order.

    Always contains the player's own coordinate of x.
    """
    x = tuple(x)
    if not g.is_feasible(x):
        raise InfeasibleProfile(f"profile {x} is not feasible")
    i = g.player_pos(player)
    rest = x[:i] + x[i + 1:]
    key = (i, rest)
    got = g._sections.get(key)
    if got is None:
        got = tuple(y for y in g.lattices[player].elements
                    if g.is_feasible(x[:i] + (y,) + x[i + 1:]))
        g._sections[key] = got
    return got


def feasible_box(g: Game, x):
    """Profiles of S whose every coordinate lies in the respective section
    at x; contains x itself."""
    x = tuple(x)
    if not g.is_feasible(x):
        raise InfeasibleProfile(f"profile {x} is not feasible")
    secs = [set(section(g, p, x)) for p in g.players]
    return tuple(y for y in g.feasible
                 if all(y[i] in secs[i] for i in range(len(g.players))))


def best_response(g: Game, player, x):
    """Argmax of the player's payoff over the section at x; ties kept."""
    x = tuple(x)
    i = g.player_pos(player)
    table = g._scaled[i]
    best = None
    out = []
    for y in section(g, player, x):
        v = table[x[:i] + (y,) + x[i + 1:]]
        if best is None or v > best:
            best = v
            out = [y]
        elif v == best:
            out.append(y)
    return tuple(out)


def partial_response(g: Game, players, x):
    """Argmax over the feasible box at x of the summed payoffs of the
    given nonempty player set, each payoff evaluated with the other
    coordinates of x held fixed.  Computed once per (player set, x)."""
    players = list(players)
    if not players:
        raise EmptyPlayerSet("player set is empty")
    idx = tuple(sorted({g.player_pos(p) for p in players}))
    x = tuple(x)
    key = (idx, x)
    got = g._responses.get(key)
    if got is not None:
        return got
    box = feasible_box(g, x)
    # member i's payoff at y depends on y[i] alone: tabulate it per deviation
    scores = []
    for i in idx:
        table = g._scaled[i]
        scores.append((i, {s: table[x[:i] + (s,) + x[i + 1:]]
                           for s in section(g, g.players[i], x)}))
    best = None
    out = []
    for y in box:
        v = 0
        for i, score in scores:
            v += score[y[i]]
        if best is None or v > best:
            best = v
            out = [y]
        elif v == best:
            out.append(y)
    got = g._responses[key] = tuple(out)
    return got


def joint_response(g: Game, x):
    """Feasible profiles that are componentwise individually best at x.

    May be empty when S is not in product form; emptiness is data here,
    not an error.
    """
    x = tuple(x)
    best = [set(best_response(g, p, x)) for p in g.players]
    return tuple(y for y in g.feasible
                 if all(y[i] in best[i] for i in range(len(g.players))))


# --------------------------------------------------------------------------
# supermodularity checks


def check_supermodular_sections(g: Game, player) -> CheckResult:
    """Supermodularity of the player's payoff on every section.

    Pairs already comparable in the strategy lattice satisfy the
    inequality with equality, so only incomparable pairs are examined.
    """
    i = g.player_pos(player)
    lat = g.lattices[player]
    table = g._scaled[i]
    seen_rests = set()
    for x in g.feasible:
        rest = x[:i] + x[i + 1:]
        if rest in seen_rests:
            continue
        seen_rests.add(rest)
        sec = section(g, player, x)
        in_sec = set(sec)
        for a_pos in range(len(sec)):
            y = sec[a_pos]
            for b_pos in range(a_pos + 1, len(sec)):
                z = sec[b_pos]
                if lat.comparable(y, z):
                    continue
                lo = lat.meet(y, z)
                hi = lat.join(y, z)
                if lo not in in_sec or hi not in in_sec:
                    return CheckResult(
                        False, witness=(player, x, y, z),
                        note="join/meet of a section pair leaves the section")
                make = lambda s: x[:i] + (s,) + x[i + 1:]
                if table[make(lo)] + table[make(hi)] < table[make(y)] + table[make(z)]:
                    return CheckResult(False, witness=(player, x, y, z))
    return CheckResult(True)


def check_increasing_differences(g: Game, player) -> CheckResult:
    """Increasing differences of the player's payoff between own strategy
    and opponents' joint strategy, quantified over strictly comparable
    pairs whose four combined profiles are all feasible."""
    i = g.player_pos(player)
    lat = g.lattices[player]
    table = g._scaled[i]
    own = lat.elements
    own_pairs = [(a, b) for a in own for b in own if a != b and lat.leq(a, b)]
    rests = g.opponents_projection(player)
    others = g.players[:i] + g.players[i + 1:]

    def rest_leq(t, t2):
        return all(g.lattices[p].leq(u, v) for p, u, v in zip(others, t, t2))

    def make(s, rest):
        return rest[:i] + (s,) + rest[i:]

    feas = g._feasible_set
    for t in rests:
        for t2 in rests:
            if t == t2 or not rest_leq(t, t2):
                continue
            for a, b in own_pairs:
                p_at = make(a, t)
                p_bt = make(b, t)
                p_at2 = make(a, t2)
                p_bt2 = make(b, t2)
                if not (p_at in feas and p_bt in feas
                        and p_at2 in feas and p_bt2 in feas):
                    continue
                if table[p_bt] + table[p_at2] > table[p_at] + table[p_bt2]:
                    return CheckResult(False, witness=(player, a, b, t, t2))
    return CheckResult(True)


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated supermodular-game verdicts with witnesses."""

    sublattice: CheckResult
    sections: MappingProxyType  # player -> CheckResult
    increasing_differences: MappingProxyType  # player -> CheckResult

    @property
    def ok(self) -> bool:
        return (self.sublattice.ok
                and all(r.ok for r in self.sections.values())
                and all(r.ok for r in self.increasing_differences.values()))

    def render(self) -> str:
        lines = []
        w = self.sublattice
        lines.append(f"feasible set is a sublattice of the product: {_verdict(w)}")
        for p, r in self.sections.items():
            lines.append(f"supermodular payoff on sections ({p}): {_verdict(r)}")
        for p, r in self.increasing_differences.items():
            lines.append(f"increasing differences ({p}): {_verdict(r)}")
        lines.append("supermodular game: " + ("yes" if self.ok else "NO"))
        return "\n".join(lines) + "\n"


def _verdict(r: CheckResult) -> str:
    if r.ok:
        return "ok"
    msg = f"FAIL, witness {r.witness}"
    if r.note:
        msg += f" ({r.note})"
    return msg


def validate_supermodular(g: Game) -> ValidationReport:
    """Check the three supermodular-game axioms and collect witnesses.

    Computed once per game; later calls return the same read-only value.
    """
    if g._validation is None:
        names = [g.profile_label(prof) for prof in g.feasible]
        g._validation = ValidationReport(
            sublattice=is_sublattice(g.product_lattice(), names),
            sections=MappingProxyType(
                {p: check_supermodular_sections(g, p) for p in g.players}),
            increasing_differences=MappingProxyType(
                {p: check_increasing_differences(g, p) for p in g.players}))
    return g._validation


# --------------------------------------------------------------------------
# file format


_TOP_KEYS = {"name", "players", "strategies", "feasible", "payoffs"}


def _strings(value, length=None) -> bool:
    """Is the value an array of strings, of the given length if any?"""
    return (isinstance(value, list) and all(isinstance(s, str) for s in value)
            and (length is None or len(value) == length))


def load_game(text: str, source: str = "<game>") -> Game:
    """Parse a game document (JSON with a fixed schema)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("players", "strategies", "feasible", "payoffs"):
        if key not in doc:
            raise ParseError(f"{source}: missing key {key!r}")
    players = doc["players"]
    if not players or not _strings(players):
        raise ParseError(f"{source}: 'players' must be a nonempty array of strings")
    strategies = doc["strategies"]
    if not isinstance(strategies, dict):
        raise ParseError(f"{source}: 'strategies' must be an object")
    lattices = {}
    for p in players:
        entry = strategies.get(p)
        if (not isinstance(entry, dict) or "elements" not in entry
                or "order" not in entry):
            raise ParseError(
                f"{source}: strategies[{p!r}] needs 'elements' and 'order'")
        elements, order = entry["elements"], entry["order"]
        if not _strings(elements):
            raise ParseError(
                f"{source}: strategies[{p!r}]['elements'] must be an array of strings")
        if not isinstance(order, list) or not all(_strings(pair, 2) for pair in order):
            raise ParseError(
                f"{source}: strategies[{p!r}]['order'] must be an array of "
                "[lower, upper] pairs of strings")
        lattices[p] = build_poset(elements, [tuple(pair) for pair in order])
    feasible = doc["feasible"]
    if feasible == "product":
        profiles = list(iter_product(*(lattices[p].elements for p in players)))
    elif isinstance(feasible, list) and all(_strings(prof) for prof in feasible):
        profiles = [tuple(prof) for prof in feasible]
    else:
        raise ParseError(
            f"{source}: 'feasible' must be \"product\" or an array of profiles, "
            "each an array of strategy names")
    payoffs_doc = doc["payoffs"]
    if not isinstance(payoffs_doc, dict):
        raise ParseError(f"{source}: 'payoffs' must be an object")
    payoffs = {}
    for p in players:
        entry = payoffs_doc.get(p)
        if not isinstance(entry, dict):
            raise MissingPayoff(f"{source}: no payoff table for player {p!r}")
        table = {}
        for key, val in entry.items():
            prof = tuple(key.split("|"))
            if prof in table:
                raise DuplicateProfile(f"{source}: duplicate payoff key {key!r}")
            table[prof] = parse_rational(val)
        payoffs[p] = table
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{source}: 'name' must be a string")
    return Game(players, lattices, profiles, payoffs, name=name)


def load_game_file(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return load_game(fh.read(), source=str(path))


def serialize_game(g: Game) -> str:
    """Canonical document: stable key order, hasse-reduced strategy orders,
    profiles sorted canonically.  load -> serialize -> load is identity."""
    doc = {}
    if g.name is not None:
        doc["name"] = g.name
    doc["players"] = list(g.players)
    strategies = {}
    for p in g.players:
        lat = g.lattices[p]
        strategies[p] = {
            "elements": list(lat.elements),
            "order": [[a, b] for a, b in lat.covers()],
        }
    doc["strategies"] = strategies
    total = 1
    for p in g.players:
        total *= len(g.lattices[p])
    if len(g.feasible) == total:
        doc["feasible"] = "product"
    else:
        doc["feasible"] = [list(prof) for prof in g.feasible]
    payoffs = {}
    for p in g.players:
        payoffs[p] = {"|".join(prof): str(g.payoffs[p][prof])
                      for prof in g.feasible}
    doc["payoffs"] = payoffs
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# random generator


@dataclass(frozen=True)
class RandomGameSpec:
    """Bounds for the random supermodular-game generator.

    Strategies are integer chains; payoffs are integer-coefficient
    polynomials sum(a_j * v_j) + sum(b_jk * v_j * v_k) with every
    interaction coefficient b_jk >= 0, which makes them supermodular with
    increasing differences on any product of chains.  Feasibility is the
    full product or a randomly grown sublattice of it.
    """

    players: tuple = (2, 4)
    chain_length: tuple = (2, 4)
    feasibility: str = "mixed"  # product | sublattice | mixed
    linear_range: tuple = (-3, 3)
    interaction_range: tuple = (0, 2)

    def __post_init__(self):
        lo, hi = _as_range(self.players)
        if not (1 <= lo <= hi <= 4):
            raise SpecOutOfRange("player count must lie within 1..4")
        lo, hi = _as_range(self.chain_length)
        if not (1 <= lo <= hi <= 4):
            raise SpecOutOfRange("chain length must lie within 1..4")
        if self.feasibility not in ("product", "sublattice", "mixed"):
            raise SpecOutOfRange(f"unknown feasibility mode {self.feasibility!r}")
        if self.interaction_range[0] < 0:
            raise SpecOutOfRange("interaction coefficients must be >= 0")


def _as_range(v):
    if isinstance(v, int):
        return (v, v)
    lo, hi = v
    return (lo, hi)


def random_supermodular_game(spec: RandomGameSpec, seed: int) -> Game:
    """Deterministic in (spec, seed); the output always validates."""
    rng = random.Random(seed)
    lo, hi = _as_range(spec.players)
    n = rng.randint(lo, hi)
    lo, hi = _as_range(spec.chain_length)
    lengths = [rng.randint(lo, hi) for _ in range(n)]
    players = [f"p{i + 1}" for i in range(n)]
    lattices = {p: chain([str(v) for v in range(lengths[i])])
                for i, p in enumerate(players)}
    all_profiles = list(iter_product(*(lattices[p].elements for p in players)))

    mode = spec.feasibility
    if mode == "mixed":
        mode = rng.choice(["product", "sublattice"])
    if mode == "product" or len(all_profiles) <= 2:
        profiles = all_profiles
    else:
        profiles = _grow_sublattice(rng, all_profiles, lengths)

    payoffs = {}
    for p in players:
        a = [Fraction(rng.randint(*spec.linear_range)) for _ in range(n)]
        b = {(j, k): Fraction(rng.randint(*spec.interaction_range))
             for j in range(n) for k in range(j + 1, n)}
        table = {}
        for prof in profiles:
            v = [int(s) for s in prof]
            total = sum((a[j] * v[j] for j in range(n)), Fraction(0))
            for (j, k), c in b.items():
                total += c * v[j] * v[k]
            table[prof] = total
        payoffs[p] = table
    return Game(players, lattices, profiles, payoffs, name=f"random-{seed}")


def _grow_sublattice(rng, all_profiles, lengths, retries: int = 60):
    """Close a random profile seed set under componentwise min/max, then
    insist every strategy value still occurs somewhere (projection
    surjectivity); re-seed a bounded number of times.  The seed count
    scales with the product so high-dimensional grids still cover every
    strategy value."""
    n = len(lengths)
    for _ in range(retries):
        k = rng.randint(2, min(len(all_profiles), 4 + len(all_profiles) // 4))
        members = set(rng.sample(all_profiles, k))
        frontier = list(members)
        while frontier:
            fresh = []
            for a in frontier:
                for b in list(members):
                    jo = tuple(str(max(int(u), int(v))) for u, v in zip(a, b))
                    me = tuple(str(min(int(u), int(v))) for u, v in zip(a, b))
                    for c in (jo, me):
                        if c not in members:
                            members.add(c)
                            fresh.append(c)
            frontier = fresh
        surjective = all(
            {prof[i] for prof in members} == {str(v) for v in range(lengths[i])}
            for i in range(n))
        if surjective:
            return sorted(members, key=lambda prof: tuple(int(s) for s in prof))
    raise GenerationFailed(
        f"no surjective sublattice found within {retries} attempts")
