"""Generalized noncooperative games with explicit feasible sets.

A game holds per-player strategy lattices, a nonempty feasible set S of
joint profiles (not necessarily the full product), and exact-rational
payoffs on S.  Payoffs are handed out as :class:`fractions.Fraction`;
they are taken as ints, Fractions or strings, an int or an integer
string staying an int, and floats are rejected at the boundary so argmax
sets and supermodularity verdicts are exact.  Ints and Fractions are
scaled alike, as both have a numerator and a denominator.  A game
stores each payoff once, as a Python int: all payoffs of a
game times one common denominator, its scale, the least common multiple
over every player's payoffs.  Scaling by one positive constant is exact
and keeps every order and every sum of payoffs of different players, so
argmax sets are unchanged.  Fractions are handed out divided back by the
scale, and ``Game.payoffs`` is a read-only view built on each read.

Each group response, the equilibrium oracle and the validation report are
computed once per game and cached on the game beside its section tables;
cached values are ints, tuples, frozensets and read-only mappings.

Every S has a space (:class:`_Space`), the one object that lays S out:
S's profiles, positions, index keys and strategy masks, S's poset with
its cover rows, built on first read, and on a product S each player's
rest covers (:func:`_rest_covers`), built by the first check of
increasing differences or fixed-point audit that reads them.  What
depends on the strategy lattices alone is computed once per process and
shared by every game over equal lattices, in two stores of at most
``_INTERNED_LATTICES`` entries each, keyed by value: the loader's
lattices (:func:`_interned`), and the space of a product S of at most
``_SHARED_PROFILES`` profiles (:func:`_product_space`).  Only those
products are stored: a larger product, and any S that is not the
product, gets a space of its own, laid out for its game and never
stored.  A third store, :func:`_stored_number`, keeps the value of
each of the last 4,096 distinct payoff strings shorter than
``_STORED_CHARS``, so the loader parses each such string once per
process.  Payoffs, sections, responses, E and every verdict are never
shared.

Profiles are tuples of strategy names in player order.  Each kind of
input is converted, and refused, in one place: a profile to strategy
indices by :func:`_key`, to its position in S by :func:`_at`, and a
player set to sorted positions by :func:`_player_positions`; a string is
neither (:func:`latnash.order._collection`), and a set, which has no
order, is no profile (:func:`latnash.order._ordered`).  The
canonical ordering used everywhere (serialization, reports, witnesses)
sorts profiles by their per-player element indices, and ``g.feasible``
is in that order.  The loader hands payoffs over by listing index, the
position of a profile in the list given for S, a table keyed in listing
order in place, and one permutation per game, none when S is listed in
canonical order, puts them at their positions; a "product" document
lists no profiles, and ``Game(...)`` lays it out as the product with no
lookup.  A table given as a mapping is walked
once, each key converted or refused and its payoff put at its position.
At construction a game also indexes S: each profile's strategy indices,
per player and strategy a bitmask over positions in ``g.feasible`` of
the profiles that play it, and per player the section table, which is
the payoff store.  A
player's sections are the classes of profiles that share the other
players' strategies; the table lists them in order of first appearance,
each with its first position, the other players' strategy indices, the
player's scaled payoff per own strategy index, the position mask of the
profiles whose own strategy lies in it, the mask of the own strategies
it holds, its best mask (the profiles whose own strategy is an argmax
of the section) and its best own set (the mask of those argmax own
strategies, the player's best response there).  Each section walks only
the own strategies it holds, so the cut takes time linear in |S|.  The
player's column holds, by position, the entry of that position's
section.  A section's mask and
best mask are cylinders, the OR of the player's strategy masks over its
held and its best own set; one dict per player, keyed by the
own-strategy bitmask, hands every section with the same set the same
int (:func:`_cylinder`), so the tables hold a few |S|-bit ints per
player, not two per section.  The strategy masks are read only to build
the tables and S's order rows.  When the profiles listed are the
strategy product's, each once, however they are spelled, S is the
product in row-major order and its strategy masks and section slices
come from strides; its space lists its keys only for S's order rows.
Tuples are looked up in the product's positions at once; profiles in
any other form are walked, and |product| distinct ones found are the
product.  Player i's stride is the product of the later players'
lattice sizes, strategy j's mask is a run of ``stride`` bits repeated
every ``block = stride * |L_i|`` positions and shifted by ``j *
stride``, the section holding position k pays ``row[s : s + block :
stride]`` with ``s = (k // block) * block + k % stride``, and every
section mask is the full mask.  Any other S is cut from the walk's
keys, and its space reads the strategy masks off them in canonical
order (:func:`_strategy_masks`); such an S has two players or more, as
a lone player's S is their whole lattice.  Payoffs, sections,
responses, stable masks and both payoff-axiom checks read the columns
by position and strategy index.  A player's stable mask holds the
positions whose own strategy is in their section's best mask, and the
equilibrium set E is the AND of all players' stable masks.

A player's best response at x is their section's best own set.  A
player set's group responses are stored as one tuple of position masks,
by position of x, built in one pass the first time the set is asked for;
positions with equal responses share one int.  A box is the AND of the
section masks at
x.  On the box each member's payoff depends on their own coordinate
alone and is at most their section's top payoff, so wherever the box
meets all the members' best masks, that AND is the group response (the
separable argmax); a product box always meets them.  A box the members'
best masks do not meet is scanned, bit by bit.  A joint response is the
AND of all players' best masks at x, and a fixed point is a position
whose response mask holds its own bit.  Masks are read out as profiles
by :func:`latnash.order._members`, in ascending bit order, which is
canonical order.  Every S is ordered one way (:func:`_order_rows`): a
strategy's cylinder is the OR of the masks of the strategies above it
(below it), and a profile's row the AND of its coordinates' cylinders,
so a product S gets the rows of :func:`latnash.order.product_poset`.
The extremal iteration and the fixed-point audit run on these rows and
on response masks.  A product S passes its sublattice check without a
scan; any other S is checked on codes of its profiles, over the pairs of
S's own order (see :func:`_sublattice_of_product`).
Both payoff checks are one scan
(:func:`_supermodular_scan`) of u(p ∧ q) + u(p ∨ q) >= u(p) + u(q) over
pairs p, q of S whose rests (the other players' strategies) are
comparable, p's below q's.  The section check pairs each section with
itself, over the incomparable own pairs.  Increasing differences pair
the sections of strictly comparable rests, over the own pairs a < b that
both hold, and then, on a non-product S only, over the incomparable own
pairs; together they cover every pair of S with comparable rests, which
Topkis's monotone comparative statics need.  A chain has no incomparable
pair, so on chains neither the section scan nor that last pass runs.  On
a product S, sections and increasing differences imply the rest, and
payoff differences add up along chains of covers, so own covers times
the rest covers of S's space decide increasing differences, with S's
order unbuilt.  On any other S that passes its sublattice check, whose
verdict each game keeps, payoff differences add up along chains of
covers too: the section pairs run along the covers of the rests, read
off the cover rows of S's poset, and the own pairs along
the strategy lattice's covers, with the rests neither sorted nor
ordered (:func:`check_increasing_differences` proves it).  Either way
only a failure runs the scan over all comparable pairs,
which names the first witness.  The same rest covers decide the
fixed-point audit's "increasing" hypothesis on a product S, player by
player on the best own sets (:func:`_increasing_by_players`).  Comparisons,
joins and meets of profiles go through the strategy lattices' index
rows.  Names appear only at the edges: in the profiles taken in and
handed out, in reports and witnesses and in DOT labels.
"""

import json
import math
import random
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product as iter_product
from itertools import repeat
from operator import attrgetter, itemgetter
from types import MappingProxyType

from latnash import _kernels
from latnash.errors import (
    DuplicateProfile,
    EmptyPlayerSet,
    GenerationFailed,
    InfeasibleProfile,
    InternalContradiction,
    LatnashError,
    MissingPayoff,
    NonSurjectiveProjection,
    NotALattice,
    ParseError,
    SpecOutOfRange,
    UnknownElement,
    quote,
)
from latnash.order import (
    DEFAULT_PRODUCT_CAP,
    PASS,
    CheckResult,
    Correspondence,
    Poset,
    _check_product_cap,
    _collection,
    _lazy,
    _members,
    _ordered,
    build_poset,
    chain,
    is_lattice,
    product_element_name,
    product_poset,
)

# Characters a strategy name may not hold: "," joins product labels, "|"
# joins payoff keys, and '"' and "\\" would need escaping in DOT strings.
_SEPARATORS = (",", "|", '"', "\\")
_SEPARATOR_SET = frozenset(_SEPARATORS)  # for the test that a name is free of them

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*)|\.[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a 'p/q' / decimal string."""
    return Fraction(_number(value))


def _number(value):
    """:func:`parse_rational`, with an int or an integer string read as an
    int: a game scales ints and Fractions alike."""
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
        if m is None:
            raise ParseError(f"not a rational value: {quote(value)}")
        num, den = m.groups()
        try:
            if den is not None:
                return Fraction(int(num), int(den))
            # an integer, or a decimal that Fraction reads exactly
            return int(num) if m.end() == len(num) else Fraction(value)
        except ValueError:  # more digits than int() converts
            raise _too_many_digits() from None
    if isinstance(value, float):
        raise ParseError(f"float payoff {quote(value)} rejected; write it as a string "
                         "like '1/3' or '0.25'")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"not a rational value: {quote(value)}")
    return value


# payoff strings shorter than this are parsed once per process
# (:func:`_stored_number`); it lies well under 640, the least digit limit
# sys.set_int_max_str_digits accepts, so a stored string parses under any
_STORED_CHARS = 100


@lru_cache(maxsize=4096)
def _stored_number(value):
    """:func:`_number` of a payoff string shorter than ``_STORED_CHARS``,
    kept for each of the last 4,096 distinct strings and shared by every
    document loaded.  A refusal is not cached, so a string refused is
    refused on every load, in the words of the digit limit then set."""
    return _number(value)


def _too_many_digits():
    """The refusal of a number, a string or JSON, with more digits than
    int() converts."""
    return ParseError(f"number with more than {sys.get_int_max_str_digits()} digits")


class Game:
    """A game; all invariants are checked, S laid out by its space and the
    section tables built, at construction.  It caches its responses, E and
    its validation on first use, S's order is its space's and E's order
    its equilibrium set's; all it hands out is immutable or read-only."""

    def __init__(self, players, lattices, feasible, payoffs, name=None):
        if name is not None:
            if not isinstance(name, str):
                raise ParseError(f"game name {quote(name)} is not a string")
            if not name.isprintable():
                raise _unprintable(f"game name {quote(name)}")
        self.name = name
        self.players = _collection(_ordered(players, "players"))
        if self.players is None:
            raise ParseError(f"players {quote(players)} are not a collection of names")
        if not self.players:
            raise ParseError("a game needs at least one player")
        for p in self.players:
            if not isinstance(p, str):
                raise ParseError(f"player name {quote(p)} is not a string")
        if len(set(self.players)) != len(self.players):
            raise ParseError("duplicate player names")
        for p in self.players:
            if "," in p:
                raise ParseError(f"player name {quote(p)} contains ',', which joins "
                                 "the player names in reports")
            if not p.isprintable():
                raise _unprintable(f"player name {quote(p)}")
        self.lattices = MappingProxyType(dict(_by_player(self.players, lattices,
                                                         "strategy lattices")))
        _by_player(self.players, payoffs, "payoffs")
        for p in self.players:
            if p not in self.lattices:
                raise ParseError(f"no strategy lattice for player {quote(p)}")
            lat = self.lattices[p]
            if not isinstance(lat, Poset):
                raise ParseError(f"strategy lattice of player {quote(p)} is not a poset")
            for strat in lat.elements:
                if (isinstance(strat, str) and _SEPARATOR_SET.isdisjoint(strat)
                        and strat.isprintable()):
                    continue
                what = f"strategy name {quote(strat)} of player {quote(p)}"
                if not isinstance(strat, str):
                    raise ParseError(f"{what} is not a string")
                bad = next((c for c in _SEPARATORS if c in strat), None)
                if bad is not None:
                    raise ParseError(f"{what} contains {quote(bad)}, a separator in "
                                     "profile labels, payoff keys or DOT output")
                raise _unprintable(what)
            r = is_lattice(lat)
            if not r:
                raise NotALattice(
                    f"strategy poset of player {quote(p)} is not a lattice "
                    f"(witness {quote(r.witness[:2])})")
        self._pos = {p: i for i, p in enumerate(self.players)}
        self._lattices = tuple(self.lattices[p] for p in self.players)
        sizes = [len(lat) for lat in self._lattices]
        self.product_size = math.prod(sizes)
        self._index = tuple(lat._index for lat in self._lattices)  # strategy -> index

        # the loader's "product" (:data:`_PRODUCT`) is the product with no
        # profiles to look up
        profiles = () if feasible is _PRODUCT else _collection(feasible)
        if profiles is None:
            raise ParseError(f"feasible set {quote(feasible)} is not a collection of profiles")
        shapes = tuple((lat.elements, lat._up, lat._down) for lat in self._lattices)
        # as many profiles as the product has: if they are its profiles, each
        # once, S is the product, in row-major order, laid out by its space,
        # which games over equal lattices share up to the share limit
        product = feasible is _PRODUCT or len(profiles) == self.product_size
        space, listing = None, None
        if product:
            space = (_product_space if self.product_size <= _SHARED_PROFILES
                     else _Space)(shapes)
            if feasible is not _PRODUCT:
                try:
                    placed = list(map(space.position.__getitem__, profiles))  # by listing index
                    product = len(set(placed)) == len(profiles)
                except (KeyError, TypeError):  # not a product profile, or not hashable
                    product = False
                if product:
                    listing = sorted(range(len(placed)), key=placed.__getitem__)
        if not product:
            keys = {}  # strategy indices -> feasible profile, in listing order
            for prof in profiles:
                names = _profile(prof)
                key = _key(self, prof if names is None else names)  # refuses a non-profile
                if key in keys:
                    raise DuplicateProfile(f"profile {quote(names)} listed twice")
                keys[key] = names
            if not keys:
                raise ParseError("the feasible set is empty")
            listed = list(keys)
            listing = sorted(range(len(listed)), key=listed.__getitem__)
            # as many distinct profiles as the product has, each listed in
            # whatever form, are the product, cut by strides on the space
            # found for it; any other S is laid out for this game alone
            product = space is not None
            if not product:
                ordered = tuple(map(listed.__getitem__, listing))
                space = _Space(shapes, tuple(map(keys.__getitem__, ordered)), ordered)
        self._space = space
        self.feasible, self._keys, self._masks = space.feasible, space.keys, space.masks
        position = self._position = space.position
        n = len(self.feasible)
        # by position, the listing index of its profile; None when S was
        # listed in canonical order
        if listing == list(range(n)):
            listing = None
        full = self._full = (1 << n) - 1

        for i, p in enumerate(self.players):
            for s, m in zip(self._lattices[i].elements, self._masks[i]):
                if not m:
                    raise NonSurjectiveProjection(
                        f"strategy {quote(s)} of player {quote(p)} appears "
                        "in no feasible profile")

        # each player's payoffs by position: the loader's, listed by listing
        # index, are permuted there, and a table given as a mapping is walked
        # entry by entry, converting or refusing each key; a position no
        # entry filled still holds None, which has no denominator
        rows, denominators = [], set()
        for p in self.players:
            row = payoffs.get(p)
            if type(row) is _Listed:
                if listing is not None:
                    row = list(map(row.__getitem__, listing))
            else:
                try:
                    entries = None if row is None else row.items()
                except (TypeError, AttributeError):
                    raise ParseError(f"payoffs for player {quote(p)} are not given as a "
                                     "mapping of profiles to values") from None
                if entries is None:
                    raise MissingPayoff(f"no payoffs for player {quote(p)}")
                row = [None] * n
                for prof, val in entries:
                    if type(prof) is not tuple:
                        names = _collection(_ordered(prof, "payoff key"))
                        if names is None:
                            raise ParseError(f"payoff key {quote(prof)} of player {quote(p)} "
                                             "is not a sequence of names")
                        prof = names
                    try:
                        k = position.get(prof)
                    except TypeError:  # an unhashable name names no profile
                        k = None
                    if k is None:
                        raise ParseError(f"payoff given for infeasible profile "
                                         f"{quote(prof)} (player {quote(p)})")
                    row[k] = (val if type(val) is int or isinstance(val, Fraction)
                              else _number(val))
            try:
                denominators.update(map(attrgetter("denominator"), row))
            except AttributeError:
                raise MissingPayoff(f"player {quote(p)} has no payoff for profile "
                                    f"{quote(self.feasible[row.index(None)])}") from None
            rows.append(row)
        # each player's scaled payoffs cut into sections: the section table
        # (entries as in the module docstring; unheld own strategies pay
        # None) and the column; on a product S each section is one slice of
        # the row, every ``stride``-th position from its first
        scale = self._scale = math.lcm(*denominators)
        sections, columns, stride = [], [], n
        strategies = None if product else tuple(zip(*self._keys))  # per player, by position
        for i, (size, col, row) in enumerate(zip(sizes, self._masks, rows)):
            pays = (list(map(attrgetter("numerator"), row)) if scale == 1 else
                    [v.numerator * (scale // v.denominator) for v in row])
            # own-strategy bitmask -> its cylinder (:func:`_cylinder`)
            cylinders = {(1 << size) - 1: full}
            if product:
                stride //= size
                block = stride * size
                held = (1 << size) - 1
                # the rests run row-major over the other players' strategies
                rests = iter_product(*map(range, sizes[:i] + sizes[i + 1:]))
                table = []
                for first in range(0, n, block):
                    for s in range(first, first + stride):
                        pay = tuple(pays[s:s + block:stride])
                        top = max(pay)
                        if pay.count(top) == 1:
                            bits = 1 << pay.index(top)
                        else:
                            bits = sum(1 << j for j, v in enumerate(pay) if v == top)
                        table.append((s, next(rests), pay, full, held,
                                      _cylinder(cylinders, col, bits), bits))
                at = []
                for b in range(0, len(table), stride):  # a block runs through its sections
                    at += table[b:b + stride] * size
            else:
                # each position's rest is read off the other players'
                # columns; S is not the product, so it has two players or more
                number, table, at = {}, [], []
                rests = zip(*strategies[:i], *strategies[i + 1:])
                for k, (rest, j, v) in enumerate(zip(rests, strategies[i], pays)):
                    s = number.get(rest)
                    if s is None:
                        s = number[rest] = len(table)
                        table.append((k, rest, [None] * size, []))
                    _, _, pay, own = table[s]
                    pay[j] = v
                    own.append(j)
                    at.append(s)
                # each section walks only the own strategy indices it holds
                for s, (k, rest, pay, own) in enumerate(table):
                    top = max(map(pay.__getitem__, own))
                    held = bits = 0
                    for j in own:
                        held |= 1 << j
                        if pay[j] == top:
                            bits |= 1 << j
                    table[s] = (k, rest, tuple(pay), _cylinder(cylinders, col, held), held,
                                _cylinder(cylinders, col, bits), bits)
                at = [table[s] for s in at]
            sections.append(tuple(table))
            columns.append(tuple(at))
        self._sections, self._columns = tuple(sections), tuple(columns)
        # sorted player positions -> their group responses (:func:`_group_responses`)
        self._responses = {}
        self._equilibria = None  # equilibria.equilibria_bruteforce, once computed
        self._validation = None  # validate_supermodular, once computed
        # S's sublattice verdict (:func:`_sublattice_of_product`), which a
        # product S passes, once computed
        self._sublattice = PASS if product else None

    # -- bookkeeping ---------------------------------------------------------

    def player_pos(self, player) -> int:
        try:
            return self._pos[player]
        except (KeyError, TypeError):  # an unhashable name names no player
            raise UnknownElement(f"unknown player {quote(player)}") from None

    def is_feasible(self, prof) -> bool:
        try:
            return _profile(prof) in self._position
        except (ParseError, TypeError):  # a set, or a profile holding an unhashable name
            return False

    def payoff(self, player, prof) -> Fraction:
        """The player's payoff at a feasible profile."""
        i = self.player_pos(player)
        k = _at(self, prof)
        return Fraction(self._columns[i][k][2][self._keys[k][i]], self._scale)

    def profile_label(self, prof) -> str:
        """Element name of the profile in the product of the strategy
        lattices, as :func:`latnash.order.product_poset` names it: for one
        player, whose product is their strategy lattice, the bare name.
        The profile is converted, or refused, as :func:`_key` converts it."""
        _key(self, prof)
        return self._label(_profile(prof))

    def _label(self, prof) -> str:
        """:meth:`profile_label` of a profile the game holds, a tuple of
        its strategy names, taken as it is."""
        if len(self.players) == 1:
            return prof[0]
        return product_element_name(prof)

    def feasible_poset(self) -> Poset:
        """The feasible set S under the product order, in canonical order
        and with the labels of :meth:`profile_label`: its space's poset,
        shared by every game over the same lattices when S is a stored
        product."""
        return self._space.poset

    @property
    def payoffs(self):
        """Per player, a read-only table of the payoff at each profile of
        S, in canonical order, built from the section tables."""
        return MappingProxyType({
            p: MappingProxyType({prof: Fraction(sec[2][key[i]], self._scale) for prof, key, sec
                                 in zip(self.feasible, self._keys, self._columns[i])})
            for i, p in enumerate(self.players)})

    def profile_leq(self, a, b) -> bool:
        return all((lat._up[i] >> j) & 1
                   for lat, i, j in zip(self._lattices, _key(self, a), _key(self, b)))

    def profile_join(self, a, b):
        """Componentwise join in the product of strategy lattices."""
        return tuple(lat.elements[lat._join_at(i, j)]
                     for lat, i, j in zip(self._lattices, _key(self, a), _key(self, b)))

    def profile_meet(self, a, b):
        return tuple(lat.elements[lat._meet_at(i, j)]
                     for lat, i, j in zip(self._lattices, _key(self, a), _key(self, b)))

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (self.players == other.players
                and self._lattices == other._lattices
                and self.feasible == other.feasible
                and self._scale == other._scale
                and self._sections == other._sections
                and self.name == other.name)

    __hash__ = None

    def __repr__(self):
        label = self.name or "game"
        return (f"Game({label!r}: {len(self.players)} players, "
                f"|S|={len(self.feasible)})")


class _Listed(list):
    """A player's payoffs by listing index, as :func:`_load` hands them to
    ``Game(...)``, which puts them at their positions of S."""


# the profiles of a "product" document, as :func:`_load` hands them to
# ``Game(...)``: the strategy product in row-major order
_PRODUCT = object()


def _by_player(players, given, what):
    """The mapping ``given`` of ``what`` by player, refused if it is not a
    mapping or holds an entry for a name that is no player."""
    if not isinstance(given, Mapping):
        raise ParseError(f"{what} {quote(given)} are not a mapping by player")
    for k in given:
        if k not in players:
            raise ParseError(f"{what} given for {quote(k)}, which is not a player")
    return given


def _unprintable(what):
    """The refusal of a name, ``what``, holding a line break, tab or other
    character that does not print: written into a report, it could forge a
    line of its own."""
    return ParseError(f"{what} contains a non-printable character")


def _profile(x):
    """The profile x as a tuple of names, or None when it is a string,
    bytes or not iterable; a tuple is taken as it is, and a set, which has
    no order, is refused."""
    return x if type(x) is tuple else _collection(_ordered(x, "profile"))


def _key(g: Game, prof):
    """The strategy indices of the profile ``prof``, any sequence of names
    but a string or a set, refused if its arity is wrong or a player has no
    such strategy."""
    names = _profile(prof)
    if names is None:
        raise ParseError(f"profile {quote(prof)} is not a sequence of names")
    if len(names) != len(g._index):
        raise ParseError(f"profile {quote(names)} has wrong arity")
    try:
        return tuple(map(dict.__getitem__, g._index, names))
    except (KeyError, TypeError):  # every strategy is a string
        i = next(i for i, s in enumerate(names) if not isinstance(s, str) or s not in g._index[i])
        raise UnknownElement(f"profile {quote(names)} uses unknown strategy "
                             f"{quote(names[i])} for player "
                             f"{quote(g.players[i])}") from None


# --------------------------------------------------------------------------
# sections and responses


def _cylinder(cylinders, col, bits):
    """The OR of the strategy masks ``col[j]`` over the j in the bitmask
    ``bits``, from the player's dict ``cylinders``, filled on a miss."""
    if bits not in cylinders:
        cylinders[bits] = reduce(int.__or__, map(col.__getitem__, _kernels.indices(bits)))
    return cylinders[bits]


def _strategy_masks(keys, sizes):
    """Per coordinate c and index j below ``sizes[c]``, the mask of the
    positions k with keys[k][c] == j."""
    masks = [[0] * size for size in sizes]
    for k, key in enumerate(keys):
        for col, j in zip(masks, key):
            col[j] |= 1 << k
    return masks


def _order_rows(keys, rows, masks):
    """Up-rows (down-rows) of the componentwise order on distinct index
    tuples of one arity, at least 1, from each coordinate's lattice up-rows
    (down-rows) and :func:`_strategy_masks`.  Index j's cylinder is the OR
    of the masks over j's lattice row: j's own mask ORed with the cylinder
    of the rest of the row.  Rows are taken by increasing size, so a rest
    that is itself a row (on a chain, every rest is) has its cylinder
    already, and only another rest is ORed bit by bit.  Row a is the AND
    of its coordinates' cylinders, by maps chained one coordinate at a
    time."""
    columns = []
    for row, at, column in zip(rows, masks, zip(*keys)):
        cylinders, of_row = [0] * len(row), {0: 0}  # lattice row -> its cylinder
        for j in sorted(range(len(row)), key=lambda j: row[j].bit_count()):
            rest = row[j] & ~(1 << j)
            c = of_row.get(rest)
            if c is None:
                c = reduce(int.__or__, map(at.__getitem__, _kernels.indices(rest)))
            cylinders[j] = of_row[row[j]] = at[j] | c
        columns.append(map(cylinders.__getitem__, column))
    return list(reduce(partial(map, int.__and__), columns))


def _at(g: Game, x):
    """Position in S of the profile x, any sequence of strategy names but a
    string or a set."""
    prof = _profile(x)
    try:
        return g._position[prof]
    except (KeyError, TypeError):  # a profile holding an unhashable name is not in S
        shown = x if prof is None else prof
        raise InfeasibleProfile(f"profile {quote(shown)} is not feasible") from None


def section(g: Game, player, x):
    """Strategies the player can deviate to at x, in carrier order.

    Always contains the player's own coordinate of x.
    """
    k = _at(g, x)
    i = g.player_pos(player)
    return _members(g._lattices[i].elements, g._columns[i][k][4])


def feasible_box(g: Game, x):
    """Profiles of S whose every coordinate lies in the respective section
    at x; contains x itself."""
    return _members(g.feasible, _box_mask(g, _at(g, x)))


def _box_mask(g: Game, k):
    """Position mask of the feasible box at position k: the AND of the
    section masks there."""
    box = g._full
    for at in g._columns:
        box &= at[k][3]
    return box


def best_response(g: Game, player, x):
    """Argmax of the player's payoff over the section at x; ties kept."""
    i = g.player_pos(player)
    return _members(g._lattices[i].elements, g._columns[i][_at(g, x)][6])


def _stable_mask(g: Game, i):
    """Position mask of the profiles at which player i has no profitable
    feasible deviation."""
    return sum(1 << k for k, sec in enumerate(g._columns[i]) if (sec[5] >> k) & 1)


def _joint_mask(g: Game, k):
    """Position mask of the joint response at position k: the AND of all
    players' best masks there."""
    mask = g._full
    for at in g._columns:
        mask &= at[k][5]
    return mask


def _group_responses(g: Game, idx):
    """The group responses of the players at the sorted positions ``idx``:
    by position of x, the position mask of the response at x.  The tuple is
    built in one pass the first time ``idx`` is asked for, and positions
    with equal responses hold one int."""
    got = g._responses.get(idx)
    if got is None:
        distinct = {}
        got = g._responses[idx] = tuple(
            distinct.setdefault(m, m) for m in map(partial(_argmax_mask, g, idx),
                                                    range(len(g.feasible))))
    return got


def _argmax_mask(g: Game, idx, k):
    """Argmax over the feasible box at position k of the summed payoffs of
    the players at positions ``idx``, as a position mask.

    On the box, member i's score at a profile y is ``pay_i[y_i]``, read
    from i's section at k, which holds y_i; so it is at most the section's
    top payoff, and the sum at most the sum of the members' tops.  The sum
    reaches that bound exactly where every member's score is their top,
    which is the box ANDed with the members' best masks.  When that AND is
    nonempty it is the argmax; a product box always meets it.  Only a box
    whose AND is empty is scanned.
    """
    box = _box_mask(g, k)
    best = box
    for i in idx:
        best &= g._columns[i][k][5]
    return best or _scanned_argmax(g, idx, k, box)


def _scanned_argmax(g: Game, idx, k, box):
    """:func:`_argmax_mask` at position k over its box, read position by
    position."""
    # member i's payoff at y depends on y[i] alone: read it off i's section
    scores = [(i, g._columns[i][k][2]) for i in idx]
    keys = g._keys
    best = None
    out = 0
    for ky in _kernels.indices(box):
        v = 0
        y_key = keys[ky]
        for i, pay in scores:
            v += pay[y_key[i]]
        if best is None or v > best:
            best = v
            out = 1 << ky
        elif v == best:
            out |= 1 << ky
    return out


def partial_response(g: Game, players, x):
    """Argmax over the feasible box at x of the summed payoffs of the
    given nonempty player set, each payoff evaluated with the other
    coordinates of x held fixed.  Computed once per player set, at every x."""
    idx = _player_positions(g, players)
    k = _at(g, x)
    return _members(g.feasible, _group_responses(g, idx)[k])


def _player_positions(g: Game, players):
    """The sorted positions of a player set, any collection of player names
    but a string, refused if it names no player or one the game does not
    have."""
    names = _collection(players)
    if names is None:
        raise ParseError(f"player set {quote(players)} is not a collection of names")
    idx = tuple(sorted({g.player_pos(p) for p in names}))
    if not idx:
        raise EmptyPlayerSet("player set is empty")
    return idx


def joint_response(g: Game, x):
    """Feasible profiles that are componentwise individually best at x.

    May be empty when S is not in product form; emptiness is data here,
    not an error.
    """
    return _members(g.feasible, _joint_mask(g, _at(g, x)))


def individual_response_correspondence(g: Game, player) -> Correspondence:
    """x -> best responses of the player, as a correspondence S -> S_i."""
    i = g.player_pos(player)
    return Correspondence._of(g.feasible_poset(), g._lattices[i],
                              [sec[6] for sec in g._columns[i]])


def group_response_correspondence(g: Game, players=None) -> Correspondence:
    """x -> group best responses, as a self-correspondence on S.

    ``players=None`` means all players; an empty player set is refused."""
    idx = tuple(range(len(g.players))) if players is None else _player_positions(g, players)
    return Correspondence._of(g.feasible_poset(), g.feasible_poset(), _group_responses(g, idx))


def section_correspondence(g: Game, player) -> Correspondence:
    """x -> feasible deviations of the player at x."""
    i = g.player_pos(player)
    return Correspondence._of(g.feasible_poset(), g._lattices[i],
                              [sec[4] for sec in g._columns[i]])


def box_correspondence(g: Game) -> Correspondence:
    """x -> feasible box at x, as a self-correspondence on S."""
    return Correspondence._of(g.feasible_poset(), g.feasible_poset(),
                              [_box_mask(g, k) for k in range(len(g.feasible))])


# --------------------------------------------------------------------------
# supermodularity checks


def check_supermodular_sections(g: Game, player) -> CheckResult:
    """Supermodularity of the player's payoff on every section: the scan
    of :func:`_supermodular_scan` with each section paired with itself.

    Pairs already comparable in the strategy lattice satisfy the
    inequality with equality, so only the incomparable own pairs a < b by
    index are tried, and a chain, which has none, passes unscanned.
    """
    i = g.player_pos(player)
    apart = [row & ~((2 << a) - 1) for a, row in enumerate(_incomparable(g._lattices[i]))]
    if not any(apart):
        return PASS
    sections = g._sections[i]
    return _supermodular_scan(g, i, sections, [1 << r for r in range(len(sections))], apart)


def check_increasing_differences(g: Game, player) -> CheckResult:
    """Increasing differences of the player's payoff between own strategy
    and opponents' joint strategy: for own strategies a < b and rests
    t < t' with all four profiles feasible, u(b, t) - u(a, t) <= u(b, t')
    - u(a, t').  This is the inequality of :func:`_supermodular_scan` on
    the pairs (b, t) and (a, t').

    On a non-product S, once that holds, the same inequality is also
    checked on the pairs with incomparable own strategies at strictly
    comparable rests, in both orders; a failure there has its own note
    and the witness (player, own strategy at the lower rest, own strategy
    at the upper rest, lower rest, upper rest).  Together with the
    sections, this covers every pair of S with comparable rests, the
    condition Topkis's monotone comparative statics need on a constrained
    S.  On a product S, sections and increasing differences imply it.

    On a product S every profile is feasible, so a difference between own
    strategies a < b is the sum of the differences along a chain of own
    covers, and its change between rests t < t' the sum of its changes
    along a chain of rest covers.  There, covering pairs of both decide a
    pass.

    On any other S that is a sublattice, covers decide it too.  Write S ⊆
    L_i × T, S_r for the section at rest r, and R for the rests of S, its
    projection on T; every strategy of L_i is played in S.
    (a) If x ∈ S_r ∩ S_r' and r <= ρ <= r' with ρ ∈ R, then x ∈ S_ρ.  Take
        (c, ρ) ∈ S: ((x, r) ∨ (c, ρ)) ∧ (x, r') = ((x ∨ c) ∧ x, ρ) = (x, ρ)
        lies in S.
    (b) R's covers are the rest pairs of S's covers whose rests differ.  If
        (x, r) ⋖ (y, r') in S with r < r' and ρ ∈ R lay strictly between,
        with (c, ρ) ∈ S, then ((x, r) ∨ (c, ρ)) ∧ (y, r') = ((x ∨ c) ∧ y,
        ρ) would lie in S strictly between them.  Conversely, for r ⋖ r'
        in R and (x, r), (y, r') ∈ S, (x ∧ y, r) < (y, r') in S, and a
        chain of S's covers between them steps from rest r to r' once,
        as no rest of R lies strictly between.
    (c) Each section is convex in L_i: if a <= x <= b with a, b ∈ S_r,
        take (x, ρ) ∈ S; ((x, ρ) ∧ (b, r)) ∨ (a, r) = (x, r) lies in S.  So
        is H = S_r ∩ S_r', the own strategies two sections both hold, and
        the covers of H are the covers of L_i between its members.
    (d) Covers decide every comparable pair.  For r < r' in R and a < b in
        S_r ∩ S_r', take a chain of R's covers from r to r'; by (a), a and
        b lie in H = S_ρ ∩ S_ρ' at each cover ρ ⋖ ρ' of it, and by (c) so
        does a chain of L_i's covers from a to b.  The change of u(b, ·) -
        u(a, ·) from r to r' is the sum over the rest covers of the sums
        over those own covers, each checked.
    So the scan over the covers of R, read off S's cover rows
    (:func:`_section_covers`), times L_i's covers decides a pass, as on a
    product S, with the rests neither sorted nor ordered.  A failure on
    covers, and any S that is no sublattice, run the scan over all
    comparable pairs, which names the first witness; a failure on covers
    that this scan passes raises
    :class:`latnash.errors.InternalContradiction`.  The pass over
    incomparable own strategies runs on the rest order as before.
    """
    i = g.player_pos(player)
    lat = g._lattices[i]
    sections = g._sections[i]
    product = len(g.feasible) == g.product_size
    # per section, the sections whose rests cover its own; None: S is no
    # sublattice, and covers decide nothing
    if product:
        covers = _rest_covers(g, i)
    else:
        covers = _section_covers(g, i) if _sublattice_of_product(g) else None
    covered = covers is not None and _supermodular_scan(g, i, sections, covers,
                                                        lat._cover_rows).ok
    apart = [] if product else _incomparable(lat)
    if covered and not any(apart):
        return PASS
    # the sections in the canonical order of the opponents' strategies,
    # which a product S's table already is, and the strict order of rests
    others = g._lattices[:i] + g._lattices[i + 1:]
    if not product:
        sections = sorted(sections, key=itemgetter(1))
    rests = [sec[1] for sec in sections]
    rows = [row & ~(1 << r) for r, row in enumerate(_order_rows(
        rests, [o._up for o in others], _strategy_masks(rests, map(len, others))))]
    if not covered:
        found = _supermodular_scan(g, i, sections, rows, lat._up)
        if found and covers is not None:
            raise InternalContradiction(
                f"game {g.name or '(unnamed)'}, increasing differences ({g.players[i]}): "
                "a pair of covers fails, yet no comparable pair does")
        if not found:
            return found
    return _supermodular_scan(g, i, sections, rows, apart) if any(apart) else PASS


def _section_covers(g: Game, i):
    """Player i's rest covers on a sublattice S, as :func:`_rest_covers`
    gives them on a product S: per section r of the table, the mask of
    the sections whose rest covers r's in R, S's projection on the other
    players.  By fact (b) of :func:`check_increasing_differences` they
    are the sections of S's covering pairs whose rests differ."""
    col = g._columns[i]
    number = {sec[0]: r for r, sec in enumerate(g._sections[i])}  # first position -> r
    covers = [0] * len(number)
    for k, row in enumerate(g._space.poset._cover_rows):
        sec = col[k]
        for k2 in _kernels.indices(row):
            sec2 = col[k2]
            if sec is not sec2:
                covers[number[sec[0]]] |= 1 << number[sec2[0]]
    return covers


def _rest_covers(g: Game, i):
    """Player i's rest covers on a product S: per section r, the mask of
    the sections whose rest covers r's.  The section table lists the rests
    in row-major order over the other players' lattices, and a rest cover
    raises one coordinate c to a cover of it, a step of c's stride per
    index.  The space keeps them, shared by the games over a stored
    product and held by the one game over a larger product."""
    space = g._space
    covers = space.rest_covers.get(i)
    if covers is None:
        sections = g._sections[i]
        covers = [0] * len(sections)
        stride = len(sections)
        for c, o in enumerate(g._lattices[:i] + g._lattices[i + 1:]):
            stride //= len(o)
            above = [_kernels.indices(row) for row in o._cover_rows]
            for r, (_, rest, *_) in enumerate(sections):
                for j in above[rest[c]]:
                    covers[r] |= 1 << (r + (j - rest[c]) * stride)
        space.rest_covers[i] = covers
    return covers


def _increasing_by_players(g: Game):
    """PASS when S is a product and the all-player group response is
    increasing in Veinott's strong set order, decided player by player on
    the strategy lattices; None, undecided, on any other S or when a
    player's check fails, where the caller runs the scan over S's covers
    (:func:`latnash.order.is_increasing_by_covers`), which names the
    witness.  Player i passes when each distinct best own set B (section
    entry ``[6]``) is closed in L_i, B ⊑ B, and B(r) ⊑ B(r') for every
    rest cover r -> r' (:func:`_rest_covers`), each distinct pair of sets
    checked once, all by :func:`latnash._kernels.increasing_scan` on L_i's
    rows.

    Theorem: on a product S this check passes iff the scan over S's
    covering pairs does.  Proof.  On a product S every section mask is
    the full mask, so the box at x is S and every member's best mask meets
    it: the response at x is the AND path, the AND of the players'
    cylinders of B_i(x_-i), which is the product of the B_i(x_-i), each
    nonempty.  For nonempty products, ΠA_i ⊑ ΠB_i iff A_i ⊑ B_i for every
    i (Topkis 1998, §2.4): meets and joins of profiles are taken
    coordinate by coordinate, and since every other factor is nonempty,
    any a_i in A_i and b_i in B_i extend to profiles a in ΠA_i and b in
    ΠB_i.  So an image is closed iff each of its factors is; every B_i(r)
    is a factor of some image, so all images are closed iff every best
    own set is.  A cover of S raises one coordinate c to a cover of it.
    Across it B_c does not change, which leaves its closure, and for every
    i != c the step from x_-i to x'_-i is a rest cover of player i.
    Conversely every rest cover r -> r' of player i is such a step, from
    (a, r) to (a, r') for any own strategy a.  So the images increase
    along every cover of S iff every best own set is closed and increases
    along every rest cover, which is this check.
    """
    if len(g.feasible) < g.product_size:
        return None
    for i, lat in enumerate(g._lattices):
        best = [sec[6] for sec in g._sections[i]]
        if _kernels.increasing_scan(lat._up, lat._down, best, _rest_covers(g, i)) is not None:
            return None
    return PASS


def _incomparable(lat):
    """Per index of the lattice, the mask of the elements incomparable to it."""
    full = (1 << len(lat)) - 1
    return [full & ~(up | down) for up, down in zip(lat._up, lat._down)]


def _supermodular_scan(g: Game, i, sections, rows, own_rows) -> CheckResult:
    """Supermodularity of player i's payoff, u(p ∧ q) + u(p ∨ q) >= u(p) +
    u(q), for p = (b, rest r) and q = (a, rest r2), where the rest of
    section r lies below that of r2, so that p ∧ q = (a ∧ b, rest r) and
    p ∨ q = (a ∨ b, rest r2).

    The section pairs (r, r2) are those with r2 in ``rows[r]``, by r and
    then r2, and the own pairs (a, b), a != b, those with b in
    ``own_rows[a]``, b held by section r and a by r2, by a and then b; the
    first pair that breaks it is the witness.  A pair whose meet or join is
    not held fails, with a note, in a section paired with itself, and is
    skipped otherwise: on a sublattice S it cannot occur.  Only sections
    holding two own strategies or more can hold a pair with both bounds, so
    only they are walked.  The own pairs are listed once per pair of masks
    of own strategies held.
    """
    lat = g._lattices[i]
    up, meet, join = lat._up, lat._meet_at, lat._join_at
    # the sections holding two own strategies or more
    wide = sum(1 << r for r, sec in enumerate(sections) if sec[4] & (sec[4] - 1))
    own_pairs = {}  # held by r2 and by r, side by side -> own pairs and their bounds
    for r in _kernels.indices(wide):
        _, _, col, _, held, _, _ = sections[r]
        later = rows[r] & wide
        while later:
            low = later & -later
            later ^= low
            r2 = low.bit_length() - 1
            _, _, col2, _, held2, _, _ = sections[r2]
            key = held2 << len(own_rows) | held
            listed = own_pairs.get(key)
            if listed is None:
                listed = own_pairs[key] = []
                for a in _kernels.indices(held2):
                    for b in _kernels.indices(own_rows[a] & held & ~(1 << a)):
                        # a comparable pair is its own meet and join
                        lo, hi = (a, b) if (up[a] >> b) & 1 else (meet(a, b), join(a, b))
                        if not ((held >> lo) & 1 and (held2 >> hi) & 1):
                            lo = None  # a bound is not held
                        listed.append((a, b, lo, hi))
            for a, b, lo, hi in listed:
                # a pair with a bound not held fails only in a section paired with itself
                if r2 == r if lo is None else col[lo] + col2[hi] < col[b] + col2[a]:
                    return _supermodular_witness(g, i, sections[r], sections[r2], a, b, lo)
    return PASS


def _supermodular_witness(g: Game, i, sec, sec2, a, b, lo) -> CheckResult:
    """The failure of :func:`_supermodular_scan` at the own pair (a, b) of
    the sections sec and sec2, whose meet is lo (None if not held)."""
    own, x, x2 = g._lattices[i].elements, g.feasible[sec[0]], g.feasible[sec2[0]]
    if sec is sec2:
        note = None if lo is not None else "join/meet of a section pair leaves the section"
        return CheckResult(False, witness=(g.players[i], x, own[a], own[b]), note=note)
    rests = (x[:i] + x[i + 1:], x2[:i] + x2[i + 1:])
    if lo == a:
        return CheckResult(False, witness=(g.players[i], own[a], own[b], *rests))
    return CheckResult(False, witness=(g.players[i], own[b], own[a], *rests),
                       note="incomparable own strategies at comparable rests")


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
        lines = [f"feasible set is a sublattice of the product: {_verdict(self.sublattice)}"]
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
        g._validation = ValidationReport(
            sublattice=_sublattice_of_product(g),
            sections=MappingProxyType(
                {p: check_supermodular_sections(g, p) for p in g.players}),
            increasing_differences=MappingProxyType(
                {p: check_increasing_differences(g, p) for p in g.players}))
    return g._validation


def _sublattice_of_product(g: Game) -> CheckResult:
    """Is S closed under the joins and meets of the strategy product?

    The verdict of :func:`latnash.order.is_sublattice` on the product
    poset and the labels of S, from S alone, computed once per game and
    read by validation and by increasing differences.  A profile's
    up-code is its strategies' up-rows side by side, each shifted by the
    sizes of the lattices before it; as the up-set of a join is the
    intersection of the up-sets, the AND of two up-codes is the up-code
    of their join, which lies in S iff S holds that code.  Meets work the
    same on down-codes.  For each profile, the incomparable ones after it
    are read off the rows of :meth:`Game.feasible_poset` and tried join
    first: canonical order is the product's row-major order, so this is
    the product scan's pair order (:func:`_sublattice_scan`).  Only these
    functions know the code layout; an escaping bound is named by
    :meth:`Game.profile_join` or :meth:`Game.profile_meet`.  A product S
    passes, as ``Game(...)`` records.
    """
    if g._sublattice is None:
        g._sublattice = _sublattice_scan(g)
    return g._sublattice


def _sublattice_scan(g: Game) -> CheckResult:
    """The scan of :func:`_sublattice_of_product` over S's incomparable
    pairs, which fails at the first pair whose join or meet escapes S."""
    shifted_up, shifted_down, shift = [], [], 0
    for lat in g._lattices:
        shifted_up.append([row << shift for row in lat._up])
        shifted_down.append([row << shift for row in lat._down])
        shift += len(lat)
    ups = [sum(map(list.__getitem__, shifted_up, key)) for key in g._keys]
    downs = [sum(map(list.__getitem__, shifted_down, key)) for key in g._keys]
    up_codes, down_codes = set(ups), set(downs)
    S = g.feasible_poset()
    for a, (ua, da, up, down) in enumerate(zip(S._up, S._down, ups, downs)):
        later = g._full & ~(ua | da) & ~((2 << a) - 1)
        while later:
            low = later & -later
            later ^= low
            b = low.bit_length() - 1
            if up & ups[b] not in up_codes:
                return _escape(g, a, b, g.profile_join, "join")
            if down & downs[b] not in down_codes:
                return _escape(g, a, b, g.profile_meet, "meet")
    return PASS


def _escape(g: Game, a, b, bound, kind) -> CheckResult:
    """The witness of the profiles at positions a and b whose ``bound``,
    the join or meet named by ``kind``, escapes S."""
    x, y = g.feasible[a], g.feasible[b]
    label = g._label
    return CheckResult(False, witness=(label(x), label(y), label(bound(x, y)), kind))


# --------------------------------------------------------------------------
# file format


_TOP_KEYS = {"name", "players", "strategies", "feasible", "payoffs"}


def _strings(value, length=None) -> bool:
    """Is the value an array of strings, of the given length if any?"""
    return (isinstance(value, list) and all(map(isinstance, value, repeat(str)))
            and (length is None or len(value) == length))


def _known_players(entries, players, key):
    unknown = sorted(set(entries) - set(players))
    if unknown:
        raise ParseError(f"'{key}' has entries for unknown players {quote(unknown)}")


# how many distinct strategy entries :func:`_interned` keeps, and how many
# distinct strategy products :func:`_product_space`
_INTERNED_LATTICES = 16

# the most profiles a strategy product kept by :func:`_product_space` has;
# a larger one is laid out by each game over it
_SHARED_PROFILES = 1024


@lru_cache(maxsize=_INTERNED_LATTICES)
def _interned(elements, order):
    """:func:`latnash.order.build_poset` of a document's strategy entry,
    its elements and its order pairs as tuples of strings, built once for
    each of the last ``_INTERNED_LATTICES`` distinct entries and shared by
    every game loaded from one: a poset is immutable and keeps its label
    index and cover rows.  A refusal is not cached, so an entry refused is
    refused on every load."""
    return build_poset(elements, order)


class _Space:
    """A feasible set S laid out over ``shapes``, each player's strategy
    lattice as its elements, up-rows and down-rows: S's profiles in
    canonical order, their positions, their index keys and per player the
    strategy masks.  With no profiles given, S is the strategy product,
    laid out in row-major order, and each strategy mask is a run of
    ``stride`` bits every ``stride * size`` positions, shifted by the
    index times the stride.  Any other S is given as its profiles and
    their keys, in canonical order, and its masks are read off the keys
    (:func:`_strategy_masks`).
    S's poset is built on its first read, and each player's rest covers
    on a product S by the first :func:`_rest_covers` call, from
    increasing differences or the fixed-point audit.
    A space holds no lattice, and nothing of a game's payoffs."""

    def __init__(self, shapes, feasible=None, keys=None):
        self._shapes = shapes
        sizes = [len(elements) for elements, _, _ in shapes]
        if keys is None:
            feasible = tuple(iter_product(*[elements for elements, _, _ in shapes]))
            keys = tuple(iter_product(*map(range, sizes)))
            full, stride, masks = (1 << len(keys)) - 1, len(keys), []
            for size in sizes:
                stride //= size
                runs = full // ((1 << stride * size) - 1) * ((1 << stride) - 1)
                masks.append(tuple(runs << j * stride for j in range(size)))
        else:
            masks = map(tuple, _strategy_masks(keys, sizes))
        self.feasible, self.keys, self.masks = feasible, keys, tuple(masks)
        self.position = dict(zip(feasible, range(len(keys))))
        self.rest_covers = {}  # player position -> rest covers, once computed

    @_lazy
    def poset(self):
        """S under the product order, as :meth:`Game.feasible_poset`
        hands it out: a lone player's S is their whole lattice, under its
        elements, and any other S has the product's labels."""
        shapes, keys, masks = self._shapes, self.keys, self.masks
        return Poset(shapes[0][0] if len(shapes) == 1 else
                     map(product_element_name, self.feasible),
                     _order_rows(keys, [up for _, up, _ in shapes], masks),
                     _order_rows(keys, [down for _, _, down in shapes], masks), _trusted=True)


@lru_cache(maxsize=_INTERNED_LATTICES)
def _product_space(shapes):
    """The :class:`_Space` of the strategy product ``shapes``, laid out once
    for each of the last ``_INTERNED_LATTICES`` distinct products of at
    most ``_SHARED_PROFILES`` profiles, and shared by every game over
    equal lattices: keyed by their elements and rows, it keeps no
    caller's poset."""
    return _Space(shapes)


def load_game(text: str, source: str = "<game>",
              product_cap: int = DEFAULT_PRODUCT_CAP) -> Game:
    """Parse a game document (JSON with a fixed schema), refusing one whose
    strategy product has more than ``product_cap`` elements.  Every refusal
    raised while loading, the game's own included, names the source first.
    The game is built once the decoded document and, unless the caller
    still holds it, the text are freed.  Equal strategy entries, in one
    document or in many, give one shared lattice (:func:`_interned`)."""
    try:
        args = _load(text, product_cap)
        del text
        return Game(*args)
    except LatnashError as e:
        raise type(e)(f"{source}: {e}") from None


def _load(text, product_cap):
    """The arguments of ``Game(...)`` held by the document, refused as
    :func:`load_game` refuses them but not yet prefixed by the source.

    Each strategy entry is checked to be arrays of strings before its
    tuples look up its lattice in :func:`_interned`.  A payoff table of
    strings shorter than ``_STORED_CHARS`` is read through the process
    store :func:`_stored_number`; any other table, of JSON numbers or
    holding a longer string, is converted value by value.  A refusal
    names the table's first bad entry in document order.
    A table whose keys are the profiles' payoff keys (the joined labels)
    in listing order, as :func:`serialize_game` writes it, is handed over
    in place by listing index (:class:`_Listed`), at the cost of one
    comparison of its keys.  Any other table has its keys read as listing
    indices, the positions in the list of profiles handed to
    ``Game(...)``, through one dict of joined keys, built for the first
    such table, and its payoffs placed by listing index.  A table with a
    key that names no listed profile is handed over as a mapping of split
    keys instead, which ``Game(...)`` refuses, after its checks of S, as
    it refuses any table given so.  A ``"product"`` is handed over as
    :data:`_PRODUCT`, its payoffs listed in row-major order, which is
    canonical: ``Game(...)`` lays it out after its own checks, on its
    stored space (:func:`_product_space`), with no profile to look up."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):  # a key is repeated: name the first repeat
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"duplicate key {quote(key)}")
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError:  # a number with more digits than int() converts
        raise _too_many_digits() from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {quote(sorted(unknown))}")
    for key in ("players", "strategies", "feasible", "payoffs"):
        if key not in doc:
            raise ParseError(f"missing key {quote(key)}")
    players = doc["players"]
    if not players or not _strings(players):
        raise ParseError("'players' must be a nonempty array of strings")
    strategies = doc["strategies"]
    if not isinstance(strategies, dict):
        raise ParseError("'strategies' must be an object")
    _known_players(strategies, players, "strategies")
    lattices = {}
    for p in players:
        entry = strategies.get(p)
        if (not isinstance(entry, dict) or "elements" not in entry
                or "order" not in entry):
            raise ParseError(f"strategies[{quote(p)}] needs 'elements' and 'order'")
        elements, order = entry["elements"], entry["order"]
        if not _strings(elements):
            raise ParseError(f"strategies[{quote(p)}]['elements'] must be an array of strings")
        if not isinstance(order, list) or not all(map(_strings, order, repeat(2))):
            raise ParseError(f"strategies[{quote(p)}]['order'] must be an array of "
                             "[lower, upper] pairs of strings")
        lattices[p] = _interned(tuple(elements), tuple(map(tuple, order)))
    _check_product_cap((len(lattices[p]) for p in players), product_cap)
    feasible = doc["feasible"]
    if feasible == "product":
        profiles = _PRODUCT
        labels = tuple(map("|".join, iter_product(*(lattices[p].elements for p in players))))
    elif isinstance(feasible, list) and all(map(_strings, feasible)):
        profiles = list(map(tuple, feasible))
        labels = tuple(map("|".join, profiles))
    else:
        raise ParseError("'feasible' must be \"product\" or an array of profiles, "
                         "each an array of strategy names")
    payoffs_doc = doc["payoffs"]
    if not isinstance(payoffs_doc, dict):
        raise ParseError("'payoffs' must be an object")
    _known_players(payoffs_doc, players, "payoffs")
    payoffs = {}
    index_of = None  # payoff key "a|b" -> the listing index of the profile (a, b)
    # each decoded table is taken out of the document, so it dies once
    # converted; a player listed twice is converted once, and Game(...)
    # refuses the repeat
    for p in players:
        if p in payoffs:
            continue
        entry = payoffs_doc.pop(p, None)
        if not isinstance(entry, dict):
            raise MissingPayoff(f"no payoff table for player {quote(p)}")
        try:
            vals = entry.values()
            if (all(map(isinstance, vals, repeat(str)))
                    and max(map(len, vals), default=0) < _STORED_CHARS):
                values = _Listed(map(_stored_number, vals))
            else:
                values = _Listed(map(_number, vals))
        except ParseError:
            # name the first entry refused, in the document's order
            for key, val in entry.items():
                try:
                    _number(val)
                except ParseError as e:
                    raise ParseError(f"payoff of player {quote(p)} at "
                                     f"{quote(key)}: {e}") from None
        if tuple(entry) == labels:  # keyed in listing order, as serialize_game writes
            payoffs[p] = values
            continue
        if index_of is None:
            index_of = dict(zip(labels, range(len(labels))))
        at = list(map(index_of.get, entry))
        if None in at:
            # a key that names no profile listed: Game(...)'s walk refuses
            # it, after the checks of S, as it refuses any table's
            payoffs[p] = {tuple(key.split("|")): v for key, v in zip(entry, values)}
            continue
        row = payoffs[p] = _Listed(repeat(None, len(labels)))
        for k, v in zip(at, values):
            row[k] = v
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return players, lattices, profiles, payoffs, name


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
    if len(g.feasible) == g.product_size:
        doc["feasible"] = "product"
    else:
        doc["feasible"] = [list(prof) for prof in g.feasible]
    doc["payoffs"] = {p: {"|".join(prof): str(v) for prof, v in table.items()}
                      for p, table in g.payoffs.items()}
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
    full product or a randomly grown sublattice of it.  A range is an int
    n, meaning (n, n), or a pair of ints lo <= hi; SpecOutOfRange otherwise.
    """

    players: tuple = (2, 4)
    chain_length: tuple = (2, 4)
    feasibility: str = "mixed"  # product | sublattice | mixed
    linear_range: tuple = (-3, 3)
    interaction_range: tuple = (0, 2)

    def __post_init__(self):
        lo, hi = _as_range(self, "players")
        if not (1 <= lo <= hi <= 4):
            raise SpecOutOfRange("player count must lie within 1..4")
        lo, hi = _as_range(self, "chain_length")
        if not (1 <= lo <= hi <= 4):
            raise SpecOutOfRange("chain length must lie within 1..4")
        if self.feasibility not in ("product", "sublattice", "mixed"):
            raise SpecOutOfRange(f"unknown feasibility mode {quote(self.feasibility)}")
        _as_range(self, "linear_range")
        if _as_range(self, "interaction_range")[0] < 0:
            raise SpecOutOfRange("interaction coefficients must be >= 0")


def _as_range(spec: RandomGameSpec, name):
    """The bounds (lo, hi) of the spec's field ``name``, an int n (not a
    bool) standing for (n, n), or refused if not a pair of ints lo <= hi."""
    v = getattr(spec, name)
    if type(v) is int:
        return (v, v)
    if (isinstance(v, (tuple, list)) and len(v) == 2 and all(type(x) is int for x in v)
            and v[0] <= v[1]):
        return tuple(v)
    raise SpecOutOfRange(f"{name} must be an int or a pair of ints lo <= hi, "
                         f"got {quote(v)}")


def random_supermodular_game(spec: RandomGameSpec, seed: int) -> Game:
    """Deterministic in (spec, seed); the output always validates.  A grown
    S is closed on the index rows of the chains' product by
    :func:`_grow_sublattice`."""
    rng = random.Random(seed)
    n = rng.randint(*_as_range(spec, "players"))
    lo, hi = _as_range(spec, "chain_length")
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
        profiles = _grow_sublattice(rng, list(lattices.values()), all_profiles)

    linear, interaction = _as_range(spec, "linear_range"), _as_range(spec, "interaction_range")
    payoffs = {}
    for p in players:
        a = [rng.randint(*linear) for _ in range(n)]
        b = [(j, k, rng.randint(*interaction))
             for j in range(n) for k in range(j + 1, n)]
        table = {}  # each polynomial is summed in int
        for prof in profiles:
            v = [int(s) for s in prof]
            total = sum(a[j] * v[j] for j in range(n))
            total += sum(c * v[j] * v[k] for j, k, c in b)
            table[prof] = total
        payoffs[p] = table
    return Game(players, lattices, profiles, payoffs, name=f"random-{seed}")


_GROW_RETRIES = 60


def _grow_sublattice(rng, chains, all_profiles):
    """Close a random seed set of positions on the rows of the product of
    ``chains`` (:func:`latnash._kernels.sublattice_close`), then insist
    every strategy value still occurs somewhere (projection surjectivity);
    re-seed a bounded number of times.  ``all_profiles`` is the product in
    position order, so sampling positions draws what sampling it would.
    The seed count scales with the product so high-dimensional grids still
    cover every strategy value."""
    grid = product_poset(chains)
    n = len(all_profiles)
    for _ in range(_GROW_RETRIES):
        k = rng.randint(2, min(n, 4 + n // 4))
        members = _kernels.sublattice_close(grid._up, grid._down, rng.sample(range(n), k))
        profiles = _members(all_profiles, members)
        if all(len({prof[i] for prof in profiles}) == len(c) for i, c in enumerate(chains)):
            return profiles
    raise GenerationFailed(
        f"no surjective sublattice found within {_GROW_RETRIES} attempts")
