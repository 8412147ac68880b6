"""Finite poset and lattice algebra.

Elements are opaque strings.  The order relation is stored once, fully
closed, as bitmask rows by element index (``up[i]`` bit ``j`` set iff
``i <= j``; ``down`` is the transpose).  Each constructor derives both
row sets from its own source: :func:`chain` writes them down,
:func:`product_poset` multiplies the factors' rows and
:func:`induced_poset` traces the parent's to the member bitmask, walking
only the kept bits of each row, and :func:`build_poset` closes a
relation whose pairs ascend in element order in one pass each way, the
up-rows from the last element down and the down-rows from the first up;
only another relation is closed by Warshall and transposed.  The least
or greatest element of a bound set is found by the walk of
:func:`latnash._kernels.least`, in any element order, and so are the
covering pairs, by :func:`latnash._kernels.cover_rows`.  A poset's
label -> index dict and its cover rows are :class:`_lazy` values, each
computed when first read and kept; :func:`build_poset` hands over the
dict it has by assigning it.  A poset is immutable, so
one poset may serve many games and keeps these for all of them (the
loader shares a document's lattices this way).  A set of
elements from another layer (E, a response image, a topology lemma's Q)
enters as a bitmask through :func:`_induced`, :func:`_sublattice` and
:func:`_subcomplete`, of which the label functions are views, and a
:class:`Correspondence` stores one codomain bitmask per domain index.
The checks hand the kernels each member set as one bitmask and read the
answer back as element indices and masks.  Labels become a bitmask in
:func:`_subset_mask` alone, a bitmask becomes names (elements, points or
profiles) in :func:`_members` alone, and a product's names come from
:func:`_product_names`, which refuses two tuples sharing one.  A string
is never a collection of names (:func:`_collection`), and a set is
refused where the order of its names would carry meaning
(:func:`_ordered`).  The
lattice, sublattice and increasing checks run one pair scan,
:func:`latnash._kernels.pair_scan`, which finds the first pair whose
meet or join leaves its mask and answers with that pair alone; each
check names the failing bound by ``Poset._join_at``/``_meet_at``, in its
own order, the sublattice checks join first and the increasing check
meet first, and :func:`_first_escape` turns a missing bound into
``NotALattice``.  Subset suprema are always computed by scanning the
common-bound set directly (``Poset._sup_at``/``_inf_at``, which
:meth:`Poset.sup`/:meth:`Poset.inf` read), never by iterating pairwise
joins: a sup can exist in a poset whose pairwise joins do not.  The
exhaustive checks decide every subset of a set S, but walk none of them
when the pair scan passes on S: in a finite poset, a set holding the join
and meet of each of its pairs holds the sup and inf of each of its
subsets (:func:`_subset_scan`).  Only a failing set is walked, in
:func:`latnash._kernels.subset_scan`, to name its first failing subset.

All boolean structural checks return a :class:`CheckResult`, which is
truthy on success and carries the first counterexample (in a deterministic
element-order scan) on failure; passing results are shared constants.
"""

import math
from collections.abc import MappingView, Set
from dataclasses import dataclass
from functools import reduce
from itertools import product as iter_product

from latnash import _kernels
from latnash.errors import (
    CycleDetected,
    DuplicateElement,
    EmptySubset,
    NotALattice,
    ParseError,
    ProductTooLarge,
    UnknownElement,
    quote,
)

DEFAULT_PRODUCT_CAP = 10 ** 6
DEFAULT_EXHAUSTIVE_CAP = 12
_SUBSET_WALK_BITS = 20  # the subset walk keeps 2 masks per subset


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check: truthy iff it passed.

    ``witness`` holds the first counterexample found; ``mode`` records how
    the verdict was obtained when more than one strategy exists:
    ``"exhaustive"`` is a verdict over every nonempty subset, certified by
    the pair scan when it passes and named by the subset walk when it
    fails; ``"pairwise"`` and ``"finite-equivalence"`` are the pair
    scan's verdict on pairs alone.
    """

    ok: bool
    witness: tuple | None = None
    mode: str | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# passing verdicts carry nothing else, so each is shared
PASS = CheckResult(True)
PASS_EXHAUSTIVE = CheckResult(True, mode="exhaustive")
PASS_PAIRWISE = CheckResult(True, mode="pairwise")


class _lazy:
    """A value computed from its object on the first read and stored in the
    object's dict, where every later read finds it first: a
    ``functools.cached_property`` without the lock that Python 3.11 takes
    on each first read."""

    def __init__(self, fill):
        self._fill, self._name, self.__doc__ = fill, fill.__name__, fill.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._fill(obj)
        return value


class Poset:
    """Immutable finite poset over distinct string identifiers."""

    def __init__(self, elements, up_rows, down_rows, *, _trusted=False):
        if not _trusted:
            raise TypeError("use build_poset / product_poset / induced_poset")
        self.elements = tuple(elements)
        self._up = tuple(up_rows)
        self._down = tuple(down_rows)

    @_lazy
    def _index(self):
        """The label -> index dict, built when it is first read."""
        return {e: i for i, e in enumerate(self.elements)}

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements)"

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    __hash__ = None

    def index(self, x) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):  # an unhashable label names no element
            raise UnknownElement(f"element {quote(x)} is not in the poset") from None

    def leq(self, x, y) -> bool:
        return (self._up[self.index(x)] >> self.index(y)) & 1 == 1

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def down_set(self, x) -> frozenset:
        """All elements <= x."""
        return frozenset(_members(self.elements, self._down[self.index(x)]))

    def up_set(self, x) -> frozenset:
        """All elements >= x."""
        return frozenset(_members(self.elements, self._up[self.index(x)]))

    # -- bounds ------------------------------------------------------------

    def _join_at(self, i, j):
        """Index of the join of the elements at indices i and j, or None."""
        return _kernels.least(self._up, self._down, self._up[i] & self._up[j])

    def _meet_at(self, i, j):
        """Index of the meet of the elements at indices i and j, or None."""
        return _kernels.greatest(self._up, self._down, self._down[i] & self._down[j])

    def join(self, x, y):
        """Least upper bound of {x, y}, or None if it does not exist."""
        return self._name(self._join_at(self.index(x), self.index(y)))

    def meet(self, x, y):
        """Greatest lower bound of {x, y}, or None."""
        return self._name(self._meet_at(self.index(x), self.index(y)))

    def sup(self, subset):
        """Sup of a nonempty subset, by scanning common upper bounds."""
        return self._name(self._sup_at(_subset_mask(self, subset, "sup of an empty subset")))

    def inf(self, subset):
        """Inf of a nonempty subset, by scanning common lower bounds."""
        return self._name(self._inf_at(_subset_mask(self, subset, "inf of an empty subset")))

    def _sup_at(self, mask):
        """Index of the sup of the nonempty member bitmask ``mask``, or None."""
        common = reduce(int.__and__, map(self._up.__getitem__, _kernels.indices(mask)))
        return _kernels.least(self._up, self._down, common)

    def _inf_at(self, mask):
        """Index of the inf of the nonempty member bitmask ``mask``, or None."""
        common = reduce(int.__and__, map(self._down.__getitem__, _kernels.indices(mask)))
        return _kernels.greatest(self._up, self._down, common)

    def _name(self, k):
        return None if k is None else self.elements[k]

    # -- structure ----------------------------------------------------------

    @_lazy
    def _cover_rows(self):
        """The covering rows of :func:`latnash._kernels.cover_rows`,
        computed once per poset."""
        return tuple(_kernels.cover_rows(self._up, self._down))

    def covers(self):
        """Covering pairs (a, b): a < b with nothing strictly between, by
        index of a, then of b."""
        names = self.elements
        return [(names[i], names[j])
                for i, row in enumerate(self._cover_rows)
                for j in _kernels.indices(row)]

    def top(self):
        """Greatest element, or None."""
        full = (1 << len(self.elements)) - 1
        return self._name(_kernels.greatest(self._up, self._down, full))

    def bottom(self):
        full = (1 << len(self.elements)) - 1
        return self._name(_kernels.least(self._up, self._down, full))


# --------------------------------------------------------------------------
# construction


def build_poset(elements, order_pairs) -> Poset:
    """Build a poset from any generating set of order pairs.

    The relation is closed reflexively and transitively, so callers may
    hand over a Hasse diagram, a full order, or anything in between.
    Rejects inputs whose closure violates antisymmetry.

    When every pair ascends in element order (a's index <= b's), the
    element order is a linear extension and the relation has no cycle:
    the up-rows close in one pass from the last element down, each the
    OR of its successors' closed rows, and the down-rows in one pass from
    the first element up, on the reversed pairs.  Any other relation is
    closed by Warshall, transposed and checked for a cycle.
    """
    elements = _distinct(elements)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [0] * n
    down = [0] * n
    pairs = _collection(order_pairs)
    if pairs is None:
        raise ParseError(f"order pairs {quote(order_pairs)} are not a collection of pairs")
    ascending = True
    for pair in pairs:
        i, j = _pair_indices(index, pair)
        up[i] |= 1 << j
        down[j] |= 1 << i
        if i > j:
            ascending = False
    if ascending:
        # a successor's closed row holds every successor in it, which is
        # then not walked
        for i in range(n - 1, -1, -1):
            row = up[i] | 1 << i
            later = row & ~((2 << i) - 1)
            while later:
                r = up[(later & -later).bit_length() - 1]
                row |= r
                later &= ~r
            up[i] = row
        for i in range(n):
            row = down[i] | 1 << i
            earlier = row & ((1 << i) - 1)
            while earlier:
                r = down[earlier.bit_length() - 1]
                row |= r
                earlier &= ~r
            down[i] = row
    else:
        up = _kernels.transitive_closure(up, n)
        down = [0] * n
        for i, m in enumerate(up):
            while m:
                j = (m & -m).bit_length() - 1
                down[j] |= 1 << i
                m &= m - 1
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise CycleDetected(
                    f"elements {quote(elements[i])} and {quote(elements[j])} "
                    "are mutually comparable"
                )
    P = Poset(elements, up, down, _trusted=True)
    P._index = index
    return P


def _pair_indices(index, pair):
    """The indices of the two labels of an order pair, refused if it is not
    two labels or a label names no element.  A list or tuple is taken as it
    is; any other pair is converted, and a set refused, once."""
    labels = (pair if type(pair) is list or type(pair) is tuple
              else _collection(_ordered(pair, "order pair")))
    if labels is None or len(labels) != 2:
        raise ParseError(f"order pair {quote(pair)} is not a pair of elements")
    return _pair_index(index, labels[0]), _pair_index(index, labels[1])


def _pair_index(index, x):
    """The index of the label x of an order pair, refused if x names no element."""
    try:
        return index[x]
    except (KeyError, TypeError):  # an unhashable label names no element
        raise UnknownElement(f"order pair references unknown element {quote(x)}") from None


def _collection(values):
    """``values`` as a tuple, or None when it is a string, bytes or not
    iterable: a string is never a collection of names, neither a profile
    nor a player set nor a set of labels or points."""
    if isinstance(values, (str, bytes)):
        return None
    try:
        return tuple(values)
    except TypeError:
        return None


def _ordered(values, what):
    """``values`` as given, refused if it is a set: a set iterates in hash
    order, so it cannot stand where the order of its names carries meaning
    (a profile, a payoff key, an order pair, a game's players or a chain's
    elements).  A dict's keys or items view is ordered by insertion and
    is taken.  Where a set is meant, sets are taken as they are."""
    if isinstance(values, Set) and not isinstance(values, MappingView):
        raise ParseError(f"{what} {quote(values)} is a set, which has no order")
    return values


def _distinct(elements):
    """The elements as a list, refused if empty or holding a repeat."""
    elements = list(elements)
    if not elements:
        raise EmptySubset("a poset needs at least one element")
    return _unrepeated(elements)


def _unrepeated(elements):
    """The list ``elements``, refused if it holds a repeat or an unhashable element."""
    try:
        repeated = len(set(elements)) < len(elements)
    except TypeError as e:
        raise ParseError(f"element labels must be hashable: {e}") from None
    if repeated:
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(f"duplicate element {quote(e)}")
            seen.add(e)
    return elements


def chain(elements) -> Poset:
    """Total order in the given element order: element i lies below
    element j iff i <= j, so the rows are written down directly; a set has
    no such order and is refused."""
    elements = _distinct(_ordered(elements, "chain elements"))
    full = (1 << len(elements)) - 1
    return Poset(elements, [full ^ ((1 << i) - 1) for i in range(len(elements))],
                 [(2 << i) - 1 for i in range(len(elements))], _trusted=True)


def antichain(elements) -> Poset:
    """Poset with no nontrivial comparabilities."""
    return build_poset(elements, [])


def product_element_name(parts) -> str:
    return "(" + ",".join(parts) + ")"


def _product_names(carriers):
    """The names of the product of the carriers, in row-major order, refused
    if a label is not a string or two tuples share a name, as ("a", "b,c")
    and ("a,b", "c") would.  Tuples of one arity share a name only through
    a label holding ",", so only then are the names checked for repeats."""
    comma = False
    for c in carriers:
        for e in c:
            if not isinstance(e, str):
                raise ParseError(f"product factor label {quote(e)} is not a string")
            comma = comma or "," in e
    names = list(map(product_element_name, iter_product(*carriers)))
    return _unrepeated(names) if comma else names


def product_poset(factors, cap: int = DEFAULT_PRODUCT_CAP) -> Poset:
    """Product poset under the componentwise order.

    Elements are tuples rendered as parenthesized comma-joined strings in
    row-major order (first factor slowest).  A single factor is returned
    unchanged.
    """
    factors = list(factors)
    if not factors:
        raise EmptySubset("product of zero factors")
    _check_product_cap(map(len, factors), cap)
    if len(factors) == 1:
        return factors[0]
    return Poset(_product_names([f.elements for f in factors]),
                 reduce(_product_rows, [f._up for f in factors]),
                 reduce(_product_rows, [f._down for f in factors]), _trusted=True)


def _check_product_cap(sizes, cap):
    """Refuse a product of factors of the given sizes that has more than
    ``cap`` elements."""
    total = math.prod(sizes)
    if total > cap:
        raise ProductTooLarge(f"product has {total} elements, cap is {cap}")


def _product_rows(rows_a, rows_b):
    """Rows of the binary product, row-major over (i, j) -> i*nb + j.

    Each product row is assembled with word arithmetic: tile the b-row
    across all a-blocks, then mask to the blocks permitted by the a-row.
    """
    na, nb = len(rows_a), len(rows_b)
    block = (1 << nb) - 1
    rep = ((1 << (na * nb)) - 1) // block
    tiles = [rb * rep for rb in rows_b]
    out = []
    for ra in rows_a:
        mask = 0
        m = ra
        while m:
            a = (m & -m).bit_length() - 1
            mask |= block << (a * nb)
            m &= m - 1
        for t in tiles:
            out.append(t & mask)
    return out


def induced_poset(parent: Poset, members) -> Poset:
    """Restriction of the parent's order to a nonempty subset.

    Keeps the parent's element order and labels; a subset holding every
    element is the parent itself, which is immutable.
    """
    return _induced(parent, _subset_mask(
        parent, members, "induced poset needs a nonempty subset", "parent poset"))


def _induced(parent: Poset, mask) -> Poset:
    """:func:`induced_poset` of the nonempty member bitmask ``mask``."""
    if mask.bit_count() == len(parent):
        return parent
    return Poset(_members(parent.elements, mask), _trace_rows(parent._up, mask),
                 _trace_rows(parent._down, mask), _trusted=True)


def _trace_rows(rows, kept):
    """The rows at the set bits of the bitmask ``kept``, cut down to those
    bits by :func:`_cut_rows`."""
    return _cut_rows(_members(rows, kept), kept)


def _cut_rows(rows, kept):
    """The bitmask rows cut down to the set bits of ``kept`` and
    renumbered by rank among them; each row walks only its set bits
    inside ``kept``, looking up each one's renumbered bit by its length."""
    new, rank, rest = {}, 0, kept
    while rest:
        low = rest & -rest
        rest ^= low
        new[low.bit_length()] = 1 << rank
        rank += 1
    out = []
    for m in rows:
        m &= kept
        row = 0
        while m:
            low = m & -m
            m ^= low
            row |= new[low.bit_length()]
        out.append(row)
    return out


# --------------------------------------------------------------------------
# lattice checks


def is_lattice(P: Poset) -> CheckResult:
    """Every pair has a join and a meet."""
    full = (1 << len(P.elements)) - 1
    pair = _kernels.pair_scan(P._up, P._down, full, full)
    if pair is None:
        return PASS
    a, b = pair
    kind = "join" if P._join_at(a, b) is None else "meet"
    return CheckResult(False, witness=(P.elements[a], P.elements[b], None, kind))


def _members(items, mask):
    """The items at the set bits of the bitmask ``mask``, in order."""
    return tuple([items[i] for i in _kernels.indices(mask)])


def is_complete_lattice(P: Poset, *, exhaustive: bool = False) -> CheckResult:
    """Every nonempty subset has a sup and an inf.

    A finite lattice is automatically complete, so the default mode just
    defers to :func:`is_lattice`.  The exhaustive mode decides all
    ``2^|P| - 1`` nonempty subsets (refused above 20 elements), so tests
    can confront the definition directly: a passing P is certified by the
    pair scan, and only a failing one is walked, to name its first
    failing subset (:func:`_subset_scan`).
    """
    if not exhaustive:
        r = is_lattice(P)
        return PASS_PAIRWISE if r else CheckResult(False, witness=r.witness, mode="pairwise")
    m = _subset_scan(P, (1 << len(P.elements)) - 1)
    if not m:
        return PASS_EXHAUSTIVE
    kind = "sup" if P._sup_at(m) is None else "inf"
    return CheckResult(False, witness=(_members(P.elements, m), None, kind), mode="exhaustive")


def _subset_scan(P: Poset, member_mask):
    """:func:`latnash._kernels.subset_scan` on P's rows, over 2^20 subsets
    at most, run only on a set that the pair scan does not certify.

    The certificate is exact: if every pair of a set S has its join and
    meet in S, then every nonempty subset of S has its sup and inf in S.
    By induction on the subset: sup {a} = a, and if B has its sup in S,
    the upper bounds of B | {a} are those of sup B and a, so
    sup(B | {a}) = join(sup B, a), which exists and lies in S; infs
    dually.  So a passing set costs its pairs, not its 2^|S| - 1 subsets,
    and the walk runs only to name the first failing subset.
    """
    k = member_mask.bit_count()
    if k > _SUBSET_WALK_BITS:
        raise ProductTooLarge(f"exhaustive check over 2^{k} subsets exceeds "
                              f"the limit of 2^{_SUBSET_WALK_BITS}")
    if _kernels.pair_scan(P._up, P._down, member_mask, member_mask) is None:
        return 0
    return _kernels.subset_scan(P._up, P._down, member_mask)


def _subset_mask(P: Poset, S, empty="subset is empty", within="poset"):
    """The nonempty subset S of P's elements as a bitmask; ``empty`` and
    ``within`` word the refusals, which sort missing labels as strings.  A
    string is not a collection of labels."""
    labels = _collection(S)
    if labels is None:
        raise UnknownElement(f"{quote(S)} is not a collection of elements of the {within}")
    mask, missing = 0, []
    for e in labels:
        try:
            mask |= 1 << P._index[e]
        except (KeyError, TypeError):  # an unhashable label names no element
            if e not in missing:
                missing.append(e)
    if missing:
        raise UnknownElement(f"elements not in {within}: {quote(sorted(missing, key=str))}")
    if not mask:
        raise EmptySubset(empty)
    return mask


def is_sublattice(P: Poset, S) -> CheckResult:
    """Is S closed under the AMBIENT joins and meets of P?

    Raises NotALattice if P itself lacks a join/meet needed by some pair
    of S.  Note that a set failing this test can still be a lattice in its
    induced order; the two notions differ exactly when a pairwise bound
    escapes S.
    """
    return _sublattice(P, _subset_mask(P, S))


def _sublattice(P: Poset, mask) -> CheckResult:
    """:func:`is_sublattice` of the member bitmask ``mask``."""
    pair = _kernels.pair_scan(P._up, P._down, mask, mask)
    if pair is None:
        return PASS
    a, b = pair
    x, y = P.elements[a], P.elements[b]
    bounds = (("join", P._join_at(a, b), mask), ("meet", P._meet_at(a, b), mask))
    kind, c = _first_escape(bounds, "ambient poset", f"{quote(x)}, {quote(y)}")
    return CheckResult(False, witness=(x, y, P.elements[c], kind))


def _first_escape(bounds, within, what):
    """The first (kind, index) of ``bounds``, (kind, index or None, mask)
    triples, whose index lies outside its mask; a missing bound raises
    NotALattice: ``within`` has no such bound for ``what``."""
    for kind, c, mask in bounds:
        if c is None:
            raise NotALattice(f"{within} has no {kind} for {what}")
        if not (mask >> c) & 1:
            return kind, c


def is_subcomplete(P: Poset, S, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> CheckResult:
    """Does every nonempty subset of S have its ambient sup and inf in S?

    Exhaustive for |S| <= cap: a verdict over every subset, which walks
    the subsets only when S fails (:func:`_subset_scan`).  For larger S the
    verdict is decided by the pairwise test (in a finite ambient lattice
    closure under pairs implies closure under every subset) and flagged
    ``finite-equivalence``.
    """
    return _subcomplete(P, _subset_mask(P, S), cap)


def _subcomplete(P: Poset, mask, cap) -> CheckResult:
    """:func:`is_subcomplete` of the nonempty member bitmask ``mask``."""
    if mask.bit_count() > cap:
        r = _sublattice(P, mask)
        return CheckResult(r.ok, witness=r.witness, mode="finite-equivalence")
    m = _subset_scan(P, mask)
    if not m:
        return PASS_EXHAUSTIVE
    S = _members(P.elements, m)
    bounds = (("sup", P._sup_at(m), mask), ("inf", P._inf_at(m), mask))
    kind, c = _first_escape(bounds, "ambient poset", quote(S))
    return CheckResult(False, mode="exhaustive", witness=(S, P.elements[c], kind))


# --------------------------------------------------------------------------
# correspondences


class Correspondence:
    """Set-valued map from a poset to a poset, with nonempty images, held
    as one codomain bitmask per domain index."""

    def __init__(self, domain: Poset, codomain: Poset, mapping):
        masks = []
        for t in domain.elements:
            if t not in mapping:
                raise UnknownElement(f"no image given for domain element {quote(t)}")
            masks.append(_subset_mask(codomain, mapping[t],
                                      f"image of {quote(t)} is empty", "codomain"))
        extra = sorted(set(mapping) - set(domain.elements), key=str)
        if extra:
            raise UnknownElement(f"images for non-domain elements: {quote(extra)}")
        self.domain, self.codomain, self._images = domain, codomain, tuple(masks)

    @classmethod
    def _of(cls, domain: Poset, codomain: Poset, masks):
        """The correspondence whose image at domain index t is ``masks[t]``."""
        phi = cls.__new__(cls)
        phi.domain, phi.codomain, phi._images = domain, codomain, tuple(masks)
        return phi

    @_lazy
    def mapping(self):
        """Domain label -> frozenset of codomain labels, in domain order."""
        return {t: frozenset(_members(self.codomain.elements, m))
                for t, m in zip(self.domain.elements, self._images)}

    def __call__(self, t):
        return self.mapping[t]


def is_increasing_correspondence(phi: Correspondence) -> CheckResult:
    """For all t <= t', x in phi(t), x' in phi(t'):
    x meet x' lands in phi(t) and x join x' lands in phi(t')."""
    return _increasing_scan(phi.domain, phi.codomain, phi._images, phi.domain._up)


def is_increasing_by_covers(dom: Poset, cod: Poset, images) -> CheckResult:
    """:func:`_increasing_scan` over the domain's up-rows, for a codomain
    that is a lattice, passed on the domain's covering pairs t < t' alone.

    In a lattice, Veinott's strong set order is transitive on nonempty
    sets: for A <= B <= C pick b in B; then a meet c = a meet ((a join b)
    meet c) lies in A, and a join c = (a join (b meet c)) join c lies in C.
    Every t <= t' is joined by a chain of covers, so images that are
    closed and increase along every cover increase along every comparable
    pair.  An empty image breaks the chain argument, and a failure must
    name the first witness of the full scan, so both take that scan.
    """
    if all(images):
        r = _increasing_scan(dom, cod, images, dom._cover_rows)
        if r:
            return r
    return _increasing_scan(dom, cod, images, dom._up)


def _increasing_scan(dom: Poset, cod: Poset, images, rows) -> CheckResult:
    """:func:`is_increasing_correspondence` of the correspondence whose
    image at domain index t is the nonempty codomain bitmask ``images[t]``,
    over the domain pairs (t, t') with t' in ``rows[t]``: over every
    comparable pair when ``rows`` are the domain's up-rows.

    t = t' is included, so every image must in particular be closed under
    pairwise meets and joins.  Pairs with EQUAL images reduce to exactly
    that closure condition, so each distinct image is checked once, at
    its first domain index, and the pair scan only runs where the images
    differ; a pair of distinct images that passed once passes again, so
    it is scanned once.  That walk is :func:`latnash._kernels.increasing_scan`,
    whose first failing pair is named here meet first: a meet must lie in
    A and a join in B.
    """
    found = _kernels.increasing_scan(cod._up, cod._down, images, rows)
    if found is None:
        return PASS
    t, t2, a, b = found
    names = cod.elements
    bounds = (("meet", cod._meet_at(a, b), images[t]), ("join", cod._join_at(a, b), images[t2]))
    kind, c = _first_escape(bounds, "codomain", f"{quote(names[a])}, {quote(names[b])}")
    return CheckResult(False, witness=(dom.elements[t], dom.elements[t2],
                                       names[a], names[b], names[c], kind))


# --------------------------------------------------------------------------
# export


def to_dot(P: Poset, highlight=(), name: str = "poset") -> str:
    """DOT digraph of the Hasse diagram, bottom-to-top.

    Elements in ``highlight`` get ``shape=box``; all others ``shape=ellipse``.
    """
    highlight = set(highlight)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for e in P.elements:
        shape = "box" if e in highlight else "ellipse"
        lines.append(f'  "{e}" [label="{e}", shape={shape}];')
    for a, b in P.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# random instances (used by the verify command and by tests), each closed
# from random element indices by _kernels.sublattice_close on index rows


def random_lattice(rng, max_size: int = 8) -> Poset:
    """Random finite lattice: a sublattice of a small grid, relabeled.

    Sampled by closing a random seed subset of a product of chains under
    its joins and meets, which always gives a lattice; its order is the
    one the grid induces on it, labeled ``e{i}`` in grid order.
    """
    for _ in range(200):
        k = rng.randint(2, 3)
        lengths = [rng.randint(2, 3) for _ in range(k)]
        grid = product_poset([chain([str(v) for v in range(ln)])
                              for ln in lengths])
        n = len(grid.elements)
        kept = _kernels.sublattice_close(
            grid._up, grid._down, rng.sample(range(n), rng.randint(2, min(6, n))))
        if kept.bit_count() <= max_size:
            Q = _induced(grid, kept)
            return Poset([f"e{i}" for i in range(len(Q))], Q._up, Q._down, _trusted=True)
    # a max_size below 2 can always fall back to a chain
    return chain(["e0", "e1"])


def random_sublattice(rng, P: Poset):
    """Nonempty subset of a lattice P closed under P's joins and meets."""
    n = len(P.elements)
    members = _kernels.sublattice_close(
        P._up, P._down, rng.sample(range(n), rng.randint(1, max(1, n // 2))))
    if members is None:
        raise NotALattice("closure requires a lattice ambient")
    return set(_members(P.elements, members))
