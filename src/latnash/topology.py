"""Finite topologies as point closures.

A topology on a finite carrier is an Alexandrov topology: arbitrary
intersections of closed sets are closed, so each point ``x`` has a least
closed set ``c(x)`` containing it, and a set is closed exactly when it
contains ``c(x)`` for each of its points.  The closed sets are therefore
the unions of point closures, and a topology is stored as one bitmask
``c(x)`` per point.  The full family of closed sets is listed only on
demand (:attr:`FiniteTopology.closed_masks`), and the point -> index dict,
a ``functools.cached_property``, when a point is first looked up.

A point's closure is the AND of the subbasis bitmasks that contain it.
The subbasis of an interval topology, the closed rays below and above
each element, is read straight from the order's down- and up-rows.
Names become a bitmask in :meth:`FiniteTopology.mask_of` (for
:func:`generate_topology`, which refuses a repeated point, and
:func:`restrict`); a lemma's Q crosses from the order layer as one
bitmask, and :func:`latnash.order._members` reads any bitmask as names.

The two lemma checkers work on index rows and name their carrier once.
The restriction lemma closes the rays of P's rows traced to Q on one
side, and P's rays at Q's points alone, traced to Q, on the other; its
precondition, that Q is subcomplete, is certified by the pair scan and
walks Q's subsets only when Q fails (:func:`latnash.order._subset_scan`).
The product lemma closes the product order's rays on one side, and
multiplies the factors' closures, each from its own rays, on the other,
as :func:`product_topology` does.  Each side still comes from its own
subbasis: on a finite poset both are discrete, and a shortcut to that
would test nothing.

Every operation on rows is polynomial in the carrier size, so no carrier
is refused; a failing lemma check names its witness from one point's
two closures.  Only listing the family can blow up, to the full power
set: :attr:`FiniteTopology.closed_masks`, and through it
:meth:`~FiniteTopology.closed_sets` and :meth:`~FiniteTopology.dump`,
refuses a family of more than 2^16 sets.
"""

from functools import cached_property, reduce

from latnash import _kernels
from latnash.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    ElementOutOfCarrier,
    NotALattice,
    PreconditionViolated,
    quote,
)
from latnash.order import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_PRODUCT_CAP,
    PASS,
    CheckResult,
    Poset,
    _collection,
    _cut_rows,
    _members,
    _product_names,
    _product_rows,
    _subcomplete,
    _subset_mask,
    _trace_rows,
    _unrepeated,
    is_lattice,
    product_poset,
)

_LISTING_BITS = 16  # closed_masks lists at most 2^16 sets


class FiniteTopology:
    """A topology on a finite carrier, stored as its point closures.

    ``rows[i]`` is the closure of ``carrier[i]`` as a bitmask over the
    carrier: the least closed set containing that point.  A set is closed
    iff it is a union of rows; the empty union gives the empty set.
    """

    def __init__(self, carrier, rows):
        self.carrier = tuple(carrier)
        self.rows = tuple(rows)

    @cached_property
    def _index(self):
        """The point -> index dict, built when it is first read."""
        return {e: i for i, e in enumerate(self.carrier)}

    def __eq__(self, other):
        if not isinstance(other, FiniteTopology):
            return NotImplemented
        return self.carrier == other.carrier and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"FiniteTopology({len(self.carrier)} points)"

    @property
    def closed_masks(self) -> frozenset:
        """Every closed set as a bitmask: all unions of point closures.

        Raises CarrierTooLarge once the family exceeds 2^16 sets."""
        family = {0}
        for r in set(self.rows):
            family |= {m | r for m in family}
            if len(family) > 1 << _LISTING_BITS:
                raise CarrierTooLarge(
                    f"closed-set family exceeds 2^{_LISTING_BITS} sets")
        return frozenset(family)

    def mask_of(self, subset) -> int:
        """The bitmask of a collection of carrier points; a string is none."""
        points = _collection(subset)
        if points is None:
            raise ElementOutOfCarrier(f"{quote(subset)} is not a collection of points")
        m = 0
        for e in points:
            try:
                m |= 1 << self._index[e]
            except (KeyError, TypeError):  # an unhashable label names no point
                raise ElementOutOfCarrier(f"{quote(e)} is not in the carrier") from None
        return m

    def set_of(self, mask) -> frozenset:
        return frozenset(_members(self.carrier, mask))

    def _close(self, mask) -> int:
        return reduce(int.__or__, _members(self.rows, mask), 0)

    def is_closed(self, subset) -> bool:
        m = self.mask_of(subset)
        return self._close(m) == m

    def closed_sets(self):
        """Closed sets as frozensets, in canonical (sorted-mask) order."""
        return [self.set_of(m) for m in sorted(self.closed_masks)]

    def closure(self, subset) -> frozenset:
        """Smallest closed superset: the union of the point closures."""
        return self.set_of(self._close(self.mask_of(subset)))

    def dump(self) -> str:
        """One closed set per line, elements comma-joined in carrier order,
        lines sorted lexicographically.  Bit-exact for golden tests."""
        return "\n".join(sorted(",".join(_members(self.carrier, m))
                                for m in self.closed_masks)) + "\n"


def generate_topology(carrier, subbasis) -> FiniteTopology:
    """Smallest topology whose closed sets include the subbasis.

    The closure of a point is the carrier intersected with every subbasis
    set that contains the point.  A carrier that repeats a point is
    refused, and so is a subbasis set holding a point outside it.
    """
    T = FiniteTopology(_unrepeated(list(carrier)), ())
    sets = _collection(subbasis)
    if sets is None:
        raise ElementOutOfCarrier(f"subbasis {quote(subbasis)} is not a collection of "
                                  "point sets")
    T.rows = tuple(_point_closures(len(T.carrier), [T.mask_of(s) for s in sets]))
    return T


def interval_topology(P: Poset) -> FiniteTopology:
    """Topology generated by the closed rays below and above each element,
    read as bitmasks from the order's own rows."""
    return FiniteTopology(P.elements, _point_closures(len(P.elements), P._down + P._up))


def _point_closures(n, masks, points=None):
    """Per point of an n-point carrier, or per set bit of the bitmask
    ``points`` in ascending order, the AND of the subbasis bitmasks that
    contain the point (the whole carrier when none does)."""
    full = (1 << n) - 1
    rows = []
    for i in range(n) if points is None else _kernels.indices(points):
        bit, row = 1 << i, full
        for m in masks:
            if m & bit:
                row &= m
        rows.append(row)
    return rows


def restrict(T: FiniteTopology, S) -> FiniteTopology:
    """Subspace topology: closed sets are the traces C & S, so the closure
    of a point of S is the trace of its closure in T."""
    mask = T.mask_of(S)
    return FiniteTopology(_members(T.carrier, mask), _trace_rows(T.rows, mask))


def product_topology(Ts) -> FiniteTopology:
    """Topology on the product carrier generated by closed cylinders.

    Carrier naming matches :func:`latnash.order.product_poset`; a single
    factor is returned unchanged.
    """
    Ts = list(Ts)
    if not Ts:
        raise ElementOutOfCarrier("product of zero topologies")
    if len(Ts) == 1:
        return Ts[0]
    return FiniteTopology(_product_names([T.carrier for T in Ts]),
                          _product_closures([T.rows for T in Ts]))


def _product_closures(factor_rows):
    """The point closures of a product topology, row-major, from the point
    closures of its factors: the closure of a product point is the product
    of the closures.  A zero-point factor leaves nothing to multiply."""
    return reduce(_product_rows, factor_rows) if all(factor_rows) else []


def finer_than(T1: FiniteTopology, T2: FiniteTopology) -> bool:
    """True iff every closed set of T2 is closed in T1, that is, iff every
    point closure in T1 lies inside the same point's closure in T2."""
    if T1.carrier != T2.carrier:
        raise CarrierMismatch("topologies live on different carriers")
    return all(r1 | r2 == r2 for r1, r2 in zip(T1.rows, T2.rows))


def _same_topology(lhs: FiniteTopology, rhs: FiniteTopology) -> CheckResult:
    """Passes iff the topologies on one carrier are equal; otherwise the
    witness is a closed set only one of them has, without listing either:
    at the first point whose closures a (in lhs) and b (in rhs) differ, a
    closed in rhs holds b, and b closed in lhs holds a, so not both are;
    the witness is a unless rhs holds it closed, and then b."""
    if lhs == rhs:
        return PASS
    a, b = next((a, b) for a, b in zip(lhs.rows, rhs.rows) if a != b)
    return CheckResult(False, witness=(lhs.set_of(a if rhs._close(a) != a else b),))


def check_restriction_lemma(P: Poset, Q,
                            exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> CheckResult:
    """Self-test: for subcomplete Q in a lattice P, the interval topology
    of the induced order on Q must equal the restriction to Q of the
    interval topology of P.  A False here means an engine bug.
    Q becomes one bitmask, which the subcompleteness precondition (with
    ``exhaustive_cap``) and both sides read, and its carrier is named
    once.  The left side closes the rays of the induced order, P's rows
    traced to Q, without building the induced poset; the right side
    closes P's rays at Q's points alone and traces those closures to Q.
    """
    mask = _subset_mask(P, Q)
    sub = _subcomplete(P, mask, exhaustive_cap)
    if not sub:
        raise PreconditionViolated(
            f"Q is not subcomplete in P (witness {quote(sub.witness)})")
    carrier = _members(P.elements, mask)
    rays = _cut_rows(_members(P._down, mask) + _members(P._up, mask), mask)
    induced = _point_closures(len(carrier), rays)
    restricted = _cut_rows(_point_closures(len(P.elements), P._down + P._up, mask), mask)
    return _same_topology(FiniteTopology(carrier, induced), FiniteTopology(carrier, restricted))


def check_product_interval_lemma(Ls,
                                 product_cap: int = DEFAULT_PRODUCT_CAP) -> CheckResult:
    """Self-test: the interval topology of a finite product of lattices
    must equal the product of the factor interval topologies.
    ``product_cap`` bounds the size of the product lattice, whose carrier
    names both sides: the right side is the row product of the factors'
    point closures, each closed from the factor's own rays.
    """
    Ls = list(Ls)
    for L in Ls:
        r = is_lattice(L)
        if not r:
            raise NotALattice(f"factor is not a lattice (witness {quote(r.witness)})")
    P = product_poset(Ls, cap=product_cap)
    factors = [_point_closures(len(L.elements), L._down + L._up) for L in Ls]
    return _same_topology(interval_topology(P),
                          FiniteTopology(P.elements, _product_closures(factors)))
