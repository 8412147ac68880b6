"""Finite topologies as point closures.

A topology on a finite carrier is an Alexandrov topology: arbitrary
intersections of closed sets are closed, so each point ``x`` has a least
closed set ``c(x)`` containing it, and a set is closed exactly when it
contains ``c(x)`` for each of its points.  The closed sets are therefore
the unions of point closures, and a topology is stored as one bitmask
``c(x)`` per point.  The full family of closed sets is listed only on
demand (:attr:`FiniteTopology.closed_masks`).

A point's closure is the AND of the subbasis bitmasks that contain it.
The subbasis of an interval topology, the closed rays below and above
each element, is read straight from the order's down- and up-rows; only
:func:`generate_topology` turns a subbasis of names into bitmasks.

Carriers are capped (default 16 elements) because the listed families can
approach the full power set.
"""

from functools import reduce
from itertools import product as iter_product

from latnash.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    ElementOutOfCarrier,
    NotALattice,
    PreconditionViolated,
    ProductTooLarge,
)
from latnash.order import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_PRODUCT_CAP,
    CheckResult,
    Poset,
    _product_rows,
    _trace_rows,
    induced_poset,
    is_lattice,
    is_subcomplete,
    product_element_name,
    product_poset,
)

DEFAULT_CARRIER_CAP = 16


class FiniteTopology:
    """A topology on a finite carrier, stored as its point closures.

    ``rows[i]`` is the closure of ``carrier[i]`` as a bitmask over the
    carrier: the least closed set containing that point.  A set is closed
    iff it is a union of rows; the empty union gives the empty set.
    """

    __slots__ = ("carrier", "_index", "rows")

    def __init__(self, carrier, rows):
        self.carrier = tuple(carrier)
        self._index = {e: i for i, e in enumerate(self.carrier)}
        self.rows = tuple(rows)

    def __eq__(self, other):
        if not isinstance(other, FiniteTopology):
            return NotImplemented
        return self.carrier == other.carrier and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"FiniteTopology({len(self.carrier)} points, {len(self.closed_masks)} closed sets)"

    @property
    def closed_masks(self) -> frozenset:
        """Every closed set as a bitmask: all unions of point closures."""
        family = {0}
        for r in set(self.rows):
            family |= {m | r for m in family}
        return frozenset(family)

    def mask_of(self, subset) -> int:
        m = 0
        for e in subset:
            i = self._index.get(e)
            if i is None:
                raise ElementOutOfCarrier(f"{e!r} is not in the carrier")
            m |= 1 << i
        return m

    def set_of(self, mask) -> frozenset:
        return frozenset(self.carrier[i] for i in range(len(self.carrier))
                         if (mask >> i) & 1)

    def _close(self, mask) -> int:
        acc = 0
        while mask:
            i = (mask & -mask).bit_length() - 1
            acc |= self.rows[i]
            mask &= mask - 1
        return acc

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
        lines = []
        for m in self.closed_masks:
            lines.append(",".join(self.carrier[i] for i in range(len(self.carrier))
                                  if (m >> i) & 1))
        return "\n".join(sorted(lines)) + "\n"


def generate_topology(carrier, subbasis,
                      cap: int = DEFAULT_CARRIER_CAP) -> FiniteTopology:
    """Smallest topology whose closed sets include the subbasis.

    The closure of a point is the carrier intersected with every subbasis
    set that contains the point.
    """
    carrier = tuple(carrier)
    _check_carrier(len(carrier), cap)
    index = {e: i for i, e in enumerate(carrier)}
    masks = []
    for s in subbasis:
        m = 0
        for e in s:
            i = index.get(e)
            if i is None:
                raise ElementOutOfCarrier(f"{e!r} is not in the carrier")
            m |= 1 << i
        masks.append(m)
    return FiniteTopology(carrier, _point_closures(len(carrier), masks))


def interval_topology(P: Poset, cap: int = DEFAULT_CARRIER_CAP) -> FiniteTopology:
    """Topology generated by the closed rays below and above each element,
    read as bitmasks from the order's own rows."""
    _check_carrier(len(P.elements), cap)
    return FiniteTopology(P.elements, _point_closures(len(P.elements), P._down + P._up))


def _check_carrier(n, cap):
    if n > cap:
        raise CarrierTooLarge(f"carrier has {n} elements, generation cap is {cap}")


def _point_closures(n, masks):
    """Per point of an n-point carrier, the AND of the subbasis bitmasks
    that contain it (the whole carrier when none does)."""
    full = (1 << n) - 1
    rows = []
    for i in range(n):
        bit, row = 1 << i, full
        for m in masks:
            if m & bit:
                row &= m
        rows.append(row)
    return rows


def restrict(T: FiniteTopology, S) -> FiniteTopology:
    """Subspace topology: closed sets are the traces C & S, so the closure
    of a point of S is the trace of its closure in T."""
    keep = set(S)
    missing = keep.difference(T._index)
    if missing:
        raise ElementOutOfCarrier(f"not in the carrier: {sorted(missing)}")
    idx = [i for i, e in enumerate(T.carrier) if e in keep]
    return FiniteTopology([T.carrier[i] for i in idx], _trace_rows(T.rows, idx))


def product_topology(Ts, cap: int = DEFAULT_CARRIER_CAP) -> FiniteTopology:
    """Topology on the product carrier generated by closed cylinders.

    Carrier naming matches :func:`latnash.order.product_poset`; a single
    factor is returned unchanged.
    """
    Ts = list(Ts)
    if not Ts:
        raise ElementOutOfCarrier("product of zero topologies")
    if len(Ts) == 1:
        return Ts[0]
    total = 1
    for T in Ts:
        total *= len(T.carrier)
    if total > cap:
        raise ProductTooLarge(f"product carrier has {total} points, cap is {cap}")
    # The closure of a product point is the product of the closures; a
    # zero-point factor leaves nothing to multiply.
    rows = reduce(_product_rows, (T.rows for T in Ts)) if total else []
    carrier = [product_element_name(t)
               for t in iter_product(*(T.carrier for T in Ts))]
    return FiniteTopology(carrier, rows)


def finer_than(T1: FiniteTopology, T2: FiniteTopology) -> bool:
    """True iff every closed set of T2 is closed in T1, that is, iff every
    point closure in T1 lies inside the same point's closure in T2."""
    if T1.carrier != T2.carrier:
        raise CarrierMismatch("topologies live on different carriers")
    return all(r1 | r2 == r2 for r1, r2 in zip(T1.rows, T2.rows))


def _same_topology(lhs: FiniteTopology, rhs: FiniteTopology) -> CheckResult:
    """Passes iff the topologies are equal; otherwise the witness is the
    first closed set, in mask order, that only one of them has."""
    if lhs == rhs:
        return CheckResult(True)
    first = min(lhs.closed_masks ^ rhs.closed_masks)
    return CheckResult(False, witness=(lhs.set_of(first),))


def check_restriction_lemma(P: Poset, Q, cap: int = DEFAULT_CARRIER_CAP,
                            exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> CheckResult:
    """Self-test: for subcomplete Q in a lattice P, the interval topology
    of the induced order on Q must equal the restriction to Q of the
    interval topology of P.  A False here means an engine bug.
    ``exhaustive_cap`` is passed to the subcompleteness precondition.
    """
    sub = is_subcomplete(P, Q, cap=exhaustive_cap)
    if not sub:
        raise PreconditionViolated(
            f"Q is not subcomplete in P (witness {sub.witness})")
    return _same_topology(interval_topology(induced_poset(P, Q), cap=cap),
                          restrict(interval_topology(P, cap=cap), Q))


def check_product_interval_lemma(Ls, cap: int = DEFAULT_CARRIER_CAP,
                                 product_cap: int = DEFAULT_PRODUCT_CAP) -> CheckResult:
    """Self-test: the interval topology of a finite product of lattices
    must equal the product of the factor interval topologies.
    ``product_cap`` bounds the size of the product lattice.
    """
    Ls = list(Ls)
    for L in Ls:
        r = is_lattice(L)
        if not r:
            raise NotALattice(f"factor is not a lattice (witness {r.witness})")
    return _same_topology(
        interval_topology(product_poset(Ls, cap=product_cap), cap=cap),
        product_topology([interval_topology(L, cap=cap) for L in Ls], cap=cap))
