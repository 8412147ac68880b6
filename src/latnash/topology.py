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
each element, is read straight from the order's down- and up-rows; only
:func:`generate_topology` turns names into bitmasks, through
:meth:`FiniteTopology.mask_of`, and it refuses a repeated point.

Every operation on rows is polynomial in the carrier size, so no carrier
is refused; a failing lemma check names its witness from one point's
two closures.  Only listing the family can blow up, to the full power
set: :attr:`FiniteTopology.closed_masks`, and through it
:meth:`~FiniteTopology.closed_sets` and :meth:`~FiniteTopology.dump`,
refuses a family of more than 2^16 sets.
"""

import reprlib
from functools import cached_property, reduce

from latnash.errors import (
    CarrierMismatch,
    CarrierTooLarge,
    ElementOutOfCarrier,
    NotALattice,
    PreconditionViolated,
)
from latnash.order import (
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_PRODUCT_CAP,
    PASS,
    CheckResult,
    Poset,
    _product_names,
    _product_rows,
    _trace_rows,
    _unrepeated,
    induced_poset,
    is_lattice,
    is_subcomplete,
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
        m = 0
        for e in subset:
            i = self._index.get(e)
            if i is None:
                raise ElementOutOfCarrier(f"{reprlib.repr(e)} is not in the carrier")
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


def generate_topology(carrier, subbasis) -> FiniteTopology:
    """Smallest topology whose closed sets include the subbasis.

    The closure of a point is the carrier intersected with every subbasis
    set that contains the point.  A carrier that repeats a point is
    refused, and so is a subbasis set holding a point outside it.
    """
    T = FiniteTopology(_unrepeated(list(carrier)), ())
    T.rows = tuple(_point_closures(len(T.carrier), [T.mask_of(s) for s in subbasis]))
    return T


def interval_topology(P: Poset) -> FiniteTopology:
    """Topology generated by the closed rays below and above each element,
    read as bitmasks from the order's own rows."""
    return FiniteTopology(P.elements, _point_closures(len(P.elements), P._down + P._up))


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
    missing = keep.difference(T.carrier)
    if missing:
        raise ElementOutOfCarrier(f"not in the carrier: {sorted(missing)}")
    idx = [i for i, e in enumerate(T.carrier) if e in keep]
    return FiniteTopology([T.carrier[i] for i in idx], _trace_rows(T.rows, idx))


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
    # The closure of a product point is the product of the closures; a
    # zero-point factor leaves nothing to multiply.
    rows = reduce(_product_rows, (T.rows for T in Ts)) if all(T.rows for T in Ts) else []
    return FiniteTopology(_product_names([T.carrier for T in Ts]), rows)


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
    ``exhaustive_cap`` is passed to the subcompleteness precondition.
    """
    sub = is_subcomplete(P, Q, cap=exhaustive_cap)
    if not sub:
        raise PreconditionViolated(
            f"Q is not subcomplete in P (witness {sub.witness})")
    return _same_topology(interval_topology(induced_poset(P, Q)),
                          restrict(interval_topology(P), Q))


def check_product_interval_lemma(Ls,
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
        interval_topology(product_poset(Ls, cap=product_cap)),
        product_topology([interval_topology(L) for L in Ls]))
