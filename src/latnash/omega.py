"""Symbolic model of the bounded infinite anti-chain lattice M_omega.

The carrier is {m, M} together with countably many pairwise-incomparable
elements x0, x1, ..., ordered m <= x_k <= M.  Every subset touching at
least two anti-chain elements has sup M and inf m; singletons and subsets
of a chain {m, x, M} take their sup/inf inside the chain.  The interval
topology of this lattice is the cofinite topology, which is hard-coded
here: closed sets are exactly the finite sets and the whole carrier.

Subsets are represented exactly as either a finite token set or a
cofinite set (finite exception set), so the infinite lattice is handled
with finite data throughout.
"""

import re
from dataclasses import dataclass

from latnash.errors import EmptySet, InvalidArgument, quote
from latnash.order import CheckResult, Poset, _collection, build_poset

BOTTOM = "m"
TOP = "M"

_TOKEN = re.compile(r"^(m|M|x\d+)$")


def anti_token(k: int) -> str:
    return f"x{k}"


def is_anti(token: str) -> bool:
    return token.startswith("x")


def _token_key(t: str):
    if t == BOTTOM:
        return (0, 0)
    if t == TOP:
        return (2, 0)
    return (1, int(t[1:]))


def _check_tokens(tokens):
    listed = _collection(tokens)
    if listed is None:
        raise InvalidArgument(f"not a collection of carrier tokens: {quote(tokens)}")
    for t in listed:
        if not (isinstance(t, str) and _TOKEN.match(t)):
            raise InvalidArgument(f"not a carrier token: {quote(t)}")
    return frozenset(listed)


@dataclass(frozen=True)
class CofiniteSet:
    """Finite or cofinite subset of the M_omega carrier.

    ``data`` holds the members when finite, the non-members when cofinite.
    """

    cofinite: bool
    data: frozenset

    @classmethod
    def finite(cls, tokens) -> "CofiniteSet":
        return cls(False, _check_tokens(tokens))

    @classmethod
    def without(cls, exceptions) -> "CofiniteSet":
        """The whole carrier minus a finite exception set."""
        return cls(True, _check_tokens(exceptions))

    @classmethod
    def whole(cls) -> "CofiniteSet":
        return cls(True, frozenset())

    def is_empty(self) -> bool:
        return not self.cofinite and not self.data

    def __contains__(self, token) -> bool:
        return (token not in self.data) if self.cofinite else (token in self.data)

    def union(self, other: "CofiniteSet") -> "CofiniteSet":
        if self.cofinite and other.cofinite:
            return CofiniteSet(True, self.data & other.data)
        if self.cofinite:
            return CofiniteSet(True, self.data - other.data)
        if other.cofinite:
            return CofiniteSet(True, other.data - self.data)
        return CofiniteSet(False, self.data | other.data)

    def intersection(self, other: "CofiniteSet") -> "CofiniteSet":
        return self.complement().union(other.complement()).complement()

    def complement(self) -> "CofiniteSet":
        return CofiniteSet(not self.cofinite, self.data)

    def anti_count(self):
        """Number of anti-chain elements in the set; None means infinite."""
        if self.cofinite:
            return None
        return sum(1 for t in self.data if is_anti(t))

    def smallest_anti(self, count: int):
        """The ``count`` smallest-index anti-chain members, for witnesses."""
        if self.cofinite:
            out = []
            k = 0
            while len(out) < count:
                t = anti_token(k)
                if t not in self.data:
                    out.append(t)
                k += 1
            return out
        return sorted((t for t in self.data if is_anti(t)),
                      key=_token_key)[:count]

    def render(self) -> str:
        toks = ", ".join(sorted(self.data, key=_token_key))
        if self.cofinite:
            return "L" if not self.data else "L \\ {" + toks + "}"
        return "{" + toks + "}"


def sym_sup(A: CofiniteSet) -> str:
    """Exact supremum of a nonempty subset."""
    if A.is_empty():
        raise EmptySet("sup of the empty set")
    if TOP in A:
        return TOP
    k = A.anti_count()
    if k is None or k >= 2:
        return TOP
    if k == 1:
        return A.smallest_anti(1)[0]
    return BOTTOM  # A == {m}


def sym_inf(A: CofiniteSet) -> str:
    if A.is_empty():
        raise EmptySet("inf of the empty set")
    if BOTTOM in A:
        return BOTTOM
    k = A.anti_count()
    if k is None or k >= 2:
        return BOTTOM
    if k == 1:
        return A.smallest_anti(1)[0]
    return TOP  # A == {M}


def sym_closure(A: CofiniteSet) -> CofiniteSet:
    """Closure in the cofinite topology: finite sets are closed, every
    infinite set is dense."""
    if A.cofinite:
        return CofiniteSet.whole()
    return A


def sym_is_compact(A: CofiniteSet) -> bool:
    """Every subset of a cofinite-topology space is compact: any member of
    an open cover misses only finitely many points, each of which one more
    member picks up."""
    return True


def sym_is_subcomplete(A: CofiniteSet) -> CheckResult:
    """Does every nonempty subset of A keep its sup and inf inside A?

    Closed form: subsets of a chain {m, x, M} are always fine; as soon as
    A holds two anti-chain elements, both m and M must belong to A (and
    then nothing else can fail).  Validated against exhaustive subset
    enumeration for small finite sets in the test suite.
    """
    if A.is_empty():
        raise EmptySet("subcompleteness of the empty set")
    k = A.anti_count()
    if k is not None and k <= 1:
        return CheckResult(True, mode="chain-case")
    pair = CofiniteSet.finite(A.smallest_anti(2))
    if TOP not in A:
        return CheckResult(False, witness=(pair, TOP, "sup"), mode="closed-form")
    if BOTTOM not in A:
        return CheckResult(False, witness=(pair, BOTTOM, "inf"), mode="closed-form")
    return CheckResult(True, mode="closed-form")


@dataclass(frozen=True)
class RefutationReport:
    """Verdict triple on one witness subset of M_omega."""

    kind: int
    witness: CofiniteSet
    subcomplete: bool
    compact: bool
    closed: bool

    def refutes(self) -> bool:
        if self.kind == 1:
            return self.subcomplete and not self.closed
        return self.compact and not self.closed

    def render(self) -> str:
        lines = [
            f"witness subset: {self.witness.render()}",
            f"subcomplete sublattice of L: {_mark(self.subcomplete)}",
            f"compact in the interval topology: {_mark(self.compact)}",
            f"closed in the interval topology: {_mark(self.closed)}",
        ]
        if self.kind == 1:
            lines.append(
                "claim 'subcomplete iff topologically closed': REFUTED"
                if self.refutes() else "claim stands on this witness")
        else:
            lines.append(
                "claim 'compact implies closed': REFUTED"
                if self.refutes() else "claim stands on this witness")
        return "\n".join(lines) + "\n"


def _mark(b: bool) -> str:
    return "yes" if b else "no"


def refute_statement(kind: int) -> RefutationReport:
    """Exhibit L minus one anti-chain point against the two closure claims.

    kind 1 targets 'a sublattice is subcomplete iff it is closed in the
    interval topology'; kind 2 targets 'a compact subset is closed'.
    """
    if isinstance(kind, bool) or not isinstance(kind, int) or kind not in (1, 2):
        raise InvalidArgument(f"kind must be 1 or 2, got {quote(kind)}")
    A = CofiniteSet.without({anti_token(0)})
    sub = sym_is_subcomplete(A)
    compact = sym_is_compact(A)
    closed = sym_closure(A) == A
    return RefutationReport(kind=kind, witness=A, subcomplete=sub.ok,
                            compact=compact, closed=closed)


def finite_truncation(n: int) -> Poset:
    """Finite slice of M_omega with n anti-chain elements.

    Useful for demonstrating that no finite truncation reproduces the
    cofinite interval topology: the finite interval topology is discrete.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidArgument(f"n must be >= 0, got {quote(n)}")
    xs = [anti_token(k) for k in range(n)]
    elements = [BOTTOM] + xs + [TOP]
    pairs = [(BOTTOM, TOP)]
    for x in xs:
        pairs.append((BOTTOM, x))
        pairs.append((x, TOP))
    return build_poset(elements, pairs)
