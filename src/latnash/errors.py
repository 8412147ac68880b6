"""Exception hierarchy shared across the package, and the one way a
refusal quotes a value (:func:`quote`)."""

import reprlib


class LatnashError(Exception):
    """Base class for all errors raised by latnash."""


class InvalidArgument(LatnashError, ValueError):
    """A bad kind, direction, token or count; a ValueError too, as Python's are."""


# --- order ---------------------------------------------------------------

class DuplicateElement(LatnashError):
    pass


class UnknownElement(LatnashError):
    pass


class CycleDetected(LatnashError):
    """Antisymmetry failure: the generating pairs contain a nontrivial cycle."""


class EmptySubset(LatnashError):
    pass


class ProductTooLarge(LatnashError):
    pass


class NotALattice(LatnashError):
    """An ambient poset lacks a join/meet that the operation needed."""


# --- topology ------------------------------------------------------------

class ElementOutOfCarrier(LatnashError):
    pass


class CarrierTooLarge(LatnashError):
    """A topology has more closed sets than can be listed (2^16)."""


class CarrierMismatch(LatnashError):
    pass


class PreconditionViolated(LatnashError):
    pass


# --- omega (symbolic counterexample) --------------------------------------

class EmptySet(LatnashError):
    pass


# --- games ----------------------------------------------------------------

class ParseError(LatnashError):
    pass


class NonSurjectiveProjection(LatnashError):
    pass


class MissingPayoff(LatnashError):
    pass


class DuplicateProfile(LatnashError):
    pass


class InfeasibleProfile(LatnashError):
    pass


class EmptyPlayerSet(LatnashError):
    pass


class SpecOutOfRange(LatnashError):
    """Random-game spec parameter outside the supported bounds."""


class GenerationFailed(LatnashError):
    """Random generator could not satisfy an invariant within its retry budget."""


# --- cli / reports ---------------------------------------------------------

class UnknownGalleryName(LatnashError):
    pass


class InternalContradiction(LatnashError):
    """Two computations that must agree by construction disagreed.

    Raised instead of returning silently wrong data; seeing this exception
    means a bug in the engine, not bad user input.
    """


def quote(value) -> str:
    """``value`` as a refusal shows it: ``reprlib.repr(value)``, cut in
    the middle to at most 60 characters.  reprlib bounds each string and
    each level of a container, but not a container of containers of long
    strings as a whole."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:28] + "..." + text[-29:]
