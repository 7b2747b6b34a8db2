"""Exception types shared across the engine.

Every structural invariant that can fail at construction or composition
time has its own exception class, so callers (and the CLI) can name the
violated invariant in diagnostics.
"""


class OpbarError(Exception):
    """Base class for all engine errors."""


class FieldMismatch(OpbarError):
    """Operands live over different coefficient fields."""


class CompositionNotZero(OpbarError):
    """A pair of supposed consecutive differentials does not compose to zero."""


class ArityBoundExceeded(OpbarError):
    """An operation needs operad/module data beyond the stored arity bound."""


class InvalidMorphism(OpbarError):
    """A map fails the operad-morphism (or module-morphism) relations."""


class AlgebraCheckFailed(OpbarError):
    """An algebra's structure constants violate the operad relations."""


class TruncationUnsound(OpbarError):
    """Requested degree window / weight bound combination cannot be exact."""


class NotCommutative(OpbarError):
    """A commutative-only construction was fed a non-commutative algebra."""


class SimplicialIdentityViolation(OpbarError):
    """Face/degeneracy data violates the simplicial identities."""


class MalformedInput(OpbarError):
    """An input's JSON lacks a documented field or gives it the wrong type."""
