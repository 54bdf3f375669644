"""Exception types shared across the package."""


class PeterWeylError(Exception):
    """Base class for all package errors."""


class VariantError(PeterWeylError):
    """Arithmetic attempted between incompatible scalar variants."""


class DimensionError(PeterWeylError):
    """Shape, arity, or group mismatch between operands."""


class ParseError(PeterWeylError):
    """Malformed serialized scalar, tensor, or group descriptor."""


class PreconditionError(PeterWeylError):
    """A documented operation precondition does not hold."""


class RealizabilityError(PeterWeylError):
    """Irreducibles are not realizable over the requested scalar variant.

    The message names the cyclotomic order that would be needed.
    """


class MembershipError(PeterWeylError):
    """An element is outside the subspace or set required by the caller."""


class StrategyError(PeterWeylError):
    """Unknown or misconfigured search strategy."""


class ConventionError(PeterWeylError):
    """No member of a convention family passes its selection test."""


class InternalError(PeterWeylError):
    """Two independent computations of the same quantity disagree."""
