"""Exception types shared across the package."""


class PlanarAlgError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PlanarAlgError):
    """Malformed input data: dimension vectors, matrices, JSON documents."""


class NotRepresentableError(PlanarAlgError):
    """A scalar operation left the ring of quarter-exponent radicals."""


class NotInvertibleError(PlanarAlgError):
    """Inversion attempted on zero or on a sum of several radical terms."""


class NotMarkovError(PlanarAlgError):
    """The operation needs a Markov inclusion with integer index."""


class NotAbelianError(PlanarAlgError):
    """The operation needs an inclusion whose small algebra is central."""


class DegreeMismatchError(PlanarAlgError):
    """Graded operands or program steps have incompatible degrees."""


class EigenvectorViolationError(PlanarAlgError):
    """The squared spins out of a graph vertex do not sum to gamma.

    Construction from a valid Markov inclusion can never trigger this;
    seeing it means a bug in or upstream of the graph builder.
    """


class InvalidAutomorphismError(PlanarAlgError):
    """Permutation data is not a weight-preserving graph automorphism."""


class GroupTooLargeError(PlanarAlgError):
    """Group closure exceeded the configured element limit."""


class ResourceLimitError(PlanarAlgError):
    """Work refused up front or cut off at its budget.

    Raised when a predicted loop enumeration exceeds its ceiling, when an
    integer cannot be factored into proven primes within the factoring
    budget, and when a numeric computation would leave float range.
    """
