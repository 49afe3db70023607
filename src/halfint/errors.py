"""Error taxonomy shared across the package.

Every error carries an ``exit_code`` so the command-line front end can map
outcomes uniformly: 2 for the mathematically meaningful zero-form case,
3 for configuration problems (bad level, bad selector, inconsistent
newform data, a level past a program bound), 4 for internal computation
failures that should never happen on valid input.
"""


class HalfIntError(Exception):
    """Base class for everything raised deliberately by this package."""

    exit_code = 4


class ZeroFormError(HalfIntError):
    """The lifted form is identically zero.

    This is a legal outcome (the central twisted L-values all vanish),
    not a bug, so it gets its own exit code.
    """

    exit_code = 2


class ConfigurationError(HalfIntError):
    """User-supplied input cannot be worked with."""

    exit_code = 3


class EvenRootNumberError(ConfigurationError):
    """The sign data forces an even number of minus signs.

    No definite quaternion algebra matches, and the construction has no
    target space: the central L-value is forced to vanish to odd order.
    """


class SelectorNotFoundError(ConfigurationError):
    """No eigenform candidate matches the requested selector."""


class AmbiguousSelectorError(ConfigurationError):
    """More than one eigenform candidate matches the requested selector."""


class NewformFileError(ConfigurationError):
    """A user-supplied eigenvalue file is unreadable or contradicts the
    eigenvalues actually computed."""


class SearchExhaustedError(ConfigurationError):
    """A bounded search ran out of room before finding its object: a
    program bound on the input (`quat.SEARCH_BOUND`), as the
    trial-division bound on the level is."""


class ComputationError(HalfIntError):
    """Internal failure: a search or consistency check did not close."""


class MaximalOrderNotFoundError(ComputationError):
    """Order improvement stalled above the target discriminant."""


class MassMismatchError(ComputationError):
    """Ideal-class enumeration terminated with the wrong total mass."""


class IrrationalEigenspaceError(ComputationError):
    """A requested eigenspace does not split off over the rationals."""


class MissingEigenvalueError(ComputationError):
    """An eigenvalue needed by a formula is not available."""


class PrecisionError(ComputationError):
    """A series is not known to enough terms for the requested operation."""


class IntegralityError(ComputationError):
    """A quantity that must be an integer came out fractional."""


class FactorizationError(ComputationError):
    """An integer resisted factorization within the configured bound."""
