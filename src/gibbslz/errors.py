"""Exception types shared across the package.

Every error raised on purpose by this package derives from GibbsLzError, so
callers can catch one base class.  The subclasses split along the lines the
command line tool needs for its exit codes: configuration problems, failed
property checks, and numeric/domain trouble.
"""


class GibbsLzError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GibbsLzError, ValueError):
    """Malformed or inconsistent experiment configuration."""


class DomainError(GibbsLzError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class EnsembleError(GibbsLzError, ValueError):
    """Ensemble parameters violate a validity constraint, e.g. a Bose
    chemical potential that does not sit strictly below the band minimum."""


class TargetRangeError(GibbsLzError, ValueError):
    """A requested particle density is not attainable by any chemical
    potential of the given ensemble family."""


class ImpossibleConditionError(GibbsLzError, ValueError):
    """The conditioning event (fixed total occupancy) has probability zero."""


class NumericError(GibbsLzError, RuntimeError):
    """A numerical routine failed to reach its requested accuracy or ran
    into degenerate intermediate values."""
