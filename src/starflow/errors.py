"""Exception types shared across the package."""


class StarflowError(Exception):
    """Base class for all starflow errors."""


class NegativeRadiusError(StarflowError):
    """A radial move would push a point below the junction."""


class EmptyWindowError(StarflowError):
    """A walk window with no steps was requested."""


class OutOfWindowError(StarflowError):
    """An index query fell outside a walk window."""


class TooShortError(StarflowError):
    """A walk is too short for the requested transform."""


class NegativeValueError(StarflowError):
    """An excursion decomposition was asked for on a path with negative values."""


class WindowTooLargeError(StarflowError):
    """Exhaustive enumeration was requested on a window that is too long."""


class OutOfDomainError(StarflowError):
    """A time query fell outside the domain of a continuous path."""


class TooFewSamplesError(StarflowError):
    """Not enough samples for a statistical test."""


class SparseCellsError(StarflowError):
    """Expected cell counts are too small for a chi-square test."""


class ConfigError(StarflowError):
    """Invalid run configuration; message names the offending field."""
