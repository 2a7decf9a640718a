"""Exception types shared across the package."""

from __future__ import annotations


class InstantonLabError(Exception):
    """Base class for all package-specific errors."""


class UnknownVarietyError(InstantonLabError, ValueError):
    """Raised when a variety key, or the parameters an engine takes, name no catalog entry."""


class VarietyMismatchError(InstantonLabError, ValueError):
    """Raised when two objects living on different varieties are combined."""


class WindowError(InstantonLabError, ValueError):
    """A cohomology table does not cover the twists an operation needs.

    The offending twists are listed in ``missing`` so callers (and the CLI)
    can report exactly what has to be recomputed.
    """

    def __init__(self, message: str, missing: tuple[int, ...] = ()):
        super().__init__(message)
        self.missing = tuple(missing)


class UnsupportedBundleError(InstantonLabError, ValueError):
    """Raised when a bundle descriptor has no exact engine on its variety."""


class InfeasibleError(InstantonLabError, ValueError):
    """Parity, divisibility or consistency obstruction in exact data."""


class MalformedDataError(InstantonLabError, ValueError):
    """Serialized input does not have the structure its reader expects."""
