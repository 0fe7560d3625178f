"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FDKitError",
    "UnknownAttributeError",
    "UniverseMismatchError",
    "LimitExceededError",
    "CoverageError",
    "ReservedNameError",
    "InstanceFormatError",
    "RelationFormatError",
    "DEFAULT_LIMIT",
]


class FDKitError(Exception):
    """Base class for all fdkit errors."""


class UnknownAttributeError(FDKitError, ValueError):
    """An attribute falls outside the governing universe or scheme."""


class UniverseMismatchError(FDKitError, ValueError):
    """Two dependency sets were compared over different universes."""


class LimitExceededError(FDKitError):
    """An exponential search was refused because the input exceeds the
    configured size limit.  This is a refusal, never a wrong answer."""


DEFAULT_LIMIT = 20


def check_limit(operation: str, size: int, limit: int) -> None:
    """Refuse an exponential search whose input is larger than ``limit``.

    ``size`` counts what the search is exponential in: attributes, or
    ground elements for the hitting-set search.  Every guarded search
    takes :data:`DEFAULT_LIMIT` when its caller passes no limit, and so
    does the CLI without ``--limit`` or ``$FDKIT_LIMIT``.  The message
    names the operation, the size and the limit.  A limit that is not an
    ``int`` (a ``bool`` included) raises :class:`TypeError`, and a
    negative one :class:`ValueError`: both are a caller's mistake, not a
    refusal.
    """
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise TypeError(f"{operation}: the limit must be an int, not {limit!r}")
    if limit < 0:
        raise ValueError(f"{operation}: the limit must be at least 0, not {limit}")
    if size > limit:
        raise LimitExceededError(
            f"{operation} refused: size {size} exceeds the limit of {limit}"
        )


class CoverageError(FDKitError, ValueError):
    """A decomposition's parts do not cover the relation scheme."""


class ReservedNameError(FDKitError, ValueError):
    """A reserved attribute name was used where it is not allowed."""


class InstanceFormatError(FDKitError, ValueError):
    """A hitting-set instance file is malformed."""


class RelationFormatError(FDKitError, ValueError):
    """A relation CSV file is malformed."""
