"""Exception types shared across the package, and the one time budget."""

import time


class ZirkitError(Exception):
    """Base class for all zirkit errors."""


class GraphFormatError(ZirkitError):
    """Malformed graph6 or edge-list input; carries the failing byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SizeCapError(ZirkitError):
    """Graph order exceeds a hard size cap (64 vertices, 62 for graph6)."""


class InvalidSpecError(ZirkitError):
    """Family spec is unknown or a parameter is out of range."""


class BudgetError(ZirkitError):
    """An exact search was requested beyond its enumeration or time budget."""


class PreconditionError(ZirkitError, ValueError):
    """An operation was called with arguments violating its contract."""


def deadline(seconds: float | None) -> float | None:
    """The ``time.monotonic()`` reading ``seconds`` from now, or None for no
    limit; the clock is system-wide, so a worker process can read it too."""
    if seconds is not None and not seconds >= 0:  # also rejects NaN
        raise PreconditionError(f"time limit must be at least 0 seconds, got {seconds}")
    return None if seconds is None else time.monotonic() + seconds


def check_deadline(at: float | None, what: str) -> None:
    """Raise ``BudgetError`` once the ``deadline`` reading ``at`` has passed."""
    if at is not None and time.monotonic() >= at:
        raise BudgetError(f"{what} exceeded the time limit")
