"""Exception types shared across the package."""

from __future__ import annotations


class ScheduleError(Exception):
    """Base class for all errors raised by this package."""


class UnknownOperation(ScheduleError):
    """An operation id does not occur where it is required to."""


class TransactionSetMismatch(ScheduleError):
    """Two schedules were compared that are not over the same transactions."""


class ObjectNeverWritten(ScheduleError):
    """An object has no write operation, so it has no last version."""


class AllocationIncomplete(ScheduleError):
    """A level allocation does not cover every transaction it is applied to."""


class NotACycle(ScheduleError):
    """A transaction set does not form a cycle in the serialization graph."""


class LimitExceeded(ScheduleError):
    """A search exceeded its configured size, count, or time budget."""


class ParseError(ScheduleError):
    """A text document could not be parsed; ``line`` is the 1-based line
    number where it is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")
