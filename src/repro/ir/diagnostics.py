"""Diagnostics and error types shared by the whole compiler stack.

The IR framework mirrors MLIR's split between *locations* (where a
construct came from) and *diagnostics* (errors and warnings attached to a
location).  Locations originate in the regex frontend and are threaded
through AST nodes and IR operations so every later pass can report errors
pointing back at the offending character of the original pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library.

    Every subclass carries a stable machine-readable :attr:`code` (the
    error taxonomy used by services and the CLI) and, when one is known,
    a :attr:`location` pointing back into the original pattern.
    Callers that wrap the whole pipeline therefore need exactly one
    ``except ReproError`` clause and can always serialize the failure
    with :meth:`to_dict`.
    """

    #: Machine-readable error code, stable across releases.
    code: str = "REPRO-ERROR"
    #: Source location of the offending construct, when known.
    location: Optional["Location"] = None

    def __reduce__(self):
        # Subclasses take rich positional arguments (limits, patterns,
        # offsets) and bake them into one message, so the default
        # exception reduction — ``cls(*self.args)`` — cannot rebuild
        # them.  Supervisor workers ship these errors across the process
        # boundary, so reconstruct from the instance state instead.
        return (
            _rebuild_error,
            (self.__class__, self.args, self.__dict__.copy()),
        )

    def to_dict(self) -> dict:
        """Serializable view of the error (for APIs, logs, the CLI)."""
        location = None
        if self.location is not None:
            location = {
                "source": self.location.source,
                "column": self.location.column,
            }
        return {"code": self.code, "message": str(self), "location": location}


def _rebuild_error(cls, args, state):
    """Unpickle helper: restore a :class:`ReproError` without rerunning
    its ``__init__`` (whose signature varies per subclass)."""
    error = cls.__new__(cls)
    Exception.__init__(error, *args)
    error.__dict__.update(state)
    return error


class IRError(ReproError):
    """Structural misuse of the IR (bad insertion, detached op, ...)."""

    code = "REPRO-IR"


class VerificationError(ReproError):
    """An operation or module failed verification."""

    code = "REPRO-IR-VERIFY"

    def __init__(self, message: str, op: object = None):
        self.op = op
        if op is not None:
            message = f"{message}\n  in operation: {op}"
        super().__init__(message)


class ParseError(ReproError):
    """Raised by the textual IR parser and by the regex frontend."""

    code = "REPRO-PARSE"

    def __init__(self, message: str, location: Optional["Location"] = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LoweringError(ReproError):
    """A dialect conversion could not lower an operation."""

    code = "REPRO-LOWERING"


class CodegenError(ReproError):
    """Code generation could not encode the program (e.g. too large)."""

    code = "REPRO-CODEGEN"


class BudgetExceeded(ReproError):
    """A resource budget tripped before the pipeline could finish.

    The runtime layer (:mod:`repro.runtime`) raises a dedicated subclass
    per guarded resource — parser nesting depth, counted-repetition
    expansion, compiled program size, optimization-pass time, VM steps,
    simulator cycles/threads, equivalence-check states — so a service
    can convert any of them into a well-defined "try a simpler pattern /
    shorter input" response instead of hanging or dying on
    ``RecursionError``.
    """

    code = "REPRO-BUDGET"

    def __init__(
        self,
        message: str,
        *,
        limit: Optional[float] = None,
        spent: Optional[float] = None,
    ):
        self.limit = limit
        self.spent = spent
        super().__init__(message)


@dataclass(frozen=True)
class Location:
    """A source location inside the original regular expression.

    ``column`` is the zero-based offset of the construct in the pattern
    string; ``source`` optionally names where the pattern came from (a
    benchmark file, the CLI, ...).
    """

    column: int = 0
    source: str = "<pattern>"

    def __str__(self) -> str:
        return f"{self.source}:{self.column}"


UNKNOWN_LOCATION = Location(column=-1, source="<unknown>")
