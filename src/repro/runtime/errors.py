"""The structured error taxonomy of the hardened runtime layer.

One import point for every error the pipeline can raise.  The root is
:class:`~repro.ir.diagnostics.ReproError`; each subclass carries a stable
machine-readable ``code`` and an optional source ``location``, so a
service wrapping the pipeline needs exactly one ``except ReproError``
and can always produce a structured response (:meth:`ReproError.to_dict`).

Taxonomy (codes in parentheses)::

    ReproError (REPRO-ERROR)
    ├── IRError (REPRO-IR)
    │   └── VerificationError (REPRO-IR-VERIFY)
    ├── ParseError (REPRO-PARSE)
    │   └── RegexSyntaxError (REPRO-SYNTAX)
    │       └── UnsupportedRegexError (REPRO-UNSUPPORTED)
    ├── LoweringError (REPRO-LOWERING)
    ├── CodegenError (REPRO-CODEGEN)
    ├── InputEncodingError (REPRO-INPUT-ENCODING)
    ├── ConfigurationError (REPRO-ARCH-CONFIG)      [repro.arch.config]
    ├── SimulationError (REPRO-SIM)                 [repro.arch.system]
    ├── WorkerStateError (REPRO-WORKER-STATE)
    ├── WorkerCrashError (REPRO-WORKER-CRASH)
    ├── ShardFailedError (REPRO-SHARD-FAILED)
    ├── ShardQuarantinedError (REPRO-SHARD-QUARANTINED)
    ├── ServiceOverloadError (REPRO-SERVICE-OVERLOAD)
    ├── ServiceDrainingError (REPRO-SERVICE-DRAINING)
    ├── UnknownPatternError (REPRO-SERVICE-UNKNOWN-PATTERN)
    └── BudgetExceeded (REPRO-BUDGET)
        ├── PatternNestingError (REPRO-BUDGET-NESTING)   [+RegexSyntaxError]
        ├── PatternLengthBudgetError (REPRO-BUDGET-PATTERN-LENGTH)
        ├── ExpansionBudgetError (REPRO-BUDGET-EXPANSION)
        ├── ProgramSizeBudgetError (REPRO-BUDGET-PROGRAM-SIZE)
        ├── PassBudgetError (REPRO-BUDGET-PASS-TIME)
        ├── VMStepBudgetError (REPRO-BUDGET-VM-STEPS)
        ├── TaskTimeoutError (REPRO-BUDGET-TASK-TIMEOUT)
        ├── WallClockBudgetError (REPRO-BUDGET-WALL-TIME)
        ├── SimulationCycleBudgetError (REPRO-BUDGET-SIM-CYCLES) [+SimulationError]
        ├── ThreadBudgetError (REPRO-BUDGET-SIM-THREADS)         [+SimulationError]
        ├── EquivalenceCheckExceeded (REPRO-BUDGET-EQUIV-STATES)
        └── RequestDeadlineError (REPRO-BUDGET-REQUEST-DEADLINE)

The ``Worker*``/``Shard*`` errors belong to the
fault-tolerant scan supervisor (:mod:`repro.engine.supervisor`); they are
defined here because they are part of the one-taxonomy contract and cross
the process boundary (every :class:`ReproError` pickles losslessly — see
``ReproError.__reduce__``).

The two simulator budget errors live in :mod:`repro.arch.system` (they
also subclass ``SimulationError``); everything else is importable from
here.  This module deliberately imports nothing from :mod:`repro.arch`
or :mod:`repro.vm` so those layers can import it freely.
"""

from __future__ import annotations

from typing import Optional

from ..frontend.errors import (
    PatternNestingError,
    RegexSyntaxError,
    UnsupportedRegexError,
)
from ..ir.diagnostics import (
    BudgetExceeded,
    CodegenError,
    IRError,
    Location,
    LoweringError,
    ParseError,
    ReproError,
    VerificationError,
)


class InputEncodingError(ReproError):
    """Input text contains a character the byte-oriented ISA cannot see.

    The architecture matches single bytes; textual input is therefore
    encoded as latin-1.  Characters above U+00FF used to surface as a
    raw ``UnicodeEncodeError`` from deep inside the VM or the chunker —
    now they raise this typed error naming the character and offset.
    """

    code = "REPRO-INPUT-ENCODING"

    def __init__(self, character: str, position: int, what: str = "input"):
        self.character = character
        self.position = position
        self.location = Location(column=position, source=f"<{what}>")
        super().__init__(
            f"{what} contains {character!r} (U+{ord(character):04X}) at "
            f"offset {position}; the byte-oriented ISA only handles "
            "characters up to U+00FF — pre-encode the text to bytes with "
            "an explicit encoding of your choice"
        )


class PatternLengthBudgetError(BudgetExceeded):
    """The pattern text itself is longer than the budget allows."""

    code = "REPRO-BUDGET-PATTERN-LENGTH"

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"pattern of {length} characters exceeds the "
            f"{limit}-character budget",
            limit=limit,
            spent=length,
        )


class ExpansionBudgetError(BudgetExceeded):
    """Counted repetitions would expand past the budget.

    Quantifiers like ``{m,n}`` are expanded into ``n`` copies of their
    operand during lowering (the ISA has no counters), so nested counted
    repetitions multiply.  The guard estimates the expansion on the AST
    and rejects pathological patterns *before* burning the CPU time.
    """

    code = "REPRO-BUDGET-EXPANSION"

    def __init__(self, estimate: int, limit: int, pattern: str):
        self.pattern = pattern
        super().__init__(
            f"counted repetitions of pattern {_clip(pattern)!r} would "
            f"expand to ~{estimate} instructions, over the {limit} budget",
            limit=limit,
            spent=estimate,
        )


class ProgramSizeBudgetError(BudgetExceeded):
    """The compiled program is larger than the configured budget."""

    code = "REPRO-BUDGET-PROGRAM-SIZE"

    def __init__(self, size: int, limit: int, pattern: str):
        self.pattern = pattern
        super().__init__(
            f"compiled program of {size} instructions for pattern "
            f"{_clip(pattern)!r} exceeds the {limit}-instruction budget",
            limit=limit,
            spent=size,
        )


class PassBudgetError(BudgetExceeded):
    """The optimization passes overran their time budget.

    Strict at every entry point: the caller may retry with
    ``CompileOptions.none()``, which runs no pass to time.
    """

    code = "REPRO-BUDGET-PASS-TIME"

    def __init__(self, seconds: float, limit: float, stage: str):
        self.stage = stage
        super().__init__(
            f"optimization passes ({stage}) took {seconds:.4f}s, over "
            f"the {limit:.4f}s budget",
            limit=limit,
            spent=seconds,
        )


class VMStepBudgetError(BudgetExceeded):
    """The golden-model VM exceeded its instruction-step budget."""

    code = "REPRO-BUDGET-VM-STEPS"

    def __init__(self, steps: int, limit: int, pattern: str = ""):
        self.pattern = pattern
        suffix = f" (pattern {_clip(pattern)!r})" if pattern else ""
        super().__init__(
            f"VM executed {steps} steps, over the {limit}-step "
            f"budget{suffix}",
            limit=limit,
            spent=steps,
        )


class TaskTimeoutError(BudgetExceeded):
    """One supervised shard ran past ``Budget.max_task_seconds``.

    The supervisor cannot interrupt a hung worker in place, so the pool
    is respawned and the shard is either retried (when the retry policy
    allows) or settled with this error — the run as a whole continues.
    """

    code = "REPRO-BUDGET-TASK-TIMEOUT"

    def __init__(self, index: int, seconds: float, limit: float):
        self.index = index
        super().__init__(
            f"shard {index} exceeded the {limit:g}s per-task budget "
            f"(running for {seconds:.3f}s); worker pool respawned",
            limit=limit,
            spent=seconds,
        )


class WallClockBudgetError(BudgetExceeded):
    """The whole supervised scan ran past ``Budget.max_wall_seconds``.

    Every shard still unfinished at the deadline settles with this error;
    completed shards keep their verdicts (partial mode) or the first
    unfinished index raises it (strict mode).
    """

    code = "REPRO-BUDGET-WALL-TIME"

    def __init__(self, index: int, elapsed: float, limit: float):
        self.index = index
        super().__init__(
            f"shard {index} unfinished when the scan hit the {limit:g}s "
            f"overall deadline (elapsed {elapsed:.3f}s)",
            limit=limit,
            spent=elapsed,
        )


class WorkerStateError(ReproError):
    """A pool worker was used before its initializer ran (or after it
    failed) — an internal invariant violation, never a user error."""

    code = "REPRO-WORKER-STATE"


class WorkerCrashError(ReproError):
    """A worker process died (``os._exit``, OOM kill, segfault) while a
    shard was in flight.  The supervisor respawns the pool and re-probes
    the in-flight shards serially to isolate the poisonous one."""

    code = "REPRO-WORKER-CRASH"

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"worker process died while matching shard {index}{suffix}"
        )


class ShardFailedError(ReproError):
    """A worker raised a non-:class:`ReproError` exception on one shard.

    The original exception type and message are preserved as fields (the
    exception object itself may not pickle, so it never crosses the
    process boundary raw).
    """

    code = "REPRO-SHARD-FAILED"

    def __init__(self, index: int, cause_type: str, cause_message: str):
        self.index = index
        self.cause_type = cause_type
        self.cause_message = cause_message
        super().__init__(
            f"shard {index} failed in worker: {cause_type}: {cause_message}"
        )


class ShardQuarantinedError(ReproError):
    """A shard failed every allowed attempt and was quarantined.

    Poison-input isolation: the shard's verdict is abandoned with this
    typed error instead of aborting the scan; ``last_error`` carries the
    final attempt's typed failure.
    """

    code = "REPRO-SHARD-QUARANTINED"

    def __init__(self, index: int, attempts: int, last_error: ReproError):
        self.index = index
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"shard {index} quarantined after {attempts} failed attempts; "
            f"last error [{last_error.code}]: {last_error}"
        )

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["last_error"] = self.last_error.to_dict()
        return payload


class ServiceOverloadError(ReproError):
    """The match service shed a request at the admission gate.

    Raised (and rendered as ``429`` with ``Retry-After``) when accepting
    the request would push the in-flight count past the configured
    bound.  Shedding at admission is what keeps queue memory bounded
    under flood: the alternative — buffering arbitrarily many pending
    requests — turns overload into an OOM kill.
    """

    code = "REPRO-SERVICE-OVERLOAD"

    def __init__(self, inflight: int, limit: int, retry_after: float = 1.0):
        self.inflight = inflight
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"service at capacity ({inflight}/{limit} requests in flight); "
            f"retry after {retry_after:g}s"
        )


class ServiceDrainingError(ReproError):
    """The service is draining (SIGTERM received) and rejected new work.

    In-flight requests at drain start still settle normally (or are
    cancelled with a typed error at the drain deadline); this error is
    only ever attached to work that arrived *after* the drain began.
    """

    code = "REPRO-SERVICE-DRAINING"

    def __init__(self, detail: str = ""):
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"service is draining and no longer accepts new work{suffix}"
        )


class UnknownPatternError(ReproError):
    """A service request referenced a tenant/rule name never registered.

    A client addressing mistake (mapped to HTTP 404), typed so that
    the exactly-one-settlement contract holds for bad requests too.
    """

    code = "REPRO-SERVICE-UNKNOWN-PATTERN"


class RequestDeadlineError(BudgetExceeded):
    """A service request ran past its per-request deadline.

    The deadline maps to ``Budget.max_wall_seconds`` (request-scoped,
    not scan-scoped): the handler is cancelled and the client receives
    this typed error instead of holding a connection open indefinitely.
    Also raised for every stream or request still in flight when the
    drain deadline expires.
    """

    code = "REPRO-BUDGET-REQUEST-DEADLINE"

    def __init__(self, endpoint: str, seconds: float, limit: float):
        self.endpoint = endpoint
        super().__init__(
            f"request to {endpoint} exceeded its {limit:g}s deadline "
            f"(ran {seconds:.3f}s)",
            limit=limit,
            spent=seconds,
        )


def _clip(text: str, limit: int = 60) -> str:
    """Clip long patterns so error messages stay loggable."""
    return text if len(text) <= limit else text[: limit - 1] + "…"


def format_error(error: ReproError) -> str:
    """One-line, grep-friendly rendering: ``error[CODE] at LOC: msg``."""
    location = ""
    message = str(error).split("\n", 1)[0]
    if error.location is not None:
        rendered = str(error.location)
        # Syntax errors already lead with their location; don't say it twice.
        if not message.startswith(rendered):
            location = f" at {rendered}"
    return f"error[{error.code}]{location}: {message}"


__all__ = [
    "BudgetExceeded",
    "CodegenError",
    "ExpansionBudgetError",
    "IRError",
    "InputEncodingError",
    "Location",
    "LoweringError",
    "ParseError",
    "PassBudgetError",
    "PatternLengthBudgetError",
    "PatternNestingError",
    "ProgramSizeBudgetError",
    "RegexSyntaxError",
    "ReproError",
    "RequestDeadlineError",
    "ServiceDrainingError",
    "ServiceOverloadError",
    "ShardFailedError",
    "ShardQuarantinedError",
    "TaskTimeoutError",
    "UnknownPatternError",
    "UnsupportedRegexError",
    "VMStepBudgetError",
    "VerificationError",
    "WallClockBudgetError",
    "WorkerCrashError",
    "WorkerStateError",
    "format_error",
]
