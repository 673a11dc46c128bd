"""Every :class:`ReproError` must survive ``pickle`` intact.

The scan supervisor ships worker-side failures back through a
``multiprocessing`` result queue, which pickles them.  Subclasses bake
rich constructor arguments into one formatted message, so the default
exception reduction (re-calling ``__init__`` with ``args``) cannot
rebuild them — :class:`ReproError` therefore defines ``__reduce__``.
This suite closes the loop: *every* concrete subclass, discovered by
walking the class tree so new errors cannot dodge the test, round-trips
with its type, code, message and ``to_dict()`` payload unchanged.
"""

import pickle

import pytest

from repro.arch.config import ConfigurationError
from repro.arch.system import (
    SimulationCycleBudgetError,
    SimulationError,
    ThreadBudgetError,
)
from repro.frontend.errors import (
    PatternNestingError,
    RegexSyntaxError,
    UnsupportedRegexError,
)
from repro.ir.diagnostics import (
    BudgetExceeded,
    CodegenError,
    IRError,
    LoweringError,
    ParseError,
    ReproError,
    VerificationError,
)
from repro.runtime.errors import (
    ExpansionBudgetError,
    InputEncodingError,
    PassBudgetError,
    PatternLengthBudgetError,
    ProgramSizeBudgetError,
    RequestDeadlineError,
    ServiceDrainingError,
    ServiceOverloadError,
    ShardFailedError,
    ShardQuarantinedError,
    TaskTimeoutError,
    UnknownPatternError,
    VMStepBudgetError,
    WallClockBudgetError,
    WorkerCrashError,
    WorkerStateError,
)
from repro.verify.equivalence import EquivalenceCheckExceeded

# One representative instance per concrete error type, exercising each
# class's own __init__ signature (the hard part of pickling them).
SAMPLES = {
    ReproError: lambda: ReproError("boom"),
    IRError: lambda: IRError("malformed op"),
    VerificationError: lambda: VerificationError("verifier said no"),
    ParseError: lambda: ParseError("cannot parse"),
    LoweringError: lambda: LoweringError("no lowering rule"),
    CodegenError: lambda: CodegenError("operand overflow"),
    BudgetExceeded: lambda: BudgetExceeded("over", limit=1, spent=2),
    ConfigurationError: lambda: ConfigurationError("bad geometry"),
    SimulationError: lambda: SimulationError("stuck"),
    SimulationCycleBudgetError: lambda: SimulationCycleBudgetError(
        "no termination", limit=10, spent=11
    ),
    ThreadBudgetError: lambda: ThreadBudgetError("blow-up", limit=5, spent=6),
    RegexSyntaxError: lambda: RegexSyntaxError("unbalanced '('", "(((", 2),
    UnsupportedRegexError: lambda: UnsupportedRegexError(
        "back-references unsupported", "(a)\\1", 3
    ),
    PatternNestingError: lambda: PatternNestingError("((((", 3, 2),
    InputEncodingError: lambda: InputEncodingError("☃", 7, what="input chunk"),
    PatternLengthBudgetError: lambda: PatternLengthBudgetError(2000, 1000),
    ExpansionBudgetError: lambda: ExpansionBudgetError(9999, 100, "a{9}{9}"),
    ProgramSizeBudgetError: lambda: ProgramSizeBudgetError(512, 100, "a|b"),
    PassBudgetError: lambda: PassBudgetError(1.5, 1.0, "regex-transforms"),
    VMStepBudgetError: lambda: VMStepBudgetError(120, 100, "a*b"),
    EquivalenceCheckExceeded: lambda: EquivalenceCheckExceeded(50_000),
    TaskTimeoutError: lambda: TaskTimeoutError(3, 1.73, 1.5),
    WallClockBudgetError: lambda: WallClockBudgetError(2, 5.01, 4.0),
    WorkerStateError: lambda: WorkerStateError("worker used uninitialized"),
    WorkerCrashError: lambda: WorkerCrashError(1, "exit code 86"),
    ShardFailedError: lambda: ShardFailedError(2, "RuntimeError", "bug"),
    ShardQuarantinedError: lambda: ShardQuarantinedError(
        4, 3, VMStepBudgetError(120, 100, "a*b")
    ),
    ServiceOverloadError: lambda: ServiceOverloadError(64, 64, 0.5),
    ServiceDrainingError: lambda: ServiceDrainingError("SIGTERM received"),
    RequestDeadlineError: lambda: RequestDeadlineError("/scan", 2.73, 2.0),
    UnknownPatternError: lambda: UnknownPatternError(
        "tenant 'acme' has no pattern named 'rule7'"
    ),
}


def _all_error_types():
    """Every ReproError class reachable from the imported modules."""
    seen = {ReproError}
    frontier = [ReproError]
    while frontier:
        for subclass in frontier.pop().__subclasses__():
            if subclass not in seen:
                seen.add(subclass)
                frontier.append(subclass)
    return sorted(seen, key=lambda cls: cls.__name__)


def test_every_error_type_has_a_pickle_sample():
    """New error classes must register a sample here — the whole point
    is that no subclass can silently skip the round-trip check."""
    missing = [cls for cls in _all_error_types() if cls not in SAMPLES]
    assert not missing, f"add pickle samples for: {missing}"


@pytest.mark.parametrize(
    "error_type", _all_error_types(), ids=lambda cls: cls.__name__
)
def test_round_trip_preserves_identity(error_type):
    original = SAMPLES[error_type]()
    restored = pickle.loads(pickle.dumps(original))
    assert type(restored) is type(original)
    assert restored.code == original.code
    assert str(restored) == str(original)
    assert restored.to_dict() == original.to_dict()


def test_round_trip_preserves_rich_fields():
    error = pickle.loads(
        pickle.dumps(ShardQuarantinedError(4, 3, VMStepBudgetError(120, 100)))
    )
    assert error.index == 4 and error.attempts == 3
    assert isinstance(error.last_error, VMStepBudgetError)
    assert error.last_error.limit == 100 and error.last_error.spent == 120
    assert error.to_dict()["last_error"]["code"] == "REPRO-BUDGET-VM-STEPS"


def test_round_trip_preserves_isinstance_contract():
    """A worker-raised budget trip must still be catchable as
    BudgetExceeded after crossing the process boundary."""
    restored = pickle.loads(pickle.dumps(TaskTimeoutError(0, 2.0, 1.0)))
    assert isinstance(restored, BudgetExceeded)
    assert isinstance(restored, ReproError)
    assert restored.limit == 1.0 and restored.spent == 2.0
