"""The structured error taxonomy: one root, stable codes, serializable."""

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
    Location,
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
    format_error,
)
from repro.verify.equivalence import EquivalenceCheckExceeded

ALL_ERROR_TYPES = [
    IRError,
    VerificationError,
    ParseError,
    RegexSyntaxError,
    UnsupportedRegexError,
    LoweringError,
    CodegenError,
    ConfigurationError,
    SimulationError,
    BudgetExceeded,
    PatternNestingError,
    PatternLengthBudgetError,
    ExpansionBudgetError,
    ProgramSizeBudgetError,
    PassBudgetError,
    VMStepBudgetError,
    SimulationCycleBudgetError,
    ThreadBudgetError,
    EquivalenceCheckExceeded,
    InputEncodingError,
    TaskTimeoutError,
    WallClockBudgetError,
    WorkerStateError,
    WorkerCrashError,
    ShardFailedError,
    ShardQuarantinedError,
    ServiceOverloadError,
    ServiceDrainingError,
    UnknownPatternError,
    RequestDeadlineError,
]


#: Snapshot of every subclass reachable from ``ReproError`` and its
#: wire code.  Codes are part of the public contract — the fuzz harness
#: treats "both oracles reject with the same code" as agreement — so
#: renaming one is a breaking change and must be deliberate.
CODE_SNAPSHOT = {
    "BudgetExceeded": "REPRO-BUDGET",
    "CodegenError": "REPRO-CODEGEN",
    "ConfigurationError": "REPRO-ARCH-CONFIG",
    "EquivalenceCheckExceeded": "REPRO-BUDGET-EQUIV-STATES",
    "ExpansionBudgetError": "REPRO-BUDGET-EXPANSION",
    "IRError": "REPRO-IR",
    "InputEncodingError": "REPRO-INPUT-ENCODING",
    "LoweringError": "REPRO-LOWERING",
    "ParseError": "REPRO-PARSE",
    "PassBudgetError": "REPRO-BUDGET-PASS-TIME",
    "PatternLengthBudgetError": "REPRO-BUDGET-PATTERN-LENGTH",
    "PatternNestingError": "REPRO-BUDGET-NESTING",
    "ProgramSizeBudgetError": "REPRO-BUDGET-PROGRAM-SIZE",
    "RegexSyntaxError": "REPRO-SYNTAX",
    "RequestDeadlineError": "REPRO-BUDGET-REQUEST-DEADLINE",
    "ServiceDrainingError": "REPRO-SERVICE-DRAINING",
    "ServiceOverloadError": "REPRO-SERVICE-OVERLOAD",
    "ShardFailedError": "REPRO-SHARD-FAILED",
    "ShardQuarantinedError": "REPRO-SHARD-QUARANTINED",
    "SimulationCycleBudgetError": "REPRO-BUDGET-SIM-CYCLES",
    "SimulationError": "REPRO-SIM",
    "TaskTimeoutError": "REPRO-BUDGET-TASK-TIMEOUT",
    "ThreadBudgetError": "REPRO-BUDGET-SIM-THREADS",
    "UnknownPatternError": "REPRO-SERVICE-UNKNOWN-PATTERN",
    "UnsupportedRegexError": "REPRO-UNSUPPORTED",
    "VMStepBudgetError": "REPRO-BUDGET-VM-STEPS",
    "VerificationError": "REPRO-IR-VERIFY",
    "WallClockBudgetError": "REPRO-BUDGET-WALL-TIME",
    "WorkerCrashError": "REPRO-WORKER-CRASH",
    "WorkerStateError": "REPRO-WORKER-STATE",
}


def _walk_subclasses(root):
    """Every class reachable from ``root`` via ``__subclasses__``.

    Deduped by class identity: diamond inheritance (for example
    ``PatternNestingError`` is both a ``RegexSyntaxError`` and a
    ``BudgetExceeded``) makes several classes reachable twice.
    """
    seen = set()
    stack = [root]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return seen


def test_dynamic_walk_finds_exactly_the_registered_errors():
    """A new ReproError subclass must be added to ALL_ERROR_TYPES (and
    the code snapshot) or this fails — no unregistered error types."""
    discovered = _walk_subclasses(ReproError)
    assert discovered == set(ALL_ERROR_TYPES), {
        "unregistered": sorted(
            c.__name__ for c in discovered - set(ALL_ERROR_TYPES)
        ),
        "vanished": sorted(
            c.__name__ for c in set(ALL_ERROR_TYPES) - discovered
        ),
    }


def test_dynamic_walk_codes_are_unique_and_stable():
    discovered = _walk_subclasses(ReproError)
    codes = {}
    for cls in discovered:
        assert cls.code.startswith("REPRO-"), cls
        assert cls.code != "REPRO-ERROR", cls
        assert cls.code not in codes, (
            f"{cls.__name__} reuses code {cls.code} "
            f"from {codes[cls.code].__name__}"
        )
        codes[cls.code] = cls
    assert {c.__name__: c.code for c in discovered} == CODE_SNAPSHOT


@pytest.mark.parametrize("error_type", ALL_ERROR_TYPES)
def test_every_error_is_a_repro_error(error_type):
    assert issubclass(error_type, ReproError)


@pytest.mark.parametrize("error_type", ALL_ERROR_TYPES)
def test_every_error_has_a_stable_code(error_type):
    assert error_type.code.startswith("REPRO-")
    assert error_type.code != "REPRO-ERROR"


def test_codes_are_unique_per_concrete_type():
    codes = [t.code for t in ALL_ERROR_TYPES]
    assert len(codes) == len(set(codes))


def test_budget_errors_carry_limit_and_spent():
    error = VMStepBudgetError(120, 100, "a*b")
    assert error.limit == 100
    assert error.spent == 120
    assert isinstance(error, BudgetExceeded)


def test_nesting_error_is_both_budget_and_syntax_error():
    """Old callers catching RegexSyntaxError and new callers catching
    BudgetExceeded both see the depth rejection."""
    error = PatternNestingError("((((", 3, 2)
    assert isinstance(error, BudgetExceeded)
    assert isinstance(error, RegexSyntaxError)
    assert error.code == "REPRO-BUDGET-NESTING"


def test_simulator_budget_errors_are_both_simulation_and_budget():
    error = SimulationCycleBudgetError("stuck", limit=10, spent=11)
    assert isinstance(error, SimulationError)
    assert isinstance(error, BudgetExceeded)
    error = ThreadBudgetError("blow-up", limit=5, spent=6)
    assert isinstance(error, SimulationError)
    assert isinstance(error, BudgetExceeded)


def test_to_dict_is_machine_readable():
    error = InputEncodingError("☃", 7, what="input chunk")
    payload = error.to_dict()
    assert payload["code"] == "REPRO-INPUT-ENCODING"
    assert "U+2603" in payload["message"]
    assert payload["location"]["column"] == 7


def test_to_dict_without_location():
    payload = PassBudgetError(1.5, 1.0, "regex-transforms").to_dict()
    assert payload["code"] == "REPRO-BUDGET-PASS-TIME"
    assert payload["location"] is None


def test_format_error_renders_code_and_location():
    rendered = format_error(InputEncodingError("é", 2, what="input"))
    assert rendered.startswith("error[REPRO-INPUT-ENCODING] at <input>:2:")


def test_format_error_does_not_repeat_syntax_location():
    error = RegexSyntaxError("unbalanced '('", "(((", 2)
    rendered = format_error(error)
    assert rendered.count("<pattern>:2") == 1


def test_supervisor_timeouts_are_budget_errors():
    """Per-task and wall-clock trips join the BudgetExceeded family, so
    one ``except BudgetExceeded`` covers compile, VM and scan limits."""
    task = TaskTimeoutError(3, 1.73, 1.5)
    wall = WallClockBudgetError(2, 5.01, 4.0)
    assert isinstance(task, BudgetExceeded) and task.limit == 1.5
    assert isinstance(wall, BudgetExceeded) and wall.spent == 5.01
    assert task.index == 3 and wall.index == 2


def test_quarantine_error_nests_the_last_failure():
    inner = VMStepBudgetError(120, 100, "a*b")
    error = ShardQuarantinedError(7, 3, inner)
    payload = error.to_dict()
    assert payload["code"] == "REPRO-SHARD-QUARANTINED"
    assert payload["last_error"]["code"] == "REPRO-BUDGET-VM-STEPS"
    assert error.attempts == 3 and error.last_error is inner


def test_service_errors_carry_backpressure_fields():
    """The admission gate's 429 rendering needs the retry hint, and the
    per-request deadline joins the BudgetExceeded family."""
    shed = ServiceOverloadError(64, 64, retry_after=0.5)
    assert shed.retry_after == 0.5 and shed.inflight == 64
    drain = ServiceDrainingError("SIGTERM received")
    assert "draining" in str(drain)
    deadline = RequestDeadlineError("/scan", 2.73, 2.0)
    assert isinstance(deadline, BudgetExceeded)
    assert deadline.limit == 2.0 and deadline.endpoint == "/scan"


def test_syntax_error_location_survives():
    error = RegexSyntaxError("boom", "ab(", 2)
    assert isinstance(error.location, Location)
    assert error.location.column == 2
