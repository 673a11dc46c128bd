"""Process-level fault injection against the scan supervisor.

The safety property under test (ISSUE 4's acceptance bar): an injected
worker fault — a raised exception, a shard sleeping past the per-task
budget, or a worker killed with ``os._exit`` — is **retried to success,
quarantined with a typed error, or converted to a typed timeout**.
Never a hang, never a silently dropped verdict: every healthy shard
keeps its correct verdict and the run completes within its deadline.

Wall-clock bounds in the assertions are deliberately loose (CI jitter);
the hard guarantee is that these tests *finish at all* — without the
supervisor every hang/exit scenario would deadlock ``pool.map``.
"""

import pytest

from repro.engine import Engine, ScanReport
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.errors import ShardQuarantinedError, TaskTimeoutError
from repro.runtime.faults import ProcessFaultPlan, WorkerFaultSpec

PATTERN = "a(b|c)d"
TEXTS = ["xabd", "zzz", "acd", "", "abdx", "nope", "aad", "xacdx"]
EXPECTED = [True, False, True, False, True, False, False, True]

#: Generous ceiling: every scenario here settles in well under a second
#: of supervised work; 30s means "did not hang" even on a loaded CI box.
WALL_CEILING = 30.0


def make_engine(max_retries=2, task_timeout=None, wall_timeout=None):
    budget = DEFAULT_BUDGET.replace(
        max_task_seconds=task_timeout, max_wall_seconds=wall_timeout
    )
    return Engine(budget=budget, retries=max_retries)


def assert_healthy_shards_correct(report, faulted):
    """Every non-faulted shard has its in-process verdict, in order."""
    assert isinstance(report, ScanReport)
    assert [outcome.index for outcome in report.outcomes] == list(
        range(len(TEXTS))
    )
    for index, outcome in enumerate(report.outcomes):
        if index in faulted:
            assert not outcome.ok and outcome.verdict is None
            assert outcome.error is not None
        else:
            assert outcome.ok, (index, outcome.error)
            assert outcome.verdict == EXPECTED[index]


class TestRaiseFault:
    def test_persistent_raise_is_quarantined(self):
        engine = make_engine(max_retries=2)
        plan = ProcessFaultPlan.single(3, "raise")
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, {3})
        outcome = report.outcomes[3]
        assert outcome.status == "quarantined"
        assert outcome.error.code == "REPRO-SHARD-QUARANTINED"
        assert outcome.attempts == 3  # initial try + 2 retries
        # The quarantine error nests the worker's actual failure.
        assert outcome.error.last_error.code == "REPRO-SHARD-FAILED"
        assert "injected worker fault" in outcome.error.last_error.cause_message
        assert report.retries >= 2 and report.quarantined == 1
        assert report.elapsed < WALL_CEILING

    def test_transient_raise_is_retried_to_success(self, tmp_path):
        engine = make_engine(max_retries=2)
        plan = ProcessFaultPlan.single(
            5, "raise", times=1, marker_dir=str(tmp_path)
        )
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, set())
        assert report.complete and report.chunk_matches == EXPECTED
        assert report.outcomes[5].attempts == 2
        assert report.retries >= 1

    def test_strict_mode_raises_the_quarantine_error(self):
        engine = make_engine(max_retries=0)
        plan = ProcessFaultPlan.single(0, "raise")
        with pytest.raises(ShardQuarantinedError) as excinfo:
            engine.match_many(PATTERN, TEXTS, jobs=2, fault_plan=plan)
        assert excinfo.value.index == 0
        assert excinfo.value.last_error.code == "REPRO-SHARD-FAILED"


class TestHangFault:
    def test_hung_shard_becomes_typed_timeout(self):
        engine = make_engine(task_timeout=0.75)
        plan = ProcessFaultPlan.single(2, "hang")
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, {2})
        outcome = report.outcomes[2]
        assert outcome.status == "timeout"
        assert isinstance(outcome.error, TaskTimeoutError)
        assert outcome.error.code == "REPRO-BUDGET-TASK-TIMEOUT"
        assert outcome.error.limit == 0.75
        # Reclaiming a hung worker requires respawning the pool.
        assert report.respawns >= 1
        assert report.elapsed < WALL_CEILING

    def test_wall_deadline_settles_unfinished_shards(self):
        # No per-task timeout: only the overall deadline can save the run.
        engine = make_engine(wall_timeout=1.0)
        plan = ProcessFaultPlan.single(1, "hang")
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert isinstance(report, ScanReport)
        hung = report.outcomes[1]
        assert hung.status == "timeout"
        assert hung.error.code == "REPRO-BUDGET-WALL-TIME"
        # Shards that finished before the deadline keep their verdicts;
        # anything unfinished carries the wall-clock error instead.
        for index, outcome in enumerate(report.outcomes):
            if outcome.ok:
                assert outcome.verdict == EXPECTED[index]
            else:
                assert outcome.error is not None
        assert report.elapsed < WALL_CEILING


class TestExitFault:
    def test_killed_worker_is_detected_and_quarantined(self):
        engine = make_engine(max_retries=1)
        plan = ProcessFaultPlan.single(4, "exit")
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, {4})
        outcome = report.outcomes[4]
        assert outcome.status == "quarantined"
        assert outcome.error.last_error.code == "REPRO-WORKER-CRASH"
        # Each crash costs a pool; probing re-identifies the poison shard.
        assert report.respawns >= 1
        assert report.elapsed < WALL_CEILING

    def test_transient_exit_is_retried_to_success(self, tmp_path):
        engine = make_engine(max_retries=2)
        plan = ProcessFaultPlan.single(
            6, "exit", times=1, marker_dir=str(tmp_path)
        )
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, set())
        assert report.complete and report.chunk_matches == EXPECTED
        assert report.respawns >= 1


class TestSystemicFault:
    def test_systemic_raise_quarantines_only_the_faulted_shards(self):
        # 10 of 12 shards fail: each faulted shard is quarantined on its
        # own strikes, and the two healthy ones keep their verdicts —
        # nothing settles a shard it never ran.
        engine = make_engine(max_retries=0)
        texts = ["xabd"] * 12
        plan = ProcessFaultPlan(
            faults=tuple(
                (index, WorkerFaultSpec("raise")) for index in range(10)
            )
        )
        report = engine.match_many(
            PATTERN, texts, jobs=2, strict=False, fault_plan=plan
        )
        assert [outcome.index for outcome in report.outcomes] == list(range(12))
        for outcome in report.outcomes[:10]:
            assert outcome.status == "quarantined"
            assert outcome.attempts == 1
            assert outcome.error.code == "REPRO-SHARD-QUARANTINED"
            assert outcome.error.last_error.code == "REPRO-SHARD-FAILED"
        assert [outcome.verdict for outcome in report.outcomes[10:]] == [
            True, True,
        ]
        assert report.quarantined == 10 and report.retries == 0
        assert report.elapsed < WALL_CEILING


class TestMultipleFaults:
    def test_mixed_faults_all_settle_typed(self):
        engine = make_engine(max_retries=1, task_timeout=0.75)
        plan = ProcessFaultPlan(
            faults=(
                (1, WorkerFaultSpec("raise")),
                (4, WorkerFaultSpec("hang")),
            )
        )
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, {1, 4})
        assert report.outcomes[1].status == "quarantined"
        assert report.outcomes[4].status == "timeout"
        assert report.elapsed < WALL_CEILING
