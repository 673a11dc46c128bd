"""Process-level fault injection against the scan supervisor.

The safety property under test (ISSUE 4's acceptance bar): an injected
worker fault — a raised exception, a shard sleeping past the per-task
budget, or a worker killed with ``os._exit`` — is **retried to success,
quarantined with a typed error, or converted to a typed timeout**.
Never a hang, never a silently dropped verdict: every healthy shard
keeps its correct verdict and the run completes within its deadline.

Wall-clock bounds in the assertions are deliberately loose (CI jitter);
the hard guarantee is that these tests *finish at all* — an unsupervised
worker that hangs or exits would leave its caller waiting forever.
"""

import random
import threading

import pytest

from repro.engine import Engine, ScanReport
from repro.engine import supervisor
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
        # A hung worker cannot be interrupted in place: it is replaced.
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
        # Each crash costs the worker that ran the poison shard.
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


class TestAttribution:
    """A worker answers its batch in order, so the first shard it still
    owes is the one it is running: a crash or a hang is charged to that
    shard alone, and the shards queued behind it go back unstruck."""

    def test_crash_strikes_only_the_shard_that_ran(self):
        engine = make_engine(max_retries=1)
        texts = TEXTS * 4
        plan = ProcessFaultPlan.single(4, "exit")
        report = engine.match_many(
            PATTERN, texts, jobs=2, strict=False, fault_plan=plan
        )
        # One replaced worker per run of the poison shard, and a shard
        # is charged an attempt when it runs, not when it is sent.
        assert report.respawns == 2
        assert report.outcomes[4].status == "quarantined"
        assert report.outcomes[4].attempts == 2
        assert report.outcomes[4].error.last_error.code == "REPRO-WORKER-CRASH"
        for index, outcome in enumerate(report.outcomes):
            if index != 4:
                assert outcome.ok and outcome.attempts == 1, index
                assert outcome.verdict == EXPECTED[index % len(TEXTS)]

    def test_hang_mid_batch_requeues_the_unstarted_batch_mates(self):
        # The first batch of 8 shards over 2 workers is shards 0-3:
        # shard 1 hangs while 2 and 3 wait behind it in the same batch.
        engine = make_engine(task_timeout=0.75)
        plan = ProcessFaultPlan.single(1, "hang")
        report = engine.match_many(
            PATTERN, TEXTS, jobs=2, strict=False, fault_plan=plan
        )
        assert_healthy_shards_correct(report, {1})
        assert report.outcomes[1].status == "timeout"
        assert report.outcomes[1].attempts == 1
        assert [outcome.attempts for outcome in report.outcomes] == [1] * 8
        assert report.respawns == 1 and report.retries == 0
        assert report.elapsed < WALL_CEILING

    def test_worker_dying_idle_is_replaced_without_a_strike(self, monkeypatch):
        # The worker given shard 0 exits after answering it, while the
        # other one still sleeps on shard 1: nothing is owed by the dead
        # worker, so nothing is struck.
        serve = supervisor._serve

        class OneBatch:
            def __init__(self, conn):
                self.conn, self.batches = conn, []

            def recv(self):
                if self.batches and self.batches[0][0][0] == 0:
                    raise EOFError
                self.batches.append(self.conn.recv())
                return self.batches[-1]

            def send(self, message):
                self.conn.send(message)

        monkeypatch.setattr(
            supervisor,
            "_serve",
            lambda conn, *args: serve(OneBatch(conn), *args),
        )
        engine = Engine(mp_context="fork", retries=0)
        plan = ProcessFaultPlan.single(1, "hang", hang_seconds=1.0)
        report = engine.match_many(
            PATTERN, ["xabd", "acd"], jobs=2, strict=False, fault_plan=plan
        )
        assert report.chunk_matches == [True, True]
        assert [outcome.attempts for outcome in report.outcomes] == [1, 1]
        assert report.respawns == 1 and report.retries == 0


class TestBackPressure:
    def test_a_large_scan_streams_through_the_pipes(self):
        # 4 MB of batches and ~8,000 answers per scan overflow any pipe
        # buffer both ways: a worker blocked sending verdicts while the
        # parent blocks sending it more work would never finish.
        rng = random.Random(5)
        corpus = bytearray(rng.randbytes(4_000_000).translate(
            bytes(97 + value % 26 for value in range(256))
        ))
        for offset in rng.sample(range(0, len(corpus) - 6, 500), 40):
            corpus[offset:offset + 6] = b"needle"
        corpus = bytes(corpus)
        engine = Engine()
        reports = {}

        def scan(jobs):
            reports[jobs] = engine.scan_corpus(
                "needle", corpus, jobs=jobs, strict=False
            )

        worker = threading.Thread(target=scan, args=(2,), daemon=True)
        worker.start()
        worker.join(timeout=WALL_CEILING)
        assert not worker.is_alive(), "the jobs=2 scan did not finish"
        scan(1)
        assert reports[2].complete and reports[2].chunks == 8000
        assert reports[2].chunk_matches == reports[1].chunk_matches
        assert reports[2].matched_chunks == reports[1].matched_chunks >= 40
