"""Property: partial-mode supervision never reorders or corrupts.

For random text batches and random injected worker faults, the
supervised partial scan must (a) produce exactly one outcome per input,
in input order, (b) agree with the in-process verdicts on every
non-faulted index, and (c) settle every faulted index with a typed
quarantine — the fault-tolerance machinery (retries, worker
replacement) is invisible to healthy shards.

``max_examples`` is small because every example pays for worker processes;
the deterministic scenario matrix lives in
``tests/engine/test_supervisor_faults.py`` — this test exists to catch
interactions no hand-written scenario anticipated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.runtime.faults import ProcessFaultPlan, WorkerFaultSpec

PATTERN = "a(b|c)d"
CANDIDATES = ["abd", "acd", "zzz", "", "xxabdx", "ab", "aacdd", "bdbd"]

#: One serial engine for golden verdicts, reused across examples.
_golden = Engine()


def _supervised_engine():
    return Engine(retries=0)


@settings(max_examples=6, deadline=None)
@given(
    texts=st.lists(st.sampled_from(CANDIDATES), min_size=3, max_size=10),
    faulted=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
)
def test_partial_mode_order_and_agreement_under_faults(texts, faulted):
    faulted = {index for index in faulted if index < len(texts)}
    expected = _golden.match_many(PATTERN, texts)

    plan = None
    if faulted:
        plan = ProcessFaultPlan(
            faults=tuple(
                (index, WorkerFaultSpec("raise")) for index in sorted(faulted)
            )
        )
    report = _supervised_engine().match_many(
        PATTERN, texts, jobs=2, strict=False, fault_plan=plan
    )

    assert len(report.outcomes) == len(texts)
    assert [outcome.index for outcome in report.outcomes] == list(
        range(len(texts))
    )
    for index, outcome in enumerate(report.outcomes):
        if index in faulted:
            assert outcome.status == "quarantined"
            assert outcome.verdict is None
            assert outcome.error.code == "REPRO-SHARD-QUARANTINED"
        else:
            assert outcome.ok
            assert outcome.verdict == expected[index]
    assert report.chunk_matches == [
        None if index in faulted else expected[index]
        for index in range(len(texts))
    ]
