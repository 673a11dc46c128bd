"""Property tests: trace structure stays well-formed, even under faults.

Two layers of the same invariant. First, the tracer itself: for random
span trees with exceptions thrown at random nodes, every opened span is
closed and the exported parent/child structure validates. Second, the
instrumented scan path: for random batches with random injected worker
faults (forked workers that raise on chosen shards, see
``tests/worker_faults.py``), the engine's trace still validates, and
the metrics registry accounts every shard exactly once across the four
outcome statuses.

``max_examples`` on the supervised test is small because every example
pays for worker processes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.observability import (
    MetricsRegistry,
    Tracer,
    parse_jsonl,
    validate_trace,
)
from worker_faults import fail, misbehave

PATTERN = "a(b|c)d"
CANDIDATES = ["abd", "acd", "zzz", "", "xxabdx", "ab", "aacdd", "bdbd"]

# A span tree is a list of nodes; each node is (raises, children).
_span_trees = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.tuples(st.booleans(), children), max_size=3
    ),
    max_leaves=15,
)


def _execute(tracer, tree, depth=0):
    """Open one span per node, recursing; ``raises`` nodes throw inside."""
    count = 0
    for raises, children in tree:
        try:
            with tracer.span(f"node-d{depth}"):
                count += 1 + _execute(tracer, children, depth + 1)
                if raises:
                    raise RuntimeError("injected span fault")
        except RuntimeError:
            pass
    return count


def _raise_count(tree):
    return sum(
        raises + _raise_count(children) for raises, children in tree
    )


@given(tree=_span_trees)
def test_random_span_trees_validate(tree):
    tracer = Tracer()
    opened = _execute(tracer, tree)

    assert tracer.open_spans == 0
    finished = tracer.finished_spans()
    assert len(finished) == opened
    # A node that raises errors only its own span; the exception is
    # caught before it can poison the parent.
    errored = sum(1 for span in finished if span.status == "error")
    assert errored == _raise_count(tree)
    assert validate_trace(parse_jsonl(tracer.to_jsonl())) == []


def _engine(tracer, metrics):
    return Engine(retries=0, tracer=tracer, metrics=metrics, mp_context="fork")


@settings(max_examples=5, deadline=None)
@given(
    texts=st.lists(st.sampled_from(CANDIDATES), min_size=3, max_size=8),
    faulted=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
)
def test_supervised_scan_trace_and_accounting_under_faults(texts, faulted):
    faulted = {index for index in faulted if index < len(texts)}
    tracer = Tracer()
    metrics = MetricsRegistry()
    with pytest.MonkeyPatch.context() as monkeypatch:
        misbehave(monkeypatch, faulted, fail)
        report = _engine(tracer, metrics).match_many(
            PATTERN, texts, jobs=2, strict=False
        )

    # -- tracing invariants: everything closed, structure validates ----
    assert tracer.open_spans == 0
    records = parse_jsonl(tracer.to_jsonl())
    assert validate_trace(records) == []
    scans = [r for r in records if r["name"] == "engine.scan"]
    runs = [r for r in records if r["name"] == "supervisor.run"]
    assert len(scans) == 1 and len(runs) == 1
    assert scans[0]["attributes"]["shards"] == len(texts)
    assert runs[0]["parent_id"] == scans[0]["span_id"]
    events = [
        event["name"] for record in records for event in record["events"]
    ]
    assert events.count("supervisor.quarantine") == len(faulted)

    # -- metrics invariants: every shard settles in exactly one status --
    shard_total = metrics.sum_values("repro_scan_shards_total")
    assert shard_total == len(texts) == len(report.outcomes)
    assert metrics.value(
        "repro_scan_shards_total", labels={"status": "quarantined"}
    ) == len(faulted)
    assert metrics.value(
        "repro_scan_shards_total", labels={"status": "ok"}
    ) == len(texts) - len(faulted)
