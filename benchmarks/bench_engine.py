#!/usr/bin/env python
"""Throughput regression harness for :mod:`repro.engine`.

Measures three serving-oriented workloads and writes ``BENCH_engine.json``
so future PRs have a perf trajectory:

* **repeated-pattern** — the same small pattern set requested over and
  over (the cache's home turf): engine requests/sec vs compile-per-call
  baseline, plus the cache hit rate.
* **corpus-scan** — one pattern over a chunked corpus: engine chars/sec
  (compile once, fast VM) vs the pre-engine behaviour (recompile per
  chunk, reference VM).
* **vm-fast-path** — the precomputed-dispatch VM vs the reference
  interpreter on identical programs and inputs.
* **observability-overhead** — the VM hot loop with disabled telemetry
  instruments explicitly supplied vs the bare call; the observability
  layer's no-op fast path must cost ≤ ``OVERHEAD_CEILING`` (a hard
  gate, independent of any baseline).
* **prefilter-sparse-scan** — corpus scan where ≤1% of chunks can
  match: the engine's literal prefilter + lazy-DFA path vs the same
  chunks through a bare VM.  Must clear ``PREFILTER_SPARSE_FLOOR``
  (hard gate: the tentpole's order-of-magnitude claim).
* **prefilter-dense-scan** — every chunk carries the literal, so the
  prefilter rejects nothing and the ratio is pure overhead + lazy-DFA
  verify; must stay above ``PREFILTER_DENSE_FLOOR``.
* **lazy-dfa** — the bounded lazy DFA vs the NFA VM on a
  prefilter-inert pattern (no literal, wide first-byte set), the path
  the engine takes when chunk rejection has nothing to work with.
* **streaming-vs-oneshot** — :class:`StreamingMatcher` fed
  log-follower chunk splits vs one-shot ``vm.run`` on the identical
  input; the price of resumable frontier state must stay bounded
  (hard gate: ``STREAMING_FLOOR``, streaming keeps ≥ 0.8x of one-shot
  throughput).
* **service-throughput** — ``/match`` requests through the full
  ``repro serve`` HTTP stack (admission gate, dispatch, JSON)
  vs calling the same warmed engine directly; the ratio tracks what
  the service wrapper costs per request.

Every section is declared once in the :data:`SECTIONS` registry, which
drives ``run_suite`` (including ``--quick``), the summary printout, the
hard floors/ceilings and the ``--baseline`` gate — adding a section
here is the whole registration.

Absolute throughputs are machine-dependent; the *speedup ratios* are
not, so the regression gate (``--baseline`` + ``--max-regression``)
compares ratios only.  Run ``--quick`` in CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --baseline benchmarks/baselines/BENCH_engine_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.arch.simulator import split_chunks
from repro.compiler import NewCompiler
from repro.engine import Engine
from repro.engine.supervisor import run_in_process
from repro.runtime.budget import DEFAULT_BUDGET
from repro.runtime.encoding import as_input_bytes
from repro.vm.thompson import ThompsonVM

#: Hard ceiling on the disabled-telemetry overhead fraction: the no-op
#: tracer/metrics path may cost at most this much over the bare VM call.
OVERHEAD_CEILING = 0.05

#: Hard floors (baseline-independent, like OVERHEAD_CEILING): the
#: sparse-scan speedup is the PR's acceptance bar, the dense-scan floor
#: caps how much a prefilter that rejects nothing may cost.
PREFILTER_SPARSE_FLOOR = 5.0
PREFILTER_DENSE_FLOOR = 0.95

#: Hard floor on streaming throughput: chunked execution with resumable
#: frontier state must keep at least this fraction of the one-shot
#: VM's throughput on the same input (the ISSUE-9 acceptance bar).
STREAMING_FLOOR = 0.8

PATTERNS = [
    "th(is|at|ose)",
    "a(b|c)d*e",
    "x[ab]{2,4}y",
    "(ab|ba)+c",
    "colou?r",
    "[a-f]+[0-9][a-f]+",
]


def _mk_corpus(chars: int) -> bytes:
    # Deterministic, non-trivially matchable filler.
    unit = b"the quick brown fox jumps over the lazy dog 0123456789 "
    body = (unit * (chars // len(unit) + 1))[:chars]
    return body[: chars // 2] + b"xaabby" + body[chars // 2 :]


def bench_repeated_patterns(repeats: int) -> Dict:
    """Cache-hit workload: every pattern requested ``repeats`` times."""
    text = "say that again"
    requests = [(pattern, text) for _ in range(repeats) for pattern in PATTERNS]

    started = time.perf_counter()
    for pattern, probe in requests:
        ThompsonVM(NewCompiler().compile(pattern).program).run(probe)
    baseline_s = time.perf_counter() - started

    engine = Engine()
    started = time.perf_counter()
    for pattern, probe in requests:
        engine.match(pattern, probe)
    engine_s = time.perf_counter() - started

    stats = engine.cache_stats()
    total = len(requests)
    return {
        "requests": total,
        "unique_patterns": len(PATTERNS),
        "baseline_s": baseline_s,
        "engine_s": engine_s,
        "baseline_patterns_per_sec": total / baseline_s,
        "engine_patterns_per_sec": total / engine_s,
        "speedup": baseline_s / engine_s,
        "cache": stats.to_dict(),
    }


def bench_corpus_scan(corpus_chars: int, chunk_bytes: int = 500) -> Dict:
    """One pattern over a chunked corpus, engine vs pre-engine flow."""
    pattern = "a(a|b)*by"
    corpus = _mk_corpus(corpus_chars)
    chunks = [
        corpus[i : i + chunk_bytes] for i in range(0, len(corpus), chunk_bytes)
    ]

    # The pre-engine serving flow: each chunk request recompiled the
    # pattern and ran the reference interpreter (api.match semantics).
    started = time.perf_counter()
    baseline_verdicts = [
        ThompsonVM(NewCompiler().compile(pattern).program).run_reference(chunk)
        .matched
        for chunk in chunks
    ]
    baseline_s = time.perf_counter() - started

    engine = Engine()
    started = time.perf_counter()
    result = engine.scan_corpus(pattern, corpus, chunk_bytes=chunk_bytes)
    engine_s = time.perf_counter() - started

    assert result.chunk_matches == baseline_verdicts, (
        "engine and baseline disagree on corpus verdicts"
    )
    return {
        "corpus_chars": len(corpus),
        "chunks": len(chunks),
        "chunk_bytes": chunk_bytes,
        "matched_chunks": result.matched_chunks,
        "baseline_s": baseline_s,
        "engine_s": engine_s,
        "baseline_chars_per_sec": len(corpus) / baseline_s,
        "engine_chars_per_sec": len(corpus) / engine_s,
        "speedup": baseline_s / engine_s,
    }


def bench_vm_fast_path(text_chars: int, rounds: int) -> Dict:
    """Precomputed-dispatch VM vs the reference interpreter."""
    pattern = "(a|ab|b)*c(d|e)f{2,4}"
    program = NewCompiler().compile(pattern).program
    vm = ThompsonVM(program)
    text = (b"ab" * (text_chars // 2))[: text_chars - 4] + b"cdff"
    assert vm.run(text).matched == vm.run_reference(text).matched

    started = time.perf_counter()
    for _ in range(rounds):
        vm.run(text)
    fast_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(rounds):
        vm.run_reference(text)
    reference_s = time.perf_counter() - started

    return {
        "pattern": pattern,
        "text_chars": text_chars,
        "rounds": rounds,
        "reference_s": reference_s,
        "fast_s": fast_s,
        "reference_chars_per_sec": text_chars * rounds / reference_s,
        "fast_chars_per_sec": text_chars * rounds / fast_s,
        "speedup": reference_s / fast_s,
    }


def bench_observability_overhead(
    text_chars: int, rounds: int, repeats: int = 5
) -> Dict:
    """Disabled-telemetry dispatch vs the bare VM call (must be ~free).

    Passing :data:`NULL_TRACER`/:data:`NULL_METRICS` exercises the
    instrumentation dispatch in :meth:`ThompsonVM.run` while keeping the
    hot loop on its uninstrumented copy — exactly what every caller that
    plumbs optional telemetry pays when nothing records.  The two sides
    are timed in interleaved batches (best-of-``repeats`` each) so
    scheduler noise and thermal drift hit both equally; the suite gates
    the overhead fraction at :data:`OVERHEAD_CEILING`.
    """
    from repro.observability import NULL_METRICS, NULL_TRACER

    pattern = "(a|ab|b)*c(d|e)f{2,4}"
    program = NewCompiler().compile(pattern).program
    vm = ThompsonVM(program)
    text = (b"ab" * (text_chars // 2))[: text_chars - 4] + b"cdff"

    for _ in range(rounds):  # warm caches and the bytecode specializer
        vm.run(text)
        vm.run(text, tracer=NULL_TRACER, metrics=NULL_METRICS)
    plain_s = disabled_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(rounds):
            vm.run(text)
        plain_s = min(plain_s, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(rounds):
            vm.run(text, tracer=NULL_TRACER, metrics=NULL_METRICS)
        disabled_s = min(disabled_s, time.perf_counter() - started)
    return {
        "pattern": pattern,
        "text_chars": text_chars,
        "rounds": rounds,
        "repeats": repeats,
        "plain_s": plain_s,
        "disabled_s": disabled_s,
        "overhead_frac": disabled_s / plain_s - 1.0,
        "speedup": plain_s / disabled_s,
    }


def _mk_prefilter_corpus(
    chunks: int, chunk_bytes: int, match_every: int
) -> bytes:
    """``chunks`` chunks of literal-free filler; every ``match_every``-th
    chunk carries one occurrence of the bench pattern's match body."""
    filler = (b"the quick crown fox jumped over the lazy dog 0123456789 "
              .replace(b"a", b"o"))  # keep the filler free of 'a'
    unit = (filler * (chunk_bytes // len(filler) + 1))[:chunk_bytes]
    parts = []
    for index in range(chunks):
        if match_every and index % match_every == 0:
            parts.append(b"aabby" + unit[5:])
        else:
            parts.append(unit)
    return b"".join(parts)


def _bench_prefilter_scan(
    chunks: int, chunk_bytes: int, match_every: int, rounds: int = 3
) -> Dict:
    pattern = "a(a|b)*by"
    corpus = _mk_prefilter_corpus(chunks, chunk_bytes, match_every)
    # The "off" side is the engine's in-process scan over a bare VM:
    # the same chunking, normalization, per-chunk loop and per-scan
    # shard accounting (into the same default registry), no filter.
    auto = Engine()
    auto.match(pattern, "warmup")  # compile outside the timed region
    vm = ThompsonVM(NewCompiler().compile(pattern).program)
    max_steps = DEFAULT_BUDGET.max_vm_steps
    instruments = auto._instruments

    def off_scan():
        chunks = [
            as_input_bytes(chunk, what="input text")
            for chunk in split_chunks(corpus, chunk_bytes)
        ]
        report = run_in_process(
            lambda data: bool(vm.run(data, max_steps=max_steps)), chunks
        )
        if instruments is not None:
            instruments.record_scan(report)
        return report

    off_s = auto_s = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        off_result = off_scan()
        off_s = min(off_s, time.perf_counter() - started)
        started = time.perf_counter()
        auto_result = auto.scan_corpus(pattern, corpus, chunk_bytes=chunk_bytes)
        auto_s = min(auto_s, time.perf_counter() - started)

    assert off_result.chunk_matches == auto_result.chunk_matches, (
        "prefiltered and plain scans disagree on corpus verdicts"
    )
    return {
        "pattern": pattern,
        "chunks": off_result.chunks,
        "chunk_bytes": chunk_bytes,
        "matched_chunks": off_result.matched_chunks,
        "matched_frac": off_result.matched_chunks / off_result.chunks,
        "off_s": off_s,
        "auto_s": auto_s,
        "off_chars_per_sec": len(corpus) / off_s,
        "auto_chars_per_sec": len(corpus) / auto_s,
        "speedup": off_s / auto_s,
    }


def bench_prefilter_sparse_scan(chunks: int, chunk_bytes: int = 500) -> Dict:
    """≤1% matching chunks: the prefilter's home turf (hard-gated)."""
    return _bench_prefilter_scan(chunks, chunk_bytes, match_every=128)


def bench_prefilter_dense_scan(chunks: int, chunk_bytes: int = 500) -> Dict:
    """Every chunk matches: the prefilter rejects nothing, so the ratio
    is filter overhead plus the lazy-DFA verify path."""
    return _bench_prefilter_scan(chunks, chunk_bytes, match_every=1)


def bench_lazy_dfa(text_chars: int, rounds: int) -> Dict:
    """Bounded lazy DFA vs the NFA VM when the prefilter is inert."""
    from repro.prefilter.lazydfa import LazyDFAMatcher

    pattern = "[a-z][0-9][a-z]"  # no literal, >16 first bytes: inert
    program = NewCompiler().compile(pattern).program
    assert program.analysis is not None and program.analysis.inert
    vm = ThompsonVM(program)
    matcher = LazyDFAMatcher(program, vm=vm)
    filler = b"nomatchhere " * (text_chars // 12 + 1)
    text = filler[: text_chars - 3] + b"x4x"
    assert matcher.match(text) == vm.run(text)
    assert not matcher.blown

    dfa_s = vm_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(rounds):
            matcher.match(text)
        dfa_s = min(dfa_s, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(rounds):
            vm.run(text)
        vm_s = min(vm_s, time.perf_counter() - started)
    return {
        "pattern": pattern,
        "text_chars": text_chars,
        "rounds": rounds,
        "dfa_states": matcher.dfa.state_count,
        "vm_s": vm_s,
        "dfa_s": dfa_s,
        "vm_chars_per_sec": text_chars * rounds / vm_s,
        "dfa_chars_per_sec": text_chars * rounds / dfa_s,
        "speedup": vm_s / dfa_s,
    }


def bench_streaming_vs_oneshot(
    text_chars: int, rounds: int, chunk_bytes: int = 64, repeats: int = 5
) -> Dict:
    """Chunked :class:`StreamingMatcher` vs one-shot ``vm.run``.

    Both sides walk the identical input with the identical program and
    shared dispatch tables; the streaming side — a matcher with
    ``max_states=0``, so the kernel alone as on the one-shot side —
    additionally saves and restores the frontier at every
    ``chunk_bytes`` boundary, exactly what the ``/stream`` endpoint pays
    per network read.  Interleaved best-of-``repeats`` timing,
    hard-gated at :data:`STREAMING_FLOOR`.
    """
    from repro.prefilter import LazyDFAMatcher
    from repro.vm import StreamingMatcher

    pattern = "(a|ab|b)*c(d|e)f{2,4}"
    program = NewCompiler().compile(pattern).program
    vm = ThompsonVM(program)
    text = (b"ab" * (text_chars // 2))[: text_chars - 4] + b"cdff"
    chunks = [
        text[i : i + chunk_bytes] for i in range(0, len(text), chunk_bytes)
    ]

    kernel_only = LazyDFAMatcher(program, max_states=0, vm=vm)

    def _stream_once():
        matcher = StreamingMatcher(kernel_only)
        for chunk in chunks:
            if matcher.feed(chunk) is not None:
                break
        return matcher.finish() if not matcher.settled else matcher.result

    assert bool(_stream_once()) == bool(vm.run(text))
    oneshot_s = streaming_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(rounds):
            vm.run(text)
        oneshot_s = min(oneshot_s, time.perf_counter() - started)
        started = time.perf_counter()
        for _ in range(rounds):
            _stream_once()
        streaming_s = min(streaming_s, time.perf_counter() - started)
    return {
        "pattern": pattern,
        "text_chars": len(text),
        "chunk_bytes": chunk_bytes,
        "chunks": len(chunks),
        "rounds": rounds,
        "oneshot_s": oneshot_s,
        "streaming_s": streaming_s,
        "oneshot_chars_per_sec": len(text) * rounds / oneshot_s,
        "streaming_chars_per_sec": len(text) * rounds / streaming_s,
        # >= 1.0 means chunking is free; the hard STREAMING_FLOOR bounds
        # how much the resumable state may cost.
        "speedup": oneshot_s / streaming_s,
    }


def bench_service_throughput(requests: int, concurrency: int = 4) -> Dict:
    """``/match`` through the live HTTP service vs the engine directly.

    One in-process :class:`MatchService` on an ephemeral port,
    ``concurrency`` keep-alive connections each pumping sequential
    requests; the same (pattern, text) then runs through a warmed
    engine without the service wrapper.  The ratio is the per-request
    price of HTTP parsing, admission control and JSON (the match itself
    runs on the event loop: resident pattern, short text).
    """
    import asyncio

    from repro.service import MatchService, ServiceConfig

    pattern = "a(b|c)+d"
    text = "say xxabcbcd again"
    per_conn = max(1, requests // concurrency)
    total = per_conn * concurrency
    payload = json.dumps({"pattern": pattern, "text": text}).encode()
    head = (
        f"POST /match HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()

    async def _pump(host: str, port: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for _ in range(per_conn):
                writer.write(head + payload)
                await writer.drain()
                status = await reader.readline()
                assert b" 200 " in status, status
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                await reader.readexactly(length)
        finally:
            writer.close()
            await writer.wait_closed()

    async def _run_http() -> float:
        service = MatchService(
            ServiceConfig(port=0, max_inflight=concurrency * 2)
        )
        await service.start()
        try:
            # Compile outside the timed region (the cache-hit steady
            # state is what a long-lived daemon serves from).
            service.engine.match(pattern, text)
            started = time.perf_counter()
            await asyncio.gather(
                *[_pump(service.host, service.port)
                  for _ in range(concurrency)]
            )
            return time.perf_counter() - started
        finally:
            await service.drain("bench")

    http_s = asyncio.run(_run_http())

    engine = Engine()
    assert engine.match(pattern, text)  # warm the cache
    started = time.perf_counter()
    for _ in range(total):
        engine.match(pattern, text)
    direct_s = time.perf_counter() - started

    return {
        "pattern": pattern,
        "requests": total,
        "concurrency": concurrency,
        "direct_s": direct_s,
        "http_s": http_s,
        "direct_requests_per_sec": total / direct_s,
        "http_requests_per_sec": total / http_s,
        # < 1.0 by construction: the fraction of direct-call throughput
        # that survives the full HTTP + admission + executor stack.
        "speedup": direct_s / http_s,
    }


def _floor_check(
    key: str, floor: float
) -> Callable[[Dict], Optional[str]]:
    """Hard baseline-independent floor on a section's ``speedup``."""

    def check(results: Dict) -> Optional[str]:
        if results["speedup"] < floor - 1e-9:
            return (
                f"{key}.speedup {results['speedup']:.2f}x is below the "
                f"hard {floor:.2f}x floor"
            )
        return None

    return check


def _observability_check(results: Dict) -> Optional[str]:
    if results["overhead_frac"] > OVERHEAD_CEILING:
        return (
            "observability_overhead.overhead_frac "
            f"{results['overhead_frac']:+.1%} exceeds the hard "
            f"+{OVERHEAD_CEILING:.0%} ceiling"
        )
    return None


@dataclass(frozen=True)
class Section:
    """One bench section: measurement, summary line, optional hard gate.

    ``key`` doubles as the results/baseline section name;
    ``gated_metric`` is what the ``--baseline`` gate compares.
    Registering a :data:`SECTIONS` entry is all it takes for a new
    section to run under ``--quick``, print in the summary and gate
    against the baseline.
    """

    key: str
    label: str
    run: Callable[[Dict], Dict]
    summarize: Callable[[Dict], str]
    check: Optional[Callable[[Dict], Optional[str]]] = None
    gated_metric: str = "speedup"


SECTIONS = (
    Section(
        "repeated_pattern",
        "repeated-pattern",
        lambda scale: bench_repeated_patterns(scale["repeats"]),
        lambda r: (
            f"{r['engine_patterns_per_sec']:,.0f} req/s "
            f"({r['speedup']:.1f}x, cache hit rate "
            f"{r['cache']['hit_rate']:.0%})"
        ),
    ),
    Section(
        "corpus_scan",
        "corpus-scan",
        lambda scale: bench_corpus_scan(scale["corpus_chars"]),
        lambda r: f"{r['engine_chars_per_sec']:,.0f} chars/s "
        f"({r['speedup']:.1f}x)",
    ),
    Section(
        "vm_fast_path",
        "vm-fast-path",
        lambda scale: bench_vm_fast_path(
            scale["vm_chars"], scale["vm_rounds"]
        ),
        lambda r: f"{r['fast_chars_per_sec']:,.0f} chars/s "
        f"({r['speedup']:.1f}x)",
    ),
    Section(
        "observability_overhead",
        "observability",
        lambda scale: bench_observability_overhead(
            scale["vm_chars"], scale["vm_rounds"]
        ),
        lambda r: (
            f"disabled-tracer overhead {r['overhead_frac']:+.1%} "
            f"(ceiling +{OVERHEAD_CEILING:.0%})"
        ),
        check=_observability_check,
    ),
    Section(
        "prefilter_sparse_scan",
        "prefilter-sparse",
        lambda scale: bench_prefilter_sparse_scan(scale["pf_chunks"]),
        lambda r: (
            f"{r['auto_chars_per_sec']:,.0f} chars/s "
            f"({r['speedup']:.1f}x, {r['matched_frac']:.1%} chunks match)"
        ),
        check=_floor_check("prefilter_sparse_scan", PREFILTER_SPARSE_FLOOR),
    ),
    Section(
        "prefilter_dense_scan",
        "prefilter-dense",
        lambda scale: bench_prefilter_dense_scan(scale["pf_chunks"] // 4),
        lambda r: (
            f"{r['auto_chars_per_sec']:,.0f} chars/s "
            f"({r['speedup']:.2f}x of unfiltered)"
        ),
        check=_floor_check("prefilter_dense_scan", PREFILTER_DENSE_FLOOR),
    ),
    Section(
        "lazy_dfa",
        "lazy-dfa",
        lambda scale: bench_lazy_dfa(scale["vm_chars"], scale["vm_rounds"]),
        lambda r: (
            f"{r['dfa_chars_per_sec']:,.0f} chars/s "
            f"({r['speedup']:.1f}x of the VM, {r['dfa_states']} states)"
        ),
    ),
    Section(
        "streaming_vs_oneshot",
        "streaming",
        lambda scale: bench_streaming_vs_oneshot(
            scale["vm_chars"], scale["vm_rounds"]
        ),
        lambda r: (
            f"{r['streaming_chars_per_sec']:,.0f} chars/s "
            f"({r['speedup']:.2f}x of one-shot, floor "
            f"{STREAMING_FLOOR:.1f}x)"
        ),
        check=_floor_check("streaming_vs_oneshot", STREAMING_FLOOR),
    ),
    Section(
        "service_throughput",
        "service",
        lambda scale: bench_service_throughput(scale["svc_requests"]),
        lambda r: (
            f"{r['http_requests_per_sec']:,.0f} req/s over HTTP "
            f"({r['speedup']:.3f}x of direct calls)"
        ),
    ),
)

#: Ratio metrics the regression gate compares (machine-independent) —
#: derived from the registry, never hand-maintained.
GATED_METRICS = tuple(
    (section.key, section.gated_metric) for section in SECTIONS
)


def run_suite(quick: bool = False) -> Dict:
    scale = dict(repeats=20, corpus_chars=50_000, vm_chars=800, vm_rounds=100,
                 pf_chunks=512, svc_requests=400)
    if quick:
        scale = dict(repeats=8, corpus_chars=15_000, vm_chars=400, vm_rounds=40,
                     pf_chunks=256, svc_requests=160)
    results: Dict = {"schema": 1, "quick": quick}
    for section in SECTIONS:
        results[section.key] = section.run(scale)
    return results


def check_regression(
    current: Dict, baseline: Dict, max_regression: float
) -> List[str]:
    """Gated-ratio comparison; returns human-readable failures."""
    failures = []
    for section, metric in GATED_METRICS:
        reference = baseline.get(section, {}).get(metric)
        if reference is None:
            continue
        measured = current[section][metric]
        floor = reference * (1.0 - max_regression)
        if measured < floor:
            failures.append(
                f"{section}.{metric}: {measured:.2f}x is below the floor "
                f"{floor:.2f}x (baseline {reference:.2f}x "
                f"- {max_regression:.0%} tolerance)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (seconds, not minutes)")
    parser.add_argument("--out", default="BENCH_engine.json",
                        help="where to write the results JSON")
    parser.add_argument("--baseline",
                        help="baseline JSON to gate speedup ratios against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional ratio drop vs the "
                        "baseline (default 0.30)")
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote {args.out}")
    for section in SECTIONS:
        print(
            f"{section.label:17s}: {section.summarize(results[section.key])}"
        )
    hard_failed = False
    for section in SECTIONS:
        if section.check is None:
            continue
        failure = section.check(results[section.key])
        if failure is not None:
            print(f"REGRESSION: {failure}", file=sys.stderr)
            hard_failed = True
    if hard_failed:
        return 1

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        failures = check_regression(results, baseline, args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate ok (vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
