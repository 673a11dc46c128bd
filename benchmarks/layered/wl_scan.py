"""The three corpus-scan workloads: rules × corpus through
``Engine.scan_corpus(rule, data, chunk_bytes=500, jobs=1)``.

Each rule scans the corpus in segments, one ``scan_corpus`` call per
segment, so a run pools enough call latencies for a tail percentile.

The traced run replays every (rule, chunk) pair through the public
functions the engine composes — ``split_chunks``, ``build_chunk_filter``,
``LazyDFAMatcher.match`` (which is ``ThompsonVM.run`` once the DFA has
blown its state budget) — and requires the replayed verdicts to equal
the untraced run's.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.arch.simulator import split_chunks
from repro.engine import Engine
from repro.prefilter import INERT_ANALYSIS, LazyDFAMatcher, build_chunk_filter
from repro.vm.thompson import ThompsonVM

from functools import partial

from harness import Pass, Recorder, clock, time_operations
from inputs import CHUNK_BYTES, planted_stream, split, suite, verdicts
from workload import Workload, verdict


class _Replay:
    """One rule's matchers, rebuilt from the engine's compiled program."""

    def __init__(self, engine: Engine, rule: str):
        self.program = engine.matcher(rule).vm.program
        self.chunk_filter = build_chunk_filter(
            self.program.analysis or INERT_ANALYSIS
        )
        self.dfa = LazyDFAMatcher(
            self.program,
            max_states=engine.budget.max_dfa_states,
            max_vm_steps=engine.budget.max_vm_steps,
        )


class Scan(Workload):
    work_unit = "MB"
    op = "scan_corpus call (one rule x one segment)"
    rate_alias = "scan_mb_s"
    tail_pct = 95

    suite_name: str
    rule_count: int
    chunk_count: int
    segment_chunks: int
    plants_per_rule: int
    pad = ""
    #: Warm: one engine for the whole run, warmed by an untimed pass.
    #: Cold: a fresh engine per pass, as one ``repro scan`` invocation.
    warm = True
    tiny = {
        "rule_count": 2, "chunk_count": 40, "segment_chunks": 10,
        "plants_per_rule": 4,
    }

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.rules = suite(self.suite_name)[: self.rule_count]
        data = planted_stream(
            rng, self.rules, self.chunk_count, self.plants_per_rule, self.pad
        )
        rng.shuffle(self.rules)
        self.segments = split(data, self.segment_chunks * CHUNK_BYTES)
        expected = verdicts(self.rules, split(data, CHUNK_BYTES))
        self.expected = {
            rule: split(flags, self.segment_chunks)
            for rule, flags in expected.items()
        }
        self.megabytes = len(self.rules) * len(data) / 1e6
        self.engine = Engine()

    def warm_up(self) -> None:
        if self.warm:
            self.run_pass()

    def corrupt_oracle(self) -> None:
        flags = self.expected[self.rules[0]][0]
        flags[0] = not flags[0]

    def input_bytes(self) -> bytes:
        return repr(self.rules).encode() + b"".join(self.segments)

    def run_pass(self) -> Pass:
        engine = self.engine if self.warm else Engine()
        before = engine.cache_stats()
        wall, latencies, scans = time_operations(
            [
                partial(
                    engine.scan_corpus, rule, segment, chunk_bytes=CHUNK_BYTES, jobs=1
                )
                for rule in self.rules
                for segment in self.segments
            ]
        )
        after = engine.cache_stats()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        self.cache_hit_frac = hits / (hits + misses)
        self.results = results = [
            scan if isinstance(scan, Exception) else scan.chunk_matches
            for scan in scans
        ]
        self.latencies = latencies
        attempted = failed = matched = 0
        notes = []
        flat = iter(results)
        for rule in self.rules:
            for want in self.expected[rule]:
                got = next(flat)
                attempted += len(want)
                if got == want:
                    matched += sum(want)
                    continue
                if isinstance(got, Exception):
                    wrong = len(want)
                else:
                    wrong = sum(1 for a, b in zip(got, want) if a != b)
                    matched += sum(got)
                failed += wrong
                notes.append(f"{rule!r}: {wrong} chunk verdicts off ({got!r:.80})")
        return Pass(
            wall=wall,
            work=self.megabytes,
            latencies=latencies,
            attempted=attempted,
            failed=failed,
            exact={"engine.matched_chunks": matched},
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Traced run
    # ------------------------------------------------------------------
    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        # The reference pass has just run: its calls are the outermost layer.
        self.scan_busy = sum(self.latencies)
        values = {
            "engine.scan_corpus.busy_s": self.scan_busy,
            "engine.cache.hit_frac": self.cache_hit_frac,
        }
        if self.warm:
            # Set-up pays the cold build on this workload; time it here,
            # then warm the replay matchers as set-up warmed the engine.
            engine = Engine()
            with rec.span("engine.build_entry"):
                for rule in self.rules:
                    engine.matcher(rule)
            self.replays = [_Replay(engine, rule) for rule in self.rules]
            self._replay(Recorder(), self.replays)
        return values

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        if self.warm:
            replays = self.replays
        else:
            engine = Engine()
            with rec.span("engine.build_entry"):
                for rule in self.rules:
                    engine.matcher(rule)
            replays = [_Replay(engine, rule) for rule in self.rules]
        return self._replay(rec, replays)

    def _replay(self, rec: Recorder, replays: List[_Replay]) -> Dict[str, float]:
        leaf = rec.leaf
        checks = skips = dfa_bytes = 0
        filter_seconds = dfa_seconds = vm_seconds = 0.0
        vm_chunks = []
        results = []
        for index, replay in enumerate(replays):
            chunk_filter = replay.chunk_filter
            dfa = replay.dfa
            for segment in self.segments:
                started = clock()
                chunks = split_chunks(segment, CHUNK_BYTES)
                ended = clock()
                leaf("engine.split_chunks", started, ended)
                flags = [False] * len(chunks)
                if chunk_filter is None:
                    survivors = range(len(chunks))
                else:
                    started = clock()
                    survivors = [
                        i for i, chunk in enumerate(chunks) if chunk_filter(chunk)
                    ]
                    ended = clock()
                    leaf("prefilter.filter", started, ended)
                    filter_seconds += ended - started
                    checks += len(chunks)
                    skips += len(chunks) - len(survivors)
                for i in survivors:
                    chunk = chunks[i]
                    blown = dfa.blown
                    started = clock()
                    flags[i] = dfa.match(chunk).matched
                    ended = clock()
                    if blown:
                        leaf("vm.thompson", started, ended)
                        vm_seconds += ended - started
                        vm_chunks.append((index, chunk))
                    else:
                        leaf("prefilter.lazydfa", started, ended)
                        dfa_seconds += ended - started
                        dfa_bytes += len(chunk)
                results.append(flags)
        if results != self.results:
            raise SystemExit(
                f"{self.name}: replayed verdicts differ from the untraced run's"
            )
        self.vm_chunks = vm_chunks
        self.vm_seconds = vm_seconds
        self.replayed = replays
        return {
            "prefilter.filter.checks": checks,
            "prefilter.filter.skip_frac": skips / checks if checks else 0.0,
            "prefilter.lazydfa.mb_s": (
                dfa_bytes / dfa_seconds / 1e6 if dfa_seconds else 0.0
            ),
            "prefilter.lazydfa.states": sum(r.dfa.dfa.state_count for r in replays),
            "prefilter.lazydfa.blown_frac": (
                sum(r.dfa.blown for r in replays) / len(replays)
            ),
            "engine.overhead_frac": (
                1.0 - (filter_seconds + dfa_seconds + vm_seconds) / self.scan_busy
            ),
        }

    def trace_counts(self) -> Dict[str, float]:
        steps = frontier = 0
        vms: Dict[int, ThompsonVM] = {}
        for index, chunk in self.vm_chunks:
            vm = vms.get(index)
            if vm is None:
                vm = vms[index] = ThompsonVM(self.replayed[index].program)
            stats = vm.run_with_stats(chunk)[1]
            steps += stats.instructions_executed
            frontier = max(frontier, stats.max_frontier)
        return {
            "vm.thompson.steps": steps,
            "vm.thompson.max_frontier": frontier,
            "vm.thompson.msteps_per_s": (
                steps / self.vm_seconds / 1e6 if self.vm_seconds else 0.0
            ),
        }


class ScanDfa(Scan):
    name = "scan_dfa"
    suite_name = "protomata"
    rule_count = 16
    chunk_count = 2048
    segment_chunks = 256
    plants_per_rule = 21  # ~1 % of chunks per rule

    def finish(self, layers):
        blown = layers["prefilter.lazydfa.blown_frac"]
        return [f"{verdict(blown == 0)} prefilter.lazydfa.blown_frac = {blown:.4g} (want 0)"]


class ScanSparse(Scan):
    name = "scan_sparse"
    suite_name = "brill"
    rule_count = 16
    chunk_count = 16384
    segment_chunks = 2048
    plants_per_rule = 164  # ~1 % of chunks per rule
    pad = " "

    def finish(self, layers):
        skip = layers["prefilter.filter.skip_frac"]
        matched = sum(sum(flags) for flags in self.results) / sum(
            len(flags) for flags in self.results
        )
        return [
            f"{verdict(skip >= 0.9)} prefilter.filter.skip_frac = {skip:.4f} (want >= 0.9)",
            f"{verdict(0.005 <= matched <= 0.02)} matched chunks = {matched:.4f} "
            "(want 0.005-0.02)",
        ]


class ScanEnum(Scan):
    name = "scan_enum"
    suite_name = "protomata4"
    rule_count = 6
    chunk_count = 100
    segment_chunks = 10
    plants_per_rule = 15
    warm = False

    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        values = super().trace_setup(rec)
        # Informational: the supervised pool on the same chunks.  The
        # harness is single-threaded here, so ``fork`` is safe and
        # leaves no helper process (forkserver, resource tracker) behind.
        rules = self.rules[:2]
        data = b"".join(self.segments)
        seconds = {}
        retries = 0
        for jobs in (1, 2):
            engine = Engine(mp_context="fork")
            started = clock()
            for rule in rules:
                report = engine.scan_corpus(
                    rule, data, chunk_bytes=CHUNK_BYTES, jobs=jobs, strict=False
                )
                retries += report.retries
            seconds[jobs] = clock() - started
        values["engine.supervisor.jobs2.busy_s"] = seconds[2]
        values["engine.supervisor.jobs2.speedup"] = seconds[1] / seconds[2]
        values["engine.supervisor.retries"] = retries
        return values

    def finish(self, layers):
        blown = layers["prefilter.lazydfa.blown_frac"]
        matchers = (
            layers.get("vm.thompson.busy_s", 0.0) + layers["prefilter.lazydfa.busy_s"]
        ) / layers["trace.wall_s"]
        return [
            f"{verdict(blown > 0)} prefilter.lazydfa.blown_frac = {blown:.4g} (want > 0)",
            f"{verdict(matchers >= 0.8)} vm + lazydfa busy = {matchers:.3f} of traced "
            "wall (want >= 0.8)",
        ]
