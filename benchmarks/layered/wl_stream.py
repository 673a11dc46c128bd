"""``stream_multi``: all rules at once over records fed in pieces.

16 brill rules compile into one tagged program; every 500-byte record
goes to a fresh ``StreamingMultiMatcher(mp, vm=shared)`` in 64-byte
pieces and then ``finish()`` — the ``examples/log_tail.py`` contract.
"""

from __future__ import annotations

from typing import Dict, List

from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.vm.streaming import StreamingMultiMatcher
from repro.workloads import brill

from functools import partial

from harness import Pass, Recorder, clock, time_operations
from inputs import CHUNK_BYTES, oracle, split, suite
from workload import Workload

PIECE_BYTES = 64


class StreamMulti(Workload):
    name = "stream_multi"
    work_unit = "MB"
    op = "record (8 feeds + finish)"
    rate_alias = "scan_mb_s"
    tail_pct = 95

    rule_count = 16
    record_count = 80
    tiny = {"rule_count": 3, "record_count": 6}

    def setup(self) -> None:
        self.rules = suite("brill")[: self.rule_count]
        text = brill.generate_input(
            self.rules, self.record_count * CHUNK_BYTES, seed=self.seed
        )
        self.records = split(text.encode("latin-1"), CHUNK_BYTES)
        matchers = [oracle(rule) for rule in self.rules]
        self.expected = [
            frozenset(
                index + 1
                for index, matches in enumerate(matchers)
                if matches(record)
            )
            for record in self.records
        ]
        self.megabytes = len(self.rules) * len(text) / 1e6
        self.multi = compile_multipattern(self.rules)
        self.vm = MultiMatchVM(self.multi)

    def corrupt_oracle(self) -> None:
        self.expected[0] = self.expected[0] ^ {1}

    def input_bytes(self) -> bytes:
        return b"".join(self.records)

    def _stream(self, record: bytes):
        matcher = StreamingMultiMatcher(self.multi, vm=self.vm)
        for start in range(0, len(record), PIECE_BYTES):
            matcher.feed(record[start : start + PIECE_BYTES])
        return matcher.finish().matched_ids

    def run_pass(self) -> Pass:
        wall, latencies, results = time_operations(
            [partial(self._stream, record) for record in self.records]
        )
        self.results = results
        wrong = [
            index
            for index, (got, want) in enumerate(zip(results, self.expected))
            if got != want
        ]
        return Pass(
            wall=wall,
            work=self.megabytes,
            latencies=latencies,
            attempted=len(results),
            failed=len(wrong),
            exact={
                "multimatch.matched_ids": sum(
                    len(ids) for ids in results if isinstance(ids, frozenset)
                )
            },
            notes=[
                f"record {index}: got {results[index]!r:.60}, "
                f"want {sorted(self.expected[index])}"
                for index in wrong[:3]
            ],
        )

    def trace_setup(self, rec: Recorder) -> Dict[str, float]:
        started = clock()
        multi = compile_multipattern(self.rules)
        rec.leaf("multimatch.compile", started, clock())
        # The price of resumable state: the same records, one-shot.
        run = self.vm.run
        with rec.span("multimatch.vm.oneshot"):
            oneshot = [run(record).matched_ids for record in self.records]
        if oneshot != self.results:
            raise SystemExit("stream_multi: one-shot verdicts differ from streaming")
        return {"multimatch.code_size": len(multi.program)}

    def trace_pass(self, rec: Recorder) -> Dict[str, float]:
        leaf = rec.leaf
        feeds = 0
        results = []
        for record in self.records:
            with rec.span("vm.streaming"):
                matcher = StreamingMultiMatcher(self.multi, vm=self.vm)
                for start in range(0, len(record), PIECE_BYTES):
                    piece = record[start : start + PIECE_BYTES]
                    started = clock()
                    matcher.feed(piece)
                    leaf("vm.streaming.feed", started, clock())
                    feeds += 1
                results.append(matcher.finish().matched_ids)
        if results != self.results:
            raise SystemExit("stream_multi: traced verdicts differ from untraced")
        return {"vm.streaming.feeds": feeds}

    def finish(self, layers: Dict[str, float]) -> List[str]:
        streaming = layers["vm.streaming.busy_s"] + layers["vm.streaming.feed.busy_s"]
        layers["vm.streaming.over_oneshot_frac"] = (
            streaming / layers["multimatch.vm.oneshot.busy_s"] - 1.0
        )
        return []
