"""Scan one suite's first rules over a generated stream through
``Engine.scan_corpus`` and check every chunk verdict against
``re.search``.

The alternated protomata4 rules are the ones whose lazy DFA blows its
state budget and splits into one DFA per branch, so this is the
end-to-end check of that path (and brill4, whose rules never blow, the
control).  Prints the wall time of the scans; exits 1 when a verdict
differs from ``re.search``::

    python benchmarks/scan_split.py --suite protomata4

``--summary FILE`` appends the result as a Markdown table row (CI passes
``$GITHUB_STEP_SUMMARY``).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import Engine  # noqa: E402
from repro.workloads import brill, protomata, sample_and_alternate  # noqa: E402

CHUNK_BYTES = 500
RULES = 12
KBYTES = 400
SEED = 2025


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=("protomata4", "brill4"), default="protomata4")
    parser.add_argument("--summary", help="append a Markdown row to this file")
    args = parser.parse_args(argv)

    generator = protomata if args.suite == "protomata4" else brill
    pool = generator.generate_patterns(4 * 200, SEED)
    rules = sample_and_alternate(pool, 200, seed=SEED)[:RULES]
    data = generator.generate_input(rules, KBYTES * 1000, seed=SEED)
    data = data.encode("latin-1")[: KBYTES * 1000]
    chunks = [data[i:i + CHUNK_BYTES] for i in range(0, len(data), CHUNK_BYTES)]

    engine = Engine()
    wrong = 0
    blown = split = kernel = 0
    seconds = 0.0
    for rule in rules:
        started = time.perf_counter()
        report = engine.scan_corpus(rule, data, chunk_bytes=CHUNK_BYTES, jobs=1)
        seconds += time.perf_counter() - started
        search = re.compile(rule.encode("latin-1"), re.DOTALL).search
        expected = [search(chunk) is not None for chunk in chunks]
        if report.chunk_matches != expected:
            wrong += sum(a != b for a, b in zip(report.chunk_matches, expected))
            print(f"verdicts differ from re.search: {rule!r}", file=sys.stderr)
        matcher = engine.matcher(rule).dfa_matcher
        blown += matcher.blown
        split += matcher.split is not None
        kernel += matcher.on_kernel
    line = (
        f"{args.suite}: {len(rules)} rules x {len(data) // 1000} KB in "
        f"{seconds:.2f} s; {blown} lazy DFAs blew, {split} of them split, "
        f"{kernel} reached the kernel; {wrong} chunk verdicts differ from "
        f"re.search"
    )
    print(line)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as summary:
            summary.write(
                f"| `{args.suite}` {len(rules)} rules × {len(data) // 1000} KB "
                f"| {seconds:.2f} s | {blown} blown, {split} split, "
                f"{kernel} on the kernel "
                f"| {wrong} wrong verdicts |\n"
            )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
