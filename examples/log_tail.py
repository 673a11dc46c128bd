#!/usr/bin/env python3
"""Streaming matches on a growing log, two ways.

A log follower never has the whole input: lines arrive in arbitrary
chunks (half a line now, three lines later) and the file never ends.
This is exactly the contract of :class:`repro.vm.StreamingMatcher` —
feed whatever bytes you have, get the one-shot verdict the moment it
is decidable — and of the match service's ``/stream`` endpoint, which
streams through the same pattern matcher behind HTTP (see
``docs/service.md``).

The demo:

1. writes a synthetic application log and "tails" it in ragged chunks
   through ``StreamingMatcher`` over the pattern's
   :class:`repro.prefilter.LazyDFAMatcher`, reporting the first
   ``ERROR`` with a deadline-exceeded cause the moment its final byte
   arrives;
2. does the same for several patterns at once with
   :class:`repro.vm.StreamingMultiMatcher`;
3. if a match service is running (``repro serve``), streams the same
   log to ``POST /stream`` and prints the verdict JSON.

Run:  python examples/log_tail.py
      repro serve &  python examples/log_tail.py   # adds the HTTP leg
"""

import itertools
import json
import urllib.error
import urllib.request

from repro import compile_pattern
from repro.multimatch import compile_multipattern
from repro.prefilter import LazyDFAMatcher
from repro.vm import StreamingMatcher, StreamingMultiMatcher

PATTERN = r"ERROR .* cause=deadline_exceeded"

LOG_LINES = [
    "INFO  request id=1 path=/healthz status=200",
    "INFO  request id=2 path=/match status=200",
    "WARN  request id=3 path=/scan retry=1",
    "INFO  request id=4 path=/match status=200",
    "ERROR request id=5 path=/scan status=504 cause=deadline_exceeded",
    "INFO  request id=6 path=/match status=200",
]


def ragged_chunks(data: bytes, sizes=(7, 1, 23, 5, 64)):
    """Cut ``data`` the way a pipe delivers it: uneven, never aligned."""
    cycle = itertools.cycle(sizes)
    index = 0
    while index < len(data):
        step = next(cycle)
        yield data[index:index + step]
        index += step


def main() -> None:
    log = ("\n".join(LOG_LINES) + "\n").encode()

    # ------------------------------------------------------------------
    # 1. Single pattern: settle mid-stream, stop reading
    # ------------------------------------------------------------------
    print(f"pattern: {PATTERN!r}")
    program = compile_pattern(PATTERN).program
    matcher = StreamingMatcher(LazyDFAMatcher(program))
    fed = 0
    verdict = None
    for chunk in ragged_chunks(log):
        fed += len(chunk)
        verdict = matcher.feed(chunk)
        if verdict is not None:
            break
    if verdict is None:
        verdict = matcher.finish()
    print(f"matched={verdict.matched} after {fed}/{len(log)} bytes "
          f"(settled {'mid-stream' if fed < len(log) else 'at EOF'}, "
          f"dfa={'on' if matcher.accelerated else 'off'})")

    # ------------------------------------------------------------------
    # 2. Several alert rules over one pass of the stream
    # ------------------------------------------------------------------
    rules = [r"ERROR .* status=5[0-9][0-9]", r"WARN .* retry=[1-9]",
             r"FATAL"]
    multi = compile_multipattern(rules)
    tracker = StreamingMultiMatcher(multi)
    result = None
    for chunk in ragged_chunks(log, sizes=(11, 2, 37)):
        result = tracker.feed(chunk)
        if result is not None:
            break
    if result is None:
        result = tracker.finish()
    for rule_id in sorted(result.matched_ids):
        print(f"rule fired: {rules[rule_id - 1]!r}")

    # ------------------------------------------------------------------
    # 3. The same bytes through a running match service
    # ------------------------------------------------------------------
    request = urllib.request.Request(
        "http://127.0.0.1:8765/stream",
        data=log,
        headers={"X-Repro-Pattern": PATTERN},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            print("service verdict:",
                  json.dumps(json.loads(response.read()), sort_keys=True))
    except (urllib.error.URLError, OSError):
        print("(no service on :8765 — start one with `repro serve` "
              "to exercise the HTTP leg)")


if __name__ == "__main__":
    main()
