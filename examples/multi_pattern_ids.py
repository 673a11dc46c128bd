#!/usr/bin/env python3
"""Multi-matching with RE identification (the paper's §8 future work).

An intrusion-detection-style scenario: a whole rule set compiled into
ONE identifier-tagged Cicero program.  Each scanned chunk reports
*which* rules fired — the extension the paper proposes so "the
execution engine could return the RE identifiers when a match occurs,
increasing the analysis information".

Run:  python examples/multi_pattern_ids.py
"""

from repro.arch import ArchConfig, CiceroSystem
from repro.compiler import compile_regex
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.prefilter import PrefilteredMultiMatchVM

RULES = {
    "sql-injection": "(UNION|union) (SELECT|select)",
    "path-traversal": r"\.\./\.\./",
    "php-probe": r"/[a-z]{1,10}\.php\?",
    "suspicious-agent": "(sqlmap|nikto|curl)",
    "admin-access": "/admin",
}

EVENTS = [
    "GET /index.html HTTP/1.1 Host: shop.example",
    "GET /admin/login.php?next=/ HTTP/1.1",
    "GET /../../etc/passwd User-Agent: curl/8",
    "POST /search?q=1 UNION SELECT card FROM users",
    "GET /static/logo.png HTTP/1.1",
]


def main() -> None:
    names = list(RULES)
    combined = compile_multipattern(list(RULES.values()))
    print(f"{len(RULES)} rules -> one program of {len(combined)} instructions")
    print(f"identifier table: "
          f"{ {match_id: names[match_id - 1] for match_id in combined.ids} }\n")

    system = CiceroSystem(combined.program, ArchConfig.new(16))
    total_combined = 0
    for event in EVENTS:
        run = system.run(event, collect_matches=True)
        total_combined += run.cycles
        fired = [names[match_id - 1] for match_id in sorted(run.matched_ids)]
        verdict = ", ".join(fired) if fired else "clean"
        print(f"  [{verdict:45s}] {event[:48]}")

    # The baseline without the extension: one scan per rule.
    singles = [
        CiceroSystem(compile_regex(pattern).program, ArchConfig.new(16))
        for pattern in RULES.values()
    ]
    total_separate = sum(
        single.run(event).cycles for single in singles for event in EVENTS
    )
    print(f"\ncombined multi-match scan : {total_combined:6d} cycles")
    print(f"separate per-rule scans   : {total_separate:6d} cycles "
          f"({total_separate / total_combined:.2f}x more)")

    # The software engine prunes rule candidates first: each rule's own
    # chunk filter (required literal, anchored prefix or first-byte set,
    # from its compile-time analysis) runs over the event, so most
    # events enumerate only the rules whose filter passed (or skip the
    # VM outright when none does).
    filtered = PrefilteredMultiMatchVM(combined)
    bare = MultiMatchVM(combined)
    print(f"\nchunk filters prune {len(filtered.filtered_ids)} of "
          f"{len(RULES)} rules (the rest are inert)")
    for event in EVENTS:
        result = filtered.run(event)
        assert result.matched_ids == bare.run(event).matched_ids
        fired = [names[match_id - 1] for match_id in sorted(result.matched_ids)]
        verdict = ", ".join(fired) if fired else "clean"
        print(f"  [{verdict:45s}] {event[:48]}")


if __name__ == "__main__":
    main()
