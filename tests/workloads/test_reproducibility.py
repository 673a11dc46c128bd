"""Bit-reproducibility of every randomized generator (fuzz satellite).

Two guarantees:

* behavioural — the workload generators, the match sampler and the fuzz
  case generators produce identical output for identical seeds;
* structural — no module under ``src/repro`` calls the *global*
  ``random`` functions (seeded ``random.Random`` instances only), so no
  future change can silently break the first guarantee.
"""

import os
import random
import re

from repro.workloads.brill import generate_patterns as brill_patterns
from repro.workloads.protomata import (
    generate_input,
    generate_patterns,
)
from repro.workloads.sampler import sample_match_for
from repro.workloads.suite import load_benchmark

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)

#: Global-random calls that would break seed-reproducibility.  Bound
#: methods on an explicit ``random.Random`` instance (``rng.choice``)
#: do not match — only the module-level functions do.
_GLOBAL_RANDOM = re.compile(
    r"\brandom\.(?:choice|choices|randint|random|randrange|sample|"
    r"shuffle|uniform|getrandbits|seed)\("
)


def test_no_global_random_use_in_src():
    offenders = []
    for root, _dirs, files in os.walk(SRC_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                for line_number, line in enumerate(handle, 1):
                    if _GLOBAL_RANDOM.search(line):
                        offenders.append(f"{path}:{line_number}: {line.strip()}")
    assert not offenders, (
        "unseeded global random use breaks bit-reproducibility:\n"
        + "\n".join(offenders)
    )


def test_sampler_is_bit_reproducible():
    first = [
        sample_match_for("th(is|at|ose)x{1,3}", random.Random(7))
        for _ in range(5)
    ]
    second = [
        sample_match_for("th(is|at|ose)x{1,3}", random.Random(7))
        for _ in range(5)
    ]
    assert first == second


def test_workload_generators_are_bit_reproducible():
    assert generate_patterns(6, seed=41) == generate_patterns(6, seed=41)
    assert brill_patterns(6, seed=41) == brill_patterns(6, seed=41)
    assert generate_patterns(6, seed=41) != generate_patterns(6, seed=42)
    patterns = generate_patterns(4, seed=9)
    assert generate_input(patterns, length=256, seed=9) == generate_input(
        patterns, length=256, seed=9
    )


def test_benchmark_suite_is_bit_reproducible():
    first = load_benchmark("protomata", num_res=4, num_chunks=1, seed=3)
    second = load_benchmark("protomata", num_res=4, num_chunks=1, seed=3)
    assert first.patterns == second.patterns
    assert first.chunks == second.chunks


def test_fuzz_generators_are_bit_reproducible():
    from repro.fuzz import ModuleGenerator, RegexGenerator, module_text

    first, second = RegexGenerator(13), RegexGenerator(13)
    assert [first.generate().text for _ in range(3)] == [
        second.generate().text for _ in range(3)
    ]
    assert module_text(ModuleGenerator(13).generate()) == module_text(
        ModuleGenerator(13).generate()
    )
