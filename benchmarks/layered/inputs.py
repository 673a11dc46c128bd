"""Seeded inputs and the independent oracle of the layered benchmark.

The four RE suites are fixed artefacts, as in the paper (200 REs per
benchmark, the ×4 suites alternating 4 of 800 sampled REs): they are
generated once from :data:`SUITE_SEED` and every workload takes the
*first* N of a suite.  ``--seed`` draws everything else — corpus bytes,
plant positions, record contents, compile order, the request schedule.

Why the rule sets do not move with ``--seed``: per-rule cost is
heavy-tailed (``scan_enum`` spends 0.03–1.4 s per rule, compile time
is bimodal between the ×1 and ×4 suites).  Drawing 12–16 rules per seed
moved a workload's total by ±25 % between seeds and ``compile_suite``'s
median latency by 9 % before any machine noise, which would force
bounds wider than the effects the workloads exist to expose.

Expected verdicts come from the standard library's :mod:`re` applied to
the raw pattern text — never from ``repro``'s own compilers or VMs.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Sequence

from repro.workloads import brill, protomata, sample_and_alternate, sample_match_for

SUITE_SEED = 2025
SUITE_SIZE = 200
CHUNK_BYTES = 500

_RESIDUE_TABLE = bytes(
    ord(protomata.AMINO_ACIDS[value % len(protomata.AMINO_ACIDS)])
    for value in range(256)
)


def suite(name: str) -> List[str]:
    """The fixed 200-RE suite ``name`` (paper §6 construction)."""
    generator = protomata if name.startswith("protomata") else brill
    if name in ("protomata", "brill"):
        return generator.generate_patterns(SUITE_SIZE, SUITE_SEED)
    if name in ("protomata4", "brill4"):
        sampled = generator.generate_patterns(4 * SUITE_SIZE, SUITE_SEED)
        return sample_and_alternate(sampled, SUITE_SIZE, seed=SUITE_SEED)
    raise ValueError(f"unknown suite {name!r}")


def residue_bytes(rng: random.Random, length: int) -> bytearray:
    """``length`` random residue letters (no spaces, no lower case: shares
    no literal with any brill rule)."""
    return bytearray(rng.randbytes(length).translate(_RESIDUE_TABLE))


def plant(
    data: bytearray,
    chunk_index: int,
    text: str,
    rng: random.Random,
    chunk_bytes: int = CHUNK_BYTES,
) -> None:
    """Overwrite part of one chunk with ``text``, clear of its edges so a
    planted match never straddles a chunk boundary."""
    payload = text.encode("latin-1")[: chunk_bytes]
    offset = chunk_index * chunk_bytes + rng.randrange(
        chunk_bytes - len(payload) + 1
    )
    data[offset : offset + len(payload)] = payload


def planted_stream(
    rng: random.Random,
    rules: Sequence[str],
    chunks: int,
    plants_per_rule: int,
    pad: str = "",
) -> bytes:
    """A residue stream of ``chunks`` × 500 B in which every rule has a
    sampled member of its language planted in ``plants_per_rule`` chunks."""
    data = residue_bytes(rng, chunks * CHUNK_BYTES)
    for rule in rules:
        for chunk_index in rng.sample(range(chunks), plants_per_rule):
            plant(data, chunk_index, pad + sample_match_for(rule, rng) + pad, rng)
    return bytes(data)


def split(data: bytes, size: int) -> List[bytes]:
    return [data[start : start + size] for start in range(0, len(data), size)]


def oracle(pattern: str):
    """``bytes -> bool`` by ``re.search`` on the raw pattern text."""
    search = re.compile(pattern.encode("latin-1"), re.DOTALL).search
    return lambda data: search(data) is not None


def verdicts(rules: Sequence[str], chunks: Sequence[bytes]) -> Dict[str, List[bool]]:
    """Expected per-chunk verdict of every rule."""
    expected = {}
    for rule in rules:
        matches = oracle(rule)
        expected[rule] = [matches(chunk) for chunk in chunks]
    return expected
