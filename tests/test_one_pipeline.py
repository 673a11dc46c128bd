"""One compile pipeline: every entry point emits ``NewCompiler``'s program.

The Engine (what ``repro scan``, ``repro serve`` and ``scan_enum`` run)
and ``NewCompiler.compile`` (what ``compile_suite`` measures) go
through the same two halves, so their programs agree on
every field; and the halves emit what the compiler emitted before it was
cut in two — the digests below were recorded from ``NewCompiler`` at the
commit before ISSUE 23 over the ``compile_suite`` workload's 160 REs.
"""

import hashlib

import pytest

from repro.api import compile_pattern
from repro.compiler import COMPILER_NAME, CompileOptions, NewCompiler
from repro.engine import Engine
from repro.workloads import brill, protomata, sample_and_alternate

PER_SUITE = 40

#: sha256 over instructions + analysis + source_map of the 160 programs.
#: (``no-simplify-subregex`` equals ``default``: the four suites contain
#: no removable sub-regex, as in the paper's benchmarks.)
GOLDEN = {
    "default": "c468b3ca2cee69cf7951c1173525580dd690aa6eda71bc701f8417c30056b6a9",
    "none": "bf451e48cb01acabe7267623607adc693f289cbef007b33e5ed34962ab260089",
    "no-simplify-subregex": "c468b3ca2cee69cf7951c1173525580dd690aa6eda71bc701f8417c30056b6a9",
    "no-factorize-alternations": "b27cbfd6571f229bf53bd09107eabce8952a7437bc9168ebb0c1120b10ee86a3",
    "no-boundary-quantifier": "eea65a20ae2338e18eec6aeb3331f327114c562aefcc7ba873ffccddef2d420a",
    "no-jump-simplification": "3eaf1eb75bd20102ceca26a17ffb5a587682c6fae2172dd655062aa5983316e4",
    "no-dead-code-elimination": "6bd436ae3935863349d4af1d46dbf43dcf29b04e03ac5fce8f9d1cf9be32d636",
}
OPTION_SETS = {
    "default": CompileOptions(),
    "none": CompileOptions(regex_pipeline=(), cicero_pipeline=()),
    "no-simplify-subregex": CompileOptions(
        regex_pipeline=("regex-factorize-alternations", "regex-boundary-quantifier"),
    ),
    "no-factorize-alternations": CompileOptions(
        regex_pipeline=("regex-simplify-subregex", "regex-boundary-quantifier"),
    ),
    "no-boundary-quantifier": CompileOptions(
        regex_pipeline=("regex-simplify-subregex", "regex-factorize-alternations"),
    ),
    "no-jump-simplification": CompileOptions(cicero_pipeline=("cicero-dce",)),
    "no-dead-code-elimination": CompileOptions(
        cicero_pipeline=("cicero-jump-simplification",),
    ),
}


def suite(name: str):
    """``benchmarks/layered/inputs.py::suite`` (fixed seed 2025)."""
    generator = protomata if name.startswith("protomata") else brill
    if not name.endswith("4"):
        return generator.generate_patterns(200, 2025)
    return sample_and_alternate(
        generator.generate_patterns(800, 2025), 200, seed=2025
    )


@pytest.fixture(scope="module")
def patterns():
    return [
        pattern
        for name in ("protomata", "brill", "protomata4", "brill4")
        for pattern in suite(name)[:PER_SUITE]
    ]


def fingerprint(program) -> str:
    return repr(
        (
            [(int(i.opcode), i.operand) for i in program.instructions],
            program.analysis,
            program.source_map,
        )
    )


@pytest.mark.parametrize("name", sorted(OPTION_SETS))
def test_backends_and_compiler_emit_the_recorded_programs(name, patterns):
    options = OPTION_SETS[name]
    assert len(patterns) == 160
    digest = hashlib.sha256()
    engine = Engine(options=options, cache_size=len(patterns))
    for pattern in patterns:
        direct = NewCompiler(options).compile(pattern).program
        served = engine.matcher(pattern).vm.program
        assert fingerprint(served) == fingerprint(direct), pattern
        assert served.compiler == direct.compiler == COMPILER_NAME
        digest.update(fingerprint(direct).encode())
    assert digest.hexdigest() == GOLDEN[name]


def test_optimize_auto_is_a_spelling_of_true(patterns):
    """``benchmarks/layered`` still passes ``optimize="auto"``; while the
    alias exists it means the default pipeline and nothing else."""
    for pattern in patterns:
        auto = compile_pattern(pattern, optimize="auto")
        default = compile_pattern(pattern)
        assert fingerprint(auto.program) == fingerprint(default.program), pattern
        assert auto.options.regex_pipeline is None
        assert auto.options.cicero_pipeline is None
        assert auto.dropped_passes == []
