"""One matcher behind the engine, checked against Python's ``re``, the
Thompson VM and the cycle-level simulator."""

import random
import re
import zlib

import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import CiceroSimulator
from repro.compiler import CompileOptions, compile_regex
from repro.engine import Engine
from repro.prefilter.scanner import PrefilteredMatcher
from repro.vm import run_program


class TestFacade:
    def test_all_backends_constructible(self):
        matcher = Engine().matcher("ab|cd")
        assert isinstance(matcher, PrefilteredMatcher)
        assert matcher.vm.program.source_pattern == "ab|cd"

    def test_basic_verdicts(self):
        engine = Engine()
        assert engine.match("th(is|at)", "say that")
        assert not engine.match("th(is|at)", "nothing")

    def test_options_respected(self):
        # With all optimizations off the engine still matches.
        engine = Engine(options=CompileOptions.none())
        assert engine.match("a{2,3}b", "xaab")


class TestCrossBackendAgreement:
    def test_corpus_agreement(self, corpus_pattern):
        engine = Engine()
        gold = re.compile(corpus_pattern)
        program = compile_regex(corpus_pattern).program
        rng = random.Random(zlib.crc32(corpus_pattern.encode()))
        for _ in range(25):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 16))
            )
            verdicts = {
                engine.match(corpus_pattern, text),
                bool(gold.search(text)),
                bool(run_program(program, text)),
            }
            assert len(verdicts) == 1, (corpus_pattern, text)

    def test_simulator_backend_agrees(self):
        pattern = "a[bc]{1,2}d"
        engine = Engine()
        program = engine.matcher(pattern).vm.program
        simulator = CiceroSimulator(ArchConfig.new(16))
        rng = random.Random(5)
        for _ in range(10):
            text = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            assert engine.match(pattern, text) == (
                simulator.run(program, text).matched
            ), text


class TestSharedFrontHalf:
    """The engine parses a pattern once, on its cache miss."""

    def test_multi_backend_from_one_parse(self, monkeypatch):
        import repro.compiler as compiler_module

        calls = []
        original = compiler_module.parse_regex

        def counting_parse(pattern, **kwargs):
            calls.append(pattern)
            return original(pattern, **kwargs)

        monkeypatch.setattr(compiler_module, "parse_regex", counting_parse)
        engine = Engine()
        assert engine.match("th(is|at)", "say that")
        assert not engine.match("th(is|at)", "nope")
        assert engine.scan_corpus("th(is|at)", "xx that" * 100).matched
        assert calls == ["th(is|at)"]  # exactly one frontend pass


class TestBytesConsistency:
    """The engine accepts bytes-likes and rejects non-latin-1 text with
    the typed InputEncodingError."""

    def test_bytes_accepted_everywhere(self):
        engine = Engine()
        assert engine.match("th(is|at)", b"say that")
        assert not engine.match("th(is|at)", b"nothing")
        assert engine.match("th(is|at)", bytearray(b"say this"))
        assert engine.match("th(is|at)", memoryview(b"say this"))

    def test_str_and_bytes_agree(self):
        engine = Engine()
        for text in ("abcd", "xx", "", "acbd!"):
            assert engine.match("a[bc]+d", text) == engine.match(
                "a[bc]+d", text.encode("latin-1")
            ), text

    def test_non_latin1_raises_typed_error(self):
        from repro.runtime.errors import InputEncodingError

        with pytest.raises(InputEncodingError):
            Engine().match("ab", "caf€")  # € is outside latin-1
