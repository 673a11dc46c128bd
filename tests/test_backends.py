"""One matcher behind the engine, checked against the CPU-baseline
automata and the cycle-level simulator."""

import random

import pytest

from repro.arch.config import ArchConfig
from repro.arch.simulator import CiceroSimulator
from repro.automata.dfa import determinize, minimize
from repro.automata.nfa import nfa_from_regex_module
from repro.compiler import CompileOptions, NewCompiler
from repro.engine import Engine
from repro.prefilter.scanner import PrefilteredMatcher


def automata_oracles(pattern, max_dfa_states=50_000):
    """The CPU-baseline NFA and minimized DFA over ``pattern``'s front half."""
    nfa = nfa_from_regex_module(NewCompiler().front(pattern).regex_module)
    return nfa, minimize(determinize(nfa, max_states=max_dfa_states))


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

    def test_dfa_budget(self):
        from repro.automata import DFASizeLimitExceeded

        with pytest.raises(DFASizeLimitExceeded):
            automata_oracles("a.{12}b", max_dfa_states=100)


class TestCrossBackendAgreement:
    def test_corpus_agreement(self, corpus_pattern):
        engine = Engine()
        oracles = automata_oracles(corpus_pattern)
        rng = random.Random(hash(corpus_pattern) & 0xFFFF)
        for _ in range(25):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 16))
            )
            verdicts = {engine.match(corpus_pattern, text)}
            verdicts.update(oracle.matches(text) for oracle in oracles)
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
