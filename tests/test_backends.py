"""The multi-back-end facade: every engine, one language."""

import random

import pytest

from repro.automata.dfa import determinize, minimize
from repro.automata.nfa import nfa_from_regex_module
from repro.backends import BACKENDS, compile_with_backend
from repro.arch.config import ArchConfig
from repro.compiler import CompileOptions, NewCompiler


def automata_oracles(pattern, max_dfa_states=50_000):
    """The CPU-baseline NFA and minimized DFA over ``pattern``'s front half."""
    nfa = nfa_from_regex_module(NewCompiler().front(pattern).regex_module)
    return nfa, minimize(determinize(nfa, max_states=max_dfa_states))


class TestFacade:
    def test_all_backends_constructible(self):
        for backend in BACKENDS:
            matcher = compile_with_backend("ab|cd", backend)
            assert matcher.backend_name == backend

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            compile_with_backend("ab", "hyperscan")

    def test_basic_verdicts(self):
        for backend in BACKENDS:
            matcher = compile_with_backend("th(is|at)", backend)
            assert matcher.matches("say that")
            assert not matcher.matches("nothing")

    def test_sim_backend_exposes_timing(self):
        matcher = compile_with_backend(
            "ab", "cicero-sim", config=ArchConfig.new(8)
        )
        result = matcher.run("zzab")
        assert result.matched and result.cycles > 0

    def test_options_respected(self):
        # With all optimizations off the backends still agree.
        for backend in BACKENDS:
            matcher = compile_with_backend(
                "a{2,3}b", backend, options=CompileOptions.none()
            )
            assert matcher.matches("xaab")

    def test_dfa_budget(self):
        from repro.automata import DFASizeLimitExceeded

        with pytest.raises(DFASizeLimitExceeded):
            automata_oracles("a.{12}b", max_dfa_states=100)


class TestCrossBackendAgreement:
    def test_corpus_agreement(self, corpus_pattern):
        matchers = [
            compile_with_backend(corpus_pattern, "cicero"),
            *automata_oracles(corpus_pattern),
        ]
        rng = random.Random(hash(corpus_pattern) & 0xFFFF)
        for _ in range(25):
            text = "".join(
                rng.choice("abcdefghLIVMDER qux.") for _ in range(rng.randint(0, 16))
            )
            verdicts = {matcher.matches(text) for matcher in matchers}
            assert len(verdicts) == 1, (corpus_pattern, text)

    def test_simulator_backend_agrees(self):
        pattern = "a[bc]{1,2}d"
        reference = compile_with_backend(pattern, "cicero")
        simulated = compile_with_backend(pattern, "cicero-sim")
        rng = random.Random(5)
        for _ in range(10):
            text = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            assert reference.matches(text) == simulated.matches(text), text


class TestSharedFrontHalf:
    """compile_backends parses/optimizes once and fans out (ISSUE 3)."""

    def test_multi_backend_from_one_parse(self, monkeypatch):
        import repro.backends as backends_module
        import repro.compiler as compiler_module

        calls = []
        original = compiler_module.parse_regex

        def counting_parse(pattern, **kwargs):
            calls.append(pattern)
            return original(pattern, **kwargs)

        # The front half lives in repro.compiler since ISSUE 23.
        monkeypatch.setattr(compiler_module, "parse_regex", counting_parse)
        matchers = backends_module.compile_backends(
            "th(is|at)", ["cicero", "cicero-sim"]
        )
        assert calls == ["th(is|at)"]  # exactly one frontend pass
        assert set(matchers) == {"cicero", "cicero-sim"}
        for backend, matcher in matchers.items():
            assert matcher.matches("say that"), backend
            assert not matcher.matches("nope"), backend

    def test_cicero_flavours_share_one_program(self):
        from repro.backends import compile_backends

        matchers = compile_backends("a(b|c)+d", ["cicero", "cicero-sim"])
        assert matchers["cicero"].vm.program is matchers["cicero-sim"].system.program

    def test_unknown_backend_in_batch(self):
        from repro.backends import compile_backends

        with pytest.raises(ValueError, match="unknown backend"):
            compile_backends("ab", ["cicero", "hyperscan"])


class TestBytesConsistency:
    """Every backend accepts bytes and rejects non-latin-1 text with the
    typed InputEncodingError (ISSUE 3 satellite)."""

    def test_bytes_accepted_everywhere(self):
        for backend in BACKENDS:
            matcher = compile_with_backend("th(is|at)", backend)
            assert matcher.matches(b"say that"), backend
            assert not matcher.matches(b"nothing"), backend
            assert matcher.matches(bytearray(b"say this")), backend
            assert matcher.matches(memoryview(b"say this")), backend

    def test_str_and_bytes_agree(self):
        for backend in BACKENDS:
            matcher = compile_with_backend("a[bc]+d", backend)
            for text in ("abcd", "xx", "", "acbd!"):
                assert matcher.matches(text) == matcher.matches(
                    text.encode("latin-1")
                ), (backend, text)

    def test_non_latin1_raises_typed_error(self):
        from repro.runtime.errors import InputEncodingError

        for backend in BACKENDS:
            matcher = compile_with_backend("ab", backend)
            with pytest.raises(InputEncodingError):
                matcher.matches("caf€")  # € is outside latin-1
