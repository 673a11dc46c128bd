"""Property: streaming over arbitrary chunk splits ≡ one-shot (ISSUE 9).

The contract behind the match service's ``/stream`` endpoint: for any
pattern, input, and way of cutting that input into chunks (including
1-byte chunks and empty chunks), feeding the pieces through
:class:`StreamingMatcher` — with or without lazy-DFA acceleration, and
with a DFA budget small enough to force mid-stream fallback — produces
exactly the verdict of ``ThompsonVM.run_reference`` over the joined
input.  Same for :class:`StreamingMultiMatcher` against the
multi-match reference interpreter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_regex
from repro.multimatch import MultiMatchVM, compile_multipattern
from repro.prefilter.lazydfa import LazyDFAMatcher
from repro.vm import StreamingMatcher, StreamingMultiMatcher, ThompsonVM
from strategies import inputs, regex_patterns


@st.composite
def chunkings(draw, text):
    """Cut points for ``text``, arbitrary (possibly empty) pieces."""
    if not text:
        return [""] * draw(st.integers(min_value=0, max_value=2))
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(text)),
            max_size=8,
        )
    )
    bounds = sorted({0, len(text), *cuts})
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def _stream_verdict(program, chunks, **kwargs):
    matcher = StreamingMatcher(LazyDFAMatcher(program, **kwargs))
    for chunk in chunks:
        verdict = matcher.feed(chunk)
        if verdict is not None:
            return verdict
    return matcher.finish()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), pattern=regex_patterns(), text=inputs())
def test_streaming_vm_equals_reference(data, pattern, text):
    program = compile_regex(pattern).program
    expected = ThompsonVM(program).run_reference(text)
    chunks = data.draw(chunkings(text))
    got = _stream_verdict(program, chunks, max_states=0)
    assert bool(got) == bool(expected), (pattern, text, chunks)
    if expected.matched:
        assert got.position == expected.position


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pattern=regex_patterns(), text=inputs())
def test_streaming_dfa_equals_reference(data, pattern, text):
    program = compile_regex(pattern).program
    expected = ThompsonVM(program).run_reference(text)
    chunks = data.draw(chunkings(text))
    got = _stream_verdict(program, chunks)
    assert bool(got) == bool(expected), (pattern, text, chunks)
    if expected.matched:
        assert got.position == expected.position


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pattern=regex_patterns(), text=inputs())
def test_streaming_dfa_fallback_equals_reference(data, pattern, text):
    """A 3-state DFA budget forces mid-stream blowup on most patterns;
    the permanent VM fallback must not change any verdict."""
    program = compile_regex(pattern).program
    expected = ThompsonVM(program).run_reference(text)
    chunks = data.draw(chunkings(text))
    got = _stream_verdict(program, chunks, max_states=3)
    assert bool(got) == bool(expected), (pattern, text, chunks)
    if expected.matched:
        assert got.position == expected.position


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    patterns=st.lists(regex_patterns(), min_size=1, max_size=3),
    text=inputs(),
)
def test_streaming_multi_equals_reference(data, patterns, text):
    multi = compile_multipattern(patterns)
    expected = MultiMatchVM(multi).run_reference(text).matched_ids
    chunks = data.draw(chunkings(text))
    matcher = StreamingMultiMatcher(multi)
    result = None
    for chunk in chunks:
        result = matcher.feed(chunk)
        if result is not None:
            break
    if result is None:
        result = matcher.finish()
    assert result.matched_ids == expected, (patterns, text, chunks)
