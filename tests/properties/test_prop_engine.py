"""Properties of the PR-3 throughput layer (ISSUE 3 satellites).

* The fast-path VMs (precomputed ε-closure dispatch) are
  result-equivalent to the pre-optimization reference interpreters, on
  random patterns and inputs.
* The engine's cached path returns exactly what an uncached compile
  returns (cache hits never change verdicts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import NewCompiler
from repro.engine import Engine
from repro.multimatch.compiler import compile_multipattern
from repro.multimatch.vm import MultiMatchVM
from repro.vm.thompson import ThompsonVM
from strategies import inputs, regex_patterns


@settings(max_examples=80, deadline=None)
@given(pattern=regex_patterns(), text=inputs())
def test_fast_vm_equals_reference_vm(pattern, text):
    vm = ThompsonVM(NewCompiler().compile(pattern).program)
    fast = vm.run(text)
    reference = vm.run_reference(text)
    assert fast.matched == reference.matched
    assert fast.position == reference.position


@settings(max_examples=40, deadline=None)
@given(
    patterns=st.lists(regex_patterns(max_depth=1), min_size=1, max_size=4),
    text=inputs(),
)
def test_fast_multimatch_equals_reference(patterns, text):
    vm = MultiMatchVM(compile_multipattern(patterns))
    assert vm.run(text).matched_ids == vm.run_reference(text).matched_ids


@settings(max_examples=40, deadline=None)
@given(pattern=regex_patterns(max_depth=1), text=inputs())
def test_cached_and_uncached_paths_equivalent(pattern, text):
    engine = Engine()
    cold = engine.match(pattern, text)  # miss: compiles
    warm = engine.match(pattern, text)  # hit: cached artifact
    uncached = bool(ThompsonVM(NewCompiler().compile(pattern).program).run(text))
    assert cold == warm == uncached
    stats = engine.cache_stats()
    assert stats.hits >= 1 and stats.misses >= 1


@settings(max_examples=30, deadline=None)
@given(pattern=regex_patterns(max_depth=1), text=inputs(max_size=40))
def test_bytes_fast_path_equals_str(pattern, text):
    vm = ThompsonVM(NewCompiler().compile(pattern).program)
    assert vm.run(text).matched == vm.run(text.encode("latin-1")).matched
