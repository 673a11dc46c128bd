"""Hashability and stable cache keys for CompileOptions and Budget.

Both classes key the engine's compiled-pattern LRU cache, so they must
be frozen, hashable, equality-consistent, and expose a ``cache_key()``
stable across equal instances (satellite of ISSUE 3).
"""

import dataclasses
import itertools

import pytest

from repro.compiler import (
    DEFAULT_CICERO_PIPELINE,
    DEFAULT_REGEX_PIPELINE,
    CompileOptions,
)
from repro.runtime.budget import Budget, DEFAULT_BUDGET


class TestBudgetKey:
    def test_frozen_and_hashable(self):
        budget = Budget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget.max_vm_steps = 1
        assert hash(budget) == hash(Budget())
        assert budget == Budget()

    def test_cache_key_stability(self):
        assert Budget().cache_key() == DEFAULT_BUDGET.cache_key()
        assert Budget(max_vm_steps=1).cache_key() != Budget().cache_key()
        # Field names are part of the key: no positional collisions.
        names = [name for name, _value in Budget().cache_key()]
        assert names == [f.name for f in dataclasses.fields(Budget)]

    def test_key_usable_as_dict_key(self):
        table = {Budget().cache_key(): "default",
                 Budget.unlimited().cache_key(): "unlimited"}
        assert table[DEFAULT_BUDGET.cache_key()] == "default"

    def test_replace_changes_key(self):
        assert (DEFAULT_BUDGET.replace(max_parallel_jobs=4).cache_key()
                != DEFAULT_BUDGET.cache_key())


class TestCompileOptionsKey:
    def test_frozen_and_hashable(self):
        options = CompileOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.optimize = False
        assert hash(options) == hash(CompileOptions())

    def test_master_switch_folds_into_key(self):
        # optimize=False and all-flags-off are the same configuration.
        explicit = CompileOptions(
            optimize=True,
            simplify_subregex=False,
            factorize_alternations=False,
            boundary_quantifier=False,
            jump_simplification=False,
            dead_code_elimination=False,
        )
        assert (CompileOptions(optimize=False).cache_key()
                == explicit.cache_key())

    def test_flag_changes_change_key(self):
        base = CompileOptions().cache_key()
        assert CompileOptions(factorize_alternations=False).cache_key() != base
        assert CompileOptions(budget=Budget(max_vm_steps=5)).cache_key() != base

    def test_nested_budget_contributes_its_key(self):
        with_budget = CompileOptions(budget=Budget())
        key = dict(with_budget.cache_key())
        assert key["budget"] == Budget().cache_key()


FLAGS = (
    "simplify_subregex",
    "factorize_alternations",
    "boundary_quantifier",
    "jump_simplification",
    "dead_code_elimination",
)


def if_chain_pipelines(options):
    """The pass names the pre-ISSUE-23 compiler's two ``if`` ladders
    instantiated for flag-built (no explicit tuple) options."""
    options = options.effective()
    regex, cicero = [], []
    if options.simplify_subregex:
        regex.append("regex-simplify-subregex")
    if options.factorize_alternations:
        regex.append("regex-factorize-alternations")
    if options.boundary_quantifier:
        regex.append("regex-boundary-quantifier")
    if options.jump_simplification:
        cicero.append("cicero-jump-simplification")
    if options.dead_code_elimination:
        cicero.append("cicero-dce")
    return tuple(regex), tuple(cicero)


class TestPipelines:
    """``CompileOptions.pipelines()`` is the one spelling of what runs."""

    def test_every_flag_combination_matches_the_old_if_chains(self):
        combinations = list(itertools.product((True, False), repeat=6))
        assert len(combinations) == 64
        for optimize, *flags in combinations:
            options = CompileOptions(optimize=optimize, **dict(zip(FLAGS, flags)))
            assert options.pipelines() == if_chain_pipelines(options), options

    def test_defaults_are_the_exported_constants(self):
        assert CompileOptions().pipelines() == (
            DEFAULT_REGEX_PIPELINE,
            DEFAULT_CICERO_PIPELINE,
        )
        assert CompileOptions.none().pipelines() == ((), ())

    def test_explicit_tuple_wins_over_flags_and_master_switch(self):
        twice = ("regex-factorize-alternations",) * 2
        options = CompileOptions(
            optimize=False,
            factorize_alternations=False,
            regex_pipeline=twice,
            cicero_pipeline=(),
        )
        assert options.pipelines() == (twice, ())
        # One explicit half leaves the other to the flags.
        assert CompileOptions(
            regex_pipeline=(), dead_code_elimination=False
        ).pipelines() == ((), ("cicero-jump-simplification",))

    def test_equal_pipelines_and_rest_give_equal_keys(self):
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE,
            cicero_pipeline=DEFAULT_CICERO_PIPELINE,
        ).cache_key() == CompileOptions().cache_key()
        assert CompileOptions(
            regex_pipeline=(), cicero_pipeline=()
        ).cache_key() == CompileOptions.none().cache_key()
        # A flag an explicit tuple overrides does not split the cache...
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE, factorize_alternations=False
        ).cache_key() == CompileOptions().cache_key()
        # ...but a different order, or any remaining field, does.
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE[::-1]
        ).cache_key() != CompileOptions().cache_key()
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE, verify_each=True
        ).cache_key() != CompileOptions().cache_key()
        assert CompileOptions(trace=True).cache_key() == CompileOptions().cache_key()
