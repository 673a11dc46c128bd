"""Hashability and stable cache keys for CompileOptions and Budget.

Both classes key the engine's compiled-pattern LRU cache, so they must
be frozen, hashable, equality-consistent, and expose a ``cache_key()``
stable across equal instances (satellite of ISSUE 3).
"""

import dataclasses
from itertools import combinations

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
            options.regex_pipeline = ()
        assert hash(options) == hash(CompileOptions())

    def test_the_pass_lists_are_the_only_pass_selector(self):
        names = {f.name for f in dataclasses.fields(CompileOptions)}
        assert names == {
            "regex_pipeline", "cicero_pipeline", "verify_each", "budget",
        }

    def test_dropping_a_pass_changes_key(self):
        base = CompileOptions().cache_key()
        # Each drop-one-pass list, in the paper's order.
        for regex in combinations(DEFAULT_REGEX_PIPELINE, 2):
            assert CompileOptions(regex_pipeline=regex).cache_key() != base, regex
        for cicero in combinations(DEFAULT_CICERO_PIPELINE, 1):
            assert CompileOptions(cicero_pipeline=cicero).cache_key() != base, cicero
        assert CompileOptions(budget=Budget(max_vm_steps=5)).cache_key() != base

    def test_nested_budget_contributes_its_key(self):
        with_budget = CompileOptions(budget=Budget())
        key = dict(with_budget.cache_key())
        assert key["budget"] == Budget().cache_key()


class TestPipelines:
    """``CompileOptions.pipelines()`` is the one spelling of what runs."""

    def test_defaults_are_the_exported_constants(self):
        assert CompileOptions().pipelines() == (
            DEFAULT_REGEX_PIPELINE,
            DEFAULT_CICERO_PIPELINE,
        )
        assert CompileOptions.none().pipelines() == ((), ())

    def test_explicit_tuple_replaces_its_half(self):
        twice = ("regex-factorize-alternations",) * 2
        options = CompileOptions(regex_pipeline=twice, cicero_pipeline=())
        assert options.pipelines() == (twice, ())
        # One explicit half leaves the other at the paper's order.
        assert CompileOptions(regex_pipeline=()).pipelines() == (
            (), DEFAULT_CICERO_PIPELINE,
        )

    def test_equal_pipelines_and_rest_give_equal_keys(self):
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE,
            cicero_pipeline=DEFAULT_CICERO_PIPELINE,
        ).cache_key() == CompileOptions().cache_key()
        assert CompileOptions(
            regex_pipeline=(), cicero_pipeline=()
        ).cache_key() == CompileOptions.none().cache_key()
        # A different order, or any remaining field, splits the key...
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE[::-1]
        ).cache_key() != CompileOptions().cache_key()
        assert CompileOptions(
            regex_pipeline=DEFAULT_REGEX_PIPELINE, verify_each=True
        ).cache_key() != CompileOptions().cache_key()
