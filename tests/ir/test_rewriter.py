"""Greedy rewrite driver behaviour."""

import pytest

from repro.ir.diagnostics import IRError
from repro.ir.operation import ModuleOp, Operation
from repro.ir.rewriter import (
    GreedyRewriteDriver,
    RewritePattern,
    apply_patterns_greedily,
)


class RenamePattern(RewritePattern):
    """test.before -> test.after"""

    op_name = "test.before"

    def match_and_rewrite(self, op):
        op.replace_with(Operation(name="test.after"))
        return True


class CountdownPattern(RewritePattern):
    """Decrement a counter attribute until it reaches zero."""

    op_name = "test.counter"

    def match_and_rewrite(self, op):
        value = op.int_attr("n")
        if value == 0:
            return False
        op.set_attr("n", value - 1)
        return True


class EraseLeafPattern(RewritePattern):
    op_name = "test.leaf"

    def match_and_rewrite(self, op):
        op.erase()
        return True


def _module_with(*names):
    module = ModuleOp()
    for name in names:
        module.body.append(Operation(name=name))
    return module


def test_simple_rewrite():
    module = _module_with("test.before", "test.keep")
    stats = apply_patterns_greedily(module, [RenamePattern()])
    assert [op.name for op in module.body] == ["test.after", "test.keep"]
    assert stats.total_rewrites == 1


def test_fixpoint_iteration():
    module = ModuleOp()
    module.body.append(Operation(name="test.counter", attributes={"n": 5}))
    stats = apply_patterns_greedily(module, [CountdownPattern()])
    assert module.body.operations[0].int_attr("n") == 0
    assert stats.total_rewrites == 5


def test_no_match_returns_zero_rewrites():
    module = _module_with("test.keep")
    stats = apply_patterns_greedily(module, [RenamePattern()])
    assert stats.total_rewrites == 0
    assert stats.iterations == 1


def test_erasing_pattern():
    module = _module_with("test.leaf", "test.leaf", "test.keep")
    apply_patterns_greedily(module, [EraseLeafPattern()])
    assert [op.name for op in module.body] == ["test.keep"]


def test_benefit_ordering():
    order = []

    class High(RewritePattern):
        benefit = 10
        op_name = "test.x"

        def match_and_rewrite(self, op):
            order.append("high")
            return False

    class Low(RewritePattern):
        benefit = 1
        op_name = "test.x"

        def match_and_rewrite(self, op):
            order.append("low")
            return False

    apply_patterns_greedily(_module_with("test.x"), [Low(), High()])
    assert order == ["high", "low"]


def test_stats_by_pattern_name():
    module = _module_with("test.before")
    stats = apply_patterns_greedily(module, [RenamePattern()])
    assert stats.rewrites_by_pattern == {"RenamePattern": 1}


def test_iteration_budget_respected():
    class Pathological(RewritePattern):
        op_name = "test.x"

        def match_and_rewrite(self, op):
            return True  # claims progress forever

    stats = GreedyRewriteDriver([Pathological()], max_iterations=3).apply(
        _module_with("test.x")
    )
    assert stats.iterations == 3


def test_invalid_iteration_budget():
    with pytest.raises(IRError):
        GreedyRewriteDriver([], max_iterations=0)


def test_wildcard_pattern_sees_every_op():
    seen = []

    class Spy(RewritePattern):
        op_name = None

        def match_and_rewrite(self, op):
            seen.append(op.name)
            return False

    apply_patterns_greedily(_module_with("test.a", "test.b"), [Spy()])
    assert set(seen) == {"builtin.module", "test.a", "test.b"}


def test_non_convergence_is_reported():
    """Two patterns that undo each other exhaust the budget, and say so."""

    class Flip(RewritePattern):
        def __init__(self, old, new):
            self.op_name, self.new = old, new

        def match_and_rewrite(self, op):
            op.replace_with(Operation(name=self.new))
            return True

    undo_each_other = [Flip("test.a", "test.b"), Flip("test.b", "test.a")]
    module = _module_with("test.a", "test.keep")
    stats = GreedyRewriteDriver(undo_each_other, max_iterations=5).apply(module)
    assert not stats.converged
    assert stats.iterations == 5 and stats.total_rewrites == 5
    # Half-rewritten: wherever the last sweep left it.
    assert [op.name for op in module.body] == ["test.b", "test.keep"]

    stats = apply_patterns_greedily(module, undo_each_other[1:])
    assert stats.converged and stats.iterations == 2
    assert apply_patterns_greedily(_module_with("test.keep"), undo_each_other).converged
