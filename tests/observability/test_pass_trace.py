"""The traced compile path: what pass spans record, and at what cost.

``RECORDED`` was captured from the tracer before ``ir_stats`` became one
traversal and ``PassManager`` started carrying one pass's ``after`` over
as the next one's ``before``: the IR statistics on the spans — names,
values and attribute order — must not move.
"""

import pytest

from repro.compiler import NewCompiler
from repro.ir.operation import ModuleOp, Operation
from repro.ir.pass_manager import FunctionPass, Pass, PassManager
from repro.ir.rewriter import RewritePattern, apply_patterns_greedily
from repro.observability import Tracer, ir_stats

#: The first protomata4 RE of a 4-RE suite (seed 2025).
PROTOMATA4 = (
    "[LIVMF][KR][^LIVMAT]{1,3}.{1,3}(I[FYWH]|F[FYWH])[DENQ].{1,2}(F[DENQ]|M[^DENQ])T[LIVMAT][FYW][LIVMAT"
    "].{3,7}[DE]|[ILVF][LIVMF]W[^DENQ][DEKRH]RF[KR](Q[CMLIV]|P[AG]).{2,4}T|[DEKRH].{2,5}[NQST][LIVM][^FY"
    "WH]M[CMLIV](N[DE]|F[SAG]).{3,4}[CMLIV]M[GASTC]P|[AG][KR].{3,6}[^DE]{2,3}.{1,2}L[AG]{1,2}Q[DE]{2,4}H"
)

#: One line per span that carries IR statistics, attributes in span order.
RECORDED = {
    "a(b|c)d*e": """
to-regex-dialect op_count_after=18 d_offset_after=None
pass:regex-simplify-subregex op_count_before=18 d_offset_before=None op_count_after=18 op_count_delta=0 d_offset_after=None
pass:regex-factorize-alternations op_count_before=18 d_offset_before=None op_count_after=18 op_count_delta=0 d_offset_after=None
pass:regex-boundary-quantifier op_count_before=18 d_offset_before=None op_count_after=18 op_count_delta=0 d_offset_after=None
lowering op_count_after=16 d_offset_after=16
pass:cicero-jump-simplification op_count_before=16 d_offset_before=16 op_count_after=16 op_count_delta=0 d_offset_after=15 d_offset_delta=-1
pass:cicero-dce op_count_before=16 d_offset_before=15 op_count_after=15 op_count_delta=-1 d_offset_after=15 d_offset_delta=0
codegen d_offset=15
""",
    "(this)|that|(those)+x*": """
to-regex-dialect op_count_after=41 d_offset_after=None
pass:regex-simplify-subregex op_count_before=41 d_offset_before=None op_count_after=38 op_count_delta=-3 d_offset_after=None
pass:regex-factorize-alternations op_count_before=38 d_offset_before=None op_count_after=37 op_count_delta=-1 d_offset_after=None
pass:regex-boundary-quantifier op_count_before=37 d_offset_before=None op_count_after=33 op_count_delta=-4 d_offset_after=None
lowering op_count_after=22 d_offset_after=30
pass:cicero-jump-simplification op_count_before=22 d_offset_before=30 op_count_after=22 op_count_delta=0 d_offset_after=20 d_offset_delta=-10
pass:cicero-dce op_count_before=22 d_offset_before=20 op_count_after=21 op_count_delta=-1 d_offset_after=19 d_offset_delta=-1
codegen d_offset=19
""",
    PROTOMATA4: """
to-regex-dialect op_count_after=154 d_offset_after=None
pass:regex-simplify-subregex op_count_before=154 d_offset_before=None op_count_after=154 op_count_delta=0 d_offset_after=None
pass:regex-factorize-alternations op_count_before=154 d_offset_before=None op_count_after=154 op_count_delta=0 d_offset_after=None
pass:regex-boundary-quantifier op_count_before=154 d_offset_before=None op_count_after=154 op_count_delta=0 d_offset_after=None
lowering op_count_after=413 d_offset_after=1734
pass:cicero-jump-simplification op_count_before=413 d_offset_before=1734 op_count_after=413 op_count_delta=0 d_offset_after=1306 d_offset_delta=-428
pass:cicero-dce op_count_before=413 d_offset_before=1306 op_count_after=412 op_count_delta=-1 d_offset_after=1305 d_offset_delta=-1
codegen d_offset=1305
""",
}


def ir_statistics_lines(trace) -> str:
    lines = []
    for span in trace.spans:
        stats = [
            f"{key}={value}"
            for key, value in span.attributes.items()
            if key.startswith(("op_count", "d_offset"))
        ]
        if stats:
            lines.append(" ".join([span.name] + stats))
    return "\n".join(lines)


@pytest.mark.parametrize("pattern", RECORDED)
def test_span_ir_statistics_match_the_recorded_trace(pattern):
    result = NewCompiler(tracer=Tracer()).compile(pattern)
    assert ir_statistics_lines(result.trace) == RECORDED[pattern].strip()


def test_ir_statistics_are_computed_once_per_pass_boundary():
    calls = []

    def counted_stats(root):
        calls.append(root)
        return ir_stats(root)

    module = ModuleOp()
    manager = PassManager(verify_each=False)
    for name in "abc":
        manager.add(
            FunctionPass(name, lambda root: root.body.append(Operation("test.x")))
        )
    tracer = Tracer()
    manager.run(module, tracer=tracer, span_attrs=counted_stats)
    assert len(calls) == len(manager.passes) + 1
    spans = [span.attributes for span in tracer.finished_spans()]
    assert [span["op_count_before"] for span in spans] == [1, 2, 3]
    assert [span["op_count_after"] for span in spans] == [2, 3, 4]
    assert [span["op_count_delta"] for span in spans] == [1, 1, 1]
    # Untraced, nothing is measured at all.
    calls.clear()
    manager.run(module, span_attrs=counted_stats)
    assert calls == []


class _Flip(RewritePattern):
    """Renames ``test.<old>`` to ``test.<new>``; two of these ping-pong."""

    def __init__(self, old: str, new: str):
        self.op_name = f"test.{old}"
        self.new = f"test.{new}"

    def match_and_rewrite(self, op):
        op.replace_with(Operation(self.new))
        return True


class _PingPongPass(Pass):
    PASS_NAME = "test-ping-pong"

    def run(self, root):
        self.statistics = apply_patterns_greedily(
            root, [_Flip("ping", "pong"), _Flip("pong", "ping")], max_iterations=5
        )


def test_pass_spans_say_whether_the_rewrite_converged():
    result = NewCompiler(tracer=Tracer()).compile("(this)|that")
    converged = {
        span.name: span.attributes.get("converged")
        for span in result.trace.pass_spans()
    }
    assert converged == {
        "pass:regex-simplify-subregex": True,
        "pass:regex-factorize-alternations": True,
        "pass:regex-boundary-quantifier": True,
        "pass:cicero-jump-simplification": None,  # not pattern-driven
        "pass:cicero-dce": None,
    }

    module = ModuleOp()
    module.body.append(Operation("test.ping"))
    tracer = Tracer()
    PassManager(verify_each=False).add(_PingPongPass()).run(module, tracer=tracer)
    (span,) = tracer.finished_spans()
    assert span.name == "pass:test-ping-pong"
    assert span.attributes["converged"] is False
