"""Compilation-facing trace views: IR statistics and :class:`TraceReport`.

The per-pass spans emitted by the instrumented pipeline carry two IR
deltas mirroring the paper's static evaluation:

* ``op_count`` — operations in the module (Fig. 8's code-size proxy at
  the IR level);
* ``d_offset`` — the Eq. 1 code-locality metric computed on the
  ``cicero`` dialect's symbolic program layout (``None`` while the
  module is still in the high-level ``regex`` dialect, where
  instruction addresses do not exist yet).

:class:`TraceReport` is the façade ``repro.api`` surfaces on
:class:`~repro.compiler.CompilationResult`: the finished spans of one
compilation, with JSON-lines export and per-pass timing accessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..ir.operation import Operation
from .tracer import AnyTracer, Span


def ir_stats(root: Operation) -> Dict[str, Any]:
    """The attribute dict pass spans record before/after each pass.

    One traversal yields both numbers: ``op_count``, the operations in
    the tree rooted at ``root``, and ``d_offset``, Eq. 1 summed over
    every ``cicero.program`` under it.  Operation order inside a
    ``cicero.program`` block *is* the instruction-memory layout, so the
    address of an op is its index and a symbolic branch target resolves
    through the labels.  ``d_offset`` is ``None`` when the tree holds no
    cicero program (e.g. a ``regex`` dialect module before lowering).
    """
    from ..dialects.cicero.ops import (
        CiceroInstructionOp,
        ProgramOp,
        TARGET_CARRYING_OPS,
    )

    count = 0
    total: Optional[int] = None
    for op in root.walk():
        count += 1
        if not isinstance(op, ProgramOp):
            continue
        instructions = op.instructions
        addresses: Dict[str, int] = {}
        for address, instruction in enumerate(instructions):
            if isinstance(instruction, CiceroInstructionOp):
                label = instruction.label
                if label is not None:
                    addresses[label] = address
        subtotal = 0
        for address, instruction in enumerate(instructions):
            if isinstance(instruction, TARGET_CARRYING_OPS):
                target = addresses.get(instruction.target)
                if target is not None:
                    subtotal += abs(target - address)
        total = subtotal if total is None else total + subtotal
    return {"op_count": count, "d_offset": total}


def op_count(root: Operation) -> int:
    """Number of operations in the tree rooted at ``root``."""
    return ir_stats(root)["op_count"]


def module_d_offset(root: Operation) -> Optional[int]:
    """Eq. 1 ``D_offset`` over every ``cicero.program`` under ``root``."""
    return ir_stats(root)["d_offset"]


@dataclass
class TraceReport:
    """The finished spans of one traced operation (usually a compile)."""

    spans: List[Span] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer: AnyTracer) -> "TraceReport":
        return cls(spans=sorted(tracer.finished_spans(), key=_start_key))

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def span_names(self) -> List[str]:
        return [span.name for span in self.spans]

    def pass_spans(self) -> List[Span]:
        """The per-pass spans, in execution order."""
        return [span for span in self.spans if span.name.startswith("pass:")]

    def pass_timings(self) -> Dict[str, float]:
        """Pass name → total microseconds (summed over repeats)."""
        timings: Dict[str, float] = {}
        for span in self.pass_spans():
            duration = span.duration_us or 0.0
            name = span.name[len("pass:") :]
            timings[name] = timings.get(name, 0.0) + duration
        return timings

    @property
    def total_us(self) -> float:
        roots = [span for span in self.spans if span.parent_id is None]
        return sum(span.duration_us or 0.0 for span in roots)

    def to_jsonl(self) -> str:
        import json

        lines = [json.dumps(span.to_dict(), sort_keys=True) for span in self.spans]
        return "\n".join(lines) + ("\n" if lines else "")

    def export(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]


def _start_key(span: Span) -> float:
    return span.start_us


__all__ = ["TraceReport", "ir_stats", "module_d_offset", "op_count"]
