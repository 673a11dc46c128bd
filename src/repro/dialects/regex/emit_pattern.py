"""Render ``regex`` dialect IR back into a pattern string.

Two uses:

* Round-trip debugging (the CLI's ``--emit=pattern``).
* Differential testing: the emitted string is valid Python :mod:`re`
  syntax, so tests can check that high-level transforms preserve the
  match semantics by comparing ``re.search`` results before and after a
  rewrite.

The emitted pattern reflects only the alternation body; the implicit
``.*`` prefix/suffix flags are the caller's to interpret (they map to
``re.search`` vs anchored matching).
"""

from __future__ import annotations

from typing import List

from ...ir.diagnostics import IRError
from ...ir.operation import Operation
from .ops import (
    ConcatenationOp,
    DollarOp,
    GroupOp,
    MatchAnyCharOp,
    MatchCharOp,
    PieceOp,
    RootOp,
    SubRegexOp,
    UNBOUNDED,
)

_META = set("\\^$.|?*+()[]{}")
_CLASS_META = set("\\]^-")


def _escape(code: int, inside_class: bool = False) -> str:
    char = chr(code)
    if code < 0x20 or code > 0x7E:
        return f"\\x{code:02x}"
    if inside_class:
        return "\\" + char if char in _CLASS_META else char
    return "\\" + char if char in _META else char


#: Every byte value's rendering, outside and inside a character class.
_ESCAPED = tuple(_escape(code) for code in range(256))
_CLASS_ESCAPED = tuple(_escape(code, True) for code in range(256))

_QUANTIFIERS = {(1, 1): "", (0, UNBOUNDED): "*", (1, UNBOUNDED): "+", (0, 1): "?"}


def _emit_class(op: GroupOp) -> str:
    parts: List[str] = ["[^" if op.negated else "["]
    for low, high in op.charset.ranges():
        if high - low >= 2:
            parts.append(f"{_CLASS_ESCAPED[low]}-{_CLASS_ESCAPED[high]}")
        else:
            parts.extend(_CLASS_ESCAPED[low:high + 1])
    parts.append("]")
    return "".join(parts)


def _emit_quantifier(minimum: int, maximum: int) -> str:
    text = _QUANTIFIERS.get((minimum, maximum))
    if text is not None:
        return text
    if maximum == UNBOUNDED:
        return f"{{{minimum},}}"
    if minimum == maximum:
        return f"{{{minimum}}}"
    return f"{{{minimum},{maximum}}}"


def _emit_atom(op: Operation) -> str:
    if isinstance(op, MatchCharOp):
        return _ESCAPED[op.attributes["char"].value]
    if isinstance(op, GroupOp):
        return _emit_class(op)
    if isinstance(op, MatchAnyCharOp):
        return "."
    if isinstance(op, SubRegexOp):
        return "(" + _emit_alternation(op) + ")"
    if isinstance(op, DollarOp):
        return "$"
    raise IRError(f"not a regex atom: {op.name}")


def emit_piece(op: PieceOp) -> str:
    """Render one quantified piece (e.g. ``(a|ab)*``) as pattern text.

    Also the Cicero lowering's entry point: it stamps the fragment of
    each top-level piece onto the instructions emitted for it, so the
    profiler can attribute execution back to sub-patterns.
    """
    # A quantified multi-char construct needs no extra parens: atoms are
    # single chars, classes, or already-parenthesized sub-regexes.
    return _emit_atom(op.atom) + _emit_quantifier(*op.bounds)


def _emit_alternation(op) -> str:
    return "|".join(
        "".join([emit_piece(piece) for piece in concat.pieces])
        for concat in op.alternatives
    )


def emit_pattern(root: RootOp) -> str:
    """Emit the pattern body of a ``regex.root`` as a string."""
    if not isinstance(root, RootOp):
        raise IRError(f"expected regex.root, got {root.name}")
    return _emit_alternation(root)


def emit_python_re(root: RootOp) -> str:
    """Emit a Python :mod:`re` pattern honouring the prefix/suffix flags.

    With both flags set the result is usable with ``re.search``-style
    semantics via ``re.match`` by wrapping in explicit wildcards.
    """
    body = emit_pattern(root)
    prefix = "" if root.has_prefix else "^"
    # A fully unanchored pattern needs no explicit .* when used with
    # re.search; anchoring is expressed with ^/$.
    suffix = "" if root.has_suffix else "$"
    if "|" in body and (prefix or suffix):
        body = f"(?:{body})"
    return prefix + body + suffix
