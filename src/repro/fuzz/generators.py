"""Seeded case generators for the differential fuzzing campaign.

Two entry points, mirroring MLIR-Smith's split between *textual* and
*structural* generation:

* :class:`RegexGenerator` draws a random :class:`~repro.frontend.ast_nodes.Pattern`
  from a weighted grammar over the supported subset — literals, classes,
  ``.``, groups, alternation, every quantifier form including counted
  repetition, and anchors — so the whole pipeline is exercised from the
  frontend down.
* :class:`ModuleGenerator` emits a structurally valid ``regex``-dialect
  module *directly*, bypassing the parser, so the §3.2 transforms,
  lowering and codegen get fuzzed independently of the frontend (and the
  ``emit_pattern`` round-trip becomes one more differential surface).

Both are driven by an explicit :class:`random.Random` so every case is
reproducible from ``(seed, knobs)`` alone, and both respect the same
invariant the hand-written Hypothesis strategies enforce: **every
concatenation contains at least one non-nullable piece**, which by
induction makes every group non-nullable and therefore safe to quantify
unboundedly (the one construct the Cicero ISA cannot express is an
unbounded quantifier over a nullable sub-pattern).

:func:`derive_inputs` turns a generated pattern into a deterministic set
of probe strings: members of the language (via the workload sampler),
near-miss mutants of those members, and unbiased random strings.
Differential testing needs no ground truth — the oracles vote — but
inputs correlated with the pattern find disagreements orders of
magnitude faster than uniform noise.

Inputs cover every latin-1 character except ``\n``, which ``.`` and
``$`` treat specially in most regex dialects (not in this one).  Above
U+00FF there is no input byte.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..dialects.regex.emit_pattern import emit_pattern
from ..dialects.regex.from_ast import pattern_to_regex_dialect
from ..dialects.regex.ops import (
    ConcatenationOp,
    GroupOp,
    MatchAnyCharOp,
    MatchCharOp,
    PieceOp,
    QuantifierOp,
    RootOp,
)
from ..frontend import ast_nodes as ast
from ..ir.operation import ModuleOp
from ..workloads.sampler import sample_match

#: The generation alphabet; small so collisions between pattern and
#: input characters are frequent (that is where the bugs live).
ALPHABET = "abcdefgh"

#: Extra input-only characters guaranteeing negative probes exist; the
#: non-printable slice reaches the residual byte class and high-byte
#: operands of negated classes.
NOISE_ALPHABET = ALPHABET + "xyz" + "\x00\t\r\x1f\x7f\x80\xa0\xff"

#: Quantifier shapes and their weights: unquantified dominates, every
#: supported form (incl. counted repetition) appears.
_QUANTIFIER_WEIGHTS = (
    ("none", 8),
    ("star", 2),
    ("plus", 2),
    ("opt", 2),
    ("exact", 1),
    ("atleast", 1),
    ("range", 2),
)

_ATOM_WEIGHTS = (
    ("char", 8),
    ("dot", 2),
    ("class", 3),
    ("negclass", 2),
    ("group", 4),
)


def _weighted(rng: random.Random, table) -> str:
    total = sum(weight for _name, weight in table)
    pick = rng.randrange(total)
    for name, weight in table:
        if pick < weight:
            return name
        pick -= weight
    raise AssertionError("unreachable")


class RegexGenerator:
    """Grammar-based random pattern generator over the frontend AST."""

    def __init__(
        self,
        seed: int,
        max_depth: int = 3,
        max_branches: int = 3,
        max_pieces: int = 4,
        max_count: int = 4,
        alphabet: str = ALPHABET,
        anchors: bool = True,
    ):
        self.rng = random.Random(seed)
        self.max_depth = max_depth
        self.max_branches = max_branches
        self.max_pieces = max_pieces
        self.max_count = max_count
        self.alphabet = alphabet
        self.anchors = anchors

    # -- atoms ---------------------------------------------------------
    def _atom(self, depth: int) -> Tuple[ast.Atom, bool]:
        """Returns ``(atom, nullable)``; every atom here is non-nullable."""
        rng = self.rng
        kind = _weighted(rng, _ATOM_WEIGHTS)
        if kind == "group" and depth <= 0:
            kind = "char"
        if kind == "char":
            return ast.Char(ord(rng.choice(self.alphabet))), False
        if kind == "dot":
            return ast.AnyChar(), False
        if kind == "class":
            members = sorted(
                {ord(rng.choice(self.alphabet))
                 for _ in range(rng.randint(1, 4))}
            )
            return ast.CharClass(members=tuple(members)), False
        if kind == "negclass":
            members = sorted(
                {ord(rng.choice(self.alphabet[:4]))
                 for _ in range(rng.randint(1, 2))}
            )
            return ast.CharClass(members=tuple(members), negated=True), False
        body = self._alternation(depth - 1)
        return ast.SubRegex(body=body), False

    def _bounds(self) -> Tuple[int, int]:
        rng = self.rng
        kind = _weighted(rng, _QUANTIFIER_WEIGHTS)
        if kind == "none":
            return 1, 1
        if kind == "star":
            return 0, ast.UNBOUNDED
        if kind == "plus":
            return 1, ast.UNBOUNDED
        if kind == "opt":
            return 0, 1
        if kind == "exact":
            count = rng.randint(1, self.max_count)
            return count, count
        if kind == "atleast":
            return rng.randint(1, self.max_count), ast.UNBOUNDED
        low = rng.randint(0, self.max_count - 1)
        return low, rng.randint(max(low, 1), self.max_count)

    def _piece(self, depth: int) -> Tuple[ast.Piece, bool]:
        atom, _ = self._atom(depth)
        minimum, maximum = self._bounds()
        nullable = minimum == 0
        return ast.Piece(atom=atom, min=minimum, max=maximum), nullable

    def _concatenation(self, depth: int) -> ast.Concatenation:
        drawn = [
            self._piece(depth)
            for _ in range(self.rng.randint(1, self.max_pieces))
        ]
        pieces = [piece for piece, _nullable in drawn]
        if all(nullable for _piece, nullable in drawn):
            # Nullability guard: anchor the branch with one bare atom.
            atom, _ = self._atom(depth)
            pieces.append(ast.Piece(atom=atom))
        return ast.Concatenation(pieces=pieces)

    def _alternation(self, depth: int) -> ast.Alternation:
        branches = [
            self._concatenation(depth)
            for _ in range(self.rng.randint(1, self.max_branches))
        ]
        return ast.Alternation(branches=branches)

    # -- entry point ---------------------------------------------------
    def generate(self) -> ast.Pattern:
        rng = self.rng
        has_prefix = has_suffix = True
        suffix_anchor = False
        if self.anchors:
            has_prefix = rng.random() >= 0.15
            suffix_anchor = rng.random() < 0.15
        if suffix_anchor:
            # ``has_suffix = False`` is only representable for a single
            # top-level branch (parser anchor semantics).
            root = ast.Alternation(branches=[self._concatenation(self.max_depth)])
            has_suffix = False
        else:
            root = self._alternation(self.max_depth)
            # A mid-pattern ``$`` atom ending a non-final branch keeps
            # the Dollar lowering in the fuzzed surface.
            if self.anchors and len(root.branches) > 1 and rng.random() < 0.1:
                branch = root.branches[rng.randrange(len(root.branches) - 1)]
                branch.pieces.append(ast.Piece(atom=ast.Dollar()))
        pattern = ast.Pattern(
            root=root, has_prefix=has_prefix, has_suffix=has_suffix
        )
        pattern.text = pattern_text(pattern)
        return pattern

    def generate_text(self) -> str:
        return self.generate().text


def pattern_text(pattern: ast.Pattern) -> str:
    """Render a generated AST as concrete pattern syntax.

    The body goes through the dialect's own ``emit_pattern`` so the
    emitter is part of the fuzzed surface; anchors are re-attached from
    the pattern flags.
    """
    module = pattern_to_regex_dialect(pattern)
    return module_text(module)


def module_text(module: ModuleOp) -> str:
    """Concrete syntax of a ``regex``-dialect module, anchors included."""
    root = module.body.operations[0]
    body = emit_pattern(root)
    prefix = "" if root.has_prefix else "^"
    suffix = "" if root.has_suffix else "$"
    return prefix + body + suffix


class ModuleGenerator:
    """Emit structurally valid ``regex``-dialect modules directly.

    Skipping the parser means a miscompile here cannot be masked by a
    frontend normalization — and the emitted-text round-trip used by the
    text-only ``old`` oracle is itself diffed.
    """

    def __init__(self, seed: int, max_depth: int = 2, **knobs):
        self._regex = RegexGenerator(seed, max_depth=max_depth, **knobs)

    def _atom_op(self, atom: ast.Atom):
        if isinstance(atom, ast.Char):
            return MatchCharOp(atom.code)
        if isinstance(atom, ast.AnyChar):
            return MatchAnyCharOp()
        if isinstance(atom, ast.CharClass):
            return GroupOp(atom.members, negated=atom.negated)
        if isinstance(atom, ast.SubRegex):
            from ..dialects.regex.ops import SubRegexOp

            op = SubRegexOp()
            self._fill(op, atom.body)
            return op
        from ..dialects.regex.ops import DollarOp

        return DollarOp()

    def _fill(self, container, alternation: ast.Alternation) -> None:
        block = container.regions[0].entry_block
        for branch in alternation.branches:
            concat = ConcatenationOp()
            concat_block = concat.regions[0].entry_block
            for piece in branch.pieces:
                piece_op = PieceOp()
                piece_block = piece_op.regions[0].entry_block
                piece_block.append(self._atom_op(piece.atom))
                if (piece.min, piece.max) != (1, 1):
                    piece_block.append(QuantifierOp(piece.min, piece.max))
                concat_block.append(piece_op)
            block.append(concat)

    def generate(self) -> ModuleOp:
        pattern = self._regex.generate()
        module = ModuleOp()
        root = RootOp(
            has_prefix=pattern.has_prefix, has_suffix=pattern.has_suffix
        )
        self._fill(root, pattern.root)
        module.body.append(root)
        module.verify()
        return module


# ----------------------------------------------------------------------
# Input derivation
# ----------------------------------------------------------------------
def _contains_dollar(alternation: ast.Alternation) -> bool:
    for branch in alternation.branches:
        for piece in branch.pieces:
            if isinstance(piece.atom, ast.Dollar):
                return True
            if isinstance(piece.atom, ast.SubRegex) and _contains_dollar(
                piece.atom.body
            ):
                return True
    return False


def _noise(rng: random.Random, max_len: int = 4) -> str:
    return "".join(
        rng.choice(NOISE_ALPHABET) for _ in range(rng.randint(0, max_len))
    )


def _mutate(text: str, rng: random.Random) -> str:
    if not text:
        return rng.choice(NOISE_ALPHABET)
    choice = rng.randrange(4)
    index = rng.randrange(len(text))
    if choice == 0:  # replace one character
        return text[:index] + rng.choice(NOISE_ALPHABET) + text[index + 1:]
    if choice == 1:  # delete one character
        return text[:index] + text[index + 1:]
    if choice == 2:  # insert one character
        return text[:index] + rng.choice(NOISE_ALPHABET) + text[index:]
    return text[:index]  # truncate


def derive_inputs(
    pattern: ast.Pattern,
    rng: random.Random,
    count: int = 10,
    extra: Optional[List[str]] = None,
) -> List[str]:
    """Deterministic probe inputs for one pattern: should-match samples,
    near-miss mutants, random noise, and the empty string."""
    probes: List[str] = [""]
    dollar = _contains_dollar(pattern.root)
    positives: List[str] = []
    for _ in range(max(2, count // 2)):
        sample = sample_match(pattern, rng)
        positives.append(sample)
        decorated = sample
        if pattern.has_prefix and rng.random() < 0.5:
            decorated = _noise(rng) + decorated
        if pattern.has_suffix and not dollar and rng.random() < 0.5:
            decorated = decorated + _noise(rng)
        probes.append(decorated)
    for sample in positives[: max(1, count // 3)]:
        probes.append(_mutate(sample, rng))
    for _ in range(max(2, count // 3)):
        probes.append(_noise(rng, max_len=10))
    if extra:
        probes.extend(extra)
    seen = set()
    unique: List[str] = []
    for probe in probes:
        # Keep every probe a latin-1 string without newlines; the
        # Python-re oracle diverges on \n (``.`` and ``$`` semantics).
        if "\n" in probe or any(ord(char) > 0xFF for char in probe):
            continue
        if probe not in seen:
            seen.add(probe)
            unique.append(probe)
    return unique


def count_nodes(node: ast.Node) -> int:
    """Size of an AST in nodes — the shrinker's minimality metric."""
    if isinstance(node, ast.Pattern):
        return 1 + count_nodes(node.root)
    if isinstance(node, ast.Alternation):
        return 1 + sum(count_nodes(branch) for branch in node.branches)
    if isinstance(node, ast.Concatenation):
        return 1 + sum(count_nodes(piece) for piece in node.pieces)
    if isinstance(node, ast.Piece):
        return 1 + count_nodes(node.atom)
    if isinstance(node, ast.SubRegex):
        return 1 + count_nodes(node.body)
    return 1
