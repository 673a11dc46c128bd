"""The *old* Cicero compiler: single-level IR, premature lowering (§2.1).

Mirrors the original Cicero toolchain's design: right after parsing, the
regex structure is lowered to **mapped** code — instructions carrying
absolute addresses — by building fragments bottom-up and rebasing child
addresses on every concatenation (a full scan of the appended fragment,
the cost the new compiler's symbolic labels avoid).  Optimization, when
enabled, is the *Code Restructuring* pass of §5, which runs on this
mapped IR (see :mod:`.code_restructuring`).

Without optimizations, the emitted layout is byte-identical to the new
compiler's unoptimized output (Listing 2's left column serves as the
common baseline in the paper); tests assert this equivalence on a
corpus.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..frontend import ast_nodes as ast
from ..ir.diagnostics import LoweringError
from ..isa.instructions import Opcode
from ..isa.metrics import StaticMetrics, static_metrics
from ..isa.program import Program
from ..runtime.budget import Budget, DEFAULT_BUDGET
from ..runtime.guards import check_pattern_budget
from .code_restructuring import code_restructuring
from .frontend import parse_regex_old
from .ir import (
    ACCEPT_SENTINEL,
    AltRecord,
    Fragment,
    MappedProgram,
    join_sentinel,
)

COMPILER_NAME = "old-single-ir"


def _atom_nullable(atom: ast.Atom) -> bool:
    """Can this atom match the empty string?  (ε-cycle guard, see the
    new compiler's lowering for the rationale.)"""
    if isinstance(atom, ast.SubRegex):
        return any(
            all(piece.min == 0 or _atom_nullable(piece.atom) for piece in branch.pieces)
            for branch in atom.body.branches
        )
    return isinstance(atom, ast.Dollar)


class _OldLowering:
    """AST → mapped fragment, with alternation records for the optimizer."""

    def __init__(self):
        self._alt_counter = 0

    def _next_alt_id(self) -> int:
        self._alt_counter += 1
        return self._alt_counter

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def lower_atom(self, atom: ast.Atom) -> Fragment:
        if isinstance(atom, ast.Char):
            fragment = Fragment()
            fragment.append_instruction(Opcode.MATCH, atom.code)
            return fragment
        if isinstance(atom, ast.AnyChar):
            fragment = Fragment()
            fragment.append_instruction(Opcode.MATCH_ANY)
            return fragment
        if isinstance(atom, ast.CharClass):
            return self.lower_class(atom)
        if isinstance(atom, ast.SubRegex):
            return self.lower_alternation(atom.body)
        if isinstance(atom, ast.Dollar):
            raise LoweringError(
                "'$' is only supported at the end of a branch "
                "(the Cicero ISA has no mid-pattern end-of-input test)"
            )
        raise LoweringError(f"cannot lower atom {atom!r}")

    def lower_class(self, char_class: ast.CharClass) -> Fragment:
        fragment = Fragment()
        if char_class.negated:
            for code in char_class.members:
                fragment.append_instruction(Opcode.NOT_MATCH, code)
            fragment.append_instruction(Opcode.MATCH_ANY)
            return fragment
        codes = char_class.members
        if len(codes) == 1:
            fragment.append_instruction(Opcode.MATCH, codes[0])
            return fragment
        alt_id = self._next_alt_id()
        sentinel = join_sentinel(alt_id)
        leaves: List[Tuple[int, int]] = []
        for index, code in enumerate(codes):
            is_last = index == len(codes) - 1
            split_at: Optional[int] = None
            if not is_last:
                split_at = fragment.append_instruction(Opcode.SPLIT, 0)
            start = len(fragment)
            fragment.append_instruction(Opcode.MATCH, code)
            leaves.append((start, len(fragment)))
            if not is_last:
                fragment.append_instruction(Opcode.JMP, sentinel)
                fragment.instructions[split_at].operand = len(fragment)
        fragment.resolve_sentinel(sentinel, len(fragment))
        fragment.records.append(AltRecord(kind="join", head=0, leaves=leaves))
        return fragment

    # ------------------------------------------------------------------
    # Pieces (quantifiers)
    # ------------------------------------------------------------------
    # Quantifier expansion follows the original toolchain's style: the
    # atom's mapped fragment is built once and replicated with
    # ``copy.deepcopy`` for each repetition (every copy needs fresh
    # mutable instructions, and mapped code has no other way to
    # re-instantiate a sub-graph).  This is a real cost driver of the
    # old compiler on quantifier-heavy patterns (Fig. 9).

    def lower_piece(self, piece: ast.Piece) -> Fragment:
        minimum, maximum = piece.min, piece.max
        fragment = Fragment()
        if maximum == ast.UNBOUNDED and _atom_nullable(piece.atom):
            raise LoweringError(
                "unbounded quantifier over a possibly-empty sub-pattern "
                "(e.g. '(a?)*') cannot be lowered to the Cicero ISA"
            )
        atom_fragment = self.lower_atom(piece.atom)
        if maximum == ast.UNBOUNDED:
            if minimum == 0:
                self._append_star(fragment, atom_fragment)
            else:
                for _ in range(minimum - 1):
                    fragment.append_fragment(copy.deepcopy(atom_fragment))
                self._append_plus(fragment, atom_fragment)
            return fragment
        for _ in range(minimum):
            fragment.append_fragment(copy.deepcopy(atom_fragment))
        optional_count = maximum - minimum
        if optional_count > 0:
            self._append_optionals(fragment, atom_fragment, optional_count)
        return fragment

    def _append_star(self, fragment: Fragment, atom_fragment: Fragment) -> None:
        loop = len(fragment)
        split_at = fragment.append_instruction(Opcode.SPLIT, 0)
        fragment.append_fragment(copy.deepcopy(atom_fragment))
        fragment.append_instruction(Opcode.JMP, loop)
        fragment.instructions[split_at].operand = len(fragment)

    def _append_plus(self, fragment: Fragment, atom_fragment: Fragment) -> None:
        loop = len(fragment)
        fragment.append_fragment(copy.deepcopy(atom_fragment))
        fragment.append_instruction(Opcode.SPLIT, loop)

    def _append_optionals(
        self, fragment: Fragment, atom_fragment: Fragment, count: int
    ) -> None:
        sentinel = join_sentinel(self._next_alt_id())
        for _ in range(count):
            fragment.append_instruction(Opcode.SPLIT, sentinel)
            fragment.append_fragment(copy.deepcopy(atom_fragment))
        fragment.resolve_sentinel(sentinel, len(fragment))

    # ------------------------------------------------------------------
    # Branches and alternations
    # ------------------------------------------------------------------
    def lower_branch(self, branch: ast.Concatenation) -> Tuple[Fragment, bool]:
        pieces = list(branch.pieces)
        ends_with_dollar = False
        if pieces and isinstance(pieces[-1].atom, ast.Dollar):
            if (pieces[-1].min, pieces[-1].max) != (1, 1):
                raise LoweringError("'$' cannot be quantified")
            ends_with_dollar = True
            pieces = pieces[:-1]
        fragment = Fragment()
        for piece in pieces:
            fragment.append_fragment(self.lower_piece(piece))
        return fragment, ends_with_dollar

    def lower_alternation(self, alternation: ast.Alternation) -> Fragment:
        branches = alternation.branches
        if len(branches) == 1:
            fragment, ends_with_dollar = self.lower_branch(branches[0])
            if ends_with_dollar:
                raise LoweringError(
                    "'$' is only supported at the end of a top-level branch"
                )
            return fragment
        fragment = Fragment()
        alt_id = self._next_alt_id()
        sentinel = join_sentinel(alt_id)
        leaves: List[Tuple[int, int]] = []
        for index, branch in enumerate(branches):
            is_last = index == len(branches) - 1
            split_at: Optional[int] = None
            if not is_last:
                split_at = fragment.append_instruction(Opcode.SPLIT, 0)
            branch_fragment, ends_with_dollar = self.lower_branch(branch)
            if ends_with_dollar:
                raise LoweringError(
                    "'$' is only supported at the end of a top-level branch"
                )
            start = len(fragment)
            fragment.append_fragment(branch_fragment)
            leaves.append((start, len(fragment)))
            if not is_last:
                fragment.append_instruction(Opcode.JMP, sentinel)
                fragment.instructions[split_at].operand = len(fragment)
        fragment.resolve_sentinel(sentinel, len(fragment))
        fragment.records.append(AltRecord(kind="join", head=0, leaves=leaves))
        return fragment

    # ------------------------------------------------------------------
    # Root
    # ------------------------------------------------------------------
    def lower_root(self, pattern: ast.Pattern) -> MappedProgram:
        program = Fragment()
        if pattern.has_prefix:
            program.append_instruction(Opcode.SPLIT, 3)
            program.append_instruction(Opcode.MATCH_ANY)
            program.append_instruction(Opcode.JMP, 0)

        default_acceptance = (
            Opcode.ACCEPT_PARTIAL if pattern.has_suffix else Opcode.ACCEPT
        )
        branches = pattern.root.branches
        leaves: List[Tuple[int, int]] = []
        terminators: List[str] = []
        accept_placed = False
        accept_address: Optional[int] = None
        for index, branch in enumerate(branches):
            is_last = index == len(branches) - 1
            split_at: Optional[int] = None
            if not is_last:
                split_at = program.append_instruction(Opcode.SPLIT, 0)
            branch_fragment, ends_with_dollar = self.lower_branch(branch)
            start = len(program)
            program.append_fragment(branch_fragment)
            leaves.append((start, len(program)))
            if ends_with_dollar and pattern.has_suffix:
                program.append_instruction(Opcode.ACCEPT)
                terminators.append("accept_exact")
            else:
                program.append_instruction(Opcode.JMP, ACCEPT_SENTINEL)
                terminators.append("jmp_accept")
                if not accept_placed:
                    accept_address = len(program)
                    program.append_instruction(default_acceptance)
                    accept_placed = True
            if not is_last:
                program.instructions[split_at].operand = len(program)
        if accept_placed:
            program.resolve_sentinel(ACCEPT_SENTINEL, accept_address)

        if len(branches) > 1 or pattern.has_prefix:
            root_record = AltRecord(
                kind="root",
                head=0,
                leaves=leaves,
                has_prefix=pattern.has_prefix,
                leaf_terminators=terminators,
                default_acceptance=default_acceptance,
            )
            program.records.append(root_record)
        return MappedProgram(program, pattern.text)


@dataclass
class OldCompilationResult:
    """Mirror of the new compiler's result type for the harness."""

    pattern: str
    program: Program
    optimize: bool

    @property
    def metrics(self) -> StaticMetrics:
        return static_metrics(self.program)


class OldCompiler:
    """The baseline compiler (optimize=True enables Code Restructuring).

    Enforces the same resource budgets as the new pipeline (pattern
    length, nesting depth, counted-repetition expansion, program size),
    so callers get typed :class:`~repro.ir.diagnostics.BudgetExceeded`
    errors from either toolchain.
    """

    name = COMPILER_NAME

    def __init__(self, optimize: bool = True, budget: Optional[Budget] = None):
        self.optimize = optimize
        self.budget = budget if budget is not None else DEFAULT_BUDGET

    def compile(self, pattern: str) -> OldCompilationResult:
        budget = self.budget
        budget.check_pattern_length(pattern)
        parsed = parse_regex_old(pattern, max_depth=budget.max_nesting_depth)
        check_pattern_budget(parsed, budget)
        mapped = _OldLowering().lower_root(parsed)
        if self.optimize:
            code_restructuring(mapped)
        program = mapped.to_program(self.name)
        budget.check_program_size(len(program), pattern)
        return OldCompilationResult(
            pattern=pattern, program=program, optimize=self.optimize
        )


def compile_regex_old(pattern: str, optimize: bool = True) -> OldCompilationResult:
    return OldCompiler(optimize=optimize).compile(pattern)
