"""Compile-time literal / first-byte analysis over the ``regex`` dialect.

The engine's VM fast path still walks *every* input byte through the
ε-closure interpreter; on sparse-match corpus scans almost all of that
work touches bytes a compile-time analysis can prove irrelevant.  This
module is that analysis: a pass over the (optimized) ``regex``-dialect
module that extracts

* **required literals** — for each top-level alternation branch, a byte
  string that occurs in *every* input the branch matches.  A chunk that
  contains none of the branch literals cannot match, so the scanner can
  reject it with ``bytes.find`` (memchr speed in CPython) without ever
  entering the VM.
* **a required prefix** — the forced leading bytes of the match body.
  For start-anchored patterns (``^…``) the chunk-level test degenerates
  to a single ``startswith``.
* **first-byte sets** — every byte a match can start with.  When no
  branch yields a literal but the set is small, a character-class scan
  still rejects chunks containing none of those bytes.

The verdict is *advisory by construction*: an analysis may say "maybe"
for a chunk that does not match (the VM settles it), but it must never
say "no" for a chunk that does — the soundness property the Hypothesis
suite checks against the golden-model VM.  When nothing useful can be
extracted (a leading ``.*``, an alternation branch with no forced
bytes, a branch that matches the empty string) the analysis returns an
explicit **inert** verdict with a reason, and every scanner layer falls
through to full verification.

The result is a plain frozen dataclass so it pickles with the
:class:`~repro.isa.program.Program` it is attached to — cached entries
and sharded worker processes see exactly the metadata the compiling
process extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dialects.regex.ops import (
    ConcatenationOp,
    DollarOp,
    GroupOp,
    MatchAnyCharOp,
    MatchCharOp,
    RootOp,
    SubRegexOp,
)

#: First-byte sets larger than this filter too weakly to pay for the
#: extra pass over the chunk; the analysis reports them as absent.
MAX_FIRST_BYTES = 16

#: All 256 byte values — a first-byte set this wide filters nothing.
_ALL_BYTES = frozenset(range(256))


@dataclass(frozen=True)
class PrefilterAnalysis:
    """What the compile-time pass could prove about a pattern's matches.

    ``literals`` holds one required literal per top-level branch (the
    longest forced run in that branch) — ``None`` when at least one
    branch has no forced run, in which case literal prefiltering is
    unsound.  ``first_bytes`` is the sorted tuple of possible first
    bytes (``None`` when unknown or wider than
    :data:`MAX_FIRST_BYTES`).  ``prefix`` is the forced leading byte
    string shared by every branch (possibly empty); it anchors a
    ``startswith`` test only when ``anchored_start`` is set.
    """

    #: One required literal per top-level branch; ``None`` = unusable.
    literals: Optional[Tuple[bytes, ...]] = None
    #: Bytes every match must start with (meaningful with anchoring).
    prefix: bytes = b""
    #: Possible first bytes of a match, ascending; ``None`` = unknown.
    first_bytes: Optional[Tuple[int, ...]] = None
    #: ``True`` when the pattern has no implicit ``.*`` prefix (``^``).
    anchored_start: bool = False
    #: Why nothing usable was extracted (empty when something was).
    inert_reason: str = ""

    @property
    def inert(self) -> bool:
        """No stage of the prefilter pipeline can use this analysis."""
        return (
            self.literals is None
            and self.first_bytes is None
            and not (self.anchored_start and self.prefix)
        )

    @property
    def min_literal_len(self) -> int:
        if not self.literals:
            return 0
        return min(len(literal) for literal in self.literals)

    def to_dict(self) -> dict:
        """A stable, JSON-friendly fingerprint (tests compare these
        across pickling and process boundaries)."""
        return {
            "literals": (
                None
                if self.literals is None
                else [literal.decode("latin-1") for literal in self.literals]
            ),
            "prefix": self.prefix.decode("latin-1"),
            "first_bytes": (
                None if self.first_bytes is None else list(self.first_bytes)
            ),
            "anchored_start": self.anchored_start,
            "inert": self.inert,
            "inert_reason": self.inert_reason,
        }


#: The analysis attached when extraction is impossible or disabled.
INERT_ANALYSIS = PrefilterAnalysis(inert_reason="no analysis performed")


@dataclass
class _BranchFacts:
    """What one alternation branch forces on its matches."""

    #: Maximal forced byte runs, in branch order.
    runs: List[bytes] = field(default_factory=list)
    #: Forced bytes at the very start of the branch.
    prefix: bytes = b""
    #: Possible first bytes (``None`` = any byte / unknown).
    first_bytes: Optional[frozenset] = frozenset()
    #: Does the branch match the empty string?
    can_be_empty: bool = True

    @property
    def best_literal(self) -> bytes:
        """The longest forced run (ties broken towards the front)."""
        best = b""
        for run in self.runs:
            if len(run) > len(best):
                best = run
        return best


def _atom_charset(atom) -> Optional[frozenset]:
    """The possible byte values one consuming atom accepts.

    ``None`` means "any byte" (cheaper than materializing 256 members
    and recognized by the first-byte unioning as "give up").
    """
    if isinstance(atom, MatchCharOp):
        return frozenset((atom.code,))
    if isinstance(atom, GroupOp):
        members = frozenset(atom.charset.chars())
        if atom.negated:
            members = _ALL_BYTES - members
        return members
    if isinstance(atom, MatchAnyCharOp):
        return None
    raise TypeError(f"not a charset atom: {atom.name}")


class _BranchAnalyzer:
    """Single forward walk over one branch's pieces.

    Forced-run bookkeeping: an atom with exactly one possible byte and
    ``min >= 1`` appends ``byte * min`` to the current run; anything
    optional, multi-byte, or with ``max > min`` *closes* the run —
    ``a{2,4}c`` forces ``aa`` but not ``aac``, because the optional
    repeats sit between the forced copies and the ``c``.
    """

    def __init__(self) -> None:
        self.facts = _BranchFacts()
        self._run = bytearray()
        self._prefix_active = True
        self._first_done = False

    # -- forced-run bookkeeping ---------------------------------------
    def _flush_run(self) -> None:
        if self._run:
            self.facts.runs.append(bytes(self._run))
            if self._prefix_active:
                self.facts.prefix = bytes(self._run)
            self._run.clear()
        self._prefix_active = False

    def _append_forced(self, byte: int, count: int, exact: bool) -> None:
        self._run.extend(bytes((byte,)) * count)
        if not exact:
            # Optional extra repeats break adjacency with what follows;
            # the forced copies themselves still end the prefix.
            self._flush_run()

    # -- first-byte bookkeeping ---------------------------------------
    def _union_first(self, charset: Optional[frozenset]) -> None:
        if self._first_done:
            return
        if charset is None or self.facts.first_bytes is None:
            self.facts.first_bytes = None
        else:
            self.facts.first_bytes = self.facts.first_bytes | charset

    # -- piece walk ----------------------------------------------------
    def add_piece(self, piece) -> None:
        atom = piece.atom
        minimum, maximum = piece.bounds
        if isinstance(atom, DollarOp):
            # Consumes nothing; forces nothing beyond "the branch ends
            # here", which the run bookkeeping already captures.
            self._flush_run()
            return
        if isinstance(atom, SubRegexOp):
            self._add_sub_regex(atom, minimum, maximum)
            return
        charset = _atom_charset(atom)
        self._union_first(charset)
        if minimum >= 1:
            self.facts.can_be_empty = False
            self._first_done = True
            if charset is not None and len(charset) == 1:
                self._append_forced(
                    next(iter(charset)), minimum, exact=maximum == minimum
                )
            else:
                self._flush_run()
        else:
            self._flush_run()

    def _add_sub_regex(self, atom: SubRegexOp, minimum: int, maximum: int) -> None:
        sub_facts = [_analyze_branch(branch) for branch in atom.alternatives]
        sub_can_be_empty = any(facts.can_be_empty for facts in sub_facts)
        first_union: Optional[frozenset] = frozenset()
        for facts in sub_facts:
            if facts.first_bytes is None or first_union is None:
                first_union = None
            else:
                first_union = first_union | facts.first_bytes
        self._union_first(first_union)
        consumed = minimum >= 1 and not sub_can_be_empty
        if consumed:
            self.facts.can_be_empty = False
            self._first_done = True
        # The group's internal alignment with the surrounding pieces is
        # unknown, so the current run always closes here.
        self._flush_run()
        if minimum >= 1 and len(sub_facts) == 1:
            # A required single-branch group contributes its own runs as
            # standalone required literals (adjacency with the outside
            # is already severed by the flush above).
            self.facts.runs.extend(sub_facts[0].runs)

    def finish(self) -> _BranchFacts:
        self._flush_run()
        facts = self.facts
        if facts.first_bytes is not None and (
            not facts.first_bytes or len(facts.first_bytes) > MAX_FIRST_BYTES
        ):
            # Empty = the branch consumes nothing (matches-empty is
            # reported separately); oversized = filters too weakly.
            facts.first_bytes = None
        return facts


def _analyze_branch(branch: ConcatenationOp) -> _BranchFacts:
    analyzer = _BranchAnalyzer()
    for piece in branch.pieces:
        analyzer.add_piece(piece)
    return analyzer.finish()


def analyze_module(module) -> PrefilterAnalysis:
    """Extract prefilter facts from a module holding one ``regex.root``.

    Runs over the *optimized* module (the same IR every back-end lowers
    from), so factorized alternations and simplified sub-regexes yield
    the longest extractable literals.  Never raises on analyzable input
    shapes it does not understand — unknown structure degrades to the
    inert verdict, keeping the analysis purely advisory.
    """
    roots = [op for op in module.body.operations if isinstance(op, RootOp)]
    if len(roots) != 1:
        return PrefilterAnalysis(inert_reason="module has no single regex.root")
    root = roots[0]
    anchored_start = not root.has_prefix
    try:
        branch_facts = [_analyze_branch(branch) for branch in root.alternatives]
    except (TypeError, AttributeError):  # unknown atom shape: stay advisory
        return PrefilterAnalysis(
            anchored_start=anchored_start,
            inert_reason="unrecognized pattern structure",
        )

    if any(facts.can_be_empty for facts in branch_facts):
        return PrefilterAnalysis(
            anchored_start=anchored_start,
            inert_reason="a branch matches the empty string",
        )

    literals: Optional[List[bytes]] = []
    for facts in branch_facts:
        literal = facts.best_literal
        if not literal:
            literals = None
            break
        literals.append(literal)

    first_bytes: Optional[frozenset] = frozenset()
    for facts in branch_facts:
        if facts.first_bytes is None or first_bytes is None:
            first_bytes = None
            break
        first_bytes = first_bytes | facts.first_bytes
    if first_bytes is not None and len(first_bytes) > MAX_FIRST_BYTES:
        first_bytes = None

    prefixes = [facts.prefix for facts in branch_facts]
    prefix = prefixes[0] if prefixes else b""
    for other in prefixes[1:]:
        limit = min(len(prefix), len(other))
        index = 0
        while index < limit and prefix[index] == other[index]:
            index += 1
        prefix = prefix[:index]
        if not prefix:
            break

    inert_reason = ""
    if literals is None and first_bytes is None and not (
        anchored_start and prefix
    ):
        inert_reason = "no usable literal or first-byte set"
    return PrefilterAnalysis(
        literals=None if literals is None else tuple(literals),
        prefix=prefix,
        first_bytes=None if first_bytes is None else tuple(sorted(first_bytes)),
        anchored_start=anchored_start,
        inert_reason=inert_reason,
    )


def analyze_pattern(pattern: str, optimize: bool = True) -> PrefilterAnalysis:
    """Parse + optimize + analyze in one call (tests and tooling)."""
    from ..compiler import CompileOptions, NewCompiler

    options = CompileOptions() if optimize else CompileOptions.none()
    return NewCompiler(options).front(pattern).analysis


__all__ = [
    "INERT_ANALYSIS",
    "MAX_FIRST_BYTES",
    "PrefilterAnalysis",
    "analyze_module",
    "analyze_pattern",
]
