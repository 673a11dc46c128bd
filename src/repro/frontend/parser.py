"""Regular-expression parser: token stream → AST.

Implements the paper's supported operator subset (§3.1): alternation,
concatenation, quantifiers (``* + ? {m} {m,} {m,n}``), literals, ``.``,
character classes, groups, and the ``^``/``$`` anchors.

Anchor semantics follow the paper's ``RootOp`` model, where the implicit
``.*`` prefix/suffix flags are *pattern-global*:

* ``^`` as the very first character sets ``has_prefix = False``; a caret
  anywhere else is rejected (not in the supported subset).
* ``$`` as the very last character sets ``has_suffix = False`` when the
  pattern has a single top-level branch; in multi-branch patterns the
  trailing ``$`` stays a :class:`~repro.frontend.ast_nodes.Dollar` atom of
  its branch (so the other branches keep their implicit suffix).  A ``$``
  that does not end a top-level branch — inside a group, or followed by
  another piece — is rejected: anchors sit only on the root, so such a
  ``$`` is not in the language at any optimization level.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.diagnostics import Location
from .ast_nodes import (
    Alternation,
    AnyChar,
    Char,
    CharClass,
    Concatenation,
    Dollar,
    Pattern,
    Piece,
    SubRegex,
)
from .errors import (
    DEFAULT_MAX_NESTING_DEPTH,
    PatternNestingError,
    RegexSyntaxError,
    UnsupportedRegexError,
)
from .lexer import Token, tokenize

_QUANTIFIER_KINDS = ("STAR", "PLUS", "QMARK", "QUANT")
_UNBOUNDED = -1


class RegexParser:
    """Recursive-descent parser over the lexer's token stream.

    Recursion happens only through groups, so an explicit ``max_depth``
    check on ``(`` bounds the interpreter stack: deeply nested patterns
    raise a typed :class:`PatternNestingError` instead of blowing the
    Python recursion limit.  ``max_depth=None`` disables the guard.
    """

    def __init__(
        self,
        pattern: str,
        max_depth: Optional[int] = DEFAULT_MAX_NESTING_DEPTH,
    ):
        self.pattern = pattern
        self.tokens: List[Token] = tokenize(pattern)
        self.index = 0
        self.max_depth = max_depth
        self._depth = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _error(self, message: str, token: Token) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pattern, token.position)

    def _location(self, token: Token) -> Location:
        return Location(column=token.position)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> Pattern:
        has_prefix = True
        if self._peek().kind == "CARET":
            self._advance()
            has_prefix = False

        root = self._parse_alternation()

        trailing = self._peek()
        if trailing.kind != "END":
            if trailing.kind == "RPAREN":
                raise self._error("unbalanced ')'", trailing)
            raise self._error(
                f"unexpected {trailing.kind} at top level", trailing
            )

        has_suffix = True
        if len(root.branches) == 1:
            has_suffix = not self._strip_trailing_dollar(root.branches[0])
        return Pattern(
            root=root,
            has_prefix=has_prefix,
            has_suffix=has_suffix,
            text=self.pattern,
        )

    @staticmethod
    def _strip_trailing_dollar(branch: Concatenation) -> bool:
        """Remove a final unquantified ``$`` piece; True if one was there."""
        if branch.pieces:
            last = branch.pieces[-1]
            if isinstance(last.atom, Dollar) and not last.is_quantified:
                branch.pieces.pop()
                return True
        return False

    # ------------------------------------------------------------------
    # Grammar productions
    # ------------------------------------------------------------------
    def _parse_alternation(self) -> Alternation:
        start = self._peek()
        branches = [self._parse_concatenation()]
        while self._peek().kind == "PIPE":
            self._advance()
            branches.append(self._parse_concatenation())
        return Alternation(branches=branches, location=self._location(start))

    def _parse_concatenation(self) -> Concatenation:
        start = self._peek()
        pieces: List[Piece] = []
        while self._peek().kind not in ("PIPE", "RPAREN", "END"):
            pieces.append(self._parse_piece())
        return Concatenation(pieces=pieces, location=self._location(start))

    def _parse_piece(self) -> Piece:
        token = self._peek()
        if token.kind in _QUANTIFIER_KINDS:
            raise self._error("quantifier with nothing to repeat", token)
        atom = self._parse_atom()
        minimum, maximum = 1, 1
        quantifier = self._peek()
        if quantifier.kind in _QUANTIFIER_KINDS:
            self._advance()
            if quantifier.kind == "STAR":
                minimum, maximum = 0, _UNBOUNDED
            elif quantifier.kind == "PLUS":
                minimum, maximum = 1, _UNBOUNDED
            elif quantifier.kind == "QMARK":
                minimum, maximum = 0, 1
            else:
                minimum, maximum = quantifier.value
            follower = self._peek()
            if follower.kind in _QUANTIFIER_KINDS:
                raise self._error(
                    "multiple quantifiers on one atom are not supported",
                    follower,
                )
            if isinstance(atom, Dollar):
                raise self._error("'$' cannot be quantified", quantifier)
        if isinstance(atom, Dollar) and (
            self._depth or self._peek().kind not in ("PIPE", "END", "RPAREN")
        ):
            raise UnsupportedRegexError(
                "'$' is only supported at the end of a top-level branch",
                self.pattern,
                token.position,
            )
        return Piece(
            atom=atom, min=minimum, max=maximum, location=self._location(token)
        )

    def _parse_atom(self):
        token = self._advance()
        location = self._location(token)
        if token.kind == "LITERAL":
            return Char(code=token.value, location=location)
        if token.kind == "DOT":
            return AnyChar(location=location)
        if token.kind == "CLASS":
            members, negated = token.value
            return CharClass(members=members, negated=negated, location=location)
        if token.kind == "DOLLAR":
            return Dollar(location=location)
        if token.kind == "CARET":
            raise UnsupportedRegexError(
                "'^' is only supported at the start of the pattern",
                self.pattern,
                token.position,
            )
        if token.kind == "LPAREN":
            self._depth += 1
            if self.max_depth is not None and self._depth > self.max_depth:
                raise PatternNestingError(
                    self.pattern, token.position, self.max_depth
                )
            body = self._parse_alternation()
            self._depth -= 1
            closer = self._advance()
            if closer.kind != "RPAREN":
                raise self._error("unbalanced '('", token)
            return SubRegex(body=body, location=location)
        if token.kind == "RPAREN":
            raise self._error("unbalanced ')'", token)
        raise self._error(f"unexpected {token.kind}", token)


def parse_regex(
    pattern: str, max_depth: Optional[int] = DEFAULT_MAX_NESTING_DEPTH
) -> Pattern:
    """Parse ``pattern`` into a :class:`~repro.frontend.ast_nodes.Pattern`.

    Raises :class:`~repro.frontend.errors.RegexSyntaxError` for malformed
    input, :class:`~repro.frontend.errors.UnsupportedRegexError` for
    constructs outside the supported subset, and
    :class:`~repro.frontend.errors.PatternNestingError` when group
    nesting exceeds ``max_depth`` (``None`` disables the guard).
    """
    return RegexParser(pattern, max_depth=max_depth).parse()
