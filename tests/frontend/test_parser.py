"""Regex parser tests: AST structure and anchor semantics."""

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend.errors import RegexSyntaxError, UnsupportedRegexError
from repro.frontend.parser import parse_regex


def only_branch(pattern):
    parsed = parse_regex(pattern)
    assert len(parsed.root.branches) == 1
    return parsed.root.branches[0]


class TestBasicStructure:
    def test_concatenation(self):
        branch = only_branch("abc")
        assert [piece.atom.code for piece in branch.pieces] == [97, 98, 99]

    def test_alternation(self):
        parsed = parse_regex("a|b|c")
        assert len(parsed.root.branches) == 3

    def test_empty_branch_allowed(self):
        parsed = parse_regex("a|")
        assert len(parsed.root.branches) == 2
        assert parsed.root.branches[1].pieces == []

    def test_group(self):
        branch = only_branch("(ab)c")
        assert isinstance(branch.pieces[0].atom, ast.SubRegex)
        assert isinstance(branch.pieces[1].atom, ast.Char)

    def test_nested_groups(self):
        branch = only_branch("((a))")
        inner = branch.pieces[0].atom.body.branches[0].pieces[0].atom
        assert isinstance(inner, ast.SubRegex)

    def test_dot(self):
        assert isinstance(only_branch(".").pieces[0].atom, ast.AnyChar)

    def test_char_class(self):
        atom = only_branch("[^ab]").pieces[0].atom
        assert isinstance(atom, ast.CharClass)
        assert atom.negated
        assert atom.matches(ord("z"))
        assert not atom.matches(ord("a"))


class TestQuantifiers:
    @pytest.mark.parametrize(
        "pattern,bounds",
        [
            ("a*", (0, ast.UNBOUNDED)),
            ("a+", (1, ast.UNBOUNDED)),
            ("a?", (0, 1)),
            ("a{3}", (3, 3)),
            ("a{2,}", (2, ast.UNBOUNDED)),
            ("a{2,5}", (2, 5)),
            ("a", (1, 1)),
        ],
    )
    def test_bounds(self, pattern, bounds):
        piece = only_branch(pattern).pieces[0]
        assert (piece.min, piece.max) == bounds

    def test_quantified_group(self):
        piece = only_branch("(ab)+").pieces[0]
        assert isinstance(piece.atom, ast.SubRegex)
        assert (piece.min, piece.max) == (1, ast.UNBOUNDED)

    def test_double_quantifier_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse_regex("a**")

    def test_leading_quantifier_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse_regex("*a")
        with pytest.raises(RegexSyntaxError):
            parse_regex("|+a")

    def test_quantified_dollar_rejected(self):
        with pytest.raises(RegexSyntaxError):
            parse_regex("a$+")


class TestAnchors:
    def test_default_flags(self):
        parsed = parse_regex("abc")
        assert parsed.has_prefix and parsed.has_suffix

    def test_leading_caret(self):
        parsed = parse_regex("^abc")
        assert not parsed.has_prefix
        assert parsed.has_suffix

    def test_trailing_dollar(self):
        parsed = parse_regex("abc$")
        assert parsed.has_prefix
        assert not parsed.has_suffix
        # the dollar is consumed, not left as an atom
        assert len(parsed.root.branches[0].pieces) == 3

    def test_both_anchors(self):
        parsed = parse_regex("^abc$")
        assert not parsed.has_prefix and not parsed.has_suffix

    def test_dollar_in_multibranch_stays_an_atom(self):
        parsed = parse_regex("a$|b")
        assert parsed.has_suffix  # global flag untouched
        last_piece = parsed.root.branches[0].pieces[-1]
        assert isinstance(last_piece.atom, ast.Dollar)

    def test_mid_caret_unsupported(self):
        with pytest.raises(UnsupportedRegexError):
            parse_regex("a^b")

    @pytest.mark.parametrize(
        "pattern, column",
        [("(ga|gb$)", 6), ("x(a|b$)", 5), ("(a|b$)c", 4), ("a$b", 1), ("a$|b$c", 4)],
    )
    def test_dollar_not_ending_a_top_level_branch_unsupported(self, pattern, column):
        with pytest.raises(UnsupportedRegexError) as excinfo:
            parse_regex(pattern)
        assert excinfo.value.column == column

    @pytest.mark.parametrize("pattern", ["ga|gb$", "ab$", "^abc$", "$", "a$|b"])
    def test_dollar_ending_a_top_level_branch_parses(self, pattern):
        parse_regex(pattern)

    def test_caret_only(self):
        parsed = parse_regex("^")
        assert not parsed.has_prefix


class TestErrors:
    @pytest.mark.parametrize("pattern", ["(ab", "ab)", "(a|b))", "((a)"])
    def test_unbalanced_parens(self, pattern):
        with pytest.raises(RegexSyntaxError):
            parse_regex(pattern)

    def test_pattern_text_retained(self):
        assert parse_regex("ab|c").text == "ab|c"


class TestDump:
    def test_dump_renders_all_node_kinds(self):
        parsed = parse_regex("a(b|[^cd].){2,3}$|x")
        text = ast.dump(parsed)
        for token in ("Pattern", "Alternation", "Concatenation", "Piece",
                      "Char", "SubRegex", "CharClass", "AnyChar"):
            assert token in text

    def test_piece_validation(self):
        with pytest.raises(ValueError):
            ast.Piece(atom=ast.Char(code=97), min=-1, max=2)
        with pytest.raises(ValueError):
            ast.Piece(atom=ast.Char(code=97), min=3, max=2)

    def test_char_validation(self):
        with pytest.raises(ValueError):
            ast.Char(code=300)
