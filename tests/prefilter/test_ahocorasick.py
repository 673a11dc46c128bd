"""Overlapping-literal attribution, the job an Aho-Corasick automaton did.

The shared automaton is gone; each rule now carries its own chunk
filter.  These tests pin that the per-rule filters still attribute
every literal that occurs, overlaps included.
"""

import re

from repro.multimatch import compile_multipattern
from repro.prefilter.multi import PrefilteredMultiMatchVM


class TestAttribution:
    def test_overlapping_literals_both_attributed(self):
        # The reason a compiled re alternation is not enough: the
        # stdlib scanner resumes after each match, so ab|ba sees only
        # "ab" in "aba".  One filter per rule must report both.
        filtered = PrefilteredMultiMatchVM(compile_multipattern(["ab", "ba"]))
        assert filtered.filtered_ids == frozenset({1, 2})
        assert frozenset(
            match_id for match_id, accept in filtered._filters if accept(b"aba")
        ) == frozenset({1, 2})
        assert len(re.findall(b"ab|ba", b"aba")) == 1
