"""Property: the full differential oracle set agrees on every small
generated pattern — the fast-path smoke version of the fuzz campaign
that runs inside tier-1 (satellite of the fuzzing issue)."""

from hypothesis import given, settings

from repro.fuzz import run_case
from strategies import inputs, regex_patterns


@settings(max_examples=25, deadline=None)
@given(pattern=regex_patterns(max_depth=1), text=inputs(max_size=12))
def test_full_oracle_set_agrees(pattern, text):
    result = run_case(
        pattern,
        ["", text],
        max_dfa_states=500,
        equivalence_states=5_000,
    )
    assert result.ok, [d.to_dict() for d in result.disagreements]
