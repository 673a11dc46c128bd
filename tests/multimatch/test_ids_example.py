"""``examples/multi_pattern_ids.py`` runs, and its pruned verdicts hold.

The example asserts that :class:`PrefilteredMultiMatchVM` reports the
same ids as the bare :class:`MultiMatchVM` on every event, so running
it is a check of its own.
"""

import runpy
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "multi_pattern_ids.py"


def test_multi_pattern_ids_example_runs(capsys):
    runpy.run_path(str(EXAMPLE), run_name="__main__")
    out = capsys.readouterr().out
    assert "5 rules -> one program of" in out
    assert "chunk filters prune 5 of 5 rules" in out
    assert "[sql-injection" in out
