"""The oracle kill matrix: the mutator, and the committed selection.

``benchmarks/oracle_kills.py`` scores every fuzz oracle against seeded
source mutants; ``BENCH_oracles.json`` is its committed matrix.  These
tests hold the kept oracle set to that matrix: it kills every mutant
the full set killed, and no kept oracle is redundant.
"""

import importlib.util
import json
from pathlib import Path

from repro.fuzz import DEFAULT_ORACLES

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
LABEL_MUTANT = "dialects/cicero/lowering.py::_Emitter.fresh_label:int-1#0"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "oracle_kills", ROOT / "benchmarks" / "oracle_kills.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_matrix():
    return json.loads((ROOT / "BENCH_oracles.json").read_text())


def test_mutator_edits_one_site_and_only_in_memory():
    kills = load_script()
    path = PACKAGE / "dialects" / "cicero" / "lowering.py"
    before = path.read_text()
    ids = [mutant["id"] for mutant in kills.enumerate_mutants(PACKAGE)]
    assert len(ids) == len(set(ids))
    assert LABEL_MUTANT in ids
    assert not any("/fuzz/" in i or "/verify/" in i for i in ids)
    rel, source = kills.mutate(PACKAGE, LABEL_MUTANT)
    assert rel == "dialects/cicero/lowering.py"
    assert "self._label_counter += 0" in source
    assert "self._label_counter += 1" not in source
    assert path.read_text() == before


def test_subset_detection_needs_two_verdict_groups():
    kills = load_script()
    mutant = {"killers": ["sim"], "partitions": [[["sim"], ["old", "vm"]]]}
    assert kills.killed_by(mutant, ["sim", "old"])
    assert not kills.killed_by(mutant, ["old", "vm"])
    assert not kills.killed_by(mutant, ["sim"])
    assert kills.killed_by({"killers": ["hang"], "partitions": []}, [])


def test_committed_matrix_recomputes_and_names_the_kept_oracles():
    kills = load_script()
    matrix = load_matrix()
    summary = kills.summarize(
        matrix["mutants"], matrix["oracles"], matrix["oracle_seconds"]
    )
    assert summary == matrix["summary"]
    assert summary["mutants"] >= 300 and matrix["cases"] >= 30
    assert summary["selection"]["kept"] == list(DEFAULT_ORACLES)


def test_kept_oracles_kill_what_all_thirteen_kill():
    kills = load_script()
    matrix = load_matrix()
    assert len(matrix["oracles"]) == 13
    killed = [m for m in matrix["mutants"]
              if kills.killed_by(m, matrix["oracles"])]
    assert killed and all(
        kills.killed_by(m, DEFAULT_ORACLES) for m in killed
    )
    for name in DEFAULT_ORACLES:
        others = [o for o in DEFAULT_ORACLES if o != name]
        assert any(not kills.killed_by(m, others) for m in killed), name
