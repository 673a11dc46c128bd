"""The campaign runner and the ``repro fuzz`` CLI subcommand."""

import json
import os

from repro.cli import main
from repro.fuzz import CampaignConfig, case_seed, run_campaign
from repro.observability import MetricsRegistry

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _quick_config(**overrides):
    defaults = dict(seconds=60.0, seed=2026, max_cases=3, shrink=False)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_clean_campaign_reports_zero_disagreements():
    registry = MetricsRegistry()
    report = run_campaign(_quick_config(), metrics=registry)
    assert report.cases == 3
    assert report.clean
    assert report.inputs > 0
    # Metrics flowed into the registry under repro_fuzz_*.
    assert registry.sum_values("repro_fuzz_cases_total") == 3
    assert registry.sum_values("repro_fuzz_inputs_total") == report.inputs
    assert registry.sum_values("repro_fuzz_oracle_runs_total") > 0
    assert registry.value("repro_fuzz_campaign_seconds") > 0


def test_campaign_is_deterministic_per_seed():
    first = run_campaign(_quick_config(max_cases=2))
    second = run_campaign(_quick_config(max_cases=2))
    a, b = first.to_dict(), second.to_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_campaign_alternates_generator_kinds():
    registry = MetricsRegistry()
    run_campaign(_quick_config(max_cases=4), metrics=registry)
    assert registry.value(
        "repro_fuzz_cases_total", labels={"kind": "regex"}
    ) == 2
    assert registry.value(
        "repro_fuzz_cases_total", labels={"kind": "ir"}
    ) == 2


def test_case_seed_is_pure_arithmetic():
    assert case_seed(7, 0) != case_seed(7, 1)
    assert case_seed(7, 3) == case_seed(7, 3)
    assert case_seed(7, 0) != case_seed(8, 0)


def test_campaign_report_serializes(tmp_path):
    report = run_campaign(_quick_config(max_cases=1))
    payload = report.to_dict()
    json.dumps(payload)  # JSON-clean
    assert payload["cases"] == 1
    assert payload["disagreements"] == 0
    assert "fuzz campaign" in report.summary()


# -- CLI ---------------------------------------------------------------
def test_cli_fuzz_smoke(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    exit_code = main([
        "fuzz", "--seconds", "1", "--max-cases", "1", "--seed", "5",
        "--no-shrink", "--report", str(report_file), "--metrics",
    ])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "fuzz campaign" in out
    assert "repro_fuzz_cases_total" in out
    payload = json.loads(report_file.read_text())
    assert payload["cases"] == 1


def test_cli_fuzz_replay_corpus(capsys):
    exit_code = main(["fuzz", "--replay", "--corpus-dir", CORPUS_DIR])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "corpus replay" in out


def test_cli_fuzz_rejects_unknown_oracle(capsys):
    exit_code = main(["fuzz", "--oracles", "sim,notreal"])
    assert exit_code == 2
    assert "unknown oracle" in capsys.readouterr().err
