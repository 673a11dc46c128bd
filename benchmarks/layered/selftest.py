"""Self-test of the layered benchmark harness, at a tiny scale.

    python3 benchmarks/layered/selftest.py
    python3 -m pytest benchmarks/layered/selftest.py

Not part of the tier-1 suite (``testpaths`` is ``tests``): it spawns
the daemon and every workload, and takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from harness import ROOT, load_contract  # noqa: E402
from run import _workloads  # noqa: E402

CONTRACT = load_contract()
#: The workloads the driver runs, then the ones run by hand only.
DECLARED = [entry["name"] for entry in CONTRACT["workloads"]]
WORKLOADS = DECLARED + [name for name in _workloads() if name not in DECLARED]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--tiny", "--seconds", "0.3", *extra,
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.splitlines()[-1])


def test_names_are_well_formed_and_unique():
    names = WORKLOADS + [
        entry["name"] for kind in ("end_to_end", "per_layer") for entry in CONTRACT[kind]
    ]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert set(DECLARED) <= set(_workloads())
    assert CONTRACT["paths"] == ["benchmarks/layered"]


def test_every_declared_metric_is_emitted_once_per_workload():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        declared = [entry["name"] for entry in CONTRACT[kind]]
        for workload in WORKLOADS:
            done = _run(workload, "--trace", trace)
            assert done.returncode == 0, done.stdout
            result = _result(done)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            # json.loads keeps the last of duplicate keys: count them raw.
            line = done.stdout.splitlines()[-1]
            for name in declared:
                assert line.count(json.dumps(name) + ":") == 1, (workload, name)
            assert list(result["metrics"]) == declared
            units = {entry["name"]: entry["unit"] for entry in CONTRACT[kind]}
            for name, entry in result["metrics"].items():
                assert entry["unit"] == units[name]
                assert isinstance(entry["value"], (int, float))
                if kind == "end_to_end":
                    assert entry["value"] > 0, (workload, name)


def test_traced_run_reaches_each_workloads_own_layers():
    own = {
        "compile_suite": "dialects.cicero.lowering.busy_s",
        "scan_dfa": "prefilter.lazydfa.busy_s",
        "scan_sparse": "prefilter.filter.busy_s",
        "scan_enum": "engine.build_entry.busy_s",
        "stream_multi": "vm.streaming.feed.busy_s",
        "simulate_arch": "arch.new16.host_s",
        "serve_match": "service.match.p50_ms",
    }
    for workload, layer in own.items():
        metrics = _result(_run(workload, "--trace", "1"))["metrics"]
        assert metrics[layer]["value"] > 0, (workload, layer)


def _digest(workload: str, seed: int) -> str:
    instance = _workloads()[workload](seed, 0.3, tiny=True)
    try:
        instance.setup()
        return hashlib.sha256(instance.input_bytes()).hexdigest()
    finally:
        instance.close()


def test_seed_decides_the_inputs():
    for workload in WORKLOADS:
        first = _digest(workload, 11)
        assert first == _digest(workload, 11), workload
        assert first != _digest(workload, 12), workload


def test_a_wrong_oracle_entry_fails_the_run():
    for workload in WORKLOADS:
        done = _run(workload, "--corrupt-oracle")
        assert done.returncode == 1, (workload, done.stdout)
        result = _result(done)
        assert result["correct"] is False and result["failed"] >= 1


def test_no_program_means_no_result():
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    import shutil
    import tempfile

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(
            HERE, scratch / "benchmarks" / "layered",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            CONTRACT["command"] + ["--workload", DECLARED[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
            cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert done.returncode != 0
        assert done.stdout == ""
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
