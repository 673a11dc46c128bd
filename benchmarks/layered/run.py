"""The layered benchmark's single command.

One workload, one kind of run — what the driver calls; the last line of
standard output is the result as one JSON object::

    python3 benchmarks/layered/run.py --workload scan_enum --seed 7 \\
        --seconds 25 --trace 0

All seven workloads — the four ``BENCHMARK.json`` declares for the driver
and the three run by hand — each in its own subprocess (fresh heap, its own
``ru_maxrss``), with ``--trace 1`` the traced run after the untraced
one, with ``--repeat K`` the whole set K times and the spread of every
end-to-end metric against its bound::

    python3 benchmarks/layered/run.py [--seed N] [--trace 1] [--repeat K] [--out DIR]

Exits non-zero when any verdict differs from the oracle's, any
operation fails, or an exact count differs between passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT, load_contract, spread

HERE = Path(__file__).resolve().parent


def _workloads() -> dict:
    from wl_compile import CompileSuite
    from wl_scan import ScanDfa, ScanEnum, ScanSparse
    from wl_serve import ServeMatch
    from wl_simulate import SimulateArch
    from wl_stream import StreamMulti

    classes = (
        CompileSuite, ScanDfa, ScanSparse, ScanEnum,
        StreamMulti, SimulateArch, ServeMatch,
    )
    return {cls.name: cls for cls in classes}


def run_one(args, contract: dict) -> int:
    """One workload in this process; the result is the last line."""
    from harness import emit, measure, measure_traced

    cls = _workloads()[args.workload]

    def make():
        return cls(args.seed, args.seconds, tiny=args.tiny)

    if args.trace:
        declared = contract["per_layer"]
        units = {entry["name"]: entry["unit"] for entry in declared}
        result = measure_traced(make, args.seconds, units, args.out)
    else:
        declared = contract["end_to_end"]
        result = measure(make, args.seconds, corrupt=args.corrupt_oracle)
    emit(result, declared)
    return 0 if result["correct"] else 1


def run_all(args, contract: dict) -> int:
    """Every workload in its own subprocess; a noise report at the end."""
    names = list(_workloads())
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    seen = {(name, metric): [] for name in names for metric in bounds}
    status = 0
    for _ in range(args.repeat):
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]
                if args.tiny:
                    command.append("--tiny")
                if args.out is not None:
                    command += ["--out", str(args.out)]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.splitlines()
                print("\n".join(lines[:-1]))
                if done.returncode != 0:
                    status = 1
                    print(f"[{name}] FAILED with exit code {done.returncode}")
                    print("\n".join(lines[-1:]))
                    continue
                result = json.loads(lines[-1])
                if not trace:
                    for metric, entry in result["metrics"].items():
                        seen[name, metric].append(entry["value"])
    if args.repeat > 1:
        print(f"\nspread over {args.repeat} runs at seed {args.seed} "
              "(inter-quartile range / median) against the bound")
        for (name, metric), values in seen.items():
            if len(values) < 2:
                continue
            share = spread(values)
            verdict = "ok" if share <= bounds[metric] else "WIDER THAN BOUND"
            print(
                f"  {name:14s} {metric:12s} median {statistics.median(values):12.6g}"
                f"  spread {100 * share:5.2f}%  bound {100 * bounds[metric]:4.0f}%"
                f"  {verdict}"
            )
    return status


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(_workloads()))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times and print "
                             "each metric's spread against its bound")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace-<workload>.jsonl")
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's scale: seconds, not minutes")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="flip one expected verdict; the run must exit 1")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
