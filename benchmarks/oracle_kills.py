#!/usr/bin/env python
"""Score the fuzz oracles against seeded source mutants.

A *mutant* is the product source with one small edit, made on the
standard :mod:`ast` module: flip a comparison (``<`` ↔ ``>=``, ``==`` ↔
``!=``, ``in`` ↔ ``not in`` …), add or subtract 1 from an integer
constant, swap ``and``/``or``, or replace one statement of a function
body with ``pass``.  Only product code is mutated (:data:`TARGETS`: the
regex and cicero passes, lowering, codegen, the matching kernel,
streaming, the lazy DFA, the prefilter, multi-match, the cycle
simulator and the old compiler), never the code the oracles themselves
are (``verify/``, ``fuzz/``).

Each mutant runs in its own scratch copy of ``src/`` (never in the
checkout), in a subprocess that plays the first ``--cases`` cases of
the seeded fuzz campaign through ``repro.fuzz.run_case``, under a
per-mutant wall bound of four times the pristine run (at least 60 s),
:data:`JOBS` mutants at a time.  A mutant is
*killed* when the campaign would report it: an oracle disagreement, an
equivalence counterexample, a ``compile`` disagreement, a crash, or a
hang past the wall bound.

Per mutant the matrix records which oracles kill it — an oracle kills
a mutant when, on a probe the oracles disagree about, its verdict
differs from the pristine tree's — and, for recomputing any oracle
subset, the *partitions*: each disagreeing probe's oracles grouped by
verdict.  A subset still detects the probe when its members fall into
two groups.  :func:`select_oracles` then drops input-level oracles one
at a time, most expensive first by ``repro_fuzz_oracle_seconds``,
keeping a drop only if every mutant the full set kills stays killed.

Usage (the matrix in ``BENCH_oracles.json`` came from the first line)::

    python benchmarks/oracle_kills.py --rev d643d36 --seed 12648512 \\
        --mutants 300 --cases 30 --out BENCH_oracles.json
    python benchmarks/oracle_kills.py --analyze BENCH_oracles.json
    python benchmarks/oracle_kills.py --cases 4 --require-killed \\
        --mutant 'dialects/cicero/lowering.py::_Emitter.fresh_label:int-1#0'

``--rev`` mutates that commit's ``src/`` (via ``git archive``) instead
of the working tree's; ``--require-killed`` exits 1 unless every
selected mutant is killed.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import importlib.util
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set,
)

REPO = Path(__file__).resolve().parent.parent

#: Mutated files and directories, relative to ``src/repro``.
TARGETS = (
    "dialects/regex/transforms",
    "dialects/cicero/transforms",
    "dialects/cicero/lowering.py",
    "dialects/cicero/codegen.py",
    "vm/kernel.py",
    "vm/streaming.py",
    "prefilter/lazydfa.py",
    "prefilter/scanner.py",
    "prefilter/analysis.py",
    "multimatch",
    "arch/system.py",
    "oldcompiler",
)

#: Mutants run at once; each holds one campaign process.
JOBS = 2

#: Kills no oracle choice can lose: typed compile rejections, crashes,
#: hangs and the two program-level equivalence checks, which are not
#: deletion candidates (translation validation builds on them) and run
#: whichever input-level oracles are selected.
ALWAYS_ON = ("equivalence-opt", "equivalence-old", "compile", "crash", "hang")

_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}


# -- mutation sites ----------------------------------------------------------
class Site(NamedTuple):
    """One mutation of one file; ``apply`` edits the parsed tree."""

    id: str
    line: int
    before: str
    apply: Callable[[], None]


class _SiteFinder(ast.NodeVisitor):
    """Collects every site of one module, named ``qualname:op#n`` so an
    id survives edits elsewhere in the file."""

    def __init__(self, rel: str, lines: List[str]):
        self.rel = rel
        self.lines = lines
        self.scope: List[str] = []
        self.in_function = 0
        self.counts: Dict[str, int] = {}
        self.sites: List[Site] = []

    def _add(self, op: str, node: ast.AST, apply: Callable[[], None]) -> None:
        key = f"{'.'.join(self.scope) or '<module>'}:{op}"
        index = self.counts.get(key, 0)
        self.counts[key] = index + 1
        line = self.lines[node.lineno - 1].strip()[:80]
        self.sites.append(Site(f"{self.rel}::{key}#{index}", node.lineno,
                               line, apply))

    def _scoped(self, node, function: bool) -> None:
        self.scope.append(node.name)
        self.in_function += function
        self.visit_body_owner(node)
        self.in_function -= function
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        self._scoped(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self._scoped(node, False)

    def generic_visit(self, node) -> None:
        self.visit_body_owner(node)

    def visit_body_owner(self, node) -> None:
        if self.in_function:
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                if isinstance(body, list):
                    for index, stmt in enumerate(body):
                        if isinstance(stmt, ast.stmt) and not _docstring(
                            body, index
                        ):
                            self._add("drop", stmt, _dropper(body, index))
        super().generic_visit(node)

    def visit_Compare(self, node) -> None:
        for index, op in enumerate(node.ops):
            self._add("cmp", node,
                      lambda node=node, i=index: node.ops.__setitem__(
                          i, _FLIP[type(node.ops[i])]()))
        self.generic_visit(node)

    def visit_BoolOp(self, node) -> None:
        self._add("boolop", node, lambda: setattr(
            node, "op", ast.Or() if isinstance(node.op, ast.And) else ast.And()
        ))
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if type(node.value) is int:
            for delta, op in ((1, "int+1"), (-1, "int-1")):
                self._add(op, node, lambda d=delta: setattr(
                    node, "value", node.value + d))


def _docstring(body: list, index: int) -> bool:
    stmt = body[index]
    return (index == 0 and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _dropper(body: list, index: int) -> Callable[[], None]:
    def drop() -> None:
        body[index] = ast.copy_location(ast.Pass(), body[index])
    return drop


def _sites(source: str, rel: str) -> tuple:
    tree = ast.parse(source)
    finder = _SiteFinder(rel, source.splitlines())
    finder.visit(tree)
    return tree, finder.sites


def target_files(package: Path) -> List[Path]:
    files: List[Path] = []
    for target in TARGETS:
        path = package / target
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*.py"))
                         if p.name != "__init__.py")
        else:
            files.append(path)
    return files


def enumerate_mutants(package: Path) -> List[Dict]:
    """Every mutant of the target files under ``package`` (``src/repro``)."""
    mutants = []
    for path in target_files(package):
        rel = path.relative_to(package).as_posix()
        for site in _sites(path.read_text(), rel)[1]:
            mutants.append({"id": site.id, "line": site.line,
                            "before": site.before})
    return mutants


def mutate(package: Path, mutant_id: str) -> tuple:
    """``(relative path, mutated source)`` for one mutant id."""
    rel = mutant_id.split("::", 1)[0]
    tree, sites = _sites((package / rel).read_text(), rel)
    (site,) = [site for site in sites if site.id == mutant_id]
    site.apply()
    source = ast.unparse(tree)
    compile(source, rel, "exec")  # a mutant must still be valid Python
    return rel, source


def package_of(mutant_id: str) -> str:
    rel = mutant_id.split("::", 1)[0]
    return rel.rsplit("/", 1)[0] if "/" in rel else rel


# -- the worker: one tree, N campaign cases ---------------------------------
def worker(seed: int, cases: int, result_path: str, metrics: bool) -> None:
    """Play cases ``0..cases-1`` of campaign ``seed`` on the ``repro``
    importable from ``PYTHONPATH`` and write what each reported."""
    from repro.fuzz.campaign import CampaignConfig, _generate_case, case_seed
    from repro.fuzz.oracles import DEFAULT_ORACLES, run_case
    from repro.observability import MetricsRegistry

    config = CampaignConfig(seed=seed)
    registry = MetricsRegistry() if metrics else None
    out: Dict = {"oracles": list(DEFAULT_ORACLES), "cases": []}
    for index in range(cases):
        kind = config.kinds[index % len(config.kinds)]
        record: Dict = {"index": index}
        try:
            text, module, inputs = _generate_case(
                kind, case_seed(seed, index), config
            )
            result = run_case(text, inputs, module=module, metrics=registry)
            record["disagreements"] = [
                d.to_dict() for d in result.disagreements
            ]
        except Exception as error:  # a crash kills the mutant
            record["crash"] = f"{type(error).__name__}: {error}"[:200]
        out["cases"].append(record)
    if registry is not None:
        out["oracle_seconds"] = {
            name: registry.histogram(
                "repro_fuzz_oracle_seconds", labels={"oracle": name}
            ).sum
            for name in DEFAULT_ORACLES
        }
    Path(result_path).write_text(json.dumps(out))


def run_worker(tree: Path, seed: int, cases: int, wall: Optional[float],
               metrics: bool = False) -> Dict:
    """Run :func:`worker` on ``tree`` (a copy holding ``src/``)."""
    result = tree / "result.json"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--seed", str(seed), "--cases", str(cases),
               "--result", str(result)] + (["--metrics"] if metrics else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=wall)
    except subprocess.TimeoutExpired:
        return {"hang": True, "seconds": time.monotonic() - started}
    seconds = time.monotonic() - started
    if proc.returncode != 0 or not result.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crash": tail[:200], "seconds": seconds}
    out = json.loads(result.read_text())
    out["seconds"] = seconds
    return out


# -- scoring -----------------------------------------------------------------
class Truth:
    """The pristine tree's verdict for any probe of a campaign case."""

    def __init__(self, src: Path, seed: int):
        sys.path.insert(0, str(src))
        from repro.compiler import CompileOptions, NewCompiler
        from repro.fuzz.campaign import (
            CampaignConfig, _generate_case, case_seed,
        )
        from repro.fuzz.oracles import _guarded
        from repro.vm.thompson import ThompsonVM

        config = CampaignConfig(seed=seed)
        self._runners: Dict[int, Callable] = {}

        def runner(index: int) -> Callable:
            kind = config.kinds[index % len(config.kinds)]
            text, module, _ = _generate_case(kind, case_seed(seed, index),
                                             config)
            compiler = NewCompiler(CompileOptions.none())
            vm = ThompsonVM(compiler.back(compiler.front(text, module=module))[1])
            return _guarded(lambda t: bool(vm.run_reference(t)))

        self._runner = runner

    def __call__(self, index: int, probe: str) -> List:
        if index not in self._runners:
            self._runners[index] = self._runner(index)
        return list(self._runners[index](probe))


def score(run: Dict, truth: Truth) -> Dict:
    """The killers and the disagreeing probes' partitions of one run."""
    if run.get("hang"):
        return {"killers": ["hang"], "partitions": []}
    if "crash" in run:
        return {"killers": ["crash"], "partitions": [], "crash": run["crash"]}
    killers: Set[str] = set()
    partitions: List = []
    for case in run["cases"]:
        if "crash" in case:
            killers.add("crash")
            continue
        for found in case["disagreements"]:
            if found["kind"] != "input":
                killers.update(found["verdicts"] if found["kind"] ==
                               "equivalence" else [found["kind"]])
                continue
            groups: Dict[str, List[str]] = {}
            right = truth(case["index"], found["input"])
            for oracle, verdict in found["verdicts"].items():
                if verdict[0] == "skip":
                    continue
                groups.setdefault(json.dumps(verdict), []).append(oracle)
                if verdict != right:
                    killers.add(oracle)
            partition = sorted(sorted(group) for group in groups.values())
            if partition not in partitions:
                partitions.append(partition)
    return {"killers": sorted(killers), "partitions": sorted(partitions)}


def killed_by(mutant: Dict, oracles: Iterable[str]) -> bool:
    """Would a campaign running only ``oracles`` (plus :data:`ALWAYS_ON`)
    have reported this mutant?"""
    if any(killer in ALWAYS_ON for killer in mutant["killers"]):
        return True
    keep = set(oracles)
    return any(
        sum(1 for group in partition if keep.intersection(group)) > 1
        for partition in mutant["partitions"]
    )


def select_oracles(mutants: Sequence[Dict], oracles: Sequence[str],
                   seconds: Dict[str, float]) -> Dict:
    """Drop oracles most expensive first while coverage holds."""
    killed = [m for m in mutants if killed_by(m, oracles)]
    kept = list(oracles)
    order = sorted(oracles, key=lambda name: -seconds.get(name, 0.0))
    dropped = []
    for name in order:
        trial = [other for other in kept if other != name]
        if all(killed_by(m, trial) for m in killed):
            kept, dropped = trial, dropped + [name]
    unique = {
        name: [m["id"] for m in killed
               if not killed_by(m, [o for o in kept if o != name])]
        for name in kept
    }
    return {"order": order, "dropped": dropped, "kept": kept,
            "killed": len(killed), "unique": unique}


def summarize(mutants: Sequence[Dict], oracles: Sequence[str],
              seconds: Dict[str, float]) -> Dict:
    packages: Dict[str, Dict] = {}
    for mutant in mutants:
        row = packages.setdefault(package_of(mutant["id"]),
                                  {"mutants": 0, "killed": 0})
        row["mutants"] += 1
        row["killed"] += mutant["status"] == "killed"
    for row in packages.values():
        row["score"] = round(row["killed"] / row["mutants"], 3)
    by_oracle = {
        name: {"kills": sum(name in m["killers"] for m in mutants),
               "alone": sum(m["alone"] == [name] for m in mutants)}
        for name in list(oracles) + list(ALWAYS_ON)
    }
    killed = sum(m["status"] == "killed" for m in mutants)
    return {
        "mutants": len(mutants), "killed": killed,
        "score": round(killed / max(1, len(mutants)), 3),
        "packages": dict(sorted(packages.items())),
        "by_oracle": by_oracle,
        "selection": select_oracles(mutants, oracles, seconds),
    }


# -- the orchestrator --------------------------------------------------------
def _prepare(scratch: Path, rev: Optional[str]) -> Path:
    """A pristine, byte-compiled copy of ``src/`` under ``scratch``."""
    pristine = scratch / "pristine"
    if rev is None:
        shutil.copytree(REPO / "src", pristine / "src",
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
    else:
        pristine.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev,
                                  "src"], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(pristine)],
                       input=archive.stdout, check=True)
    compileall.compile_dir(str(pristine / "src"), quiet=1)
    return pristine


def _run_mutant(pristine: Path, copy: Path, mutant: Dict, seed: int,
                cases: int, wall: float) -> Dict:
    shutil.copytree(pristine, copy)
    try:
        package = copy / "src" / "repro"
        rel, source = mutate(package, mutant["id"])
        (package / rel).write_text(source)
        Path(importlib.util.cache_from_source(str(package / rel))).unlink()
        return run_worker(copy, seed, cases, wall)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def _command(args) -> str:
    """The command line that reproduces this matrix (no scratch/out)."""
    words = ["python", "benchmarks/oracle_kills.py"]
    if args.rev:
        words += ["--rev", args.rev]
    words += ["--seed", str(args.seed), "--cases", str(args.cases)]
    if args.mutant:
        words += [f"--mutant '{name}'" for name in args.mutant]
    else:
        words += ["--mutants", str(args.mutants)]
    return " ".join(words)


def run_matrix(args) -> Dict:
    started = time.monotonic()
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="oracle-kills-"))
    scratch.mkdir(parents=True, exist_ok=True)
    if REPO in scratch.resolve().parents or scratch.resolve() == REPO:
        raise SystemExit("--scratch must lie outside the checkout")
    pristine = _prepare(scratch, args.rev)
    package = pristine / "src" / "repro"
    everything = enumerate_mutants(package)
    if args.mutant:
        known = {m["id"]: m for m in everything}
        missing = [name for name in args.mutant if name not in known]
        if missing:
            raise SystemExit(f"unknown mutant {missing[0]!r}")
        chosen = [known[name] for name in args.mutant]
    else:
        chosen = random.Random(args.seed).sample(
            everything, min(args.mutants, len(everything))
        )
    baseline = run_worker(pristine, args.seed, args.cases, None, metrics=True)
    dirty = [c for c in baseline["cases"]
             if c.get("crash") or c.get("disagreements")]
    if dirty:
        raise SystemExit(f"the pristine tree is not clean: {dirty[0]}")
    wall = max(60.0, 4 * baseline["seconds"])
    print(f"{len(chosen)} of {len(everything)} mutants, {args.cases} cases "
          f"each; pristine {baseline['seconds']:.1f}s, wall bound "
          f"{wall:.0f}s", flush=True)
    truth = Truth(pristine / "src", args.seed)
    oracles = baseline["oracles"]
    mutants = []

    def one(number: int) -> Dict:
        return _run_mutant(pristine, scratch / f"mutant-{number}",
                           chosen[number], args.seed, args.cases, wall)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for number, (mutant, run) in enumerate(
            zip(chosen, pool.map(one, range(len(chosen)))), 1
        ):
            row = dict(mutant, **score(run, truth))
            row["status"] = ("killed" if killed_by(row, oracles)
                             else "survived")
            row["alone"] = row["killers"] if len(row["killers"]) == 1 else []
            row["seconds"] = round(run["seconds"], 1)
            mutants.append(row)
            print(f"[{number}/{len(chosen)}] {row['status']:8} "
                  f"{','.join(row['killers']) or '-':28} {mutant['id']}",
                  flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    seconds = {name: round(value, 6)
               for name, value in baseline["oracle_seconds"].items()}
    return {
        "command": _command(args),
        "rev": args.rev, "seed": args.seed, "cases": args.cases,
        "jobs": JOBS, "wall_bound_s": round(wall, 1),
        "wall_seconds": round(time.monotonic() - started, 1),
        "host": {"python": platform.python_version(),
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "targets": list(TARGETS), "mutant_sites": len(everything),
        "oracles": oracles, "always_on": list(ALWAYS_ON),
        "oracle_seconds": seconds,
        "summary": summarize(mutants, oracles, seconds),
        "mutants": mutants,
    }


def dump(matrix: Dict) -> str:
    """The matrix as JSON with one line per mutant, so a re-run diffs
    row by row."""
    head = json.dumps({k: v for k, v in matrix.items() if k != "mutants"},
                      indent=1)
    rows = ",\n".join("  " + json.dumps(row) for row in matrix["mutants"])
    return f'{head[:-2]},\n "mutants": [\n{rows}\n ]\n}}\n'


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=12648512)
    parser.add_argument("--cases", type=int, default=30)
    parser.add_argument("--mutants", type=int, default=300)
    parser.add_argument("--mutant", action="append", default=[],
                        help="run this mutant id (repeatable) instead of "
                        "a seeded sample")
    parser.add_argument("--rev", default=None,
                        help="mutate this commit's src/ (git archive)")
    parser.add_argument("--scratch", default=None,
                        help="scratch directory outside the checkout")
    parser.add_argument("--out", default=None, help="write the matrix here")
    parser.add_argument("--require-killed", action="store_true",
                        help="exit 1 unless every mutant run is killed")
    parser.add_argument("--analyze", default=None,
                        help="recompute the summary of a committed matrix")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--metrics", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.seed, args.cases, args.result, args.metrics)
        return 0
    if args.analyze:
        matrix = json.loads(Path(args.analyze).read_text())
        summary = summarize(matrix["mutants"], matrix["oracles"],
                            matrix["oracle_seconds"])
        print(json.dumps(summary["selection"], indent=2))
        return 0 if summary == matrix["summary"] else 1
    matrix = run_matrix(args)
    if args.out:
        Path(args.out).write_text(dump(matrix))
    summary = matrix["summary"]
    print(json.dumps({key: summary[key] for key in
                      ("mutants", "killed", "score", "packages")}, indent=1))
    print("kept:", ", ".join(summary["selection"]["kept"]))
    if args.require_killed and summary["killed"] < summary["mutants"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
