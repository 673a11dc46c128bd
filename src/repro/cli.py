"""Command-line interface: ``repro``.

Subcommands:

* ``compile`` — compile an RE, emitting assembly, IR snapshots, the
  binary image, or static metrics.
* ``run`` — compile + execute on the golden-model VM or the cycle-level
  simulator.
* ``scan`` — high-throughput corpus scan through :mod:`repro.engine`:
  compiled-pattern cache, chunked input, optional ``--jobs`` worker
  sharding.
* ``serve`` — long-lived HTTP match service: ``/compile``, ``/match``,
  ``/scan``, ``/stream`` (chunked streaming input), health/readiness
  probes and ``/metrics``, with bounded admission (429 + Retry-After),
  per-request deadlines and graceful SIGTERM drain.
* ``bench`` — a quick (benchmark × configuration) sweep printing the
  paper-style time/energy table.
* ``configs`` — list the evaluated architecture configurations with
  their resource usage, clock and power.
* ``stats`` — print the metrics snapshot persisted by the last ``scan``.
* ``fuzz`` — time-boxed seeded differential fuzzing campaign over every
  oracle pair (``--seconds --seed --oracles``), with shrinking, corpus
  persistence (``--save-failures``) and corpus replay (``--replay``).
* ``trace`` — analyze a ``--trace-out`` span file: per-name summary,
  Chrome trace-event export, collapsed-stack flamegraph input, or the
  critical path through the span forest.

Observability: ``compile``/``run``/``scan`` accept ``--trace-out FILE``
(span tree as JSON lines, one span per pipeline pass with op-count and
``D_offset`` deltas); ``run`` additionally accepts ``--profile``
(per-PC execution profile attributed to source-regex fragments);
``scan`` accepts ``--metrics`` (Prometheus text exposition on stdout)
and persists a snapshot for ``stats`` (``--stats-file`` or
``$REPRO_STATS_FILE``, default ``~/.repro/stats.json``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .arch.config import ArchConfig, MICROBENCH_GRID
from .arch.power import power_watts
from .arch.resources import clock_mhz, utilization
from .arch.simulator import CiceroSimulator
from .compiler import (
    DEFAULT_CICERO_PIPELINE,
    DEFAULT_REGEX_PIPELINE,
    CompileOptions,
    NewCompiler,
)
from .dialects.regex.emit_pattern import emit_pattern
from .evaluation import compile_benchmark, format_table, run_on_config
from .ir.printer import print_op
from .isa.encoding import encode_program
from .isa.metrics import static_metrics
from .oldcompiler.compiler import OldCompiler
from .runtime.encoding import as_input_bytes
from .runtime.errors import ReproError, format_error
from .vm.thompson import ThompsonVM
from .workloads.suite import BENCHMARK_NAMES, load_benchmark

#: Exit code for a structured rejection (bad pattern, budget trip, bad
#: input) — EX_DATAERR from sysexits(3), distinct from "no match" (1)
#: and argparse usage errors (2).
EXIT_REPRO_ERROR = 65


def default_stats_path() -> str:
    """Where ``scan`` persists its metrics snapshot for ``stats``."""
    override = os.environ.get("REPRO_STATS_FILE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".repro", "stats.json")


def _export_trace(tracer, path: str) -> None:
    """Write the tracer's spans as JSON lines, reporting on stderr."""
    from .observability import TraceReport

    report = TraceReport.from_tracer(tracer)
    report.export(path)
    print(f"trace: {len(report.spans)} spans -> {path}", file=sys.stderr)


def parse_config(text: str) -> ArchConfig:
    """Parse ``NxM`` notation, e.g. ``1x9`` (old) or ``16x1`` (new)."""
    try:
        cores_text, engines_text = text.lower().split("x")
        cores, engines = int(cores_text), int(engines_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad configuration {text!r}; use NxM, e.g. 1x9 or 16x1"
        ) from None
    if cores == 1:
        return ArchConfig.old(engines)
    return ArchConfig.new(cores, engines)


def _compile(args) -> int:
    tracer = None
    if args.compiler == "old":
        for flag, given in (("--trace-out", args.trace_out), ("--skip", args.skip)):
            if given:
                print(f"{flag} requires the new compiler", file=sys.stderr)
                return 2
        compiler = OldCompiler(optimize=not args.no_opt)
    else:
        regex, cicero = (
            () if args.no_opt else tuple(n for n in names if n not in args.skip)
            for names in (DEFAULT_REGEX_PIPELINE, DEFAULT_CICERO_PIPELINE)
        )
        if args.trace_out:
            from .observability import Tracer

            tracer = Tracer()
        compiler = NewCompiler(
            CompileOptions(regex_pipeline=regex, cicero_pipeline=cicero),
            tracer=tracer,
        )
    started = time.perf_counter()
    result = compiler.compile(args.pattern)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        _export_trace(tracer, args.trace_out)
    regex_module = getattr(result, "regex_module", None)
    cicero_module = getattr(result, "cicero_module", None)

    if args.emit == "asm":
        output = result.program.disassemble()
    elif args.emit == "bin":
        sys.stdout.buffer.write(encode_program(result.program))
        return 0
    elif args.emit == "regex-ir":
        if regex_module is None:
            print("the old compiler has no MLIR stages", file=sys.stderr)
            return 1
        output = print_op(regex_module)
    elif args.emit == "cicero-ir":
        if cicero_module is None:
            print("the old compiler has no MLIR stages", file=sys.stderr)
            return 1
        output = print_op(cicero_module)
    elif args.emit == "pattern":
        if regex_module is None:
            print("the old compiler has no MLIR stages", file=sys.stderr)
            return 1
        output = emit_pattern(regex_module.body.operations[0])
    else:  # metrics
        metrics = static_metrics(result.program)
        output = "\n".join(
            [
                f"code size      : {metrics.code_size} instructions",
                f"D_offset       : {metrics.d_offset}",
                f"jumps / splits : {metrics.num_jumps} / {metrics.num_splits}",
                f"compile time   : {elapsed * 1e3:.3f} ms",
            ]
        )
    print(output)
    return 0


def _run(args) -> int:
    tracer = None
    if args.trace_out:
        if args.compiler == "old":
            print("--trace-out requires the new compiler", file=sys.stderr)
            return 2
        from .observability import Tracer

        tracer = Tracer()
    if args.compiler == "old":
        program = OldCompiler(optimize=not args.no_opt).compile(args.pattern).program
    else:
        program = (
            NewCompiler(
                CompileOptions.none() if args.no_opt else CompileOptions(),
                tracer=tracer,
            )
            .compile(args.pattern)
            .program
        )
    if args.file:
        with open(args.file, "rb") as handle:
            text = handle.read()
    else:
        text = as_input_bytes(args.text or "", what="input text")

    if args.functional:
        profile = None
        if args.profile:
            from .observability import VMProfile

            profile = VMProfile(program)
        result = ThompsonVM(program).run(
            text, max_steps=args.max_vm_steps, tracer=tracer, profile=profile
        )
        if tracer is not None:
            _export_trace(tracer, args.trace_out)
        print(f"matched: {result.matched}"
              + (f" at position {result.position}" if result.matched else ""))
        if profile is not None:
            print(profile.format_report())
        return 0 if result.matched else 1

    profile = None
    if args.profile:
        from .observability import SimProfile

        profile = SimProfile(program)
    simulation = CiceroSimulator(args.config, tracer=tracer).run(
        program, text, max_cycles=args.max_cycles, profile=profile
    )
    if tracer is not None:
        _export_trace(tracer, args.trace_out)
    stats = simulation.stats
    print(f"configuration : {simulation.config.name}")
    print(f"matched       : {simulation.matched}"
          + (f" at position {simulation.position}" if simulation.matched else ""))
    print(f"cycles        : {simulation.cycles}")
    print(f"instructions  : {stats.instructions} (IPC {stats.ipc:.2f})")
    print(f"icache        : {stats.cache_hits} hits, {stats.cache_misses} misses "
          f"({stats.miss_rate:.1%})")
    print(f"threads       : {stats.threads_spawned} spawned, "
          f"{stats.threads_killed} killed, peak {stats.peak_threads}")
    if profile is not None:
        print(profile.format_report())
    return 0 if simulation.matched else 1


def _scan(args) -> int:
    """Scan files (or literal text) with the throughput engine."""
    from .engine import DEFAULT_CACHE_SIZE, Engine
    from .observability import MetricsRegistry
    from .runtime.budget import DEFAULT_BUDGET

    budget = DEFAULT_BUDGET
    if args.timeout is not None or args.wall_timeout is not None:
        budget = budget.replace(
            max_task_seconds=args.timeout,
            max_wall_seconds=args.wall_timeout,
        )
    registry = MetricsRegistry()
    tracer = None
    if args.trace_out:
        from .observability import Tracer

        tracer = Tracer()
    engine = Engine(
        budget=budget,
        cache_size=DEFAULT_CACHE_SIZE
        if args.cache_size is None
        else args.cache_size,
        jobs=args.jobs,
        mp_context=args.mp_context,
        retries=args.retries,
        metrics=registry,
        tracer=tracer,
        # With --metrics, sharded workers record VM counters locally and
        # the engine folds the per-shard deltas back into the registry.
        collect_worker_metrics=bool(args.metrics),
    )
    if args.file:
        with open(args.file, "rb") as handle:
            data = handle.read()
    else:
        data = as_input_bytes(args.text or "", what="input text")

    started = time.perf_counter()
    matched_any = False
    degraded = False
    for pattern in args.patterns:
        result = engine.scan_corpus(
            pattern,
            data,
            chunk_bytes=args.chunk_bytes,
            jobs=args.jobs,
            strict=not args.partial,
        )
        matched_any = matched_any or result.matched
        line = (
            f"{pattern!r}: matched={result.matched} "
            f"({result.matched_chunks}/{result.chunks} chunks)"
        )
        if args.partial and result.failed_chunks:
            degraded = True
            line += (
                f" [{result.failed_chunks} failed, "
                f"{result.quarantined} quarantined, "
                f"{result.retries} retries]"
            )
            for outcome in result.errors():
                print(
                    f"  chunk {outcome.index}: {outcome.status} "
                    f"[{outcome.error.code}] {outcome.error}",
                    file=sys.stderr,
                )
        print(line)
    elapsed = time.perf_counter() - started
    scanned = len(data) * len(args.patterns)
    stats = engine.cache_stats()
    print(
        f"scanned {scanned} bytes in {elapsed * 1e3:.1f} ms "
        f"({scanned / elapsed / 1e6:.2f} MB/s)"
        if elapsed > 0
        else f"scanned {scanned} bytes"
    )
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.evictions} evictions (hit rate {stats.hit_rate:.0%})"
    )
    if degraded:
        print("warning: some chunks had no verdict (partial scan)",
              file=sys.stderr)
    if tracer is not None:
        _export_trace(tracer, args.trace_out)
    if args.metrics:
        sys.stdout.write(registry.render_prometheus())
    stats_path = args.stats_file or default_stats_path()
    try:
        parent = os.path.dirname(stats_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        registry.write_snapshot(
            stats_path,
            extra={
                "command": "scan",
                "patterns": len(args.patterns),
                "bytes": scanned,
                "elapsed_seconds": elapsed,
                "written_at": time.time(),
            },
        )
    except OSError as error:
        print(f"warning: could not write {stats_path}: {error}",
              file=sys.stderr)
    return 0 if matched_any else 1


def _bench(args) -> int:
    if args.patterns_file or args.input_file:
        if not (args.patterns_file and args.input_file):
            print("--patterns-file and --input-file must be given together",
                  file=sys.stderr)
            return 2
        from .workloads.suite import benchmark_from_files

        benchmark = benchmark_from_files(
            args.patterns_file, args.input_file, num_chunks=args.chunks
        )
    else:
        benchmark = load_benchmark(
            args.benchmark, num_res=args.res, num_chunks=args.chunks
        )
    compiled = compile_benchmark(benchmark, compiler=args.compiler,
                                 optimize=not args.no_opt)
    configs: List[ArchConfig] = args.configs or [
        ArchConfig.old(9),
        ArchConfig.old(16),
        ArchConfig.new(8),
        ArchConfig.new(16),
    ]
    rows = []
    for config in configs:
        row = run_on_config(compiled, config)
        rows.append(
            (
                config.name,
                f"{row.avg_time_us:.2f}",
                f"{row.avg_energy_w_us:.2f}",
                f"{row.power_w:.2f}",
                f"{row.matches}/{row.runs}",
            )
        )
    print(
        format_table(
            ["configuration", "time [us/RE]", "energy [W·us]", "power [W]", "matches"],
            rows,
            title=f"benchmark {benchmark.name}: {len(benchmark.patterns)} REs, "
            f"{len(benchmark.chunks)} chunks, compiler={compiled.label}",
        )
    )
    return 0


def _verify(args) -> int:
    """Prove that every compiler configuration accepts the same inputs."""
    from .verify import EquivalenceCheckExceeded, check_equivalence

    variants = [
        ("new w/o opts", NewCompiler(CompileOptions.none()).compile(args.pattern)),
        ("new w/ opts", NewCompiler().compile(args.pattern)),
        ("old w/o opts", OldCompiler(optimize=False).compile(args.pattern)),
        ("old w/ opts", OldCompiler(optimize=True).compile(args.pattern)),
    ]
    baseline_label, baseline = variants[0]
    failures = 0
    for label, variant in variants[1:]:
        try:
            result = check_equivalence(
                baseline.program, variant.program, max_states=args.max_states
            )
        except EquivalenceCheckExceeded:
            print(f"  {label:14s} UNDECIDED (> {args.max_states} product states)")
            continue
        if result.equivalent:
            print(f"  {label:14s} EQUIVALENT to {baseline_label} "
                  f"({result.explored_states} product states)")
        else:
            failures += 1
            print(f"  {label:14s} DIFFERS: {result.counterexample!r} accepted "
                  f"only by the {result.accepted_by} program")
    return 1 if failures else 0


def _stats(args) -> int:
    """Print the metrics snapshot persisted by the last ``scan``."""
    from .observability import load_snapshot

    stats_path = args.stats_file or default_stats_path()
    try:
        snapshot = load_snapshot(stats_path)
    except FileNotFoundError:
        print(
            f"no metrics snapshot at {stats_path}; run a scan first "
            "(or point --stats-file / $REPRO_STATS_FILE at one)",
            file=sys.stderr,
        )
        return 1
    metrics = snapshot.get("metrics", {})
    context = {
        key: value
        for key, value in snapshot.items()
        if key not in ("schema", "metrics")
    }
    print(f"metrics snapshot: {stats_path}")
    for key in sorted(context):
        print(f"  {key}: {context[key]}")
    for name in sorted(metrics):
        sample = metrics[name]
        if isinstance(sample, dict):
            print(f"{name} count={sample['count']} sum={sample['sum']:.6f}")
        else:
            print(f"{name} {sample:g}")
    return 0


def _fuzz(args) -> int:
    """Differential fuzzing: campaign, or corpus replay with --replay."""
    import json

    from .fuzz import (
        DEFAULT_CORPUS_DIR,
        DEFAULT_ORACLES,
        CampaignConfig,
        replay_corpus,
        run_campaign,
    )
    from .observability import MetricsRegistry

    registry = MetricsRegistry()
    corpus_dir = args.corpus_dir or DEFAULT_CORPUS_DIR

    if args.replay:
        results = replay_corpus(corpus_dir, metrics=registry)
        failures = 0
        for result in results:
            status = "ok" if result.ok else "DISAGREES"
            print(f"{result.pattern!r}: {status} "
                  f"({len(result.inputs)} inputs)")
            if not result.ok:
                failures += 1
                for disagreement in result.disagreements:
                    print(f"  {json.dumps(disagreement.to_dict())}",
                          file=sys.stderr)
        print(f"corpus replay: {len(results)} reproducers, "
              f"{failures} disagreeing")
        if args.metrics:
            sys.stdout.write(registry.render_prometheus())
        return 1 if failures else 0

    oracles = DEFAULT_ORACLES
    if args.oracles:
        oracles = tuple(name.strip() for name in args.oracles.split(","))
        unknown = [name for name in oracles if name not in DEFAULT_ORACLES]
        if unknown:
            print(f"unknown oracle {unknown[0]!r}; available: "
                  f"{', '.join(DEFAULT_ORACLES)}", file=sys.stderr)
            return 2
    config = CampaignConfig(
        seconds=args.seconds,
        seed=args.seed,
        oracles=oracles,
        max_cases=args.max_cases,
        shrink=not args.no_shrink,
        corpus_dir=corpus_dir if args.save_failures else None,
    )
    report = run_campaign(config, metrics=registry)
    print(report.summary())
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report: -> {args.report}", file=sys.stderr)
    if args.metrics:
        sys.stdout.write(registry.render_prometheus())
    return 0 if report.clean else 1


def _serve(args) -> int:
    """Run the long-lived match service until SIGTERM/SIGINT."""
    from .runtime.budget import DEFAULT_BUDGET
    from .service import ServiceConfig, serve

    budget = DEFAULT_BUDGET
    if args.timeout is not None or args.wall_timeout is not None:
        budget = budget.replace(
            max_task_seconds=args.timeout,
            max_wall_seconds=args.wall_timeout,
        )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        budget=budget,
        jobs=args.jobs,
        max_inflight=args.max_inflight,
        retry_after=args.retry_after,
        request_seconds=args.request_timeout,
        drain_seconds=args.drain_seconds,
        stats_file=args.stats_file or default_stats_path(),
        chaos=args.chaos,
    )
    if args.cache_size is not None:
        config = config.replace(cache_size=args.cache_size)
    return serve(config)


def _trace(args) -> int:
    """Analyze a ``--trace-out`` JSON-lines span file."""
    import json

    from .observability import (
        critical_path,
        format_critical_path,
        format_summary,
        parse_jsonl,
        summarize,
        to_chrome_trace,
        to_collapsed_stacks,
        validate_trace,
    )

    with open(args.file) as handle:
        records = parse_jsonl(handle.read())
    for problem in validate_trace(records):
        print(f"warning: {problem}", file=sys.stderr)

    if args.view == "summarize":
        summary = summarize(records)
        if args.json:
            output = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        else:
            output = format_summary(summary) + "\n"
    elif args.view == "chrome":
        output = (
            json.dumps(to_chrome_trace(records), indent=2, sort_keys=True)
            + "\n"
        )
    elif args.view == "flame":
        output = to_collapsed_stacks(records)
    else:  # critical-path
        path = critical_path(records)
        if args.json:
            output = json.dumps(path, indent=2, sort_keys=True) + "\n"
        else:
            output = format_critical_path(path) + "\n"

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output)
        print(
            f"trace {args.view}: {len(records)} spans -> {args.out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(output)
    return 0


def _configs(args) -> int:
    rows = []
    for config in MICROBENCH_GRID:
        report = utilization(config)
        rows.append(
            (
                config.name,
                f"{report.luts:.1%}",
                f"{report.regs:.1%}",
                f"{report.brams:.1%}",
                f"{clock_mhz(config):.0f} MHz",
                f"{power_watts(config):.2f} W",
            )
        )
    print(format_table(
        ["configuration", "LUT", "REG", "BRAM", "clock", "power"], rows,
        title="evaluated architecture configurations (XCZU3EG)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLIR-dialect regex compiler + Cicero DSA simulator "
        "(CGO'25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile an RE")
    compile_parser.add_argument("pattern")
    compile_parser.add_argument("--compiler", choices=("new", "old"), default="new")
    compile_parser.add_argument("--no-opt", action="store_true",
                                help="disable every optimization")
    compile_parser.add_argument(
        "--skip", action="append", default=[], metavar="PASS",
        choices=DEFAULT_REGEX_PIPELINE + DEFAULT_CICERO_PIPELINE,
        help="drop one pass from the default pipelines (repeatable): "
        "%(choices)s",
    )
    compile_parser.add_argument(
        "--emit",
        choices=("asm", "bin", "regex-ir", "cicero-ir", "pattern", "metrics"),
        default="asm",
    )
    compile_parser.add_argument("--trace-out", metavar="FILE", default=None,
                                help="write the compilation span tree "
                                "(frontend, each pass, codegen) as JSON "
                                "lines to FILE")
    compile_parser.set_defaults(handler=_compile)

    run_parser = sub.add_parser("run", help="compile and execute an RE")
    run_parser.add_argument("pattern")
    run_parser.add_argument("text", nargs="?")
    run_parser.add_argument("--file", help="read the input from a file")
    run_parser.add_argument("--compiler", choices=("new", "old"), default="new")
    run_parser.add_argument("--no-opt", action="store_true")
    run_parser.add_argument("--functional", action="store_true",
                            help="golden-model VM instead of the cycle simulator")
    run_parser.add_argument("--config", type=parse_config,
                            default=ArchConfig.new(16),
                            help="architecture NxM, e.g. 1x9 or 16x1")
    run_parser.add_argument("--max-vm-steps", type=int, default=None,
                            help="abort a --functional run after this many "
                            "VM instruction executions")
    run_parser.add_argument("--max-cycles", type=int, default=None,
                            help="abort a simulation after this many cycles "
                            "(default: adaptive watchdog)")
    run_parser.add_argument("--trace-out", metavar="FILE", default=None,
                            help="write compile + execution spans as JSON "
                            "lines to FILE")
    run_parser.add_argument("--profile", action="store_true",
                            help="print the per-PC execution profile with "
                            "source-regex attribution after the run")
    run_parser.set_defaults(handler=_run)

    scan_parser = sub.add_parser(
        "scan",
        help="high-throughput corpus scan (cached engine, worker sharding)",
    )
    scan_parser.add_argument("patterns", nargs="+",
                             help="one or more REs to scan for")
    scan_parser.add_argument("--text", help="literal input text")
    scan_parser.add_argument("--file", help="read the input from a file")
    scan_parser.add_argument("--jobs", type=int, default=None,
                             help="worker processes to shard chunks over "
                             "(0 = all cores; default: in-process)")
    scan_parser.add_argument("--cache-size", type=int, default=None,
                             help="compiled-pattern LRU cache capacity "
                             "(default 256)")
    scan_parser.add_argument("--chunk-bytes", type=int, default=500,
                             help="chunk size for the corpus split "
                             "(default 500, the paper's §6 value)")
    scan_parser.add_argument("--timeout", type=float, default=None,
                             help="per-chunk timeout in seconds for "
                             "parallel scans (a hung worker is replaced)")
    scan_parser.add_argument("--wall-timeout", type=float, default=None,
                             help="overall deadline in seconds for one "
                             "parallel scan")
    scan_parser.add_argument("--retries", type=int, default=2,
                             help="retries per failed chunk before "
                             "quarantine (default 2)")
    scan_parser.add_argument("--partial", action="store_true",
                             help="report per-chunk outcomes instead of "
                             "failing the whole scan on the first "
                             "chunk error")
    scan_parser.add_argument("--mp-context", default=None,
                             choices=("fork", "forkserver", "spawn"),
                             help="multiprocessing start method for "
                             "worker processes (default: forkserver where "
                             "available, else spawn)")
    scan_parser.add_argument("--metrics", action="store_true",
                             help="print the scan's metrics registry in "
                             "Prometheus text format (with --jobs, also "
                             "aggregates worker-process VM counters)")
    scan_parser.add_argument("--trace-out", metavar="FILE", default=None,
                             help="write the scan's span tree (engine.scan, "
                             "supervisor.run + retry/timeout events) as "
                             "JSON lines to FILE")
    scan_parser.add_argument("--stats-file", default=None,
                             help="where to persist the metrics snapshot "
                             "read back by `stats` (default: "
                             "$REPRO_STATS_FILE or ~/.repro/stats.json)")
    scan_parser.set_defaults(handler=_scan)

    serve_parser = sub.add_parser(
        "serve",
        help="long-lived HTTP match service (compile/match/scan/stream) "
        "with admission control and graceful SIGTERM drain",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port; 0 picks an ephemeral port "
                              "announced on stdout (default 8765)")
    serve_parser.add_argument("--jobs", type=int, default=None,
                              help="worker processes behind /scan "
                              "(0 = all cores; default: in-process)")
    serve_parser.add_argument("--cache-size", type=int, default=None,
                              help="compiled-pattern LRU capacity shared "
                              "by every tenant (default 256)")
    serve_parser.add_argument("--max-inflight", type=int, default=64,
                              help="admitted requests in flight before the "
                              "gate sheds 429 (default 64)")
    serve_parser.add_argument("--retry-after", type=float, default=1.0,
                              help="Retry-After seconds on shed responses "
                              "(default 1)")
    serve_parser.add_argument("--request-timeout", type=float, default=None,
                              help="per-request deadline in seconds "
                              "(default: budget wall clock, else 30)")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-chunk timeout for parallel /scan")
    serve_parser.add_argument("--wall-timeout", type=float, default=None,
                              help="overall deadline for one parallel /scan")
    serve_parser.add_argument("--drain-seconds", type=float, default=10.0,
                              help="grace window on SIGTERM before "
                              "in-flight requests are cancelled with "
                              "typed 503s (default 10)")
    serve_parser.add_argument("--stats-file", default=None,
                              help="metrics snapshot written atomically at "
                              "drain (default: $REPRO_STATS_FILE or "
                              "~/.repro/stats.json)")
    serve_parser.add_argument("--chaos", action="store_true",
                              help="accept fault-injection fields on /scan "
                              "(test harness only)")
    serve_parser.set_defaults(handler=_serve)

    bench_parser = sub.add_parser("bench", help="quick benchmark sweep")
    bench_parser.add_argument("--benchmark", choices=BENCHMARK_NAMES,
                              default="protomata")
    bench_parser.add_argument("--res", type=int, default=8)
    bench_parser.add_argument("--chunks", type=int, default=2)
    bench_parser.add_argument("--compiler", choices=("new", "old"), default="new")
    bench_parser.add_argument("--no-opt", action="store_true")
    bench_parser.add_argument("--configs", type=parse_config, nargs="*")
    bench_parser.add_argument("--patterns-file",
                              help="file with one RE per line (overrides "
                              "--benchmark; needs --input-file)")
    bench_parser.add_argument("--input-file",
                              help="input data to scan, chunked at 500 B")
    bench_parser.set_defaults(handler=_bench)

    configs_parser = sub.add_parser("configs", help="list architecture configs")
    configs_parser.set_defaults(handler=_configs)

    trace_parser = sub.add_parser(
        "trace",
        help="analyze a --trace-out span file (summary, Chrome trace, "
        "flamegraph input, critical path)",
    )
    trace_parser.add_argument(
        "view", choices=("summarize", "chrome", "flame", "critical-path")
    )
    trace_parser.add_argument("file",
                              help="JSON-lines span file written by "
                              "--trace-out")
    trace_parser.add_argument("--out", metavar="FILE", default=None,
                              help="write the view to FILE instead of stdout")
    trace_parser.add_argument("--json", action="store_true",
                              help="emit summarize/critical-path as JSON "
                              "instead of text")
    trace_parser.set_defaults(handler=_trace)

    stats_parser = sub.add_parser(
        "stats",
        help="print the metrics snapshot persisted by the last scan",
    )
    stats_parser.add_argument("--stats-file", default=None,
                              help="snapshot to read (default: "
                              "$REPRO_STATS_FILE or ~/.repro/stats.json)")
    stats_parser.set_defaults(handler=_stats)

    verify_parser = sub.add_parser(
        "verify",
        help="prove all compiler configurations language-equivalent",
    )
    verify_parser.add_argument("pattern")
    verify_parser.add_argument("--max-states", type=int, default=100_000)
    verify_parser.set_defaults(handler=_verify)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing campaign over all oracle pairs",
    )
    fuzz_parser.add_argument("--seconds", type=float, default=5.0,
                             help="campaign time box in seconds (default 5)")
    fuzz_parser.add_argument("--seed", type=int, default=0xC1CE40,
                             help="base seed; every case is re-derivable "
                             "from it (default 0xC1CE40)")
    fuzz_parser.add_argument("--oracles", default=None,
                             help="comma-separated oracle subset "
                             "(default: all five, vm-pre,old,sim,multi,"
                             "stream)")
    fuzz_parser.add_argument("--max-cases", type=int, default=None,
                             help="stop after N cases even if time remains")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="report disagreements unshrunk")
    fuzz_parser.add_argument("--corpus-dir", default=None,
                             help="reproducer corpus directory "
                             "(default tests/fuzz/corpus)")
    fuzz_parser.add_argument("--save-failures", action="store_true",
                             help="persist shrunk reproducers into the "
                             "corpus directory")
    fuzz_parser.add_argument("--replay", action="store_true",
                             help="replay the corpus instead of fuzzing")
    fuzz_parser.add_argument("--report", metavar="FILE", default=None,
                             help="write the campaign report as JSON")
    fuzz_parser.add_argument("--metrics", action="store_true",
                             help="print repro_fuzz_* metrics in "
                             "Prometheus text format")
    fuzz_parser.set_defaults(handler=_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        # Inside the guard: argument *conversion* (e.g. --config NxM)
        # can already raise typed configuration errors.
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ReproError as error:
        print(format_error(error), file=sys.stderr)
        return EXIT_REPRO_ERROR


if __name__ == "__main__":
    sys.exit(main())
