"""Time-boxed, seeded differential fuzzing campaigns.

A campaign is a deterministic loop: case ``i`` is generated from
``seed * P + i`` (plain arithmetic, so any case can be regenerated in
isolation), alternating between the grammar-based pattern generator and
the direct IR generator, probed through the full oracle set, and — on
disagreement — shrunk and persisted to the regression corpus.  The only
nondeterminism is the wall-clock cut-off; everything a case *does* is a
pure function of its seed, which is what makes ``--seconds 60 --seed N``
reports comparable across machines and CI runs.

Campaign accounting flows into a
:class:`~repro.observability.MetricsRegistry` under ``repro_fuzz_*``
(catalogued in ``docs/observability.md``), and the final
:class:`CampaignReport` renders the human summary the CLI prints.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..frontend.parser import parse_regex
from ..runtime.errors import ReproError
from .corpus import Reproducer, save_reproducer
from .generators import (
    ModuleGenerator,
    RegexGenerator,
    count_nodes,
    derive_inputs,
    module_text,
)
from .oracles import DEFAULT_ORACLES, default_fault_for, run_case
from .shrink import ShrinkResult, shrink_pattern

#: Case-seed stride: a large prime so per-case seeds never collide with
#: neighbouring base seeds.
_SEED_STRIDE = 1_000_003

#: Default base seed (hex spells "cicero", near enough).
DEFAULT_SEED = 0xC1CE40


@dataclass
class CampaignConfig:
    """Knobs for one campaign run."""

    seconds: float = 5.0
    seed: int = DEFAULT_SEED
    oracles: Sequence[str] = DEFAULT_ORACLES
    max_cases: Optional[int] = None
    #: Generator kinds to alternate over: "regex" (frontend grammar)
    #: and/or "ir" (direct regex-dialect modules).
    kinds: Tuple[str, ...] = ("regex", "ir")
    inputs_per_case: int = 10
    max_depth: int = 3
    shrink: bool = True
    max_shrink_checks: int = 200
    #: Persist shrunk reproducers here when set.
    corpus_dir: Optional[str] = None
    #: Plant :func:`default_fault_for` into every case's optimized
    #: program (the planted-bug acceptance mode — detection expected).
    plant_fault: bool = False


@dataclass
class CampaignFinding:
    """One disagreeing case, after shrinking."""

    case_seed: int
    kind: str
    pattern: str
    shrunk_pattern: str
    nodes: int
    disagreement: Dict
    reproducer_path: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "case_seed": self.case_seed,
            "kind": self.kind,
            "pattern": self.pattern,
            "shrunk_pattern": self.shrunk_pattern,
            "nodes": self.nodes,
            "disagreement": self.disagreement,
            "reproducer_path": self.reproducer_path,
        }


@dataclass
class CampaignReport:
    """The campaign's final accounting."""

    seed: int
    seconds: float
    oracles: Tuple[str, ...]
    elapsed_seconds: float = 0.0
    cases: int = 0
    inputs: int = 0
    rejected_cases: int = 0
    skips: Dict[str, int] = field(default_factory=dict)
    findings: List[CampaignFinding] = field(default_factory=list)
    shrink_checks: int = 0

    @property
    def disagreements(self) -> int:
        return len(self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "seconds": self.seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "oracles": list(self.oracles),
            "cases": self.cases,
            "inputs": self.inputs,
            "rejected_cases": self.rejected_cases,
            "skips": dict(self.skips),
            "disagreements": self.disagreements,
            "shrink_checks": self.shrink_checks,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} "
            f"elapsed={self.elapsed_seconds:.1f}s "
            f"(budget {self.seconds:.0f}s)",
            f"  cases      : {self.cases} "
            f"({self.rejected_cases} rejected by every compiler)",
            f"  inputs     : {self.inputs}",
            f"  oracles    : {', '.join(self.oracles)}",
            f"  skips      : "
            + (
                ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(self.skips.items())
                )
                or "none"
            ),
            f"  disagreements: {self.disagreements}",
        ]
        for finding in self.findings:
            lines.append(
                f"    seed={finding.case_seed} [{finding.kind}] "
                f"{finding.pattern!r} -> shrunk {finding.shrunk_pattern!r} "
                f"({finding.nodes} nodes)"
            )
            if finding.reproducer_path:
                lines.append(f"      saved: {finding.reproducer_path}")
        return "\n".join(lines)


def case_seed(base_seed: int, index: int) -> int:
    """The deterministic per-case seed (pure arithmetic, re-derivable)."""
    return base_seed * _SEED_STRIDE + index


def _generate_case(kind: str, seed: int, config: CampaignConfig):
    """Returns ``(pattern_text, module_or_None, input_list)``."""
    if kind == "ir":
        module = ModuleGenerator(seed, max_depth=max(1, config.max_depth - 1))
        generated = module.generate()
        text = module_text(generated)
        ast_pattern = parse_regex(text)
    else:
        generator = RegexGenerator(seed, max_depth=config.max_depth)
        ast_pattern = generator.generate()
        text = ast_pattern.text
        generated = None
    rng = random.Random(seed ^ 0x5EED)
    inputs = derive_inputs(ast_pattern, rng, count=config.inputs_per_case)
    return text, generated, inputs


def _shrink_predicate(config: CampaignConfig, fault, witness: List[str]):
    """Build the shrinker's predicate: does the candidate still disagree?"""

    def predicate(candidate: str) -> bool:
        probe_seed = zlib.crc32(candidate.encode("latin-1")) ^ config.seed
        try:
            ast_pattern = parse_regex(candidate)
        except ReproError:
            return False
        inputs = derive_inputs(
            ast_pattern,
            random.Random(probe_seed),
            count=config.inputs_per_case,
            extra=witness,
        )
        result = run_case(
            candidate,
            inputs,
            oracles=tuple(config.oracles),
            fault=fault,
        )
        return not result.ok

    return predicate


def run_campaign(config: CampaignConfig, metrics=None) -> CampaignReport:
    """Run one time-boxed campaign; deterministic except the cut-off."""
    report = CampaignReport(
        seed=config.seed,
        seconds=config.seconds,
        oracles=tuple(config.oracles),
    )
    fault = default_fault_for if config.plant_fault else None
    started = time.monotonic()
    index = 0
    while True:
        if config.max_cases is not None and index >= config.max_cases:
            break
        if index > 0 and time.monotonic() - started >= config.seconds:
            break
        seed = case_seed(config.seed, index)
        kind = config.kinds[index % len(config.kinds)]
        text, module, inputs = _generate_case(kind, seed, config)
        result = run_case(
            text,
            inputs,
            module=module,
            oracles=tuple(config.oracles),
            fault=fault,
            metrics=metrics,
        )
        report.cases += 1
        report.inputs += len(result.inputs)
        if result.error is not None and result.ok:
            report.rejected_cases += 1  # agreeing rejections only
        for name in result.skips:
            report.skips[name] = report.skips.get(name, 0) + 1
        if metrics is not None and metrics.enabled:
            metrics.counter(
                "repro_fuzz_cases_total",
                labels={"kind": kind},
                help_text="differential fuzz cases executed",
            ).inc()
            metrics.counter(
                "repro_fuzz_inputs_total",
                help_text="probe inputs diffed across oracles",
            ).inc(len(result.inputs))
            if result.disagreements:
                metrics.counter(
                    "repro_fuzz_disagreements_total",
                    help_text="oracle disagreements found",
                ).inc(len(result.disagreements))
            for name in result.skips:
                metrics.counter(
                    "repro_fuzz_skips_total",
                    labels={"oracle": name},
                    help_text="oracle capacity skips",
                ).inc()
        if result.disagreements:
            finding = _handle_disagreement(
                config, fault, kind, seed, text, result, report, metrics
            )
            report.findings.append(finding)
        index += 1
    report.elapsed_seconds = time.monotonic() - started
    if metrics is not None and metrics.enabled:
        metrics.gauge(
            "repro_fuzz_campaign_seconds",
            help_text="wall-clock of the last fuzz campaign",
        ).set(report.elapsed_seconds)
    return report


def _handle_disagreement(
    config: CampaignConfig,
    fault,
    kind: str,
    seed: int,
    text: str,
    result,
    report: CampaignReport,
    metrics=None,
) -> CampaignFinding:
    first = result.disagreements[0]
    witness = [
        disagreement.input
        for disagreement in result.disagreements
        if disagreement.input is not None
    ]
    shrunk: Optional[ShrinkResult] = None
    if config.shrink:
        shrunk = shrink_pattern(
            text,
            _shrink_predicate(config, fault, witness),
            max_checks=config.max_shrink_checks,
        )
        report.shrink_checks += shrunk.checks
        if metrics is not None and metrics.enabled:
            metrics.counter(
                "repro_fuzz_shrink_checks_total",
                help_text="shrink predicate evaluations",
            ).inc(shrunk.checks)
    final_pattern = shrunk.pattern if shrunk is not None else text
    finding = CampaignFinding(
        case_seed=seed,
        kind=kind,
        pattern=text,
        shrunk_pattern=final_pattern,
        nodes=(
            shrunk.nodes
            if shrunk is not None
            else count_nodes(parse_regex(text))
        ),
        disagreement=first.to_dict(),
    )
    if config.corpus_dir:
        note = (
            "planted-fault detection (not expected to replay without the "
            "fault)"
            if config.plant_fault
            else f"found by campaign seed={config.seed} case-seed={seed}"
        )
        reproducer = Reproducer(
            pattern=final_pattern,
            inputs=sorted(set(witness))[:8],
            oracles=tuple(config.oracles),
            seed=config.seed,
            shrunk_from=text if final_pattern != text else None,
            note=note,
            disagreement=first.to_dict(),
        )
        finding.reproducer_path = save_reproducer(
            reproducer, config.corpus_dir
        )
    return finding
