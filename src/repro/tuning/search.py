"""Seeded search over valid pass pipelines.

The RL-for-MLIR framing (PAPERS.md) treats pass selection as a
sequential decision problem; this module implements the two classic
baselines — pure random search and first-improvement hill climbing —
behind a :class:`SearchStrategy` interface narrow enough that a learned
policy drops in later: a strategy only ever *proposes* the next
:class:`PipelineSpec` and *observes* its scored cost.

Determinism is load-bearing: the whole search is driven by one
``random.Random(seed)``, candidate costs are memoized by spec, and the
wall-clock bound is only consulted *between* evaluations — so the same
seed with the same evaluation budget replays to a bit-identical tuned
profile (covered by ``tests/tuning/test_search.py`` and the
reproducibility suite).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..compiler import DEFAULT_CICERO_PIPELINE, DEFAULT_REGEX_PIPELINE
from ..ir.diagnostics import IRError, ReproError
from ..ir.pass_manager import registered_pass_names
from ..observability import AnyMetrics, AnyTracer, as_metrics, as_tracer
from .cost import CostBreakdown, CostModel, CostWeights, DEFAULT_WEIGHTS

#: Search-space bounds: pipelines longer than this never pay for their
#: extra fixpoint sweeps, and bounding the space keeps random proposals
#: meaningfully dense.
MAX_REGEX_PASSES = 5
MAX_CICERO_PASSES = 4

STRATEGIES = ("hill", "random")


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered, possibly repeating, pass pipeline for both dialects."""

    regex_passes: Tuple[str, ...] = DEFAULT_REGEX_PIPELINE
    cicero_passes: Tuple[str, ...] = DEFAULT_CICERO_PIPELINE

    def describe(self) -> str:
        return (
            ",".join(self.regex_passes) + " | " + ",".join(self.cicero_passes)
        )

    def to_dict(self) -> Dict[str, List[str]]:
        return {
            "regex_passes": list(self.regex_passes),
            "cicero_passes": list(self.cicero_passes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Sequence[str]]) -> "PipelineSpec":
        return cls(
            regex_passes=tuple(payload.get("regex_passes", ())),
            cicero_passes=tuple(payload.get("cicero_passes", ())),
        )


DEFAULT_SPEC = PipelineSpec()


def available_passes() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Registered (regex, cicero) pass names the search may draw from."""
    return (
        tuple(registered_pass_names("regex-")),
        tuple(registered_pass_names("cicero-")),
    )


class SearchStrategy:
    """Proposal interface; implement these two methods to plug in RL."""

    name = "abstract"

    def reset(
        self,
        rng: random.Random,
        regex_pool: Tuple[str, ...],
        cicero_pool: Tuple[str, ...],
    ) -> None:
        self.rng = rng
        self.regex_pool = regex_pool
        self.cicero_pool = cicero_pool

    def propose(
        self, best_spec: PipelineSpec, best_cost: Optional[CostBreakdown]
    ) -> PipelineSpec:
        raise NotImplementedError

    def observe(self, spec: PipelineSpec, cost: Optional[CostBreakdown]) -> None:
        """Called after scoring; ``None`` marks an invalid candidate."""


class RandomSearch(SearchStrategy):
    """Uniform sampling over bounded pipelines (with replacement)."""

    name = "random"

    def _sample(self, pool: Tuple[str, ...], max_len: int) -> Tuple[str, ...]:
        length = self.rng.randint(0, max_len)
        return tuple(self.rng.choice(pool) for _ in range(length))

    def propose(
        self, best_spec: PipelineSpec, best_cost: Optional[CostBreakdown]
    ) -> PipelineSpec:
        return PipelineSpec(
            regex_passes=self._sample(self.regex_pool, MAX_REGEX_PASSES),
            cicero_passes=self._sample(self.cicero_pool, MAX_CICERO_PASSES),
        )


class HillClimbSearch(SearchStrategy):
    """First-improvement hill climbing from the incumbent best.

    One mutation per proposal — swap two positions, drop one pass,
    insert a registered pass, or replace one — applied to either half
    of the incumbent.  Because the driver only ever advances the
    incumbent on strict improvement, the climb monotonically descends
    the cost surface; random restarts come for free from mutations
    that happen to rebuild a distant spec.
    """

    name = "hill"

    _MOVES = ("swap", "drop", "insert", "replace")

    def _mutate(
        self, passes: Tuple[str, ...], pool: Tuple[str, ...], max_len: int
    ) -> Tuple[str, ...]:
        rng = self.rng
        sequence = list(passes)
        move = rng.choice(self._MOVES)
        if move == "swap" and len(sequence) >= 2:
            i, j = rng.sample(range(len(sequence)), 2)
            sequence[i], sequence[j] = sequence[j], sequence[i]
        elif move == "drop" and sequence:
            del sequence[rng.randrange(len(sequence))]
        elif move == "insert" and len(sequence) < max_len:
            sequence.insert(
                rng.randint(0, len(sequence)), rng.choice(pool)
            )
        elif move == "replace" and sequence:
            sequence[rng.randrange(len(sequence))] = rng.choice(pool)
        else:
            # The drawn move was a no-op on this length; fall back to a
            # fresh insert/drop so every proposal differs structurally.
            if len(sequence) < max_len:
                sequence.insert(
                    rng.randint(0, len(sequence)), rng.choice(pool)
                )
            elif sequence:
                del sequence[rng.randrange(len(sequence))]
        return tuple(sequence)

    def propose(
        self, best_spec: PipelineSpec, best_cost: Optional[CostBreakdown]
    ) -> PipelineSpec:
        if self.rng.random() < 0.5:
            return PipelineSpec(
                regex_passes=self._mutate(
                    best_spec.regex_passes, self.regex_pool, MAX_REGEX_PASSES
                ),
                cicero_passes=best_spec.cicero_passes,
            )
        return PipelineSpec(
            regex_passes=best_spec.regex_passes,
            cicero_passes=self._mutate(
                best_spec.cicero_passes, self.cicero_pool, MAX_CICERO_PASSES
            ),
        )


def make_strategy(name: str) -> SearchStrategy:
    if name == "hill":
        return HillClimbSearch()
    if name == "random":
        return RandomSearch()
    raise ValueError(f"unknown strategy {name!r}; use one of {STRATEGIES}")


@dataclass
class TuningResult:
    """Outcome of one :func:`tune` run over one pattern set."""

    best_spec: PipelineSpec
    best_cost: CostBreakdown
    default_cost: CostBreakdown
    evaluations: int
    invalid: int
    seed: int
    strategy: str
    #: ``(spec, composite-or-None)`` per evaluation, in order — the
    #: search log the CLI persists for post-mortems.
    log: List[Tuple[PipelineSpec, Optional[float]]] = field(
        default_factory=list
    )

    @property
    def improvement(self) -> float:
        """``default/best`` composite ratio; ≥ 1.0 by construction."""
        if self.best_cost.composite == 0:
            return 1.0
        return self.default_cost.composite / self.best_cost.composite


def tune(
    patterns: Sequence[str],
    *,
    seed: int = 2025,
    strategy: str = "hill",
    max_evals: int = 48,
    seconds: Optional[float] = None,
    weights: CostWeights = DEFAULT_WEIGHTS,
    probe_text: Optional[bytes] = None,
    cost_model: Optional[CostModel] = None,
    tracer: Optional[AnyTracer] = None,
    metrics: Optional[AnyMetrics] = None,
) -> TuningResult:
    """Search for a pipeline beating the default on ``patterns``.

    The default pipeline is evaluated first and held as the incumbent,
    so ``best_cost.composite <= default_cost.composite`` always holds —
    the tuner can only *gain*.  ``max_evals`` bounds the number of
    proposals (the reproducible bound); ``seconds`` adds a wall-clock
    cutoff checked between evaluations (for CI boxes — a time-bounded
    run is machine-dependent in *how far* it searched, never in what
    any prefix of the search did).
    """
    if not patterns:
        raise ValueError("tune() needs at least one pattern")
    model = (
        cost_model
        if cost_model is not None
        else CostModel(weights=weights, probe_text=probe_text)
    )
    tracer = as_tracer(tracer)
    registry = as_metrics(metrics)
    evals_counter = registry.counter(
        "repro_tuner_evaluations_total",
        help_text="candidate pipelines scored by the auto-tuner",
    )
    improved_counter = registry.counter(
        "repro_tuner_improvements_total",
        help_text="candidates that beat the incumbent best",
    )
    invalid_counter = registry.counter(
        "repro_tuner_invalid_candidates_total",
        help_text="candidates rejected (failed compile or budget trip)",
    )

    rng = random.Random(seed)
    searcher = make_strategy(strategy)
    regex_pool, cicero_pool = available_passes()
    searcher.reset(rng, regex_pool, cicero_pool)

    deadline = time.monotonic() + seconds if seconds is not None else None
    memo: Dict[PipelineSpec, Optional[CostBreakdown]] = {}
    log: List[Tuple[PipelineSpec, Optional[float]]] = []
    invalid = 0

    with tracer.span(
        "tuning.search",
        strategy=searcher.name,
        seed=seed,
        patterns=len(patterns),
        max_evals=max_evals,
    ) as root:

        def score(spec: PipelineSpec) -> Optional[CostBreakdown]:
            if spec in memo:
                return memo[spec]
            with tracer.span("tuning.candidate", spec=spec.describe()) as span:
                try:
                    cost = model.evaluate(patterns, spec)
                except ReproError as error:
                    memo[spec] = None
                    if tracer.enabled:
                        span.set(invalid=True, error=getattr(error, "code", ""))
                    return None
                if tracer.enabled:
                    span.set(**cost.to_dict())
            memo[spec] = cost
            return cost

        default_cost = score(DEFAULT_SPEC)
        if default_cost is None:
            raise IRError(
                "the default pipeline failed to compile the pattern set; "
                "nothing to tune"
            )
        evals_counter.inc()
        log.append((DEFAULT_SPEC, default_cost.composite))
        best_spec, best_cost = DEFAULT_SPEC, default_cost

        for _ in range(max_evals):
            if deadline is not None and time.monotonic() >= deadline:
                break
            spec = searcher.propose(best_spec, best_cost)
            cost = score(spec)
            searcher.observe(spec, cost)
            evals_counter.inc()
            log.append(
                (spec, cost.composite if cost is not None else None)
            )
            if cost is None:
                invalid += 1
                invalid_counter.inc()
                continue
            if cost.composite < best_cost.composite:
                best_spec, best_cost = spec, cost
                improved_counter.inc()
        if tracer.enabled:
            root.set(
                evaluations=len(log),
                best_composite=best_cost.composite,
                default_composite=default_cost.composite,
                improvement=(
                    default_cost.composite / best_cost.composite
                    if best_cost.composite
                    else 1.0
                ),
            )

    return TuningResult(
        best_spec=best_spec,
        best_cost=best_cost,
        default_cost=default_cost,
        evaluations=len(log),
        invalid=invalid,
        seed=seed,
        strategy=searcher.name,
        log=log,
    )


__all__ = [
    "DEFAULT_CICERO_PIPELINE",
    "DEFAULT_REGEX_PIPELINE",
    "DEFAULT_SPEC",
    "HillClimbSearch",
    "MAX_CICERO_PASSES",
    "MAX_REGEX_PASSES",
    "PipelineSpec",
    "RandomSearch",
    "STRATEGIES",
    "SearchStrategy",
    "TuningResult",
    "available_passes",
    "make_strategy",
    "tune",
]
