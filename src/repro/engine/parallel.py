"""Worker payloads for sharding a corpus across a ``multiprocessing`` pool.

The paper's hardware scales by replicating enumeration cores over input
chunks; the software analogue is sharding a corpus over worker
processes.  Workers never receive live matcher objects — they receive a
:class:`WorkerPayload` holding the *compiled artifact* (the Cicero
:class:`~repro.isa.program.Program`, a plain picklable dataclass) plus
the budget limits to honor, and rebuild the matcher once per worker in
the pool initializer (:func:`build_match_fn`).  Each text then costs one
pickled ``bytes`` in and one verdict out.

Parent-side input normalization happens *before* the fan-out, so typed
:class:`~repro.runtime.errors.InputEncodingError` rejections surface in
the calling process, never as opaque worker crashes.

Pools always come from an **explicit** ``multiprocessing`` start method
(:func:`resolve_mp_context`): the platform default on Linux is ``fork``,
which deadlocks when the parent holds locks in other threads (the
engine's cache lock, a serving framework's executor...).  We default to
``forkserver`` where available and ``spawn`` elsewhere, and let callers
override via ``Engine(mp_context=...)``.

The one pool in the package is the fault-tolerant scan supervisor's
(:mod:`repro.engine.supervisor`: per-shard futures, timeouts, retries,
quarantine); this module holds what it ships to its workers.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional

from ..arch.config import ArchConfig, ConfigurationError
from ..arch.system import CiceroSystem
from ..vm.thompson import ThompsonVM


def resolve_mp_context(method: Optional[str] = None):
    """An explicit ``multiprocessing`` context, never the platform default.

    ``None`` picks ``forkserver`` when the platform offers it (one clean
    server process forked early, immune to fork-after-thread deadlocks)
    and ``spawn`` otherwise (always safe, portable to macOS/Windows).
    An unknown method name raises a typed
    :class:`~repro.arch.config.ConfigurationError`.
    """
    available = multiprocessing.get_all_start_methods()
    if method is None:
        method = "forkserver" if "forkserver" in available else "spawn"
    if method not in available:
        raise ConfigurationError(
            f"unknown multiprocessing start method {method!r}; "
            f"this platform offers {sorted(available)}"
        )
    return multiprocessing.get_context(method)


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker needs to rebuild one matcher.

    ``artifact`` is the compiled :class:`~repro.isa.program.Program`
    both Cicero flavours run.  ``max_vm_steps`` is the
    :class:`~repro.runtime.budget.Budget` limit the rebuilt VM enforces
    per text.
    """

    backend: str
    artifact: object
    max_vm_steps: Optional[int] = None
    config: Optional[ArchConfig] = None
    #: Ask supervised workers to record VM/simulator counters into a
    #: worker-local registry and ship per-shard deltas back with each
    #: :class:`~repro.engine.supervisor.ShardOutcome` (the engine merges
    #: them into the parent registry).  Off by default: worker VM runs
    #: attach no observer.
    collect_vm_metrics: bool = False
    #: Prefilter mode for rebuilt ``cicero`` matchers (``off`` /
    #: ``literal`` / ``auto``).  The compile-time analysis itself rides
    #: on ``artifact`` (the pickled :class:`Program` carries it), so a
    #: worker applies exactly the literals the parent extracted.
    prefilter: str = "off"
    #: ``Budget.max_dfa_states`` forwarded to the worker's lazy DFA.
    max_dfa_states: Optional[int] = None


def build_match_fn(
    payload: WorkerPayload, metrics=None, vm: Optional[ThompsonVM] = None
) -> Callable[[bytes], bool]:
    """Rebuild the matcher a payload describes; returns ``bytes → bool``.

    ``metrics`` (a :class:`~repro.observability.MetricsRegistry`)
    instruments the rebuilt matcher's execution loop — the supervised
    worker initializer passes its worker-local registry here when the
    payload asks for counter collection.  ``None`` (the default) keeps
    every backend on its uninstrumented fast path.

    ``vm`` is an already built VM over a ``cicero`` payload's program:
    the engine passes its cache entry's, so a pattern's ε-closure tables
    are built once per entry; a worker has none and builds its own.
    """
    backend = payload.backend
    if backend == "cicero":
        max_steps = payload.max_vm_steps
        if payload.prefilter != "off":
            from ..prefilter.scanner import PrefilteredMatcher

            matcher = PrefilteredMatcher(
                payload.artifact,
                mode=payload.prefilter,
                max_dfa_states=payload.max_dfa_states,
                max_vm_steps=max_steps,
                metrics=metrics,
                vm=vm,
            )
            return lambda data: bool(matcher.match(data))
        if vm is None:
            vm = ThompsonVM(payload.artifact)
        if metrics is not None:
            return lambda data: bool(
                vm.run(data, max_steps=max_steps, metrics=metrics)
            )
        return lambda data: bool(vm.run(data, max_steps=max_steps))
    if backend == "cicero-sim":
        config = payload.config if payload.config is not None else ArchConfig.new(16)
        if metrics is not None:
            from ..arch.simulator import CiceroSimulator

            simulator = CiceroSimulator(config, metrics=metrics)
            program = payload.artifact
            return lambda data: simulator.run(program, data).matched
        system = CiceroSystem(payload.artifact, config)
        return lambda data: system.run(data).matched
    raise ValueError(f"unknown backend {backend!r} in worker payload")


__all__ = [
    "WorkerPayload",
    "build_match_fn",
    "resolve_mp_context",
]
