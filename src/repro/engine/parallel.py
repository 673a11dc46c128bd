"""Worker payloads for sharding a corpus across worker processes.

The paper's hardware scales by replicating enumeration cores over input
chunks; the software analogue is sharding a corpus over worker
processes.  Workers never receive live matcher objects — they receive a
:class:`WorkerPayload` holding the *compiled artifact* (the Cicero
:class:`~repro.isa.program.Program`, a plain picklable dataclass) plus
the budget limits to honor, and rebuild the matcher once per worker when
it starts (:func:`build_match_fn`).  Each text then costs its pickled
``bytes`` in a batch and one verdict message out.

Parent-side input normalization happens *before* the fan-out, so typed
:class:`~repro.runtime.errors.InputEncodingError` rejections surface in
the calling process, never as opaque worker crashes.

Workers always come from an **explicit** ``multiprocessing`` start method
(:func:`resolve_mp_context`): the platform default on Linux is ``fork``,
which deadlocks when the parent holds locks in other threads (the
engine's cache lock, a serving framework's executor...).  We default to
``forkserver`` where available and ``spawn`` elsewhere, and let callers
override via ``Engine(mp_context=...)``.

The only worker processes in the package are the fault-tolerant scan
supervisor's (:mod:`repro.engine.supervisor`: batches over one pipe per
worker, timeouts, retries, quarantine); this module holds what it ships
to them.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional

from ..arch.config import ConfigurationError
from ..isa.program import Program
from ..prefilter.scanner import PrefilteredMatcher


def resolve_mp_context(method: Optional[str] = None):
    """An explicit ``multiprocessing`` context, never the platform default.

    ``None`` picks ``forkserver`` when the platform offers it (one clean
    server process forked early, immune to fork-after-thread deadlocks)
    and ``spawn`` otherwise (always safe, portable to macOS/Windows).
    Under ``forkserver`` the server preloads the workers' module, so a
    worker forked from it starts with the package imported instead of
    importing it before its first shard (the server imports it as a
    fresh interpreter would: installed or on ``PYTHONPATH``).  An
    unknown method name raises a typed
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
    context = multiprocessing.get_context(method)
    if method == "forkserver":  # the module of the workers' entry point
        context.set_forkserver_preload([f"{__package__}.supervisor"])
    return context


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker needs to rebuild one matcher.

    ``artifact`` is the compiled :class:`~repro.isa.program.Program`;
    its prefilter analysis rides along (the pickled program carries
    it), so a worker applies exactly the literals the parent
    extracted.  ``max_vm_steps`` and ``max_dfa_states`` are the
    :class:`~repro.runtime.budget.Budget` limits the rebuilt matcher
    enforces per text.
    """

    artifact: Program
    max_vm_steps: Optional[int] = None
    #: Ask supervised workers to record VM counters into a worker-local
    #: registry and ship per-shard deltas back with each
    #: :class:`~repro.engine.supervisor.ShardOutcome` (the engine merges
    #: them into the parent registry).  Off by default: worker VM runs
    #: attach no observer.
    collect_vm_metrics: bool = False
    max_dfa_states: Optional[int] = None


def build_match_fn(payload: WorkerPayload, metrics=None) -> PrefilteredMatcher:
    """Rebuild the matcher a payload describes.

    Its ``match`` is the ``bytes → MatchResult`` function a shard
    calls.  The engine's cache entry holds the one it builds in
    process; a worker builds its own once, when it starts.
    ``metrics`` (a :class:`~repro.observability.MetricsRegistry`)
    instruments the matcher — the engine passes its registry, a worker
    its local one when the payload asks for counter collection.
    ``None`` keeps the matcher on its uninstrumented fast path.
    """
    return PrefilteredMatcher(
        payload.artifact,
        max_dfa_states=payload.max_dfa_states,
        max_vm_steps=payload.max_vm_steps,
        metrics=metrics,
    )


__all__ = [
    "WorkerPayload",
    "build_match_fn",
    "resolve_mp_context",
]
