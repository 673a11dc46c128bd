"""Service configuration: one frozen dataclass, CLI- and test-friendly.

Every admission/backpressure knob the chaos suite exercises lives
here so a test can build a tiny service (two in-flight slots, 50 ms
deadlines) and the CLI a production one from the same type.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..runtime.budget import DEFAULT_BUDGET, Budget

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Fallback per-request deadline when the budget carries no wall clock.
DEFAULT_REQUEST_SECONDS = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`~repro.service.MatchService`.

    ``max_inflight`` bounds concurrently *admitted* requests — the
    queue the service refuses to grow past (requests over the bound
    are shed with ``429 + Retry-After: retry_after``).  Health and
    metrics endpoints are exempt so probes keep working under flood.

    ``request_seconds`` is the per-request deadline; ``None`` maps it
    to ``budget.max_wall_seconds`` (the ISSUE contract) and falls back
    to :data:`DEFAULT_REQUEST_SECONDS` when the budget is unbounded.

    ``drain_seconds`` bounds shutdown: on SIGTERM the service stops
    accepting, lets in-flight work finish for at most this long, then
    cancels the rest with typed errors.

    ``chaos`` gates the fault-injection request surface (``/scan``'s
    ``fault`` parameter) — off in production, on in the chaos suite.
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    budget: Budget = field(default_factory=lambda: DEFAULT_BUDGET)
    cache_size: int = 256
    jobs: Optional[int] = None
    max_inflight: int = 64
    retry_after: float = 1.0
    request_seconds: Optional[float] = None
    drain_seconds: float = 10.0
    header_seconds: float = 5.0
    idle_seconds: float = 60.0
    max_body_bytes: int = 64 * 1024 * 1024
    max_patterns_per_tenant: int = 4096
    stats_file: Optional[str] = None
    chaos: bool = False

    def effective_request_seconds(self) -> float:
        if self.request_seconds is not None:
            return self.request_seconds
        if self.budget.max_wall_seconds is not None:
            return self.budget.max_wall_seconds
        return DEFAULT_REQUEST_SECONDS

    def replace(self, **changes) -> "ServiceConfig":
        return replace(self, **changes)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_REQUEST_SECONDS",
    "ServiceConfig",
]
