"""Concurrent query serving: snapshot-isolated workers over shared caches.

The serving layer on top of the engine facade (see PERFORMANCE.md, "Serving
queries concurrently" and "Process-parallel execution"):

* :class:`QueryService` — thread-safe query service with snapshot isolation,
  a bounded submission queue, per-query deadlines and worker threads; its
  ``execution_mode`` knob swaps the GIL-bound thread workers for a
  process-backed pool (``"processes"``);
* :class:`ProcessWorkerPool` — forked worker processes executing queries
  truly in parallel against copy-on-write graph snapshots;
* :class:`StripedLRUCache` — the lock-striped LRU shared by the workers for
  both parsed plans and materialized outcomes;
* :class:`QueryOutcome` / :class:`QueryTicket` / :class:`ServiceStatistics` —
  the result, future and introspection types of the submission API;
* :class:`WorkerDied` — typed attribution for queries lost to a worker-process
  death (reported on the outcome, counted separately from timeouts).
"""

from repro.service.cache import StripedLRUCache
from repro.service.latency import LatencyHistogram
from repro.service.service import (
    QueryOutcome,
    QueryService,
    QueryTicket,
    ServiceStatistics,
)

__all__ = [
    "QueryService",
    "QueryOutcome",
    "QueryTicket",
    "ServiceStatistics",
    "StripedLRUCache",
    "LatencyHistogram",
    "ProcessWorkerPool",
    "WorkerDied",
]


def __getattr__(name: str):
    # The process pool loads on first use, so thread-mode processes never
    # import it (or multiprocessing).
    if name in ("ProcessWorkerPool", "WorkerDied"):
        from repro.service import procpool

        return getattr(procpool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
