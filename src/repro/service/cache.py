"""Lock-striped LRU caching for the concurrent query service.

:class:`StripedLRUCache` composes N independent
:class:`~repro.engine.engine.PlanCache` shards, each guarded by its own lock.
A key is routed to a shard by hash, so concurrent workers touching different
keys proceed without contending on one global cache lock — the classical
lock-striping pattern.  The class exposes the exact ``get``/``put``/counter
surface of :class:`PlanCache`, so a :class:`~repro.engine.engine.PathQueryEngine`
accepts either interchangeably, and the same structure caches both plans and
materialized query outcomes in :class:`~repro.service.service.QueryService`.

Process-mode caveat: under ``execution_mode="processes"`` the
striped caches are **parent-only**.  A forked worker inherits a copy of this
object whose stripe locks may have been *held by some other parent thread*
at the fork instant — acquiring one in the child would deadlock forever, so
worker processes must never touch an inherited striped cache (they run
private, unshared per-process :class:`PlanCache` instances instead, and the
parent dispatchers install worker results into the shared result cache on
their behalf).  This keeps every striped-cache access on the parent side of
the fork, where the locks' owners are live threads.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.engine.engine import PlanCache

__all__ = ["StripedLRUCache"]


class StripedLRUCache:
    """A thread-safe LRU cache built from independently locked shards.

    Args:
        maxsize: Total capacity across all stripes (``0`` disables caching —
            ``put`` becomes a no-op and every ``get`` is a miss).
        stripes: Number of independently locked shards.  Clamped to
            ``maxsize`` so no shard ends up with zero capacity, and to at
            least 1.

    Eviction is LRU *per stripe*: each shard evicts its own least-recently
    used entry when it overflows its slice of the capacity.  Counters
    (``hits`` / ``misses`` / ``evictions``) aggregate across stripes.
    """

    def __init__(self, maxsize: int = 256, stripes: int = 8) -> None:
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self.maxsize = max(maxsize, 0)
        num_stripes = max(1, min(stripes, self.maxsize)) if self.maxsize else 1
        base, remainder = divmod(self.maxsize, num_stripes)
        self._shards = [
            PlanCache(base + (1 if index < remainder else 0)) for index in range(num_stripes)
        ]
        self._locks = [threading.Lock() for _ in range(num_stripes)]
        # clear() is not naturally atomic across independently locked stripes
        # (a concurrent put into an already-swept stripe would survive the
        # clear).  The generation counter closes that hole: clear() bumps it
        # before sweeping, and put() re-checks it after inserting — see put().
        self._generation = 0
        self._generation_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Core cache surface (mirrors PlanCache)
    # ------------------------------------------------------------------
    def _index(self, key: Any) -> int:
        return hash(key) % len(self._shards)

    def get(self, key: Any) -> Any | None:
        """Return the cached entry for ``key`` (marking it most-recently used)."""
        index = self._index(key)
        with self._locks[index]:
            return self._shards[index].get(key)

    def put(self, key: Any, entry: Any) -> None:
        """Insert ``entry``, evicting the stripe's LRU entry when it overflows.

        Linearizes correctly against :meth:`clear`: the generation observed
        before the insert is re-checked after it, and the entry is removed
        again if a clear ran in between — so no put that *began before* a
        clear can survive it.  A put that begins after the generation bump
        survives by design (it is linearized after the clear).
        """
        index = self._index(key)
        generation = self._generation
        with self._locks[index]:
            self._shards[index].put(key, entry)
            if self._generation != generation:
                self._shards[index].remove(key)

    def remove(self, key: Any) -> None:
        """Drop one entry if present (no counter changes)."""
        index = self._index(key)
        with self._locks[index]:
            self._shards[index].remove(key)

    def clear(self) -> None:
        """Atomically drop every entry from every stripe (counters are kept).

        Bumps the generation counter *before* sweeping the stripes so
        concurrent :meth:`put` calls that started earlier cannot leak an
        entry past the clear (they detect the bump and undo themselves).
        """
        with self._generation_lock:
            self._generation += 1
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.clear()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Any) -> bool:
        index = self._index(key)
        with self._locks[index]:
            return key in self._shards[index]

    # ------------------------------------------------------------------
    # Aggregated statistics
    # ------------------------------------------------------------------
    @property
    def stripes(self) -> int:
        """Number of independently locked shards."""
        return len(self._shards)

    @property
    def hits(self) -> int:
        """Total cache hits across all stripes."""
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        """Total cache misses across all stripes."""
        return sum(shard.misses for shard in self._shards)

    @property
    def evictions(self) -> int:
        """Total LRU evictions across all stripes."""
        return sum(shard.evictions for shard in self._shards)

    def stats(self) -> dict[str, Any]:
        """Return a point-in-time counter summary (entries, hits, misses, evictions).

        ``per_stripe`` breaks the aggregates down by shard, making hotspots
        (one stripe absorbing most of the traffic) and delta-invalidation
        effectiveness observable from :class:`~repro.service.ServiceStatistics`.
        """
        return {
            "entries": len(self),
            "maxsize": self.maxsize,
            "stripes": self.stripes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "per_stripe": [
                {
                    "entries": len(shard),
                    "hits": shard.hits,
                    "misses": shard.misses,
                    "evictions": shard.evictions,
                }
                for shard in self._shards
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StripedLRUCache(maxsize={self.maxsize}, stripes={self.stripes}, "
            f"entries={len(self)})"
        )
