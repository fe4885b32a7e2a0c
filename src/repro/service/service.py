"""A thread-safe concurrent query service with snapshot isolation.

:class:`QueryService` wraps :class:`~repro.engine.engine.PathQueryEngine` for
serving workloads where queries and graph mutations interleave:

* **Snapshot isolation** — every submitted query is pinned at submission time
  to an immutable :class:`~repro.graph.snapshot.GraphSnapshot` of the service
  graph, so an in-flight query never observes a partially applied batch of
  mutations, and the version it ran against is reported in its outcome.
* **Batched submission** — :meth:`submit` / :meth:`submit_many` enqueue
  requests onto a *bounded* queue drained by a pool of worker threads; each
  request may carry a deadline and resource caps, enforced cooperatively both
  at dequeue and *in flight*: the worker derives a
  :class:`~repro.execution.QueryBudget` from the request's absolute deadline
  and threads it through the engine, so a runaway recursion dies within one
  budget-check interval instead of occupying the worker past its deadline.
  :meth:`QueryTicket.result` delivers the outcome (a future-like handoff;
  :meth:`QueryTicket.add_done_callback` is its non-blocking form),
  and :meth:`run_batch` is the synchronous convenience wrapper.
* **Shared caches** — all workers share one lock-striped
  :class:`~repro.service.cache.StripedLRUCache` of parsed-and-optimized plans
  (keyed on query text and planning options: planning never reads the graph,
  so one plan serves every version) and one striped *result cache* of
  materialized outcomes keyed on text, bindings and options.  A result entry
  remembers the version it was computed at and the executed plan's
  footprint, and serves a request at another version only when the
  :class:`~repro.graph.delta.GraphDelta` between the two is disjoint from
  that footprint — a write costs only the entries it can affect.

A note on parallelism: CPython's GIL serializes the pure-Python evaluation
work, so the default *thread* worker pool provides isolation and overlap
(queries keep draining while a producer thread mutates or blocks), not CPU
parallelism — its throughput wins on cache-hot workloads (PERFORMANCE.md,
"Serving queries concurrently") come from result reuse.  For real multi-core
evaluation, ``execution_mode="processes"`` backs the dispatchers with a
:class:`~repro.service.procpool.ProcessWorkerPool` of forked worker
processes; see that module and PERFORMANCE.md.

A note on clocks: every timestamp in this module — enqueue stamps, absolute
deadlines, elapsed measurements — comes from ``time.monotonic()``.  Deadline
math only works when the stamp being compared and the clock being read share
an epoch; ``perf_counter`` is not guaranteed to share one with ``monotonic``,
and wall clocks can jump, so one monotonic clock is used for everything.
"""

from __future__ import annotations

import logging
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.engine.engine import PathQueryEngine
from repro.engine.executor import EXECUTOR_NAMES
from repro.errors import BudgetExceeded, ServiceError, ServiceOverloadedError
from repro.execution import QueryBudget
from repro.graph.delta import QueryFootprint
from repro.graph.model import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.paths.pathset import PathSet
from repro.service.cache import StripedLRUCache
from repro.service.latency import LatencyHistogram

if TYPE_CHECKING:
    from repro.service.procpool import ProcessWorkerPool, WorkerDied

__all__ = ["QueryOutcome", "QueryTicket", "ServiceStatistics", "QueryService"]

#: The values accepted by every ``execution_mode=`` knob: thread workers
#: (GIL-bound, the default) or process workers (one executor per query).
EXECUTION_MODES = ("threads", "processes")

#: Queue sentinel that tells a worker thread to exit.
_SHUTDOWN = object()

_log = logging.getLogger(__name__)


def _params_tuple(params: Mapping[str, Any] | None) -> tuple | None:
    """Canonicalize parameter bindings for cache keys and outcomes.

    Returns a sorted ``(name, value)`` tuple — the hashable identity of a
    binding set — or ``None`` when a value is unhashable, in which case the
    result cache is bypassed for the request (correctness over reuse).
    """
    if not params:
        return ()
    items = tuple(sorted(params.items()))
    try:
        hash(items)
    except TypeError:
        return None
    return items


class WireRows:
    """A one-slot memo for the wire encoding of one computed result.

    The network server stores the result's encoded row array here the first
    time it sends it (:func:`repro.server.protocol.encode_rows`), and every
    result-cache hit carries the same holder, so a hit is answered with the
    stored bytes.  Rows hold node/edge ids and edge labels only, and the
    graph is append-only, so the bytes are a pure function of the path set;
    a recomputed entry brings a fresh, empty holder, so the memo needs no
    invalidation beyond the result cache's own.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: bytes | None = None


@dataclass(frozen=True)
class QueryOutcome:
    """The outcome of one query served by :class:`QueryService`.

    Attributes:
        text: The query text as submitted.
        params: The parameter bindings as a sorted ``(name, value)`` tuple
            (empty for unparameterized submissions).
        version: The graph version the query was pinned to at submission.
        paths: The result paths (``None`` on error or timeout).
        error: Error message when the query failed; ``None`` on success.
        timed_out: ``True`` when the query was killed by its budget — either
            the deadline expired before a worker could start executing it
            (``stopped_at == "queue"``) or the in-flight execution was
            cancelled cooperatively mid-evaluation.
        budget_reason: Which budget dimension killed the query
            (``"deadline"``, ``"max_visited"`` or ``"max_results"``; empty
            when the query was not budget-killed).
        paths_visited: Paths visited as accounted by the request's budget:
            partial progress when the query was killed, total visited work
            when a budgeted query completed, zero when no budget was
            attached or the query never started (use ``timed_out`` /
            ``budget_reason`` to tell kills apart, not this counter).
        depth_reached: Deepest fix-point round or traversal depth reached
            (same accounting caveats as ``paths_visited``).
        stopped_at: Operator or loop that observed the kill (``"queue"`` when
            the deadline had already expired at dequeue).
        executor: Name of the executor that ran the plan (empty on failure).
        plan_cache_hit: Whether the parsed plan came from the shared plan cache.
        result_cache_hit: Whether the whole outcome was served from the
            result cache (no evaluation happened for this request).
        elapsed_seconds: Wall-clock execution time for this request (near
            zero on a result-cache hit; excludes queue wait).
        queued_seconds: Time the request spent waiting in the submission
            queue before a worker picked it up.
        worker: Name of the worker that served the request (a worker
            *process* name like ``proc-3`` in process mode).
        worker_died: Typed attribution when the worker process executing the
            query died and the task could not be salvaged by a requeue
            (``None`` otherwise).  Such outcomes also carry ``error``.
        wire_rows: The :class:`WireRows` memo of ``paths``: one per computed
            outcome, shared with its result-cache entry and every hit served
            from it (in-process callers never fill it).
    """

    text: str
    version: int
    paths: PathSet | None = None
    params: tuple = ()
    error: str | None = None
    timed_out: bool = False
    budget_reason: str = ""
    paths_visited: int = 0
    depth_reached: int = 0
    stopped_at: str = ""
    executor: str = ""
    plan_cache_hit: bool = False
    result_cache_hit: bool = False
    elapsed_seconds: float = 0.0
    queued_seconds: float = 0.0
    worker: str = ""
    worker_died: WorkerDied | None = None
    wire_rows: WireRows = field(default_factory=WireRows, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """``True`` when the query produced a result set."""
        return self.paths is not None

    def __len__(self) -> int:
        return len(self.paths) if self.paths is not None else 0

    def path_strings(self) -> tuple[str, ...]:
        """The result paths rendered in canonical (sorted) order."""
        if self.paths is None:
            return ()
        return tuple(str(path) for path in self.paths.sorted())

    def rendered(self) -> str:
        """A canonical one-path-per-line rendering (stable across executors).

        Two outcomes computed from the same query against the same graph
        version are byte-identical under this rendering — the parity contract
        the service test suite locks down.
        """
        return "\n".join(self.path_strings())


class QueryTicket:
    """A future-like handle to one submitted query."""

    __slots__ = ("_event", "_outcome", "_lock", "_callbacks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._outcome: QueryOutcome | None = None
        self._lock = threading.Lock()
        self._callbacks: list[Callable[[QueryOutcome], None]] = []

    def done(self) -> bool:
        """``True`` once the outcome is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryOutcome:
        """Block until the outcome is available and return it.

        Raises:
            TimeoutError: if the outcome is not available within ``timeout``
                seconds (the query itself keeps running; call again later).
        """
        if not self._event.wait(timeout):
            raise TimeoutError("query outcome not available yet")
        assert self._outcome is not None
        return self._outcome

    def add_done_callback(self, fn: Callable[[QueryOutcome], None]) -> None:
        """Call ``fn(outcome)`` exactly once, when the outcome is available.

        Registered before the query finishes, ``fn`` runs on the thread that
        resolves the ticket (a service worker, or the submitter in inline
        mode); registered after, it runs at once on the caller's thread.  An
        exception ``fn`` raises is logged and goes no further, so a callback
        can never kill a service worker.
        """
        with self._lock:
            if self._outcome is None:
                self._callbacks.append(fn)
                return
            outcome = self._outcome
        _run_callback(fn, outcome)

    def _resolve(self, outcome: QueryOutcome) -> None:
        with self._lock:
            self._outcome = outcome
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            _run_callback(fn, outcome)


def _run_callback(fn: Callable[[QueryOutcome], None], outcome: QueryOutcome) -> None:
    try:
        fn(outcome)
    except Exception:  # a worker thread must outlive any callback
        _log.exception("query ticket callback %r raised", fn)


@dataclass(frozen=True)
class _CachedResult:
    """A result-cache entry: the outcome plus the footprint that validates it.

    The cache key carries no version; the entry remembers the version the
    outcome was computed at (inside the outcome) and the executed plan's
    footprint, and a lookup at a different version serves the entry only
    when the graph delta between the two versions is disjoint from the
    footprint.
    """

    outcome: QueryOutcome
    footprint: QueryFootprint | None = None


@dataclass(frozen=True)
class _Request:
    """One enqueued unit of work (internal)."""

    text: str
    max_length: int | None
    executor: str | None
    limit: int | None
    deadline: float | None  # absolute time.monotonic() value
    max_visited: int | None
    enqueued_at: float  # time.monotonic() stamp taken at submission
    snapshot: GraphSnapshot
    ticket: QueryTicket
    params: dict[str, Any] | None = None


@dataclass
class ServiceStatistics:
    """Point-in-time counters of a :class:`QueryService`.

    ``timed_out`` splits into ``timed_out_at_dequeue`` (the deadline had
    already passed when a worker picked the request up — pure queue-wait
    starvation) and ``timed_out_in_flight`` (the execution started and was
    killed cooperatively by its budget), so capacity problems and runaway
    queries are distinguishable.  ``queued_seconds_total`` /
    ``queued_seconds_max`` aggregate queue wait across all completed
    requests.

    Delta-invalidation effectiveness is observable through
    ``result_cache_cross_version_hits`` (entries computed at one version and
    proven still valid at another — reuse whole-version invalidation would
    have thrown away) and ``result_cache_delta_rejected`` (entries found but
    discarded because the delta intersected their footprint, or the delta
    window had expired).  The per-cache dicts carry a ``per_stripe``
    breakdown from :meth:`~repro.service.cache.StripedLRUCache.stats`.

    Process-backed execution adds its own attribution: ``worker_died``
    counts queries lost to a worker-process death (deliberately *not* folded
    into ``failed`` or ``timed_out`` — a dead worker is a serving-infrastructure
    fault, not a query fault), ``requeued`` counts tasks salvaged onto
    another worker after a death, and ``reforks`` counts version-drift worker
    regenerations.  ``pool`` carries the raw
    :meth:`~repro.service.procpool.ProcessWorkerPool.statistics` dict.  All
    stay zero / empty in thread mode.
    """

    backend: str = "thread"
    workers: int = 0
    execution_mode: str = "threads"
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    timed_out: int = 0
    timed_out_at_dequeue: int = 0
    timed_out_in_flight: int = 0
    executed: int = 0
    result_cache_served: int = 0
    result_cache_cross_version_hits: int = 0
    result_cache_delta_rejected: int = 0
    queued_seconds_total: float = 0.0
    queued_seconds_max: float = 0.0
    worker_died: int = 0
    requeued: int = 0
    reforks: int = 0
    plan_cache: dict[str, Any] = field(default_factory=dict)
    result_cache: dict[str, Any] = field(default_factory=dict)
    pool: dict[str, Any] = field(default_factory=dict)
    #: Per-dimension latency histograms as :meth:`LatencyHistogram.summary`
    #: dicts — ``"query_seconds"`` (execution latency, queue wait excluded)
    #: and ``"queue_wait_seconds"`` (submission-to-dequeue wait).  Each dict
    #: carries ``count``/``mean``/``max`` and ``p50``/``p95``/``p99``
    #: percentiles plus the raw bucket counts the percentiles derive from;
    #: :meth:`merge` folds the buckets and *recomputes* the percentiles, so
    #: merged tail latencies stay exact over the union.
    latency: dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "ServiceStatistics") -> "ServiceStatistics":
        """Aggregate two statistics snapshots into one (cross-process safe).

        Built for fleets: a coordinator collecting ``statistics()`` from
        several service instances (possibly pickled across process
        boundaries) folds them pairwise.  Counters add, maxima take the max,
        nested cache/pool dicts merge numerically key-by-key, and identity
        strings that differ are joined with ``+`` so a heterogeneous merge
        is visible instead of silently mislabeled.
        """

        def tag(mine: str, theirs: str) -> str:
            return mine if mine == theirs else f"{mine}+{theirs}"

        def merge_dicts(mine: dict, theirs: dict) -> dict:
            merged = dict(mine)
            for key, value in theirs.items():
                current = merged.get(key)
                if isinstance(value, bool) or isinstance(current, bool):
                    merged[key] = value
                elif isinstance(value, (int, float)) and isinstance(current, (int, float)):
                    merged[key] = current + value
                elif isinstance(value, dict) and isinstance(current, dict):
                    merged[key] = merge_dicts(current, value)
                elif key not in merged:
                    merged[key] = value
            return merged

        def merge_latency(mine: dict, theirs: dict) -> dict:
            merged = {}
            for key in sorted(set(mine) | set(theirs)):
                a, b = mine.get(key), theirs.get(key)
                if a and b:
                    merged[key] = LatencyHistogram.merge_summaries(a, b)
                else:
                    merged[key] = dict(a or b or {})
            return merged

        return ServiceStatistics(
            backend=tag(self.backend, other.backend),
            workers=self.workers + other.workers,
            execution_mode=tag(self.execution_mode, other.execution_mode),
            submitted=self.submitted + other.submitted,
            rejected=self.rejected + other.rejected,
            completed=self.completed + other.completed,
            failed=self.failed + other.failed,
            timed_out=self.timed_out + other.timed_out,
            timed_out_at_dequeue=self.timed_out_at_dequeue + other.timed_out_at_dequeue,
            timed_out_in_flight=self.timed_out_in_flight + other.timed_out_in_flight,
            executed=self.executed + other.executed,
            result_cache_served=self.result_cache_served + other.result_cache_served,
            result_cache_cross_version_hits=(
                self.result_cache_cross_version_hits + other.result_cache_cross_version_hits
            ),
            result_cache_delta_rejected=(
                self.result_cache_delta_rejected + other.result_cache_delta_rejected
            ),
            queued_seconds_total=self.queued_seconds_total + other.queued_seconds_total,
            queued_seconds_max=max(self.queued_seconds_max, other.queued_seconds_max),
            worker_died=self.worker_died + other.worker_died,
            requeued=self.requeued + other.requeued,
            reforks=self.reforks + other.reforks,
            plan_cache=merge_dicts(self.plan_cache, other.plan_cache),
            result_cache=merge_dicts(self.result_cache, other.result_cache),
            pool=merge_dicts(self.pool, other.pool),
            latency=merge_latency(self.latency, other.latency),
        )


class QueryService:
    """Serve extended-GQL queries concurrently over a mutating property graph.

    Args:
        graph: The live graph to serve; submissions snapshot it (mutations
            through :meth:`PropertyGraph.add_node` / ``add_edge`` remain the
            caller's job and are safe to interleave with queries).  No
            submission builds its columnar core; a graph its owner froze is
            read through the core, any other through its objects.
        workers: Worker-thread count.  ``0`` executes every submission inline
            on the calling thread (the serial mode used as the benchmark
            baseline) while keeping the full snapshot/caching semantics.
        plan_cache_size: Total capacity of the shared lock-striped plan cache
            (ignored when ``plan_cache`` is given).
        plan_cache: An externally owned plan cache to share instead of
            building a private one — how :class:`repro.api.Database` lets its
            direct sessions and its service populate one cache.  Must be
            thread-safe for ``workers > 0`` (a
            :class:`~repro.service.cache.StripedLRUCache`).
        result_cache_size: Total capacity of the shared result cache
            (``0`` disables result reuse entirely).
        cache_stripes: Lock stripes for both shared caches.
        executor: Default executor knob forwarded to the engines.
        optimize: Whether worker engines run the rewrite optimizer.
        default_max_length: Engine-level bound for unbounded ϕWalk recursion.
        default_deadline: Default per-query deadline in seconds (``None`` —
            no deadline).  Deadlines are enforced both at dequeue (an expired
            request is answered with a ``timed_out`` outcome without being
            executed) and *in flight*: the worker derives a
            :class:`~repro.execution.QueryBudget` from the absolute deadline
            and the engine cancels the execution cooperatively at the next
            budget checkpoint after it passes.
        default_max_visited: Default cap on paths visited per query
            (``None`` — unlimited); per-call ``max_visited`` overrides it.
        max_pending: Bound of the submission queue; :meth:`submit` blocks
            once this many requests are waiting (back-pressure).
        execution_mode: Where query evaluation happens.  ``"threads"``
            (default) keeps the in-process worker threads — GIL-bound,
            isolation without CPU parallelism.  ``"processes"`` backs the
            same dispatcher threads with a
            :class:`~repro.service.procpool.ProcessWorkerPool`: each query
            runs in a forked worker process with the executor the parent's
            engine chose, so evaluation runs truly in parallel on a
            multi-core host.  The shared plan and result caches stay in the
            parent in both modes: dispatchers warm the plan cache via
            ``prepare`` and install worker results into the result cache, so
            delta/footprint invalidation behaves identically across modes.
            Process mode requires ``workers >= 1``.
        pool_options: Advanced/testing knobs forwarded verbatim to
            :class:`~repro.service.procpool.ProcessWorkerPool`
            (``start_method``, ``max_requeues``, ``crash_hook``,
            ``plan_cache_size`` for the workers' private plan caches).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        workers: int = 4,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        cache_stripes: int = 8,
        executor: str = "auto",
        optimize: bool = True,
        default_max_length: int | None = None,
        default_deadline: float | None = None,
        default_max_visited: int | None = None,
        max_pending: int = 1024,
        plan_cache: StripedLRUCache | None = None,
        execution_mode: str = "threads",
        pool_options: dict[str, Any] | None = None,
    ) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if executor not in EXECUTOR_NAMES:
            raise ServiceError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        if execution_mode not in EXECUTION_MODES:
            raise ServiceError(
                f"unknown execution_mode {execution_mode!r}; expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        if execution_mode != "threads" and workers < 1:
            raise ServiceError(
                f"execution_mode={execution_mode!r} needs workers >= 1 "
                "(inline mode has no processes to dispatch to)"
            )
        self.graph = graph
        self.workers = workers
        self.execution_mode = execution_mode
        self.default_executor = executor
        self.default_deadline = default_deadline
        self.default_max_visited = default_max_visited
        self.max_pending = max_pending
        self.plan_cache = (
            plan_cache if plan_cache is not None else StripedLRUCache(plan_cache_size, cache_stripes)
        )
        self.result_cache = StripedLRUCache(result_cache_size, cache_stripes)
        self._engines = [
            PathQueryEngine(
                graph,
                optimize=optimize,
                default_max_length=default_max_length,
                executor=executor,
                plan_cache=self.plan_cache,
            )
            for _ in range(max(workers, 1))
        ]
        self._pool: ProcessWorkerPool | None = None
        if execution_mode == "processes":
            # Imported on demand: a thread-mode process never loads the pool
            # or multiprocessing (~0.5 MiB resident).
            from repro.service.procpool import ProcessWorkerPool

            options = dict(pool_options or {})
            options.setdefault("plan_cache_size", plan_cache_size)
            # Pool capacity == the dispatcher thread count, so every
            # dispatcher can keep exactly one worker process busy.
            self._pool = ProcessWorkerPool(
                graph,
                workers,
                optimize=optimize,
                default_max_length=default_max_length,
                **options,
            )
        self._stats_lock = threading.Lock()
        # Serializes the closed-check + enqueue in submit() against close():
        # without it a submission could land behind the shutdown sentinels
        # and its ticket would never resolve.
        self._submit_lock = threading.Lock()
        # workers=0 runs submissions on one shared engine; concurrent inline
        # submitters must not race on its unsynchronized per-version memos.
        self._inline_lock = threading.Lock()
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._timed_out = 0
        self._timed_out_at_dequeue = 0
        self._timed_out_in_flight = 0
        self._worker_died = 0
        self._executed = 0
        self._result_cache_served = 0
        self._cross_version_hits = 0
        self._delta_rejected = 0
        self._queued_seconds_total = 0.0
        self._queued_seconds_max = 0.0
        self._latency = LatencyHistogram()
        self._queue_wait = LatencyHistogram()
        self._closed = False
        self._queue: queue_module.Queue | None = None
        self._threads: list[threading.Thread] = []
        if workers:
            self._queue = queue_module.Queue(maxsize=max_pending)
            for index in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(f"worker-{index}", self._engines[index]),
                    name=f"repro-query-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def _build_request(
        self,
        text: str,
        max_length: int | None,
        executor: str | None,
        limit: int | None,
        deadline: float | None,
        max_visited: int | None,
        params: Mapping[str, Any] | None,
        snapshot: GraphSnapshot | None,
    ) -> _Request:
        """Stamp and pin one request (caller holds ``_submit_lock``)."""
        relative = deadline if deadline is not None else self.default_deadline
        now = time.monotonic()
        return _Request(
            text=text,
            max_length=max_length,
            executor=executor,
            limit=limit,
            deadline=(now + relative) if relative is not None else None,
            max_visited=(
                max_visited if max_visited is not None else self.default_max_visited
            ),
            enqueued_at=now,
            snapshot=snapshot if snapshot is not None else self.graph.snapshot(),
            ticket=QueryTicket(),
            params=dict(params) if params else None,
        )

    def submit(
        self,
        text: str,
        max_length: int | None = None,
        executor: str | None = None,
        limit: int | None = None,
        deadline: float | None = None,
        max_visited: int | None = None,
        params: Mapping[str, Any] | None = None,
        snapshot: GraphSnapshot | None = None,
    ) -> QueryTicket:
        """Enqueue one query and return its :class:`QueryTicket`.

        The query is pinned to a snapshot of the graph *now*, at submission —
        mutations that commit while it waits in the queue are invisible to
        it.  Blocks when the submission queue is full (back-pressure).

        ``deadline`` is relative (seconds from now); it is converted to an
        absolute monotonic instant at submission, so queue wait counts
        against it.  ``max_visited`` caps the paths the execution may visit.
        ``params`` binds the query's ``$name`` placeholders; the shared plan
        cache is keyed on the parameterized text (all bindings share one
        plan) while the result cache is keyed on text *and* bindings, so two
        bindings can never serve each other's results.

        ``snapshot`` overrides the pin: pass an existing
        :class:`~repro.graph.snapshot.GraphSnapshot` (e.g. a long-lived
        session's) to evaluate at *that* version instead of the current one —
        how the network front-end keeps every query of a connection on the
        connection's pinned version.  The graph is append-only, so any worker
        can serve any past version.
        """
        with self._submit_lock:
            if self._closed:
                raise ServiceError("service is closed; no further submissions accepted")
            request = self._build_request(
                text, max_length, executor, limit, deadline, max_visited, params, snapshot
            )
            if self._queue is not None:
                # Bounded wait so a full queue cannot wedge the service:
                # close() flips _closed without taking _submit_lock, so a
                # blocked producer notices within one tick and aborts
                # instead of holding the lock (and close()) hostage.
                while True:
                    try:
                        self._queue.put(request, timeout=0.05)
                        break
                    except queue_module.Full:
                        if self._closed:
                            raise ServiceError(
                                "service closed while waiting for queue space"
                            ) from None
            with self._stats_lock:
                self._submitted += 1
        if self._queue is None:
            with self._inline_lock:
                self._serve(request, self._engines[0], "inline")
        return request.ticket

    def try_submit(
        self,
        text: str,
        max_length: int | None = None,
        executor: str | None = None,
        limit: int | None = None,
        deadline: float | None = None,
        max_visited: int | None = None,
        params: Mapping[str, Any] | None = None,
        snapshot: GraphSnapshot | None = None,
    ) -> QueryTicket:
        """Non-blocking :meth:`submit`: reject instead of waiting for queue space.

        The admission-control variant used by the network front-end.  When
        the bounded submission queue is full, :meth:`submit` applies
        back-pressure by blocking the producer; a network server cannot
        block its event loop on a slow consumer, so this method raises a
        typed :class:`~repro.errors.ServiceOverloadedError` instead (the
        429-shaped signal: nothing was enqueued, retry after backoff).
        Accepted submissions behave exactly like :meth:`submit`.
        """
        with self._submit_lock:
            if self._closed:
                raise ServiceError("service is closed; no further submissions accepted")
            request = self._build_request(
                text, max_length, executor, limit, deadline, max_visited, params, snapshot
            )
            if self._queue is not None:
                try:
                    self._queue.put_nowait(request)
                except queue_module.Full:
                    with self._stats_lock:
                        self._rejected += 1
                    raise ServiceOverloadedError(
                        "submission queue is full",
                        pending=self._queue.qsize(),
                        capacity=self.max_pending,
                    ) from None
            with self._stats_lock:
                self._submitted += 1
        if self._queue is None:
            with self._inline_lock:
                self._serve(request, self._engines[0], "inline")
        return request.ticket

    def submit_many(self, texts: list[str] | tuple[str, ...], **options) -> list[QueryTicket]:
        """Submit a batch of query texts; returns one ticket per query, in order."""
        return [self.submit(text, **options) for text in texts]

    def run_batch(self, texts: list[str] | tuple[str, ...], **options) -> list[QueryOutcome]:
        """Submit a batch and block until every outcome is available."""
        tickets = self.submit_many(texts, **options)
        return [ticket.result() for ticket in tickets]

    # ------------------------------------------------------------------
    # Worker machinery
    # ------------------------------------------------------------------
    def _worker_loop(self, name: str, engine: PathQueryEngine) -> None:
        assert self._queue is not None
        while True:
            request = self._queue.get()
            if request is _SHUTDOWN:
                self._queue.task_done()
                break
            try:
                self._serve(request, engine, name)
            finally:
                self._queue.task_done()

    def _serve(self, request: _Request, engine: PathQueryEngine, worker: str) -> None:
        outcome = self._execute(request, engine, worker)
        with self._stats_lock:
            self._completed += 1
            if outcome.timed_out:
                self._timed_out += 1
                if outcome.stopped_at == "queue":
                    self._timed_out_at_dequeue += 1
                else:
                    self._timed_out_in_flight += 1
            elif outcome.worker_died is not None:
                # A dead worker process is a serving-infrastructure fault,
                # attributed separately from query failures and timeouts.
                self._worker_died += 1
            elif outcome.error is not None:
                self._failed += 1
            if outcome.result_cache_hit:
                self._result_cache_served += 1
            elif outcome.ok:
                self._executed += 1
            self._queued_seconds_total += outcome.queued_seconds
            if outcome.queued_seconds > self._queued_seconds_max:
                self._queued_seconds_max = outcome.queued_seconds
            self._latency.observe(outcome.elapsed_seconds)
            self._queue_wait.observe(outcome.queued_seconds)
        request.ticket._resolve(outcome)

    def _execute(self, request: _Request, engine: PathQueryEngine, worker: str) -> QueryOutcome:
        version = request.snapshot.version
        # One clock for everything: the enqueue stamp, the absolute deadline
        # and the elapsed measurement below all come from time.monotonic(),
        # so every difference between them is meaningful (see module docs).
        started = time.monotonic()
        queued = started - request.enqueued_at
        params_tuple = _params_tuple(request.params)
        if request.deadline is not None and started >= request.deadline:
            return QueryOutcome(
                text=request.text,
                version=version,
                params=params_tuple if params_tuple is not None else (),
                timed_out=True,
                budget_reason="deadline",
                stopped_at="queue",
                queued_seconds=queued,
                worker=worker,
            )
        effective_executor = (
            request.executor if request.executor is not None else self.default_executor
        )
        # The bindings are part of the result identity: the plan cache
        # deliberately shares one entry across every binding of a prepared
        # text, so the *result* key must carry the bindings (sorted, so dict
        # insertion order never splits or aliases entries).  Unhashable
        # binding values (params_tuple is None) bypass the result cache
        # entirely rather than failing the request.  The key is version-free;
        # the entry is revalidated against the graph delta.
        key = (
            "outcome",
            request.text,
            params_tuple,
            request.max_length,
            effective_executor,
            request.limit,
        )
        entry = self.result_cache.get(key) if params_tuple is not None else None
        cached = self._validate_entry(entry, version) if entry is not None else None
        if cached is not None:
            # Hand out a fresh PathSet per hit: PathSet is mutable, and a
            # consumer editing its outcome must not poison the cached entry
            # or other consumers (copying is linear in the result and far
            # cheaper than re-evaluating).
            assert cached.paths is not None
            return replace(
                cached,
                paths=PathSet.from_unique(cached.paths),
                # The entry may have been computed at a different version;
                # the outcome reports the version *this* request was pinned
                # to (the delta proved the results identical).
                version=version,
                result_cache_hit=True,
                # This request never consulted the plan cache nor visited
                # any path; the stored values describe the request that
                # computed the entry.
                plan_cache_hit=False,
                paths_visited=0,
                depth_reached=0,
                worker=worker,
                elapsed_seconds=time.monotonic() - started,
                queued_seconds=queued,
            )
        if self._pool is not None:
            return self._execute_process(
                request, engine, worker, version, params_tuple, key, started, queued
            )
        # The budget carries the request's *absolute* deadline, so time spent
        # queued (and in parse/plan) counts against it — an in-flight query
        # dies within one budget-check interval of the deadline.
        budget: QueryBudget | None = None
        if request.deadline is not None or request.max_visited is not None:
            budget = QueryBudget(
                deadline=request.deadline, max_visited=request.max_visited
            )
        try:
            result = engine.query(
                request.text,
                max_length=request.max_length,
                executor=request.executor,
                limit=request.limit,
                graph=request.snapshot,
                budget=budget,
                params=request.params,
            )
        except BudgetExceeded as exceeded:
            # A budget kill is an expected outcome, not a failure: report it
            # as timed out with the partial progress the execution made.
            # Nothing is cached — the result cache only ever stores complete
            # outcomes, and the plan cache holds at most the (valid) plan.
            return QueryOutcome(
                text=request.text,
                version=version,
                params=params_tuple if params_tuple is not None else (),
                timed_out=True,
                budget_reason=exceeded.reason,
                paths_visited=exceeded.paths_visited,
                depth_reached=exceeded.depth_reached,
                stopped_at=exceeded.stopped_at,
                worker=worker,
                elapsed_seconds=time.monotonic() - started,
                queued_seconds=queued,
            )
        except Exception as error:  # keep the worker alive on any query failure
            return QueryOutcome(
                text=request.text,
                version=version,
                params=params_tuple if params_tuple is not None else (),
                error=f"{type(error).__name__}: {error}",
                worker=worker,
                elapsed_seconds=time.monotonic() - started,
                queued_seconds=queued,
            )
        outcome = QueryOutcome(
            text=request.text,
            version=version,
            params=params_tuple if params_tuple is not None else (),
            paths=result.paths,
            executor=result.executor,
            plan_cache_hit=result.cache_hit,
            paths_visited=result.statistics.budget_paths_visited,
            depth_reached=result.statistics.budget_depth_reached,
            elapsed_seconds=time.monotonic() - started,
            queued_seconds=queued,
            worker=worker,
        )
        # Cache a private copy of the path set — the outcome handed to the
        # submitting caller must not alias the cached entry (see the hit path).
        # The copy shares the outcome's wire_rows memo: the bytes a server
        # encodes for this miss answer every later hit.
        if params_tuple is not None:
            self.result_cache.put(
                key,
                _CachedResult(
                    outcome=replace(outcome, paths=PathSet.from_unique(result.paths)),
                    footprint=result.statistics.footprint,
                ),
            )
        return outcome

    def _execute_process(
        self,
        request: _Request,
        engine: PathQueryEngine,
        worker: str,
        version: int,
        params_tuple: tuple | None,
        key: tuple,
        started: float,
        queued: float,
    ) -> QueryOutcome:
        """Serve one result-cache-missing request through the process pool.

        The split of work across the boundary is deliberate: the *parent*
        parses/optimizes (warming the shared plan cache for every future
        request), resolves the executor through the same engine code thread
        mode uses, and installs the result into the shared result cache; the
        *worker process* only evaluates, always with a concrete executor.
        The worker re-parses against its private per-process plan cache —
        plan objects never cross the pipe, result paths do (as id tuples),
        and the cached entry's footprint comes from the parent's plan, so
        PR 6's delta invalidation behaves identically to thread mode.
        """
        from repro.service.procpool import CRASH_QUERY, decode_paths

        params = params_tuple if params_tuple is not None else ()
        try:
            if self._pool.crash_hook and request.text == CRASH_QUERY:
                # Fault injection (tests only): the sentinel is not valid GQL,
                # so skip parent-side parsing and ship it straight to a
                # worker, which os._exit()s on it.
                cached_plan = None
                executor = "pipeline"
            else:
                cached_plan = engine.prepare(
                    request.text, max_length=request.max_length, graph=request.snapshot
                )
                executor = engine.executor_for(
                    cached_plan.optimized, request.executor, request.limit
                )
            # Workers forked before this request's version can't see its
            # data; drift forks a fresh generation (no-op on the read path).
            self._pool.ensure_version(version)
            reply = self._pool.execute(
                text=request.text,
                params=request.params,
                max_length=request.max_length,
                executor=executor,
                limit=request.limit,
                deadline=request.deadline,
                max_visited=request.max_visited,
                version=version,
                num_nodes=request.snapshot.num_nodes(),
                num_edges=request.snapshot.num_edges(),
            )
        except Exception as error:  # parse/plan/dispatch failure
            return QueryOutcome(
                text=request.text,
                version=version,
                params=params,
                error=f"{type(error).__name__}: {error}",
                worker=worker,
                elapsed_seconds=time.monotonic() - started,
                queued_seconds=queued,
            )
        common = dict(
            text=request.text,
            version=version,
            params=params,
            worker=reply.worker or worker,
            elapsed_seconds=time.monotonic() - started,
            queued_seconds=queued,
        )
        if reply.kind == "worker-died":
            return QueryOutcome(
                **common,
                error=reply.error or "worker process died",
                worker_died=reply.worker_died,
            )
        if reply.kind == "budget":
            return QueryOutcome(
                **common,
                timed_out=True,
                budget_reason=reply.budget_reason,
                paths_visited=reply.paths_visited,
                depth_reached=reply.depth_reached,
                stopped_at=reply.stopped_at,
            )
        if reply.kind == "error":
            return QueryOutcome(**common, error=reply.error)
        # Rehydrate the wire-encoded paths against the request's snapshot so
        # process-mode outcomes reference the same pinned graph view as
        # thread-mode ones.
        paths = decode_paths(request.snapshot, reply.paths)
        outcome = QueryOutcome(
            **common,
            paths=paths,
            executor=reply.executor,
            plan_cache_hit=reply.plan_cache_hit,
            paths_visited=reply.paths_visited,
            depth_reached=reply.depth_reached,
        )
        if params_tuple is not None and cached_plan is not None:
            self.result_cache.put(
                key,
                _CachedResult(
                    outcome=replace(outcome, paths=PathSet.from_unique(paths)),
                    footprint=cached_plan.compute_footprint(),
                ),
            )
        return outcome

    def _validate_entry(
        self, entry: _CachedResult, version: int
    ) -> QueryOutcome | None:
        """Decide whether a result-cache entry may serve a request at ``version``.

        Same version — always.  Different version — only when the graph delta
        between the entry's version and the request's version cannot
        intersect the entry's footprint.  An expired delta window
        (``delta_between`` returning ``None``) or a missing footprint degrades
        to rejection.  Stale entries are *not* eagerly evicted: the
        recompute overwrites them in place (same key).
        """
        cached = entry.outcome
        if cached.version == version:
            return cached
        low, high = sorted((cached.version, version))
        delta = self.graph.delta_between(low, high)
        if delta is not None and not delta.affects(entry.footprint):
            with self._stats_lock:
                self._cross_version_hits += 1
            return cached
        with self._stats_lock:
            self._delta_rejected += 1
        return None

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def statistics(self) -> ServiceStatistics:
        """Return a point-in-time snapshot of the service counters."""
        pool_stats = self._pool.statistics() if self._pool is not None else {}
        with self._stats_lock:
            return ServiceStatistics(
                backend="process" if self._pool is not None else "thread",
                workers=self.workers,
                execution_mode=self.execution_mode,
                submitted=self._submitted,
                rejected=self._rejected,
                completed=self._completed,
                failed=self._failed,
                timed_out=self._timed_out,
                timed_out_at_dequeue=self._timed_out_at_dequeue,
                timed_out_in_flight=self._timed_out_in_flight,
                executed=self._executed,
                result_cache_served=self._result_cache_served,
                result_cache_cross_version_hits=self._cross_version_hits,
                result_cache_delta_rejected=self._delta_rejected,
                queued_seconds_total=self._queued_seconds_total,
                queued_seconds_max=self._queued_seconds_max,
                worker_died=self._worker_died,
                requeued=pool_stats.get("requeued", 0),
                reforks=pool_stats.get("reforks", 0),
                plan_cache=self.plan_cache.stats(),
                result_cache=self.result_cache.stats(),
                pool=pool_stats,
                latency={
                    "query_seconds": self._latency.summary(),
                    "queue_wait_seconds": self._queue_wait.summary(),
                },
            )

    def close(self, pool_deadline: float = 5.0) -> None:
        """Stop accepting submissions, drain the queue, and join the workers.

        Already-submitted queries are served before the workers exit; the
        worker-process pool (if any) is then shut down within
        ``pool_deadline`` seconds — poison pills first, ``terminate()`` for
        whoever overstays.  Idempotent; the service cannot be reopened.
        """
        with self._stats_lock:
            already_closed = self._closed
            self._closed = True
        if already_closed:
            return
        # Taking the submit lock *after* flipping the flag waits for any
        # in-flight submit() to finish enqueueing (or abort on the flag) —
        # afterwards no request can land behind the shutdown sentinels.
        with self._submit_lock:
            pass
        if self._queue is not None:
            for _ in self._threads:
                self._queue.put(_SHUTDOWN)
            for thread in self._threads:
                thread.join()
        if self._pool is not None:
            # After the dispatcher threads joined, no query is in flight —
            # the pool drains instantly unless a worker is wedged.
            self._pool.close(deadline=pool_deadline)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(graph={self.graph.name!r}, workers={self.workers}, "
            f"submitted={self._submitted})"
        )
