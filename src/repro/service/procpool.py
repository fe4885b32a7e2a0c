"""A process-backed worker pool: true multi-core query execution.

CPython's GIL means the thread workers of :class:`~repro.service.QueryService`
provide isolation and overlap but no CPU parallelism — on cache-cold traffic
they are measurably *slower* than a serial loop (PERFORMANCE.md,
"Process-parallel execution").
:class:`ProcessWorkerPool` breaks that ceiling by executing queries in child
processes:

* **Fork-time copy-on-write sharing.** The property graph is append-only and
  version-pinned, so a forked child shares the parent's graph pages for free
  and answers any query pinned to a version ``<=`` its fork version by
  building a :class:`~repro.graph.snapshot.GraphSnapshot` directly from the
  ``(version, num_nodes, num_edges)`` triple shipped with the task — no graph
  ever crosses a pipe.  Under the ``spawn`` start method (platforms without
  ``fork``) the graph is pickled to each worker once at spawn time; the
  per-task protocol is identical.
* **Spawn-on-version-drift refork.** Workers pinned at fork version *v* can
  serve any task pinned ``<= v``.  When a task arrives pinned to a newer
  version, :meth:`ensure_version` forks a fresh *generation* of workers and
  retires the old one (each retired worker finishes its in-flight task,
  drains a poison pill, and exits).  Read-heavy workloads never refork;
  write-heavy ones pay one fork per drift, not per query.
* **Compact wire protocol.** Tasks are pickled *by the dispatcher* (an
  unpicklable parameter fails that one request instead of poisoning a queue
  feeder thread).  Result paths come back as ``(node_ids, edge_ids)`` tuple
  pairs and are rehydrated against the parent's graph via
  ``Path._unchecked`` — a path object drags its whole graph through pickle,
  the id tuples do not.  :class:`~repro.errors.BudgetExceeded` partial
  progress and errors come back as typed payloads on the same queue.
* **Crash containment.** A worker announces a *claim* (task seq + pid)
  before executing.  The monitor thread watches worker liveness: when a
  worker dies, its claimed-but-unanswered task is requeued once (another
  worker retries it) and on a second death resolved as a typed
  :class:`WorkerDied` outcome; a replacement worker is forked either way.
* **Concrete executors only.** Every task names the executor the parent
  already chose (:meth:`~repro.engine.engine.PathQueryEngine.executor_for`);
  the dispatcher refuses ``"auto"``, so a worker runs exactly the route
  thread mode would have run for the same request and ``limit``.

A note on clocks: task deadlines are *absolute* ``time.monotonic()`` values
stamped in the parent.  ``CLOCK_MONOTONIC`` (and its macOS / Windows
equivalents) is system-wide, not per-process, so a deadline computed in the
parent means the same instant in every worker — queue wait and fork latency
count against the deadline exactly as they do in thread mode.

Known window: a worker that dies *between* dequeuing a task and writing its
claim (a handful of instructions) strands that task — the monitor cannot
attribute an unclaimed task to a dead worker without risking a double
execution on a live one.  Deadlined requests still resolve (the dispatcher
gives up at the deadline); deadline-free ones would wait.  The claim write
is the first statement after the dequeue precisely to keep this window
negligible.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

from repro.engine.engine import PathQueryEngine
from repro.engine.executor import EXECUTOR_NAMES
from repro.errors import BudgetExceeded, ServiceError
from repro.execution import QueryBudget
from repro.graph.compact import CompactGraph
from repro.graph.model import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = ["WorkerDied", "RemoteOutcome", "ProcessWorkerPool", "CRASH_QUERY"]

#: Sentinel query text that makes a worker call ``os._exit`` instead of
#: executing — only honored when the pool was built with ``crash_hook=True``
#: (the fault-injection switch of the crash-recovery tests).
CRASH_QUERY = "__procpool_crash__"

#: Exit code of a crash-hook death (distinguishable from a real fault).
_CRASH_EXIT_CODE = 13

#: Reader-queue sentinel that stops the parent's reply-reader thread.
_STOP = ("stop",)

#: The executor names a task may carry: everything but ``"auto"``.
_CONCRETE_EXECUTORS = tuple(name for name in EXECUTOR_NAMES if name != "auto")


@dataclass(frozen=True)
class WorkerDied:
    """Typed attribution for a query whose worker process died mid-execution.

    Attributes:
        reason: Human-readable cause (exit code / signal of the dead worker).
        pid: OS pid of the worker that died holding the claim (``None`` when
            the death was synthesized, e.g. at pool shutdown).
        requeued: ``True`` when the task was retried on another worker before
            being given up on (it then died *twice*).
    """

    reason: str
    pid: int | None = None
    requeued: bool = False


@dataclass
class RemoteOutcome:
    """What :meth:`ProcessWorkerPool.execute` returns to the dispatcher.

    ``kind`` is one of ``"ok"`` / ``"budget"`` / ``"error"`` /
    ``"worker-died"``; the remaining fields mirror the worker's payload.
    ``paths`` stays in wire encoding (``(node_ids, edge_ids)`` pairs) —
    decode with :func:`decode_paths` against the parent graph.
    """

    kind: str
    paths: list[tuple[tuple[str, ...], tuple[str, ...]]] | None = None
    executor: str = ""
    plan_cache_hit: bool = False
    budget_reason: str = ""
    paths_visited: int = 0
    depth_reached: int = 0
    stopped_at: str = ""
    error: str | None = None
    worker: str = ""
    pid: int | None = None
    worker_died: WorkerDied | None = None


def encode_paths(paths) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Flatten a path iterable to ``(node_ids, edge_ids)`` pairs for the wire."""
    return [(path._nodes, path._edges) for path in paths]


def decode_paths(graph, encoded) -> PathSet:
    """Rehydrate wire-encoded paths against ``graph`` (append-only superset)."""
    return PathSet.from_unique(
        Path._unchecked(graph, nodes, edges) for nodes, edges in encoded
    )


@dataclass
class _Task:
    """One unit of work shipped to a worker (pickled by the dispatcher)."""

    seq: int
    text: str
    params: dict | None
    max_length: int | None
    executor: str
    limit: int | None
    deadline: float | None
    max_visited: int | None
    version: int
    num_nodes: int
    num_edges: int


class _Pending:
    """Parent-side bookkeeping for one dispatched task."""

    __slots__ = (
        "task_bytes",
        "event",
        "reply",
        "worker_index",
        "claimed_pid",
        "requeues",
    )

    def __init__(self, task_bytes: bytes) -> None:
        self.task_bytes = task_bytes
        self.event = threading.Event()
        self.reply: RemoteOutcome | None = None
        self.worker_index: int | None = None
        self.claimed_pid: int | None = None
        self.requeues = 0


@dataclass
class _Worker:
    index: int
    process: multiprocessing.process.BaseProcess
    generation: int
    state: str = "alive"  # alive | retiring
    reaped: bool = False
    dead_since: float | None = None


@dataclass
class _Generation:
    index: int
    queue: object  # ctx.SimpleQueue
    workers: int = 0


def _worker_main(index, graph, options, task_queue, result_queue):
    """Worker-process entry point: dequeue, execute, reply — forever.

    The worker builds a private default engine over its (forked or unpickled)
    copy of the graph.  Tasks always name a concrete executor, so the query
    path (snapshot reads, parse/plan/optimize, the executors) is lock-free:
    nothing in it reaches ``delta_between`` and the graph lock a ``fork``
    copied in an undefined state.
    """
    engine = PathQueryEngine(
        graph,
        optimize=options["optimize"],
        default_max_length=options["default_max_length"],
        plan_cache_size=options["plan_cache_size"],
    )
    # A pool over a hard-frozen graph ships the CompactGraph itself (flat
    # int arrays: true COW pages under fork, a cheap pickle under spawn).
    # It is immutable and version-pinned, so it *is* the snapshot for every
    # task this worker can ever receive.
    compact_shipped = isinstance(graph, CompactGraph)
    pid = os.getpid()
    worker_name = f"proc-{index}"
    crash_hook = options["crash_hook"]
    while True:
        wire = task_queue.get()
        if wire is None:
            break
        task: _Task = pickle.loads(wire)
        # The claim is the crash-attribution handshake: the parent learns
        # which pid owns which seq *before* any execution can die.
        result_queue.put(("claim", task.seq, index, pid))
        if crash_hook and task.text == CRASH_QUERY:
            os._exit(_CRASH_EXIT_CODE)
        try:
            if compact_shipped:
                snapshot = graph
            else:
                snapshot = GraphSnapshot(graph, task.version, task.num_nodes, task.num_edges)
            budget = None
            if task.deadline is not None or task.max_visited is not None:
                budget = QueryBudget(deadline=task.deadline, max_visited=task.max_visited)
            result = engine.query(
                task.text,
                max_length=task.max_length,
                executor=task.executor,
                limit=task.limit,
                graph=snapshot,
                budget=budget,
                params=task.params,
            )
            result_queue.put(
                (
                    "ok",
                    task.seq,
                    {
                        "paths": encode_paths(result.paths),
                        "executor": result.executor,
                        "plan_cache_hit": result.cache_hit,
                        "paths_visited": result.statistics.budget_paths_visited,
                        "depth_reached": result.statistics.budget_depth_reached,
                        "worker": worker_name,
                        "pid": pid,
                    },
                )
            )
        except BudgetExceeded as exceeded:
            result_queue.put(
                (
                    "budget",
                    task.seq,
                    {
                        "budget_reason": exceeded.reason,
                        "paths_visited": exceeded.paths_visited,
                        "depth_reached": exceeded.depth_reached,
                        "stopped_at": exceeded.stopped_at,
                        "worker": worker_name,
                        "pid": pid,
                    },
                )
            )
        except BaseException as error:  # the reply IS the error report
            result_queue.put(
                (
                    "error",
                    task.seq,
                    {
                        "error": f"{type(error).__name__}: {error}",
                        "worker": worker_name,
                        "pid": pid,
                    },
                )
            )


class ProcessWorkerPool:
    """A pool of query-executing worker processes over one graph lineage.

    Args:
        graph: The live parent graph.  Workers fork against it (or receive a
            pickled copy under ``spawn``) and serve queries pinned to any
            version at or below their fork version.
        workers: Worker-process count (``>= 1``).
        optimize / default_max_length / plan_cache_size: Forwarded to each
            worker's private engine.
        start_method: ``"fork"`` (default where available), ``"spawn"`` or
            ``"forkserver"``.  Fork is the fast path — copy-on-write graph
            sharing; spawn pays one graph pickle per worker at (re)fork.
        max_requeues: How many times a task claimed by a dying worker is
            retried before resolving as :class:`WorkerDied`.
        crash_hook: Enable the :data:`CRASH_QUERY` fault-injection sentinel
            (tests only).
    """

    #: Monitor poll interval; worker deaths are noticed within ~two ticks.
    _POLL_SECONDS = 0.05
    #: Grace between noticing a death and adjudicating its claims, so claim
    #: messages already written to the result queue are processed first.
    _DEATH_GRACE = 0.15

    def __init__(
        self,
        graph: PropertyGraph,
        workers: int,
        *,
        optimize: bool = True,
        default_max_length: int | None = None,
        plan_cache_size: int = 128,
        start_method: str | None = None,
        max_requeues: int = 1,
        crash_hook: bool = False,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"process pool needs workers >= 1, got {workers}")
        if start_method is None:
            start_method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self.graph = graph
        self.workers = workers
        self.max_requeues = max_requeues
        self.crash_hook = crash_hook
        self._options = {
            "optimize": optimize,
            "default_max_length": default_max_length,
            "plan_cache_size": plan_cache_size,
            "crash_hook": crash_hook,
        }
        self._lock = threading.Lock()
        self._spawn_lock = threading.Lock()
        self._result_queue = self._ctx.SimpleQueue()
        self._pending: dict[int, _Pending] = {}
        self._workers: dict[int, _Worker] = {}
        self._generations: list[_Generation] = []
        self._current: _Generation | None = None
        self._next_seq = 0
        self._next_worker = 0
        self._fork_version = -1
        self._closed = False
        self._dispatched = 0
        self._reforks = 0
        self._deaths = 0
        self._requeued = 0
        self._spawn_generation()
        self._reforks = 0  # the initial fork is not a re-fork
        self._reader = threading.Thread(
            target=self._reader_loop, name="repro-pool-reader", daemon=True
        )
        self._reader.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_generation(self) -> None:
        """Fork a fresh worker generation pinned at the graph's current version."""
        with self._spawn_lock:
            if self._closed:
                return
            # Read the fork version under the graph's write lock so the
            # version is coherent with the published node/edge state.  A
            # mutation landing between this read and the actual fork is
            # harmless: its objects carry versions > the pin of every task
            # this generation will serve, and GraphSnapshot filters them out.
            lock = getattr(self.graph, "_lock", None)
            if lock is not None:
                with lock:
                    version = self.graph.version
            else:
                version = self.graph.version
            generation = _Generation(
                index=len(self._generations), queue=self._ctx.SimpleQueue()
            )
            self._generations.append(generation)
            old = self._current
            for _ in range(self.workers):
                self._spawn_worker(generation)
            with self._lock:
                self._current = generation
                self._fork_version = version
                self._reforks += 1
            if old is not None:
                # Retire the previous generation: each worker finishes its
                # in-flight task (if any), drains one pill, and exits.
                with self._lock:
                    retiring = [
                        w for w in self._workers.values()
                        if w.generation == old.index and w.state == "alive"
                    ]
                    for worker in retiring:
                        worker.state = "retiring"
                for _ in retiring:
                    old.queue.put(None)

    def _ship_graph(self):
        """The graph payload workers receive: the columnar core when possible.

        When the pool's graph is hard-frozen its version can never drift, so
        every task this pool will ever dispatch is pinned at the core's
        version — the flat :class:`~repro.graph.compact.CompactGraph` arrays
        replace the object web entirely (fork COWs them as a few contiguous
        pages; spawn pickles arrays instead of dataclass instances) and the
        workers read the columns.  A mutable graph ships
        as-is: tasks may pin older versions, which needs the
        ``GraphSnapshot`` filtering only the object graph supports.
        """
        graph = self.graph
        if getattr(graph, "frozen", False):
            probe = getattr(graph, "compact_core", None)
            compact = probe() if probe is not None else None
            if compact is None:
                ensure = getattr(graph, "ensure_compact", None)
                if ensure is not None:
                    compact = ensure()
            if compact is not None:
                return compact
        return graph

    def _spawn_worker(self, generation: _Generation) -> _Worker:
        with self._lock:
            index = self._next_worker
            self._next_worker += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self._ship_graph(),
                self._options,
                generation.queue,
                self._result_queue,
            ),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        worker = _Worker(index=index, process=process, generation=generation.index)
        with self._lock:
            self._workers[index] = worker
            generation.workers += 1
        return worker

    def ensure_version(self, version: int) -> None:
        """Refork when a task is pinned past the current generation's version.

        Cheap no-op on the read-heavy path (one integer compare); the actual
        refork is serialized so concurrent dispatchers drifting past the same
        version fork exactly one new generation.
        """
        if version <= self._fork_version or self._closed:
            return
        with self._spawn_lock:
            if version <= self._fork_version:
                return
        # _spawn_generation re-acquires the lock; the double-check above
        # collapses the thundering herd to a single refork.
        self._spawn_generation()

    # ------------------------------------------------------------------
    # Reply reader
    # ------------------------------------------------------------------
    def _reader_loop(self) -> None:
        while True:
            message = self._result_queue.get()
            if message == _STOP:
                break
            kind = message[0]
            if kind == "claim":
                _, seq, worker_index, pid = message
                with self._lock:
                    pending = self._pending.get(seq)
                    if pending is not None:
                        pending.worker_index = worker_index
                        pending.claimed_pid = pid
                continue
            _, seq, payload = message
            reply = RemoteOutcome(kind=kind, **payload)
            self._resolve(seq, reply)

    def _resolve(self, seq: int, reply: RemoteOutcome) -> None:
        with self._lock:
            pending = self._pending.pop(seq, None)
        if pending is None:
            return  # the dispatcher already gave up on it (see _await)
        pending.reply = reply
        pending.event.set()

    # ------------------------------------------------------------------
    # Death watch
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(self._POLL_SECONDS)
            now = time.monotonic()
            due: list[_Worker] = []
            with self._lock:
                for worker in self._workers.values():
                    if worker.reaped or worker.process.is_alive():
                        continue
                    if worker.dead_since is None:
                        worker.dead_since = now
                    elif now - worker.dead_since >= self._DEATH_GRACE:
                        worker.reaped = True
                        due.append(worker)
            for worker in due:
                self._handle_dead_worker(worker)

    def _handle_dead_worker(self, worker: _Worker) -> None:
        worker.process.join(timeout=0.1)
        exitcode = worker.process.exitcode
        with self._lock:
            self._workers.pop(worker.index, None)
            claimed = [
                (seq, pending)
                for seq, pending in self._pending.items()
                if pending.worker_index == worker.index and pending.reply is None
            ]
            clean_retirement = worker.state == "retiring" and not claimed
            current = self._current
        if clean_retirement or self._closed:
            return
        self._deaths += 1
        reason = f"worker process exited with code {exitcode}"
        for seq, pending in claimed:
            if pending.requeues < self.max_requeues:
                with self._lock:
                    pending.requeues += 1
                    pending.worker_index = None
                    pending.claimed_pid = None
                    self._requeued += 1
                current.queue.put(pending.task_bytes)
            else:
                self._resolve(
                    seq,
                    RemoteOutcome(
                        kind="worker-died",
                        worker_died=WorkerDied(
                            reason=reason,
                            pid=pending.claimed_pid,
                            requeued=pending.requeues > 0,
                        ),
                        error=reason,
                        pid=worker.process.pid,
                    ),
                )
        if worker.state == "alive":
            # Keep capacity: a replacement joins the current generation (its
            # fork version is >= every version old tasks are pinned to, so it
            # can serve requeued work immediately).
            self._spawn_worker(current)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(
        self,
        *,
        text: str,
        params: dict | None,
        max_length: int | None,
        executor: str,
        limit: int | None,
        deadline: float | None,
        max_visited: int | None,
        version: int,
        num_nodes: int,
        num_edges: int,
    ) -> RemoteOutcome:
        """Run one query in the pool; blocks until its reply (or death) arrives.

        ``executor`` must be a concrete executor name: resolving ``"auto"``
        is the parent engine's job (see the module docstring).
        """
        if self._closed:
            raise ServiceError("process pool is closed")
        if executor not in _CONCRETE_EXECUTORS:
            raise ServiceError(
                f"process pool tasks need a concrete executor, got {executor!r}; "
                "resolve 'auto' in the parent first"
            )
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._dispatched += 1
            current = self._current
        task = _Task(
            seq=seq, text=text, params=params, max_length=max_length,
            executor=executor, limit=limit, deadline=deadline,
            max_visited=max_visited, version=version, num_nodes=num_nodes,
            num_edges=num_edges,
        )
        # Pickle here, in the dispatcher, so an unpicklable parameter raises
        # into this request's error path instead of wedging a queue.
        task_bytes = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        pending = _Pending(task_bytes)
        with self._lock:
            self._pending[seq] = pending
        current.queue.put(task_bytes)
        return self._await(pending, seq, deadline)

    def _await(self, pending: _Pending, seq: int, deadline: float | None) -> RemoteOutcome:
        """Block on one pending reply; synthesize an outcome if the pool dies."""
        while not pending.event.wait(timeout=0.1):
            if self._closed:
                with self._lock:
                    self._pending.pop(seq, None)
                return RemoteOutcome(
                    kind="worker-died",
                    worker_died=WorkerDied(reason="pool shut down mid-query"),
                    error="pool shut down mid-query",
                )
            if deadline is not None and time.monotonic() >= deadline + 1.0:
                # Safety net for the unclaimed-task window: the worker-side
                # budget should have killed this long ago.  A late reply finds
                # no pending entry and is dropped.
                with self._lock:
                    self._pending.pop(seq, None)
                return RemoteOutcome(
                    kind="budget", budget_reason="deadline", stopped_at="pool",
                )
        assert pending.reply is not None
        return pending.reply

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Point-in-time pool counters (merged into ``ServiceStatistics``)."""
        with self._lock:
            alive = sum(
                1 for worker in self._workers.values() if worker.state == "alive"
            )
            return {
                "start_method": self.start_method,
                "workers": self.workers,
                "workers_alive": alive,
                "generation": self._current.index if self._current else -1,
                "fork_version": self._fork_version,
                "dispatched": self._dispatched,
                "reforks": self._reforks,
                "worker_deaths": self._deaths,
                "requeued": self._requeued,
            }

    def close(self, deadline: float = 5.0) -> None:
        """Shut the pool down within ``deadline`` seconds; idempotent.

        Live workers get poison pills and are joined; whoever is still
        running when the deadline expires is terminated (their in-flight
        queries resolve as :class:`WorkerDied`).  The reader and monitor
        threads are always joined — no thread outlives the pool.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            workers = list(self._workers.values())
            generations = list(self._generations)
        pills_needed: dict[int, int] = {}
        for worker in workers:
            if worker.process.is_alive():
                pills_needed[worker.generation] = pills_needed.get(worker.generation, 0) + 1
        for generation in generations:
            for _ in range(pills_needed.get(generation.index, 0)):
                generation.queue.put(None)
        give_up_at = time.monotonic() + deadline
        for worker in workers:
            worker.process.join(timeout=max(0.0, give_up_at - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._result_queue.put(_STOP)
        self._reader.join(timeout=2.0)
        self._monitor.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
        for _seq, pending in leftovers:
            pending.reply = RemoteOutcome(
                kind="worker-died",
                worker_died=WorkerDied(reason="pool shut down mid-query"),
                error="pool shut down mid-query",
            )
            pending.event.set()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessWorkerPool(workers={self.workers}, start={self.start_method!r}, "
            f"fork_version={self._fork_version}, dispatched={self._dispatched})"
        )
