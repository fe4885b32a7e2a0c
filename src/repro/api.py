"""The client API: one front door for every way of running path queries.

The paper positions the algebra as the foundation a *host query language*
builds on — applications consume path-query answers as binding tables
(Section 2.3).  This module is that application-facing surface, replacing
three historical entry points (the :class:`~repro.engine.engine.PathQueryEngine`
facade with its growing keyword sprawl, :class:`~repro.service.QueryService`'s
request/outcome types, and the CLI's ad-hoc wiring) with a single shape::

    import repro

    db = repro.connect(graph)
    with db.session() as session:
        pq = session.prepare(
            'MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[:Knows]->+(?y)'
        )
        for path in pq.execute(name="Moe"):
            print(path)

* :func:`connect` returns a :class:`Database` — the owner of the graph, the
  shared plan cache, and (lazily) the concurrent query service.
* :meth:`Database.session` hands out :class:`Session` context managers.  A
  session pins a :class:`~repro.graph.snapshot.GraphSnapshot` at creation —
  every query in the session sees one immutable version of the graph, however
  long the session lives and whatever other threads write — and carries the
  session defaults (executor, limit, timeout, resource caps).
* :meth:`Session.prepare` compiles a **parameterized prepared query** once;
  ``$name`` placeholders are bound per execution
  (:meth:`PreparedQuery.execute`), and every binding shares the single cached
  plan.
* Every execution returns a streaming
  :class:`~repro.engine.results.ResultCursor` — lazy iteration,
  ``fetchmany``/``fetchall``, a :meth:`~repro.engine.results.ResultCursor.bindings`
  row view — with bounded memory under the pipeline executor.

The old surfaces remain as thin delegating shims (``PathQueryEngine.query``,
``QueryService.submit``), so existing code keeps working while new code gets
one coherent API.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Mapping

from repro.engine.engine import CachedPlan, ExplainResult, PathQueryEngine, QueryResult
from repro.engine.executor import EXECUTOR_NAMES
from repro.engine.results import ResultCursor
from repro.errors import ServiceError
from repro.execution import QueryBudget
from repro.graph.model import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.graph.wal import DurableStore
from repro.service.cache import StripedLRUCache
from repro.service.service import EXECUTION_MODES, QueryService

__all__ = ["connect", "Database", "Session", "PreparedQuery"]

#: Sentinel distinguishing "not given — use the session default" from an
#: explicit ``None`` (which *clears* the session default for one call).
_DEFAULT = object()


def connect(
    graph: PropertyGraph | None = None,
    *,
    executor: str = "auto",
    optimize: bool = True,
    default_max_length: int | None = None,
    plan_cache_size: int = 256,
    cache_stripes: int = 8,
    workers: int = 4,
    execution_mode: str = "threads",
) -> "Database":
    """Open a :class:`Database` over ``graph`` (a fresh empty graph when omitted).

    Args:
        graph: The property graph to serve.  The database does not copy it;
            mutations through the graph's own API remain visible to new
            sessions (existing sessions stay pinned to their snapshot).
        executor: Default execution strategy for every query run through this
            database (``"auto"``, ``"materialize"``, ``"pipeline"`` or ``"automaton"``).
        optimize: Whether plans run through the rewrite-rule optimizer.
        default_max_length: Engine-level bound for unbounded ϕWalk recursion.
        plan_cache_size: Capacity of the shared parsed-plan cache.
        cache_stripes: Lock stripes of the plan cache (it is shared with the
            concurrent service, so it is striped and thread-safe from the
            start).
        workers: Default worker count of the lazily created concurrent
            service (:meth:`Database.service`).
        execution_mode: Default execution backend of that service —
            ``"threads"`` (GIL-bound worker threads) or ``"processes"``
            (forked worker processes, true multi-core parallelism).
    """
    return Database(
        graph,
        executor=executor,
        optimize=optimize,
        default_max_length=default_max_length,
        plan_cache_size=plan_cache_size,
        cache_stripes=cache_stripes,
        workers=workers,
        execution_mode=execution_mode,
    )


class Database:
    """The owner of a graph and everything needed to query it.

    One ``Database`` holds the graph, the lock-striped plan cache (shared by
    direct sessions *and* the concurrent service, so a plan prepared anywhere
    is a cache hit everywhere), the per-version cost-model memo inside its
    engine, and — created lazily on first use — the
    :class:`~repro.service.QueryService` worker pool for asynchronous
    submission.

    Direct conveniences (:meth:`execute`, :meth:`query`, :meth:`explain`) run
    against the *live* graph; :meth:`session` pins a snapshot for repeatable
    reads.  Closing the database closes the service (if one was started);
    sessions and cursors opened from it are independent and close separately.

    No read builds the graph's columnar core: call ``graph.freeze()`` or
    ``graph.ensure_compact()`` for that.  The ``auto_compact`` keyword is a
    deprecated no-op that only warns.
    """

    def __init__(
        self,
        graph: PropertyGraph | None = None,
        *,
        executor: str = "auto",
        optimize: bool = True,
        default_max_length: int | None = None,
        plan_cache_size: int = 256,
        cache_stripes: int = 8,
        workers: int = 4,
        execution_mode: str = "threads",
        auto_compact: bool | None = None,
    ) -> None:
        if auto_compact is not None:
            warnings.warn(
                "Database(auto_compact=) does nothing: no read builds the columnar "
                "core; call graph.freeze() or graph.ensure_compact() to build it",
                DeprecationWarning,
                stacklevel=2,
            )
        if executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        if execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {execution_mode!r}; expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        self.graph = graph if graph is not None else PropertyGraph()
        self.plan_cache = StripedLRUCache(plan_cache_size, cache_stripes)
        self.engine = PathQueryEngine(
            self.graph,
            optimize=optimize,
            default_max_length=default_max_length,
            executor=executor,
            plan_cache=self.plan_cache,
        )
        self.default_executor = executor
        self.default_workers = workers
        self.default_execution_mode = execution_mode
        self._optimize = optimize
        self._default_max_length = default_max_length
        self._service: QueryService | None = None
        self._store: DurableStore | None = None
        self._closed = False

    @classmethod
    def open(
        cls,
        path: str,
        *,
        fsync: str = "always",
        batch_interval: int = 64,
        name: str = "G",
        **options,
    ) -> "Database":
        """Open a **durable** database backed by a directory on disk.

        Recovers the graph from ``path`` (snapshot + write-ahead-log replay;
        an empty or missing directory starts a fresh graph) and attaches the
        WAL so every subsequent mutation through :attr:`graph` is logged
        *before* it is applied.  :meth:`close` flushes and closes the log;
        :meth:`checkpoint` folds it into the snapshot.

        Args:
            path: Directory holding ``snapshot.json`` and ``wal.log``
                (created when absent).
            fsync: Durability policy — ``"always"`` (fsync per mutation),
                ``"batch"`` (every ``batch_interval`` mutations and on
                close/checkpoint) or ``"off"`` (OS page cache only).
            batch_interval: Mutations between fsyncs under ``"batch"``.
            name: Graph name when starting fresh.
            options: Forwarded to the :class:`Database` constructor
                (``executor``, ``plan_cache_size``, ...).
        """
        store = DurableStore(path, name=name, fsync=fsync, batch_interval=batch_interval)
        try:
            database = cls(store.graph, **options)
        except BaseException:
            store.close()
            raise
        database._store = store
        return database

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def store(self) -> DurableStore | None:
        """The backing :class:`~repro.graph.wal.DurableStore` (``None`` when in-memory)."""
        return self._store

    @property
    def durable(self) -> bool:
        """``True`` when this database was opened with :meth:`open`."""
        return self._store is not None

    def checkpoint(self) -> int:
        """Fold the write-ahead log into the snapshot; returns the version.

        Bounds recovery time: after a checkpoint, reopening replays an empty
        log.  Requires a durable database.
        """
        self._ensure_open()
        if self._store is None:
            raise ServiceError("checkpoint requires a durable database (Database.open)")
        return self._store.rotate()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(
        self,
        *,
        executor: str | None = None,
        limit: int | None = None,
        max_length: int | None = None,
        timeout: float | None = None,
        max_visited: int | None = None,
        max_results: int | None = None,
    ) -> "Session":
        """Open a :class:`Session` pinned to the graph as of *now*.

        The keyword arguments become the session defaults, applied to every
        query the session runs unless overridden per call.  ``timeout`` is in
        seconds and is measured per execution (not per session).
        """
        self._ensure_open()
        return Session(
            self,
            executor=executor,
            limit=limit,
            max_length=max_length,
            timeout=timeout,
            max_visited=max_visited,
            max_results=max_results,
        )

    # ------------------------------------------------------------------
    # Direct (live-graph) conveniences
    # ------------------------------------------------------------------
    def execute(
        self, text: str, params: Mapping[str, Any] | None = None, **options
    ) -> ResultCursor:
        """Run one query against the live graph; returns a streaming cursor.

        ``options`` are the per-call knobs of :meth:`Session.execute`
        (``executor``, ``limit``, ``max_length``, ``timeout``,
        ``max_visited``, ``max_results``).
        """
        self._ensure_open()
        # Not a context manager on purpose: closing the ephemeral session
        # would close the cursor being handed out.  A session holds no
        # resources beyond its open cursors.
        return self.session().execute(text, params, **options)

    def query(
        self, text: str, params: Mapping[str, Any] | None = None, **options
    ) -> QueryResult:
        """Run one query against the live graph, fully materialized."""
        self._ensure_open()
        with self.session() as session:
            return session.query(text, params, **options)

    def prepare(self, text: str, max_length: int | None = None) -> "PreparedQuery":
        """Prepare ``text`` against the live graph (no snapshot pinning).

        Unlike :meth:`Session.prepare`, executions see the graph as of each
        call; a mutation between executions re-plans once at the new version.
        """
        self._ensure_open()
        return PreparedQuery(None, self, text, max_length)

    def explain(self, text: str, max_length: int | None = None) -> ExplainResult:
        """Plan and optimize without executing; report costs and rewrites."""
        self._ensure_open()
        return self.engine.explain(text, max_length=max_length)

    def snapshot(self) -> GraphSnapshot:
        """An immutable snapshot of the graph as of now."""
        return self.graph.snapshot()

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the shared plan cache."""
        return self.plan_cache.stats()

    # ------------------------------------------------------------------
    # Concurrent service
    # ------------------------------------------------------------------
    def service(self, workers: int | None = None, **options) -> QueryService:
        """The database's concurrent :class:`~repro.service.QueryService`.

        Created on first call (with these arguments) and reused afterwards —
        one worker pool per database.  The service shares the database's plan
        cache, so plans prepared through sessions serve service submissions
        and vice versa.  ``workers`` and ``execution_mode`` default to the
        values given to :func:`connect`; the remaining ``options`` are
        forwarded to :class:`~repro.service.QueryService`
        (``result_cache_size``, ``default_deadline``, ``max_pending``,
        ``pool_options``, ...).
        """
        self._ensure_open()
        if self._service is None:
            options.setdefault("executor", self.default_executor)
            options.setdefault("optimize", self._optimize)
            options.setdefault("default_max_length", self._default_max_length)
            options.setdefault("execution_mode", self.default_execution_mode)
            self._service = QueryService(
                self.graph,
                workers=workers if workers is not None else self.default_workers,
                plan_cache=self.plan_cache,
                **options,
            )
        return self._service

    def submit(self, text: str, **options):
        """Submit a query to the concurrent service (started on demand).

        Returns a :class:`~repro.service.QueryTicket`; ``options`` are the
        knobs of :meth:`~repro.service.QueryService.submit` (including
        ``params=``).
        """
        return self.service().submit(text, **options)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` was called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("database is closed")

    def close(self) -> None:
        """Close the database (drains the service; flushes and detaches the WAL)."""
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            self._service.close()
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Database(graph={self.graph.name!r}, version={self.graph.version}, "
            f"executor={self.default_executor!r})"
        )


class Session:
    """A snapshot-pinned query scope with defaults.

    Sessions are cheap: pinning is O(1) (the snapshot is a version-filtered
    view, not a copy), so the intended pattern is one session per unit of
    work::

        with db.session(timeout=0.5, limit=100) as session:
            cursor = session.execute('MATCH ...')

    Every query the session runs — direct :meth:`execute`/:meth:`query` or
    through a :class:`PreparedQuery` — sees the same graph version and
    inherits the session defaults (overridable per call; passing ``None``
    explicitly clears a default for that call).  Closing the session closes
    any cursors it still has open.
    """

    def __init__(
        self,
        database: Database,
        *,
        executor: str | None = None,
        limit: int | None = None,
        max_length: int | None = None,
        timeout: float | None = None,
        max_visited: int | None = None,
        max_results: int | None = None,
        snapshot: GraphSnapshot | None = None,
    ) -> None:
        if executor is not None and executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        self.database = database
        self.snapshot = snapshot if snapshot is not None else database.graph.snapshot()
        self.default_executor = executor
        self.default_limit = limit
        self.default_max_length = max_length
        self.default_timeout = timeout
        self.default_max_visited = max_visited
        self.default_max_results = max_results
        self._cursors: list[ResultCursor] = []
        self._closed = False

    @property
    def version(self) -> int:
        """The pinned graph version every query in this session sees."""
        return self.snapshot.version

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def prepare(self, text: str, max_length: Any = _DEFAULT) -> "PreparedQuery":
        """Compile ``text`` once; execute it later with per-call bindings.

        Parsing, planning and optimizing happen *now* (the plan lands in the
        database's shared cache under the parameterized text); every
        subsequent :meth:`PreparedQuery.execute` — whatever its bindings — is
        a plan-cache hit.
        """
        self._ensure_open()
        return PreparedQuery(self, self.database, text, self._value(max_length, self.default_max_length))

    def execute(
        self,
        text: str,
        params: Mapping[str, Any] | None = None,
        *,
        executor: Any = _DEFAULT,
        limit: Any = _DEFAULT,
        max_length: Any = _DEFAULT,
        timeout: Any = _DEFAULT,
        max_visited: Any = _DEFAULT,
        max_results: Any = _DEFAULT,
    ) -> ResultCursor:
        """Run a query at the session's pinned version; returns a streaming cursor."""
        self._ensure_open()
        cursor = self.database.engine.open_cursor(
            text,
            params,
            max_length=self._value(max_length, self.default_max_length),
            executor=self._value(executor, self.default_executor),
            limit=self._value(limit, self.default_limit),
            graph=self.snapshot,
            budget=self._budget(timeout, max_visited, max_results),
        )
        self._track(cursor)
        return cursor

    def query(
        self,
        text: str,
        params: Mapping[str, Any] | None = None,
        *,
        executor: Any = _DEFAULT,
        limit: Any = _DEFAULT,
        max_length: Any = _DEFAULT,
        timeout: Any = _DEFAULT,
        max_visited: Any = _DEFAULT,
        max_results: Any = _DEFAULT,
    ) -> QueryResult:
        """Run a query at the pinned version, fully materialized (:class:`QueryResult`)."""
        self._ensure_open()
        return self.database.engine.query(
            text,
            max_length=self._value(max_length, self.default_max_length),
            executor=self._value(executor, self.default_executor),
            limit=self._value(limit, self.default_limit),
            graph=self.snapshot,
            budget=self._budget(timeout, max_visited, max_results),
            params=params,
        )

    def explain(self, text: str, max_length: Any = _DEFAULT) -> ExplainResult:
        """Plan and optimize without executing; report costs and rewrites."""
        self._ensure_open()
        return self.database.engine.explain(
            text, max_length=self._value(max_length, self.default_max_length)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _value(given: Any, default: Any) -> Any:
        return default if given is _DEFAULT else given

    def _budget(
        self, timeout: Any, max_visited: Any, max_results: Any
    ) -> QueryBudget | None:
        seconds = self._value(timeout, self.default_timeout)
        visited = self._value(max_visited, self.default_max_visited)
        results = self._value(max_results, self.default_max_results)
        if seconds is None and visited is None and results is None:
            return None
        return QueryBudget(
            deadline=(time.monotonic() + seconds) if seconds is not None else None,
            max_visited=visited,
            max_results=results,
        )

    def _track(self, cursor: ResultCursor) -> None:
        self._cursors = [open_ for open_ in self._cursors if not open_.closed]
        self._cursors.append(cursor)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("session is closed")
        self.database._ensure_open()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """``True`` once the session was closed."""
        return self._closed

    def close(self) -> None:
        """Close the session and any cursors it still has open; idempotent."""
        if self._closed:
            return
        self._closed = True
        for cursor in self._cursors:
            cursor.close()
        self._cursors.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"Session({state}, version={self.version})"


class PreparedQuery:
    """A parameterized query compiled once, executable many times.

    Obtained from :meth:`Session.prepare` (snapshot-pinned) or
    :meth:`Database.prepare` (live graph).  The query text may declare
    ``$name`` placeholders; :attr:`parameters` lists them, and every
    execution must bind exactly that set::

        pq = session.prepare('MATCH ... (?x {name: $name})-[:Knows]->+(?y)')
        cursor = pq.execute(name="Moe")

    All executions share one cached plan (the parse/plan/optimize cost is
    paid at prepare time); bindings are substituted into a fresh copy of the
    plan per execution, so results can never leak between bindings.
    """

    def __init__(
        self,
        session: Session | None,
        database: Database,
        text: str,
        max_length: int | None,
    ) -> None:
        self._session = session
        self._database = database
        self.text = text
        self.max_length = max_length
        graph = session.snapshot if session is not None else None
        cached: CachedPlan = database.engine.prepare(text, max_length=max_length, graph=graph)
        #: The ``$name`` placeholders every execution must bind.
        self.parameters: tuple[str, ...] = cached.parameters

    def execute(
        self, params: Mapping[str, Any] | None = None, /, **bindings
    ) -> ResultCursor:
        """Execute with the given bindings; returns a streaming cursor.

        Bindings are passed as a mapping, as keywords, or both (keywords
        win on conflict): ``pq.execute({"name": "Moe"})`` and
        ``pq.execute(name="Moe")`` are equivalent.
        """
        merged = {**(params or {}), **bindings}
        if self._session is not None:
            return self._session.execute(self.text, merged, max_length=self.max_length)
        return self._database.execute(self.text, merged, max_length=self.max_length)

    def query(
        self, params: Mapping[str, Any] | None = None, /, **bindings
    ) -> QueryResult:
        """Execute with the given bindings, fully materialized."""
        merged = {**(params or {}), **bindings}
        if self._session is not None:
            return self._session.query(self.text, merged, max_length=self.max_length)
        with self._database.session() as session:
            return session.query(self.text, merged, max_length=self.max_length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        declared = ", ".join(f"${name}" for name in self.parameters) or "(none)"
        return f"PreparedQuery({self.text!r}, parameters: {declared})"
