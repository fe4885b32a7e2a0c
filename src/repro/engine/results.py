"""Tabular views of path-query results (bindings and group variables).

GQL queries ultimately return tables; the paper notes (Section 2.3) that
*group variables* — collecting the nodes or edges along a path into a list —
fit naturally on top of the algebra because paths are first-class values.
This module provides that bridge: it turns a :class:`~repro.paths.pathset.PathSet`
into rows of bindings, optionally projecting node/edge properties, so that a
downstream application (or a relational engine hosting SQL/PGQ) can consume
path-query answers as ordinary tuples.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import BudgetExceeded
from repro.execution import ExecutionStatistics, QueryBudget
from repro.paths.path import Path
from repro.paths.pathset import PathSet

__all__ = ["PathBinding", "BindingTable", "bind_paths", "ResultCursor"]


@dataclass(frozen=True)
class PathBinding:
    """The bindings induced by one path.

    Attributes:
        path: The witnessing path itself (composability is preserved).
        source: Identifier of the first node (the ``x`` endpoint variable).
        target: Identifier of the last node (the ``y`` endpoint variable).
        length: Number of edges.
        nodes: Group variable collecting every node identifier along the path.
        edges: Group variable collecting every edge identifier along the path.
        labels: The edge-label word of the path.
    """

    path: Path
    source: str
    target: str
    length: int
    nodes: tuple[str, ...]
    edges: tuple[str, ...]
    labels: tuple[str | None, ...]

    @classmethod
    def from_path(cls, path: Path) -> "PathBinding":
        """Build the binding row for one path."""
        seq = path.interleaved()
        return cls(
            path=path,
            source=seq[0],
            target=seq[-1],
            length=len(seq) // 2,
            nodes=seq[::2],
            edges=seq[1::2],
            labels=path.label_sequence(),
        )

    def node_property(self, position: int, name: str, default: Any = None) -> Any:
        """Property ``name`` of the node at 1-based ``position`` along the path."""
        return self.path.graph.property_of(self.path.node(position), name, default)

    def source_property(self, name: str, default: Any = None) -> Any:
        """Property ``name`` of the source node."""
        return self.path.graph.property_of(self.source, name, default)

    def target_property(self, name: str, default: Any = None) -> Any:
        """Property ``name`` of the target node."""
        return self.path.graph.property_of(self.target, name, default)

    def to_dict(self) -> dict[str, Any]:
        """Return the binding as a plain dictionary (JSON-friendly)."""
        return {
            "source": self.source,
            "target": self.target,
            "length": self.length,
            "nodes": list(self.nodes),
            "edges": list(self.edges),
            "labels": list(self.labels),
        }


@dataclass
class BindingTable:
    """A sequence of :class:`PathBinding` rows with tabular conveniences."""

    rows: list[PathBinding] = field(default_factory=list)

    @classmethod
    def from_paths(cls, paths: Iterable[Path]) -> "BindingTable":
        """Build a table with one row per path."""
        return cls([PathBinding.from_path(path) for path in paths])

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def columns(self, *names: str) -> list[tuple]:
        """Return the requested columns as tuples (``source``, ``target``, ``length``...)."""
        return [tuple(getattr(row, name) for name in names) for row in self.rows]

    def endpoints(self) -> list[tuple[str, str]]:
        """The classical RPQ answer: the (source, target) pairs, duplicates removed, order kept."""
        seen: set[tuple[str, str]] = set()
        result = []
        for row in self.rows:
            pair = (row.source, row.target)
            if pair not in seen:
                seen.add(pair)
                result.append(pair)
        return result

    def project_properties(
        self,
        source_properties: Sequence[str] = (),
        target_properties: Sequence[str] = (),
    ) -> list[dict[str, Any]]:
        """Return one dictionary per row with the requested endpoint properties."""
        projected = []
        for row in self.rows:
            record: dict[str, Any] = {"source": row.source, "target": row.target, "length": row.length}
            for name in source_properties:
                record[f"source.{name}"] = row.source_property(name)
            for name in target_properties:
                record[f"target.{name}"] = row.target_property(name)
            projected.append(record)
        return projected

    def sort_by(self, key: Callable[[PathBinding], Any]) -> "BindingTable":
        """Return a new table with rows sorted by ``key``."""
        return BindingTable(sorted(self.rows, key=key))

    def filter(self, predicate: Callable[[PathBinding], bool]) -> "BindingTable":
        """Return a new table keeping only rows satisfying ``predicate``."""
        return BindingTable([row for row in self.rows if predicate(row)])

    def group_sizes(self) -> dict[tuple[str, str], int]:
        """Number of paths per endpoint pair (the partition sizes of γST)."""
        sizes: dict[tuple[str, str], int] = {}
        for row in self.rows:
            sizes[(row.source, row.target)] = sizes.get((row.source, row.target), 0) + 1
        return sizes


def bind_paths(paths: PathSet | Iterable[Path]) -> BindingTable:
    """Convenience wrapper: build a :class:`BindingTable` from a path set."""
    return BindingTable.from_paths(paths)


class ResultCursor:
    """A streaming, forward-only view of one query execution.

    The uniform result surface of the client API
    (:meth:`repro.api.Session.execute` and friends): iterating the cursor
    pulls result paths one at a time from the underlying executor.  Behind
    the pull-based pipeline executor that means *bounded memory* — consuming
    five rows of a huge walk query costs a few fix-point rounds, not the
    whole closure; behind the materializing executor the result is already
    complete and the cursor simply iterates it, so client code never needs to
    know which executor ran.

    DB-API-flavoured access: lazy iteration, :meth:`fetchone`,
    :meth:`fetchmany`, :meth:`fetchall`, :meth:`close` (also a context
    manager).  :meth:`bindings` is the tabular row view — a lazy stream of
    :class:`PathBinding` rows for applications that consume binding tables
    rather than path values.

    Execution metadata — :attr:`statistics`, :attr:`truncated`,
    :attr:`total_paths`, :attr:`elapsed_seconds`, the budget's
    partial-progress counters — *finalizes on close* (closing happens
    automatically when the stream is exhausted).  ``truncated`` is ``None``
    while it cannot be known yet: a pipeline cursor abandoned mid-stream has
    no way to tell whether more paths existed.

    A :class:`~repro.errors.BudgetExceeded` raised mid-stream (deadline or
    resource cap) closes the cursor, finalizes the partial-progress counters
    into :attr:`statistics`, and propagates to the consumer.

    Thread-safety: iteration is single-consumer, but :meth:`close` may be
    called from *any* thread, any number of times — the contract the network
    front-end's teardown path relies on (the event loop closes a cursor while
    an executor thread is suspended inside :meth:`fetchmany`).  One lock
    serializes each single-path pull against ``close``: a concurrent close
    waits for the in-flight pull to hand its path over, then closes the
    underlying generator exactly once (never while it is executing, which
    would raise ``ValueError``), and the interrupted ``fetchmany`` returns
    the partial batch it had.  Statistics finalize exactly once however many
    closers race.
    """

    def __init__(
        self,
        source: Iterator[Path],
        *,
        statistics: ExecutionStatistics,
        executor: str = "",
        plan: Any = None,
        optimized_plan: Any = None,
        applied_rules: Sequence[str] = (),
        cache_hit: bool = False,
        limit: int | None = None,
        budget: QueryBudget | None = None,
        truncated: bool | None = None,
        total_paths: int | None = None,
        started: float | None = None,
        phase_seconds: dict[str, float] | None = None,
        graph_version: int | None = None,
    ) -> None:
        self._source = source
        self.statistics = statistics
        self.executor = executor
        self.plan = plan
        self.optimized_plan = optimized_plan
        self.applied_rules = list(applied_rules)
        self.cache_hit = cache_hit
        self.graph_version = graph_version
        self.truncated = truncated
        self.total_paths = total_paths
        self.phase_seconds = dict(phase_seconds) if phase_seconds is not None else {}
        self.elapsed_seconds = 0.0
        self._limit = limit
        self._budget = budget
        self._started = started if started is not None else time.perf_counter()
        self._opened = time.perf_counter()
        self._returned = 0
        self._closed = False
        self._exhausted = False
        self._finalized = False
        # Serializes pulls against cross-thread close(); reentrant because a
        # pull that finishes the stream finalizes while already holding it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> "ResultCursor":
        return self

    def __next__(self) -> Path:
        with self._lock:
            if self._closed or self._exhausted:
                raise StopIteration
            if self._limit is not None and self._returned >= self._limit:
                # The limit cut the stream; one probe pull decides whether it
                # actually mattered (mirrors PipelineExecutor's probe).
                if self.truncated is None:
                    self.truncated = next(self._source, None) is not None
                    if not self.truncated:
                        self.total_paths = self._returned
                self._finish_stream()
                raise StopIteration
            try:
                path = next(self._source)
            except StopIteration:
                if self.truncated is None:
                    self.truncated = False
                    self.total_paths = self._returned
                self._finish_stream()
                raise
            except BudgetExceeded:
                self._closed = True
                self._release_source()
                self._finalize()
                raise
            self._returned += 1
            if self._budget is not None:
                # The result-size cap applies to what the caller receives; a
                # streaming consumer trips it on the offending fetch.
                try:
                    self._budget.check_result_size(self._returned, "result")
                except BudgetExceeded:
                    self._closed = True
                    self._release_source()
                    self._finalize()
                    raise
            return path

    def _finish_stream(self) -> None:
        self._exhausted = True
        self._release_source()
        self._finalize()

    def _release_source(self) -> None:
        """Close the underlying stream so abandoned pipeline work is freed.

        A limit-stopped or mid-stream-closed cursor leaves the pipeline's
        generator chain suspended (frontier lists, seen-sets, join indexes);
        closing the root generator unwinds it immediately instead of waiting
        for garbage collection.
        """
        close_source = getattr(self._source, "close", None)
        if close_source is not None:
            close_source()

    # ------------------------------------------------------------------
    # Fetch API
    # ------------------------------------------------------------------
    def fetchone(self) -> Path | None:
        """Return the next path, or ``None`` when the stream is exhausted."""
        return next(self, None)

    def fetchmany(self, size: int = 1) -> list[Path]:
        """Return up to ``size`` further paths (fewer at the end of the stream)."""
        if size < 0:
            raise ValueError(f"fetchmany size must be >= 0, got {size}")
        batch: list[Path] = []
        while len(batch) < size:
            path = next(self, None)
            if path is None:
                break
            batch.append(path)
        return batch

    def fetchall(self) -> list[Path]:
        """Drain the remaining stream into a list (closes the cursor)."""
        return list(self)

    def bindings(self) -> Iterator[PathBinding]:
        """Lazily yield one :class:`PathBinding` row per remaining path.

        The tabular face of the cursor: each row carries the endpoint and
        group variables (nodes, edges, labels) GQL binds for a path, ready
        for JSON serialization via :meth:`PathBinding.to_dict` — this is what
        the CLI's ``--format jsonl`` streams, one row per line, without ever
        materializing the result.
        """
        for path in self:
            yield PathBinding.from_path(path)

    def to_table(self) -> BindingTable:
        """Drain the remaining stream into a :class:`BindingTable`."""
        return BindingTable(list(self.bindings()))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """``True`` once the cursor is closed (explicitly or by exhaustion)."""
        return self._closed or self._exhausted

    @property
    def rows_returned(self) -> int:
        """Number of paths handed to the consumer so far."""
        return self._returned

    def close(self) -> None:
        """Stop the stream and finalize statistics; idempotent and thread-safe.

        Abandoned upstream work is released (the pipeline's suspended
        generators are closed), and the budget's partial-progress counters
        are captured into :attr:`statistics` even when the stream was not
        consumed to the end.  Safe to call from any thread, any number of
        times, including while another thread is mid-``fetchmany``: the call
        waits for the in-flight pull to complete, so the generator is never
        closed while executing and the fetching thread sees a clean
        end-of-stream on its next pull.
        """
        with self._lock:
            if self.closed:
                return
            self._closed = True
            self._release_source()
            self._finalize()

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        self.statistics.capture_budget(self._budget)
        now = time.perf_counter()
        self.phase_seconds["execute"] = (
            self.phase_seconds.get("execute", 0.0) + (now - self._opened)
        )
        self.elapsed_seconds = now - self._started

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"ResultCursor({state}, executor={self.executor!r}, "
            f"rows_returned={self._returned})"
        )
