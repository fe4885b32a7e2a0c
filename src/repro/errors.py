"""Exception hierarchy for the path-algebra library.

Every error raised by the library derives from :class:`PathAlgebraError`,
so callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class PathAlgebraError(Exception):
    """Base class for every error raised by this library."""


class GraphError(PathAlgebraError):
    """Base class for errors related to property-graph construction or access."""


class DuplicateObjectError(GraphError):
    """An object identifier (node or edge) was registered twice."""


class UnknownObjectError(GraphError):
    """A node or edge identifier was referenced but is not part of the graph."""


class InvalidEdgeError(GraphError):
    """An edge references endpoints that do not exist or is otherwise malformed."""


class FrozenGraphError(GraphError):
    """A mutation was attempted on a frozen graph or an immutable snapshot."""


class WalCorruptError(GraphError):
    """A write-ahead log contains a corrupt record that cannot be skipped.

    A truncated or checksum-failing *final* record is the expected signature
    of a crash mid-append (a "torn tail") and is silently dropped during
    recovery.  Corruption anywhere *earlier* means the log was damaged after
    it was written — recovery refuses to guess and raises this error instead.

    Attributes:
        path: Filesystem path of the offending log, if known.
        offset: Byte offset of the record that failed to decode.
    """

    def __init__(self, message: str, path: str | None = None, offset: int | None = None) -> None:
        self.path = path
        self.offset = offset
        where = ""
        if path is not None:
            where = f" in {path}"
        if offset is not None:
            where += f" at byte {offset}"
        super().__init__(f"{message}{where}")


class ServiceError(PathAlgebraError):
    """The concurrent query service was misused (closed, stale, or misconfigured)."""


class ServiceOverloadedError(ServiceError):
    """A submission was *rejected* because the service is at capacity.

    Raised by :meth:`~repro.service.QueryService.try_submit` when the bounded
    submission queue is full (where :meth:`submit` would block instead), and
    by the network front-end when its in-flight cap is reached — the typed,
    HTTP-429-shaped admission-control signal: the request was never enqueued
    and made no progress, so the caller may safely retry after backing off.

    Attributes:
        pending: Requests waiting or executing when the rejection happened
            (``None`` when the rejecting layer does not track it).
        capacity: The admission limit that was hit.
    """

    #: The HTTP status the network front-end maps this rejection to.
    status = 429

    def __init__(
        self,
        message: str = "service is at capacity; submission rejected",
        pending: int | None = None,
        capacity: int | None = None,
    ) -> None:
        self.pending = pending
        self.capacity = capacity
        if pending is not None or capacity is not None:
            message = f"{message} ({pending}/{capacity} pending)"
        super().__init__(message)


class BudgetExceeded(PathAlgebraError):
    """A query exceeded its :class:`~repro.execution.QueryBudget` and was killed.

    Raised cooperatively from inside the execution stack (closure frontier
    loops, physical operators, baselines) at the next budget checkpoint after
    the deadline passed or a resource cap was hit.  The exception carries the
    partial progress made up to the kill so callers — notably
    :class:`~repro.service.QueryService` — can report how far the query got.

    Attributes:
        reason: Which budget dimension was exhausted — ``"deadline"``,
            ``"max_visited"`` or ``"max_results"``.
        paths_visited: Paths constructed/visited before the kill.
        depth_reached: Deepest fix-point round (or traversal depth) reached.
        stopped_at: Name of the operator or loop that observed the kill.
    """

    def __init__(
        self,
        reason: str,
        paths_visited: int = 0,
        depth_reached: int = 0,
        stopped_at: str = "",
    ) -> None:
        self.reason = reason
        self.paths_visited = paths_visited
        self.depth_reached = depth_reached
        self.stopped_at = stopped_at
        where = f" in {stopped_at}" if stopped_at else ""
        super().__init__(
            f"query budget exceeded ({reason}){where} after visiting "
            f"{paths_visited} paths (depth {depth_reached})"
        )

    def __reduce__(self):
        # Default exception pickling replays ``cls(*self.args)``, which would
        # feed the formatted message back as ``reason`` and drop the partial
        # progress.  This exception crosses the process boundary (worker →
        # parent result queue), so reconstruct from the typed fields instead.
        return (
            type(self),
            (self.reason, self.paths_visited, self.depth_reached, self.stopped_at),
        )


class PathError(PathAlgebraError):
    """Base class for errors related to path construction or manipulation."""


class InvalidPathError(PathError):
    """A path sequence violates the alternating node/edge structure (Section 2.2)."""


class PathConcatenationError(PathError):
    """Two paths cannot be concatenated because Last(p1) != First(p2)."""


class AlgebraError(PathAlgebraError):
    """Base class for errors raised while constructing or evaluating algebra expressions."""


class ConditionError(AlgebraError):
    """A selection condition is malformed or references an invalid position."""


class EvaluationError(AlgebraError):
    """An algebra expression could not be evaluated over the given graph."""


class NonTerminatingQueryError(EvaluationError):
    """A Walk-restricted recursion would not terminate (cyclic input without a bound)."""


class SolutionSpaceError(AlgebraError):
    """A solution-space operation (group-by / order-by / projection) is invalid."""


class ParseError(PathAlgebraError):
    """Base class for front-end parsing errors."""


class RegexSyntaxError(ParseError):
    """A regular path expression could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class GQLSyntaxError(ParseError):
    """An extended-GQL query could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PlanningError(PathAlgebraError):
    """A parsed query could not be translated into an algebra plan."""


class ParameterError(PathAlgebraError):
    """A parameterized query was executed with invalid bindings.

    Raised when a ``$name`` placeholder is left unbound at execution time,
    when a binding names a parameter the query does not declare, or when a
    parameterized plan is executed without any bindings at all.
    """


class OptimizerError(PathAlgebraError):
    """A rewrite rule produced an invalid or inconsistent plan."""
