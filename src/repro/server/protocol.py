"""The JSONL wire protocol shared by the server and the client.

One frame per line, each frame one JSON object.  The client speaks *ops*
(``hello``, ``query``, ``prepare``, ``execute``, ``refresh``, ``stats``,
``close``), the server answers with typed frames:

* ``{"type": "page", "id": ..., "rows": [...]}`` — one streaming cursor page
  (``fetch_size`` rows or fewer); a query may produce any number of pages;
* ``{"type": "done", "id": ..., "count": ..., "version": ...}`` — terminal
  success frame carrying the execution metadata;
* ``{"type": "error", "id": ..., "code": ..., "status": ...}`` — terminal
  typed failure.  ``code`` is machine-readable; ``status`` is the HTTP-shaped
  numeric equivalent (429 for admission rejection, 408 for a budget kill,
  400 for query/protocol errors, 503 during shutdown drain), which the
  HTTP/1.1 face of the server uses verbatim as its response status.

A budget-kill error frame additionally carries the partial progress the
execution made (``paths_visited`` / ``depth_reached`` / ``stopped_at`` /
``budget_reason``), so :func:`raise_for_frame` can rebuild the exact
:class:`~repro.errors.BudgetExceeded` the in-process API would have raised —
budget semantics survive the wire.

Rows are JSON binding records (:meth:`~repro.engine.results.PathBinding.to_dict`
plus the canonical ``path`` rendering), byte-identical to what an in-process
:class:`~repro.api.Session` produces for the same query at the same graph
version — the server test suite's parity contract.  A page's row array is
encoded once (:func:`encode_rows`) and spliced into its frame
(:func:`page_frame`), so the server can keep the array of a cached result
and answer a repeat with the stored bytes.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.errors import (
    BudgetExceeded,
    PathAlgebraError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.paths.path import Path

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_STATUS",
    "ProtocolError",
    "RemoteQueryError",
    "encode_frame",
    "decode_frame",
    "row_from_path",
    "encode_rows",
    "page_frame",
    "error_frame",
    "budget_frame_fields",
    "raise_for_frame",
]

#: Bumped on incompatible frame changes; exchanged in the ``hello`` frames.
PROTOCOL_VERSION = 1

#: error code -> HTTP-shaped numeric status.
ERROR_STATUS = {
    "overloaded": 429,
    "budget": 408,
    "query": 400,
    "protocol": 400,
    "shutdown": 503,
    "internal": 500,
}


class ProtocolError(ServiceError):
    """A frame could not be parsed or is missing required fields."""


class RemoteQueryError(ServiceError):
    """A query failed on the server (parse, planning or evaluation error).

    Attributes:
        code: The machine-readable error code from the wire frame.
        status: The HTTP-shaped numeric status from the wire frame.
    """

    def __init__(self, message: str, code: str = "query", status: int = 400) -> None:
        self.code = code
        self.status = status
        super().__init__(message)


#: The one JSON dialect of the wire: sorted keys, compact separators.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame to a single JSONL line (sorted keys, compact)."""
    return (_dumps(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict:
    """Parse one JSONL line into a frame dict.

    Raises:
        ProtocolError: when the line is not valid JSON or not an object.
    """
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def row_from_path(path: Path) -> dict:
    """Render one result path as a JSON row.

    The binding record (source/target/length/nodes/edges/labels) plus the
    canonical ``path`` rendering — ``str(path)`` is the same string the
    in-process parity suites compare, so a client can diff wire results
    against local ones byte for byte.  Built directly rather than through
    :class:`~repro.engine.results.PathBinding`, whose
    :meth:`~repro.engine.results.PathBinding.to_dict` stays the definition
    (the protocol tests hold the two equal).
    """
    seq = path.interleaved()
    edges = seq[1::2]
    edge = path.graph.edge
    return {
        "source": seq[0],
        "target": seq[-1],
        "length": len(edges),
        "nodes": list(seq[::2]),
        "edges": list(edges),
        "labels": [edge(edge_id).label for edge_id in edges],
        "path": str(path),
    }


def encode_rows(paths: Iterable[Path]) -> bytes:
    """The JSON row array of ``paths``, in the order given, as page bytes."""
    return _dumps([row_from_path(path) for path in paths]).encode("utf-8")


def page_frame(request_id: Any, rows_json: bytes) -> bytes:
    """One ``page`` frame around an :func:`encode_rows` array.

    Byte-identical to ``encode_frame({"type": "page", "id": request_id,
    "rows": rows})``: the keys sort as ``id < rows < type``.
    """
    return b'{"id":%s,"rows":%s,"type":"page"}\n' % (
        _dumps(request_id).encode("utf-8"),
        rows_json,
    )


def error_frame(
    request_id: Any, code: str, message: str, **details: Any
) -> dict:
    """Build a typed error frame (terminal for its request id)."""
    frame = {
        "type": "error",
        "id": request_id,
        "code": code,
        "status": ERROR_STATUS.get(code, 500),
        "error": message,
    }
    frame.update(details)
    return frame


def budget_frame_fields(
    reason: str, paths_visited: int, depth_reached: int, stopped_at: str
) -> dict:
    """The partial-progress payload a budget-kill error frame carries."""
    return {
        "budget_reason": reason,
        "paths_visited": paths_visited,
        "depth_reached": depth_reached,
        "stopped_at": stopped_at,
    }


def raise_for_frame(frame: Mapping[str, Any]) -> None:
    """Raise the typed exception an error frame encodes; no-op otherwise.

    The client-side half of the typed-error contract:

    * ``overloaded`` → :class:`~repro.errors.ServiceOverloadedError` (the
      same exception in-process admission control raises);
    * ``budget`` → :class:`~repro.errors.BudgetExceeded` rebuilt with the
      partial progress from the frame;
    * ``shutdown`` / ``protocol`` → :class:`ProtocolError` /
      :class:`~repro.errors.ServiceError`;
    * anything else → :class:`RemoteQueryError`.
    """
    if frame.get("type") != "error":
        return
    code = frame.get("code", "internal")
    message = str(frame.get("error", "unknown server error"))
    if code == "overloaded":
        raise ServiceOverloadedError(
            message,
            pending=frame.get("pending"),
            capacity=frame.get("capacity"),
        )
    if code == "budget":
        raise BudgetExceeded(
            frame.get("budget_reason", "deadline"),
            paths_visited=int(frame.get("paths_visited", 0)),
            depth_reached=int(frame.get("depth_reached", 0)),
            stopped_at=str(frame.get("stopped_at", "")),
        )
    if code == "shutdown":
        raise ServiceError(message)
    if code == "protocol":
        raise ProtocolError(message)
    raise RemoteQueryError(
        message, code=code, status=int(frame.get("status", ERROR_STATUS.get(code, 500)))
    )


# Re-exported so client code importing the protocol module has the full
# typed-error vocabulary in one place.
_ = (PathAlgebraError,)
