"""Write-ahead logging and crash-consistent recovery for property graphs.

The in-memory :class:`~repro.graph.model.PropertyGraph` evaporates on process
exit.  This module makes it durable with the classical two-file scheme used
by every storage engine since ARIES:

* ``snapshot.json`` — a full :mod:`repro.graph.io` JSON image of the graph at
  some version (written atomically via temp-file + rename);
* ``wal.log`` — an append-only log of every mutation committed *after* that
  snapshot, keyed by the graph's version counter.

Record framing is ``>II`` (big-endian payload length + CRC32 of the payload)
followed by a compact JSON payload ``{"op", "v", "a"}``.  The length prefix
lets the reader skip ahead without parsing; the checksum distinguishes a torn
write from silent corruption:

* a truncated or checksum-failing **final** record is the expected signature
  of a crash mid-append — recovery drops it and truncates the log;
* the same damage anywhere **earlier** means the log was corrupted after it
  was written, and recovery refuses to guess: :class:`WalCorruptError`.

Write-ahead semantics come from the graph's pre-commit listener hook
(:meth:`PropertyGraph.add_write_listener`): the WAL appends (and optionally
fsyncs) the record *before* the mutation is applied, so a mutation that could
not be logged never happens in memory either.  Conversely a record that was
durably logged may be replayed on recovery even if the crash struck before
the in-memory apply — recovery always yields a *prefix* of the committed
mutation sequence, never a gap.

Fault injection is built in rather than bolted on: every dangerous window in
the writer and in rotation calls a :class:`CrashPoint` hook that tests use to
raise :class:`SimulatedCrash` mid-operation.  The recovery property suite in
``tests/test_durability.py`` drives random crash points over a corpus of
graphs and asserts byte-identical query results after recovery.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import GraphError, WalCorruptError
from repro.graph.io import graph_to_dict, load_json
from repro.graph.model import PropertyGraph

__all__ = [
    "CrashPoint",
    "SimulatedCrash",
    "WriteAheadLog",
    "DurableStore",
    "WalScan",
    "read_wal",
    "apply_op",
]

_HEADER = struct.Struct(">II")

#: fsync policies accepted by :class:`WriteAheadLog`.
FSYNC_POLICIES = ("always", "batch", "off")


class SimulatedCrash(BaseException):
    """Raised by a fault-injection hook to abort an operation mid-flight.

    Derives from :class:`BaseException` so production code that defensively
    catches ``Exception`` cannot accidentally swallow an injected crash —
    exactly like a real ``SIGKILL`` would not be catchable.
    """


class CrashPoint:
    """Named windows where a crash-injection hook is invoked.

    A hook is any ``Callable[[str], None]``; it receives one of these names
    and may raise :class:`SimulatedCrash` to simulate power loss at that
    instant.  Bytes already written before the hook fires remain in the file
    (that is the point: they model what survived on disk).
    """

    #: Before any byte of the record is written — the mutation aborts cleanly.
    BEFORE_APPEND = "wal.before-append"
    #: After the header and half the payload — leaves a torn tail on disk.
    MID_APPEND = "wal.mid-append"
    #: Record fully written to the OS but not yet fsynced.
    AFTER_APPEND = "wal.after-append"
    #: After the fsync for this record returned (the record is durable).
    AFTER_SYNC = "wal.after-sync"
    #: Rotation: before anything was written.
    ROTATE_BEGIN = "rotate.begin"
    #: Rotation: snapshot temp file written + fsynced, not yet renamed.
    ROTATE_SNAPSHOT_TMP = "rotate.snapshot-tmp"
    #: Rotation: snapshot renamed into place, old (stale) WAL still on disk.
    ROTATE_SNAPSHOT_RENAMED = "rotate.snapshot-renamed"
    #: Rotation: complete (fresh empty WAL in place).
    ROTATE_DONE = "rotate.done"

    ALL = (
        BEFORE_APPEND,
        MID_APPEND,
        AFTER_APPEND,
        AFTER_SYNC,
        ROTATE_BEGIN,
        ROTATE_SNAPSHOT_TMP,
        ROTATE_SNAPSHOT_RENAMED,
        ROTATE_DONE,
    )


def _encode_record(op: dict[str, Any]) -> bytes:
    payload = json.dumps(op, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalScan:
    """Result of decoding a WAL file.

    Attributes:
        records: Every intact op record, in log order.
        valid_bytes: Length of the intact prefix; a torn tail (if any) starts
            here and recovery truncates the file to this offset.
        torn_tail: Whether a truncated/corrupt final record was dropped.
        path: The scanned file.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    valid_bytes: int = 0
    torn_tail: bool = False
    path: str = ""

    @property
    def versions(self) -> tuple[int, int] | None:
        """``(first, last)`` version covered by the records, or ``None`` if empty."""
        if not self.records:
            return None
        return (self.records[0]["v"], self.records[-1]["v"])


def read_wal(path: str | Path) -> WalScan:
    """Decode the WAL at ``path``, dropping a torn tail, rejecting corruption.

    Raises:
        WalCorruptError: if a non-final record is truncated, fails its
            checksum, or does not decode to a valid op payload.
    """
    path = Path(path)
    data = path.read_bytes()
    scan = WalScan(path=str(path))
    offset = 0
    total = len(data)
    while offset < total:
        final = False
        if offset + _HEADER.size > total:
            final = True  # partial header can only be a torn final record
        else:
            length, checksum = _HEADER.unpack_from(data, offset)
            end = offset + _HEADER.size + length
            if end > total:
                final = True  # payload runs past EOF: torn final record
            else:
                payload = data[offset + _HEADER.size : end]
                if zlib.crc32(payload) != checksum:
                    if end == total:
                        final = True  # torn tail: partially persisted write
                    else:
                        raise WalCorruptError(
                            "checksum mismatch on non-final record",
                            path=str(path),
                            offset=offset,
                        )
                else:
                    try:
                        op = json.loads(payload.decode("utf-8"))
                        if not isinstance(op, dict) or "op" not in op or "v" not in op:
                            raise ValueError("not an op record")
                    except (ValueError, UnicodeDecodeError) as exc:
                        # The checksum passed, so these bytes were written
                        # intact — this is corruption, not a torn write.
                        raise WalCorruptError(
                            f"undecodable record ({exc})", path=str(path), offset=offset
                        ) from exc
                    scan.records.append(op)
                    offset = end
        if final:
            scan.torn_tail = True
            break
    scan.valid_bytes = offset
    return scan


def apply_op(graph: PropertyGraph, op: dict[str, Any]) -> None:
    """Apply one logged op record to ``graph`` (the replay half of the WAL)."""
    kind = op.get("op")
    args = op.get("a") or {}
    if kind == "add_node":
        graph.add_node(args["id"], args.get("label"), args.get("properties") or {})
    elif kind == "add_edge":
        graph.add_edge(
            args["id"],
            args["source"],
            args["target"],
            args.get("label"),
            args.get("properties") or {},
        )
    elif kind == "set_node_property":
        graph.set_node_property(args["id"], args["name"], args["value"])
    elif kind == "set_edge_property":
        graph.set_edge_property(args["id"], args["name"], args["value"])
    else:
        raise WalCorruptError(f"unknown op kind {kind!r}")


class WriteAheadLog:
    """Append-only, checksummed mutation log for one :class:`PropertyGraph`.

    Args:
        path: Log file (created if missing, appended to if present).
        fsync: ``"always"`` fsyncs after every record (survives power loss at
            one syscall per write), ``"batch"`` fsyncs every
            ``batch_interval`` records and on close/rotation (bounded-loss
            window), ``"off"`` never fsyncs (OS-crash loss window — see the
            acceptance test in ``tests/test_wal.py``).
        batch_interval: Records between fsyncs under the ``batch`` policy.
        crash_hook: Fault-injection hook; see :class:`CrashPoint`.

    The instance is a valid write listener: :meth:`attach` registers it on a
    graph so every mutation is logged before it is applied.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: str = "always",
        batch_interval: int = 64,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if batch_interval < 1:
            raise ValueError(f"batch_interval must be >= 1, got {batch_interval}")
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_interval = batch_interval
        self._crash_hook = crash_hook
        self._lock = threading.Lock()
        self._file = open(self.path, "ab")
        self._unsynced = 0
        self.records_appended = 0
        self.syncs = 0
        self.last_version: int | None = None
        self._graph: PropertyGraph | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _crash(self, point: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(point)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, op: dict[str, Any]) -> None:
        """Log one op record (this is the graph's pre-commit listener).

        Raising (an I/O error or an injected crash) aborts the mutation the
        record describes — write-ahead means "no log, no commit".
        """
        data = _encode_record(op)
        with self._lock:
            if self._closed:
                raise GraphError(f"write-ahead log {self.path} is closed")
            self._crash(CrashPoint.BEFORE_APPEND)
            if self._crash_hook is not None:
                # Split the write so MID_APPEND can leave a torn tail on
                # disk.  Without a hook a single write call is both simpler
                # and closer to atomic.
                mid = _HEADER.size + max(1, (len(data) - _HEADER.size) // 2)
                self._file.write(data[:mid])
                self._file.flush()
                self._crash(CrashPoint.MID_APPEND)
                self._file.write(data[mid:])
            else:
                self._file.write(data)
            self._file.flush()
            self._crash(CrashPoint.AFTER_APPEND)
            self._unsynced += 1
            if self.fsync_policy == "always" or (
                self.fsync_policy == "batch" and self._unsynced >= self.batch_interval
            ):
                self._sync_locked()
            self._crash(CrashPoint.AFTER_SYNC)
            self.records_appended += 1
            self.last_version = op["v"]

    def _sync_locked(self) -> None:
        os.fsync(self._file.fileno())
        self.syncs += 1
        self._unsynced = 0

    def sync(self) -> None:
        """Force an fsync regardless of policy (used on close and rotation)."""
        with self._lock:
            if not self._closed and self._unsynced:
                self._sync_locked()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, graph: PropertyGraph) -> None:
        """Register this WAL as ``graph``'s write-ahead listener."""
        self._graph = graph
        graph.add_write_listener(self.append)

    def detach(self) -> None:
        """Unregister from the attached graph (no-op when not attached)."""
        if self._graph is not None:
            self._graph.remove_write_listener(self.append)
            self._graph = None

    def reset(self) -> None:
        """Atomically replace the log with a fresh empty one (post-rotation).

        Crash-safe: the empty file is created under a temp name and renamed
        over the old log, so a crash leaves either the full stale log (whose
        records are all covered by the new snapshot and skipped on replay) or
        the new empty one — never a half-truncated log.
        """
        with self._lock:
            if self._closed:
                raise GraphError(f"write-ahead log {self.path} is closed")
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self._file.close()
            os.replace(tmp, self.path)
            _fsync_directory(self.path.parent)
            self._file = open(self.path, "ab")
            self._unsynced = 0
            self.last_version = None

    def close(self) -> None:
        """Flush, fsync (unless policy is ``off``), and close the log file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.flush()
                if self.fsync_policy != "off" and self._unsynced:
                    os.fsync(self._file.fileno())
                    self.syncs += 1
            finally:
                self._file.close()
        self.detach()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog(path={str(self.path)!r}, fsync={self.fsync_policy!r}, "
            f"records={self.records_appended})"
        )


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableStore:
    """A directory-backed durable :class:`PropertyGraph`: snapshot + WAL.

    Opening a store recovers the graph to its exact pre-crash version
    (snapshot, then WAL replay with torn-tail repair) and attaches a
    :class:`WriteAheadLog` so every subsequent mutation is logged before it
    commits.  :meth:`rotate` compacts the log into a fresh snapshot.

    Args:
        directory: Store directory, created if missing.  Layout:
            ``snapshot.json`` + ``wal.log``.
        name: Graph name used when the store is brand new.
        fsync / batch_interval: Forwarded to :class:`WriteAheadLog`.
        crash_hook: Fault-injection hook shared by the WAL writer and
            rotation (see :class:`CrashPoint`).

    Attributes:
        graph: The recovered, live, durably-logged graph.
        wal: The attached write-ahead log.
        recovered_from_snapshot: Whether a snapshot file was found.
        replayed_records: WAL records applied during recovery.
        stale_records: WAL records skipped because the snapshot already
            covered their version (crash between snapshot rename and WAL
            reset).
    """

    SNAPSHOT_NAME = "snapshot.json"
    WAL_NAME = "wal.log"

    def __init__(
        self,
        directory: str | Path,
        *,
        name: str = "G",
        fsync: str = "always",
        batch_interval: int = 64,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / self.SNAPSHOT_NAME
        self.wal_path = self.directory / self.WAL_NAME
        self._crash_hook = crash_hook
        self.recovered_from_snapshot = False
        self.replayed_records = 0
        self.stale_records = 0
        self.rotations = 0
        self.graph = self._recover(name)
        self.wal = WriteAheadLog(
            self.wal_path,
            fsync=fsync,
            batch_interval=batch_interval,
            crash_hook=crash_hook,
        )
        self.wal.attach(self.graph)
        self._closed = False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, name: str) -> PropertyGraph:
        if self.snapshot_path.exists():
            graph = load_json(self.snapshot_path)
            self.recovered_from_snapshot = True
        else:
            graph = PropertyGraph(name=name)
        if self.wal_path.exists():
            scan = read_wal(self.wal_path)
            if scan.torn_tail:
                # Repair: drop the torn record so the next append starts a
                # clean frame instead of extending garbage.
                with open(self.wal_path, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            for op in scan.records:
                version = op["v"]
                if version <= graph.version:
                    # Stale log: rotation crashed after the snapshot rename
                    # but before the WAL reset — the snapshot already holds
                    # these mutations.
                    self.stale_records += 1
                    continue
                if version != graph.version + 1:
                    raise WalCorruptError(
                        f"version gap during replay: graph at v{graph.version}, "
                        f"next record is v{version}",
                        path=str(self.wal_path),
                    )
                apply_op(graph, op)
                self.replayed_records += 1
        return graph

    # ------------------------------------------------------------------
    # Rotation (log compaction)
    # ------------------------------------------------------------------
    def rotate(self) -> int:
        """Compact the WAL into a fresh snapshot; returns the snapshot version.

        Mutations are blocked for the duration (the graph lock is held).
        Crash-safe at every step: the snapshot lands via temp-file + atomic
        rename, and the WAL is reset the same way, so recovery after a crash
        anywhere inside sees either (old snapshot + full WAL) or (new
        snapshot + stale-but-skippable WAL) or (new snapshot + empty WAL).
        """
        if self._closed:
            raise GraphError(f"durable store {self.directory} is closed")
        with self.graph._lock:
            self._crash(CrashPoint.ROTATE_BEGIN)
            version = self.graph.version
            payload = graph_to_dict(self.graph)
            tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                # One C-encoded write: json.dump would run the pure-Python
                # encoder and make one small write per token.
                handle.write(json.dumps(payload, separators=(",", ":")))
                handle.flush()
                os.fsync(handle.fileno())
            self._crash(CrashPoint.ROTATE_SNAPSHOT_TMP)
            os.replace(tmp, self.snapshot_path)
            _fsync_directory(self.directory)
            self._crash(CrashPoint.ROTATE_SNAPSHOT_RENAMED)
            self.wal.reset()
            self._crash(CrashPoint.ROTATE_DONE)
            self.rotations += 1
            return version

    def _crash(self, point: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(point)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach and close the WAL; the store can be re-opened to recover."""
        if self._closed:
            return
        self._closed = True
        self.wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableStore(directory={str(self.directory)!r}, "
            f"version={self.graph.version}, wal_records={self.wal.records_appended})"
        )
