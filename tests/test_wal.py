"""Write-ahead log unit tests: framing, torn tails, corruption, recovery edges.

The companion property suite lives in ``tests/test_durability.py``; this file
pins the deterministic contracts: record framing round-trips, a torn final
record is dropped while earlier damage raises
:class:`~repro.errors.WalCorruptError`, every fsync policy syncs when it
promises to, and the recovery edge cases (empty WAL, WAL ahead of snapshot,
stale WAL behind the snapshot, crashes inside rotation) land on the exact
documented state.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.errors import GraphError, WalCorruptError
from repro.graph.io import graph_to_dict
from repro.graph.model import PropertyGraph
from repro.graph.wal import (
    CrashPoint,
    DurableStore,
    SimulatedCrash,
    WriteAheadLog,
    _encode_record,
    read_wal,
)

_HEADER = struct.Struct(">II")


def _mutate(graph: PropertyGraph) -> None:
    """Three nodes, two edges, one property set — six versions."""
    graph.add_node("a", "Person", {"name": "A"})
    graph.add_node("b", "Person")
    graph.add_node("c")
    graph.add_edge("ab", "a", "b", "Knows")
    graph.add_edge("bc", "b", "c", "Likes", {"weight": 2})
    graph.set_node_property("a", "name", "A'")


def _crash_at(target: str):
    """A crash hook raising :class:`SimulatedCrash` the first time ``target`` fires."""
    armed = {"armed": True}

    def hook(point: str) -> None:
        if armed["armed"] and point == target:
            armed["armed"] = False
            raise SimulatedCrash(target)

    return hook


class TestFraming:
    def test_round_trip_through_graph_mutations(self, tmp_path) -> None:
        path = tmp_path / "wal.log"
        graph = PropertyGraph(name="G")
        with WriteAheadLog(path) as wal:
            wal.attach(graph)
            _mutate(graph)
        scan = read_wal(path)
        assert not scan.torn_tail
        assert [op["v"] for op in scan.records] == [1, 2, 3, 4, 5, 6]
        assert scan.versions == (1, 6)
        assert [op["op"] for op in scan.records] == [
            "add_node",
            "add_node",
            "add_node",
            "add_edge",
            "add_edge",
            "set_node_property",
        ]
        assert scan.records[4]["a"]["properties"] == {"weight": 2}
        assert scan.valid_bytes == path.stat().st_size

    def test_empty_file_scans_clean(self, tmp_path) -> None:
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        scan = read_wal(path)
        assert scan.records == []
        assert scan.versions is None
        assert not scan.torn_tail

    def test_append_after_close_raises(self, tmp_path) -> None:
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(GraphError, match="closed"):
            wal.append({"op": "add_node", "v": 1, "a": {"id": "a"}})

    def test_constructor_validation(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path / "w", fsync="sometimes")
        with pytest.raises(ValueError, match="batch_interval"):
            WriteAheadLog(tmp_path / "w", fsync="batch", batch_interval=0)

    def test_detach_stops_logging(self, tmp_path) -> None:
        path = tmp_path / "wal.log"
        graph = PropertyGraph()
        with WriteAheadLog(path) as wal:
            wal.attach(graph)
            graph.add_node("a")
            wal.detach()
            graph.add_node("b")
        assert len(read_wal(path).records) == 1


class TestTornTailAndCorruption:
    def _full_log(self, tmp_path) -> bytes:
        path = tmp_path / "wal.log"
        graph = PropertyGraph()
        with WriteAheadLog(path) as wal:
            wal.attach(graph)
            _mutate(graph)
        return path.read_bytes()

    def test_truncated_final_record_is_dropped(self, tmp_path) -> None:
        data = self._full_log(tmp_path)
        path = tmp_path / "torn.log"
        path.write_bytes(data[:-5])  # rip the tail off the last record
        scan = read_wal(path)
        assert scan.torn_tail
        assert [op["v"] for op in scan.records] == [1, 2, 3, 4, 5]
        assert scan.valid_bytes < len(data) - 5

    def test_partial_header_is_a_torn_tail(self, tmp_path) -> None:
        data = self._full_log(tmp_path)
        scan_full = read_wal(tmp_path / "wal.log")
        path = tmp_path / "torn.log"
        path.write_bytes(data + b"\x00\x00\x01")  # 3 stray bytes: half a header
        scan = read_wal(path)
        assert scan.torn_tail
        assert len(scan.records) == len(scan_full.records)
        assert scan.valid_bytes == len(data)

    def test_corrupt_final_record_at_eof_is_a_torn_tail(self, tmp_path) -> None:
        data = bytearray(self._full_log(tmp_path))
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path = tmp_path / "torn.log"
        path.write_bytes(bytes(data))
        scan = read_wal(path)
        assert scan.torn_tail
        assert [op["v"] for op in scan.records] == [1, 2, 3, 4, 5]

    def test_corrupt_earlier_record_raises(self, tmp_path) -> None:
        data = bytearray(self._full_log(tmp_path))
        # Flip a byte inside the FIRST record's payload: damage that is not
        # at the tail is corruption, not a torn write.
        data[_HEADER.size + 2] ^= 0xFF
        path = tmp_path / "corrupt.log"
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptError) as excinfo:
            read_wal(path)
        assert "checksum" in str(excinfo.value)
        assert excinfo.value.offset == 0

    def test_checksum_valid_but_undecodable_payload_raises(self, tmp_path) -> None:
        payload = b"[1, 2, 3]"  # valid JSON, not an op record
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        path = tmp_path / "bogus.log"
        path.write_bytes(record)
        with pytest.raises(WalCorruptError, match="undecodable"):
            read_wal(path)

    def test_recovery_truncates_the_torn_tail(self, tmp_path) -> None:
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
        wal_path = directory / DurableStore.WAL_NAME
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])
        with DurableStore(directory) as store:
            assert store.graph.version == 5  # the torn sixth record is gone
            assert store.replayed_records == 5
            # The file was repaired in place: scanning it again is clean.
            scan = read_wal(wal_path)
            assert not scan.torn_tail
        # And appending after the repair starts a fresh intact frame.
        with DurableStore(directory) as store:
            store.graph.add_node("post-repair")
            assert store.graph.version == 6


class TestFsyncPolicies:
    def _append_records(self, tmp_path, count: int, **wal_options) -> WriteAheadLog:
        wal = WriteAheadLog(tmp_path / "wal.log", **wal_options)
        for version in range(1, count + 1):
            wal.append({"op": "add_node", "v": version, "a": {"id": f"n{version}"}})
        return wal

    def test_always_syncs_every_record(self, tmp_path) -> None:
        wal = self._append_records(tmp_path, 5, fsync="always")
        assert wal.syncs == 5
        wal.close()
        assert wal.syncs == 5  # nothing left unsynced

    def test_batch_syncs_every_interval_and_on_close(self, tmp_path) -> None:
        wal = self._append_records(tmp_path, 7, fsync="batch", batch_interval=3)
        assert wal.syncs == 2  # after records 3 and 6
        wal.close()
        assert wal.syncs == 3  # the close flushed the seventh

    def test_off_never_syncs(self, tmp_path) -> None:
        wal = self._append_records(tmp_path, 5, fsync="off")
        wal.close()
        assert wal.syncs == 0

    @pytest.mark.xfail(
        strict=True,
        reason="fsync=off is the documented data-loss window: nothing is ever "
        "fsynced, so a power loss may drop every record the OS had not "
        "flushed on its own; this test records the missing guarantee",
    )
    def test_off_has_no_power_loss_guarantee(self, tmp_path) -> None:
        wal = self._append_records(tmp_path, 5, fsync="off")
        try:
            assert wal.syncs > 0  # the guarantee "off" deliberately does not give
        finally:
            wal.close()


class TestRecoveryEdgeCases:
    def test_fresh_directory_starts_empty(self, tmp_path) -> None:
        with DurableStore(tmp_path / "store", name="fresh") as store:
            assert store.graph.version == 0
            assert store.graph.name == "fresh"
            assert not store.recovered_from_snapshot
            assert store.replayed_records == 0

    def test_empty_wal_with_snapshot(self, tmp_path) -> None:
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
            store.rotate()
        with DurableStore(directory) as store:
            assert store.recovered_from_snapshot
            assert store.replayed_records == 0
            assert store.graph.version == 6
            assert store.graph.node("a").property("name") == "A'"

    def test_wal_ahead_of_snapshot_replays_the_difference(self, tmp_path) -> None:
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
            store.rotate()
            store.graph.add_node("late1")
            store.graph.add_node("late2")
        with DurableStore(directory) as store:
            assert store.recovered_from_snapshot
            assert store.replayed_records == 2
            assert store.graph.version == 8
            assert store.graph.has_node("late1") and store.graph.has_node("late2")

    def test_stale_wal_behind_the_snapshot_is_skipped(self, tmp_path) -> None:
        """Crash between the snapshot rename and the WAL reset during rotation."""
        directory = tmp_path / "store"
        with DurableStore(
            directory, crash_hook=_crash_at(CrashPoint.ROTATE_SNAPSHOT_RENAMED)
        ) as store:
            _mutate(store.graph)
            with pytest.raises(SimulatedCrash):
                store.rotate()
        # On disk: new snapshot at v6 AND the full 6-record log.
        with DurableStore(directory) as store:
            assert store.recovered_from_snapshot
            assert store.stale_records == 6
            assert store.replayed_records == 0
            assert store.graph.version == 6
            assert store.graph.edge("bc").property("weight") == 2

    def test_double_rotation_crash(self, tmp_path) -> None:
        """A second rotation crashing must not lose the first one's compaction."""
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
            store.rotate()
            store.graph.add_node("between")
        with DurableStore(
            directory, crash_hook=_crash_at(CrashPoint.ROTATE_SNAPSHOT_RENAMED)
        ) as store:
            assert store.graph.version == 7
            store.graph.add_node("more")
            with pytest.raises(SimulatedCrash):
                store.rotate()
        with DurableStore(directory) as store:
            assert store.graph.version == 8
            assert store.graph.has_node("between") and store.graph.has_node("more")
            assert store.stale_records == 2  # v7 and v8 are inside the new snapshot
            # A clean rotation afterwards converges to snapshot + empty WAL.
            assert store.rotate() == 8
        scan = read_wal(directory / DurableStore.WAL_NAME)
        assert scan.records == []
        with DurableStore(directory) as store:
            assert store.graph.version == 8
            assert store.stale_records == 0

    def test_indented_snapshot_recovers_to_the_same_graph(self, tmp_path) -> None:
        """A snapshot in the older ``indent=2`` form still recovers."""
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
            store.rotate()
            store.graph.add_node("late")
        snapshot_path = directory / DurableStore.SNAPSHOT_NAME
        compact_text = snapshot_path.read_text(encoding="utf-8")
        assert "\n" not in compact_text  # rotate writes one compact line
        with DurableStore(directory) as store:
            expected = graph_to_dict(store.graph)
            assert store.graph.version == 7
        snapshot_path.write_text(
            json.dumps(json.loads(compact_text), indent=2), encoding="utf-8"
        )
        with DurableStore(directory) as store:
            assert store.recovered_from_snapshot
            assert store.replayed_records == 1
            assert store.graph.version == 7
            assert graph_to_dict(store.graph) == expected

    def test_version_gap_in_the_log_refuses_to_replay(self, tmp_path) -> None:
        directory = tmp_path / "store"
        directory.mkdir()
        wal_path = directory / DurableStore.WAL_NAME
        records = b"".join(
            _encode_record({"op": "add_node", "v": version, "a": {"id": f"n{version}"}})
            for version in (1, 3)  # v2 is missing: not a prefix, not stale
        )
        wal_path.write_bytes(records)
        with pytest.raises(WalCorruptError, match="version gap"):
            DurableStore(directory)

    def test_crash_mid_append_aborts_the_mutation(self, tmp_path) -> None:
        directory = tmp_path / "store"
        with DurableStore(
            directory, crash_hook=_crash_at(CrashPoint.MID_APPEND)
        ) as store:
            with pytest.raises(SimulatedCrash):
                store.graph.add_node("ok")
            assert store.graph.version == 0  # the mutation never applied
            assert not store.graph.has_node("ok")
        # The crash left half a record on disk; recovery repairs the torn
        # tail and the store keeps working.
        with DurableStore(directory) as store:
            assert store.graph.version == 0
            store.graph.add_node("ok")
            assert store.graph.version == 1

    def test_wal_commit_precedes_apply(self, tmp_path) -> None:
        """A record that could not be logged never commits in memory."""
        directory = tmp_path / "store"
        with DurableStore(
            directory, crash_hook=_crash_at(CrashPoint.BEFORE_APPEND)
        ) as store:
            with pytest.raises(SimulatedCrash):
                store.graph.add_node("never")
            assert not store.graph.has_node("never")
            assert store.graph.version == 0
            store.graph.add_node("after")  # hook disarmed: logs and commits
            assert store.graph.version == 1
        assert len(read_wal(directory / DurableStore.WAL_NAME).records) == 1


class TestWalInspectRoundTrip:
    def test_snapshot_skips_replay_after_rotate(self, tmp_path) -> None:
        directory = tmp_path / "store"
        with DurableStore(directory) as store:
            _mutate(store.graph)
            assert store.rotate() == 6
            assert store.rotations == 1
        snapshot = json.loads((directory / DurableStore.SNAPSHOT_NAME).read_text())
        assert snapshot["version"] == 6
