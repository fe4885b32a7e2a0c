"""The wire path of a result-cache hit: one encoder, a memo, no parked thread.

A served query's row array is encoded once (``encode_rows``) and kept on the
service outcome (``QueryOutcome.wire_rows``), which every result-cache hit
shares, so a hit re-sends stored bytes.  These tests pin down that:

* ``page_frame`` splices an encoded row array into a frame byte-identical to
  ``encode_frame``, and ``row_from_path`` equals its definition
  (``PathBinding.to_dict`` plus the ``path`` rendering);
* a hit answers with the miss's bytes and encodes nothing, a write inside
  the footprint is recomputed (never stale bytes), a write outside it
  reuses the bytes under the request's own version, and in-process service
  use never fills the memo;
* ``QueryTicket.add_done_callback`` fires exactly once whichever side of
  the resolve it is registered on, a raising callback cannot kill a worker,
  and a server that waits on tickets this way parks no executor thread —
  a stream and a ``prepare`` still answer while more service queries than
  the default executor has threads are stuck in the engine.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

import repro.server.protocol as protocol
import repro.server.server as server_module
from graph_corpus import closure_corpus
from repro.api import connect
from repro.datasets.figure1 import figure1_graph
from repro.engine.engine import PathQueryEngine
from repro.engine.results import PathBinding
from repro.graph.model import PropertyGraph
from repro.server import ReproClient, ReproServer
from repro.server.protocol import (
    decode_frame,
    encode_frame,
    encode_rows,
    page_frame,
    row_from_path,
)
from repro.service import QueryService
from repro.service.service import QueryOutcome

KNOWS = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"


def _serial_paths(graph: PropertyGraph, text: str) -> list:
    return PathQueryEngine(graph, plan_cache_size=0).query(text).paths.sorted()


def _unicode_graph() -> PropertyGraph:
    graph = PropertyGraph("unicode")
    for node_id in ("né", "日本", "x"):
        graph.add_node(node_id, "Person", {})
    graph.add_edge("é1", "né", "日本", "Knows")
    graph.add_edge("e2", "日本", "x", "Knows")
    return graph


class TestPageEncoder:
    @pytest.mark.parametrize(
        "request_id", [7, 0, "q-é✓", None, 1.5, -2.25e-7, [1, "a", None], {"b": 1, "a": 2}]
    )
    @pytest.mark.parametrize("graph", [figure1_graph(), _unicode_graph()], ids=["figure1", "unicode"])
    def test_page_frame_matches_encode_frame(self, request_id, graph) -> None:
        paths = _serial_paths(graph, "MATCH ALL TRAIL p = (?x)-[Knows]->+(?y)")
        assert paths
        rows = [row_from_path(path) for path in paths]
        expected = encode_frame({"type": "page", "id": request_id, "rows": rows})
        assert page_frame(request_id, encode_rows(paths)) == expected

    @pytest.mark.parametrize("request_id", [3, "é", None])
    def test_empty_page(self, request_id) -> None:
        assert encode_rows([]) == b"[]"
        expected = encode_frame({"type": "page", "id": request_id, "rows": []})
        assert page_frame(request_id, encode_rows([])) == expected

    def test_row_from_path_matches_binding_definition(self) -> None:
        checked = 0
        for graph in closure_corpus():
            for path in _serial_paths(graph, "MATCH ALL ACYCLIC p = (?x)-[Knows]->*(?y)"):
                definition = PathBinding.from_path(path).to_dict() | {"path": str(path)}
                assert row_from_path(path) == definition, (graph.name, str(path))
                checked += 1
        assert checked > 900


class _RawConnection:
    """A JSONL socket that returns a query's raw answer lines, unparsed."""

    def __init__(self, server: ReproServer) -> None:
        self.sock = socket.create_connection((server.host, server.port), timeout=10)
        self.file = self.sock.makefile("rb")
        self.next_id = 0

    def request(self, frame: dict) -> list[bytes]:
        self.next_id += 1
        self.sock.sendall(encode_frame({**frame, "id": self.next_id}))
        lines = []
        while True:
            line = self.file.readline()
            assert line, "server closed the connection"
            lines.append(line)
            if decode_frame(line)["type"] in ("done", "error", "refreshed"):
                return lines

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture
def served():
    db = connect(figure1_graph())
    server = ReproServer(db).start()
    raw = _RawConnection(server)
    try:
        yield db, server, raw
    finally:
        raw.close()
        server.stop()
        db.close()


@pytest.fixture
def encode_spy(monkeypatch):
    """Counts calls of the row encoders the server can reach."""
    calls = {"encode_rows": 0, "row_from_path": 0}

    def spy(name, module, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy("encode_rows", server_module, server_module.encode_rows)
    spy("row_from_path", protocol, protocol.row_from_path)
    spy("row_from_path", server_module, server_module.row_from_path)
    return calls


class TestEncodedRowsMemo:
    def test_hit_resends_the_miss_bytes_and_encodes_nothing(self, served, encode_spy) -> None:
        _, _, raw = served
        miss_page, miss_done = raw.request({"op": "query", "text": KNOWS})
        assert decode_frame(miss_done)["result_cache_hit"] is False
        assert encode_spy["encode_rows"] == 1
        encode_spy.update(encode_rows=0, row_from_path=0)
        hit_page, hit_done = raw.request({"op": "query", "text": KNOWS})
        assert decode_frame(hit_done)["result_cache_hit"] is True
        assert encode_spy == {"encode_rows": 0, "row_from_path": 0}
        # Same bytes but for the request id the frame is spliced around.
        assert hit_page == miss_page.replace(b'{"id":1,', b'{"id":2,')
        assert decode_frame(hit_page)["id"] == 2

    def test_write_inside_footprint_is_recomputed(self, served) -> None:
        db, _, raw = served
        before_page, _ = raw.request({"op": "query", "text": KNOWS})
        db.graph.add_edge("k-new", "n4", "n1", "Knows")
        raw.request({"op": "refresh"})
        page, done = raw.request({"op": "query", "text": KNOWS})
        assert decode_frame(done)["result_cache_hit"] is False
        assert decode_frame(done)["version"] == db.graph.version
        rows = decode_frame(page)["rows"]
        assert [row["path"] for row in rows] == [
            str(path) for path in _serial_paths(db.graph, KNOWS)
        ]
        assert "(n4, k-new, n1)" in [row["path"] for row in rows]
        assert len(rows) == len(decode_frame(before_page)["rows"]) + 1

    def test_write_outside_footprint_reuses_bytes_at_request_version(
        self, served, encode_spy
    ) -> None:
        db, _, raw = served
        first_page, first_done = raw.request({"op": "query", "text": KNOWS})
        first_version = decode_frame(first_done)["version"]
        db.graph.add_edge("l-new", "n4", "n6", "Likes")
        raw.request({"op": "refresh"})
        encode_spy.update(encode_rows=0, row_from_path=0)
        page, done = raw.request({"op": "query", "text": KNOWS})
        done = decode_frame(done)
        assert done["result_cache_hit"] is True
        assert done["version"] == db.graph.version > first_version
        assert encode_spy == {"encode_rows": 0, "row_from_path": 0}
        assert page == first_page.replace(b'{"id":1,', b'{"id":3,')
        stats = db.service().statistics()
        assert stats.result_cache_cross_version_hits == 1

    @pytest.mark.parametrize("workers", [0, 1])
    def test_in_process_service_never_fills_the_memo(self, workers) -> None:
        with QueryService(figure1_graph(), workers=workers) as service:
            miss = service.submit(KNOWS).result(timeout=10)
            hit = service.submit(KNOWS).result(timeout=10)
        assert hit.result_cache_hit and not miss.result_cache_hit
        assert hit.wire_rows is miss.wire_rows
        assert miss.wire_rows.data is None


def _gate_service(monkeypatch, service: QueryService) -> threading.Event:
    """Hold every service engine at its next query until the event is set."""
    gate = threading.Event()
    for engine in service._engines:
        original = engine.query

        def gated(*args, _original=original, **kwargs):
            assert gate.wait(30), "gate never opened"
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, "query", gated)
    return gate


def _wait_until(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestTicketCallbacks:
    def test_fires_once_registered_before_or_after_resolve(self, monkeypatch) -> None:
        with QueryService(figure1_graph(), workers=1) as service:
            gate = _gate_service(monkeypatch, service)
            ticket = service.submit(KNOWS)
            early: list[tuple[QueryOutcome, str]] = []
            ticket.add_done_callback(
                lambda outcome: early.append((outcome, threading.current_thread().name))
            )
            assert not ticket.done() and early == []
            gate.set()
            outcome = ticket.result(timeout=10)
            _wait_until(lambda: early)
            late: list[QueryOutcome] = []
            ticket.add_done_callback(late.append)
            assert late == [outcome]
            time.sleep(0.05)
        assert [entry[0] for entry in early] == [outcome]
        assert early[0][1] == "repro-query-0"  # ran on the resolving worker
        assert len(late) == 1

    def test_raising_callback_leaves_worker_alive(self, monkeypatch, caplog) -> None:
        def explode(outcome) -> None:
            raise RuntimeError("callback failure")

        with QueryService(figure1_graph(), workers=1) as service:
            gate = _gate_service(monkeypatch, service)
            ticket = service.submit(KNOWS)
            ticket.add_done_callback(explode)
            seen: list[QueryOutcome] = []
            ticket.add_done_callback(seen.append)
            gate.set()
            assert ticket.result(timeout=10).ok
            _wait_until(lambda: seen)
            assert service._threads[0].is_alive()
            follow_up = service.submit("MATCH ALL TRAIL p = (?x)-[Likes]->(?y)")
            assert follow_up.result(timeout=10).ok
        assert "callback failure" in caplog.text

    def test_stop_with_inflight_queries_raises_nothing_in_workers(
        self, monkeypatch, caplog
    ) -> None:
        hook_calls: list = []
        monkeypatch.setattr(threading, "excepthook", hook_calls.append)
        db = connect(figure1_graph(), workers=2)
        server = ReproServer(db).start()
        service = db.service()
        gate = _gate_service(monkeypatch, service)
        parked = [_RawConnection(server) for _ in range(4)]
        try:
            for index, raw in enumerate(parked):
                raw.sock.sendall(encode_frame({"op": "query", "id": index, "text": KNOWS}))
            _wait_until(lambda: service.statistics().submitted == len(parked))
            server.stop(timeout=0.2)
            gate.set()
            _wait_until(lambda: service.statistics().completed == len(parked))
            assert all(thread.is_alive() for thread in service._threads)
            assert service.submit(KNOWS).result(timeout=10).ok
        finally:
            gate.set()
            for raw in parked:
                raw.close()
            server.stop()
            db.close()
        assert hook_calls == []
        assert [r for r in caplog.records if r.name == "repro.service.service"] == []


class TestNoParkedThreads:
    def test_stream_and_prepare_answer_while_service_queries_are_stuck(
        self, monkeypatch
    ) -> None:
        executor_threads = min(32, (os.cpu_count() or 1) + 4)
        db = connect(figure1_graph(), workers=2)
        server = ReproServer(db).start()
        service = db.service()
        gate = _gate_service(monkeypatch, service)
        stuck = [_RawConnection(server) for _ in range(executor_threads + 2)]
        try:
            for index, raw in enumerate(stuck):
                raw.sock.sendall(encode_frame({"op": "query", "id": index, "text": KNOWS}))
            _wait_until(lambda: service.statistics().submitted == len(stuck))
            time.sleep(0.1)  # let the server reach its wait on every ticket
            with ReproClient(server.host, server.port, timeout=2.0) as client:
                started = time.monotonic()
                streamed = [row["path"] for row in client.query_iter(KNOWS, fetch_size=2)]
                assert client.prepare("who", KNOWS) == []
                assert time.monotonic() - started < 2.0
            assert sorted(streamed) == [str(path) for path in _serial_paths(db.graph, KNOWS)]
            gate.set()
            for raw in stuck:
                lines = [raw.file.readline(), raw.file.readline()]
                assert [decode_frame(line)["type"] for line in lines] == ["page", "done"]
        finally:
            gate.set()
            for raw in stuck:
                raw.close()
            server.stop()
            db.close()
