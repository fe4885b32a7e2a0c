"""The six workloads of e2ebench.

Every workload is a *fixed multiset* of operations replayed in a seeded
order: ``--seed`` decides which operation follows which (and so what the
caches, the collector and the event loop see next), never how much work a
pass contains.  That is deliberate — the benchmark compares two commits, and
a pass whose cost moved with the seed would hide a 5 % change behind a 10 %
input lottery.  Graph topologies and query sets are therefore constants of
the workload, named here; the README says why each was chosen.

A workload owns its inputs, the running system under test, the reference
answers (computed in-process with ``executor="materialize"`` on a mutable
graph that has no columnar core) and the per-op check against them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass

from harness import OUT_DIR, fingerprint, rendered_digest, sha256_lines

import repro
from repro.bench.replay import build_trace_graph, generate_ldbc_trace
from repro.bench.workloads import mixed_service_workload, service_workloads
from repro.datasets.generators import (
    chain_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    random_graph,
)
from repro.datasets.ldbc import LDBCParameters
from repro.engine.engine import PathQueryEngine
from repro.graph.io import graph_to_dict

#: Seed of everything that decides *how much* work a pass holds (the LDBC
#: trace's texts and names).  7 is the seed the repo's own replay gate uses.
CONTENT_SEED = 7


@dataclass(frozen=True)
class Op:
    """One operation of a pass.  ``key`` names it across commits (golden file, reports)."""

    key: str
    kind: str = "query"  # query | node | edge | checkpoint | recover
    text: str = ""
    params: tuple = ()  # sorted (name, value) pairs
    max_length: int | None = None
    limit: int | None = None
    executor: str | None = None
    target: str = ""  # which graph variant it runs on
    args: tuple = ()  # write payload

    def bindings(self) -> dict | None:
        return dict(self.params) or None


@dataclass
class Reference:
    """What the right answer to one op looks like."""

    rows: int
    digest: str  # SHA-256 of the canonical rendering: comparable across commits
    mark: object = None  # in-process fast check: fingerprint or the set of valid rows


def _reference_engine(graph) -> PathQueryEngine:
    """The oracle: materializing evaluator, no plan cache, object-encoded closure."""
    return PathQueryEngine(graph, executor="materialize", plan_cache_size=0)


def _reference(engine: PathQueryEngine, op: Op) -> Reference:
    result = engine.query(op.text, max_length=op.max_length, params=op.bindings())
    return Reference(len(result.paths), rendered_digest(result.paths), fingerprint(result.paths))


class Workload:
    """Interface the harness drives.  ``stack`` lists the layers an op crosses, top first."""

    name = ""
    stack: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.references: dict[str, Reference] = {}
        self.multiset: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started."""

    def begin_pass(self) -> list[Op]:
        """The ops of the next pass, in this seed's order."""
        ops = list(self.multiset)
        self.rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result, *, strict: bool) -> bool:
        raise NotImplementedError

    def end_pass(self) -> None:
        """Release whatever :meth:`begin_pass` acquired."""

    def golden(self) -> dict:
        """``{op key: [row count, digest]}`` — the cross-commit answer record."""
        return {key: [ref.rows, ref.digest] for key, ref in sorted(self.references.items())}

    # -- what the traced run needs to reach below the top entry point ----------
    #: True when every op of a pass misses the plan cache (parse/plan/optimize on its path).
    cold_plans = False

    def graph_of(self, op: Op):
        """The graph ``op`` runs on."""
        raise NotImplementedError

    def database_of(self, op: Op) -> "repro.Database":
        """The open database serving ``op`` right now."""
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Cumulative cache and service counters of everything this workload has opened."""
        return {}

    def store_counters(self) -> dict[str, int]:
        """WAL bytes and syncs of the last pass's writes (durable workloads only)."""
        return {}


def _cache_counters(databases, service=None) -> dict[str, int]:
    """Plan-cache counters of ``databases`` and result-cache counters of ``service``, summed."""
    totals = {
        "plan_hits": sum(database.plan_cache.hits for database in databases),
        "plan_misses": sum(database.plan_cache.misses for database in databases),
    }
    if service is not None:
        served = service.statistics()
        totals["service_completed"] = served.completed
        totals["result_cache_served"] = served.result_cache_served
        totals["delta_rejected"] = served.result_cache_delta_rejected
        totals["cross_version_hits"] = served.result_cache_cross_version_hits
    return totals


def _add(totals: dict[str, int], more: dict[str, int]) -> None:
    for key, value in more.items():
        totals[key] = totals.get(key, 0) + value


# ----------------------------------------------------------------------
# 1 + 2: the wire, cold and hot
# ----------------------------------------------------------------------
class WireLdbc(Workload):
    """An LDBC-interactive trace replayed by one ``ReproClient`` over TCP.

    ``hot=False``: result cache off, so every op runs the whole stack (the
    five texts keep the plan cache hot).  ``hot=True``: default result cache
    and only the first 8 distinct (text, params) pairs of the trace, so after
    the warm-up pass every op is a result-cache hit and codec, event loop,
    hand-off and cache lookup *are* the latency.
    """

    stack = ("server", "service", "engine", "executor", "semantics", "paths", "graph")

    def __init__(self, seed: int, smoke: bool, *, hot: bool) -> None:
        super().__init__(seed, smoke)
        self.hot = hot
        self.name = "wire-ldbc-hot" if hot else "wire-ldbc-cold"
        self.database = None
        self.server = None
        self.client = None

    def setup(self) -> None:
        parameters = (
            LDBCParameters(num_persons=30, num_messages=40)
            if self.smoke
            else LDBCParameters(num_persons=100, num_messages=200)
        )
        events = 8 if self.smoke else 48
        trace = generate_ldbc_trace(events, seed=CONTENT_SEED, parameters=parameters)
        self.graph = build_trace_graph(trace)
        ops = [
            Op(
                key=f"{event.text} {json.dumps(event.params, sort_keys=True)}",
                text=event.text,
                params=tuple(sorted(event.params.items())),
                max_length=event.max_length,
            )
            for event in trace.events
        ]
        if self.hot:
            # 8 distinct (text, params) pairs: the first of each text, then the
            # next ones in trace order, so all five query shapes are in the set.
            distinct = list(dict.fromkeys(ops))
            first_of_text = list({op.text: op for op in reversed(distinct)}.values())
            rest = [op for op in distinct if op not in first_of_text]
            ops = (first_of_text + rest)[:8] * (3 if self.smoke else 60)
        self.multiset = ops
        # References first: the graph has no columnar core yet, so the oracle
        # runs the object-encoded closure the issue asks for.
        oracle = _reference_engine(self.graph)
        self.references = {op.key: _reference(oracle, op) for op in dict.fromkeys(ops)}
        self.database = repro.Database(self.graph)
        self.service = self.database.service(
            workers=1, **({} if self.hot else {"result_cache_size": 0})
        )
        self.server = repro.ReproServer(self.database).start()
        self.client = repro.ReproClient(self.server.host, self.server.port)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        if self.database is not None:
            self.database.close()
        self.client = self.server = self.database = None

    def run(self, op: Op):
        return self.client.query(op.text, op.bindings(), max_length=op.max_length)

    def check(self, op: Op, result, *, strict: bool) -> bool:
        # Wire results are a few dozen rows: the full recipe is affordable on every op.
        return sha256_lines(result.paths()) == self.references[op.key].digest

    def graph_of(self, op: Op):
        return self.graph

    def database_of(self, op: Op):
        return self.database

    def counters(self) -> dict[str, int]:
        return _cache_counters([self.database], self.service)


# ----------------------------------------------------------------------
# 3 + 4: the closure, dense and sparse
# ----------------------------------------------------------------------
_RESTRICTORS = ("TRAIL", "ACYCLIC", "SIMPLE", "SHORTEST")


def _closure_text(restrictor: str) -> str:
    if restrictor == "SHORTEST":
        return "MATCH ALL SHORTEST p = (?x)-[Knows]->+(?y)"
    return f"MATCH ALL {restrictor} p = (?x)-[Knows]->+(?y)"


class Closure(Workload):
    """``Knows+`` under the four restrictors, on each graph's mutable and frozen twin."""

    stack = ("engine", "executor", "semantics", "paths", "graph")

    def __init__(self, seed: int, smoke: bool, *, dense: bool) -> None:
        super().__init__(seed, smoke)
        self.dense = dense
        self.name = "closure-dense" if dense else "closure-sparse"
        self.databases: dict[str, repro.Database] = {}
        self.graphs: dict[str, object] = {}

    def _shapes(self) -> list[tuple[str, object, int | None, tuple[str, ...]]]:
        """(name, mutable graph, max_length, restrictors) per input graph."""
        if self.dense:
            if self.smoke:
                return [("clique-4", complete_graph(4), 3, _RESTRICTORS)]
            ldbc = build_trace_graph(
                generate_ldbc_trace(
                    1, seed=CONTENT_SEED,
                    parameters=LDBCParameters(num_persons=100, num_messages=200),
                )
            )
            return [
                ("clique-6", complete_graph(6), 5, _RESTRICTORS),
                ("clique-7", complete_graph(7), None, ("ACYCLIC",)),
                ("ldbc-200", ldbc, 3, _RESTRICTORS),
            ]
        if self.smoke:
            return [("cycle-8", cycle_graph(8), None, _RESTRICTORS)]
        return [
            ("cycle-16", cycle_graph(16), None, _RESTRICTORS),
            ("cycle-24", cycle_graph(24), None, _RESTRICTORS),
            ("cycle-32", cycle_graph(32), None, _RESTRICTORS),
            ("chain-64", chain_graph(64), None, _RESTRICTORS),
            ("grid-6x6", grid_graph(6, 6), None, _RESTRICTORS),
        ]

    def setup(self) -> None:
        self.multiset = []
        self.references = {}
        for name, mutable, max_length, restrictors in self._shapes():
            frozen = mutable.copy().freeze()
            oracle = _reference_engine(mutable)
            for variant, graph in (("mutable", mutable), ("frozen", frozen)):
                target = f"{name}/{variant}"
                self.graphs[target] = graph
                # auto_compact off: the mutable twin must stay on the object route.
                self.databases[target] = repro.Database(graph, auto_compact=False)
            for restrictor in restrictors:
                probe = Op(key="", text=_closure_text(restrictor), max_length=max_length)
                reference = _reference(oracle, probe)
                for variant in ("mutable", "frozen"):
                    op = Op(
                        key=f"{name}/{restrictor}/{variant}",
                        text=probe.text,
                        max_length=max_length,
                        target=f"{name}/{variant}",
                    )
                    self.multiset.append(op)
                    self.references[op.key] = reference

    def teardown(self) -> None:
        for database in self.databases.values():
            database.close()
        self.databases.clear()
        self.graphs.clear()

    def run(self, op: Op):
        return self.databases[op.target].query(op.text, max_length=op.max_length)

    def check(self, op: Op, result, *, strict: bool) -> bool:
        reference = self.references[op.key]
        if strict:
            return rendered_digest(result.paths) == reference.digest
        return fingerprint(result.paths) == reference.mark

    def graph_of(self, op: Op):
        return self.graphs[op.target]

    def database_of(self, op: Op):
        return self.databases[op.target]

    def counters(self) -> dict[str, int]:
        return _cache_counters(self.databases.values())


# ----------------------------------------------------------------------
# 5: first rows
# ----------------------------------------------------------------------
class LimitK(Workload):
    """``Session.execute(text, limit=k).fetchmany(k)`` over distinct texts, cold plan cache.

    Which k rows come first is the executor's business, so the check is that
    exactly ``min(k, |answer|)`` rows arrive and every one of them belongs to
    the full reference answer.
    """

    name = "limit-k"
    stack = ("engine", "gql", "optimizer", "executor", "semantics", "paths", "graph")
    cold_plans = True
    K = 10

    def setup(self) -> None:
        batch = service_workloads()[1]  # "cache-cold": >= 240 distinct join/union texts
        texts = batch.queries[: 12 if self.smoke else len(batch.queries)]
        # Half the service bench's graph: first rows of a join should not be
        # all hash-table build, or parse/plan/optimize never show.
        self.graph = random_graph(
            20 if self.smoke else 75, 60 if self.smoke else 225,
            labels=("Knows", "Likes", "Follows"), seed=CONTENT_SEED, name="limit-k",
        )
        # A sparse random graph's Knows edges need not hold a cycle; the first
        # rows of an *unbounded cyclic* walk need one for certain.
        self.cyclic = cycle_graph(8 if self.smoke else 64)
        self.multiset = [
            Op(key=text, text=text, limit=self.K, target="service") for text in texts
        ]
        walk = Op(
            key="cycle: WALK Knows+",
            text="MATCH ALL WALK p = (?x)-[Knows]->+(?y)",
            limit=self.K,
            executor="pipeline",  # auto would drain the fix point and never return
            target="cyclic",
        )
        shortest = Op(
            key="cycle: ALL SHORTEST Knows+",
            text=_closure_text("SHORTEST"),
            limit=self.K,
            target="cyclic",
        )
        self.multiset += [walk, shortest]
        service_oracle = _reference_engine(self.graph)
        cyclic_oracle = _reference_engine(self.cyclic)
        self.references = {}
        for op in self.multiset:
            oracle = service_oracle if op.target == "service" else cyclic_oracle
            # The streamed walk yields the base edges first: walks of length
            # <= 2 cover any first k <= |E| rows.
            bound = 2 if op is walk else None
            result = oracle.query(op.text, max_length=bound)
            self.references[op.key] = Reference(
                len(result.paths),
                rendered_digest(result.paths),
                frozenset(str(path) for path in result.paths),
            )
        self.sessions: dict[str, repro.Session] = {}
        self.databases: list[repro.Database] = []
        self.closed_counters: dict[str, int] = {}

    def begin_pass(self) -> list[Op]:
        # A fresh Database per pass: every text is a plan-cache miss once per pass.
        for target, graph in (("service", self.graph), ("cyclic", self.cyclic)):
            database = repro.Database(graph)
            self.databases.append(database)
            self.sessions[target] = database.session()
        return super().begin_pass()

    def end_pass(self) -> None:
        _add(self.closed_counters, _cache_counters(self.databases))
        for session in self.sessions.values():
            session.close()
        for database in self.databases:
            database.close()
        self.sessions.clear()
        self.databases.clear()

    def run(self, op: Op):
        cursor = self.sessions[op.target].execute(
            op.text, limit=op.limit, executor=op.executor
        )
        try:
            return cursor.fetchmany(op.limit)
        finally:
            cursor.close()

    def check(self, op: Op, result, *, strict: bool) -> bool:
        reference = self.references[op.key]
        if len(result) != min(self.K, reference.rows):
            return False
        return all(str(path) in reference.mark for path in result)

    def graph_of(self, op: Op):
        return self.graph if op.target == "service" else self.cyclic

    def database_of(self, op: Op):
        return self.sessions[op.target].database

    def counters(self) -> dict[str, int]:
        totals = dict(self.closed_counters)
        _add(totals, _cache_counters(self.databases))
        return totals


# ----------------------------------------------------------------------
# 6: writes beside reads, durably
# ----------------------------------------------------------------------
class MixedReadWrite(Workload):
    """Hot reads through ``QueryService`` racing WAL-logged writes, then checkpoint and recovery.

    Modelled on ``mixed_service_workload``: 75 % reads over 8 hot texts, 15 %
    audit-node writes, 5 % edges no query reads, 5 % ``Knows`` edges that
    change answers.  Counts are exact and their placement is a constant of the
    workload (``CONTENT_SEED``): which read follows which ``Knows`` write
    decides how many reads miss the result cache, and across ten seeds that
    alone moved throughput by 19 %.  The seed is left the one choice that
    costs nothing: the endpoints of the ``Flagged`` edges no query reads.
    Each pass opens a private copy of a checkpointed store, replays the
    schedule, checkpoints, closes, reopens, and compares the recovered graph
    with the oracle's.
    """

    name = "mixed-read-write"
    stack = ("service", "engine", "executor", "semantics", "paths", "graph")

    def setup(self) -> None:
        batch = mixed_service_workload()
        self.hot_texts = list(batch.queries)
        initial = (
            random_graph(30, 90, labels=("Knows", "Likes", "Follows"), seed=CONTENT_SEED, name="mixed")
            if self.smoke
            else batch.build_graph()
        )
        steps = 40 if self.smoke else 300
        quotas = {
            "read": round(steps * 0.75),
            "node": round(steps * 0.15),
            "flag": round(steps * 0.05),
        }
        quotas["knows"] = steps - sum(quotas.values())
        placement = random.Random(CONTENT_SEED)
        kinds = [kind for kind, count in quotas.items() for _ in range(count)]
        placement.shuffle(kinds)
        reads = [self.hot_texts[i % len(self.hot_texts)] for i in range(quotas["read"])]
        placement.shuffle(reads)
        # Fixed-width ids: whichever endpoints the seed picks, a WAL record is as long.
        audit = ["audit000", "audit001"]
        schedule = [
            Op(key=f"w{index} node {node_id}", kind="node", args=(node_id, "Audit"))
            for index, node_id in enumerate(audit)
        ]
        for index, kind in enumerate(kinds, start=2):
            if kind == "read":
                schedule.append(Op(key=f"r{index} {reads[-1]}", text=reads.pop()))
            elif kind == "node":
                node_id = f"audit{len(audit):03d}"
                audit.append(node_id)
                schedule.append(Op(key=f"w{index} node {node_id}", kind="node", args=(node_id, "Audit")))
            else:
                label, chooser = ("Knows", placement) if kind == "knows" else ("Flagged", self.rng)
                args = (f"e{index}", chooser.choice(audit), chooser.choice(audit), label)
                schedule.append(Op(key=f"w{index} edge {label} {args[1]}->{args[2]}", kind="edge", args=args))
        schedule.append(Op(key="checkpoint", kind="checkpoint"))
        schedule.append(Op(key="recover", kind="recover"))
        self.multiset = schedule

        # Oracle replay: cache-free reads on an in-memory copy, writes applied in order.
        shadow = initial.copy()
        oracle = _reference_engine(shadow)
        self.references = {}
        for op in schedule:
            if op.kind == "query":
                self.references[op.key] = _reference(oracle, op)
            elif op.kind in ("node", "edge"):
                self._write(shadow, op)
        # The template store: the initial graph logged through the WAL, then checkpointed.
        self.workdir = OUT_DIR / f"tmp-{self.name}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        template = self.workdir / "template"
        with repro.Database.open(str(template), fsync="batch", name=initial.name) as database:
            for node in initial.iter_nodes():
                database.graph.add_node(node.id, node.label, node.properties)
            for edge in initial.iter_edges():
                database.graph.add_edge(edge.id, edge.source, edge.target, edge.label, edge.properties)
            database.checkpoint()
            base_version = database.graph.version
        # The shadow was built by copy(), whose version counter restarted; the
        # recovered graph continues the store's.  Compare content and the
        # number of mutations applied, not the absolute counter.
        self.expected_image = _content_digest(shadow)
        self.expected_version = base_version + sum(
            1 for op in schedule if op.kind in ("node", "edge")
        )
        self.passes = 0
        self.database = None
        self.recovered = None
        self.closed_counters: dict[str, int] = {}
        self.wal = {"wal_bytes": 0, "wal_syncs": 0}

    @staticmethod
    def _write(graph, op: Op) -> None:
        if op.kind == "node":
            graph.add_node(*op.args)
        else:
            graph.add_edge(*op.args)

    def teardown(self) -> None:
        self.end_pass()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def begin_pass(self) -> list[Op]:
        self.passes += 1
        self.store_dir = self.workdir / f"pass-{self.passes}"
        shutil.copytree(self.workdir / "template", self.store_dir)
        self.database = repro.Database.open(str(self.store_dir), fsync="batch")
        self.service = self.database.service(workers=1)
        return list(self.multiset)  # the schedule *is* the order

    def end_pass(self) -> None:
        for database in (self.database, self.recovered):
            if database is not None:
                database.close()
        if self.database is not None:
            # Counters outlive close(); the recovered database served nothing.
            _add(self.closed_counters, _cache_counters([self.database], self.service))
        self.database = self.recovered = None
        if getattr(self, "store_dir", None) is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def run(self, op: Op):
        if op.kind == "query":
            return self.service.submit(op.text).result()
        if op.kind == "checkpoint":
            store = self.database.store
            # The log is about to be folded away: note what the pass's writes cost.
            self.wal = {"wal_bytes": os.path.getsize(store.wal_path), "wal_syncs": store.wal.syncs}
            return self.database.checkpoint()
        if op.kind == "recover":
            self.database.close()
            self.recovered = repro.Database.open(str(self.store_dir), fsync="batch")
            return self.recovered
        return self._write(self.database.graph, op)

    def check(self, op: Op, result, *, strict: bool) -> bool:
        if op.kind == "query":
            if not result.ok:
                return False
            reference = self.references[op.key]
            if strict:
                return rendered_digest(result.paths) == reference.digest
            return fingerprint(result.paths) == reference.mark
        if op.kind == "recover":
            return (
                result.graph.version == self.expected_version
                and _content_digest(result.graph) == self.expected_image
            )
        return True

    def graph_of(self, op: Op):
        return self.database_of(op).graph

    def database_of(self, op: Op):
        return self.recovered if self.recovered is not None else self.database

    def counters(self) -> dict[str, int]:
        return dict(self.closed_counters)

    def store_counters(self) -> dict[str, int]:
        return dict(self.wal)

    def golden(self) -> dict:
        record = super().golden()
        record["recovered graph"] = [self.expected_version, self.expected_image]
        return record


def _content_digest(graph) -> str:
    """Digest of nodes, edges and properties, blind to the mutation counter."""
    image = graph_to_dict(graph)
    image.pop("version", None)
    image.pop("name", None)
    return hashlib.sha256(json.dumps(image, sort_keys=True).encode("utf-8")).hexdigest()


WORKLOADS = {
    "wire-ldbc-cold": lambda seed, smoke: WireLdbc(seed, smoke, hot=False),
    "wire-ldbc-hot": lambda seed, smoke: WireLdbc(seed, smoke, hot=True),
    "closure-dense": lambda seed, smoke: Closure(seed, smoke, dense=True),
    "closure-sparse": lambda seed, smoke: Closure(seed, smoke, dense=False),
    "limit-k": LimitK,
    "mixed-read-write": MixedReadWrite,
}
