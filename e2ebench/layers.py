"""The traced run: every op of a pass timed at successive public entry points.

No span lives inside ``src/`` yet (ROADMAP item 4), so a layer is measured
from outside: the same op is issued at the client, at ``QueryService``, at
``PathQueryEngine``, at the parser/planner/optimizer, at each executor, at
the closure kernel and at the path codec, and a layer's *self time* is its
entry point's duration minus the duration of the entry point below it.

Two kinds of number come out:

* **per-layer metrics** — what a layer's public function costs on this
  workload's inputs, whether or not the workload's caches would skip it
  (``gql.parse_ms`` on a plan-cache-hot workload is still the parse time of
  its texts).  Layers above a workload's stack report 0: an in-process
  closure never touches the wire.
* **layer shares** — self times counted only where the op really crosses
  the layer (a result-cache hit stops at ``service``), as a share of the
  traced latency.  These go to ``e2ebench/out/trace-<workload>.jsonl`` with
  the spans, and are what the README's dominance table is read from.
"""

from __future__ import annotations

import json
import socket
import statistics
import time
from collections import defaultdict

import harness

from repro.algebra.evaluator import Evaluator
from repro.algebra.expressions import Join, Recursive
from repro.engine.engine import PathQueryEngine
from repro.engine.executor import choose_executor, resolve_executor
from repro.engine.footprint import plan_footprint
from repro.errors import PathAlgebraError
from repro.gql.parser import parse_query
from repro.gql.planner import plan_query
from repro.graph.compact import CompactGraph, compact_core_of
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import Optimizer
from repro.paths.intpath import IntPathSet, encode_base
from repro.paths.join_index import JoinIndex
from repro.semantics.int_closure import int_recursive_closure
from repro.semantics.restrictors import Restrictor, iter_recursive_closure, recursive_closure
from repro.server.protocol import decode_frame, encode_frame, row_from_path

LAYERS = ("server", "service", "engine", "gql", "optimizer", "executor", "semantics", "paths", "graph")
ROUTES = ("materialize", "pipeline", "automaton")

class Tracer:
    """Spans in memory: (op_id, name, parent, start, end).  Written out once, at the end."""

    def __init__(self, repeats: int = 3) -> None:
        self.spans: list[tuple] = []
        self.repeats = repeats

    def timed(self, op_id: int, name: str, parent: str | None, call):
        """Call up to ``repeats`` times; the span recorded is the one of median duration.

        Repeating stops once a quarter of a second has gone into this entry
        point (and never starts in a smoke run).  Returns ``(seconds, result of the last call)``.
        """
        runs = []
        result = None
        spent = 0.0
        for _ in range(self.repeats):
            started = time.perf_counter()
            result = call()
            ended = time.perf_counter()
            runs.append((ended - started, started, ended))
            spent += ended - started
            if spent > 0.25:
                break
        seconds, started, ended = sorted(runs)[(len(runs) - 1) // 2]
        self.spans.append((op_id, name, parent, started, ended))
        return seconds, result

    def write(self, path, header: dict, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for op_id, name, parent, start, end in self.spans:
                handle.write(
                    json.dumps({"op_id": op_id, "name": name, "parent": parent, "start": start, "end": end})
                    + "\n"
                )
            handle.write(json.dumps({"summary": summary}) + "\n")


def _find(plan, kind):
    """First node of ``kind`` in a plan tree, depth first."""
    if isinstance(plan, kind):
        return plan
    for child in plan.children():
        found = _find(child, kind)
        if found is not None:
            return found
    return None


def _raw_query(address, op) -> tuple[int, int, int, float]:
    """One query over a bare socket: (frames, page bytes, rows, seconds decoding pages)."""
    frame = {"op": "query", "id": 1, "text": op.text}
    if op.params:
        frame["params"] = dict(op.params)
    if op.max_length is not None:
        frame["max_length"] = op.max_length
    frames = page_bytes = rows = 0
    decoding = 0.0
    with socket.create_connection(address, timeout=30) as sock, sock.makefile("rb") as reader:
        sock.sendall(encode_frame(frame))
        while True:
            line = reader.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-query")
            frames += 1
            started = time.perf_counter()
            received = decode_frame(line)
            elapsed = time.perf_counter() - started
            if received["type"] == "page":
                page_bytes += len(line)
                rows += len(received["rows"])
                decoding += elapsed
            elif received["type"] in ("done", "error"):
                return frames, page_bytes, rows, decoding


class Below:
    """One query shape timed below the workload's top entry point.

    ``t`` holds seconds per entry point, ``n`` counts; both read 0 where the
    shape has nothing for a layer to do (no recursion, no join).
    """

    def __init__(self) -> None:
        self.t = defaultdict(float)
        self.n = defaultdict(int)
        self.routes: dict[str, float] = {}
        self.chosen = ""
        self.served_from_cache = False  # wire stacks: what the service did with it
        # Seconds the chosen route spends inside the layers below the executor.
        self.closure_on_path = 0.0
        self.paths_on_path = 0.0
        self.join_on_path = 0.0


def shape_of(op) -> tuple:
    """What a decomposition depends on: the query and where it runs, not its place in the pass."""
    return (op.text, op.params, op.max_length, op.limit, op.executor, op.target)


class _Twins:
    """Per graph version: a twin with no columnar core and a frozen twin with one."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int], tuple] = {}
        self.freeze_seconds: list[float] = []

    def of(self, graph, tracer: Tracer, op_id: int):
        key = (id(graph), graph.version)
        if key not in self._memo:
            plain = graph.copy()
            seconds, _ = tracer.timed(op_id, "graph.freeze", None, lambda: CompactGraph.from_graph(plain))
            self.freeze_seconds.append(seconds)
            self._memo[key] = (plain, graph.copy().freeze())
        return self._memo[key]


def decompose(workload, op, op_id: int, tracer: Tracer, twins: _Twins) -> Below:
    """Issue ``op`` at every public entry point below the workload's own."""
    below = Below()
    t = below.t
    graph = workload.graph_of(op)
    database = workload.database_of(op)
    bindings = op.bindings()
    snapshot = graph.snapshot()
    query = dict(max_length=op.max_length, executor=op.executor, limit=op.limit)

    # -- service, and the wire's codec ------------------------------------------
    if workload.stack[0] == "server":
        service = database.service()
        t["service"], served = tracer.timed(
            op_id, "service.submit", "server.roundtrip",
            lambda: service.submit(
                op.text, max_length=op.max_length, params=bindings, snapshot=snapshot
            ).result(),
        )
        below.served_from_cache = served.result_cache_hit
        t["queue_wait"] = served.queued_seconds
        below.n["frames"], below.n["page_bytes"], below.n["wire_rows"], t["decode"] = _raw_query(
            workload.server.address, op
        )
        ordered = served.paths.sorted()
        t["encode"], _ = tracer.timed(
            op_id, "server.encode", "server.roundtrip",
            lambda: encode_frame({"type": "page", "id": 1, "rows": [row_from_path(p) for p in ordered]}),
        )

    # -- engine -------------------------------------------------------------------
    t["snapshot"], _ = tracer.timed(op_id, "graph.snapshot", "engine.query", graph.snapshot)
    t["engine"], result = tracer.timed(
        op_id, "engine.query", "service.submit",
        lambda: database.engine.query(op.text, graph=snapshot, params=bindings, **query),
    )
    plan, chosen = result.optimized_plan, result.executor
    below.chosen = chosen
    below.n["rules_applied"] = len(result.applied_rules)

    # -- gql / optimizer ------------------------------------------------------------
    t["parse"], ast = tracer.timed(op_id, "gql.parse", "engine.query", lambda: parse_query(op.text, max_length=op.max_length))
    t["plan"], logical = tracer.timed(op_id, "gql.plan", "engine.query", lambda: plan_query(ast))
    optimizer = Optimizer()
    t["optimize"], _ = tracer.timed(op_id, "optimizer.optimize", "engine.query", lambda: optimizer.optimize(logical))
    t["cost_model"], model = tracer.timed(op_id, "optimizer.cost_model", "engine.query", lambda: CostModel(snapshot))
    t["choose"], _ = tracer.timed(op_id, "optimizer.choose_executor", "engine.query", lambda: choose_executor(plan, model))

    # -- executor: every route on the same optimized plan -----------------------------
    footprint = plan_footprint(plan)
    for route in ROUTES:
        executor = resolve_executor(route)
        try:
            seconds, execution = tracer.timed(
                op_id, f"executor.{route}", "engine.query",
                lambda: executor.execute(plan, snapshot, limit=op.limit, footprint=footprint),
            )
        except PathAlgebraError:  # an unbounded cyclic walk cannot be drained by the materializer
            continue
        below.routes[route] = seconds
        if route == chosen:
            t["execute"] = seconds
            below.n["intermediate_paths"] = execution.statistics.intermediate_paths
            below.n["result_rows"] = len(execution.paths)

    def first_row():
        cursor = database.engine.open_cursor(op.text, bindings, graph=snapshot, **query)
        try:
            return cursor.fetchmany(1)
        finally:
            cursor.close()

    t["first_row"], _ = tracer.timed(op_id, "executor.first_row", "engine.query", first_row)

    # Sanity: a cold engine's own phase clock against the phases timed from outside.
    colds = [
        PathQueryEngine(snapshot, plan_cache_size=0).query(op.text, params=bindings, **query)
        for _ in range(1 if t["execute"] > 0.1 else tracer.repeats)
    ]
    t["phases_inside"] = min(sum(cold.phase_seconds.values()) for cold in colds)
    t["phases_outside"] = t["parse"] + t["plan"] + t["optimize"] + t["execute"]

    # -- semantics / paths ---------------------------------------------------------------
    plain, frozen = twins.of(graph, tracer, op_id)
    core = frozen.compact_core()
    recursive = _find(plan, Recursive)
    if recursive is not None and recursive.restrictor is Restrictor.WALK and recursive.max_length is None:
        recursive = None  # an unbounded walk has no closure to drain; only its first rows exist
    join = _find(plan, Join)
    if recursive is not None:
        base_plain = Evaluator(plain).evaluate_paths(recursive.child)
        base_frozen = Evaluator(frozen).evaluate_paths(recursive.child)
        restrictor, bound = recursive.restrictor, recursive.max_length
    if recursive is not None and len(base_plain):
        parent = f"executor.{chosen}"
        t["closure"], closed = tracer.timed(
            op_id, "semantics.closure", parent, lambda: recursive_closure(base_plain, restrictor, bound)
        )
        t["int_closure"], closed_frozen = tracer.timed(
            op_id, "semantics.int_closure", parent,
            lambda: int_recursive_closure(core, base_frozen, restrictor, bound, None),
        )
        below.n["closure_paths"] = len(closed)

        def first_round():
            iterator = iter_recursive_closure(base_plain, restrictor, bound)
            for _ in range(len(base_plain) + 1):
                if next(iterator, None) is None:
                    break

        t["iter_first_round"], _ = tracer.timed(op_id, "semantics.iter_first_round", parent, first_round)
        t["join_index"], _ = tracer.timed(op_id, "paths.join_index", "semantics.closure", lambda: JoinIndex(base_plain))
        t["encode_base"], seqs = tracer.timed(
            op_id, "paths.encode_base", "semantics.int_closure", lambda: encode_base(core, closed_frozen)
        )
        t["decode_paths"], _ = tracer.timed(
            op_id, "paths.decode", "semantics.int_closure", lambda: IntPathSet(core, seqs).decode(frozen)
        )
        below.n["codec_paths"] = len(seqs)
        t["join"], joined = tracer.timed(op_id, "paths.join", "semantics.closure", lambda: base_plain.join(base_plain))
        below.n["join_pairs"] = len(joined)
        if chosen == "materialize":  # the automaton searches the product graph instead
            if compact_core_of(graph) is not None:
                below.closure_on_path = t["int_closure"]
                base_codec, _ = tracer.timed(
                    op_id, "paths.encode_base", "semantics.int_closure", lambda: encode_base(core, base_frozen)
                )
                # IntPathSet.decode is the public twin of the closure's own bulk
                # decoder and somewhat slower: the semantics/paths split is approximate.
                below.paths_on_path = min(base_codec + t["decode_paths"], below.closure_on_path)
            else:
                below.closure_on_path = t["closure"]
                below.paths_on_path = t["join_index"]
    elif recursive is None and join is not None:
        left = Evaluator(plain).evaluate_paths(join.left)
        right = Evaluator(plain).evaluate_paths(join.right)
        t["join"], joined = tracer.timed(op_id, "paths.join", f"executor.{chosen}", lambda: left.join(right))
        below.n["join_pairs"] = len(joined)
        if chosen == "materialize":  # the pipeline has its own hash join
            below.join_on_path = t["join"]
    return below


def self_times(workload, top: float, hit: bool, below: Below) -> tuple[dict[str, float], float, float]:
    """Where one op's ``top`` seconds went: ``(self seconds per layer crossed, leaf seconds, clamped seconds)``.

    A layer's self time is its entry point's time minus the entry point
    below it, so the self times always add up to ``top`` — unless a child,
    timed alone, ran longer than its parent; then the difference is clamped
    to 0 and the excess returned as *clamped* seconds.  *Leaf* seconds are
    the other check: the sum of the deepest separately timed spans on the
    op's path (wire encode and decode; ``service.submit`` on a result-cache
    hit, else the chosen executor route and, where plans are cold, parse,
    plan, optimize and executor choice).  What ``top`` holds beyond its
    leaves — event loop, sockets, thread hand-off, cache lookups, result
    assembly — was attributed by subtraction only.
    """
    t = below.t
    own: dict[str, float] = {}
    clamped = 0.0

    def minus(parent: float, *children: float) -> float:
        nonlocal clamped
        rest = parent - sum(children)
        if rest < 0.0:
            clamped -= rest
            return 0.0
        return rest

    stack_top = workload.stack[0]
    engine = top
    leaves = 0.0
    if stack_top == "server":
        own["server"] = minus(top, t["service"])
        leaves += t["encode"] + t["decode"]
        hit = below.served_from_cache
    if stack_top in ("server", "service"):
        service = t["service"] if stack_top == "server" else top
        engine = 0.0 if hit else t["engine"]
        own["service"] = minus(service, engine)
        if hit:
            # Nothing below the service ran; on the wire its span is the deepest one timed apart from the top.
            return own, leaves + (t["service"] if stack_top == "server" else 0.0), clamped
    phases = 0.0
    if workload.cold_plans:
        own["gql"] = t["parse"] + t["plan"]
        # One cost model serves every op of a pass; each op pays its share of building it.
        own["optimizer"] = t["optimize"] + t["choose"] + t["cost_model"] / len(workload.multiset)
        phases = own["gql"] + own["optimizer"]
    own["engine"] = minus(engine, phases, t["execute"])
    own["executor"] = minus(t["execute"], below.closure_on_path, below.join_on_path)
    own["semantics"] = minus(below.closure_on_path, below.paths_on_path)
    own["paths"] = below.paths_on_path + below.join_on_path
    return own, leaves + phases + t["execute"], clamped


#: Top-level passes of the traced run; an op's traced latency is the median of its samples over them.
TOP_PASSES = 3
#: At most this many distinct query shapes are decomposed (every n-th, in the multiset's own order).
MAX_SHAPES = 64


def traced_run(workload, units: dict[str, str]):
    """``TOP_PASSES`` plain passes (the untraced yardstick), as many timed at the top
    entry point, then the distinct query shapes decomposed below it.

    The amount of work is fixed by the workload, not by a clock, so that the
    count metrics repeat exactly.  ``units`` is BENCHMARK.json's name -> unit
    map of the per-layer metrics.  Returns ``(measurement, metrics)``: every op
    attempted and failed in all those passes, and every one of those metrics
    (plus the ``share.*`` layer shares).
    """
    passes = 1 if workload.smoke else TOP_PASSES
    tracer = Tracer(repeats=passes)
    twins = _Twins()
    plain = harness.Measurement()
    counters_before = workload.counters()
    for _ in range(passes):
        harness.run_pass(workload, plain)
    counters_plain = {
        key: (value - counters_before.get(key, 0)) / passes
        for key, value in workload.counters().items()
    }

    shapes = list(dict.fromkeys(shape_of(op) for op in workload.multiset if op.kind == "query"))
    sampled = set(shapes[:: -(-len(shapes) // MAX_SHAPES)])
    traced = harness.Measurement()
    top_samples = defaultdict(list)  # op key -> top-level seconds of each of its samples
    queue_waits: list[float] = []  # service stacks: seconds each submission waited for a worker
    hits: dict[str, bool] = {}  # op key -> answered from the result cache (service stacks)
    keyed: dict[str, object] = {}  # op key -> the op
    writes = defaultdict(list)  # write-path op kind -> seconds of each
    belows: dict[tuple, Below] = {}
    store_counters: dict[str, int] = {}
    top_name = {"server": "server.roundtrip", "service": "service.submit"}.get(workload.stack[0], "engine.query")
    op_id = 0
    for round_number in range(passes):
        ops = workload.begin_pass()
        try:
            with harness.quiesced():
                for op in ops:
                    op_id += 1
                    traced.attempted += 1
                    started = time.perf_counter()
                    try:
                        result = workload.run(op)
                    except Exception as error:
                        traced.fail(f"{op.key}: {type(error).__name__}: {error}")
                        continue
                    ended = time.perf_counter()
                    traced.latencies.append(ended - started)
                    if not workload.check(op, result, strict=False):
                        traced.fail(f"{op.key}: wrong answer")
                    if op.kind != "query":
                        name = "write" if op.kind in ("node", "edge") else op.kind
                        tracer.spans.append((op_id, f"graph.{name}", None, started, ended))
                        writes[name].append(ended - started)
                        continue
                    tracer.spans.append((op_id, top_name, None, started, ended))
                    top_samples[op.key].append(ended - started)
                    hits[op.key] = bool(getattr(result, "result_cache_hit", False))
                    if hasattr(result, "queued_seconds"):
                        queue_waits.append(result.queued_seconds)
                    keyed[op.key] = op
            if round_number == passes - 1:
                # Decompose while the last pass's databases are still open.
                store_counters = workload.store_counters()
                for op in keyed.values():
                    shape = shape_of(op)
                    if shape in sampled and shape not in belows:
                        op_id += 1
                        with harness.quiesced():
                            belows[shape] = decompose(workload, op, op_id, tracer, twins)
        finally:
            workload.end_pass()

    tops = {key: statistics.median(seconds) for key, seconds in top_samples.items()}

    def per_pass(kind: str) -> float:
        """Per-pass cost of one kind of write-path op: summed over a pass's ops, median over passes."""
        count = len(writes[kind]) // passes
        if not count:
            return 0.0
        return statistics.median(sum(writes[kind][i * count:(i + 1) * count]) for i in range(passes))

    write_seconds = {kind: per_pass(kind) for kind in ("write", "checkpoint", "recover")}
    write_count = len(writes["write"]) // passes

    # Every op of a pass whose shape was decomposed, with its shape's decomposition.
    pass_ops = [
        (op, belows[shape_of(op)])
        for op in workload.multiset
        if op.kind == "query" and shape_of(op) in belows and op.key in tops
    ]
    queries = len(pass_ops)
    layer_seconds = dict.fromkeys(LAYERS, 0.0)
    # Write-path ops are calls straight into the graph layer: leaves of their own.
    leaf_seconds = layer_seconds["graph"] = sum(write_seconds.values())
    clamped_seconds = 0.0
    for op, below in pass_ops:
        own, leaves, clamped = self_times(workload, tops[op.key], hits[op.key], below)
        for layer, seconds_in in own.items():
            layer_seconds[layer] += seconds_in
        leaf_seconds += leaves
        clamped_seconds += clamped
    traced_seconds = sum(tops[op.key] for op, _ in pass_ops) + sum(write_seconds.values())

    def total(field: str, table: str = "t") -> float:
        return sum(getattr(below, table)[field] for _, below in pass_ops)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_query_ms(field: str) -> float:
        return ratio(total(field) * 1e3, queries)

    def route_ms(route: str) -> float:
        ran = [below.routes[route] for _, below in pass_ops if route in below.routes]
        return statistics.mean(ran) * 1e3 if ran else 0.0

    chosen_seconds = sum(below.routes.get(below.chosen, 0.0) for _, below in pass_ops)
    best_seconds = sum(min(below.routes.values()) for _, below in pass_ops if below.routes)
    on_wire = workload.stack[0] == "server"
    if on_wire:
        queue_waits = [below.t["queue_wait"] for _, below in pass_ops]
    wire_latencies = sorted(plain.latencies + traced.latencies) if on_wire else []
    values = {
        "server.roundtrip_self_ms": ratio(layer_seconds["server"] * 1e3, queries),
        "server.encode_us_per_row": ratio(total("encode") * 1e6, total("wire_rows", "n")),
        "server.decode_us_per_row": ratio(total("decode") * 1e6, total("wire_rows", "n")),
        "server.bytes_per_row": ratio(total("page_bytes", "n"), total("wire_rows", "n")),
        "server.frames_per_query": ratio(total("frames", "n"), queries),
        "server.latency_p99_ms": harness.percentile(wire_latencies, 0.99) * 1e3 if wire_latencies else 0.0,
        "service.submit_self_ms": ratio(layer_seconds["service"] * 1e3, queries),
        "service.queue_wait_ms_p50": statistics.median(queue_waits) * 1e3 if queue_waits else 0.0,
        "service.result_cache_hit_ratio": ratio(
            counters_plain.get("result_cache_served", 0), counters_plain.get("service_completed", 0)
        ),
        "service.result_cache_delta_rejected": counters_plain.get("delta_rejected", 0),
        "service.cross_version_hits": counters_plain.get("cross_version_hits", 0),
        "engine.query_self_ms": ratio(layer_seconds["engine"] * 1e3, queries),
        "engine.plan_cache_hit_ratio": ratio(
            counters_plain.get("plan_hits", 0),
            counters_plain.get("plan_hits", 0) + counters_plain.get("plan_misses", 0),
        ),
        "engine.phase_agreement_ratio": ratio(total("phases_outside"), total("phases_inside")),
        "gql.parse_ms": per_query_ms("parse"),
        "gql.plan_ms": per_query_ms("plan"),
        "optimizer.optimize_ms": per_query_ms("optimize"),
        "optimizer.cost_model_ms": per_query_ms("cost_model") + per_query_ms("choose"),
        "optimizer.rules_applied_per_query": ratio(total("rules_applied", "n"), queries),
        "executor.materialize_ms": route_ms("materialize"),
        "executor.pipeline_ms": route_ms("pipeline"),
        "executor.automaton_ms": route_ms("automaton"),
        "executor.auto_regret_ratio": ratio(chosen_seconds, best_seconds),
        "executor.self_ms": ratio(layer_seconds["executor"] * 1e3, queries),
        "executor.first_row_ms": per_query_ms("first_row"),
        "executor.intermediate_paths_per_row": ratio(total("intermediate_paths", "n"), total("result_rows", "n")),
        "semantics.closure_ms": per_query_ms("closure"),
        "semantics.int_closure_ms": per_query_ms("int_closure"),
        "semantics.closure_us_per_path": ratio(total("closure") * 1e6, total("closure_paths", "n")),
        "semantics.iter_first_round_ms": per_query_ms("iter_first_round"),
        "paths.decode_us_per_path": ratio(total("decode_paths") * 1e6, total("codec_paths", "n")),
        "paths.encode_base_us_per_path": ratio(total("encode_base") * 1e6, total("codec_paths", "n")),
        "paths.join_index_build_ms": per_query_ms("join_index"),
        "paths.join_us_per_pair": ratio(total("join") * 1e6, total("join_pairs", "n")),
        "graph.freeze_ms": statistics.mean(twins.freeze_seconds) * 1e3 if twins.freeze_seconds else 0.0,
        "graph.snapshot_us": ratio(total("snapshot") * 1e6, queries),
        "graph.write_us_per_op": ratio(write_seconds["write"] * 1e6, write_count),
        "graph.wal_bytes_per_op": ratio(store_counters.get("wal_bytes", 0), write_count),
        "graph.wal_syncs": store_counters.get("wal_syncs", 0),
        "graph.checkpoint_ms": write_seconds["checkpoint"] * 1e3,
        "graph.recover_ms": write_seconds["recover"] * 1e3,
        "trace.overhead_ratio": ratio(
            harness.percentile(sorted(traced.latencies), 0.50), harness.percentile(sorted(plain.latencies), 0.50)
        ),
        "trace.accounted_ratio": ratio(leaf_seconds, traced_seconds),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    shares = {layer: ratio(layer_seconds[layer], traced_seconds) for layer in LAYERS}
    harness.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        harness.OUT_DIR / f"trace-{workload.name}.jsonl",
        {
            "workload": workload.name,
            "seed": workload.seed,
            "query_shapes": len(shapes),
            "query_shapes_decomposed": len(belows),
            "queries_accounted_per_pass": queries,
        },
        {
            "layer_share_of_traced_latency": shares,
            "clamped_share_of_traced_latency": ratio(clamped_seconds, traced_seconds),
            "traced_seconds_per_pass": traced_seconds,
            "wire_latency_samples": len(wire_latencies),
            "routes_chosen": {
                route: sum(1 for _, below in pass_ops if below.chosen == route) for route in ROUTES
            },
        },
    )
    # Not in BENCHMARK.json (the contract line drops them) but in every report:
    # where the traced latency went, layer by layer.
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = {"value": share, "unit": "ratio"}
    # How far children timed alone overshot their parents: the spans' own inconsistency.
    metrics["trace.clamped_ratio"] = {"value": ratio(clamped_seconds, traced_seconds), "unit": "ratio"}
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.failures += plain.failures
    return traced, metrics
