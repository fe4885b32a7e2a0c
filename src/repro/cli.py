"""Command-line interface for the path-algebra engine.

Subcommands:

* ``query``    — run an extended-GQL query against a graph file (JSON or CSV)
  or one of the built-in data sets, printing the matching paths; supports
  ``$name`` placeholders bound with repeatable ``--param name=value`` flags
  and ``--format jsonl`` streaming one binding row per line through the
  result cursor;
* ``explain``  — show the logical plan, the optimizer rewrites and the cost
  estimates without executing the query;
* ``serve``    — run a batch of queries through the concurrent
  :class:`~repro.service.QueryService` (worker pool, snapshot isolation,
  shared plan/result caches), reading one query per line from ``--batch-file``
  or stdin; with ``--listen HOST:PORT`` it instead serves the database over
  TCP (JSONL protocol + HTTP/1.1) until interrupted, draining in-flight
  queries on shutdown;
* ``replay``   — record (``replay record``), synthesize (``replay
  generate``) and replay (``replay run``) query traces: ``run`` replays one
  trace against several service configurations and reports byte-level
  result diffs plus throughput/tail-latency per configuration — the
  differential regression gate behind ``BENCH_replay.json``;
* ``generate`` — write a synthetic graph (figure1 / ldbc / random / cycle /
  chain / grid) to a JSON file;
* ``stats``    — print summary statistics of a graph file;
* ``wal``      — inspect (``wal inspect``) or compact (``wal compact``) a
  durable graph directory (crash-consistent snapshot + write-ahead log, as
  opened by ``--durable`` or :meth:`repro.Database.open`).

Examples::

    python -m repro.cli generate ldbc --persons 100 --output snb.json
    python -m repro.cli query --graph snb.json \
        'MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows]->+(?y)'
    python -m repro.cli explain --dataset figure1 \
        'MATCH ANY SHORTEST WALK p = (?x)-[:Knows]->+(?y)'
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path as FilePath

from repro.api import Database, connect
from repro.bench.replay import (
    ReplayConfig,
    Trace,
    TraceRecorder,
    build_trace_graph,
    generate_ldbc_trace,
    run_replay,
)
from repro.datasets.figure1 import figure1_graph
from repro.datasets.generators import chain_graph, cycle_graph, grid_graph, random_graph
from repro.datasets.ldbc import LDBCParameters, ldbc_like_graph
from repro.engine.executor import EXECUTOR_NAMES
from repro.errors import BudgetExceeded, PathAlgebraError
from repro.graph.io import load_csv, load_json, save_json
from repro.graph.model import PropertyGraph
from repro.graph.stats import compute_statistics
from repro.graph.wal import FSYNC_POLICIES, DurableStore, read_wal
from repro.service.service import EXECUTION_MODES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-algebra query engine for property graphs (GQL / SQL-PGQ path queries).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run an extended-GQL path query")
    _add_graph_arguments(query)
    query.add_argument("text", help="the query text")
    query.add_argument("--max-length", type=int, default=None, help="bound for WALK recursion")
    query.add_argument("--no-optimize", action="store_true", help="disable the plan optimizer")
    query.add_argument(
        "--limit",
        type=int,
        default=None,
        help="produce at most this many paths (pushed into the pipeline executor: "
        "it stops pulling after the limit instead of materializing everything; "
        "which paths survive the cut is executor-dependent)",
    )
    query.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default="auto",
        help="execution strategy: the materializing evaluator, the pull-based "
        "pipeline, the product-graph automaton (streaming SHORTEST), or auto, "
        "which here is the pipeline: this command reads its rows through a "
        "cursor, and auto streams every cursor (default: auto)",
    )
    query.add_argument(
        "--phases",
        action="store_true",
        help="report per-phase timings (parse / plan / optimize / execute)",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="kill the query after this many seconds (cooperative, enforced "
        "in-flight at budget checkpoints; prints partial progress on a kill)",
    )
    query.add_argument(
        "--max-visited",
        type=int,
        default=None,
        help="kill the query after visiting this many paths (resource cap)",
    )
    query.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="bind a $name placeholder of the query (repeatable; values parse "
        "as int/true/false where possible, else as strings)",
    )
    query.add_argument(
        "--format",
        choices=["paths", "jsonl"],
        default="paths",
        help="output format: 'paths' prints sorted path values; 'jsonl' "
        "streams one JSON binding row per line through the result cursor "
        "without materializing the full result (default: paths)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a batch of queries through the concurrent query service",
    )
    _add_graph_arguments(serve)
    serve.add_argument(
        "--batch-file",
        default=None,
        help="file with one extended-GQL query per line ('#' starts a comment; "
        "default: read queries from stdin)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker threads (0 executes inline on the submitting thread; default: 4)",
    )
    serve.add_argument(
        "--execution-mode",
        choices=list(EXECUTION_MODES),
        default="threads",
        help="where queries execute: worker threads (GIL-bound; default) or "
        "forked worker processes (true multi-core parallelism)",
    )
    serve.add_argument("--max-length", type=int, default=None, help="bound for WALK recursion")
    serve.add_argument(
        "--limit", type=int, default=None, help="produce at most this many paths per query"
    )
    serve.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default="auto",
        help="execution strategy shared by all workers (default: auto)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query deadline in seconds, enforced in-flight: a query "
        "still running when its deadline passes is cancelled cooperatively "
        "and answered with a timeout carrying its partial progress",
    )
    serve.add_argument(
        "--max-visited",
        type=int,
        default=None,
        help="per-query cap on visited paths (exceeding it counts as a timeout)",
    )
    serve.add_argument(
        "--plan-cache-size", type=int, default=256, help="shared plan cache capacity"
    )
    serve.add_argument(
        "--result-cache-size",
        type=int,
        default=1024,
        help="shared result cache capacity (0 disables result reuse)",
    )
    serve.add_argument("--no-optimize", action="store_true", help="disable the plan optimizer")
    serve.add_argument(
        "--print-paths",
        action="store_true",
        help="print every result path (default: print per-query counts only)",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the database over TCP instead of running a batch: JSONL "
        "protocol for sessions/streaming, HTTP/1.1 for GET /health, "
        "GET /stats and POST /query (PORT 0 picks an ephemeral port); runs "
        "until interrupted, then drains in-flight queries",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="with --listen: reject queries beyond this many concurrently "
        "executing ones with a typed 429-shaped error (default: unlimited "
        "at the server; the service submission queue still bounds admission)",
    )
    serve.add_argument(
        "--fetch-size",
        type=int,
        default=64,
        help="with --listen: rows per streaming page frame (default: 64)",
    )

    explain = subparsers.add_parser("explain", help="show the plan without executing")
    _add_graph_arguments(explain)
    explain.add_argument("text", help="the query text")
    explain.add_argument("--max-length", type=int, default=None, help="bound for WALK recursion")

    generate = subparsers.add_parser("generate", help="write a synthetic graph to JSON")
    generate.add_argument(
        "kind", choices=["figure1", "ldbc", "random", "cycle", "chain", "grid"],
        help="which generator to use",
    )
    generate.add_argument("--output", required=True, help="output JSON path")
    generate.add_argument("--persons", type=int, default=50, help="ldbc: number of persons")
    generate.add_argument("--messages", type=int, default=100, help="ldbc: number of messages")
    generate.add_argument("--nodes", type=int, default=50, help="random/cycle/chain: node count")
    generate.add_argument("--edges", type=int, default=100, help="random: edge count")
    generate.add_argument("--rows", type=int, default=5, help="grid: rows")
    generate.add_argument("--cols", type=int, default=5, help="grid: columns")
    generate.add_argument("--seed", type=int, default=42, help="random seed")

    replay = subparsers.add_parser(
        "replay", help="record, synthesize and differentially replay query traces"
    )
    replay_sub = replay.add_subparsers(dest="replay_command", required=True)

    replay_generate = replay_sub.add_parser(
        "generate",
        help="synthesize a deterministic LDBC-interactive-style trace",
    )
    replay_generate.add_argument("--output", required=True, help="trace JSONL path")
    replay_generate.add_argument(
        "--events", type=int, default=50, help="number of queries in the trace"
    )
    replay_generate.add_argument("--seed", type=int, default=7, help="workload seed")
    replay_generate.add_argument(
        "--persons", type=int, default=50, help="ldbc graph: number of persons"
    )
    replay_generate.add_argument(
        "--messages", type=int, default=100, help="ldbc graph: number of messages"
    )
    replay_generate.add_argument(
        "--graph-seed", type=int, default=42, help="ldbc graph seed"
    )
    replay_generate.add_argument(
        "--mean-gap",
        type=float,
        default=0.0,
        help="mean inter-arrival gap in seconds (exponential; 0 = back-to-back)",
    )

    replay_record = replay_sub.add_parser(
        "record",
        help="execute a query batch and record it (text, params, version, "
        "timestamps) into a replayable trace",
    )
    _add_graph_arguments(replay_record)
    replay_record.add_argument("--output", required=True, help="trace JSONL path")
    replay_record.add_argument(
        "--batch-file",
        default=None,
        help="file with one query per line ('#' comments; default: stdin)",
    )
    replay_record.add_argument(
        "--limit", type=int, default=None, help="per-query result limit"
    )
    replay_record.add_argument(
        "--max-length", type=int, default=None, help="bound for WALK recursion"
    )

    replay_run = replay_sub.add_parser(
        "run",
        help="replay a trace against two or more configurations and diff the results",
    )
    replay_run.add_argument("trace", help="trace JSONL path (from generate/record)")
    replay_run.add_argument(
        "--config",
        action="append",
        default=None,
        metavar="NAME=MODE:WORKERS",
        help="a configuration to replay under, repeatable (e.g. "
        "threads=threads:2, procs=processes:2); the first is the "
        "baseline every other config is diffed against "
        "(default: threads=threads:2 and serial=threads:0)",
    )
    replay_run.add_argument(
        "--graph",
        default=None,
        help="graph JSON file to replay against (default: rebuild the "
        "trace's recorded graph spec)",
    )
    replay_run.add_argument(
        "--json", default=None, help="also write the report as BENCH-style JSON here"
    )
    replay_run.add_argument(
        "--honor-pacing",
        action="store_true",
        help="sleep out the recorded inter-arrival gaps (open-loop replay)",
    )

    stats = subparsers.add_parser("stats", help="print graph statistics")
    _add_graph_arguments(stats)

    wal = subparsers.add_parser(
        "wal", help="inspect or compact a durable graph directory"
    )
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_inspect = wal_sub.add_parser(
        "inspect",
        help="print snapshot and write-ahead-log state without modifying anything",
    )
    wal_inspect.add_argument("path", help="durable graph directory")
    wal_compact = wal_sub.add_parser(
        "compact",
        help="recover the graph and fold the write-ahead log into the snapshot",
    )
    wal_compact.add_argument("path", help="durable graph directory")
    wal_compact.add_argument(
        "--fsync",
        choices=list(FSYNC_POLICIES),
        default="always",
        help="durability policy while compacting (default: always)",
    )

    return parser


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--graph", help="path to a graph JSON file (or CSV prefix)")
    group.add_argument(
        "--dataset",
        choices=["figure1", "ldbc"],
        default=None,
        help="built-in data set to use when no --graph is given (default: figure1)",
    )
    parser.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help="open the graph durably from this directory (snapshot + "
        "write-ahead log, created when absent); a brand-new directory is "
        "seeded from --graph/--dataset when one is given explicitly",
    )
    parser.add_argument(
        "--fsync",
        choices=list(FSYNC_POLICIES),
        default="always",
        help="durability policy for --durable: fsync per mutation, every "
        "batch, or never (default: always)",
    )


def _load_graph(args: argparse.Namespace) -> PropertyGraph:
    if getattr(args, "graph", None):
        path = FilePath(args.graph)
        if path.suffix == ".json":
            return load_json(path)
        return load_csv(path)
    if getattr(args, "dataset", None) == "ldbc":
        return ldbc_like_graph()
    return figure1_graph()


def _open_database(args: argparse.Namespace, **options) -> "Database":
    """Open the database a command should run against.

    Without ``--durable`` this is :func:`connect` over the loaded graph.
    With it, the durable directory is recovered (snapshot + WAL replay); a
    brand-new store is seeded from ``--graph``/``--dataset`` when the user
    named one explicitly, so ``repro query --durable dir --dataset ldbc ...``
    bootstraps a durable copy of the data set on first use.
    """
    durable = getattr(args, "durable", None)
    if not durable:
        return connect(_load_graph(args), **options)
    db = Database.open(durable, fsync=getattr(args, "fsync", "always"), **options)
    explicit_source = getattr(args, "graph", None) or getattr(args, "dataset", None)
    if db.graph.version == 0 and explicit_source:
        seed = _load_graph(args)
        for node in seed.nodes():
            db.graph.add_node(node.id, node.label, node.properties)
        for edge in seed.edges():
            db.graph.add_edge(edge.id, edge.source, edge.target, edge.label, edge.properties)
    return db


def _parse_param_value(raw: str):
    """Parse a ``--param`` value: int, float, true/false, else the raw string."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    return raw


def _parse_params(pairs: list[str] | None) -> dict | None:
    """Parse repeated ``--param name=value`` flags into a binding mapping."""
    if not pairs:
        return None
    params: dict = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise SystemExit(f"error: --param expects NAME=VALUE, got {pair!r}")
        params[name.lstrip("$")] = _parse_param_value(value)
    return params


def _budget_exceeded_note(exceeded: BudgetExceeded) -> None:
    print(
        f"# BUDGET EXCEEDED ({exceeded.reason}) in {exceeded.stopped_at or '?'}: "
        f"visited {exceeded.paths_visited} paths, reached depth "
        f"{exceeded.depth_reached} before the kill",
        file=sys.stderr,
    )


def _command_query(args: argparse.Namespace) -> int:
    db = _open_database(
        args,
        optimize=not args.no_optimize,
        default_max_length=args.max_length,
        executor=args.executor,
    )
    params = _parse_params(args.param)
    try:
        with db.session(
            timeout=args.timeout,
            max_visited=args.max_visited,
            max_length=args.max_length,
            limit=args.limit,
        ) as session:
            if args.format == "jsonl":
                # Stream one binding row per line straight off the cursor: under
                # the pipeline executor nothing is materialized beyond the rows
                # printed, so huge results flow in bounded memory.
                cursor = session.execute(args.text, params)
                try:
                    for row in cursor.bindings():
                        print(json.dumps(row.to_dict(), sort_keys=True))
                except BudgetExceeded as exceeded:
                    _budget_exceeded_note(exceeded)
                    return 2
                return 0
            try:
                cursor = session.execute(args.text, params)
                paths = cursor.fetchall()
            except BudgetExceeded as exceeded:
                _budget_exceeded_note(exceeded)
                return 2
            count = cursor.rows_returned
            print(
                f"# {count} paths  ({cursor.elapsed_seconds * 1e3:.2f} ms)"
                f"  [{cursor.executor} executor]"
            )
            if args.phases:
                timings = ", ".join(
                    f"{phase} {seconds * 1e3:.2f} ms"
                    for phase, seconds in cursor.phase_seconds.items()
                )
                print(f"# phases: {timings}")
            if cursor.applied_rules:
                print(f"# optimizer rewrites: {', '.join(cursor.applied_rules)}")
            for path in sorted(paths, key=lambda path: (path.len(), path.interleaved())):
                print(path)
            if cursor.truncated:
                if cursor.total_paths is not None:
                    print(f"# ... and {cursor.total_paths - count} more")
                else:
                    print(f"# ... stopped after {count} paths (limit pushed into the pipeline)")
        return 0
    finally:
        db.close()


def _read_batch(args: argparse.Namespace) -> list[str]:
    if args.batch_file:
        lines = FilePath(args.batch_file).read_text(encoding="utf-8").splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    queries = []
    for line in lines:
        text = line.split("#", 1)[0].strip()
        if text:
            queries.append(text)
    return queries


def _parse_listen(listen: str) -> tuple[str, int]:
    host, separator, port = listen.rpartition(":")
    if not separator or not host:
        raise SystemExit(f"error: --listen expects HOST:PORT, got {listen!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"error: --listen port must be an integer, got {port!r}") from None


def _command_listen(args: argparse.Namespace) -> int:
    from repro.server import ReproServer

    host, port = _parse_listen(args.listen)
    with _open_database(
        args,
        optimize=not args.no_optimize,
        default_max_length=args.max_length,
        executor=args.executor,
        plan_cache_size=args.plan_cache_size,
        workers=args.workers,
        execution_mode=args.execution_mode,
    ) as db:
        # Materialize the service now (with the serve-specific knobs) so the
        # first query over the wire does not pay pool construction.
        db.service(
            workers=args.workers,
            execution_mode=args.execution_mode,
            result_cache_size=args.result_cache_size,
            default_deadline=args.deadline,
            default_max_visited=args.max_visited,
        )
        server = ReproServer(
            db,
            host=host,
            port=port,
            fetch_size=args.fetch_size,
            max_inflight=args.max_inflight,
        )
        server.start()
        # The parseable contract line tests and scripts wait for.
        print(f"listening on {server.host}:{server.port}", flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("# draining ...", file=sys.stderr)
        finally:
            server.stop(drain=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _command_listen(args)
    queries = _read_batch(args)
    if not queries:
        print("error: no queries to serve", file=sys.stderr)
        return 1
    started = time.perf_counter()
    with _open_database(
        args,
        optimize=not args.no_optimize,
        default_max_length=args.max_length,
        executor=args.executor,
        plan_cache_size=args.plan_cache_size,
    ) as db:
        service = db.service(
            workers=args.workers,
            execution_mode=args.execution_mode,
            result_cache_size=args.result_cache_size,
            default_deadline=args.deadline,
            default_max_visited=args.max_visited,
        )
        outcomes = service.run_batch(queries, max_length=args.max_length, limit=args.limit)
        stats = service.statistics()
    elapsed = time.perf_counter() - started

    timed_out = 0
    failed = 0
    for outcome in outcomes:
        if outcome.timed_out:
            where = outcome.stopped_at or "queue"
            progress = (
                f" after {outcome.paths_visited} paths"
                if outcome.paths_visited
                else ""
            )
            print(
                f"# TIMEOUT  ({outcome.budget_reason or 'deadline'} in {where}"
                f"{progress}, queued {outcome.queued_seconds * 1e3:.1f} ms)  "
                f"{outcome.text}"
            )
            timed_out += 1
        elif outcome.error is not None:
            print(f"# ERROR    {outcome.text}: {outcome.error}")
            failed += 1
        else:
            flags = "".join(
                flag
                for flag, on in (
                    ("R", outcome.result_cache_hit),
                    ("P", outcome.plan_cache_hit),
                )
                if on
            )
            cache_note = f" cache:{flags}" if flags else ""
            print(
                f"# {len(outcome)} paths  ({outcome.elapsed_seconds * 1e3:.2f} ms)"
                f"  [v{outcome.version}, {outcome.executor}{cache_note}]  {outcome.text}"
            )
            if args.print_paths:
                for line in outcome.path_strings():
                    print(line)
    throughput = len(outcomes) / elapsed if elapsed > 0 else float("inf")
    succeeded = len(outcomes) - timed_out - failed
    print(
        f"# served {len(outcomes)} queries in {elapsed * 1e3:.1f} ms "
        f"({throughput:.1f} q/s) with {args.workers} workers "
        f"({args.execution_mode})"
    )
    print(
        f"# summary: {succeeded} executed, {timed_out} timed out "
        f"({stats.timed_out_at_dequeue} at dequeue / {stats.timed_out_in_flight} "
        f"in flight), {failed} failed; max queue wait "
        f"{stats.queued_seconds_max * 1e3:.1f} ms"
    )
    print(
        f"# result cache: {stats.result_cache['hits']} hits / "
        f"{stats.result_cache['misses']} misses / {stats.result_cache['evictions']} evictions"
        f"  plan cache: {stats.plan_cache['hits']} hits / "
        f"{stats.plan_cache['misses']} misses / {stats.plan_cache['evictions']} evictions"
    )
    # Exit codes: 0 — every query produced a result; 1 — partial failures;
    # 2 — the whole batch timed out or failed (nothing succeeded).
    if succeeded == 0:
        return 2
    return 1 if (timed_out or failed) else 0


def _command_explain(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    db = connect(graph, default_max_length=args.max_length)
    explanation = db.explain(args.text, max_length=args.max_length)
    print(explanation.render())
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.kind == "figure1":
        graph = figure1_graph()
    elif args.kind == "ldbc":
        graph = ldbc_like_graph(
            LDBCParameters(num_persons=args.persons, num_messages=args.messages, seed=args.seed)
        )
    elif args.kind == "random":
        graph = random_graph(args.nodes, args.edges, seed=args.seed)
    elif args.kind == "cycle":
        graph = cycle_graph(args.nodes)
    elif args.kind == "chain":
        graph = chain_graph(args.nodes)
    else:
        graph = grid_graph(args.rows, args.cols)
    save_json(graph, args.output)
    print(f"wrote {graph.num_nodes()} nodes / {graph.num_edges()} edges to {args.output}")
    return 0


def _parse_replay_config(spec: str) -> ReplayConfig:
    """Parse ``NAME=MODE:WORKERS`` into a :class:`ReplayConfig`."""
    form = f"NAME=MODE:WORKERS with MODE one of {', '.join(EXECUTION_MODES)}"
    name, separator, rest = spec.partition("=")
    mode, _, workers = rest.partition(":")
    if not name or not separator or mode not in EXECUTION_MODES or not workers.isdecimal():
        raise SystemExit(f"error: --config expects {form}, got {spec!r}")
    return ReplayConfig(name=name, execution_mode=mode, workers=int(workers))


def _command_replay(args: argparse.Namespace) -> int:
    if args.replay_command == "generate":
        trace = generate_ldbc_trace(
            num_events=args.events,
            seed=args.seed,
            parameters=LDBCParameters(
                num_persons=args.persons,
                num_messages=args.messages,
                seed=args.graph_seed,
            ),
            mean_gap_seconds=args.mean_gap,
        )
        trace.save(args.output)
        print(
            f"wrote {len(trace.events)} events (seed {args.seed}, "
            f"{args.persons}p/{args.messages}m ldbc graph) to {args.output}"
        )
        return 0

    if args.replay_command == "record":
        queries = _read_batch(args)
        if not queries:
            print("error: no queries to record", file=sys.stderr)
            return 1
        spec: dict = {}
        if not getattr(args, "graph", None) and getattr(args, "dataset", None) == "ldbc":
            defaults = LDBCParameters()
            spec = {
                "kind": "ldbc",
                "num_persons": defaults.num_persons,
                "num_messages": defaults.num_messages,
                "num_forums": defaults.num_forums,
                "avg_knows_degree": defaults.avg_knows_degree,
                "avg_likes_per_person": defaults.avg_likes_per_person,
                "knows_reciprocity": defaults.knows_reciprocity,
                "seed": defaults.seed,
            }
        recorder = TraceRecorder(FilePath(args.output).stem, graph_spec=spec)
        db = _open_database(args, default_max_length=args.max_length)
        try:
            with db.session(limit=args.limit, max_length=args.max_length) as session:
                recording = recorder.wrap(session)
                for text in queries:
                    cursor = recording.execute(text, limit=args.limit)
                    cursor.fetchall()
                    cursor.close()
        finally:
            db.close()
        recorder.trace.save(args.output)
        note = "" if spec else " (no graph spec recorded: pass --graph at run time)"
        print(f"recorded {len(recorder.trace.events)} events to {args.output}{note}")
        return 0

    # replay run
    trace = Trace.load(args.trace)
    configs = [
        _parse_replay_config(spec)
        for spec in (args.config or ["threads=threads:2", "serial=threads:0"])
    ]
    if len({config.name for config in configs}) != len(configs):
        raise SystemExit("error: --config names must be unique")
    if args.honor_pacing:
        configs = [replace(config, honor_pacing=True) for config in configs]
    if args.graph:
        path = FilePath(args.graph)
        graph = load_json(path) if path.suffix == ".json" else load_csv(path)
    else:
        graph = build_trace_graph(trace)
    report = run_replay(trace, configs, json_path=args.json, graph=graph)
    for entry in report["entries"]:
        print(
            f"# {entry['config']:12s} {entry['execution_mode']}:{entry['workers']}"
            f"  {entry['throughput_qps']:8.1f} q/s"
            f"  p50 {entry['latency_p50_ms']:7.2f} ms"
            f"  p95 {entry['latency_p95_ms']:7.2f} ms"
            f"  p99 {entry['latency_p99_ms']:7.2f} ms"
            f"  failures {entry['failures']}"
        )
    total_mismatches = 0
    for name, mismatches in report["diffs"].items():
        for mismatch in mismatches:
            total_mismatches += 1
            print(
                f"# DIFF [{report['baseline']} vs {name}] event {mismatch['index']}: "
                f"{mismatch['text']}"
            )
    if total_mismatches:
        print(
            f"# RESULT MISMATCH: {total_mismatches} event(s) diverged from "
            f"baseline {report['baseline']!r}",
            file=sys.stderr,
        )
        return 2
    print(
        f"# replayed {len(trace.events)} events under {len(configs)} configuration(s): "
        "results byte-identical"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    stats = compute_statistics(graph)
    print(f"graph: {graph.name}")
    print(f"nodes: {stats.num_nodes}")
    print(f"edges: {stats.num_edges}")
    print(f"node labels: {dict(sorted(stats.node_label_counts.items()))}")
    print(f"edge labels: {dict(sorted(stats.edge_label_counts.items()))}")
    print(f"max out-degree: {stats.max_out_degree}")
    print(f"max in-degree: {stats.max_in_degree}")
    print(f"avg out-degree: {stats.avg_out_degree:.2f}")
    print(f"has directed cycle: {stats.has_cycle}")
    return 0


def _command_wal(args: argparse.Namespace) -> int:
    directory = FilePath(args.path)
    if args.wal_command == "inspect":
        snapshot_path = directory / DurableStore.SNAPSHOT_NAME
        wal_path = directory / DurableStore.WAL_NAME
        print(f"directory: {directory}")
        if snapshot_path.exists():
            graph = load_json(snapshot_path)
            print(
                f"snapshot: version {graph.version}, "
                f"{graph.num_nodes()} nodes / {graph.num_edges()} edges"
            )
            recoverable = graph.version
        else:
            print("snapshot: absent (fresh directory)")
            recoverable = 0
        if wal_path.exists():
            scan = read_wal(wal_path)
            versions = scan.versions
            span = f", versions {versions[0]}..{versions[1]}" if versions else ""
            print(
                f"wal: {len(scan.records)} records{span}, "
                f"{scan.valid_bytes} valid bytes, torn tail: "
                f"{'yes (dropped on recovery)' if scan.torn_tail else 'no'}"
            )
            ops: dict[str, int] = {}
            for op in scan.records:
                ops[op["op"]] = ops.get(op["op"], 0) + 1
            if ops:
                print("ops: " + "  ".join(f"{name}={count}" for name, count in sorted(ops.items())))
                recoverable = max(recoverable, max(op["v"] for op in scan.records))
        else:
            print("wal: absent")
        print(f"recoverable version: {recoverable}")
        return 0
    # compact: recover, fold the log into the snapshot, report.
    with DurableStore(directory, fsync=args.fsync) as store:
        replayed = store.replayed_records
        version = store.rotate()
    print(
        f"compacted {directory}: replayed {replayed} records, "
        f"snapshot now at version {version}, wal empty"
    )
    return 0


_COMMANDS = {
    "query": _command_query,
    "serve": _command_serve,
    "replay": _command_replay,
    "explain": _command_explain,
    "generate": _command_generate,
    "stats": _command_stats,
    "wal": _command_wal,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PathAlgebraError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # A downstream consumer (head, jq) closed the pipe mid-stream —
        # normal for --format jsonl.  Point stdout at devnull so the
        # interpreter's shutdown flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
