"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_json, save_json
from repro.datasets.figure1 import figure1_graph


@pytest.fixture
def figure1_file(tmp_path) -> str:
    path = tmp_path / "figure1.json"
    save_json(figure1_graph(), path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_arguments(self) -> None:
        args = build_parser().parse_args(
            ["query", "--dataset", "figure1", "--limit", "3", "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"]
        )
        assert args.command == "query"
        assert args.limit == 3


class TestServeCommand:
    BATCH = (
        "# a comment line\n"
        "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)\n"
        "\n"
        "MATCH ALL TRAIL p = (?x)-[Likes]->(?y)\n"
        "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)  # repeated: served from the result cache\n"
    )

    @pytest.fixture
    def batch_file(self, tmp_path) -> str:
        path = tmp_path / "batch.gql"
        path.write_text(self.BATCH, encoding="utf-8")
        return str(path)

    def test_serve_batch_file(self, batch_file, capsys) -> None:
        # One worker makes the cache accounting deterministic: the repeated
        # query is always dequeued after the first instance completed, so it
        # is served from the result cache (with >1 workers the duplicate may
        # legitimately race the in-flight original and compute too).
        code = main(["serve", "--batch-file", batch_file, "--workers", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("# 4 paths") == 3
        assert "served 3 queries" in captured.out
        assert "result cache: 1 hits" in captured.out

    def test_serve_concurrent_workers(self, batch_file, capsys) -> None:
        code = main(["serve", "--batch-file", batch_file, "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("# 4 paths") == 3
        assert "with 2 workers" in captured.out

    def test_serve_inline_workers_and_paths(self, batch_file, capsys) -> None:
        code = main(["serve", "--batch-file", batch_file, "--workers", "0", "--print-paths"])
        captured = capsys.readouterr()
        assert code == 0
        assert "(n1, e1, n2)" in captured.out
        assert "with 0 workers" in captured.out

    def test_serve_reads_stdin(self, capsys, monkeypatch) -> None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.BATCH))
        code = main(["serve", "--workers", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "served 3 queries" in captured.out

    def test_serve_bad_query_returns_nonzero(self, tmp_path, capsys) -> None:
        path = tmp_path / "bad.gql"
        path.write_text("THIS IS NOT GQL\nMATCH ALL TRAIL p = (?x)-[Knows]->(?y)\n")
        code = main(["serve", "--batch-file", str(path), "--workers", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "# ERROR" in captured.out
        assert "# 4 paths" in captured.out  # the good query was still served

    def test_serve_empty_batch_is_an_error(self, tmp_path, capsys) -> None:
        path = tmp_path / "empty.gql"
        path.write_text("# nothing but comments\n")
        code = main(["serve", "--batch-file", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no queries" in captured.err

    def test_serve_deadline_flag_parses(self, batch_file, capsys) -> None:
        code = main(["serve", "--batch-file", batch_file, "--deadline", "30"])
        assert code == 0

    def test_serve_rejects_race_execution_mode(self, batch_file, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--batch-file", batch_file, "--execution-mode", "race"])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "invalid choice: 'race'" in err
        assert "'threads', 'processes'" in err


class TestQueryCommand:
    def test_query_builtin_dataset(self, capsys) -> None:
        code = main(["query", "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# 4 paths" in captured.out
        assert "(n1, e1, n2)" in captured.out

    def test_query_graph_file(self, figure1_file, capsys) -> None:
        code = main(
            ["query", "--graph", figure1_file, "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows]->+(?y)"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# 9 paths" in captured.out

    def test_query_limit(self, capsys) -> None:
        text = "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)"
        # auto streams the cursor, so the limit cuts the pipeline short...
        code = main(["query", "--limit", "2", text])
        captured = capsys.readouterr()
        assert code == 0
        assert "[pipeline executor]" in captured.out
        assert "stopped after 2 paths" in captured.out
        # ...while the materializing evaluator counts what it cut.
        code = main(["query", "--executor", "materialize", "--limit", "2", text])
        captured = capsys.readouterr()
        assert code == 0
        assert "# ... and 10 more" in captured.out

    def test_query_reports_optimizer_rewrites(self, capsys) -> None:
        code = main(["query", "MATCH ANY SHORTEST WALK p = (?x)-[:Knows]->+(?y)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "walk-to-shortest" in captured.out

    def test_query_executor_flag(self, capsys) -> None:
        for executor in ("auto", "materialize", "pipeline"):
            code = main(
                ["query", "--executor", executor, "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"]
            )
            captured = capsys.readouterr()
            assert code == 0
            assert "# 4 paths" in captured.out
            assert "executor]" in captured.out

    def test_query_limit_pushdown_into_pipeline(self, capsys) -> None:
        code = main(
            [
                "query",
                "--executor",
                "pipeline",
                "--limit",
                "2",
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# 2 paths" in captured.out
        assert "stopped after 2 paths (limit pushed into the pipeline)" in captured.out

    def test_query_phases_flag(self, capsys) -> None:
        code = main(["query", "--phases", "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# phases: parse" in captured.out

    def test_query_syntax_error_returns_nonzero(self, capsys) -> None:
        code = main(["query", "MATCH OOPS"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    def test_missing_graph_file(self, tmp_path, capsys) -> None:
        code = main(
            ["query", "--graph", str(tmp_path / "nope.json"), "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"]
        )
        assert code == 1


class TestQueryParams:
    PARAM_QUERY = "MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[:Knows]->+(?y)"

    def test_param_binds_placeholder(self, capsys) -> None:
        code = main(["query", "--param", "name=Moe", self.PARAM_QUERY])
        captured = capsys.readouterr()
        assert code == 0
        assert "# 3 paths" in captured.out
        assert "(n1, e1, n2)" in captured.out

    def test_param_changes_change_results(self, capsys) -> None:
        main(["query", "--param", "name=Moe", self.PARAM_QUERY])
        moe = capsys.readouterr().out
        main(["query", "--param", "name=Lisa", self.PARAM_QUERY])
        lisa = capsys.readouterr().out
        assert moe != lisa

    def test_param_is_repeatable(self, capsys) -> None:
        code = main(
            [
                "query",
                "--param", "a=Moe",
                "--param", "b=Lisa",
                "MATCH ALL TRAIL p = (?x {name: $a})-[Knows]->(?y {name: $b})",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# 1 paths" in captured.out

    def test_param_values_parse_types(self, capsys) -> None:
        # Integer-valued property comparison: age parses as int, not "42".
        code = main(
            [
                "query",
                "--param", "min=2",
                "MATCH ALL TRAIL p = (?x)-[Knows+]->(?y) WHERE len() >= 2 AND x.name = $min",
            ]
        )
        assert code == 0  # parses and runs (no match expected, name is a string)
        assert "# 0 paths" in capsys.readouterr().out

    def test_missing_param_is_an_error(self, capsys) -> None:
        code = main(["query", self.PARAM_QUERY])
        captured = capsys.readouterr()
        assert code == 1
        assert "missing binding" in captured.err

    def test_malformed_param_flag_exits(self, capsys) -> None:
        with pytest.raises(SystemExit):
            main(["query", "--param", "no-equals-sign", self.PARAM_QUERY])

    def test_dollar_prefix_in_flag_is_tolerated(self, capsys) -> None:
        code = main(["query", "--param", "$name=Moe", self.PARAM_QUERY])
        assert code == 0
        assert "# 3 paths" in capsys.readouterr().out


class TestQueryJsonl:
    QUERY = "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)"

    def test_jsonl_streams_one_row_per_line(self, capsys) -> None:
        code = main(["query", "--format", "jsonl", self.QUERY])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if line]
        assert len(lines) == 4
        rows = [json.loads(line) for line in lines]
        assert all(row["length"] == 1 and row["labels"] == ["Knows"] for row in rows)
        assert all(set(row) == {"source", "target", "length", "nodes", "edges", "labels"} for row in rows)

    def test_jsonl_with_params(self, capsys) -> None:
        code = main(
            [
                "query", "--format", "jsonl", "--param", "name=Moe",
                "MATCH ANY SHORTEST TRAIL p = (?x {name: $name})-[:Knows]->+(?y)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(rows) == 3
        assert all(row["source"] == "n1" for row in rows)

    def test_jsonl_respects_limit(self, capsys) -> None:
        code = main(["query", "--format", "jsonl", "--limit", "2", self.QUERY])
        captured = capsys.readouterr()
        assert code == 0
        assert len([line for line in captured.out.splitlines() if line]) == 2

    def test_jsonl_budget_kill_mid_stream(self, capsys) -> None:
        code = main(
            [
                "query", "--format", "jsonl", "--executor", "pipeline",
                "--max-visited", "10", "--max-length", "6",
                "MATCH ALL WALK p = (?x)-[Knows]->*(?y)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "BUDGET EXCEEDED" in captured.err


class TestExplainCommand:
    def test_explain_prints_plan(self, capsys) -> None:
        code = main(["explain", "MATCH ANY SHORTEST WALK p = (?x)-[:Knows]->+(?y)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Logical plan:" in captured.out
        assert "walk-to-shortest" in captured.out
        assert "Projection" in captured.out


class TestGenerateCommand:
    def test_generate_figure1(self, tmp_path, capsys) -> None:
        output = tmp_path / "out.json"
        code = main(["generate", "figure1", "--output", str(output)])
        assert code == 0
        graph = load_json(output)
        assert graph.num_nodes() == 7
        assert graph.num_edges() == 11

    def test_generate_ldbc(self, tmp_path) -> None:
        output = tmp_path / "ldbc.json"
        code = main(
            ["generate", "ldbc", "--persons", "10", "--messages", "15", "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        person_nodes = [node for node in payload["nodes"] if node["label"] == "Person"]
        assert len(person_nodes) == 10

    def test_generate_random_cycle_chain_grid(self, tmp_path) -> None:
        for kind, extra in (
            ("random", ["--nodes", "12", "--edges", "20"]),
            ("cycle", ["--nodes", "6"]),
            ("chain", ["--nodes", "6"]),
            ("grid", ["--rows", "3", "--cols", "3"]),
        ):
            output = tmp_path / f"{kind}.json"
            code = main(["generate", kind, "--output", str(output), *extra])
            assert code == 0
            assert load_json(output).num_nodes() > 0

    def test_generated_graph_queryable_via_cli(self, tmp_path, capsys) -> None:
        output = tmp_path / "chain.json"
        main(["generate", "chain", "--nodes", "5", "--output", str(output)])
        capsys.readouterr()
        code = main(["query", "--graph", str(output), "MATCH ALL WALK p = (?x)-[Knows+]->(?y)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# 10 paths" in captured.out


class TestStatsCommand:
    def test_stats_builtin(self, capsys) -> None:
        code = main(["stats", "--dataset", "figure1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "nodes: 7" in captured.out
        assert "edges: 11" in captured.out
        assert "has directed cycle: True" in captured.out

    def test_stats_from_file(self, figure1_file, capsys) -> None:
        code = main(["stats", "--graph", figure1_file])
        captured = capsys.readouterr()
        assert code == 0
        assert "'Knows': 4" in captured.out


class TestBudgetFlags:
    """CLI surface of the budget subsystem (ISSUE 4)."""

    HEAVY = "MATCH ALL WALK p = (?x)-[Knows+]->(?y)"

    def test_query_max_visited_kill_reports_progress(self, capsys) -> None:
        code = main(
            [
                "query",
                "--dataset",
                "ldbc",
                "--max-length",
                "5",
                "--max-visited",
                "1000",
                self.HEAVY,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "BUDGET EXCEEDED (max_visited)" in captured.err
        assert "visited" in captured.err

    def test_query_generous_timeout_succeeds(self, capsys) -> None:
        code = main(
            [
                "query",
                "--dataset",
                "figure1",
                "--timeout",
                "60",
                "MATCH ALL TRAIL p = (?x)-[Knows]->(?y)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "# 4 paths" in captured.out

    def test_serve_summary_and_partial_failure_exit_code(self, tmp_path, capsys) -> None:
        path = tmp_path / "batch.gql"
        path.write_text(
            f"{self.HEAVY}\nMATCH ALL TRAIL p = (?x)-[Knows]->(?y)\n", encoding="utf-8"
        )
        code = main(
            [
                "serve",
                "--dataset",
                "ldbc",
                "--batch-file",
                str(path),
                "--workers",
                "1",
                "--max-length",
                "5",
                "--max-visited",
                "1000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1  # one killed, one served
        assert "# summary: 1 executed, 1 timed out" in captured.out
        assert "in flight" in captured.out

    def test_serve_returns_2_when_nothing_succeeds(self, tmp_path, capsys) -> None:
        path = tmp_path / "batch.gql"
        path.write_text(f"{self.HEAVY}\n", encoding="utf-8")
        code = main(
            [
                "serve",
                "--dataset",
                "ldbc",
                "--batch-file",
                str(path),
                "--workers",
                "1",
                "--max-length",
                "5",
                "--max-visited",
                "1000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "# summary: 0 executed, 1 timed out" in captured.out
        assert "# TIMEOUT  (max_visited in" in captured.out
