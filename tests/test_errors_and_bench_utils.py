"""Tests for the exception hierarchy and the benchmark utilities (workloads, reporting)."""

from __future__ import annotations

import pytest

from repro import errors
from repro.bench.reporting import format_check, format_table, print_table
from repro.bench.workloads import Workload, selectivity_workloads
from repro.datasets.figure1 import figure1_graph


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self) -> None:
        error_classes = [
            errors.GraphError,
            errors.DuplicateObjectError,
            errors.UnknownObjectError,
            errors.InvalidEdgeError,
            errors.PathError,
            errors.InvalidPathError,
            errors.PathConcatenationError,
            errors.AlgebraError,
            errors.ConditionError,
            errors.EvaluationError,
            errors.NonTerminatingQueryError,
            errors.SolutionSpaceError,
            errors.ParseError,
            errors.RegexSyntaxError,
            errors.GQLSyntaxError,
            errors.PlanningError,
            errors.OptimizerError,
        ]
        for error_class in error_classes:
            assert issubclass(error_class, errors.PathAlgebraError)

    def test_catching_the_base_class_catches_domain_errors(self) -> None:
        from repro.rpq.parser import parse_regex

        with pytest.raises(errors.PathAlgebraError):
            parse_regex("a|")

    def test_regex_error_records_position(self) -> None:
        error = errors.RegexSyntaxError("boom", position=7)
        assert error.position == 7
        assert "position 7" in str(error)

    def test_gql_error_records_location(self) -> None:
        error = errors.GQLSyntaxError("boom", line=2, column=5)
        assert error.line == 2
        assert error.column == 5
        assert "line 2" in str(error)

    def test_non_terminating_is_an_evaluation_error(self) -> None:
        assert issubclass(errors.NonTerminatingQueryError, errors.EvaluationError)


class TestReporting:
    def test_format_table_alignment(self) -> None:
        text = format_table(["name", "count"], [("alpha", 1), ("b", 20)], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].startswith("name ")
        assert "alpha" in lines[3]
        # All data rows have the same width.
        assert len(lines[3]) == len(lines[4])

    def test_format_table_booleans_and_floats(self) -> None:
        text = format_table(["x", "ok", "value"], [("row", True, 1.23456), ("r2", False, 2.0)])
        assert "✓" in text
        assert "✗" in text
        assert "1.235" in text

    def test_format_check(self) -> None:
        assert format_check(True) == "✓"
        assert format_check(False) == "✗"

    def test_print_table(self, capsys) -> None:
        print_table(["a"], [(1,)], title="t")
        captured = capsys.readouterr()
        assert "t" in captured.out
        assert "1" in captured.out


class TestWorkloads:
    def test_workload_graphs_are_rebuilt_fresh(self) -> None:
        workload = selectivity_workloads(num_nodes=30)[0]
        first = workload.build_graph()
        second = workload.build_graph()
        assert first is not second
        assert first.num_nodes() == second.num_nodes() == 30

    def test_selectivity_workloads_have_distinct_label_mixes(self) -> None:
        workloads = selectivity_workloads(num_nodes=30)
        label_counts = {len(w.parameters["labels"]) for w in workloads}
        assert len(label_counts) == len(workloads)

    def test_workload_dataclass_fields(self) -> None:
        workload = Workload(name="x", graph_factory=figure1_graph, regex="Knows")
        assert workload.parameters == {}
        assert workload.description == ""
        assert workload.build_graph().num_nodes() == 7
