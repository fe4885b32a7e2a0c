"""Benchmark-harness utilities: workloads and result formatting."""

from repro.bench.reporting import format_check, format_table, print_table, write_bench_json
from repro.bench.workloads import Workload, selectivity_workloads

__all__ = [
    "Workload",
    "selectivity_workloads",
    "format_table",
    "format_check",
    "print_table",
    "write_bench_json",
]
