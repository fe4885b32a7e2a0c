"""Plain-text table rendering for the benchmark harness.

Benchmarks regenerate the paper's tables; to keep the output comparable with
the paper, results are printed as fixed-width text tables.  The helpers here
have no third-party dependencies so they can also be used from the examples.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Iterable, Mapping, Sequence

__all__ = [
    "format_table",
    "format_check",
    "print_table",
    "host_metadata",
    "write_bench_json",
]


def host_metadata() -> dict:
    """Describe the machine a report was measured on.

    Throughput and latency numbers — especially those of process-backed
    configurations — are meaningless without knowing the core count and
    platform behind them, so every :func:`write_bench_json` header carries
    this block.
    """
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` as a fixed-width text table with ``headers``."""
    materialized = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialized:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_check(value: bool) -> str:
    """Render a boolean as the check/cross marks used in the paper's Table 3."""
    return "✓" if value else "✗"


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> None:
    """Print a table built by :func:`format_table` (convenience for benchmarks)."""
    print()
    print(format_table(headers, rows, title))


def write_bench_json(
    path: str,
    benchmark: str,
    entries: Iterable[Mapping[str, object]],
    metadata: Mapping[str, object] | None = None,
) -> dict:
    """Write a machine-readable report (``repro replay run --json``).

    ``entries`` is a sequence of flat dictionaries, one per measured
    configuration (name, timings, sizes, derived ratios).  The file is
    deterministic (sorted keys, trailing newline) so two reports diff
    cleanly.  A ``metadata["host"]`` block (:func:`host_metadata`) is added
    automatically unless the caller supplied its own.  Returns the payload
    that was written.
    """
    payload: dict = {"benchmark": benchmark, "entries": [dict(entry) for entry in entries]}
    payload["metadata"] = dict(metadata) if metadata else {}
    payload["metadata"].setdefault("host", host_metadata())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _stringify(cell: object) -> str:
    if isinstance(cell, bool):
        return format_check(cell)
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
