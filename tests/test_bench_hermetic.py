"""Measuring is not verifying: a benchmarks run leaves the tracked BENCH_*.json alone.

Five sites write ``BENCH_*.json`` (the session fixture in
``benchmarks/conftest.py`` and four benchmark modules).  All resolve their
target through conftest's ``bench_json_path``, which picks the git-ignored
``.benchmarks/`` unless ``BENCH_WRITE=1``.  This test runs those five sites
in a child pytest (quick sizes) and compares the tracked files byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path as FilePath

REPO_ROOT = FilePath(__file__).resolve().parent.parent
REPORTS = ("BENCH_closure.json", "BENCH_engine.json", "BENCH_replay.json", "BENCH_service.json")
WRITERS = (
    "test_bench_executor_pipeline.py",
    "test_bench_prepared_params.py",
    "test_bench_replay.py",
    "test_bench_service_throughput.py",
)


def test_a_benchmarks_run_leaves_the_tracked_reports_byte_identical() -> None:
    tracked = {name: (REPO_ROOT / name).read_bytes() for name in REPORTS}
    scratch = REPO_ROOT / ".benchmarks"
    for name in REPORTS:
        (scratch / name).unlink(missing_ok=True)

    environment = {key: value for key, value in os.environ.items() if key != "BENCH_WRITE"}
    environment["BENCH_QUICK"] = "1"
    # The child's verdict is not this test's business (its timing assertions
    # are the benchmarks' own); that every site wrote, and where, is.
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [str(REPO_ROOT / "benchmarks" / module) for module in WRITERS],
        cwd=REPO_ROOT,
        env=environment,
        capture_output=True,
        timeout=600,
    )

    for name in REPORTS:
        assert (scratch / name).is_file(), f"{name} was not written under .benchmarks/"
        assert (REPO_ROOT / name).read_bytes() == tracked[name], f"tracked {name} was rewritten"
