"""Smoke test of e2ebench: tiny sizes, one pass, traced and untraced, under ten seconds.

Collected by the tier-1 run (``python -m pytest`` from the repository root).
It proves the benchmark still *runs* against the current ``src/`` — every
workload, every metric BENCHMARK.json names, no failed op — and that running
it touches no tracked file.  It says nothing about speed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _tracked_changes() -> str | None:
    """``git status`` of the checkout, or ``None`` where there is no git to ask."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout if done.returncode == 0 else None


def test_smoke_emits_every_metric_for_every_workload(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = _tracked_changes()
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--traced", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["claim"] is None
    records = {(record["workload"], record["trace"]): record for record in report["records"]}
    for workload in (entry["name"] for entry in spec["workloads"]):
        for traced, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record = records[(workload, traced)]
            assert record["correct"], (workload, traced, record["failures"])
            assert record["failed_ratio"] == 0
            assert record["attempted"] >= 1
            for metric in wanted:
                got = record["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (workload, metric["name"])
                assert math.isfinite(got["value"]), (workload, metric["name"])
            if not traced:
                # An end-to-end metric that reads 0 measured nothing.
                assert all(record["metrics"][m["name"]]["value"] > 0 for m in wanted), workload
    assert _tracked_changes() == before, "running the benchmark changed the working tree"
