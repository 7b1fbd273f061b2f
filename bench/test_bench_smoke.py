"""Tier-1 smoke test of the benchmark (collected by the plain pytest run).

The benchmark is frozen code that later changes are judged by, so a change
that breaks an entry point it depends on must fail here, before it reaches
the measurement pipeline.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import spans
from metrics import (
    END_TO_END,
    END_TO_END_NAMES,
    PER_LAYER,
    PER_LAYER_NAMES,
    WORKLOAD_NAMES,
)
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_contract_matches_what_the_benchmark_emits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert CONTRACT["paths"] == ["bench"]
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    # The contract gates a subset (README: why four of the seven).
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in CONTRACT["workloads"])
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [*WORKLOADS, *END_TO_END_NAMES, *PER_LAYER_NAMES]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in END_TO_END_NAMES
    assert all(0 <= m.bound <= 0.25 for m in END_TO_END)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


def test_quick_report_emits_every_declared_metric(tmp_path):
    out = tmp_path / "quick.json"
    done = _run("--quick", "--workloads", "soda-small,checker-stream", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(out.read_text())
    assert results["quick"] is True
    assert list(results["workloads"]) == ["soda-small", "checker-stream"]
    for name, row in results["workloads"].items():
        assert row["correct"] and row["failed"] == 0, (name, row["problems"])
        assert list(row["end_to_end"]) == END_TO_END_NAMES
        assert all(row["end_to_end"][m] > 0 for m in END_TO_END_NAMES)
        assert list(row["per_layer"]) == PER_LAYER_NAMES
        assert row["per_layer"]["trace.coverage"] == 1.0
    for metric in (*END_TO_END_NAMES, *PER_LAYER_NAMES):
        assert metric in done.stdout
    small = results["workloads"]["soda-small"]["per_layer"]
    assert small["storage_cost_peak"] == 1.5
    assert small["core.storage_vs_theory"] == 1.0
    assert results["workloads"]["checker-stream"]["per_layer"]["consistency.probes_flagged"] == 2
    # A quick file is never comparable.
    assert compare.main([str(out), str(out)]) == 2


@pytest.mark.parametrize("trace, declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_driver_form_prints_one_result_line(trace, declared):
    done = _run("--workload", "checker-stream", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--quick")  # fmt: skip
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))


def test_self_time_is_duration_minus_children():
    ticks = iter([0, 1, 2, 4, 5, 9, 10, 20])
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.enter("run")  # 0
    recorder.enter("deliver")  # 1
    recorder.enter("send")  # 2
    recorder.exit()  # 4: send 2
    recorder.enter("send")  # 5
    recorder.exit()  # 9: send 4
    recorder.exit()  # 10: deliver 9, self 9 - 6
    recorder.exit()  # 20: run 20, self 20 - 9
    assert recorder.summary() == {
        "deliver": {"count": 1, "inclusive_s": 9.0, "self_s": 3.0},
        "run": {"count": 1, "inclusive_s": 20.0, "self_s": 11.0},
        "send": {"count": 2, "inclusive_s": 6.0, "self_s": 6.0},
    }
    # Self times partition the root's duration.
    assert sum(row["self_s"] for row in recorder.summary().values()) == 20.0
    assert recorder.coverage() == 1.0  # no simulation ran: nothing to miss
    assert spans.shares(recorder, 40.0)["sim.loop_self_share"] == 0.0  # names are the program's, not these


def test_compare_applies_each_bound_in_the_metrics_direction():
    def results(ops_per_cpu_s: float, read_p99: float, failed: int = 0) -> dict:
        return {
            "seed": 0,
            "quick": False,
            "workloads": {
                "soda-small": {
                    "correct": True,
                    "attempted": 100,
                    "failed": failed,
                    "end_to_end": {"ops_per_cpu_s": ops_per_cpu_s, "setup_s": 0.4},
                    "per_layer": {"sim_read_p99_ms": read_p99, "sim.events_per_op": 110.0},
                }
            },
        }

    base = results(1000.0, 3.0)
    assert compare.compare(base, results(900.0, 3.0))[1] == 0  # -10% is within the bound
    assert compare.compare(base, results(700.0, 3.0))[1] == 1  # -30% is not
    assert compare.compare(base, results(2000.0, 2.5))[1] == 0  # better is never a breach
    assert compare.compare(base, results(1000.0, 3.0001))[1] == 1  # bound 0: no worse at all
    assert compare.compare(base, results(1000.0, 3.0, failed=1))[1] == 1
    moved = results(1000.0, 3.0)
    moved["workloads"]["soda-small"]["per_layer"]["sim.events_per_op"] = 90.0
    rows, breaches = compare.compare(base, moved)
    assert breaches == 0 and any("sim.events_per_op" in row and "info" in row for row in rows)
