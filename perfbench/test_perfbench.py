"""Tests of the benchmark itself: span arithmetic, the tracer, the output
checks, and a smoke run of every workload in both modes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(i, start, end, parent=None, name="x"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 5.0, parent=0),
        span(2, 3.0, 6.0, parent=0),  # overlaps span 1, as pool threads do
        span(3, 8.0, 9.0, parent=0),
        span(4, 1.5, 2.0, parent=1),
    ]
    self_s = tracer.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert self_s[1] == pytest.approx(4.0 - 0.5)
    assert self_s[2] == pytest.approx(3.0)
    assert tracer.nesting_violations(spans) == 0
    assert tracer.nesting_violations(spans + [span(5, 9.5, 10.5, parent=0)]) == 1


def test_pool_thread_spans_nest_inside_the_span_that_waits_for_them():
    t = tracer.Tracer("test")
    leaf = t.span("leaf", lambda i: time.sleep(0.002) or i)

    def experiment():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(6)))

    assert t.span("experiment", experiment)() == list(range(6))
    (outer,) = [sp for sp in t.spans if sp["name"] == "experiment"]
    leaves = [sp for sp in t.spans if sp["name"] == "leaf"]
    assert len(leaves) == 6
    assert all(sp["parent"] == outer["id"] for sp in leaves)
    assert tracer.nesting_violations(t.spans) == 0


def test_missing_public_names_are_absent_not_fatal():
    t = tracer.Tracer("test")
    t._wrap("tml.dyck.no_such_function", t.span)
    t._wrap("tml.ensemble.MatrixSample.no_such_property", t.span)
    assert t.absent == {"dyck.no_such_function", "ensemble.MatrixSample.no_such_property"}
    it = run.Iteration("traced", absent={"dyck.sample_dyck"})
    values = run.layer_values(it)
    assert values["dyck.sample_dyck_s"] is None
    assert values["dyck.sample_dyck_calls"] is None
    assert values["paths.patterns_s"] == 0


def output(rows, stdout=""):
    return run.Output(stdout, rows)


def test_output_checks_flag_wrong_tables():
    (edge,) = run.workload_calls("edge-large", 0, smoke=True)
    rows = [{"trial": "0", "lambda_max": "3.0", "threshold": "2.5", "exceeded": "0"},
            {"trial": "1", "lambda_max": "2.0", "threshold": "2.5", "exceeded": "0"}]
    assert run.check_edge(edge, output(rows), None)
    exact, gluing = run.workload_calls("exact-walks", 0, smoke=True)
    row = {"value": "3.0", "even_part": "1.0", "odd_part": "1.5"}
    assert run.check_trace_exact(exact, output([row]), None)
    hist = [{"count": "64"}]
    assert not run.check_gluing(gluing, output(hist, "checked 64 walks, 0 violations"), None)
    assert run.check_gluing(gluing, output(hist, "checked 64 walks, 1 violations"), None)


def test_bell_numbers():
    assert [run.bell(m) for m in range(1, 7)] == [1, 2, 5, 15, 52, 203]
    assert run.bell(10) == 115975


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--trace", str(trace), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.workload_calls(workload, 0, smoke=True))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-small", "--seconds", "1",
         "--trace", "0", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
