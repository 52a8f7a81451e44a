"""Tests of the benchmark harness itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import ROOT_SPAN, WRAPPED, TraceError, Tracer, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    proc = _run(REPO, "--workload", "desk-proposed", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        assert result["metrics"]["power.probe_module_power.calls"]["value"] > 0
    assert "checks: " in proc.stdout and "machine {" in proc.stdout


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "idx-baseline", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _fake_engine(**drop):
    names = {name: (lambda *a, **k: None) for name in (ROOT_SPAN, *WRAPPED) if name not in drop}
    return types.SimpleNamespace(__name__="fake_evolution", **names)


def test_tracer_refuses_a_missing_name():
    tracer = Tracer(_fake_engine(train=None), 1.0, lambda net: 0, ArithmeticError)
    with pytest.raises(TraceError, match="train"):
        tracer.install()


def test_tracer_refuses_an_idle_span():
    engine = _fake_engine()
    tracer = Tracer(engine, 1.0, lambda net: 0, ArithmeticError)
    tracer.install()
    engine.run_experiment()
    tracer.uninstall()
    with pytest.raises(TraceError, match="no calls"):
        tracer.check(0, expects_probes=False)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)
