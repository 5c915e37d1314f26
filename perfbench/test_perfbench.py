"""Tests of the benchmark itself: the tracer's accounting, and every
workload end to end on the ``tiny`` definitions (``--smoke``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_leaf()

    wrapped_leaf = tracing._span_wrapper(tracer, leaf, "leaf")
    wrapped_outer = tracing._span_wrapper(tracer, outer, "outer")
    wrapped_outer()  # outside any root: not recorded
    assert not tracer.events
    with tracer.root("verify"):
        wrapped_outer()
    self_outer = tracer.per_root("outer", ["verify"])
    self_leaf = tracer.per_root("leaf", ["verify"])
    assert 0.009 < self_outer < 0.019
    assert 0.019 < self_leaf < 0.03
    assert tracer.per_root("leaf", ["verify"], "calls") == 1
    assert tracer.attributed_share("verify") > 0.9


def test_opaque_span_hides_subtree():
    tracer = tracing.Tracer()
    inner = tracing._span_wrapper(tracer, lambda: None, "inner")
    fit = tracing._span_wrapper(tracer, lambda: inner(), "training.fit", opaque=True)
    with tracer.root("setup"):
        fit()
    assert tracer.per_root("inner", ["setup"], "calls") == 0
    assert tracer.per_root("training.fit", ["setup"], "calls") == 1


def test_instrumentation_restores_entry_points():
    from repro.core import coverage
    from repro.snn.layers import ConvLIF, RecurrentLIF

    before = (coverage.verify_coverage, vars(ConvLIF)["sequence_currents"],
              "sequence_currents" in vars(RecurrentLIF))
    with tracing.Instrumentation(tracing.Tracer()):
        assert coverage.verify_coverage is not before[0]
    after = (coverage.verify_coverage, vars(ConvLIF)["sequence_currents"],
             "sequence_currents" in vars(RecurrentLIF))
    assert after == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    # Only the named in-test activation fault may fail (``correct``).
    assert 0 <= result["failed"] < result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted)
    for spec in wanted:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    if trace:
        zero = ("snn.conv", "snn.pool") if workload == "shd_flow" else ("snn.recurrent",)
        for layer in zero:
            assert metrics[layer + "_s"]["value"] == 0
            assert metrics[layer + "_calls"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "nmnist_flow", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
