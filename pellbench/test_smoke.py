"""Smoke test of the benchmark at 512-bit moduli: every workload, both modes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pellbench import harness, run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot():
    return {name: dict(module.__dict__) for name, module in harness.MODULES.items()}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, _, _, unit in harness.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_metric(workload):
    result, report = harness.run_workload(workload, seed=7, seconds=0.05, trace=0, root=ROOT, bits=512)
    assert result["correct"] is True
    assert result["attempted"] >= harness.MIN_REQUESTS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(m["unit"] and m["samples"] >= 1 for m in report["named"].values())
    assert result["failed"] == 0
    assert report["named"]["fail_frac"]["value"] == 0
    if workload == "cli-session-1024":
        # the strict key runs apart from the timed pool; only its documented
        # residue-gap messages may fail there
        probe = report["strict_key_probe"]
        assert probe["key"]["mode"] == "strict"
        assert probe["attempted"] > 0
        assert probe["failed"] == sum(probe["failures"].values())
        assert probe["unexpected_failures"] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_matches_untraced_and_restores(workload, tmp_path):
    before = _snapshot()
    result, report = harness.run_workload(
        workload, seed=7, seconds=0.05, trace=1, root=ROOT, spans_dir=tmp_path, bits=512
    )
    assert _snapshot() == before
    assert result["correct"] is True
    assert report["trace"]["outputs_bit_identical"] is True
    assert report["trace"]["left_patched"] == []
    assert report["trace"]["absent"] == []
    assert [k for k in result["metrics"]] == [name for name, _, _, _ in harness.PER_LAYER]
    assert (tmp_path / f"spans-{workload}-7.jsonl").stat().st_size > 0
    layer = result["metrics"]
    if workload.startswith("decrypt"):
        assert layer["pell.point_pow.calls"]["value"] == len(report["meta"]["keys"][0]["exponents"])
    if workload == "factor-1024":
        assert layer["attacks.find_factor.calls"]["value"] >= 1
        assert 0 < layer["attacks.find_factor.success_ratio"]["value"] <= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pellbench", tmp_path / "pellbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "pellbench/run.py", "--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
