"""Smoke test of the benchmark: every workload at a tiny size, no timing gate.

Run from the root of the repository:  python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=300)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for workload in WORKLOADS:
        proc = _run("--workload", workload, "--seed", str(SEED), "--smoke", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace1.json").read_text())
        out[workload] = (final, report)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_output_check_passes(reports, workload):
    final, report = reports[workload]
    assert final["failed"] == 0 and final["correct"], report["failures"]
    assert final["attempted"] == 2 * report["jobs_per_pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_metric_is_emitted(reports, workload):
    final, report = reports[workload]
    assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for section in ("end_to_end", "per_layer"):
        missing = {m["name"] for m in SPEC[section]} - set(report[section])
        assert not missing, f"{workload} lacks {section} metrics {missing}"
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_s":
            assert report["per_layer"][m["name"]]["value"] > 0, m["name"]


def test_design_names_exist(reports):
    """Metrics named by the layer map and the predictions exist on some workload."""
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    emitted = {name for _, report in reports.values() for section in ("end_to_end", "per_layer")
               for name in report[section]}
    named = {name for entry in design["layer_map"] for name in entry["layer"] + entry["moves"]}
    named |= {move["metric"] for fix in design["predictions"] for move in fix["moves"]}
    for name in named:
        if name.endswith(".*"):
            assert any(e.startswith(name[:-1]) for e in emitted), name
        else:
            assert name in emitted, name
    modules = {name.split(".")[0] for name in emitted}
    assert {"cli", "config", "graph", "response", "precision", "dynamics", "slowfast", "symmetry",
            "svg"} <= modules


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_across_processes(reports, workload):
    first = _run("--workload", workload, "--seed", str(SEED), "--inputs-hash")
    second = _run("--workload", workload, "--seed", str(SEED), "--inputs-hash")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    other = _run("--workload", workload, "--seed", str(SEED + 1), "--inputs-hash")
    assert other.stdout != first.stdout
    smoke = _run("--workload", workload, "--seed", str(SEED), "--smoke", "--inputs-hash")
    assert smoke.stdout.strip() == reports[workload][1]["environment"]["inputs_sha256"]
