"""Golden output hashes of CLI runs, each made by a fresh process.

The hashes pin every byte the runs write: a change in the rounding order of
an extended-tier right-hand side, an integrator step or a float root scan
shows up here, while a rerun inside one process would not catch it.  The
32-digit dp45 run covers the adaptive extended path, which no other test
reaches.  Float trajectories are left out: their matrix products go through
BLAS, whose summation order may differ between machines.

To print the hashes of the current sources: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# weighted graph with missing edges, so the Laplacian rows have zeros
_EDGES = [[1, 2, 1.5], [2, 3, 2.0], [3, 4, 0.5], [4, 5, 3.0], [1, 5, 1.0], [2, 4, 2.5]]

_DP45_32 = {
    "graph": {"type": "custom", "n": 5, "edges": _EDGES},
    "response": {"coeffs": [0.1, -1.0, 0.0, 1.0]},
    "perturbation": {"constant": {"values": [0.3, -0.2, 0.1, -0.4, 0.25]}},
    "epsilon": 0.1,
    "initial": {"explicit": [-0.9, 0.4, 0.1, -0.3, 0.7]},
    "tspan": [0.0, 1.0],
    "integrator": {"method": "dp45", "dt": 0.01, "tol": 1e-12, "digits": 32, "stride": 1},
}

_RK4_64 = {
    "graph": {"type": "path", "n": 4},
    "response": {"roots": [[1.0, 2], [-1.0, 2]], "scale": 1.0},
    "perturbation": {"constant": {"values": [-0.5, 0.25, 0.125, -1.0]}},
    "epsilon": 0.1,
    "initial": {"explicit": [-0.8, -0.2, 0.3, -0.6]},
    "tspan": [0.0, 0.2],
    "integrator": {"method": "rk4", "dt": 0.01, "digits": 64, "stride": 2},
}

# name -> (CLI arguments, scenario file or None, expected exit code)
RUNS = {
    "bifurcation-ex3a": (["bifurcation", "--preset", "ex3a"], None, 0),
    "bifurcation-ex3b": (["bifurcation", "--preset", "ex3b"], None, 0),
    "canard-ex1": (["canard", "--preset", "ex1-canard"], None, 0),
    "divergence-ex1": (["divergence", "--preset", "ex1"], None, 0),
    "manifold-ex1": (["manifold", "--preset", "ex1-manifold"], None, 0),
    "singularities-ex1": (["singularities", "--preset", "ex1"], None, 0),
    "simulate-dp45-32": (["simulate"], _DP45_32, 0),
    "simulate-rk4-64": (["simulate"], _RK4_64, 0),
}

GOLDEN = {
    "bifurcation-ex3a": {
        "bifurcation.csv": "ce2384cc23e5f202138f28e8fcddfcd11ae3f2132ade73bd12f95063916e8d7b",
    },
    "bifurcation-ex3b": {
        "bifurcation.csv": "d1332944ea90c803f6662ea692c843337ad0dd8017f988cee0525535292e828c",
    },
    "canard-ex1": {
        "canard_metrics.json": "34ac1afad8ff107c576eff131c3e1e0560ae45c13f8736b8bd4b1fbb9c958dcb",
        "canard_trajectory.csv": "88d3177f9b5dae649c3f0e48cd0bef94c2e8958dc1ff85d8c614d1b0d1fddbdb",
    },
    "divergence-ex1": {
        "divergence.json": "95f39b66be1a4aa9fae8f2d912a6862342dc7e61bbf4d1e7a43f223b6d4be9c2",
    },
    "manifold-ex1": {
        "manifold.csv": "3155837699da0644ffa941f2551aa1f1463830b86258587652ae6779a008f015",
    },
    "simulate-dp45-32": {
        "trajectory.csv": "cd9274a1f98881629d68e862df60ac3541f45da911dc270f27dc84b19022982c",
    },
    "simulate-rk4-64": {
        "trajectory.csv": "5bd0d28fdcde82d77713cfe4c3034e9e54b3794ce6b1594abf628ee92ae95f1c",
    },
    "singularities-ex1": {
        "singularities.json": "c3900e09907c7720e183f3e62067534efb8da51d75c388b9b9b364228b42cd43",
    },
}


def run_hashed(name: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Run one scenario in a fresh interpreter; exit code and sha256 per output file."""
    argv, scenario, _ = RUNS[name]
    out = workdir / name
    argv = list(argv) + ["--out", str(out)]
    if scenario is not None:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv += ["--config", str(path)]
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-m", "alf.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return proc.returncode, hashes


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output_hashes(name, tmp_path):
    code, hashes = run_hashed(name, tmp_path)
    assert code == RUNS[name][2]
    assert hashes == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for run in sorted(RUNS):
            print(run, run_hashed(run, Path(tmp)))
