"""Golden output hashes of CLI runs, each made by a fresh process.

The hashes pin every byte the runs write: a change in the rounding order of
an extended-tier right-hand side, an integrator step or a float root scan
shows up here, while a rerun inside one process would not catch it.  The
32-digit dp45 run covers the adaptive extended path, which no other test
reaches.  Float trajectories are left out: their matrix products go through
BLAS, whose summation order may differ between machines.

The CLI prints only `digits` of the `digits + 3` working digits, so the
in-process runs below also hash the exact mpf bits of every state and slow
value of short 32- and 64-digit integrations of the full, standard-form and
plane systems, of a response field with a mean gauge, of a run that ends in
DivergenceError and of a run whose stop condition fires between strides.

To print the hashes of the current sources: ``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from alf import (
    DivergenceError,
    IntegratorConfig,
    PerturbedSystem,
    ResponseField,
    ResponseFunction,
    gauge_shift,
    integrate,
    plane_reduce,
    to_standard_form,
)
from alf.config import build_system
from alf.presets import get_preset

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
    "manifold-ex1-descending": (["manifold", "--preset", "ex1-manifold"],
                                {"analysis": {"k_range": [4.5, -4.5]}}, 0),
    "singularities-ex1": (["singularities", "--preset", "ex1"], None, 0),
    # f' = 4x^3 - 4x is exactly 0 at the grid points -1 and 0 and at the end point 1
    "singularities-ex1-grid-zeros": (["singularities", "--preset", "ex1"],
                                     {"analysis": {"x_range": [-2.0, 1.0], "scan_points": 4}}, 0),
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
    "manifold-ex1-descending": {
        "manifold.csv": "3be499ade15d33490e7b3d9d5302e98eda16e5926b9c6a92a1e1b3ea2c3dbb89",
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
    "singularities-ex1-grid-zeros": {
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


def _tier_runs():
    """name -> (system, initial state, stop condition) for the working-bit hashes."""
    full = build_system(_DP45_32)
    x0 = [Fraction(str(v)) for v in _DP45_32["initial"]["explicit"]]
    std = to_standard_form(full, 2)
    fast, k0 = std.project(x0)
    plane = plane_reduce(build_system(get_preset("ex1")), 3)
    # a mean gauge h(mean x) added to every response value; x0 sums to 0, so the
    # gauge run starts from x0 + 7/10, where a misrounded mean shows in h
    gauge = PerturbedSystem(
        full.graph,
        gauge_shift(full.field, ResponseFunction.from_coeffs([Fraction(1, 3), 2, -1])),
        full.perturbation,
        full.epsilon,
    )
    # f = -x^3 makes -L F(x) anti-diffusive: the spread passes the cutoff near t = 0.32
    diverging = PerturbedSystem(full.graph, ResponseField(ResponseFunction.from_coeffs([0, 0, 0, -1])),
                                full.perturbation, full.epsilon)
    # with stride 4, the stop at t > 0.25 fires after rk4 step 13, off the stride
    return {
        "full": (full, x0, None),
        "standard": (std, fast + [k0], None),
        "plane": (plane, [Fraction(6, 5), Fraction(4)], None),
        "gauge": (gauge, [v + Fraction(7, 10) for v in x0], None),
        "diverging": (diverging, [Fraction(-1, 2), Fraction(1, 2), 0, Fraction(1, 4), Fraction(-1, 4)], None),
        "stopped": (plane, [Fraction(6, 5), Fraction(4)], lambda t, y: float(t) > 0.25),
    }


_TIER_CONFIGS = {
    "rk4": {"method": "rk4", "dt": 0.02},
    "dp45": {"method": "dp45", "dt": 0.05, "tol": 1e-12},
}


def tier_bits_hash(key: str) -> str:
    """sha256 of the exact (sign, mantissa, exponent, bitcount) of every state and k value.

    `key` is "<system>-<method>-<digits>".  A run that ends in DivergenceError
    is hashed through the partial trajectory the error carries.
    """
    system, method, digits = key.split("-")
    sys_, x0, stop = _tier_runs()[system]
    cfg = IntegratorConfig(digits=int(digits), stride=4 if stop else 1, **_TIER_CONFIGS[method])
    try:
        traj = integrate(sys_, x0, (0.0, 0.5), cfg, stop_condition=stop)
    except DivergenceError as err:
        traj = err.trajectory
    digest = hashlib.sha256()
    for t, state, k in zip(traj.times, traj.states, traj.k_series):
        values = list(state) + [k]
        if system in ("diverging", "stopped"):
            values.append(t)
        for v in values:
            sign, man, exp, bc = v._mpf_
            digest.update(repr((sign, int(man), exp, bc)).encode())
    return digest.hexdigest()


TIER_GOLDEN = {
    "diverging-rk4-32": "8f9a61682db7e3f1df8554424e5319f20d6aeec2dc8e2012be844b424df2b5fb",
    "full-dp45-32": "9bc66386172fcf41bc2d648293434674f0e521f028886f890df82ee36bf117fd",
    "full-dp45-64": "57ab6d91302eda1fd3ca99377f1b8d1fc786e2399834f6d1796ce6e562d94984",
    "full-rk4-32": "23cfddbed4e0c52493675c6392481f73638b69ece92644fa92442d60fc44561c",
    "full-rk4-64": "0946d4d88786c0d56cf9bbd010951ffb90a35a20da35433d673bde854fcaffe4",
    "gauge-dp45-32": "9d8fabd79213ba634ab2cd32476c0d6e2dd2a14e49a995bafa4247420e334cc8",
    "gauge-dp45-64": "b9b52922b4a042f3c713ac1f218a0f5efdfae451ed5d5fc8a8763b2fd93fdc9a",
    "gauge-rk4-32": "78112cbb8c3a2629fcf912a0d1f88794ec7d0fe7d3e00d7a2e631aefdfb9b40b",
    "gauge-rk4-64": "82894970c3f6d4802d35d72f7454e464f1ff5bc79fecd1ce5a9e37468428da24",
    "plane-dp45-32": "7a4b2f1a49571b231d95ab38b69015b9c9440f9b44bf3eb607a7bb332fa8f885",
    "plane-dp45-64": "bb005f03ea6f9dc5d9dfcc0f785c6335302c3657b7144023f63ec8001b1403b0",
    "plane-rk4-32": "543a01d6cfa7778a214493baceb7a1273d7b0dd1640ffcb06578e9fea54a5216",
    "plane-rk4-64": "d05105cc812c278119e9e1fa5d65c12dcbd43994b3a873ed0af473c37b2310b1",
    "standard-dp45-32": "33aa1a795f8ef26133a619ee026e04f26fac127ce7e0fbdbedef72b289748d96",
    "standard-dp45-64": "309328379019cb1a6e8e5325f4411e10bbf85f715e329ec81d96a0e9873461a2",
    "standard-rk4-32": "bc8c539f1e37089eb7ad29dccb330f42ff8d434dfc40fdc44ba1deba7d03ddac",
    "standard-rk4-64": "6e8dd64c01815543e0ea5875e0f81450bce23ff1bf6818a73798d4d777eca788",
    "stopped-dp45-32": "465300cd8f111e57f87a4744d15291644c3f8fa5916a54804d4dd1861253d623",
    "stopped-rk4-32": "841a6abf2705d2749920407cae7a18c2b0791026924e27b1b76976af51e52169",
}


@pytest.mark.parametrize("key", sorted(TIER_GOLDEN))
def test_extended_tier_working_bits(key):
    assert tier_bits_hash(key) == TIER_GOLDEN[key]


if __name__ == "__main__":
    for key in sorted(TIER_GOLDEN):
        print(key, tier_bits_hash(key))
    with tempfile.TemporaryDirectory() as tmp:
        for run in sorted(RUNS):
            print(run, run_hashed(run, Path(tmp)))
