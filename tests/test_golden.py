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
Each of these runs is also stepped by `fraction_reference`, an independent
integrator in exact rational arithmetic that rounds every stage sum once,
and its states must equal alf's bit for bit.

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

from fraction_reference import Tier, value

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
    # the SVG writer's bytes; the log-time plot drops the sample at t = 0
    "simulate-rk4-64-svg": (["simulate", "--svg"], _RK4_64, 0),
    "simulate-rk4-64-svg-log-time": (["simulate", "--svg", "--log-time"], _RK4_64, 0),
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
        "canard_trajectory.csv": "b1051be5b685fe4699419992846728ad30ee8ab828264cdc784afa144daabb2d",
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
        "trajectory.csv": "ad3b6336d6288aa3ba38cf42923d4c3a0b9af1a836836ee691f20b6432e8e103",
    },
    "simulate-rk4-64": {
        "trajectory.csv": "5bd0d28fdcde82d77713cfe4c3034e9e54b3794ce6b1594abf628ee92ae95f1c",
    },
    "simulate-rk4-64-svg": {
        "trajectory.csv": "5bd0d28fdcde82d77713cfe4c3034e9e54b3794ce6b1594abf628ee92ae95f1c",
        "trajectory.svg": "50262d72c2cd9d6222650870f3bf6650f417ff2987f39bef0ec9725658079101",
    },
    "simulate-rk4-64-svg-log-time": {
        "trajectory.csv": "5bd0d28fdcde82d77713cfe4c3034e9e54b3794ce6b1594abf628ee92ae95f1c",
        "trajectory.svg": "4f2a3d08e7e202d4fef29d018cbb1121d26ad0c4891de96017e4ed8213ecb6a9",
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
    "diverging-rk4-32": "fd02f5eff0fb81e9722bf19409a5c142c02f53b3345cd2456cb75916c6db3fcd",
    "full-dp45-32": "cff204e8a8217a5f22c22a18206d19ccb8f73060b99d7d98bcae6479cd13feb6",
    "full-dp45-64": "99cdd6fc7fee62565516184864dc991f84acff8d4d59fbd1b568599f1e9d2cf3",
    "full-rk4-32": "300647d39b7b6578b347dd00a5a30a1b9815cf65ad2771be063c3b2e478b1338",
    "full-rk4-64": "01e9083c6f8334c3836e0fa614717682f901fc6c123acbf9513c6561222eb915",
    "gauge-dp45-32": "eb0b7a131c40081f9f17e0d05dee49e81a2c526e1fe956a2503e9de796c34077",
    "gauge-dp45-64": "068e07e1270af6db973ba0126921c5a2eb3c5045497f520482a99f59b5f34bf7",
    "gauge-rk4-32": "764292864677e1bdfcd891efb147c52fe870832653d45bcb02f891e130dc5aee",
    "gauge-rk4-64": "04f307e8e779349eb75c57dd63beeed6c89d37d388f115833032b7c7e04cfb24",
    "plane-dp45-32": "3912fb90792c7c0f048766323d8492cedbb00fa2817d365258267907be5d0efc",
    "plane-dp45-64": "d7c0c885fa10ebe390994061f641afac824a7d43b9be9741246017e624b559a9",
    "plane-rk4-32": "543a01d6cfa7778a214493baceb7a1273d7b0dd1640ffcb06578e9fea54a5216",
    "plane-rk4-64": "d05105cc812c278119e9e1fa5d65c12dcbd43994b3a873ed0af473c37b2310b1",
    "standard-dp45-32": "0fd50d5eae16d7fde4d2129c3181fb672a29e5433a866cd05884dbafe62d7709",
    "standard-dp45-64": "08a205296ff520f06470204c5c9e3aafe13337c580d40544d623546bad8ab11f",
    "standard-rk4-32": "ccf3f7e77fe459e780b6b5b0e9d626f55084c45ef70755db539dd3def2ba9891",
    "standard-rk4-64": "f121b38388bac2121cf55d0fc11a6d05bc1a2481a7460d4252786836913d3df8",
    "stopped-dp45-32": "0dec337629c43528b28805ecfd7bb0820ab51b3f3558291e1526dd57efc37c42",
    "stopped-rk4-32": "841a6abf2705d2749920407cae7a18c2b0791026924e27b1b76976af51e52169",
}


@pytest.mark.parametrize("key", sorted(TIER_GOLDEN))
def test_extended_tier_working_bits(key):
    assert tier_bits_hash(key) == TIER_GOLDEN[key]


# the stopped runs take the steps of the plane runs
@pytest.mark.parametrize("key", sorted(k for k in TIER_GOLDEN if not k.startswith("stopped")))
def test_extended_tier_runs_equal_fraction_reference(key):
    system, method, digits = key.split("-")
    sys_, x0, _ = _tier_runs()[system]
    cfg = IntegratorConfig(digits=int(digits), **_TIER_CONFIGS[method])
    try:
        traj = integrate(sys_, x0, (0.0, 0.5), cfg)
    except DivergenceError as err:
        traj = err.trajectory
    tier = Tier(int(digits))
    rhs = tier.rhs(sys_)
    y0 = [tier.const(v) for v in x0]
    steps = len(traj.states) - 1
    if method == "rk4":
        ref = tier.rk4_run(rhs, y0, 0.0, 0.5, cfg.dt, steps)
    else:
        ref = tier.dp45_run(rhs, y0, 0.0, 0.5, cfg.dt, cfg.tol, steps)
    assert [[value(v) for v in state] for state in traj.states] == ref


if __name__ == "__main__":
    for key in sorted(TIER_GOLDEN):
        print(key, tier_bits_hash(key))
    with tempfile.TemporaryDirectory() as tmp:
        for run in sorted(RUNS):
            print(run, run_hashed(run, Path(tmp)))
