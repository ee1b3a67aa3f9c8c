import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alf.cli import main
from alf.config import validate_config
from alf.presets import PRESET_NAMES, get_preset


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run_cli(*args):
    """`python -m alf.cli` with the given arguments in a fresh interpreter, warnings as the environment sets them."""
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "alf.cli", *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_float_and_analysis_commands_load_no_mpmath(tmp_path):
    # mpmath is imported on the first 32/64-digit run or mpf value: the 16-digit simulate and the analysis
    # commands run without it, in one interpreter one after another, and the 32-digit canard loads it
    commands = [["simulate", "--preset", "ex2-unweighted", "--svg"], ["manifold", "--preset", "ex1-manifold"],
                ["singularities", "--preset", "ex1"], ["divergence", "--preset", "ex1"],
                ["bifurcation", "--preset", "ex3a"], ["canard", "--preset", "ex1-canard"]]
    script = ("import json, sys\n"
              "from alf.cli import main\n"
              "runs = [(main([*args, '--out', sys.argv[2]]), 'mpmath' in sys.modules)\n"
              "        for args in json.loads(sys.argv[1])]\n"
              "print(json.dumps(runs))\n")
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    assert runs == [[0, False]] * 5 + [[0, True]]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_presets_validate_unchanged():
    for name in PRESET_NAMES:
        cfg = get_preset(name)
        assert validate_config(cfg) == get_preset(name)


def test_manifold_ex1_singular_crossings(tmp_path):
    out = tmp_path / "m"
    assert main(["manifold", "--preset", "ex1-manifold", "--out", str(out)]) == 0
    rows = _read_csv(out / "manifold.csv")
    sing_k = sorted({float(r["k"]) for r in rows if r["stability"] == "singular"})
    for expected in (-3.0, 0.0, 3.0):
        assert any(abs(k - expected) < 1e-6 for k in sing_k)


def test_singularities_ex1(tmp_path):
    out = tmp_path / "s"
    assert main(["singularities", "--preset", "ex1", "--out", str(out)]) == 0
    reports = json.load(open(out / "singularities.json"))
    assert [r["k_s"] for r in reports] == [-3.0, 0.0, 3.0]
    assert [r["type"] for r in reports] == ["type-1", "type-2", "type-1"]
    for r in reports:
        if r["type"] == "type-1":
            assert r["lambda"] == 1.0 and r["canard"] is True
        else:
            assert r["lambda"] == -1.0 and r["canard"] is False


def test_singularities_types_swap_with_perturbation_sign(tmp_path):
    override = _write(tmp_path, "plus.json", {"perturbation": {"constant": {"value": 1.0}}})
    out = tmp_path / "s2"
    assert main(["singularities", "--preset", "ex1", "--config", override, "--out", str(out)]) == 0
    reports = json.load(open(out / "singularities.json"))
    assert [r["type"] for r in reports] == ["type-2", "type-1", "type-2"]


def test_singularities_two_nodes_non_transversal(tmp_path):
    cfg = {
        "graph": {"type": "complete", "n": 2},
        "response": {"roots": [[1, 2], [-1, 2]], "scale": 1},
        "perturbation": {"constant": {"value": -1.0}},
        "epsilon": 0.1,
        "analysis": {"x_range": [-2, 2], "eliminate": 2},
    }
    out = tmp_path / "s3"
    assert main(["singularities", "--config", _write(tmp_path, "n2.json", cfg), "--out", str(out)]) == 0
    reports = json.load(open(out / "singularities.json"))
    assert reports and all(r["non_transversal"] for r in reports)
    assert all(r["type"] == "non-transcritical" for r in reports)


def test_simulate_consensus_start_constant_columns(tmp_path):
    cfg = {
        "graph": {"type": "complete", "n": 4},
        "response": {"roots": [[1, 2], [-1, 2]], "scale": 1},
        "epsilon": 0,
        "initial": {"consensus": {"c": 0.6}},
        "tspan": [0, 1],
        "integrator": {"dt": 0.01, "stride": 10},
    }
    out = tmp_path / "sim"
    assert main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")
    for row in rows:
        for col in ("x1", "x2", "x3", "x4"):
            assert float(row[col]) == 0.6


def test_simulate_svg_output(tmp_path):
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0, 1]},
        "initial": {"random": {"seed": 4, "lo": -1, "hi": 1}},
        "tspan": [0, 2],
        "integrator": {"dt": 0.01, "stride": 20},
    }
    out = tmp_path / "svg"
    code = main(["simulate", "--config", _write(tmp_path, "s.json", cfg), "--out", str(out),
                 "--svg", "--log-time"])
    assert code == 0
    body = (out / "trajectory.svg").read_text()
    assert body.startswith("<svg") and "<polyline" in body


def test_dp45_grows_a_tiny_first_step_instead_of_stalling(tmp_path):
    # the schema accepts any dt > 0; dt = 1e-15 is accepted and grown 5x, which is no stall
    # although 5e-15 is still under the 1e-14 floor
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"roots": [[1.0, 2], [-1.0, 2]], "scale": 1.0},
        "perturbation": {"constant": {"value": -1.0}},
        "epsilon": 0.1,
        "initial": {"explicit": [0.5, -0.25, 1.5]},
        "tspan": [0.0, 1.0],
        "integrator": {"method": "dp45", "dt": 1e-15, "stride": 5000},
    }
    out = tmp_path / "tiny"
    assert main(["simulate", "--config", _write(tmp_path, "tiny.json", cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "trajectory.csv")
    assert [float(r["t"]) for r in rows] == [0.0, 1.0]
    cfg["integrator"]["dt"] = 1e-13
    again = tmp_path / "larger"
    assert main(["simulate", "--config", _write(tmp_path, "larger.json", cfg), "--out", str(again)]) == 0
    assert abs(float(rows[-1]["x1"]) - float(_read_csv(again / "trajectory.csv")[-1]["x1"])) < 1e-6


def test_config_error_exit_code(tmp_path):
    bad = _write(tmp_path, "bad.json", {"graph": {"type": "complete", "n": 3, "oops": 1}})
    assert main(["manifold", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    assert main(["manifold", "--out", str(tmp_path / "x")]) == 2  # no scenario at all


def test_integrator_seed_is_config_error(tmp_path, capsys):
    # rk4 and dp45 draw no random numbers, so the schema has no integrator seed
    override = _write(tmp_path, "seed.json", {"integrator": {"seed": 0}})
    out = tmp_path / "seed"
    assert main(["simulate", "--preset", "ex2-unweighted", "--config", override, "--out", str(out)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config" and report["details"][0].startswith("integrator:")
    assert "seed" in report["details"][0]
    assert not (out / "trajectory.csv").exists()


_CONSENSUS_RUN = '"initial": {"consensus": {"c": 0.5}}, "tspan": [0, 0.01]'
_CUSTOM_RUN = '"response": {"coeffs": [0, 1]}, ' + _CONSENSUS_RUN


# values no builder can read and files that hold no scenario: each is a config error before any
# output is written; the raw JSON text keeps NaN, Infinity and 1e400, which json.dumps cannot write
_UNREADABLE = [
    ("n-float", "singularities", "ex1", '{"graph": {"type": "complete", "n": 3.0}}', None),
    ("grid-float", "manifold", "ex1-manifold", '{"analysis": {"grid": [11.0, 21]}}', None),
    ("scan-points-float", "singularities", "ex1", '{"analysis": {"scan_points": 101.0}}', None),
    ("eliminate-float", "singularities", "ex1", '{"analysis": {"eliminate": 3.0}}', None),
    ("initial-seed-float", "simulate", "ex2-unweighted",
     '{"initial": {"random": {"seed": 1001.0, "lo": -1, "hi": 0}}, "tspan": [0, 0.01]}', None),
    ("perturbation-seed-float", "simulate", "ex2-unweighted",
     '{"perturbation": {"random": {"seed": 1001.0, "lo": 0, "hi": 1}}}', None),
    ("digits-float", "simulate", "ex1", '{"integrator": {"digits": 32.0}, ' + _CONSENSUS_RUN + '}', None),
    ("stride-float", "simulate", "ex1", '{"integrator": {"stride": 100.0}, ' + _CONSENSUS_RUN + '}', None),
    ("epsilon-nan", "singularities", "ex1", '{"epsilon": NaN}', None),
    ("x-range-infinity", "singularities", "ex1", '{"analysis": {"x_range": [-3, Infinity]}}', None),
    ("value-1e400", "singularities", "ex1", '{"perturbation": {"constant": {"value": 1e400}}}', None),
    ("x-range-401-digit-int", "singularities", "ex1", '{"analysis": {"x_range": [-3, 1%s]}}' % ("0" * 400), None),
    ("epsilon-5001-digit-int", "singularities", "ex1", '{"epsilon": 1%s}' % ("0" * 5000), None),
    ("dt-nan", "simulate", "ex1", '{"integrator": {"dt": NaN}, ' + _CONSENSUS_RUN + '}', None),
    ("tspan-minus-infinity", "simulate", "ex1",
     '{"initial": {"consensus": {"c": 0.5}}, "tspan": [-Infinity, 1]}', None),
    ("edge-float-nodes", "simulate", None,
     '{"graph": {"type": "custom", "n": 3, "edges": [[1.5, 2.7], [2, 3]]}, ' + _CUSTOM_RUN + '}', None),
    ("edge-negative-weight", "simulate", None,
     '{"graph": {"type": "custom", "n": 3, "edges": [[1, 2, -1], [2, 3]]}, ' + _CUSTOM_RUN + '}', None),
    ("top-level-list", "singularities", None, '[1, 2]', None),
    ("top-level-string", "singularities", "ex1", '"x"', None),
    ("env-digits-over-int", "simulate", "ex1", '{"integrator": 5}', "32"),
]


@pytest.mark.parametrize("command, preset, text, env_digits",
                         [pytest.param(*case[1:], id=case[0]) for case in _UNREADABLE])
def test_unreadable_values_are_config_errors(tmp_path, capsys, monkeypatch, command, preset, text, env_digits):
    if env_digits:
        monkeypatch.setenv("ALF_DIGITS", env_digits)
    else:
        monkeypatch.delenv("ALF_DIGITS", raising=False)
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)] + (["--preset", preset] if preset else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == "config"
    assert not out.exists()


# scenarios the schema admits but a command or a builder refuses: each names its path, before any
# output is written
_K3 = {"graph": {"type": "complete", "n": 3}, "response": {"coeffs": [0, 1]}}
_REFUSED = [
    ("analysis-without-k-range", "manifold", None,
     {**_K3, "analysis": {"x_range": [-1, 1], "grid": [11, 11], "residual_tol": 1e-8}}, "analysis/k_range:"),
    ("eliminate-past-n", "singularities", "ex1", {"analysis": {"eliminate": 4}}, "analysis/eliminate:"),
    ("canard-without-plane-initial", "canard", "ex1-canard", {"initial": {"consensus": {"c": 0.5}}}, "initial:"),
    ("canard-epsilon-zero", "canard", "ex1-canard", {"epsilon": 0}, "epsilon:"),
    ("canard-no-type-1-ahead", "canard", "ex1-canard", {"initial": {"plane": {"k0": -100}}}, "initial/plane/k0:"),
    ("bifurcation-without-family", "bifurcation", "ex1", {}, "response:"),
    ("custom-graph-without-edges", "simulate", "ex1",
     {"graph": {"type": "custom", "n": 3}, "initial": {"consensus": {"c": 0.5}}}, "graph:"),
    ("family-without-lambda", "singularities", "ex1", {"response": {"family": "ex3a"}}, "response:"),
    ("response-scale-only", "singularities", "ex1", {"response": {"scale": 2}}, "response:"),
    ("perturbation-length", "singularities", "ex1", {"perturbation": {"constant": {"values": [1, 2]}}},
     "perturbation:"),
    ("explicit-initial-length", "simulate", "ex1", {"initial": {"explicit": [1, 2]}}, "initial:"),
    ("simulate-plane-initial", "simulate", "ex1", {}, "initial:"),
]


@pytest.mark.parametrize("command, preset, payload, where",
                         [pytest.param(*case[1:], id=case[0]) for case in _REFUSED])
def test_refused_scenarios_are_config_errors_naming_their_path(tmp_path, capsys, command, preset, payload, where):
    out = tmp_path / "out"
    argv = [command, "--config", _write(tmp_path, "c.json", payload), "--out", str(out)]
    assert main(argv + (["--preset", preset] if preset else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "config" and report["details"][0].startswith(where)
    assert not out.exists()


@pytest.mark.parametrize("graph, where", [
    ({"type": "custom", "n": 3, "edges": [[1, 5]]}, "graph/edges:"),
    ({"type": "custom", "n": 3, "edges": [[1, 1]]}, "graph/edges:"),
    ({"type": "custom", "n": 3, "edges": [[1, 2], [2, 1]]}, "graph/edges:"),
    ({"type": "cycle", "n": 2}, "graph/n:"),
], ids=["edge-out-of-range", "self-loop", "duplicate-edge", "two-node-cycle"])
def test_graphs_the_schema_admits_but_graph_refuses_are_config_errors(tmp_path, capsys, graph, where):
    config = _write(tmp_path, "g.json", {"graph": graph, "response": {"coeffs": [0, 1]},
                                         "initial": {"consensus": {"c": 0.5}}, "tspan": [0, 0.01]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "config" and report["details"][0].startswith(where)
    assert not out.exists()


def test_every_missing_section_is_named(tmp_path, capsys):
    config = _write(tmp_path, "bare.json", {"initial": {"consensus": {"c": 0.5}}, "tspan": [0, 0.01]})
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    details = json.loads(capsys.readouterr().err)["details"]
    assert [d.split(":")[0] for d in details] == ["graph", "response"]


def test_analysis_grids_are_bounded(tmp_path, capsys):
    # validated only: a grid at the bound is not run here
    from alf.config import MAX_GRID_POINTS
    from alf.errors import ConfigError

    assert MAX_GRID_POINTS == 2048 * 2048
    base = get_preset("ex1-manifold")
    validate_config({**base, "analysis": {**base["analysis"], "grid": [2048, 2048]}})
    validate_config({**base, "analysis": {**base["analysis"], "scan_points": 2048 * 2048}})
    for key, value in (("grid", [2049, 2049]), ("scan_points", 2048 * 2048 + 1)):
        with pytest.raises(ConfigError) as err:
            validate_config({**base, "analysis": {**base["analysis"], key: value}})
        assert err.value.details[0].startswith(f"analysis/{key}:")
        override = _write(tmp_path, f"{key}.json", {"analysis": {key: value}})
        assert main(["manifold", "--preset", "ex1-manifold", "--config", override,
                     "--out", str(tmp_path / key)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config" and report["details"][0].startswith(f"analysis/{key}:")


def test_svg_flags_belong_to_simulate_only(tmp_path, capsys):
    out = str(tmp_path / "x")
    for flag in ("--svg", "--log-time"):
        with pytest.raises(SystemExit) as err:
            main(["manifold", "--preset", "ex1-manifold", "--out", out, flag])
        assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reversed_tspan_is_config_error(tmp_path, capsys):
    override = {"initial": {"explicit": [0.1, 0.2, 0.3]}, "tspan": [1.0, 0.0]}
    out = tmp_path / "rt"
    code = main(["simulate", "--preset", "ex1", "--config", _write(tmp_path, "rt.json", override),
                 "--out", str(out)])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config" and report["details"][0].startswith("tspan:")
    assert not (out / "trajectory.csv").exists()


def test_reversed_x_range_is_config_error(tmp_path, capsys):
    override = _write(tmp_path, "rx.json", {"analysis": {"x_range": [2.5, -2.5]}})
    for command, preset in (("singularities", "ex1"), ("manifold", "ex1-manifold"),
                            ("canard", "ex1-canard")):
        assert main([command, "--preset", preset, "--config", override,
                     "--out", str(tmp_path / command)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["details"][0].startswith("analysis/x_range:")
    # a descending k window is still a valid manifold scan
    window = {"analysis": {"k_range": [4.5, -4.5], "grid": [11, 21]}}
    out = tmp_path / "desc"
    assert main(["manifold", "--preset", "ex1-manifold",
                 "--config", _write(tmp_path, "dk.json", window), "--out", str(out)]) == 0
    assert _read_csv(out / "manifold.csv")


def test_canard_honours_scan_points(tmp_path):
    # a 3-point scan finds only k_s = -3 and 0; the default scan also finds 3
    override = _write(tmp_path, "sp.json", {
        "analysis": {"scan_points": 3}, "tspan": [0, 1],
        "integrator": {"method": "rk4", "dt": 0.01, "digits": 32, "stride": 10},
    })
    out = tmp_path / "sp"
    assert main(["singularities", "--preset", "ex1-canard", "--config", override, "--out", str(out)]) == 0
    reported = {r["k_s"] for r in json.load(open(out / "singularities.json"))}
    assert main(["canard", "--preset", "ex1-canard", "--config", override, "--out", str(out)]) == 0
    k_star = json.load(open(out / "canard_metrics.json"))["k_star"]
    assert reported == {-3.0, 0.0} and k_star == -3.0


def test_unsupported_structure_exit_code(tmp_path):
    cfg = {
        "graph": {"type": "path", "n": 4},
        "response": {"coeffs": [0, 1]},
        "analysis": {"k_range": [-2, 2], "x_range": [-2, 2], "grid": [11, 11], "residual_tol": 1e-9},
    }
    assert main(["manifold", "--config", _write(tmp_path, "p.json", cfg), "--out", str(tmp_path / "x")]) == 4


_WEIGHTED_K3 = {"type": "custom", "n": 3, "edges": [[1, 2, 1], [1, 3, 5], [2, 3, 2]]}


def test_weighted_complete_graph_rejected_by_plane_commands(tmp_path, capsys):
    # the identified nodes are not exchangeable, so the plane x1 = x2 is not invariant
    override = _write(tmp_path, "w3.json", {"graph": _WEIGHTED_K3})
    out = tmp_path / "w"
    assert main(["singularities", "--preset", "ex1", "--config", override, "--out", str(out)]) == 4
    assert not (out / "singularities.json").exists()
    assert json.loads(capsys.readouterr().err)["error"] == "unsupported-structure"
    assert main(["bifurcation", "--preset", "ex3a", "--config", override, "--out", str(out)]) == 4
    assert not (out / "bifurcation.csv").exists()


def test_manifold_residual_gate_exit_code(tmp_path, capsys):
    override = _write(tmp_path, "tight.json", {"analysis": {"residual_tol": 1e-30}})
    out = tmp_path / "gate"
    assert main(["manifold", "--preset", "ex1-manifold", "--config", override, "--out", str(out)]) == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "InvariantViolationError"
    assert not (out / "manifold.csv").exists()
    # bifurcation gates every lambda before writing, so no partial CSV either
    assert main(["bifurcation", "--preset", "ex3b", "--config", override, "--out", str(out)]) == 1
    assert not (out / "bifurcation.csv").exists()


def test_bifurcation_sweep_refuses_with_the_first_failing_lambda(tmp_path, capsys):
    # the sweep scans every lambda in one pass, then gates them in order: its error is the first failing
    # lambda's own, and no CSV is written
    from alf import InvariantViolationError, PlaneSystem, ResponseFunction, sample_manifold

    lams = [0.0, 0.75, -0.5, 0.75]
    window = get_preset("ex3b")["analysis"]
    first = None
    for lam in lams:
        try:
            sample_manifold(PlaneSystem(n=3, f=ResponseFunction.family("ex3b", lam)), window["k_range"],
                            window["x_range"], tuple(window["grid"]), 1e-30)
        except InvariantViolationError as err:
            first = str(err)
            break
    override = _write(tmp_path, "sweep.json", {"analysis": {"residual_tol": 1e-30, "lambda_values": lams}})
    out = tmp_path / "sweep"
    assert main(["bifurcation", "--preset", "ex3b", "--config", override, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "InvariantViolationError", "details": [first]}
    assert not (out / "bifurcation.csv").exists()


def test_manifold_residual_gate_survives_optimised_python(tmp_path):
    # python -O strips assert statements; the gate must not depend on them
    override = _write(tmp_path, "tight.json", {"analysis": {"residual_tol": 1e-30}})
    out = tmp_path / "gate-O"
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "alf.cli", "manifold", "--preset", "ex1-manifold",
         "--config", override, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "InvariantViolationError"
    assert not (out / "manifold.csv").exists()


def test_overflowing_window_errors_print_one_json_line(tmp_path):
    # values near 1e320 overflow to inf: the error report is the whole of stderr, with no warning text
    override = _write(tmp_path, "wide.json",
                      {"analysis": {"k_range": [-3, 3], "x_range": [-1e80, 1e80], "grid": [5, 11]}})
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    expected = {
        "manifold": {"details": ["manifold point (k=-3.0, x=-1.1579208923731616e+77) has residual inf > 1e-09"],
                     "error": "InvariantViolationError"},
        # the grid cell [-1e77, 0] is too wide for 200 halvings; the scan used to return
        # -1.1062041726954393e+58, which is not a zero of f'
        "singularities": {"details": ["root scan of [-1e+80, 1e+80] at 2001 points: 200 halvings left the "
                                      "root bracket [-6.223015277861274e+16, 0.0] 6.22e+16 wide"],
                          "error": "InvariantViolationError"},
    }
    for command, report in expected.items():
        proc = subprocess.run(
            [sys.executable, "-m", "alf.cli", command, "--preset", "ex1", "--config", override,
             "--out", str(tmp_path / command)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr == json.dumps(report, sort_keys=True) + "\n"


def test_divergence_exit_code_flushes_partial(tmp_path):
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"roots": [[1, 2], [-1, 2]], "scale": 1},
        "initial": {"explicit": [5.0, 5.0, -10.0]},
        "tspan": [0, 5],
        "integrator": {"dt": 0.001},
    }
    out = tmp_path / "dv"
    assert main(["simulate", "--config", _write(tmp_path, "d.json", cfg), "--out", str(out)]) == 3
    rows = _read_csv(out / "trajectory.csv")
    assert rows  # partial trajectory was written


def test_a_stall_writes_its_partial_trajectory(tmp_path):
    # tol 1e-300 rejects every step until dp45's step size underflows at t = 0: exit 1 with one JSON
    # line, and the CSV holds the initial state once
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0.1, -1, 0, 1]},
        "perturbation": {"constant": {"value": -1}},
        "epsilon": 0.1,
        "initial": {"explicit": [-0.9, 0.4, 0.7]},
        "tspan": [0, 1],
        "integrator": {"method": "dp45", "dt": 0.01, "tol": 1e-300, "digits": 32},
    }
    out = tmp_path / "stall"
    proc = _run_cli("simulate", "--config", _write(tmp_path, "stall.json", cfg), "--out", str(out), "--svg")
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {"error": "IntegrationStalledError", "details": ["step size underflow at t=0.0"]}
    assert proc.stdout == f"{out / 'trajectory.csv'}\n"
    rows = _read_csv(out / "trajectory.csv")
    assert [(float(r["t"]), float(r["x1"])) for r in rows] == [(0.0, -0.9)]
    assert not (out / "trajectory.svg").exists()


@pytest.mark.parametrize("initial, tspan, dt", [
    # every plotted value is 1e20, where +-0.5 leaves the value range empty
    ([1e20, 1e20, 1e20], [0, 0.01], 0.01),
    # one sample at t0 = 1e16, where +1 leaves the time range empty
    ([1e7, 0.2, 0.3], [1e16, 2e16], 1e15),
])
def test_svg_of_a_run_diverging_at_a_huge_value_is_plotted(tmp_path, initial, tspan, dt):
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0, 1]},
        "initial": {"explicit": initial},
        "tspan": tspan,
        "integrator": {"dt": dt},
    }
    out = tmp_path / "huge"
    proc = _run_cli("simulate", "--config", _write(tmp_path, "huge.json", cfg), "--out", str(out), "--svg")
    assert proc.returncode == 3
    assert proc.stderr == f"divergence at t={float(tspan[0])}; partial trajectory flushed\n"
    assert len(_read_csv(out / "trajectory.csv")) == 1
    body = (out / "trajectory.svg").read_text()
    # each series' one row is a run of one point, drawn as a dot
    assert body.startswith("<svg") and body.count("<circle") == 3 and "<polyline" not in body and "nan" not in body


def test_svg_of_a_run_diverging_to_infinity_plots_its_finite_values(tmp_path):
    # the last row is [inf, -inf, nan]: the ranges are taken over the finite t = 0 row alone
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0, 0, 0, 1]},
        "initial": {"explicit": [3e5, -3e5, 0.5]},
        "tspan": [0, 1],
        "integrator": {"dt": 0.01},
    }
    out = tmp_path / "inf"
    assert main(["simulate", "--config", _write(tmp_path, "inf.json", cfg), "--out", str(out), "--svg"]) == 3
    last = _read_csv(out / "trajectory.csv")[-1]
    assert (last["x1"], last["x2"], last["x3"]) == ("inf", "-inf", "nan")
    lines = (out / "trajectory.svg").read_text().splitlines()
    # each series' finite t = 0 point, followed by a non-finite one, is a dot
    dots = [line.split('"')[1:4:2] for line in lines if line.startswith("<circle")]
    assert not any(line.startswith("<polyline") for line in lines)
    assert len(dots) == 3 and all(float(x) == 56.0 and abs(float(y)) < 520 for x, y in dots)
    ticks = [line.split(">")[1].split("<")[0] for line in lines if 'font-size="10">' in line][:10]
    assert all(float(tick) == float(tick) and abs(float(tick)) < 1e6 for tick in ticks)


@pytest.mark.parametrize("method", ["rk4", "dp45"])
def test_diverging_float_run_prints_only_the_divergence_line(tmp_path, method):
    # the state overflows to inf and NaN on its way out; numpy must not warn about it
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0, 0, 0, -1]},
        "initial": {"explicit": [5, -3, 40]},
        "tspan": [0, 1],
        "integrator": {"method": method, "dt": 0.01},
    }
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "alf.cli", "simulate", "--config", _write(tmp_path, "div.json", cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 3
    assert proc.stderr == "divergence at t=0.01; partial trajectory flushed\n"
    assert _read_csv(tmp_path / "out" / "trajectory.csv")


@pytest.mark.parametrize("command, constant", [("simulate", "1.0e+400"), ("singularities", "2.0e+400")])
def test_response_constant_outside_float_range_prints_one_error_line(tmp_path, command, constant):
    # (x - 1e200)^2 (x + 1)^2 has an x^2 coefficient near 1e400, and its derivative an x coefficient near
    # 2e400: no float64 holds either, so the float tier refuses them before any arithmetic overflows
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"roots": [[1e200, 2], [-1.0, 2]]},
        "perturbation": {"constant": {"value": 0.5}},
        "initial": {"explicit": [0.1, 0.2, 0.3]},
        "tspan": [0, 1],
        "integrator": {"method": "rk4", "dt": 0.01, "digits": 16},
        "analysis": {"x_range": [-2.5, 2.5]},
    }
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "alf.cli", command, "--config", _write(tmp_path, "big.json", cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "PreconditionError", "details": [f"response constant {constant} is outside the float tier's range"],
    }


def test_overflowing_float_forcing_prints_one_error_line(tmp_path):
    # eps * h is 1e310 on two nodes: the float tier refuses it before a step can read it as a divergence
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"roots": [[1.0, 2], [-1.0, 2]]},
        "perturbation": {"constant": {"values": [1e300, 1e300, -1e300]}},
        "epsilon": 1e10,
        "initial": {"explicit": [0.1, 0.2, 0.3]},
        "tspan": [0, 1],
        "integrator": {"method": "rk4", "dt": 0.01, "digits": 16},
    }
    proc = _run_cli("simulate", "--config", _write(tmp_path, "forcing.json", cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "PreconditionError", "details": ["epsilon times the forcing is outside the float tier's range"],
    }


@pytest.mark.parametrize("command, preset, override", [
    ("simulate", "ex2-unweighted", {"tspan": [0.0, 1e300], "integrator": {"dt": 1e-10}}),
    ("simulate", "ex2-unweighted", {"tspan": [-1e308, 1e308]}),
    ("canard", "ex1-canard", {"tspan": [0.0, 1e300], "integrator": {"dt": 1e-10}}),
    ("simulate", "ex2-unweighted", {"tspan": [0.0, 1e12], "epsilon": 0, "integrator": {"stride": 1000000}}),
])
def test_overflowing_span_prints_one_error_line(tmp_path, command, preset, override):
    # rk4's span / dt, or the span t1 - t0 itself, is infinite, or rk4's 1e15 steps pass MAX_RK4_STEPS: refused
    # before the first step, and no file is written
    out = tmp_path / "out"
    proc = _run_cli(command, "--preset", preset, "--config", _write(tmp_path, "span.json", override), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    report = json.loads(line)
    assert report["error"] == "PreconditionError" and "not finite" in report["details"][0]
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_unusable_out_prints_one_config_error_line(tmp_path, below):
    # --out names an existing regular file, or a path below one: a configuration error, not a traceback
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = blocker.joinpath(*below)
    proc = _run_cli("divergence", "--preset", "ex1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    report = json.loads(line)
    assert report["error"] == "config"
    (detail,) = report["details"]
    assert detail.startswith(f"--out: cannot write {out / 'divergence.json'}: ")
    assert blocker.read_text() == ""


def test_noncritical_canard_advisory_exit(tmp_path):
    override = {
        "perturbation": {"constant": {"values": [-1, -1, 0]}},
        "tspan": [0, 8],
        "integrator": {"method": "rk4", "dt": 0.01, "digits": 32, "stride": 10},
    }
    out = tmp_path / "nc"
    code = main(["canard", "--preset", "ex1-canard",
                 "--config", _write(tmp_path, "nc.json", override), "--out", str(out)])
    assert code == 5
    metrics = json.load(open(out / "canard_metrics.json"))
    assert metrics["critical_perturbation"] is False
    assert metrics["lambda"] == 0.5


def test_canard_criticality_agrees_with_singularities(tmp_path):
    # a forcing of -1e-13 is below any float tolerance, yet lambda is exactly 1
    override = _write(tmp_path, "tiny.json", {"perturbation": {"constant": {"value": -1e-13}}, "tspan": [0, 0.5]})
    out = tmp_path / "tiny"
    assert main(["singularities", "--preset", "ex1-canard", "--config", override, "--out", str(out)]) == 0
    reports = {r["k_s"]: r for r in json.load(open(out / "singularities.json"))}
    assert main(["canard", "--preset", "ex1-canard", "--config", override, "--out", str(out)]) == 0
    metrics = json.load(open(out / "canard_metrics.json"))
    tracked = reports[metrics["k_star"]]
    assert metrics["lambda"] == tracked["lambda"] == 1.0
    assert metrics["critical_perturbation"] is tracked["canard"] is True


def test_canard_on_consensus_stays_on_consensus(tmp_path):
    override = {"tspan": [0, 5], "integrator": {"method": "rk4", "dt": 0.01, "digits": 32, "stride": 5}}
    out = tmp_path / "cc"
    code = main(["canard", "--preset", "ex1-canard",
                 "--config", _write(tmp_path, "cc.json", override), "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "canard_trajectory.csv")
    for row in rows:
        assert abs(float(row["x"]) - float(row["k"]) / 3) <= 1e-12


def test_divergence_command_reports_exact_value(tmp_path):
    override = {"analysis": {"k_range": [0.0, 3.0]}}
    out = tmp_path / "dint"
    code = main(["divergence", "--preset", "ex1",
                 "--config", _write(tmp_path, "w.json", override), "--out", str(out)])
    assert code == 0
    payload = json.load(open(out / "divergence.json"))
    assert payload["exact"] == 9.0
    assert abs(payload["integral"] - 9.0) <= 1e-8


def _fraction_divergence(n, roots, k1, k2) -> Fraction:
    """-n^2 [f(k2/n) - f(k1/n)] for f = prod (x - r)^m, each root the exact value of its float."""
    def f(u):
        out = Fraction(1)
        for r, m in roots:
            out *= (u - Fraction(r)) ** m
        return out

    return -n * n * (f(Fraction(k2) / n) - f(Fraction(k1) / n))


def test_wide_divergence_window_meets_the_exact_value(tmp_path):
    # ex1's integral is about -1.2e7 and the degree-7 response's about -2.2e13: each is the exact value, rounded
    # once, at the cost of two response evaluations whatever the window's width
    ex1_roots = [[1.0, 2], [-1.0, 2]]
    degree_7_roots = [[1 / 3, 3], [-2, 2], [5, 2]]
    cases = [(ex1_roots, [-300, 301]), (degree_7_roots, [-160, 161])]
    for case, (roots, k_range) in enumerate(cases):
        override = _write(tmp_path, f"wide{case}.json",
                          {"response": {"roots": roots, "scale": 1}, "analysis": {"k_range": k_range}})
        out = tmp_path / f"out{case}"
        proc = _run_cli("divergence", "--preset", "ex1", "--config", override, "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.load(open(out / "divergence.json"))
        assert payload["exact"] == float(_fraction_divergence(3, roots, *k_range))
        assert payload["integral"] == payload["exact"]
    assert float(_fraction_divergence(3, ex1_roots, -300, 301)) == -12058931.444444444


@pytest.mark.parametrize("k_range", [[-1e100, 2e100], [-1e200, 2e200]])
def test_overflowing_divergence_window_prints_one_error_line(tmp_path, k_range):
    # the exact value (about -1.7e400 or -1.7e800) has no float
    override = _write(tmp_path, "huge.json", {"analysis": {"k_range": k_range}})
    proc = _run_cli("divergence", "--preset", "ex1", "--config", override, "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    report = json.loads(line)
    assert report["error"] == "PreconditionError" and "outside the float range" in report["details"][0]
    assert not (tmp_path / "out" / "divergence.json").exists()


def test_descending_divergence_window_is_config_error(tmp_path, capsys):
    out = tmp_path / "desc"
    code = main(["divergence", "--preset", "ex1",
                 "--config", _write(tmp_path, "dk.json", {"analysis": {"k_range": [3.0, 0.0]}}),
                 "--out", str(out)])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "config" and report["details"][0].startswith("analysis/k_range:")
    assert not (out / "divergence.json").exists()


def test_bifurcation_branch_counts(tmp_path):
    # coarse sweep: family a gains a branch for lambda > 0; family b exceeds it
    coarse = {"analysis": {"grid": [61, 121]}}
    ov = _write(tmp_path, "coarse.json", coarse)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["bifurcation", "--preset", "ex3a", "--config", ov, "--out", str(out_a)]) == 0
    assert main(["bifurcation", "--preset", "ex3b", "--config", ov, "--out", str(out_b)]) == 0

    def branches(path):
        counts = {}
        for row in _read_csv(path):
            lam = float(row["lambda"])
            counts.setdefault(lam, set()).add(int(row["branch_id"]))
        return {lam: len(ids) for lam, ids in counts.items()}

    a, b = branches(out_a / "bifurcation.csv"), branches(out_b / "bifurcation.csv")
    assert a[0.0] == 1
    assert a[0.5] > 1
    assert b[0.5] > a[0.5]


def test_env_digits_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ALF_DIGITS", "32")
    third = 0.3333333333333333
    cfg = {
        "graph": {"type": "complete", "n": 3},
        "response": {"coeffs": [0, 1]},
        "initial": {"consensus": {"c": third}},
        "tspan": [0, 0.5],
        "integrator": {"dt": 0.01, "digits": 16},
    }
    out = tmp_path / "env"
    assert main(["simulate", "--config", _write(tmp_path, "e.json", cfg), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    # the float closest to 1/3 is not a short decimal: at the 32-digit tier its
    # exact binary value shows a long tail (16-digit runs print 17 chars max)
    x_cell = lines[1].split(",")[1]
    assert float(x_cell) == pytest.approx(third) and len(x_cell) > 20


def test_repeated_runs_identical_bytes(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["singularities", "--preset", "ex1", "--out", str(out)]) == 0
        outs.append((out / "singularities.json").read_bytes())
    assert outs[0] == outs[1]


def test_one_process_runs_many_commands_on_one_parser(tmp_path, capsys):
    # the parser is built once per process; a bad argument between runs changes no later result
    from alf.cli import _build_parser

    assert _build_parser() is _build_parser()
    first, again, fresh = tmp_path / "first", tmp_path / "again", tmp_path / "fresh"
    assert main(["singularities", "--preset", "ex1", "--out", str(first)]) == 0
    with pytest.raises(SystemExit) as err:
        main(["singularities", "--preset", "ex1", "--out", str(again), "--svg"])
    assert err.value.code == 2
    assert main(["manifold", "--preset", "ex1-manifold", "--out", str(first)]) == 0
    assert main(["singularities", "--preset", "ex1", "--out", str(again)]) == 0
    assert main(["manifold", "--preset", "ex1-manifold", "--out", str(again)]) == 0
    capsys.readouterr()
    env = {k: v for k, v in os.environ.items() if k != "ALF_DIGITS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for command, preset in (("singularities", "ex1"), ("manifold", "ex1-manifold")):
        proc = subprocess.run([sys.executable, "-m", "alf.cli", command, "--preset", preset, "--out", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes() == (fresh / name).read_bytes()
