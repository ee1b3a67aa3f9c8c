"""Command-line front end: scenario presets, batch analysis, CSV/JSON/SVG output.

`main` loads the scenario once and hands it to the command; every output
file goes through `_write`, which makes `--out` at the first file written,
so a run refused before it writes leaves no directory.

Exit codes: 0 success, 1 any other package error such as a failed invariant
check (InvariantViolationError) or a stalled step size
(IntegrationStalledError), 2 configuration error (an --out that cannot be
written among them), 3 divergence, 4 unsupported graph structure, 5 canard
run whose tracked type-1 point has lambda != 1, the `canard` field of
`singularities` being false there (advisory; outputs are still written).
Every integrator stop, a divergence or a stall, writes its partial
trajectory CSV before the command exits; an error other than a divergence
prints one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    build_graph,
    build_initial,
    build_integrator,
    build_system,
    require,
    validate_config,
)
from .dynamics import Trajectory, integrate
from .errors import (
    AlfError,
    ConfigError,
    DivergenceError,
    IntegrationError,
    PreconditionError,
    SymmetryViolationError,
    UnsupportedStructureError,
)
from .precision import exact
from .presets import PRESET_NAMES, get_preset
from .response import ResponseFunction
from .slowfast import (
    SCAN_POINTS,
    PlaneSystem,
    analyze_singularity,
    find_singular_points,
    plane_reduce,
    sample_manifold,
    sample_manifolds,
    slow_divergence_integral,
)
from .svg import timeseries_svg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_STRUCTURE = 4
EXIT_NONCRITICAL = 5

CANARD_TUBE_FACTOR = 10.0  # tube half-width in plane coordinates is 10*epsilon


# a config file overrides a preset section by section: the flat option sets
# are merged key by key, and every other section is replaced whole (merging two
# alternatives of a choice-style section would yield an invalid hybrid)
_MERGED_SECTIONS = ("integrator", "analysis")


def _merge(base: dict, override: dict) -> dict:
    out = {**base, **override}
    for key in _MERGED_SECTIONS:
        if isinstance(base.get(key), dict) and isinstance(override.get(key), dict):
            out[key] = {**base[key], **override[key]}
    return out


def load_scenario(preset: str | None, config_path: str | None) -> dict:
    """Preset and/or config file, merged (file overrides preset), validated."""
    cfg: dict = {}
    if preset:
        cfg = get_preset(preset)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as err:  # ValueError: bad JSON, bad UTF-8, an int over 4300 digits
            raise ConfigError([f"cannot read config {config_path}: {err}"])
        if not isinstance(file_cfg, dict):
            raise ConfigError([f"<root>: config {config_path} holds {type(file_cfg).__name__}, not a JSON object"])
        cfg = _merge(cfg, file_cfg)
    if not cfg:
        raise ConfigError(["provide --preset and/or --config"])
    env_digits = os.environ.get("ALF_DIGITS")
    if env_digits:
        try:
            digits = int(env_digits)
        except ValueError:
            raise ConfigError([f"ALF_DIGITS must be an integer, got {env_digits!r}"])
        integrator = cfg.setdefault("integrator", {})
        if isinstance(integrator, dict):  # any other value is reported by validate_config
            integrator["digits"] = digits
    return validate_config(cfg)


def _analysis(cfg: dict, *keys: str) -> list:
    block = cfg.get("analysis") or {}
    missing = [k for k in keys if k not in block]
    if missing:
        raise ConfigError([f"analysis/{k}: required for this command" for k in missing])
    return [block[k] for k in keys]


def _eliminated_index(cfg: dict, n: int) -> int:
    l = (cfg.get("analysis") or {}).get("eliminate", n)
    if not 1 <= l <= n:
        raise ConfigError([f"analysis/eliminate: must be in 1..{n}"])
    return l


def _write(args, name: str, write) -> None:
    """Write `name` into --out (made at the first file) by write(stream), print its path; OSError raises ConfigError."""
    out = Path(args.out)
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ConfigError([f"--out: cannot write {path}: {err.strerror or err}"]) from None
    with fh:
        write(fh)
    print(path)


def _json(payload):
    """A writer of payload as indented JSON with sorted keys and a final newline."""
    return lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _points_csv(columns: str, samples):
    """A writer of critical-set points: the header `columns` + k,x,branch_id,stability, then a row
    per point of each (prefix, ManifoldSample) pair from its columns, the prefix holding the values of `columns`."""
    def write(fh):
        fh.write(columns + "k,x,branch_id,stability\n")
        for prefix, sample in samples:
            fh.writelines(f"{prefix}{k!r},{x!r},{branch},{tag}\n"
                          for k, x, branch, tag in zip(sample.k, sample.x, sample.branch, sample.stability))
    return write


def _integrate_to_csv(args, name: str, system, x0, tspan, icfg, stop_condition=None) -> tuple[Trajectory, int]:
    """Integrate over tspan and write the trajectory CSV `name`; (trajectory, exit code).

    Every integrator stop writes its partial trajectory: a divergence then
    gives EXIT_DIVERGENCE, and any other IntegrationError is raised again.
    """
    try:
        traj = integrate(system, x0, tuple(tspan), icfg, stop_condition=stop_condition)
    except IntegrationError as err:
        _write(args, name, err.trajectory.write_csv)
        if not isinstance(err, DivergenceError):
            raise
        print(f"divergence at t={err.last_time}; partial trajectory flushed", file=sys.stderr)
        return err.trajectory, EXIT_DIVERGENCE
    _write(args, name, traj.write_csv)
    return traj, EXIT_OK


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: dict, args) -> int:
    require(cfg, "initial", "tspan")
    sys_ = build_system(cfg)
    icfg = build_integrator(cfg.get("integrator"))
    x0 = build_initial(cfg["initial"], sys_.n)
    traj, code = _integrate_to_csv(args, "trajectory.csv", sys_, x0, cfg["tspan"], icfg)
    if args.svg:
        series = np.array(traj.states, dtype=float).T
        svg = timeseries_svg(traj.times, series, traj.labels, log_time=args.log_time,
                             title=cfg.get("name", "trajectory"))
        _write(args, "trajectory.svg", lambda fh: fh.write(svg))
    return code


def _plane_from_config(cfg: dict) -> PlaneSystem:
    sys_ = build_system(cfg)
    return plane_reduce(sys_, _eliminated_index(cfg, sys_.n))


def cmd_manifold(cfg: dict, args) -> int:
    ps = _plane_from_config(cfg)
    k_range, x_range, grid, residual_tol = _analysis(cfg, "k_range", "x_range", "grid", "residual_tol")
    sample = sample_manifold(ps, k_range, x_range, tuple(grid), residual_tol)
    _write(args, "manifold.csv", _points_csv("", [("", sample)]))
    return EXIT_OK


def _singular_points(cfg: dict, ps: PlaneSystem) -> list[float]:
    """Zeros of f' over analysis/x_range, scanned at analysis/scan_points."""
    (x_range,) = _analysis(cfg, "x_range")
    scan_points = cfg["analysis"].get("scan_points", SCAN_POINTS)
    return find_singular_points(ps.f, float(x_range[0]), float(x_range[1]), samples=scan_points)


def cmd_singularities(cfg: dict, args) -> int:
    ps = _plane_from_config(cfg)
    xs = _singular_points(cfg, ps)
    reports = sorted((analyze_singularity(ps, x) for x in xs), key=lambda r: float(r.k_s))
    _write(args, "singularities.json", _json([r.to_json() for r in reports]))
    return EXIT_OK


def canard_metrics(traj: Trajectory, n: int, k_star: float, epsilon: float) -> dict:
    """Tube occupancy around the singular crossing plus the departure point.

    The tube is |x - k/n| <= 10*epsilon; reported times are slow times
    (epsilon * t) spent inside the tube before and after the crossing.
    """
    tube = CANARD_TUBE_FACTOR * epsilon
    ts = [float(t) for t in traj.times]
    xs = [float(state[0]) for state in traj.states]
    ks = [float(k) for k in traj.k_series]
    in_tube = [abs(x - k / n) <= tube for x, k in zip(xs, ks)]
    direction = -1.0 if ks[-1] < ks[0] else 1.0
    cross_idx = next(
        (i for i in range(1, len(ks)) if (ks[i] - k_star) * direction >= 0),
        None,
    )
    metrics = {
        "tube_width": tube,
        "k_star": k_star,
        "epsilon": epsilon,
        "crossed": cross_idx is not None,
        "slow_time_before": None,
        "slow_time_after": None,
        "departure_k": None,
    }
    if cross_idx is None:
        return metrics
    entry_idx = cross_idx
    while entry_idx > 0 and in_tube[entry_idx - 1]:
        entry_idx -= 1
    exit_idx = None
    for i in range(cross_idx, len(ks)):
        if not in_tube[i]:
            exit_idx = i
            break
    t_cross = ts[cross_idx]
    metrics["slow_time_before"] = epsilon * (t_cross - ts[entry_idx])
    if exit_idx is not None:
        metrics["slow_time_after"] = epsilon * (ts[exit_idx] - t_cross)
        metrics["departure_k"] = ks[exit_idx]
    else:
        metrics["slow_time_after"] = epsilon * (ts[-1] - t_cross)
    return metrics


def cmd_canard(cfg: dict, args) -> int:
    require(cfg, "initial", "tspan")
    if "plane" not in cfg["initial"]:
        raise ConfigError(["initial: canard runs need the plane form {\"plane\": {...}}"])
    ps = _plane_from_config(cfg)
    n = ps.n
    epsilon = float(ps.epsilon)
    if epsilon <= 0:
        raise ConfigError(["epsilon: canard tracking needs epsilon > 0"])
    xs = _singular_points(cfg, ps)
    icfg = build_integrator(cfg.get("integrator"))

    plane_ic = cfg["initial"]["plane"]
    k0 = exact(plane_ic["k0"])
    x0 = k0 / n if plane_ic.get("x0") is None else exact(plane_ic["x0"])

    slow_sign = 1.0 if float(ps.slow_rhs_factor()) > 0 else -1.0
    report = None
    for x_s in sorted(xs, key=lambda x: slow_sign * (n * x - float(k0))):
        if (n * x_s - float(k0)) * slow_sign <= 0:
            continue
        candidate = analyze_singularity(ps, x_s)
        if candidate.sing_type == "type-1":
            report = candidate
            break
    if report is None:
        raise ConfigError(["initial/plane/k0: no type-1 singular point lies ahead of it in the scan range"])

    k_star = report.k_s
    critical = report.canard
    tube = CANARD_TUBE_FACTOR * epsilon

    def stop(t, y):
        x, k = float(y[0]), float(y[1])
        return abs(x - k / n) > 3.0 * tube or abs(x) > 100.0

    traj, code = _integrate_to_csv(args, "canard_trajectory.csv", ps, [x0, k0], cfg["tspan"], icfg, stop)

    metrics = canard_metrics(traj, n, k_star, epsilon)
    metrics.update({
        "critical_perturbation": critical,
        "lambda": None if report.lam is None else float(report.lam),
        "type": report.sing_type,
        "digits": icfg.digits,
    })
    _write(args, "canard_metrics.json", _json(metrics))

    if code == EXIT_OK and not critical:
        print("advisory: perturbation is not critical at the singular point; no canard expected",
              file=sys.stderr)
        return EXIT_NONCRITICAL
    return code


def cmd_bifurcation(cfg: dict, args) -> int:
    require(cfg, "graph", "response")
    family = cfg["response"].get("family")
    if family is None:
        raise ConfigError(["response: bifurcation sweeps need a family response"])
    graph = build_graph(cfg["graph"])
    if not graph.is_unit_complete():
        raise UnsupportedStructureError(
            "bifurcation diagrams are defined for complete graphs with unit edge weights"
        )
    n = graph.n
    k_range, x_range, grid, residual_tol = _analysis(cfg, "k_range", "x_range", "grid", "residual_tol")
    (lambda_values,) = _analysis(cfg, "lambda_values")
    # one scan pass for the sweep; every sample passes its residual gate before the file is opened
    systems = [PlaneSystem(n=n, f=ResponseFunction.family(family, lam)) for lam in lambda_values]
    samples = sample_manifolds(systems, k_range, x_range, tuple(grid), residual_tol)
    prefixes = [f"{family},{float(lam)!r}," for lam in lambda_values]
    _write(args, "bifurcation.csv", _points_csv("family,lambda,", list(zip(prefixes, samples))))
    return EXIT_OK


def cmd_divergence(cfg: dict, args) -> int:
    ps = _plane_from_config(cfg)
    (k_range,) = _analysis(cfg, "k_range")
    k1, k2 = float(k_range[0]), float(k_range[1])
    if not k1 < k2:
        raise ConfigError([f"analysis/k_range: {k_range} must increase"])
    try:
        value = float(slow_divergence_integral(ps, k1, k2))
    except OverflowError:
        raise PreconditionError(f"the exact slow-divergence integral over {k_range} is outside the float range") from None
    # one value under both keys: readers of divergence.json (perfbench's check among them) read each
    _write(args, "divergence.json", _json({"integral": value, "exact": value}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": cmd_simulate,
    "manifold": cmd_manifold,
    "singularities": cmd_singularities,
    "canard": cmd_canard,
    "bifurcation": cmd_bifurcation,
    "divergence": cmd_divergence,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `alf` argument parser, built on first use and shared by every later `main` call."""
    parser = argparse.ArgumentParser(
        prog="alf",
        description="Numerical laboratory for absolute Laplacian flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate the full system and emit a trajectory CSV"),
        ("manifold", "sample the critical set on the (x, k)-plane"),
        ("singularities", "classify singular consensus points"),
        ("canard", "track a trajectory through the first type-1 point"),
        ("bifurcation", "stack critical-set samples over a lambda sweep"),
        ("divergence", "slow-divergence integral over a k window"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--preset", help=f"built-in scenario: {', '.join(PRESET_NAMES)}")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if name == "simulate":
            p.add_argument("--svg", action="store_true", help="also write trajectory.svg")
            p.add_argument("--log-time", action="store_true",
                           help="log10 time axis in trajectory.svg (only with --svg; it times nothing)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](load_scenario(args.preset, args.config), args)
    except ConfigError as err:
        print(json.dumps({"error": "config", "details": err.details}, sort_keys=True), file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedStructureError, SymmetryViolationError) as err:
        print(json.dumps({"error": "unsupported-structure", "details": [str(err)]}, sort_keys=True),
              file=sys.stderr)
        return EXIT_STRUCTURE
    except AlfError as err:
        print(json.dumps({"error": type(err).__name__, "details": [str(err)]}, sort_keys=True),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
