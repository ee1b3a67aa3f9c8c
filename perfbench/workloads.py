"""Seeded job lists for the three workloads, and one job's run plus checks.

Inputs come from ``random.Random(seed)`` and reach alf only as explicit
values: edge lists, ``constant.values``, ``initial.explicit``.  The seed
moves values, never the shape of a workload: graphs, node counts, precision
tiers, step counts and job counts are fixed, and epsilon, the canard start
point and the lambda lists are drawn stratified over their ranges, so that
one pass costs about the same on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import checks
from checks import frac

EX1_RESPONSE = {"roots": [[1.0, 2], [-1.0, 2]], "scale": 1.0}

# per-step change of the plane's slow variable k divided by n in canard runs;
# dt follows as SLOW_STEP / (epsilon * |forcing|), so every run takes the same
# number of steps per unit of x travelled whatever its epsilon
SLOW_STEP = 0.002

# canard_x: range of the start x0 and the distance in x a critical run travels
SIZES = {
    "full": {"sim_t": 1.5, "dp45_t": 10.0, "sf_t": {10: 1.0, 100: 0.3}, "ext_sim_t": 0.1,
             "ext_cycle_t": 0.03, "canard_x": (1.05, 1.15, 1.2), "noncritical_x_end": 0.6,
             "manifold_grid": [61, 101], "bifurcation_grid": [41, 81], "samples": 3},
    "smoke": {"sim_t": 0.02, "dp45_t": 0.2, "sf_t": {10: 0.02, 100: 0.01}, "ext_sim_t": 0.003,
              "ext_cycle_t": 0.002, "canard_x": (1.01, 1.02, 0.06), "noncritical_x_end": 0.8,
              "manifold_grid": [7, 21], "bifurcation_grid": [5, 21], "samples": 1},
}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One draw from each of `count` equal slices of [lo, hi], in seeded order."""
    slots = list(range(count))
    rng.shuffle(slots)
    return [round(lo + (hi - lo) * (s + rng.random()) / count, 6) for s in slots]


def _cli(kind: str, name: str, cfg: dict, expect: int = 0, svg: bool = False, **check) -> dict:
    return {"id": name, "kind": kind, "cli": True, "cfg": cfg, "svg": svg, "expect": expect, "check": check}


def _float_sim(rng: random.Random, size: dict) -> list[dict]:
    weighted = [[i, j, _u(rng, 1.0, 5.0)] for i in range(1, 11) for j in range(i + 1, 11)]
    graphs = (("wk10", {"type": "custom", "n": 10, "edges": weighted}),
              ("k10", {"type": "complete", "n": 10}),
              ("c100", {"type": "cycle", "n": 100}))
    jobs = []
    for tag, graph in graphs:
        n = graph["n"]

        def system():
            return {"graph": graph, "response": EX1_RESPONSE, "epsilon": 0.1,
                    "perturbation": {"constant": {"values": [_u(rng, -0.5, 0.5) for _ in range(n)]}},
                    "initial": {"explicit": [_u(rng, -1.0, 0.0) for _ in range(n)]}}

        for i, svg in enumerate((True, False)):
            cfg = {**system(), "tspan": [0.0, size["sim_t"]],
                   "integrator": {"method": "rk4", "dt": 1e-3, "digits": 16, "stride": 50}}
            jobs.append(_cli("simulate", f"simulate-rk4-{tag}-{i}", cfg, svg=svg))
        cfg = {**system(), "tspan": [0.0, size["dp45_t"]],
               "integrator": {"method": "dp45", "dt": 1e-3, "tol": 1e-8, "digits": 16, "stride": 5}}
        jobs.append(_cli("simulate", f"simulate-dp45-{tag}", cfg, svg=True))
        cfg = {**system(), "tspan": [0.0, size["sf_t"][n]],
               "integrator": {"method": "rk4", "dt": 1e-3, "digits": 16, "stride": 50}}
        jobs.append({"id": f"standard-form-{tag}", "kind": "standard_form", "cli": False, "cfg": cfg,
                     "eliminate": rng.randint(1, n), "expect": 0})
    return jobs


def _canard_cfg(n, values, eps, x0, x_end, digits):
    drift = abs((n - 1) * values[0] + values[-1]) / n  # |d(k/n)/dt| / epsilon
    return {
        "graph": {"type": "complete", "n": n}, "response": EX1_RESPONSE,
        "perturbation": {"constant": {"values": values}}, "epsilon": eps,
        "integrator": {"method": "rk4", "dt": SLOW_STEP / (eps * drift), "digits": digits, "stride": 20},
        "initial": {"plane": {"x0": None, "k0": round(n * x0, 6)}},
        "tspan": [0.0, (x0 - x_end) / (eps * drift)],
        "analysis": {"x_range": [-2.5, 2.5]},
    }


def _extended_track(rng: random.Random, size: dict) -> list[dict]:
    x_lo, x_hi, span = size["canard_x"]
    combos = [(n, d) for n in (3, 4, 5) for d in (32, 64)]
    epsilons = _stratified(rng, 0.02, 0.1, len(combos))
    starts = _stratified(rng, x_lo, x_hi, len(combos))
    jobs = []
    for (n, digits), eps, x0 in zip(combos, epsilons, starts):
        h = -_u(rng, 0.8, 1.2)
        jobs.append(_cli("canard", f"canard-n{n}-d{digits}", _canard_cfg(n, [h] * n, eps, x0, x0 - span, digits),
                         expect=0, critical=True))
    h = -_u(rng, 0.9, 1.1)
    values = [h, h, round(h * _u(rng, 0.5, 0.8), 6)]
    cfg = _canard_cfg(3, values, 0.05, _u(rng, x_lo, x_hi), size["noncritical_x_end"], 32)
    jobs.append(_cli("canard", "canard-noncritical", cfg, expect=5, critical=False))
    for tag, graph, t_end in (("k10", {"type": "complete", "n": 10}, size["ext_sim_t"]),
                              ("c25", {"type": "cycle", "n": 25}, size["ext_cycle_t"])):
        n = graph["n"]
        cfg = {"graph": graph, "response": EX1_RESPONSE, "epsilon": 0.1,
               "perturbation": {"constant": {"values": [_u(rng, -0.5, 0.5) for _ in range(n)]}},
               "initial": {"explicit": [_u(rng, -1.0, 0.0) for _ in range(n)]},
               "tspan": [0.0, t_end], "integrator": {"method": "rk4", "dt": 1e-3, "digits": 32, "stride": 10}}
        jobs.append(_cli("simulate", f"simulate-d32-{tag}", cfg, svg=True))
    return jobs


def _analysis_scan(rng: random.Random, size: dict) -> list[dict]:
    jobs = []

    def plane_cfg(n, values, analysis):
        return {"graph": {"type": "complete", "n": n}, "response": EX1_RESPONSE,
                "perturbation": {"constant": {"values": values}}, "epsilon": 0.1,
                "analysis": {"eliminate": n, **analysis}}

    for n in (3, 5, 7, 9):
        h = -_u(rng, 0.5, 1.5)
        cfg = plane_cfg(n, [h] * n, {"k_range": [-1.5 * n, 1.5 * n], "x_range": [-2.5, 2.5],
                                     "grid": size["manifold_grid"], "residual_tol": 1e-9})
        jobs.append(_cli("manifold", f"manifold-n{n}", cfg))
    for family, n in (("ex3a", 4), ("ex3b", 8)):
        lams = _stratified(rng, 0.5, 1.5, 3)
        cfg = {"graph": {"type": "complete", "n": n}, "response": {"family": family, "lambda": lams[0]},
               "analysis": {"k_range": [-2.0 * n, 2.0 * n], "x_range": [-2.5, 2.5],
                            "grid": size["bifurcation_grid"], "residual_tol": 1e-9, "lambda_values": lams}}
        jobs.append(_cli("bifurcation", f"bifurcation-{family}-n{n}", cfg))
    for n in (3, 6, 9):
        h = _u(rng, -1.5, 1.5) or 0.5
        h_tilde = _u(rng, 0.2, 1.5) * (1 if h > 0 else -1)  # keeps the forcing sum away from zero
        values = [h] * (n - 1) + [h_tilde]
        jobs.append(_cli("singularities", f"singularities-n{n}",
                         plane_cfg(n, values, {"x_range": [-2.5, 2.5]})))
    for n in (4, 7, 10):
        k1 = _u(rng, -2.0 * n, 0.0)
        cfg = plane_cfg(n, [-1.0] * n, {"k_range": [k1, round(k1 + _u(rng, 0.5, 2.0) * n, 6)]})
        jobs.append(_cli("divergence", f"divergence-n{n}", cfg))
    for n in (4, 6, 8, 10):
        for uniform in (True, False):
            h = -_u(rng, 0.5, 1.5)
            values = [h] * n
            if not uniform:
                values[rng.randrange(n)] = round(h + _u(rng, 0.1, 0.5), 6)
            samples = [[str(Fraction(rng.randint(-40, 40), rng.randint(1, 12))) for _ in range(n)]
                       for _ in range(size["samples"])]
            jobs.append({"id": f"certificate-n{n}-{'uniform' if uniform else 'skewed'}", "kind": "certificate",
                         "cli": False, "cfg": plane_cfg(n, values, {}), "samples": samples,
                         "uniform": uniform, "expect": 0})
    return jobs


GENERATORS = {"float-sim": _float_sim, "extended-track": _extended_track, "analysis-scan": _analysis_scan}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    return GENERATORS[workload](random.Random(seed), SIZES[size])


def inputs_hash(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# running one job

class Runner:
    """Runs jobs in this process through alf's public entry points."""

    def __init__(self, alf_modules: dict, workdir: Path):
        self.m = alf_modules
        self.workdir = workdir
        self.config_paths = {}

    def prepare(self, jobs: list[dict]) -> None:
        for job in jobs:
            job_dir = self.workdir / job["id"]
            job_dir.mkdir(parents=True, exist_ok=True)
            if job["cli"]:
                path = job_dir / "scenario.json"
                path.write_text(json.dumps(job["cfg"]), encoding="utf-8")
                self.config_paths[job["id"]] = path

    def run(self, job: dict) -> tuple[float, dict]:
        """Wall time of the job's calls into alf, and the outcome of its checks."""
        outcome = {"problems": [], "depth": None, "sha256": {}}
        try:
            if job["cli"]:
                elapsed = self._run_cli(job, outcome)
            else:
                elapsed = getattr(self, "_run_" + job["kind"])(job, outcome)
        except Exception as err:  # a failed job is counted and reported, not fatal
            outcome["problems"].append(f"raised {type(err).__name__}: {err}")
            elapsed = 0.0
        return elapsed, outcome

    def _run_cli(self, job, outcome) -> float:
        out = self.workdir / job["id"] / "out"
        argv = [job["kind"], "--config", str(self.config_paths[job["id"]]), "--out", str(out)]
        if job["svg"]:
            argv.append("--svg")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.m["cli"].main(argv)
            elapsed = time.perf_counter() - start
        if code != job["expect"]:
            outcome["problems"].append(f"exit code {code}, expected {job['expect']}: {sink.getvalue()[-300:]}")
            return elapsed
        for path in sorted(out.iterdir()):
            outcome["sha256"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        outcome["problems"] += getattr(self, "_check_" + job["kind"])(job, out, outcome)
        return elapsed

    # --- library jobs ----------------------------------------------------------
    def _run_standard_form(self, job, outcome) -> float:
        cfg = job["cfg"]
        dynamics, config = self.m["dynamics"], self.m["config"]
        start = time.perf_counter()
        system = config.build_system(cfg)
        sf = dynamics.to_standard_form(system, job["eliminate"])
        fast, k = sf.project(cfg["initial"]["explicit"])
        icfg = dynamics.IntegratorConfig(**cfg["integrator"])
        traj = dynamics.integrate(sf, list(fast) + [k], tuple(cfg["tspan"]), icfg)
        elapsed = time.perf_counter() - start
        outcome["sha256"]["trajectory"] = hashlib.sha256(repr(traj.k_series).encode()).hexdigest()
        k0, drift, steps = _slow_law_inputs(cfg)
        outcome["problems"] += checks.check_slow_law(
            [frac(t) for t in traj.times], [frac(v) for v in traj.k_series], k0, drift,
            cfg["integrator"]["digits"], steps)
        return elapsed

    def _run_certificate(self, job, outcome) -> float:
        symmetry, config = self.m["symmetry"], self.m["config"]
        samples = [[Fraction(v) for v in state] for state in job["samples"]]
        start = time.perf_counter()
        system = config.build_system(job["cfg"])
        group = symmetry.PermutationGroup.symmetric(system.n)
        cert = symmetry.maximal_canard_certificate(system, group, samples)
        equivariant = all(symmetry.check_equivariance(system, g, samples, tol=0) for g in group.generators)
        elapsed = time.perf_counter() - start
        outcome["sha256"]["certificate"] = hashlib.sha256(repr(cert).encode()).hexdigest()
        if cert.verdict != job["uniform"] or equivariant != job["uniform"]:
            outcome["problems"].append(
                f"verdict {cert.verdict}, equivariant {equivariant}, forcing uniform {job['uniform']}")
        return elapsed

    # --- CLI output checks -----------------------------------------------------
    def _check_simulate(self, job, out, outcome):
        cfg = job["cfg"]
        k0, drift, steps = _slow_law_inputs(cfg)
        problems = checks.check_trajectory_csv(out / "trajectory.csv", cfg["graph"]["n"], k0, drift,
                                               cfg["integrator"]["digits"], steps, has_k_rows=True)
        if job["svg"] and not (out / "trajectory.svg").is_file():
            problems.append("no trajectory.svg")
        return problems

    def _check_canard(self, job, out, outcome):
        cfg = job["cfg"]
        metrics = json.loads((out / "canard_metrics.json").read_text(encoding="utf-8"))
        problems = []
        if not metrics["crossed"]:
            problems.append("the run never crossed the type-1 point")
        if metrics["critical_perturbation"] != job["check"]["critical"] or metrics["type"] != "type-1":
            problems.append(f"critical={metrics['critical_perturbation']}, type={metrics['type']}")
        n = cfg["graph"]["n"]
        values = [frac(v) for v in cfg["perturbation"]["constant"]["values"]]
        drift = frac(cfg["epsilon"]) * ((n - 1) * values[0] + values[-1])
        steps = round(cfg["tspan"][1] / cfg["integrator"]["dt"])
        problems += checks.check_trajectory_csv(out / "canard_trajectory.csv", n,
                                                frac(cfg["initial"]["plane"]["k0"]), drift,
                                                cfg["integrator"]["digits"], steps, has_k_rows=False)
        if job["check"]["critical"] and metrics["crossed"]:
            last_k = metrics["departure_k"]
            if last_k is None:
                last_k = float(checks.read_rows(out / "canard_trajectory.csv")[-1]["k"])
            outcome["depth"] = abs(metrics["k_star"] - last_k)
        return problems

    def _check_manifold(self, job, out, outcome):
        return checks.check_manifold(out / "manifold.csv", job["cfg"])

    def _check_bifurcation(self, job, out, outcome):
        return checks.check_bifurcation(out / "bifurcation.csv", job["cfg"])

    def _check_singularities(self, job, out, outcome):
        return checks.check_singularities(out / "singularities.json", job["cfg"])

    def _check_divergence(self, job, out, outcome):
        return checks.check_divergence(out / "divergence.json", job["cfg"])


def _slow_law_inputs(cfg: dict):
    """k0, epsilon * sum(h) and the step count of a full-system scenario."""
    k0 = sum(frac(v) for v in cfg["initial"]["explicit"])
    drift = frac(cfg["epsilon"]) * sum(frac(v) for v in cfg["perturbation"]["constant"]["values"])
    steps = round(cfg["tspan"][1] / cfg["integrator"]["dt"])
    return k0, drift, steps
