"""alf benchmark: seeded workloads, end-to-end times and a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload float-sim --seed 1 --seconds 35 --trace 0

One client runs the workload's jobs one after another in this process, in
closed loop, and repeats the whole job list (a pass) until --seconds have
gone by.  Every job's outputs are checked against references computed here
(see checks.py).  With --trace 0 the last line of standard output holds the
end-to-end metrics named in BENCHMARK.json; with --trace 1 passes alternate
between untraced and traced, and it holds the per-layer metrics.  Lines
before it print every metric by name and unit, and the full report is also
written to .perfbench/ in the checkout.

--smoke runs every job once at a tiny size and prints the report, with no
timing gate; --inputs-hash prints the hash of the generated inputs and exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# pinned before numpy loads, so that the numbers measure alf, not a BLAS pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ALF_DIGITS", None)  # would override every scenario's precision tier

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (after the thread pinning)
from calibration import REFERENCE_KERNEL_S, calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_RUNS = 9
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import alf.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                 "from calibration import calibrate; print(t, calibrate())")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MODULES = ("cli", "config", "graph", "response", "precision", "dynamics", "slowfast", "symmetry", "svg")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_alf() -> dict:
    sys.path.insert(0, str(SRC))
    import alf.cli
    import alf.config
    import alf.dynamics
    import alf.symmetry

    if Path(alf.__file__).resolve().parent != SRC / "alf":
        fail(f"imported alf from {alf.__file__}, not from {SRC}")
    return {"cli": alf.cli, "config": alf.config, "dynamics": alf.dynamics,
            "symmetry": alf.symmetry}


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """(seconds for `import alf.cli`, reference kernel seconds) in fresh interpreters, after a warm-up."""
    times = []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE)], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"import alf.cli failed in a fresh interpreter: {proc.stderr.strip()[-500:]}")
        if i:
            seconds, kernel = proc.stdout.split()
            times.append((float(seconds), float(kernel)))
    return times


def environment(seed: int, inputs: str) -> dict:
    import importlib.metadata

    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                              timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"), "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed, "inputs_sha256": inputs,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# statistics

def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def timing_summary(name: str, values: list[float], out: dict) -> None:
    """Median plus the highest level that leaves at least ten samples above it."""
    values = sorted(values)
    out[f"{name}.p50"] = statistics.median(values)
    for level in TAIL_LEVELS:
        if len(values) * (1 - level / 100.0) >= 10:
            out[f"{name}.p{level:g}"] = percentile(values, level)
            break
    out[f"{name}.samples"] = len(values)


def end_to_end(passes: list[dict], setup: list[tuple[float, float]], attempted: int, failed: int) -> dict:
    # import time rescaled by the kernel timed right after it in the same interpreter:
    # seconds on a host where the kernel takes REFERENCE_KERNEL_S
    m = {"setup_s": statistics.median(t / k for t, k in setup) * REFERENCE_KERNEL_S,
         "setup_raw_s": statistics.median(t for t, _ in setup),
         "wall_s": statistics.median(p["wall"] for p in passes),
         "wall_ref": statistics.median(p["ref"] for p in passes),
         "calibration_s": statistics.median(c for p in passes for c in p["cal"])}
    timing_summary("job_s", [t for p in passes for _, t in p["jobs"]], m)
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for kind, t in p["jobs"]:
            by_kind.setdefault(kind, []).append(t)
    for kind, values in sorted(by_kind.items()):
        timing_summary(f"{kind}_s", values, m)
    m["failed_frac"] = failed / attempted
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    depths = passes[-1]["depths"]
    if depths:
        m["canard_depth"] = statistics.median(depths)
    return m


def per_layer(tr: Tracer, passes: int, overhead: float) -> dict:
    """Per-pass averages of the traced counters; only layers the workload reached."""
    S, C = tr.stats, tr.counts
    m = {}

    def has(name):
        return name in S and S[name].calls > 0

    def put(metric, value):
        m[metric] = value / passes

    put("cli.errors", C.get("cli.errors", 0))
    put("dynamics.errors", C.get("dynamics.errors", 0))
    for module in MODULES:
        own = [st for name, st in S.items() if name.split(".")[0] == module and name not in tr.secondary]
        if any(st.calls for st in own):
            put(f"{module}.self_s", sum(st.self for st in own))
    for stat in ("config.load", "config.build", "graph.commutes", "dynamics.write_csv",
                 "slowfast.sample_manifold", "slowfast.find_singular_points", "slowfast.analyze_singularity",
                 "slowfast.plane_reduce", "slowfast.divergence", "symmetry.certificate",
                 "symmetry.equivariance", "svg.render"):
        if has(stat):
            put(f"{stat}_s", S[stat].total)
    for stat in ("graph.laplacian", "response.derivative", "precision.scalar", "precision.format",
                 "precision.exact", "dynamics.rhs", "dynamics.vector_field"):
        if has(stat):
            put(f"{stat}.calls", S[stat].calls)
            put(f"{stat}_s", S[stat].total)
    evals = [S[s] for s in ("response.eval_scalar", "response.eval_vector") if has(s)]
    if evals:
        put("response.eval.calls", sum(st.calls for st in evals))
        put("response.eval_s", sum(st.total for st in evals))
    if has("cli.main"):
        put("cli.self_s", S["cli.main"].self)
    integrator = [S[s].self for s in ("dynamics.integrate", "dynamics.rk4_step", "dynamics.dp45") if has(s)]
    if integrator:
        put("dynamics.integrate_s", sum(integrator))
    for name, st in S.items():
        if name.startswith("dynamics.rhs.") and st.calls:
            m["dynamics.rhs_us." + name[len("dynamics.rhs."):]] = st.total / st.calls * 1e6
        if name.startswith("dynamics.step.rk4.") and st.calls:
            m["dynamics.step_us.rk4." + name.rsplit(".", 1)[1]] = st.total / st.calls * 1e6
    for name, steps in C.items():
        if name.startswith("dynamics.step.dp45.") and name.endswith(".steps") and steps > 0:
            digits = name.split(".")[3]
            m[f"dynamics.step_us.dp45.{digits}"] = C[f"dynamics.step.dp45.{digits}.time"] / steps * 1e6
    if has("slowfast.layer_value"):
        put("slowfast.layer_value.calls", S["slowfast.layer_value"].calls)
        if "slowfast.points" in C:
            m["slowfast.points_per_layer_eval"] = C["slowfast.points"] / S["slowfast.layer_value"].calls
    if "slowfast.gridlines" in C:
        put("slowfast.gridlines", C["slowfast.gridlines"])
    m["trace.overhead_s"] = overhead
    return m


# ---------------------------------------------------------------------------
# the run

def run_pass(runner, jobs: list[dict], log: list[str]) -> dict:
    result = {"wall": 0.0, "ref": 0.0, "jobs": [], "failed": 0, "depths": [], "sha256": {}, "cal": []}
    before = calibrate()
    for job in jobs:
        elapsed, outcome = runner.run(job)
        after = calibrate()
        result["wall"] += elapsed
        result["ref"] += elapsed / ((before + after) / 2)
        result["cal"].append(after)
        before = after
        result["jobs"].append((job["kind"], elapsed))
        result["sha256"][job["id"]] = outcome["sha256"]
        if outcome["depth"] is not None:
            result["depths"].append(outcome["depth"])
        if outcome["problems"]:
            result["failed"] += 1
            log.append(f"{job['id']}: " + "; ".join(outcome["problems"]))
    return result


def units_of(name: str, declared: dict) -> str:
    if name in declared:
        return declared[name]
    if name.endswith(".samples"):
        return "count"
    if "_us" in name:
        return "us"
    if name.endswith("_s") or "_s.p" in name:
        return "s"
    return {"peak_rss_mb": "MiB", "failed_frac": "ratio", "slowfast.points_per_layer_eval": "ratio",
            "canard_depth": "k"}.get(name, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at a tiny size, no timing gate")
    parser.add_argument("--inputs-hash", action="store_true", help="print the generated inputs' hash and exit")
    args = parser.parse_args(argv)

    size = "smoke" if args.smoke else "full"
    jobs = workloads.generate(args.workload, args.seed, size)
    inputs = workloads.inputs_hash(jobs)
    if args.inputs_hash:
        print(inputs)
        return 0
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path.name} at {ROOT}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if not (SRC / "alf" / "__init__.py").is_file():
        fail(f"no alf sources under {SRC}; run from the root of an alf checkout")

    load_start = os.getloadavg()[0]
    setup = measure_setup(1 if args.smoke else SETUP_RUNS)
    modules = import_alf()
    env = environment(args.seed, inputs)

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    runner = workloads.Runner(modules, workdir)
    log: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer()
    try:
        runner.prepare(jobs)
        start = time.perf_counter()
        while True:
            trace_this = args.trace == 1 and len(untraced) > len(traced)
            began = time.perf_counter()
            if trace_this:
                tracer.install()
                try:
                    traced.append(run_pass(runner, jobs, log))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(run_pass(runner, jobs, log))
            # stop before a pass that would run past --seconds, once every kind of pass ran
            now = time.perf_counter()
            done = args.smoke or now - start + (now - began) > args.seconds
            if done and (args.trace == 0 or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e = end_to_end(untraced, setup, attempted, failed)
    layers = {}
    if traced:
        # in reference units, then back to seconds at the run's median calibration
        overhead = (statistics.median(p["ref"] for p in traced) - e2e["wall_ref"]) * e2e["calibration_s"]
        layers = per_layer(tracer, len(traced), overhead)
    load_end = os.getloadavg()[0]
    env["loadavg_1m"] = {"start": load_start, "end": load_end,
                         "over_nproc": max(load_start, load_end) > env["nproc"]}
    for when, load in (("start", load_start), ("end", load_end)):
        if load > env["nproc"]:
            print(f"perfbench: warning: 1-minute load {load:.2f} exceeds nproc={env['nproc']} "
                  f"at the {when} of the run", file=sys.stderr)

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    missing = [m["name"] for m in gated if m["name"] not in values]
    if missing:
        log.append(f"metrics not produced by this workload: {missing}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    report = {"workload": args.workload, "why": why, "size": size,
              "passes": {"untraced": len(untraced), "traced": len(traced)},
              "pass_walls": {"untraced": [p["wall"] for p in untraced], "traced": [p["wall"] for p in traced]},
              "setup_runs": setup,
              "jobs_per_pass": len(jobs), "attempted": attempted, "failed": failed, "failures": log[:20],
              "environment": env,
              "end_to_end": {k: {"value": v, "unit": units_of(k, declared)} for k, v in e2e.items()},
              "per_layer": {k: {"value": v, "unit": units_of(k, declared)} for k, v in sorted(layers.items())},
              "sha256": passes[-1]["sha256"]}
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if traced:
        tracer.write_spans(out_dir / f"{stem}-spans.jsonl")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {len(jobs)} jobs, {failed} of {attempted} failed")
    for line in log[:20]:
        print(f"  FAILED {line}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in report[section].items():
            print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in gated}
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
