"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts the same condition, so the suite gates the build.
"""

import filecmp
import time
from fractions import Fraction

import numpy as np

from alf import (
    Graph,
    IntegratorConfig,
    PermutationGroup,
    Perturbation,
    PerturbedSystem,
    ResponseField,
    ResponseFunction,
    analyze_singularity,
    find_singular_points,
    gauge_shift,
    integrate,
    maximal_canard_certificate,
    plane_reduce,
    sample_manifold,
    slow_divergence_integral,
    to_standard_form,
    vector_field,
)
from alf.cli import canard_metrics, main
from alf.precision import ScalarContext
from alf.prng import SplitMix64

from conftest import random_permutation, rational_state
from float_oracles import flow_stability_probe, gauss_legendre_divergence, tangent_slope_estimate

EX1_RESPONSE = ResponseFunction.from_roots([(1, 2), (-1, 2)])


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {tag}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def _ex1_system(n=3, values=(-1, -1, -1), eps=Fraction(1, 10)):
    return PerturbedSystem(
        Graph.complete(n), ResponseField(EX1_RESPONSE),
        Perturbation.constant(list(values), n), eps,
    )


def test_c01_conservation():
    rng = SplitMix64(1001)  # the ex2-unweighted initial-condition seed
    x0 = [rng.uniform(-1.0, 0.0) for _ in range(10)]
    sys_ = PerturbedSystem(Graph.complete(10), ResponseField(EX1_RESPONSE), Perturbation.zero(10), 0)
    start = time.perf_counter()
    traj = integrate(sys_, x0, (0.0, 50.0), IntegratorConfig(method="rk4", dt=1e-3, stride=100))
    elapsed = time.perf_counter() - start
    k0 = traj.k_series[0]
    drift = max(abs(k - k0) for k in traj.k_series) / abs(k0)
    _report(1, "unperturbed K10 keeps k within 1e-9 relative over t<=50",
            drift <= 1e-9 and elapsed < 10.0, f"drift={drift:.2e}, {elapsed:.1f}s")


def test_c02_equivariance():
    rng = SplitMix64(2)
    sys_ = PerturbedSystem(Graph.complete(5), ResponseField(EX1_RESPONSE), Perturbation.zero(5), 0)
    worst_float = 0.0
    exact_ok = True
    for _ in range(100):
        sigma = random_permutation(rng, 5)
        x = rational_state(rng, 5)
        lhs = sigma.apply(vector_field(sys_, x))
        rhs = vector_field(sys_, sigma.apply(x))
        if any(a != b for a, b in zip(lhs, rhs)):
            exact_ok = False
        xf = np.array([float(v) for v in x])
        lf = sigma.apply(list(vector_field(sys_, xf)))
        rf = vector_field(sys_, np.array(sigma.apply(list(xf))))
        worst_float = max(worst_float, max(abs(a - b) for a, b in zip(lf, rf)))
    _report(2, "K5 equivariance exact over 100 random (sigma, x); float path <= 1e-12",
            exact_ok and worst_float <= 1e-12, f"float residual={worst_float:.2e}")


def test_c03_gauge_invariance():
    rng = SplitMix64(3)
    base_field = ResponseField(EX1_RESPONSE)
    sys_base = PerturbedSystem(Graph.complete(4), base_field, Perturbation.constant(1, 4), Fraction(1, 20))
    shifts = [
        ResponseFunction.from_coeffs([rng.uniform(-2, 2)]),      # random constant
        ResponseFunction.from_coeffs([0, 1]),                    # mean of the state
        ResponseFunction.from_coeffs([rng.uniform(-1, 1), 0.5, 0.25]),  # mean polynomial
    ]
    worst = 0.0
    for h in shifts:
        shifted = PerturbedSystem(sys_base.graph, gauge_shift(base_field, h),
                                  sys_base.perturbation, sys_base.epsilon)
        for _ in range(100):
            x = [rng.uniform(-1.5, 1.5) for _ in range(4)]
            a = vector_field(sys_base, x)
            b = vector_field(shifted, x)
            worst = max(worst, max(abs(u - v) for u, v in zip(a, b)))
    _report(3, "gauge-shifted response leaves the flow unchanged to 1e-12",
            worst <= 1e-12, f"worst={worst:.2e}")


def test_c04_standard_form_equivalence():
    rng = SplitMix64(4)
    worst = 0.0
    for trial in range(10):
        a = 0.5 + 1.5 * rng.uniform()
        b = 0.1 + 0.9 * rng.uniform()
        f = ResponseFunction.from_coeffs([0, a, 0, b])
        pert = Perturbation.constant([rng.uniform(-1, 1) for _ in range(5)])
        sys_ = PerturbedSystem(Graph.complete(5), ResponseField(f), pert, Fraction(1, 20))
        x0 = [rng.uniform(-1, 1) for _ in range(5)]
        cfg = IntegratorConfig(method="rk4", dt=1e-3, stride=100)
        full = integrate(sys_, x0, (0.0, 10.0), cfg)
        std_sys = to_standard_form(sys_, 1 + trial % 5)
        fast, k = std_sys.project(x0)
        std = integrate(std_sys, fast + [k], (0.0, 10.0), cfg)
        for i in range(len(full.times)):
            lifted = std_sys.lift(list(std.states[i][:-1]), std.states[i][-1])
            worst = max(worst, max(abs(u - v) for u, v in zip(lifted, full.states[i])))
    _report(4, "lifted standard-form trajectories match full runs to 1e-10 (10 random K5)",
            worst <= 1e-10, f"worst={worst:.2e}")


def test_c05_singularity_analysis_ex1():
    ps = plane_reduce(_ex1_system(), 3)
    xs = find_singular_points(EX1_RESPONSE, -2.5, 2.5)
    reports = sorted((analyze_singularity(ps, x) for x in xs), key=lambda r: float(r.k_s))
    ok = len(reports) == 3
    expected = [(-3.0, 8.0, "type-1"), (0.0, -4.0, "type-2"), (3.0, 8.0, "type-1")]
    detail = []
    for rep, (k_exp, d2f_exp, type_exp) in zip(reports, expected):
        ok &= abs(float(rep.k_s) - k_exp) <= 1e-10
        ok &= abs(float(rep.d2f) - d2f_exp) <= 1e-10
        ok &= rep.sing_type == type_exp
        if rep.sing_type == "type-1":
            ok &= rep.lam == 1 and rep.canard
        # brute-force two-sided stability at x* offset 1e-4 from the singular point
        approach = flow_stability_probe(ps, float(rep.k_s) + 3 * 1e-4, offset=1e-7)
        departure = flow_stability_probe(ps, float(rep.k_s) - 3 * 1e-4, offset=1e-7)
        # slow flow moves toward decreasing k here (perturbation sum is -3)
        probe_type = "type-1" if (approach, departure) == ("attracting", "repelling") else (
            "type-2" if (approach, departure) == ("repelling", "attracting") else "other"
        )
        ok &= probe_type == rep.sing_type
        detail.append(f"k={float(rep.k_s):+.0f}:{rep.sing_type}")
    _report(5, "three singular points at k in {-3,0,3} with d2f (8,-4,8), lambda=1 canards, "
               "types match the flow probe", ok, " ".join(detail))


def test_c06_tangent_slopes():
    worst = 0.0
    for n in (3, 5, 10):
        ps = plane_reduce(_ex1_system(n=n, values=(-1,) * n), n)
        for x_s in (1, 0, -1):
            rep = analyze_singularity(ps, x_s)
            slope = tangent_slope_estimate(ps, rep)
            worst = max(worst, abs(slope - (n - 2)))
    _report(6, "continuation slope within 1e-3 of n-2 for n in {3,5,10} at every singular point",
            worst <= 1e-3, f"worst={worst:.2e}")


def test_c07_slow_divergence_symmetry():
    ps = plane_reduce(_ex1_system(), 3)
    exact_val = slow_divergence_integral(ps, -3, 3)
    # two Gauss-Legendre nodes integrate the cubic f' exactly, up to the oracle's rounding bound
    oracle, bound = gauss_legendre_divergence(ps, -3, 3)
    _report(7, "slow-divergence integral over [-3,3] vanishes exactly and in the float oracle",
            exact_val == 0 and abs(oracle) <= bound, f"exact={exact_val}, oracle={oracle:.1e}, bound={bound:.1e}")


def _canard_run(eps: Fraction, values, t_end: float):
    sys_ = _ex1_system(values=values, eps=eps)
    ps = plane_reduce(sys_, 3)
    ctx = ScalarContext(32)
    with ctx.workprec():
        k0 = ctx.scalar(4)
        x0 = k0 / 3
    tube = 10.0 * float(eps)

    def stop(t, y):
        return abs(float(y[0]) - float(y[1]) / 3) > 3.0 * tube

    cfg = IntegratorConfig(method="rk4", dt=0.005, digits=32, stride=20)
    traj = integrate(ps, [x0, k0], (0.0, t_end), cfg, stop_condition=stop)
    return canard_metrics(traj, 3, 3.0, float(eps)), traj


def test_c08_canard_reproduction():
    start = time.perf_counter()
    metrics_big, traj_big = _canard_run(Fraction(1, 10), (-1, -1, -1), 40.0)
    metrics_small, _ = _canard_run(Fraction(1, 100), (-1, -1, -1), 80.0)
    metrics_non, _ = _canard_run(Fraction(1, 100), (-1, -1, 0), 80.0)
    elapsed = time.perf_counter() - start

    # eps=0.1: stays in the (wide) tube across the k=3 crossing
    tube_big = metrics_big["tube_width"]
    near_cross = [
        abs(float(s[0]) - float(k) / 3) <= tube_big
        for s, k in zip(traj_big.states, traj_big.k_series)
        if 2.5 <= float(k) <= 3.5
    ]
    ok = metrics_big["crossed"] and all(near_cross)

    # eps=0.01: follows the repelling stretch at least 0.5 beyond the crossing
    ok &= metrics_small["departure_k"] is not None
    depth = 3.0 - metrics_small["departure_k"]
    ok &= depth >= 0.5
    # entry/exit slow-time symmetry within 20 percent
    ratio = metrics_small["slow_time_after"] / metrics_small["slow_time_before"]
    ok &= 0.8 <= ratio <= 1.2
    # non-critical perturbation (lambda = 1/2) departs within 0.2 of the crossing
    ok &= metrics_non["departure_k"] is not None
    ok &= 3.0 - metrics_non["departure_k"] <= 0.2
    ok &= elapsed < 120.0
    _report(8, "canard tracked 0.5 past the singularity (eps=0.01, 32 digits), entry/exit "
               "symmetry within 20%, non-critical run departs within 0.2",
            ok, f"depth={depth:.2f}, ratio={ratio:.2f}, non-critical "
                f"dk={3.0 - metrics_non['departure_k']:.3f}, {elapsed:.0f}s")


def test_c09_maximal_canard_certificate():
    rng = SplitMix64(9)
    ok = True
    details = []
    for n in (3, 10):
        sys_ = PerturbedSystem(
            Graph.complete(n), ResponseField(EX1_RESPONSE),
            Perturbation.constant(1, n), Fraction(1, 100),
        )
        samples = [rational_state(rng, n) for _ in range(5)]
        cert = maximal_canard_certificate(sys_, PermutationGroup.symmetric(n), samples)
        ok &= cert.verdict
        traj = integrate(sys_, [1.5] * n, (0.0, 100.0), IntegratorConfig(dt=1e-3, stride=200))
        dev = 0.0
        for state in traj.states:
            mean = sum(state) / n
            dev = max(dev, max(abs(v - mean) for v in state))
        ok &= dev <= 1e-12
        details.append(f"n={n}: dev={dev:.1e}")
    _report(9, "uniform forcing certificate true and consensus trajectory invariant to 1e-12",
            ok, "; ".join(details))


def test_c10_weighted_unweighted_spectra():
    from alf.config import build_graph
    from alf.presets import get_preset

    weighted = build_graph(get_preset("ex2-weighted")["graph"])
    unit = Graph.complete(10)
    lw = weighted.laplacian_array()
    lu = unit.laplacian_array()
    fp = EX1_RESPONSE.derivative()

    def sign_pattern(matrix, slope):
        eigs = np.linalg.eigvalsh(-slope * matrix)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        out = []
        for mu in eigs:
            out.append(0 if abs(mu) < 1e-8 * scale else (1 if mu > 0 else -1))
        return sorted(out)

    ok = True
    for x_star in np.linspace(-1.5, 1.5, 20):
        slope = float(fp.eval(float(x_star)))
        ok &= sign_pattern(lw, slope) == sign_pattern(lu, slope)
    _report(10, "Jacobian spectra sign patterns agree for weighted vs unit K10 at 20 consensus points", ok)


def test_c11_bifurcation_diagrams():
    window = dict(k_range=(-4.5, 4.5), x_range=(-2.5, 2.5), grid=(181, 201), residual_tol=1e-9)

    def sample(tag, lam):
        f = ResponseFunction.family(tag, lam)
        from alf import PlaneSystem

        return sample_manifold(PlaneSystem(n=3, f=f), **window)

    a0 = sample("ex3a", 0.0)
    a5 = sample("ex3a", 0.5)
    b5 = sample("ex3b", 0.5)
    b1 = sample("ex3b", 1.0)
    ex1 = sample_manifold(plane_reduce(_ex1_system(), 3), **window)

    ok = a0.branch_count() == 1
    ok &= a5.branch_count() > 1
    ok &= b5.branch_count() > a5.branch_count()
    # independent root-count oracle: the richer family carries more roots in
    # total and a higher per-gridline maximum
    def counts(s):
        kc = {}
        for p in s.points:
            kc[round(p.k, 9)] = kc.get(round(p.k, 9), 0) + 1
        return kc

    ca, cb = counts(a5), counts(b5)
    ok &= sum(cb.values()) > sum(ca.values())
    ok &= max(cb.values()) > max(ca.values())

    # family b at lambda=1 reproduces the first example's point set
    pts_ex1 = sorted((round(p.k, 9), p.x) for p in ex1.points)
    pts_b1 = sorted((round(p.k, 9), p.x) for p in b1.points)
    ok &= len(pts_ex1) == len(pts_b1)
    ok &= all(ka == kb and abs(xa - xb) <= 1e-6 for (ka, xa), (kb, xb) in zip(pts_ex1, pts_b1))
    _report(11, "branch counts: ex3a 1@0 then grows, ex3b exceeds ex3a at 0.5, ex3b@1 matches ex1",
            ok, f"a0={a0.branch_count()} a5={a5.branch_count()} b5={b5.branch_count()}")


def test_c12_preset_determinism(tmp_path):
    jobs = {
        "ex1": ["singularities"],
        "ex1-manifold": ["manifold"],
        "ex1-canard": ["canard"],
        "ex2-unweighted": ["simulate", "--svg"],
        "ex2-weighted": ["simulate", "--svg"],
        "ex3a": ["bifurcation"],
        "ex3b": ["bifurcation"],
    }
    ok = True
    for preset, argv in jobs.items():
        dirs = []
        for run in (1, 2):
            out = tmp_path / f"{preset}-{run}"
            code = main([argv[0], "--preset", preset, "--out", str(out), *argv[1:]])
            ok &= code == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        ok &= files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            ok &= filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
    _report(12, "every preset emits byte-identical outputs across repeated runs", ok)
