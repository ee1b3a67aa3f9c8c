"""Vector fields, standard-form reduction, and numerical integration.

The flow is x' = -L F(x) + eps * H with a constant forcing vector H; the
node sum k = <1, x> is conserved when eps = 0 and becomes the slow variable
of the standard form otherwise.
Integrators run at a configurable precision tier (16/32/64 digits); the
extended tiers exist because trajectories hugging a repelling branch are
only as long as the available digits allow.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from mpmath.libmp import mpf_add, mpf_mul, mpf_sub, round_nearest

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    IntegrationStalledError,
)
from .graph import Graph
from .precision import ScalarContext, TierVector, exact
from .prng import SplitMix64
from .response import ResponseField

DIVERGENCE_CUTOFF = 1e6


# ---------------------------------------------------------------------------
# perturbations

@dataclass(frozen=True)
class Perturbation:
    """Constant additive forcing H, one exact value per node.

    The slow-fast analysis takes H as a constant vector; `random_constant`
    draws it once from a seeded splitmix64 stream.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(exact(v) for v in self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def constant(cls, values, n: int | None = None) -> "Perturbation":
        if not hasattr(values, "__len__"):
            if n is None:
                raise ValueError("scalar constant perturbation needs n")
            values = [values] * n
        return cls(tuple(values))

    @classmethod
    def zero(cls, n: int) -> "Perturbation":
        return cls.constant([0] * n)

    @classmethod
    def random_constant(cls, n: int, seed: int, lo: float = 0.0, hi: float = 1.0) -> "Perturbation":
        rng = SplitMix64(seed)
        return cls(tuple(rng.uniform(lo, hi) for _ in range(n)))


# ---------------------------------------------------------------------------
# systems

@dataclass(frozen=True)
class PerturbedSystem:
    """Bundle (graph, response field, perturbation, epsilon)."""

    graph: Graph
    field: ResponseField
    perturbation: Perturbation
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", exact(self.epsilon))
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.perturbation.n != self.graph.n:
            raise DimensionMismatchError(
                f"perturbation has {self.perturbation.n} components, graph has {self.graph.n} nodes"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def _neg_laplacian_float(self) -> np.ndarray:
        return -self.graph.laplacian_array()

    @cached_property
    def _laplacian_rows(self) -> list[list[tuple[int, Fraction]]]:
        """The nonzero exact entries (j, L_ij) of each row of L, in ascending j."""
        return [[(j, w) for j, w in enumerate(row) if w != 0] for row in self.graph.laplacian()]

    # --- ODE-system protocol -------------------------------------------------
    @property
    def ode_dimension(self) -> int:
        return self.n

    def state_labels(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.n + 1)]

    @property
    def k_in_state(self) -> bool:
        return False

    def slow_value(self, y):
        total = y[0]
        for v in y[1:]:
            total = total + v
        return total

    def rhs_function(self, ctx: ScalarContext):
        flow = self._flow(ctx)
        if ctx.is_float:
            return flow
        return ctx.vector_function(flow)

    def _flow(self, ctx: ScalarContext):
        """x -> -L F(x) + eps H in the tier of ctx.

        Every exact constant, `eps * h_i` included, is converted to the tier
        once, here.  The extended tiers map lists of raw `_mpf_` tuples and
        apply L from `_laplacian_rows` converted to the tier, O(|E|) per
        call; the skipped terms are exact zeros, so every rounding is that of
        the dense row sum.
        """
        if ctx.is_float:
            neg_l = self._neg_laplacian_float
            fld = self.field
            coeffs = _float_coeffs(fld)
            eps_h = ctx.scalar(self.epsilon) * ctx.vector(self.perturbation.values)
            return lambda y: neg_l @ _field_values_float(fld, coeffs, y) + eps_h

        prec = ctx.working_prec
        rows = [[(j, ctx.raw(w)) for j, w in row] for row in self._laplacian_rows]
        field = self.field.raw_evaluator(ctx)
        zero = ctx.raw(0)
        eps = ctx.raw(self.epsilon)
        eps_h = [mpf_mul(eps, ctx.raw(v), prec, round_nearest) for v in self.perturbation.values]

        def flow(x):
            fvals = field(x)
            out = []
            for row, eps_h_i in zip(rows, eps_h):
                acc = zero
                for j, w in row:
                    acc = mpf_sub(acc, mpf_mul(w, fvals[j], prec, round_nearest), prec, round_nearest)
                out.append(mpf_add(acc, eps_h_i, prec, round_nearest))
            return out

        return flow


def _float_coeffs(fld: ResponseField):
    """Float coefficients of the response, highest degree first; None for a callback."""
    coeffs = getattr(fld.function, "coeffs", None)
    return None if coeffs is None else [float(c) for c in reversed(coeffs)]


def _field_values_float(fld: ResponseField, coeffs, y: np.ndarray) -> np.ndarray:
    """Vectorised response values for float state vectors (`coeffs` from _float_coeffs)."""
    if coeffs is None:  # callback response: evaluate pointwise
        acc = np.array([float(fld.function.eval(float(v))) for v in y])
    else:
        acc = np.full_like(y, coeffs[0])
        for c in coeffs[1:]:
            acc = acc * y + c
    if fld.mean_gauges:
        mean = float(np.mean(y))
        acc = acc + sum(g.eval(mean) for g in fld.mean_gauges)
    return acc


def vector_field(sys: PerturbedSystem, x):
    """Evaluate -L F(x) + eps H in the arithmetic domain of x.

    A float array, or a sequence holding a float, runs the float tier.  Ints,
    Fractions and mpf take the exact path: L is applied from the nonzero
    exact rows `_flow` also reads, so int and Fraction states give the exact
    value and mpf states are evaluated in mpf arithmetic.
    """
    if len(x) != sys.n:
        raise DimensionMismatchError(f"state has {len(x)} components, system has {sys.n}")
    if isinstance(x, np.ndarray) and x.dtype != object:
        return sys.rhs_function(ScalarContext(16))(np.asarray(x, dtype=float))
    if any(isinstance(v, float) for v in x):
        return list(sys.rhs_function(ScalarContext(16))(np.asarray(x, dtype=float)))
    fvals = sys.field.evaluate(x)
    zero = 0 * fvals[0]  # the zero of x's domain: a node without edges stays in it
    eps = sys.epsilon
    out = []
    for row, h in zip(sys._laplacian_rows, sys.perturbation.values):
        acc = zero
        for j, w in row:
            acc = acc - w * fvals[j]
        out.append(acc + eps * h)
    return out


@dataclass(frozen=True)
class StandardFormSystem:
    """Slow-fast standard form after eliminating node l via the conserved sum.

    State is (x_j for j != l, k); the eliminated coordinate is recovered as
    x_l = k - sum of the retained coordinates.
    """

    base: PerturbedSystem
    l: int

    def __post_init__(self):
        if not (1 <= self.l <= self.base.n):
            raise DimensionMismatchError(f"eliminated index {self.l} out of 1..{self.base.n}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.n + 1) if j != self.l)

    def lift(self, fast, k):
        """Full state from (fast coordinates, k)."""
        total = k
        for v in fast:
            total = total - v
        full = list(fast)
        full.insert(self.l - 1, total)
        return full

    def project(self, x):
        """(fast coordinates, k) from a full state."""
        fast = [v for j, v in enumerate(x, start=1) if j != self.l]
        total = x[0]
        for v in x[1:]:
            total = total + v
        return fast, total

    # --- ODE-system protocol -------------------------------------------------
    @property
    def ode_dimension(self) -> int:
        return self.n

    def state_labels(self) -> list[str]:
        return [f"x{j}" for j in self.kept]

    @property
    def k_in_state(self) -> bool:
        return True

    def slow_value(self, y):
        return y[-1]

    def rhs_function(self, ctx: ScalarContext):
        """Lift to the full state, apply the full system's flow, project."""
        sys = self.base
        n = sys.n
        l = self.l
        keep = [j - 1 for j in self.kept]
        flow = sys._flow(ctx)
        if ctx.is_float:
            slow = ctx.scalar(sys.epsilon) * float(np.sum(ctx.vector(sys.perturbation.values)))

            def rhs(y: np.ndarray) -> np.ndarray:
                full = np.empty(n)
                full[keep] = y[:-1]
                full[l - 1] = y[-1] - float(np.sum(y[:-1]))
                return np.append(flow(full)[keep], slow)

            return rhs

        prec = ctx.working_prec
        h = [ctx.raw(v) for v in sys.perturbation.values]
        hsum = h[0]
        for v in h[1:]:
            hsum = mpf_add(hsum, v, prec, round_nearest)
        slow = mpf_mul(ctx.raw(sys.epsilon), hsum, prec, round_nearest)

        def rhs(y):
            # lift: x_l = k - sum of the retained coordinates
            full = y[:-1]
            total = y[-1]
            for v in full:
                total = mpf_sub(total, v, prec, round_nearest)
            full.insert(l - 1, total)
            dx = flow(full)
            out = [dx[i] for i in keep]
            out.append(slow)
            return out

        return ctx.vector_function(rhs)


def to_standard_form(sys: PerturbedSystem, l: int) -> StandardFormSystem:
    return StandardFormSystem(sys, l)


def is_regular_perturbation(sys: PerturbedSystem) -> bool:
    """Whether the forcing sums to exactly zero.

    A zero node-sum keeps k constant, so no slow variable appears; any other
    sum, however small, makes k drift at eps * sum(h).
    """
    return sum(sys.perturbation.values) == 0


# ---------------------------------------------------------------------------
# integration

@dataclass(frozen=True)
class IntegratorConfig:
    """Method, step policy and precision tier for one integration run."""

    method: str = "rk4"
    dt: float = 1e-3
    tol: float = 1e-8
    digits: int = 16
    stride: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("rk4", "dp45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass
class Trajectory:
    """Sampled states with the conserved/slow quantity and run metadata."""

    times: list
    states: list
    k_series: list
    labels: list[str]
    k_in_state: bool
    metadata: dict

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self):
        return self.states[-1]

    def recomputed_k(self, i: int):
        state = self.states[i]
        if self.k_in_state:
            return state[-1]
        total = state[0]
        for v in state[1:]:
            total = total + v
        return total

    def write_csv(self, stream, ctx: ScalarContext | None = None) -> None:
        ctx = ctx or ScalarContext(self.metadata.get("digits", 16))
        fast_slice = slice(None, -1) if self.k_in_state else slice(None)
        stream.write("t," + ",".join(self.labels) + ",k\n")
        for t, state, k in zip(self.times, self.states, self.k_series):
            cells = [ctx.format(t)]
            cells.extend(ctx.format(v) for v in state[fast_slice])
            cells.append(ctx.format(k))
            stream.write(",".join(cells) + "\n")


# Dormand-Prince 5(4) tableau; fifth-order solution is propagated.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _as_floats(y):
    """The components of y that `float(abs(.))` reads: y itself, or a TierVector's floats.

    The divergence test and the dp45 error norm read nothing else of a state.
    """
    return y.floats() if type(y) is TierVector else y


def _diverged(y) -> bool:
    for v in _as_floats(y):
        fv = float(abs(v))
        if math.isnan(fv) or fv > DIVERGENCE_CUTOFF:
            return True
    return False


def integrate(system, x0, tspan, cfg: IntegratorConfig, stop_condition=None) -> Trajectory:
    """Integrate any system exposing the small ODE protocol.

    `stop_condition(t, y)`, when given, ends the run early after recording
    the state that triggered it (used to bound open-ended tracking runs).
    Raises DivergenceError when a component passes the cutoff and
    IntegrationStalledError when the adaptive step underflows; both carry
    the partial trajectory.

    The extended tiers step a TierVector of raw `_mpf_` tuples; recorded
    states and the states passed to `stop_condition` are mpf arrays.
    """
    t0, t1 = tspan
    if not t1 > t0:
        raise ValueError("tspan must satisfy t1 > t0")
    ctx = ScalarContext(cfg.digits)
    with ctx.workprec():
        rhs = system.rhs_function(ctx)
        y = ctx.vector(x0) if ctx.is_float else ctx.tier_vector(x0)
        if len(y) != system.ode_dimension:
            raise DimensionMismatchError(
                f"initial state has {len(y)} components, system has {system.ode_dimension}"
            )
        metadata = {
            "method": cfg.method,
            "digits": cfg.digits,
            "stride": cfg.stride,
            "seed": cfg.seed,
            "dt": cfg.dt,
            "tol": cfg.tol,
            "labels": list(system.state_labels()),
        }
        traj = Trajectory(
            times=[],
            states=[],
            k_series=[],
            labels=list(system.state_labels()),
            k_in_state=system.k_in_state,
            metadata=metadata,
        )
        as_array = (lambda y: y) if ctx.is_float else TierVector.to_array

        def record(t, y):
            state = as_array(y).copy()
            traj.times.append(t)
            traj.states.append(state)
            traj.k_series.append(system.slow_value(state))

        def stop(t, y):
            return stop_condition(t, as_array(y))

        run = _run_rk4 if cfg.method == "rk4" else _run_dp45
        run(system, rhs, y, ctx, t0, t1, cfg, record, stop if stop_condition is not None else None, traj)
        return traj


# Steps keep the vector left of a tier scalar, so the vector's own `*` runs:
# `mpf * TierVector` would first send the vector through mpmath's conversion
# of an unknown operand before Python falls back to `TierVector.__rmul__`.
# Int and float coefficients may stand on either side.
def _rk4_step(rhs, y, t, dt):
    half = dt / 2
    k1 = rhs(y)
    k2 = rhs(y + k1 * half)
    k3 = rhs(y + k2 * half)
    k4 = rhs(y + k3 * dt)
    return y + (k1 + 2 * k2 + 2 * k3 + k4) * (dt / 6)


def _run_rk4(system, rhs, y, ctx, t0, t1, cfg, record, stop_condition, traj):
    span = float(t1) - float(t0)
    nsteps = max(1, round(span / cfg.dt))
    dt = ctx.scalar(exact(t1) - exact(t0)) / nsteps
    t_start = ctx.scalar(t0)
    t = t_start
    record(t, y)
    for step in range(1, nsteps + 1):
        y = _rk4_step(rhs, y, t, dt)
        t = t_start + step * dt
        if _diverged(y):
            record(t, y)
            raise DivergenceError(f"state exceeded divergence cutoff at t={float(t)}", float(t), traj)
        if step % cfg.stride == 0 or step == nsteps:
            record(t, y)
        if stop_condition is not None and stop_condition(t, y):
            if step % cfg.stride != 0 and step != nsteps:
                record(t, y)
            break


def _run_dp45(system, rhs, y, ctx, t0, t1, cfg, record, stop_condition, traj):
    t = ctx.scalar(t0)
    t_end = ctx.scalar(t1)
    dt = ctx.scalar(min(cfg.dt, float(t1) - float(t0)))
    tol = cfg.tol
    record(t, y)
    accepted = 0
    fsal = rhs(y)
    while float(t) < float(t_end):
        # t + (t_end - t) may round short of t_end; a clipped step lands on it
        clipped = float(t) + float(dt) > float(t_end)
        if clipped:
            dt = t_end - t
        ks = [fsal]
        for stage in range(1, 7):
            acc = y + ks[0] * (dt * _DP_A[stage][0])
            for idx in range(1, stage):
                coeff = _DP_A[stage][idx]
                if coeff != 0.0:
                    acc = acc + ks[idx] * (dt * coeff)
            ks.append(rhs(acc))
        y5 = y + sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0) * dt
        y4 = y + sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0) * dt
        err = 0.0
        for a, d, yi in zip(_as_floats(y5), _as_floats(y5 - y4), _as_floats(y)):
            scale = tol + tol * max(float(abs(yi)), float(abs(a)))
            err = max(err, float(abs(d)) / scale)
        if err <= 1.0:
            t = t_end if clipped else t + dt
            y = y5
            fsal = ks[6]  # first-same-as-last
            accepted += 1
            if _diverged(y):
                record(t, y)
                raise DivergenceError(f"state exceeded divergence cutoff at t={float(t)}", float(t), traj)
            if accepted % cfg.stride == 0 or float(t) >= float(t_end):
                record(t, y)
            if stop_condition is not None and stop_condition(t, y):
                if accepted % cfg.stride != 0 and float(t) < float(t_end):
                    record(t, y)
                return
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        factor = min(5.0, max(0.2, factor))
        dt = dt * ctx.scalar(factor)
        if float(dt) < 1e-14 * max(1.0, abs(float(t))) and float(t) < float(t_end):
            record(t, y)
            raise IntegrationStalledError(
                f"step size underflow at t={float(t)}", float(t), traj
            )
    if traj.times and float(traj.times[-1]) < float(t):
        record(t, y)
