"""Vector fields, standard-form reduction, and numerical integration.

The flow is x' = -L F(x) + eps * H with a constant forcing vector H; the
node sum k = <1, x> is conserved when eps = 0 and becomes the slow variable
of the standard form otherwise.
Integrators run at a configurable precision tier (16/32/64 digits); the
extended tiers exist because trajectories hugging a repelling branch are
only as long as the available digits allow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from math import isfinite
from numbers import Integral
from operator import add, sub

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    IntegrationStalledError,
    PreconditionError,
)
from .graph import Graph
from .precision import (
    ScalarContext, common_denominator, dyadic, exact, frame_array, frame_floats, is_mpf, lazy_mpmath, round_frame,
    round_ratio, round_rationals, rounded, signed,
)
from .prng import SplitMix64
from .response import ResponseField, float_constant

DIVERGENCE_CUTOFF = 1e6
_CUTOFF_SQUARED = DIVERGENCE_CUTOFF ** 2  # 1e12, exact
MAX_RK4_STEPS = 2 ** 32  # rk4's largest step count, far above any preset's


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
                raise PreconditionError("scalar constant perturbation needs n")
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
            raise PreconditionError("epsilon must be >= 0")
        if self.perturbation.n != self.graph.n:
            raise DimensionMismatchError(
                f"perturbation has {self.perturbation.n} components, graph has {self.graph.n} nodes"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def _flows(self) -> dict:
        return {}

    def _full_flow(self, prec):
        """`integer_flow(prec)`, built once per precision (prec None: exact)."""
        flows = self._flows
        if prec not in flows:
            flows[prec] = self.integer_flow(prec)
        return flows[prec]

    @cached_property
    def _float_flow(self):
        """x -> -L F(x) + eps H on float arrays, returned in a new array; built once per system.

        `ndarray.dot` applies the Laplacian: the same BLAS call as `@`, with
        less dispatch per call.  A term eps * h_i outside float64's range is
        refused (`check_float_forcing`).
        """
        neg_l = -self.graph.laplacian_array()
        fld = self.field
        plan = _horner_plan(fld)
        eps = float(self.epsilon)
        eps_h = np.array([eps * float(v) for v in self.perturbation.values])
        check_float_forcing(eps_h)

        def flow(y):
            out = neg_l.dot(_field_values_float(fld, plan, y))
            out += eps_h
            return out

        return flow

    def integer_flow(self, prec):
        """(X, d) -> (V, den): -L F(x) + eps H at x_j = X_j / d is V_i / den, a new list V.

        The constants are exact (prec None) or each rounded once to prec
        bits: -L_ij and eps * h_i over one denominator each, and the
        response's.  The off-diagonal W_ij split as c (J - I) + S, c their
        most common entry (an absent one reads 0), so row i is
        c sum(F) + (W_ii - c) F_i + sum_j S_ij F_j: O(n + nnz(S)) per call,
        the dense row sum's integers for any c.  On unit K_n S is empty; on
        a sparse graph c is 0 and S the edges.  A mean gauge adds g(mean) to
        every response value, so g(mean) times the sum of the row's converted
        weights to a row.  Those sums are zero for exact and for rounded
        dyadic weights, and the gauges are then skipped; otherwise they are
        evaluated exactly.
        """
        values = self.field.function.integer_evaluator(prec)
        laplacian = self.graph.laplacian()
        # -L_ij == W_ij / lap_den, rounding (to nearest, ties to even) commuting with the sign; each distinct
        # entry is rounded once, keyed by its integers, since a Fraction's hash costs a modular inverse
        distinct = {(w.numerator, w.denominator): w for row in laplacian for _, w in row}
        nums, lap_den = common_denominator([rounded(w, prec) for w in distinct.values()])
        entries = dict(zip(distinct, nums))
        lap = [{j: -entries[w.numerator, w.denominator] for j, w in row} for row in laplacian]
        forcing, h_den = common_denominator([rounded(self.epsilon * h, prec) for h in self.perturbation.values])
        row_sums = [sum(row.values()) for row in lap]
        gauges = self.field.mean_gauges if any(row_sums) else ()
        off = [w for i, row in enumerate(lap) for j, w in row.items() if j != i]
        # the absent entries are counted first, so 0 wins a tie
        counts = Counter({0: self.n * (self.n - 1) - len(off)})
        counts.update(off)
        c = counts.most_common(1)[0][0]
        # row i's (W_ii - c) and S's entries, each (j, W_ij - c) where W_ij != c; with c 0, the row itself
        split = [[(j, w - c) for j in (range(self.n) if c else row) if (w := row.get(j, 0)) != c] for row in lap]

        @lru_cache(maxsize=1)
        def terms(den):
            # over out_den, a common multiple of the rows' and the forcing's denominators; kept for the last den
            row_den = lap_den * den
            out_den = row_den if row_den % h_den == 0 else row_den * h_den
            b = out_den // h_den
            return out_den // row_den, [h * b for h in forcing], out_den

        def flow(xs, d):
            fv, den = values(xs, d)
            a, hs, out_den = terms(den)
            total = c * sum(fv) if c else 0
            sums = [sum([w * fv[j] for j, w in row], total) * a + h for row, h in zip(split, hs)]
            if not gauges:
                return sums, out_den
            # row i gains row_sums[i] / lap_den times the shift
            shift = sum(g.eval(Fraction(sum(xs), len(xs) * d)) for g in gauges)
            b = out_den // lap_den * shift.numerator
            return [v * shift.denominator + r * b for v, r in zip(sums, row_sums)], out_den * shift.denominator

        return flow

    # --- ODE-system protocol -------------------------------------------------
    def state_labels(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.n + 1)]

    @property
    def k_in_state(self) -> bool:
        return False

    def rhs_function(self, ctx: ScalarContext):
        """The float flow, or on the extended tiers frame -> frame: the exact flow, each component rounded once."""
        if ctx.is_float:
            return self._float_flow
        prec = ctx.working_prec
        flow = self._full_flow(prec)

        def rhs(frame):
            xs, exp = frame
            return round_rationals(*flow(xs, 1 << -exp), prec)

        return rhs


def node_sum(y):
    """The node sum, one left fold; an array's `tolist()` folds Python floats (the same doubles) or its mpfs."""
    return reduce(add, y.tolist() if type(y) is np.ndarray else y)


def check_float_forcing(values) -> None:
    """Refuse float forcing terms (epsilon times a forcing value or sum) outside float64's range.

    Such a term would make the first step diverge; it raises
    PreconditionError instead.
    """
    if not all(map(isfinite, values)):
        raise PreconditionError("epsilon times the forcing is outside the float tier's range")


def _horner_plan(fld: ResponseField):
    """The float Horner loop of the response polynomial as in-place steps.

    The loop acc = c0; acc = acc * y + c over the later coefficients c
    (highest degree first) becomes (c0, first, later): (ufunc, operand)
    steps on acc = y, an operand None standing for y.  `first` allocates
    the result, `later` works in place; a constant has no steps.  Left out,
    with every bit kept: the product by a leading coefficient 1 (1.0 * y is
    y), and the + 0.0 of a zero coefficient other than the last.  That add
    changes only the sign of a zero; the products after it keep a zero a
    zero (or make it NaN), and a later add gives both signs the same value.
    The coefficients are `float_constant`s held as 0-d float64 arrays: the
    same values, and a ufunc dispatches on them faster than on Python floats.

    The plan reads the expanded coefficients whatever the response's form,
    so the float flow of the full system evaluates a factored response by
    Horner too, not by the factored loop that `ResponseFunction.eval` runs.
    """
    top, *rest = [np.array(float_constant(c)) for c in reversed(fld.function.coeffs)]
    steps = [] if top == 1.0 or not rest else [(np.multiply, top)]
    for i, c in enumerate(rest, start=1):
        if i > 1:
            steps.append((np.multiply, None))
        if c != 0.0 or i == len(rest):
            steps.append((np.add, c))
    return top, (steps[0] if steps else None), tuple(steps[1:])


def _field_values_float(fld: ResponseField, plan, y: np.ndarray) -> np.ndarray:
    """Vectorised response values for a float state vector, in a new array.

    `plan` is `_horner_plan(fld)`, built once per right-hand side.
    """
    top, first, later = plan
    if first is None:
        acc = np.full_like(y, top)
    else:
        op, c = first
        acc = op(y, y if c is None else c)
        for op, c in later:
            op(acc, y if c is None else c, acc)
    if fld.mean_gauges:
        mean = float(np.mean(y))
        acc = acc + sum(g.eval(mean) for g in fld.mean_gauges)
    return acc


def vector_field(sys: PerturbedSystem, x):
    """Evaluate -L F(x) + eps H in the arithmetic domain of x.

    A float array, or a sequence holding a float or a numpy float, runs the
    float tier.  A state of ints, Fractions and mpfs is read exactly and
    evaluated by the system's one integer kernel (`integer_flow`): as exact
    Fractions, the mean gauges skipped since they cancel in the exact rows of
    L; or, when it holds an mpf, as mpfs, each the exact value on constants
    rounded to the current precision, rounded once, as `ResponseFunction.eval`
    of an mpf is.  A NaN or infinite mpf makes every component NaN.
    Any other component type raises TypeError.
    """
    if len(x) != sys.n:
        raise DimensionMismatchError(f"state has {len(x)} components, system has {sys.n}")
    types = set(map(type, x))
    prec, rationals = None, x
    if not types <= {int, Fraction}:
        if any([issubclass(t, (float, np.floating)) for t in types]):
            out = sys.rhs_function(ScalarContext(16))(np.asarray(x, dtype=float))
            return out if isinstance(x, np.ndarray) else list(out)
        rationals = []
        for v in x:
            if is_mpf(v):
                if not lazy_mpmath.isfinite(v):
                    return [lazy_mpmath.mpf("nan") for _ in x]
                prec, v = lazy_mpmath.mp.prec, dyadic(v._mpf_)
            elif not isinstance(v, (int, Fraction)):
                if not isinstance(v, Integral):
                    raise TypeError(f"vector_field reads floats, ints, Fractions and mpfs, not {type(v).__name__}")
                v = int(v)
            rationals.append(v)
    nums, den = sys._full_flow(prec)(*common_denominator(rationals))
    if prec is None:
        return [Fraction(v, den) for v in nums]
    return list(frame_array(round_rationals(nums, den, prec)))


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
        full = list(fast)
        full.insert(self.l - 1, reduce(sub, fast, k))
        return full

    def project(self, x):
        """(fast coordinates, k) from a full state."""
        fast = [v for j, v in enumerate(x, start=1) if j != self.l]
        return fast, node_sum(x)

    # --- ODE-system protocol -------------------------------------------------
    def state_labels(self) -> list[str]:
        return [f"x{j}" for j in self.kept]

    @property
    def k_in_state(self) -> bool:
        return True

    def rhs_function(self, ctx: ScalarContext):
        """Lift to the full state, apply the system's one flow, drop row l, add the slow drift (and round once)."""
        sys = self.base
        l = self.l
        if ctx.is_float:
            flow = sys._float_flow
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(np.sum(ctx.vector(sys.perturbation.values)))
            slow = ctx.scalar(sys.epsilon) * total
            check_float_forcing([slow])
            # lift: y's entry for each node of the full state, k standing in for x_l until it is set;
            # project: the retained nodes' entries of the full derivative, then x_l's, replaced by the drift
            lift = np.array([*range(l - 1), sys.n - 1, *range(l - 1, sys.n - 1)])
            project = np.array([j - 1 for j in self.kept] + [l - 1])
            total = np.add.reduce

            def rhs(y: np.ndarray) -> np.ndarray:
                full = y.take(lift)
                full[l - 1] = y[-1] - total(y[:-1])
                out = flow(full).take(project)
                out[-1] = slow
                return out

            return rhs

        prec = ctx.working_prec
        flow = sys._full_flow(prec)
        slow = rounded(sys.epsilon * sum(sys.perturbation.values), prec)
        s_num, s_den = slow.numerator, slow.denominator

        def fixed_rhs(frame):
            xs, exp = frame
            # lift, exactly: x_l = k - sum of the retained coordinates
            full = xs[:-1]
            full.insert(l - 1, xs[-1] - sum(full))
            nums, den = flow(full, 1 << -exp)
            del nums[l - 1]
            # the slow drift, a tier value, joins exactly over a common denominator
            if den % s_den:
                nums, den = [v * s_den for v in nums], den * s_den
            nums.append(s_num * (den // s_den))
            return round_rationals(nums, den, prec)

        return fixed_rhs


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

    def __post_init__(self):
        if self.method not in ("rk4", "dp45"):
            raise PreconditionError(f"unknown integrator method {self.method!r}")
        if not self.dt > 0:
            raise PreconditionError("dt must be positive")
        if not self.tol > 0:
            raise PreconditionError("tol must be positive")
        if self.stride < 1:
            raise PreconditionError("stride must be >= 1")


@dataclass
class Trajectory:
    """Sampled states with the conserved/slow quantity and run metadata."""

    times: list
    states: list
    k_series: list
    labels: list[str]
    k_in_state: bool
    metadata: dict

    @property
    def final_state(self):
        return self.states[-1]

    def write_csv(self, stream) -> None:
        """One row per sample, each number printed at the run's precision tier.

        A float-tier row is `repr` over the Python floats of t, the state's
        `tolist()` and k: the strings `ScalarContext(16).format` gives.
        """
        ctx = ScalarContext(self.metadata["digits"])
        fast_slice = slice(None, -1) if self.k_in_state else slice(None)
        stream.write("t," + ",".join(self.labels) + ",k\n")
        for t, state, k in zip(self.times, self.states, self.k_series):
            if ctx.is_float:
                cells = map(repr, [float(t), *state[fast_slice].tolist(), float(k)])
            else:
                cells = map(ctx.format, [t, *state[fast_slice], k])
            stream.write(",".join(cells) + "\n")


# Dormand-Prince 5(4) tableau; the fifth-order solution is propagated.  The
# float tier steps with the float values of the coefficients, the extended
# tiers with dt times the exact ones, rounded to the tier once per step.
_DP_A_EXACT = tuple(tuple(Fraction(a) for a in row) for row in (
    (),
    ("1/5",),
    ("3/40", "9/40"),
    ("44/45", "-56/15", "32/9"),
    ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
    ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
    ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"),
))
_DP_B5_EXACT = _DP_A_EXACT[6] + (Fraction(0),)
_DP_B4_EXACT = tuple(Fraction(b) for b in (
    "5179/57600", "0", "7571/16695", "393/640", "-92097/339200", "187/2100", "1/40"))
_DP_A = tuple(tuple(float(a) for a in row) for row in _DP_A_EXACT)
_DP_B5 = tuple(float(b) for b in _DP_B5_EXACT)
_DP_B4 = tuple(float(b) for b in _DP_B4_EXACT)
_DP_ERR_EXACT = tuple(b5 - b4 for b5, b4 in zip(_DP_B5_EXACT, _DP_B4_EXACT))


def _floats(y):
    """The float values of y's components: y itself on the float tier, a frame's `frame_floats` list otherwise.

    The divergence test, the stop condition, the escape test and the dp45
    error norm read nothing else of a state.
    """
    return y if type(y) is np.ndarray else frame_floats(y)


def _diverged(y: np.ndarray) -> bool:
    """Whether a float state has a NaN or a component above DIVERGENCE_CUTOFF in absolute value (max propagates NaN).

    One dot product settles the common case: a rounded sum of non-negative
    terms is at least its largest rounded term, so y . y < cutoff**2 fails on
    any NaN, infinity, overflowing square or |y_i| above the cutoff.  Only
    when it fails does the elementwise test run.  `np.vdot` is the BLAS dot
    that does not report an overflowing square as a RuntimeWarning, as
    `ndarray.dot` does.
    """
    return not (np.vdot(y, y) < _CUTOFF_SQUARED or np.maximum.reduce(np.abs(y)) <= DIVERGENCE_CUTOFF)


def _diverged_floats(view) -> bool:
    """`_diverged` of an extended-tier state, read on its float view (`_floats`): each float(v) past the cutoff."""
    return not all([abs(v) <= DIVERGENCE_CUTOFF for v in view])


def _escapes(before, y, dy, span: float) -> bool:
    """Whether y outgrew the accepted state `before` and, at its rate dy, passes the cutoff within span.

    A step size that underflows on such a state marks a finite-time blow-up,
    not a right-hand side that the error control cannot resolve.
    """
    now = np.asarray(_floats(y))
    rate = np.asarray(_floats(dy))
    if not np.abs(now).max() > np.abs(_floats(before)).max():
        return False
    outward = now * rate > 0
    return bool((outward & (np.abs(rate) * span > DIVERGENCE_CUTOFF - np.abs(now))).any())


def state_size(system) -> int:
    """One component per label, and k when it is in the state."""
    return len(system.state_labels()) + system.k_in_state


def integrate(system, x0, tspan, cfg: IntegratorConfig, stop_condition=None) -> Trajectory:
    """Integrate a system of the three-member ODE protocol: `state_labels()`, `k_in_state`, `rhs_function(ctx)`.

    The state size is `state_size(system)`, and the recorded k the state's
    last component when k is in it, otherwise its `node_sum`.
    `stop_condition(t, y)`, when given, ends the run early after recording
    the state that triggered it (used to bound open-ended tracking runs).
    t is the tier scalar; y is `_floats` of the state: the float array on
    the 16-digit tier, and on the extended tiers the list of its components'
    float values, each `float()` of the component's mpf, built once per
    state and read by the divergence test first.
    A span whose float length t1 - t0, or rk4's span / dt, is not finite, or
    rk4's step count above MAX_RK4_STEPS, raises PreconditionError before
    the first step; dp45's count is not known in advance and has no cap.
    Raises DivergenceError when a component passes the cutoff, or when the
    adaptive step underflows on a state that would pass it before t1, and
    IntegrationStalledError when the adaptive step underflows otherwise;
    both carry the partial trajectory.

    The state is the tier's vector (`ScalarContext.vector`): on the extended
    tiers, a frame (ints, exp) that the right-hand side reads and returns
    and the steps sum exactly; recorded states and the partial trajectory of
    an error are mpf arrays.  An initial state that fails the divergence
    test, a NaN or an infinity included, is recorded and raises
    DivergenceError at t0.

    Every early ending (a divergence, the stop condition, dp45's stall) goes
    through one `stop`: it records the stopping state unless that state, the
    count-th accepted one, was the last recorded, names the stop reason and
    raises the error, or returns True for the stop condition.  The metadata
    counts the accepted steps and dp45's rejected ones, and names the stop
    reason: "end", "stop_condition", "divergence" or "stall".
    """
    t0, t1 = tspan
    if not t1 > t0:
        raise PreconditionError("tspan must satisfy t1 > t0")
    span = float(t1) - float(t0)
    steps = span / cfg.dt
    if not isfinite(span) or cfg.method == "rk4" and not (isfinite(steps) and round(steps) <= MAX_RK4_STEPS):
        raise PreconditionError(f"tspan {list(tspan)} with dt={cfg.dt}: the span or rk4's step count is not finite, "
                                f"or the step count is above {MAX_RK4_STEPS}")
    ctx = ScalarContext(cfg.digits)
    with ctx.workprec():
        rhs = system.rhs_function(ctx)
        # the tier's scalars: a frame holds finite values only, so the test at t0 reads these
        y = np.array([ctx.scalar(v) for v in x0], dtype=float if ctx.is_float else object)
        size = state_size(system)
        if len(y) != size:
            raise DimensionMismatchError(f"initial state has {len(y)} components, system has {size}")
        metadata = {
            "method": cfg.method,
            "digits": cfg.digits,
            "stride": cfg.stride,
            "dt": cfg.dt,
            "tol": cfg.tol,
            "accepted_steps": 0,
            "rejected_steps": 0,
        }
        traj = Trajectory(times=[], states=[], k_series=[], labels=list(system.state_labels()),
                          k_in_state=system.k_in_state, metadata=metadata)
        diverged = _diverged if ctx.is_float else _diverged_floats
        k_value = (lambda state: state[-1]) if system.k_in_state else node_sum
        last_recorded = 0

        def record(count: int, t, y):
            nonlocal last_recorded
            last_recorded = count
            state = y.copy() if type(y) is np.ndarray else frame_array(y)
            traj.times.append(t)
            traj.states.append(state)
            traj.k_series.append(k_value(state))

        def stop(reason: str, t, y, count: int, message: str = "") -> bool:
            """End the run at the state y at t after the count-th accepted step, recorded once.

            True for the stop condition; a divergence or a stall raises its
            error with the partial trajectory.
            """
            if count != last_recorded:
                record(count, t, y)
            metadata["stop_reason"] = reason
            if reason == "stop_condition":
                return True
            if reason == "divergence":
                raise DivergenceError(message, float(t), traj)
            raise IntegrationStalledError(message, float(t), traj)

        def accept(count: int, t, y, view, last: bool) -> bool:
            """Check and record the state y at t after the count-th accepted step; True when the run stops here.

            Every stride-th state and the last one are recorded; the divergence
            test and the stop condition read its float view, `view` == `_floats(y)`.
            """
            metadata["accepted_steps"] = count
            if diverged(view):
                stop("divergence", t, y, count, f"state exceeded divergence cutoff at t={float(t)}")
            if count % cfg.stride == 0 or last:
                record(count, t, y)
            if stop_condition is not None and stop_condition(t, view):
                return stop("stop_condition", t, y, count)
            return False

        t = ctx.scalar(t0)
        record(0, t, y)
        if _diverged(np.array(y, dtype=float)):
            stop("divergence", t, y, 0, f"state exceeded divergence cutoff at t={float(t)}")
        if not ctx.is_float:
            y = ctx.vector(y)
        # an overflowing state turns into inf and NaN, which the divergence tests catch
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.method == "rk4":
                _run_rk4(rhs, y, ctx, t0, t1, cfg, accept)
            else:
                _run_dp45(rhs, y, ctx, t0, t1, cfg, accept, stop, metadata)
        metadata.setdefault("stop_reason", "end")
        return traj


# The forcing is constant, so the flow is autonomous and the step reads no
# time.  Both tiers form each stage input, y + k (dt/2) or y + k3 dt, and the
# update y + (((k1 + 2 k2) + 2 k3) + k4) (dt/6).  The float tier takes these
# numpy operations in this order, each rounded, in arrays the step allocates
# itself (y + s is s + y in IEEE arithmetic); it writes into neither y nor an
# array that rhs returned.  There dt is what `_float_rk4_dt` builds once per
# run: dt/2, dt, dt/6 and 2.0 as 0-d float64 arrays, the values the step
# would compute from the float dt.  The extended tiers take each as one exact
# sum per component of the frames, rounded once (`round_frame`); there dt is
# what `_fixed_rk4_dt` builds once per run: dt/2, dt and dt/6 as (m, e)
# pairs, each m * 2**e, and the working precision.
def _rk4_step(rhs, y, dt):
    k1 = rhs(y)
    if type(y) is np.ndarray:
        half, whole, sixth, two = dt
        s = k1 * half
        s += y
        k2 = rhs(s)
        s = k2 * half
        s += y
        k3 = rhs(s)
        s = k3 * whole
        s += y
        k4 = rhs(s)
        acc = k2 * two
        acc += k1
        s = k3 * two
        acc += s
        acc += k4
        acc *= sixth
        acc += y
        return acc
    half, whole, (m, e), prec = dt
    ints, exp = y
    ks = [k1]
    for c, c_exp in (half, half, whole):
        # y + c 2**c_exp k over 2**low, low the least exponent of its terms
        b, k_exp = ks[-1]
        low = min(exp, k_exp + c_exp)
        shift, w = exp - low, c << (k_exp + c_exp - low)
        ks.append(rhs(round_frame([(a << shift) + w * v for a, v in zip(ints, b)], low, prec)))
    (b1, e1), (b2, e2), (b3, e3), (b4, e4) = ks
    # the weights (1, 2, 2, 1) m 2**e, each aligned with its k; a factor 2 is one more shift
    low = min(exp, min(e1, e2, e3, e4) + e)
    shift, e = exp - low, e - low
    w1, w2, w3, w4 = m << (e1 + e), m << (e2 + e + 1), m << (e3 + e + 1), m << (e4 + e)
    return round_frame([(a << shift) + w1 * v1 + w2 * v2 + w3 * v3 + w4 * v4
                        for a, v1, v2, v3, v4 in zip(ints, b1, b2, b3, b4)], low, prec)


def _float_rk4_dt(dt: float) -> tuple:
    """The step constants of the float rk4 step: dt/2, dt, dt/6 and 2.0 as 0-d float64 arrays."""
    return tuple(np.array(v) for v in (dt / 2, dt, dt / 6, 2.0))


def _fixed_rk4_dt(dt) -> tuple:
    """The step constants of the extended-tier rk4 step for mpf dt: dt/2, dt and dt/6 as (m, e) pairs, and prec.

    dt/2, dt and dt/6 are rounded to the current precision, prec.
    """
    return (*(signed(v._mpf_) for v in (dt / 2, dt, dt / 6)), lazy_mpmath.mp.prec)


def _fixed_rk4_time(t_start, dt):
    """The extended-tier time after `step` steps, t_start + step * dt, as the mpf operators compute it.

    libmp's `mpf_mul_int` then `mpf_add`, at the current precision and to
    nearest, give the operators' `_mpf_` tuples without their dispatch.
    """
    lib = lazy_mpmath
    make, mul_int, add, prec, rnd = lib.make_mpf, lib.mpf_mul_int, lib.mpf_add, lib.mp.prec, lib.round_nearest
    start, step_dt = t_start._mpf_, dt._mpf_
    return lambda step: make(add(start, mul_int(step_dt, step, prec, rnd), prec, rnd))


def _run_rk4(rhs, y, ctx, t0, t1, cfg, accept):
    span = float(t1) - float(t0)
    nsteps = max(1, round(span / cfg.dt))
    dt = ctx.scalar(exact(t1) - exact(t0)) / nsteps
    t_start = ctx.scalar(t0)
    if ctx.is_float:
        step_dt, time = _float_rk4_dt(dt), lambda step: t_start + step * dt
    else:
        step_dt, time = _fixed_rk4_dt(dt), _fixed_rk4_time(t_start, dt)
    for step in range(1, nsteps + 1):
        y = _rk4_step(rhs, y, step_dt)
        t = time(step)
        if accept(step, t, y, _floats(y), step == nsteps):
            break


# The float tier's dp45 constants: the nonzero entries of the stage rows (each
# row's first entry always), then 1.0 for dt itself, and the nonzero weights of
# each solution as (stage, 0-d float64 array) pairs.
_DP_ROWS = tuple(tuple(idx for idx, a in enumerate(row) if idx == 0 or a != 0.0) for row in _DP_A[1:])
_DP_TABLE = np.array([_DP_A[stage][idx] for stage, row in enumerate(_DP_ROWS, start=1) for idx in row] + [1.0])
_DP_B5_TERMS = tuple((idx, np.array(b)) for idx, b in enumerate(_DP_B5) if b != 0.0)
_DP_B4_TERMS = tuple((idx, np.array(b)) for idx, b in enumerate(_DP_B4) if b != 0.0)
_ZERO = np.array(0.0)


def _dp45_float_dt() -> tuple:
    """The per-run buffer of the float dp45 step: (buffer, stage rows of (index, 0-d view), 0-d view of dt).

    `_dp45_float_stages` fills the buffer with dt times `_DP_TABLE` at each
    attempt, so each view holds dt times its tableau entry, and the last dt.
    """
    buf = np.empty_like(_DP_TABLE)
    views = iter([buf[i, ...] for i in range(len(buf))])
    rows = tuple(tuple((idx, next(views)) for idx in row) for row in _DP_ROWS)
    return buf, rows, next(views)


def _dp45_float_stages(rhs, y, fsal, dt, consts):
    """The six new stages, the fifth-order solution and its error estimate, in float arithmetic.

    `consts` is `_dp45_float_dt()`, built once per run; one multiply fills
    its buffer from the float dt.
    """
    buf, rows, whole = consts
    np.multiply(_DP_TABLE, dt, buf)
    ks = [fsal]
    term = np.empty_like(y)
    for (_, first), *rest in rows:
        acc = ks[0] * first
        acc += y
        for idx, c in rest:
            acc += np.multiply(ks[idx], c, term)
        ks.append(rhs(acc))
    y5 = _dp45_float_solution(y, _DP_B5_TERMS, ks, whole, term)
    y4 = _dp45_float_solution(y, _DP_B4_TERMS, ks, whole, term)
    return ks, y5, np.subtract(y5, y4, y4)


def _dp45_float_solution(y, terms, ks, dt, term):
    """y + sum(b * k for the (stage, b) terms) * dt in a new array, with `term` as scratch.

    Python's sum() starts from the int 0, so the first term gets a + 0.0,
    which turns a -0.0 into +0.0.
    """
    (idx, b), *rest = terms
    acc = ks[idx] * b
    acc += _ZERO
    for idx, b in rest:
        acc += np.multiply(ks[idx], b, term)
    acc *= dt
    acc += y
    return acc


def _dp45_fixed_stages(rhs, y, fsal, dt):
    """`_dp45_float_stages` of the extended tiers: each stage input is y + sum_j c_j k_j, on frames.

    The c_j are dt times the exact tableau entries, rounded to the tier once
    per step, and every component is one exact sum, rounded once.  The last
    row of the tableau is b5, so the last stage input is the fifth-order
    solution; the error estimate sums the k_j with dt (b5_j - b4_j).
    """
    prec = lazy_mpmath.mp.prec
    m, e = signed(dt._mpf_)

    def stage(base, row, ks):
        ints, exp = base
        terms = [(signed(round_ratio(m * a.numerator, e, a.denominator, prec)), k) for a, k in zip(row, ks) if a]
        low = min(exp, min([c_exp + k_exp for (_, c_exp), (_, k_exp) in terms]))
        acc = [a << (exp - low) for a in ints]
        for (c, c_exp), (b, k_exp) in terms:
            w = c << (c_exp + k_exp - low)
            acc = [a + w * v for a, v in zip(acc, b)]
        return round_frame(acc, low, prec)

    ks = [fsal]
    for row in _DP_A_EXACT[1:]:
        y5 = stage(y, row, ks)
        ks.append(rhs(y5))
    return ks, y5, stage(([0] * len(y[0]), -prec), _DP_ERR_EXACT, ks)


def _error_norm(y, y5, delta, tol: float) -> float:
    """max_i |delta_i| / (tol + tol max(|y_i|, |y5_i|)) over `_floats` views, and at least 0; NaNs are skipped."""
    now = np.abs(y)
    new = np.abs(y5)
    scale = tol + tol * np.where(new > now, new, now)
    return float(np.fmax.reduce(np.abs(delta) / scale, initial=0.0))


def _run_dp45(rhs, y, ctx, t0, t1, cfg, accept, stop, metadata):
    """Dormand-Prince 4(5) with an error-controlled step, from t0 to t1.

    The times and step sizes (t + dt, t_end - t, dt * factor) are the tier's
    scalars under its own operators: floats, or on the extended tiers mpfs
    at the precision `integrate` pins, each result rounded once to nearest
    (an mpf times a float converts the float exactly).
    """
    t = ctx.scalar(t0)
    t_end = ctx.scalar(t1)
    dt = ctx.scalar(min(cfg.dt, float(t1) - float(t0)))
    tol = cfg.tol
    stages = partial(_dp45_float_stages, consts=_dp45_float_dt()) if ctx.is_float else _dp45_fixed_stages
    accepted = 0
    before = y
    view = _floats(y)
    fsal = rhs(y)
    while float(t) < float(t_end):
        # t + (t_end - t) may round short of t_end; a clipped step lands on it
        clipped = float(t) + float(dt) > float(t_end)
        if clipped:
            dt = t_end - t
        ks, y5, delta = stages(rhs, y, fsal, dt)
        view5 = _floats(y5)
        err = _error_norm(view, view5, _floats(delta), tol)
        if err <= 1.0:
            t = t_end if clipped else t + dt
            before, y, view = y, y5, view5  # one view per state: `accept` and the next error norm read it
            fsal = ks[6]  # first-same-as-last
            accepted += 1
            if accept(accepted, t, y, view, float(t) >= float(t_end)):
                return
        else:
            metadata["rejected_steps"] += 1
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        factor = min(5.0, max(0.2, factor))
        dt = dt * factor
        # a step the controller grows is not a stall, however small it still is
        if factor < 1.0 and float(dt) < 1e-14 * max(1.0, abs(float(t))) and float(t) < float(t_end):
            if accepted and _escapes(before, y, fsal, float(t_end) - float(t)):
                stop("divergence", t, y, accepted,
                     f"state diverges at t={float(t)}: the step size underflowed while it grows "
                     f"fast enough to pass the divergence cutoff before t={float(t_end)}")
            stop("stall", t, y, accepted, f"step size underflow at t={float(t)}")
