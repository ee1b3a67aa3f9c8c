"""Slow-fast analysis of complete-graph flows on the (x, k)-plane.

All nodes except one are identified, reducing the system to a fast variable
x and the slow node-sum k.  The critical set is the zero set of
f(x) - f(k - (n-1)x); the consensus line x = k/n always belongs to it.
Singular consensus points (where f' vanishes) are classified by the sign
ratio of the response curvature against the perturbation sum, which decides
between the two transcritical types, and by the scalar deciding whether the
trajectory can continue along the repelling stretch (canard threshold 1).
The slow-divergence integral along the consensus line is exact: the
response is a polynomial, so it is the closed form of its antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math

from .dynamics import PerturbedSystem, check_float_forcing
from .errors import (
    InvariantViolationError,
    PreconditionError,
    SymmetryViolationError,
    UnsupportedStructureError,
)
from .precision import ScalarContext, common_denominator, exact, round_frame, rounded
from .response import ResponseFunction

import numpy as np

SINGULAR_TOL = 1e-10
BISECT_HALVINGS = 200  # halvings of a root bracket before the scan gives up on it
SCAN_POINTS = 2001  # the singular-point scan's default number of points

ATTRACTING = "attracting"
REPELLING = "repelling"
SINGULAR = "singular"


@dataclass(frozen=True)
class PlaneSystem:
    """Reduced flow on the (x, k)-plane.

    The forcing is constant: `g` is the exact shared component of the
    identified nodes and `g_tilde` the exact component of the eliminated node.
    """

    n: int
    f: ResponseFunction
    g: Fraction = Fraction(0)
    g_tilde: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        if self.n < 2:
            raise UnsupportedStructureError("plane reduction needs at least 2 nodes")
        object.__setattr__(self, "epsilon", exact(self.epsilon))
        object.__setattr__(self, "g", exact(self.g))
        object.__setattr__(self, "g_tilde", exact(self.g_tilde))

    def mirror(self, x, k):
        """The eliminated coordinate k - (n-1) x."""
        return k - (self.n - 1) * x

    def layer_value(self, x, k):
        """f(x) - f(k - (n-1)x); zero on the critical set."""
        return self.f.eval(x) - self.f.eval(self.mirror(x, k))

    def layer_jacobian(self, x, k):
        """d/dx of the fast right-hand side: negative where attracting."""
        fp = self.f.derivative()
        return -(fp.eval(x) + (self.n - 1) * fp.eval(self.mirror(x, k)))

    def slow_rhs_factor(self):
        """(n-1) g + g_tilde, the slow drift divided by epsilon."""
        return (self.n - 1) * self.g + self.g_tilde

    # --- ODE-system protocol -------------------------------------------------
    def state_labels(self) -> list[str]:
        return ["x"]

    @property
    def k_in_state(self) -> bool:
        return True

    def rhs_function(self, ctx: ScalarContext):
        """(x, k) -> (-(f(x) - f(k - (n-1) x)) + eps g, eps ((n-1) g + g_tilde)).

        `eps * g` and the slow drift are computed once per build.  The float
        tier's fast component is -`layer_value(x, k)` + eps g, in that order.
        The extended tiers compute in integers
        (`ResponseFunction.integer_evaluator`), frame in and frame out as the
        full system's right-hand side is: the mirror and the layer are exact,
        and the fast component is rounded once, in the same call
        (`round_frame`); `eps * g` and the slow drift are exact constants
        rounded to the tier.
        """
        n = self.n
        if ctx.is_float:
            eps = ctx.scalar(self.epsilon)
            g = ctx.scalar(self.g)
            eps_g = eps * g
            slow = eps * ((n - 1) * g + ctx.scalar(self.g_tilde))
            check_float_forcing([eps_g, slow])
            layer = self.layer_value

            def rhs(y):
                return np.array([-layer(y[0], y[1]) + eps_g, slow], dtype=float)

            return rhs

        prec = ctx.working_prec
        values = self.f.integer_evaluator(prec)
        # both constants rounded to the tier, over one power of two 2**-c_exp
        (g, s), c_den = common_denominator([rounded(self.epsilon * self.g, prec),
                                            rounded(self.epsilon * self.slow_rhs_factor(), prec)])
        c_exp = 1 - c_den.bit_length()

        def fixed_rhs(frame):
            (x, k), exp = frame
            (fx, fm), den = values([x, k - (n - 1) * x], 1 << -exp)
            # the constants are dyadic, so den is a power of two: den == 2**-f_exp
            f_exp = 1 - den.bit_length()
            low = min(f_exp, c_exp)
            fast = ((fm - fx) << (f_exp - low)) + (g << (c_exp - low))
            return round_frame([fast, s << (c_exp - low)], low, prec)

        return fixed_rhs


def plane_reduce(sys: PerturbedSystem, l: int) -> PlaneSystem:
    """Restrict a unit-weight complete-graph system to the (x, k)-plane.

    Requires all perturbation components except the eliminated one to agree
    exactly; otherwise the identified-nodes subspace is not invariant and the
    reduction is meaningless.
    """
    if not sys.graph.is_unit_complete():
        raise UnsupportedStructureError(
            "plane reduction is defined for complete graphs with unit edge weights only"
        )
    n = sys.n
    if not (1 <= l <= n):
        raise PreconditionError(f"eliminated index {l} out of 1..{n}")
    vals = sys.perturbation.values
    kept = [j for j in range(1, n + 1) if j != l]
    shared = vals[kept[0] - 1]
    if any(vals[j - 1] != shared for j in kept[1:]):
        raise SymmetryViolationError(
            "perturbation components of the identified nodes differ"
        )
    return PlaneSystem(n=n, f=sys.field.function, g=shared, g_tilde=vals[l - 1],
                       epsilon=sys.epsilon)


# ---------------------------------------------------------------------------
# consensus stability

@dataclass(frozen=True)
class StabilityResult:
    tag: str
    jacobian: float


def consensus_stability(ps: PlaneSystem, x_star) -> StabilityResult:
    """Classify a consensus point by the response slope.

    Positive slope attracts, negative repels; a slope below SINGULAR_TOL
    (scaled by the local curvature) is singular.  Also reports the layer
    Jacobian -n f'(x*) at the point.
    """
    fp = ps.f.derivative().eval(x_star)
    tag = _stability(fp, ps.f.derivative(2).eval(x_star))
    return StabilityResult(tag, -ps.n * float(fp))


def _stability(rate, curvature) -> str:
    """Tag a point of the layer flow by its decay rate.

    A positive rate attracts, a negative one repels, and a rate within
    SINGULAR_TOL, scaled by the curvature of the rate, is singular.
    """
    if abs(rate) <= SINGULAR_TOL * (1 + abs(curvature)):
        return SINGULAR
    return ATTRACTING if rate > 0 else REPELLING


# ---------------------------------------------------------------------------
# critical-set sampling

@dataclass(frozen=True)
class ManifoldPoint:
    k: float
    x: float
    branch: int
    stability: str
    consensus: bool


@dataclass(frozen=True)
class ManifoldSample:
    """Critical-set points as columns: entry i of each column belongs to point i.

    `points` builds the `ManifoldPoint`s on its first read.
    """

    k: tuple[float, ...]
    x: tuple[float, ...]
    branch: tuple[int, ...]
    stability: tuple[str, ...]
    consensus: tuple[bool, ...]

    @cached_property
    def points(self) -> tuple[ManifoldPoint, ...]:
        return tuple(map(ManifoldPoint, self.k, self.x, self.branch, self.stability, self.consensus))

    def branch_count(self) -> int:
        return len(set(self.branch))


def _bisect(func, lo, hi, flo, p, where: str):
    """Bisect the brackets [lo, hi] of func(., p) in lock-step, flo = func(lo, p).

    Each element stops at mid = 0.5 (lo + hi) once func(mid) is exactly 0 or
    the bracket is narrower than 1e-15 max(1, |mid|).  (np.fmax, like
    Python's max(1.0, v), gives 1.0 for a NaN.)  lo and hi are halved in
    place; the arrays are compacted, in order, only on a halving where some
    element stopped.  A bracket still wider after BISECT_HALVINGS halvings
    raises InvariantViolationError, its message led by `where`: its midpoint
    need not be near a root.

    The width rule is tested only on halvings where it can hold.  With
    M = max(|lo|, |hi|) and w the width of a starting bracket, every later
    midpoint lies in [lo, hi] and, while 2M is finite (lo + hi cannot
    overflow), is within 2**-53 M of the exact one (a subnormal one within
    2**-1075 more).  So after j halvings the bracket is at least
    w 2**-j - 2**-52 M wide, and the rule cannot hold while
    w 2**-j >= 4e-15 max(M, 1); the factor 4 leaves room for the rounding
    of the rule's own terms.  The skipped halvings are counted once, from
    the smallest such ratio over the brackets; none is skipped when some 2M
    overflows (so does a width that overflows) or some ratio is NaN.

    Where 2M overflows, lo + hi can too; on those calls only, a midpoint
    that comes out infinite is taken as 0.5 lo + 0.5 hi, which is finite.
    Every finite midpoint keeps the bits of 0.5 (lo + hi).
    """
    out = np.empty_like(lo)
    active = np.arange(len(lo))
    negative = flo < 0  # only the sign of func(lo) is read, and moving lo to mid keeps it
    scale = np.fmax(np.fmax(np.abs(lo), np.abs(hi)), 1.0)
    ratio = float(np.min((hi - lo) / (4e-15 * scale)))
    overflows = not 2.0 * float(scale.max()) < math.inf
    skip = math.frexp(ratio)[1] if ratio >= 1.0 and not overflows else 0  # 2**(skip-1) <= ratio
    for halving in range(BISECT_HALVINGS):
        if not len(active):
            break
        mid = 0.5 * (lo + hi)
        if overflows:
            np.copyto(mid, 0.5 * lo + 0.5 * hi, where=np.isinf(mid))
        fmid = func(mid, p)
        done = fmid == 0.0
        if halving >= skip:
            done |= hi - lo < 1e-15 * np.fmax(np.abs(mid), 1.0)
        if done.any():
            out[active[done]] = mid[done]
            go = ~done
            active, lo, hi, negative, p, mid, fmid = (a[go] for a in (active, lo, hi, negative, p, mid, fmid))
        right = negative == (fmid < 0)
        np.copyto(hi, mid, where=~right)
        np.copyto(lo, mid, where=right)
    if len(active):
        widest = int(np.argmax(hi - lo))
        raise InvariantViolationError(
            f"{where}: {BISECT_HALVINGS} halvings left the root bracket [{float(lo[widest])!r}, {float(hi[widest])!r}] "
            f"{hi[widest] - lo[widest]:.3g} wide"
        )
    return out


def _newton(func, deriv, x, p, iterations: int):
    """Newton's method on func(., p) from x, every element in lock-step.

    An element keeps its current point where the derivative is 0 or not
    finite, or where the step leaves the finite floats; it takes the new
    point once the step is at most 1e-16 max(1, |x|).  An element back at a
    point it held before repeats that cycle, which never stopped it, to the
    last iteration, so it ends once the iterations left are whole cycles
    (Brent's detection: the point held at the last power-of-two step is the
    mark).  The arrays are compacted, in order, only on an iteration where
    some element finished.
    """
    out = np.array(x, dtype=float)
    active = np.arange(len(out))
    mark, mark_at, last = x, 0, np.full(len(out), iterations)  # every element ends by the last iteration
    for i in range(1, iterations + 1):
        if not len(active):
            break
        fx = func(x, p)
        dx = deriv(x, p)
        step = fx / dx
        x_new = x - step
        stop = (dx == 0.0) | ~np.isfinite(dx) | ~np.isfinite(x_new)
        converged = ~stop & (np.abs(step) <= 1e-16 * np.fmax(np.abs(x), 1.0))
        # a cycle of i - mark_at steps: the point at step `last` is the point at the last iteration
        np.copyto(last, i + (iterations - i) % (i - mark_at), where=x_new == mark)
        finished = converged | (~stop & (last == i))
        done = stop | finished
        if done.any():
            out[active[stop]] = x[stop]
            out[active[finished]] = x_new[finished]
            go = ~done
            active, x_new, p, mark, last = (a[go] for a in (active, x_new, p, mark, last))
        if i & (i - 1) == 0:
            mark, mark_at = x_new, i
        x = x_new
    return out


@np.errstate(all="ignore")
def _scan_roots(func, deriv, lo: float, hi: float, count: int, params) -> list[list[float]]:
    """Zeros of func(., p) over `count` evenly spaced points of [lo, hi], per row p of params.

    A row is a float or a 1-D row such as (k, system index).  func and deriv
    work elementwise on a float array x and the rows p of its elements, so
    one array pass scans every gridline; compaction keeps the row order.  A
    grid point where func is exactly 0 is a root itself (the end point
    included).  Each sign change between neighbours is bisected; its Newton
    polish is kept only when it moves the root by at most one grid step and
    does not raise the residual.  Each root has the bits of a scan of one
    point at a time; the roots of each row come back as Python floats, in
    scan order.
    """
    params = np.asarray(params, dtype=float)
    step = (hi - lo) / (count - 1)
    grid = lo + np.arange(count) * step
    values = func(np.tile(grid, len(params)), np.repeat(params, count, axis=0)).reshape(len(params), count)
    left, right = values[:, :-1], values[:, 1:]
    zero = left == 0.0
    bracket = ~zero & ((left < 0) != (right < 0))
    rows, cols = np.nonzero(zero | bracket)
    roots = grid[cols]
    todo = bracket[rows, cols]
    if todo.any():
        x_a, p, f_a = roots[todo], params[rows[todo]], left[rows[todo], cols[todo]]
        x_b, g_b = x_a + step, grid[cols[todo] + 1]
        # x_a + step may round away from the grid point g_b; where it lands farther than the stop rule's
        # width and [x_a, x_b] loses the sign change, bisection would return its end point, so such a
        # cell bisects the grid bracket [x_a, g_b], which holds the sign change
        far = np.flatnonzero(np.abs(x_b - g_b) > 1e-15 * np.fmax(np.abs(g_b), 1.0))
        lost = far[(func(x_b[far], p[far]) < 0) == (f_a[far] < 0)]
        x_b[lost] = g_b[lost]
        root = _bisect(func, x_a, x_b, f_a, p, f"root scan of [{lo!r}, {hi!r}] at {count} points")
        polished = _newton(func, deriv, root, p, 30)
        keep = (np.abs(polished - root) <= step) & (np.abs(func(polished, p)) <= np.abs(func(root, p)))
        roots[todo] = np.where(keep, polished, root)
    out: list[list[float]] = [[] for _ in params]
    for row, x in zip(rows.tolist(), roots.tolist()):
        out[row].append(x)
    for row in np.flatnonzero(values[:, -1] == 0.0).tolist():
        out[row].append(hi)
    return out


def _by_system(systems, fn):
    """fn(ps, x, k) over scan rows (k, system index) grouped by system, one call per system's slice."""
    if len(systems) == 1:
        (ps,) = systems
        return lambda x, rows: fn(ps, x, rows[:, 0])
    index = np.arange(len(systems) + 1)

    def apply(x, rows):
        cuts = np.searchsorted(rows[:, 1], index).tolist()
        parts = [fn(ps, x[a:b], rows[a:b, 0]) for ps, a, b in zip(systems, cuts, cuts[1:]) if a < b]
        return np.concatenate(parts) if parts else x

    return apply


def sample_manifold(ps: PlaneSystem, k_range, x_range, grid, residual_tol: float = 1e-10) -> ManifoldSample:
    """The critical set of ps over a (k, x) window: `sample_manifolds` of one system."""
    (sample,) = sample_manifolds([ps], k_range, x_range, grid, residual_tol)
    return sample


@np.errstate(all="ignore")
def sample_manifolds(systems, k_range, x_range, grid, residual_tol: float = 1e-10) -> list[ManifoldSample]:
    """Root scan of each system's layer equation over one (k, x) window on an (nk, nx) `grid`.

    One `_scan_roots` pass finds the roots of f(x) - f(k - (n-1)x) on every
    k gridline of every system: its rows are (k, system index), grouped by
    system, and each system evaluates its own rows, so each root has the bits
    of a scan of that system alone; a bracket it cannot resolve is refused
    first.  Then, system by system: the consensus root k/n is always
    included; branch ids connect nearest roots across consecutive gridlines
    (threshold five x-grid spacings), the consensus chain keeping a stable
    id; the first point whose residual exceeds `residual_tol` raises
    InvariantViolationError; curvatures and rates tag every point.
    """
    nk, nx = grid
    if nk < 2 or nx < 2:
        raise PreconditionError("grid must have at least 2 points per axis")
    k_lo, k_hi = map(float, k_range)
    x_lo, x_hi = map(float, x_range)
    link_tol = 5.0 * ((x_hi - x_lo) / (nx - 1))
    ks = [k_lo + (k_hi - k_lo) * ik / (nk - 1) for ik in range(nk)]
    rows = np.array([(k, s) for s in range(len(systems)) for k in ks], dtype=float).reshape(-1, 2)
    scans = _scan_roots(_by_system(systems, lambda ps, x, k: ps.layer_value(x, k)),
                        _by_system(systems, lambda ps, x, k: -ps.layer_jacobian(x, k)), x_lo, x_hi, nx, rows)
    return [_manifold_sample(ps, ks, scans[s * nk:(s + 1) * nk], x_lo, x_hi, link_tol, residual_tol)
            for s, ps in enumerate(systems)]


def _manifold_sample(ps: PlaneSystem, ks, scans, x_lo, x_hi, link_tol, residual_tol) -> ManifoldSample:
    """Branches, residual gate and tags of one system's scanned gridlines (`sample_manifold`).

    On each gridline the roots within 1e-9 of the consensus root k/n come
    first, then the others, each group ascending; a root within
    max(1e-9, 1e-9 |x|) of one kept before it is dropped.  The first root is
    the consensus point when k/n lies in the window.  The kept roots, in
    ascending order, each take the branch of the nearest root of the previous
    gridline within `link_tol` that no root took before (the first such one
    on a tie), except that the consensus point keeps the consensus branch.
    """
    k_col, x_col, branch_col, consensus_col = [], [], [], []
    next_branch = 1
    prev_x, prev_branch = [], []  # the previous gridline's roots and their branches
    consensus_branch = None

    for k, scanned in zip(ks, scans):
        consensus_x = k / ps.n
        inside = x_lo <= consensus_x <= x_hi
        roots = sorted(scanned + [consensus_x] if inside else scanned)
        order = [x for x in roots if not abs(x - consensus_x) > 1e-9]
        if len(order) < len(roots):
            order += [x for x in roots if abs(x - consensus_x) > 1e-9]
        consensus = order[0] if inside else None
        kept = []  # dedupe: the consensus root may also arise from the scan
        for x in order:
            tol = max(1e-9, 1e-9 * abs(x))
            for other in kept:
                if abs(x - other) <= tol:
                    break
            else:
                kept.append(x)
        kept.sort()

        # branch continuation against the previous gridline; x_col holds the earlier gridlines' points
        free_x, free_branch = list(prev_x), list(prev_branch)
        line_branch = []
        for x in kept:
            is_consensus = x == consensus
            if is_consensus and consensus_branch is not None:
                branch = consensus_branch
            else:
                branch = None
                if free_x:
                    gaps = [abs(px - x) for px in free_x]
                    gap = min(gaps)
                    if gap <= link_tol:
                        at = gaps.index(gap)
                        del free_x[at]
                        branch = free_branch.pop(at)
                if branch is None:
                    if is_consensus and not x_col:
                        branch = 0
                    else:
                        branch, next_branch = next_branch, next_branch + 1
                if is_consensus:
                    consensus_branch = branch
            line_branch.append(branch)
            consensus_col.append(is_consensus)
        prev_x, prev_branch = kept, line_branch
        k_col += [k] * len(kept)
        x_col += kept
        branch_col += line_branch

    k_arr = np.array(k_col, dtype=float)
    x_arr = np.array(x_col, dtype=float)
    residuals = np.abs(ps.layer_value(x_arr, k_arr))
    failed = np.flatnonzero(~(residuals <= residual_tol))
    if failed.size:
        at = failed[0]
        raise InvariantViolationError(
            f"manifold point (k={k_col[at]}, x={x_col[at]}) has residual {float(residuals[at])} > {residual_tol}"
        )
    fpp = ps.f.derivative(2)
    curvatures = fpp.eval(x_arr) - (ps.n - 1) ** 2 * fpp.eval(ps.mirror(x_arr, k_arr))
    rates = -ps.layer_jacobian(x_arr, k_arr)
    return ManifoldSample(tuple(k_col), tuple(x_col), tuple(branch_col),
                          tuple(map(_stability, rates.tolist(), curvatures.tolist())), tuple(consensus_col))


# ---------------------------------------------------------------------------
# singularity analysis

@dataclass(frozen=True)
class SingularityReport:
    """Everything decided at one singular consensus point."""

    n: int
    x_s: object
    k_s: object
    d2f: object
    pert_shared: object
    pert_last: object
    pert_sum: object
    rho: int | None
    sing_type: str
    lam: object | None
    canard: bool
    tangent_intercept: object
    tangent_slope: int
    non_transversal: bool = False

    def to_json(self) -> dict:
        return {
            "x_s": float(self.x_s),
            "k_s": float(self.k_s),
            "d2f": float(self.d2f),
            "pert_sum": float(self.pert_sum),
            "rho": self.rho,
            "type": self.sing_type,
            "lambda": None if self.lam is None else float(self.lam),
            "canard": self.canard,
            "non_transversal": self.non_transversal,
            "tangent": {
                "intercept": float(self.tangent_intercept),
                "slope": float(self.tangent_slope),
            },
        }


def _sign(v) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def analyze_singularity(ps: PlaneSystem, x_s) -> SingularityReport:
    """Classify a singular consensus point of the plane system.

    Computes the response curvature, the perturbation sum, the sign ratio
    deciding the transcritical type, the canard threshold scalar, and the
    tangent line of the crossing branch.  A two-node system is reported as
    non-transversal rather than rejected.

    `canard` is the exact test lambda == 1 at a type-1 point.  For n >= 3 it
    holds exactly when the forcing is critical: g_tilde == g, and nonzero
    since the point is not degenerate.

    f' and f'' are evaluated once: they tag the point as `consensus_stability`
    does.
    """
    d2f = ps.f.derivative(2).eval(x_s)
    if _stability(ps.f.derivative().eval(x_s), d2f) != SINGULAR:
        raise PreconditionError(f"x = {x_s} is not a singular consensus point")
    n = ps.n
    k_s = n * x_s
    h = ps.g
    h_tilde = ps.g_tilde
    pert_sum = ps.slow_rhs_factor()

    rho = lam = None
    canard = False
    if n == 2:
        sing_type = "non-transcritical"
    elif d2f == 0 or pert_sum == 0:
        sing_type = "degenerate"
    else:
        rho = _sign(d2f) * _sign(pert_sum)  # equals sgn(d2f)/sgn(pert sum)
        sing_type = "type-1" if rho == -1 else "type-2"
        # the forcing is exact, so lambda is too and the canard test is exact
        lam = -Fraction(rho) * Fraction(h + (n - 1) * h_tilde, h_tilde + (n - 1) * h)
        canard = sing_type == "type-1" and lam == 1

    return SingularityReport(
        n=n, x_s=x_s, k_s=k_s, d2f=d2f, pert_shared=h, pert_last=h_tilde,
        pert_sum=pert_sum, rho=rho, sing_type=sing_type, lam=lam, canard=canard,
        tangent_intercept=2 * x_s, tangent_slope=n - 2, non_transversal=n == 2,
    )


def find_singular_points(f: ResponseFunction, lo: float, hi: float, samples: int = SCAN_POINTS) -> list[float]:
    """Real zeros of f' in [lo, hi] by one sign-change scan of `samples` points plus polish."""
    if samples < 2:
        raise PreconditionError("samples must be at least 2")
    fp = f.derivative()
    fpp = f.derivative(2)
    (roots,) = _scan_roots(lambda x, _: fp.eval(x), lambda x, _: fpp.eval(x), lo, hi, samples, [0.0])
    merged: list[float] = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) > 1e-9 * max(1.0, abs(r)):
            merged.append(r)
    return merged


# ---------------------------------------------------------------------------
# slow-divergence integral, in closed form

def slow_divergence_integral(ps: PlaneSystem, k1, k2) -> Fraction:
    """The slow-divergence integral -n * int_{k1}^{k2} f'(k/n) dk, exact.

    Measures the accumulated attraction/repulsion along the consensus line
    (the entry-exit function: Benoit 1981; De Maesschalck and Schecter 2016);
    a vanishing value means the two effects compensate over the window.
    The response is a polynomial, so substituting u = k/n gives the closed
    form -n^2 [f(k2/n) - f(k1/n)], evaluated in rational arithmetic.
    """
    if not k2 > k1:
        raise PreconditionError("need k1 < k2")
    n = ps.n
    return -Fraction(n * n) * (ps.f.eval(exact(k2) / n) - ps.f.eval(exact(k1) / n))
