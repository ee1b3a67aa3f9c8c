"""Span and counter tracing of alf's public functions, installed from outside.

The tracer replaces functions and methods of the alf modules with timing
wrappers for the length of a traced pass, then puts the originals back.  A
function imported by name into another alf module (``alf.cli`` imports
``integrate``, ``sample_manifold`` and others that way) is replaced in every
module that holds it, or CLI jobs would bypass the wrapper.

Coarse calls record a span: name, start, end and parent span.  Hot scalar
calls (response evaluation, scalar coercion and formatting, layer values,
right-hand sides, rk4 steps) only add to per-name counters, which keeps the
overhead low.  Every wrapped call charges its duration to the enclosing
wrapped call, so each name also gets a self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (owner, attribute, stat name, records a span); owner is a dotted module
# path or "module:Class".
TARGETS = (
    ("alf.cli", "main", "cli.main", True),
    ("alf.cli", "load_scenario", "config.load", True),
    ("alf.config", "build_system", "config.build", True),
    ("alf.config", "build_graph", "config.build", True),
    ("alf.config", "build_initial", "config.build", True),
    ("alf.config", "build_integrator", "config.build", True),
    ("alf.graph:Graph", "laplacian", "graph.laplacian", True),
    ("alf.graph", "commutes_with_laplacian", "graph.commutes", True),
    ("alf.response:ResponseFunction", "eval", "response.eval_scalar", False),
    ("alf.dynamics", "_field_values_float", "response.eval_vector", False),
    ("alf.response:ResponseFunction", "derivative", "response.derivative", False),
    ("alf.precision:ScalarContext", "scalar", "precision.scalar", False),
    ("alf.precision:ScalarContext", "format", "precision.format", False),
    ("alf.precision", "exact", "precision.exact", False),
    ("alf.dynamics", "_rk4_step", "dynamics.rk4_step", False),
    ("alf.dynamics", "_run_dp45", "dynamics.dp45", True),
    ("alf.dynamics:Trajectory", "write_csv", "dynamics.write_csv", True),
    ("alf.dynamics", "vector_field", "dynamics.vector_field", True),
    ("alf.slowfast:PlaneSystem", "layer_value", "slowfast.layer_value", False),
    ("alf.slowfast", "plane_reduce", "slowfast.plane_reduce", True),
    ("alf.slowfast", "find_singular_points", "slowfast.find_singular_points", True),
    ("alf.slowfast", "analyze_singularity", "slowfast.analyze_singularity", True),
    ("alf.slowfast", "slow_divergence_integral", "slowfast.divergence", True),
    ("alf.symmetry", "maximal_canard_certificate", "symmetry.certificate", True),
    ("alf.symmetry", "check_equivariance", "symmetry.equivariance", True),
    ("alf.svg", "timeseries_svg", "svg.render", True),
)

# system classes whose rhs_function gets a timed closure, with their labels
RHS_OWNERS = (
    ("alf.dynamics:PerturbedSystem", "full"),
    ("alf.dynamics:StandardFormSystem", "standard"),
    ("alf.slowfast:PlaneSystem", "plane"),
)

DYNAMICS_ERRORS = ("DivergenceError", "IntegrationStalledError")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Stat:
    """Calls, inclusive time (outermost calls of the name only) and self time."""

    __slots__ = ("calls", "total", "self", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.active = 0


class Tracer:
    """Installs the wrappers, collects spans and counters, removes them."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._stack: list[list] = [[0.0, None]]  # frames: [child time, span id]
        self._next_span = 0
        self._digits = 16
        self._saved: list[tuple] = []
        self.secondary: set[str] = set()  # per-label stats that repeat a primary one

    # --- bookkeeping -----------------------------------------------------------
    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, fn, names: tuple[str, ...], span: bool):
        """Wrapper charging each call of fn to every stat in `names`."""
        stats = [self.stat(name) for name in names]
        self.secondary.update(names[1:])
        stack = self._stack
        spans = self.spans
        label = names[0]

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            span_id = None
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [0.0, span_id if span else parent]
            stack.append(frame)
            for st in stats:
                st.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                for st in stats:
                    st.active -= 1
                    st.calls += 1
                    st.self += elapsed - frame[0]
                    if st.active == 0:
                        st.total += elapsed
                if span:
                    spans.append((span_id, label, start, end, parent))

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ----------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        original = getattr(owner, attr)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                mod for name, mod in list(sys.modules.items())
                if (name == "alf" or name.startswith("alf.")) and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for holder in holders:
            self._saved.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, new)

    def install(self) -> None:
        for owner_name, attr, name, span in TARGETS:
            owner = _resolve(owner_name)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if name == "cli.main":
                new = self._main_wrapper(fn)
            elif name == "dynamics.dp45":
                new = self._dp45_wrapper(fn)
            elif name == "dynamics.rk4_step":
                new = self._rk4_wrapper(fn)
            else:
                new = self.timed(fn, (name,), span)
            self._replace(owner, attr, new)
        integrate = _resolve("alf.dynamics").integrate
        self._replace(_resolve("alf.dynamics"), "integrate", self._integrate_wrapper(integrate))
        sample = _resolve("alf.slowfast").sample_manifold
        self._replace(_resolve("alf.slowfast"), "sample_manifold", self._sample_wrapper(sample))
        for owner_name, kind in RHS_OWNERS:
            cls = _resolve(owner_name)
            self._replace(cls, "rhs_function", self._rhs_factory(cls.__dict__["rhs_function"], kind))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    # --- special wrappers ------------------------------------------------------
    def _main_wrapper(self, fn):
        inner = self.timed(fn, ("cli.main",), True)

        def main(*args, **kwargs):
            code = None
            try:
                code = inner(*args, **kwargs)
                return code
            finally:
                # 0 is success and 5 the advisory non-critical canard exit
                if code not in (0, 5):
                    self.count("cli.errors")

        return main

    def _integrate_wrapper(self, fn):
        inner = self.timed(fn, ("dynamics.integrate",), True)

        def integrate(system, x0, tspan, cfg, *args, **kwargs):
            self._digits = cfg.digits
            try:
                return inner(system, x0, tspan, cfg, *args, **kwargs)
            except Exception as err:
                if type(err).__name__ in DYNAMICS_ERRORS:
                    self.count("dynamics.errors")
                raise

        return integrate

    def _rk4_wrapper(self, fn):
        tracer = self
        by_digits = {}

        def step(*args):
            wrapped = by_digits.get(tracer._digits)
            if wrapped is None:
                wrapped = by_digits[tracer._digits] = tracer.timed(
                    fn, ("dynamics.rk4_step", f"dynamics.step.rk4.{tracer._digits}"), False)
            return wrapped(*args)

        return step

    def _dp45_wrapper(self, fn):
        inner = self.timed(fn, ("dynamics.dp45",), True)
        rhs_stat = self.stat("dynamics.rhs")
        dp45_stat = self.stat("dynamics.dp45")

        def run(*args, **kwargs):
            calls, total = rhs_stat.calls, dp45_stat.total
            try:
                return inner(*args, **kwargs)
            finally:
                # one first-same-as-last evaluation, then six per attempted step
                self.count(f"dynamics.step.dp45.{self._digits}.steps", (rhs_stat.calls - calls - 1) / 6)
                self.count(f"dynamics.step.dp45.{self._digits}.time", dp45_stat.total - total)

        return run

    def _sample_wrapper(self, fn):
        inner = self.timed(fn, ("slowfast.sample_manifold",), True)

        def sample_manifold(ps, k_range, x_range, grid, *args, **kwargs):
            result = inner(ps, k_range, x_range, grid, *args, **kwargs)
            self.count("slowfast.gridlines", grid if isinstance(grid, int) else grid[0])
            self.count("slowfast.points", len(result.points))
            return result

        return sample_manifold

    def _rhs_factory(self, fn, kind: str):
        tracer = self

        def rhs_function(system, ctx):
            rhs = fn(system, ctx)
            label = f"dynamics.rhs.{kind}.{ctx.digits}.n{system.n}"
            return tracer.timed(rhs, ("dynamics.rhs", label), False)

        return rhs_function

    # --- output ----------------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
