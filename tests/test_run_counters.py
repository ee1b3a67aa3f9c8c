"""The integrator's counters in `Trajectory.metadata`: accepted steps, dp45's rejected steps, the stop reason.

Each stop reason ("end", "stop_condition", "divergence", "stall") has a
run that ends with it.  dp45 evaluates the right-hand side once for the
first state and then six times per attempted step, so the count of rhs
calls checks the accepted and rejected counts together.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from alf import (
    DivergenceError, Graph, IntegrationStalledError, IntegratorConfig, Perturbation, PerturbedSystem, ResponseField,
    ResponseFunction, integrate,
)

_EX1 = ResponseFunction.from_roots([(1, 2), (-1, 2)])


def _system(n: int = 3) -> PerturbedSystem:
    return PerturbedSystem(Graph.complete(n), ResponseField(_EX1), Perturbation.constant(-1, n), Fraction(1, 10))


class _Counting:
    """A system of the ODE protocol whose right-hand side counts its calls."""

    def __init__(self, system):
        self.system = system
        self.calls = 0
        self.k_in_state = system.k_in_state

    def state_labels(self):
        return self.system.state_labels()

    def rhs_function(self, ctx):
        rhs = self.system.rhs_function(ctx)

        def counted(y):
            self.calls += 1
            return rhs(y)

        return counted


class _Rough:
    """A right-hand side that defeats error control."""

    k_in_state = False

    def state_labels(self):
        return ["x1"]

    def rhs_function(self, ctx):
        def rhs(y):
            return np.array([1e20 * math.sin(1e30 * float(y[0]) + 1.0)])

        return rhs


@pytest.mark.parametrize("digits", (16, 32))
def test_an_rk4_run_to_its_end_counts_every_step(digits):
    traj = integrate(_system(), [0.5, 0.25, -0.5], (0.0, 0.1), IntegratorConfig(dt=1e-3, digits=digits, stride=7))
    assert traj.metadata["accepted_steps"] == 100
    assert traj.metadata["rejected_steps"] == 0
    assert traj.metadata["stop_reason"] == "end"


@pytest.mark.parametrize("digits", (16, 32))
def test_a_dp45_run_to_its_end_counts_accepted_and_rejected_steps(digits):
    # a first step of 0.5 at tol 1e-10 is rejected, and so are later ones
    system = _Counting(_system())
    cfg = IntegratorConfig(method="dp45", dt=0.5, tol=1e-10, digits=digits)
    traj = integrate(system, [0.5, 0.25, -0.5], (0.0, 1.0), cfg)
    meta = traj.metadata
    assert meta["stop_reason"] == "end"
    assert meta["accepted_steps"] == len(traj.times) - 1
    assert meta["rejected_steps"] > 0
    assert system.calls == 1 + 6 * (meta["accepted_steps"] + meta["rejected_steps"])


@pytest.mark.parametrize("method", ("rk4", "dp45"))
def test_a_stop_condition_names_itself(method):
    seen = []

    def stop(t, y):
        seen.append(t)
        return len(seen) == 7

    cfg = IntegratorConfig(method=method, dt=1e-3, digits=32, stride=100)
    traj = integrate(_system(), [0.5, 0.25, -0.5], (0.0, 1.0), cfg, stop_condition=stop)
    assert traj.metadata["accepted_steps"] == 7
    assert traj.metadata["stop_reason"] == "stop_condition"
    assert traj.times[-1] == seen[-1]


@pytest.mark.parametrize("digits", (16, 32))
def test_a_divergence_names_itself_in_the_run_and_at_t0(digits):
    with pytest.raises(DivergenceError) as err:
        integrate(_system(), [5.0, 5.0, -10.0], (0.0, 5.0), IntegratorConfig(dt=1e-3, digits=digits))
    meta = err.value.trajectory.metadata
    assert meta["stop_reason"] == "divergence"
    assert meta["accepted_steps"] > 0
    with pytest.raises(DivergenceError) as err:
        integrate(_system(), [float("nan"), 0.5, 0.25], (0.0, 1.0), IntegratorConfig(dt=1e-3, digits=digits))
    meta = err.value.trajectory.metadata
    assert (meta["stop_reason"], meta["accepted_steps"]) == ("divergence", 0)


def _blow_up(digits: int, stride: int = 1) -> DivergenceError:
    """The DivergenceError of dp45 on f = -x^3, whose step underflows while the state grows fast enough
    to pass the cutoff before t1."""
    g = Graph.from_edge_list(5, [(1, 2, 1.5), (2, 3, 2.0), (3, 4, 0.5), (4, 5, 3.0), (1, 5, 1.0), (2, 4, 2.5)])
    sys_ = PerturbedSystem(g, ResponseField(ResponseFunction.from_coeffs([0, 0, 0, -1])),
                           Perturbation.constant([0.3, -0.2, 0.1, -0.4, 0.25]), 0.1)
    cfg = IntegratorConfig(method="dp45", dt=0.05, tol=1e-12, digits=digits, stride=stride)
    with pytest.raises(DivergenceError) as err:
        integrate(sys_, [-3, 3, 0, 2, -2], (0.0, 1.0), cfg)
    return err.value


@pytest.mark.parametrize("digits", (16, 32))
def test_a_dp45_blow_up_names_divergence(digits):
    meta = _blow_up(digits).trajectory.metadata
    assert meta["stop_reason"] == "divergence"
    assert meta["rejected_steps"] > 0


@pytest.mark.parametrize("stride, rows", [(7, 255), (1000, 3)])
@pytest.mark.parametrize("digits", (16, 32))
def test_a_stop_records_its_unrecorded_state_once(digits, stride, rows):
    # 1774 accepted steps: the rows are t0, every stride-th state and the stopping state, which the
    # stride left unrecorded; the stop records it, once
    err = _blow_up(digits, stride)
    traj = err.trajectory
    assert traj.metadata["accepted_steps"] == 1774
    assert len(traj.times) == len(traj.states) == len(traj.k_series) == rows
    assert float(traj.times[-1]) == err.last_time
    assert float(traj.times[-2]) < err.last_time


def test_a_stall_names_itself():
    with pytest.raises(IntegrationStalledError) as err:
        integrate(_Rough(), [0.5], (0.0, 1.0), IntegratorConfig(method="dp45", dt=0.1, tol=1e-10))
    meta = err.value.trajectory.metadata
    assert meta["stop_reason"] == "stall"
    assert meta["rejected_steps"] > 0
