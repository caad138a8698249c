"""Independent oracles: scipy's DOP853.

For the paper example the vector fields are written out here from the
paper's formulas, not read from the package's model, and each
quarter-turn is integrated by ``scipy.integrate.solve_ivp`` until a
terminal event on the axis it exits through.  For ``TWO_SIDED`` of
``test_cli.py`` the radial perturbation reduces each quarter-turn to a
scalar ODE over the linear transit time.
"""

import json
import math

import numpy as np
import pytest

from switchbif import StopAfterEvents, continue_branch, integrate, poincare_numeric
from switchbif.config import parse_config
from test_cli import TWO_SIDED

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

A = 2.0


def paper_fields(lam):
    """Region -> field of the paper example at ``lam``."""
    b = math.e * math.pi + lam * lam + lam
    c = math.pi / math.e + lam * lam

    def odd(t, x):    # regions 1 and 3: cubic radial perturbation
        x1, x2 = x
        return (-A * x1 + b * x2 - (x1 ** 3 + lam * x1 * x2 ** 2),
                -c * x1 - A * x2 - (lam * x2 ** 3 + x1 ** 2 * x2))

    def even(t, x):   # regions 2 and 4: quintic perturbation
        x1, x2 = x
        return (-A * x1 + c * x2 - lam * x1 ** 5,
                -b * x1 - A * x2 - lam * x1 ** 4 * x2)

    return {1: odd, 2: even, 3: odd, 4: even}


def _axis_event(idx, direction):
    def event(t, x):
        return x[idx]
    event.terminal = True
    event.direction = direction
    return event


#: clockwise from the positive x1-axis: (region, coordinate vanishing at
#: its exit, direction of that coordinate's crossing)
ARCS = ((4, 0, -1.0), (3, 1, 1.0), (2, 0, 1.0), (1, 1, -1.0))


def oracle_events(lam, x1):
    """(time, state) of the four axis crossings of one revolution from (x1, 0)."""
    fields = paper_fields(lam)
    x, t = np.array([x1, 0.0]), 0.0
    events = []
    for q, idx, direction in ARCS:
        sol = solve_ivp(fields[q], (0.0, 100.0), x, method="DOP853", rtol=1e-12,
                        atol=1e-15 * x1, events=_axis_event(idx, direction))
        assert sol.status == 1, f"region {q} arc ended without its axis crossing"
        x = sol.y_events[0][0].copy()
        x[idx] = 0.0
        t += sol.t_events[0][0]
        events.append((t, x))
    return events


def oracle_return(lam, x1):
    """(pi(x1), period) of one revolution from (x1, 0)."""
    t, x = oracle_events(lam, x1)[-1]
    return float(x[0]), t


def test_paper_branch_points_are_oracle_fixed_points(paper_system, cfg):
    res = continue_branch(paper_system, [0.02, 0.05, 0.1, 0.5, 1.0], cfg)
    assert len(res.points) == 5
    for p in res.points:
        x_out, period = oracle_return(p.lam, p.x1_fixed)
        assert abs(x_out - p.x1_fixed) <= 1e-7 * p.x1_fixed, p
        assert period == pytest.approx(p.period, rel=1e-7), p


@pytest.mark.parametrize("lam", [0.1, 1.0])
@pytest.mark.parametrize("x1", [0.5, 1e-3])
def test_switching_times_and_states_match_oracle(paper_system, lam, x1, cfg):
    traj = integrate(paper_system, (x1, 0.0), lam, StopAfterEvents(4), cfg)
    ev = traj.events
    assert traj.quadrants[ev].tolist() == [q for q, _, _ in ARCS]
    for t_ev, x_ev, (t, x) in zip(traj.times[ev], traj.states[ev], oracle_events(lam, x1),
                                  strict=True):
        assert t_ev == pytest.approx(t, rel=1e-8), (t_ev, x_ev)
        assert np.allclose(x_ev, x, rtol=0.0, atol=1e-8 * x1), (t_ev, x_ev)


def two_sided_half_return(lam, x1):
    """(h(x1), period) of TWO_SIDED, where p = (|x|^2 - |x|^4) x in every region.

    A radial term leaves the angle's motion alone, so on each quarter-turn
    x = rho y, where y(t) = e^{-at} (cos(wt) u_in + sqrt(b/c) sin(wt) u_out)
    is the linear flow from the unit entry vector u_in to the exit axis u_out
    (the same form for both quarters, as in ``test_exact.py``), reached at the
    linear time T = pi / (2w); rho solves rho' = rho (|rho y|^2 - |rho y|^4).
    """
    b = math.e * math.pi + lam * lam + lam
    c = math.pi / math.e + lam * lam
    omega, ratio = math.sqrt(b * c), math.sqrt(b / c)
    T = math.pi / (2.0 * omega)
    r, u_in = x1, np.array([1.0, 0.0])
    for u_out in (np.array([0.0, -1.0]), np.array([-1.0, 0.0])):   # regions 4 and 3
        def y(t, u_in=u_in, u_out=u_out):
            return math.exp(-A * t) * (math.cos(omega * t) * u_in
                                       + ratio * math.sin(omega * t) * u_out)

        def rho_rate(t, rho):
            s = rho[0] ** 2 * (y(t) @ y(t))
            return rho * (s - s * s)

        sol = solve_ivp(rho_rate, (0.0, T), [r], method="DOP853", rtol=1e-13, atol=1e-15 * r)
        assert sol.status == 0
        r, u_in = sol.y[0, -1] * math.hypot(*y(T)), u_out
    return r, 4.0 * T


@pytest.mark.parametrize("x1", [0.5, 4.19, 8.39, 10.0])
def test_two_sided_half_return_matches_rho_ode(cfg, x1):
    # the scan's largest amplitudes too: a rejected trial step beyond the
    # bounding box, where the field points inward, only shrinks the step;
    # measured 9.3e-12 to 2.0e-11 relative, period 3.1e-12 to 4.6e-12
    system = parse_config(json.dumps(TWO_SIDED)).system
    s = poincare_numeric(system, x1, 0.02, cfg, half=True)
    h, period = two_sided_half_return(0.02, x1)
    assert abs(s.x1_out - h) <= 1e-10 * h
    assert abs(s.period - period) <= 1.5e-11 * period
