"""The exact return map of the paper example as the integrator's reference.

Every perturbation of the paper example is radial, p_q(x) = s_q(x) x,
with s_q homogeneous of degree m_q:
- regions 1 and 3: s = -(x1^2 + lam x2^2), m = 2;
- regions 2 and 4: s = -lam x1^4, m = 4.

A radial term leaves the angle's motion alone, so x(t) = rho(t) y(t),
where y is the region's linear flow from the unit entry vector, and rho
solves the Bernoulli equation rho(t)^-m = r_in^-m - m int_0^t s_q(y) dtau.
Each quarter-turn therefore takes the linear transit time
T = pi / (2 sqrt(bc)) at every amplitude, and maps r_in to
|y(T)| (r_in^-m - m J_q)^(-1/m) with J_q = int_0^T s_q(y) dtau, a smooth
integral that Gauss-Legendre evaluates to rounding (20 and 80 nodes
agree to 3e-16).

The linear flow and s_q are written out here from the paper's formulas,
as ``test_oracle.py`` writes its fields, not read from the package.
Each bound is about 3x the error measured at the default rel_tol 1e-10.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from switchbif import (StopOnReturn, continue_branch, half_return, integrate,
                       poincare_numeric)

A = 2.0
NODES, WEIGHTS = leggauss(40)
#: clockwise from the positive x1-axis through regions 4, 3, 2, 1:
#: (degree m of the region's radial term, unit vector of its exit axis)
QUARTERS = ((4, (0.0, -1.0)), (2, (-1.0, 0.0)), (4, (0.0, 1.0)), (2, (1.0, 0.0)))


def coefficients(lam):
    """(b, c, T): the paper's b(lam) and c(lam), and the quarter-turn time."""
    b = math.e * math.pi + lam * lam + lam
    c = math.pi / math.e + lam * lam
    return b, c, math.pi / (2.0 * math.sqrt(b * c))


def exact_events(lam, x1):
    """(time, state) of the four switching events of one revolution from (x1, 0)."""
    b, c, T = coefficients(lam)
    omega, ratio = math.sqrt(b * c), math.sqrt(b / c)
    tau = 0.5 * T * (NODES + 1.0)
    r, u_in, events = x1, np.array([1.0, 0.0]), []
    for k, (m, exit_axis) in enumerate(QUARTERS, start=1):
        u_out = np.array(exit_axis)
        # every region's linear flow turns the entry axis onto the exit axis
        # in time T and stretches it by ratio * exp(-A T)
        y = np.exp(-A * tau) * (np.cos(omega * tau) * u_in[:, None]
                                + ratio * np.sin(omega * tau) * u_out[:, None])
        s = -lam * y[0] ** 4 if m == 4 else -(y[0] ** 2 + lam * y[1] ** 2)
        J = 0.5 * T * (WEIGHTS @ s)
        r = ratio * math.exp(-A * T) * r * (1.0 - m * J * r ** m) ** (-1.0 / m)
        events.append((k * T, r * u_out))
        u_in = u_out
    return events


def exact_return(lam, x1):
    """pi(x1) of the exact map."""
    return float(exact_events(lam, x1)[-1][1][0])


def exact_delta(lam):
    """The linear return ratio: the map's gain at zero amplitude."""
    b, c, T = coefficients(lam)
    return (math.sqrt(b / c) * math.exp(-A * T)) ** 4


def exact_fixed_point(lam, lo, hi):
    """pi(x) = x by bisection on the exact map, to a few ulps."""
    f_lo = exact_return(lam, lo) - lo
    while hi - lo > 4.0 * math.ulp(hi):
        mid = 0.5 * (lo + hi)
        f_mid = exact_return(lam, mid) - mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_exact_map_at_zero_lambda_is_the_critical_linear_return():
    # delta(0) = 1: b/c = e^2 and sqrt(bc) = pi at lam = 0
    assert exact_delta(0.0) == pytest.approx(1.0, abs=1e-15)
    assert exact_return(0.0, 1e-8) == pytest.approx(1e-8, rel=1e-15)


@pytest.mark.parametrize("x1", [1e-4, 0.5])
def test_return_map_matches_exact(paper_system, cfg, x1):
    # measured at rel_tol 1e-10: x1_out 2.5e-10 / 3.0e-10, period 6.3e-12 / 1.6e-11
    s = poincare_numeric(paper_system, x1, 0.1, cfg)
    t, x = exact_events(0.1, x1)[-1]
    assert abs(s.x1_out - x[0]) <= 9e-10 * x[0]
    assert abs(s.period - t) <= 5e-11 * t


@pytest.mark.parametrize("x1", [1e-4, 0.5])
def test_half_return_matches_exact(paper_system, cfg, x1):
    # the state after two quarter-turns, mirrored, and twice its time;
    # measured x1_out 1.3e-10 / 1.7e-10, period 6.3e-12 / 1.7e-11
    s = half_return(paper_system, x1, 0.1, cfg)
    t, x = exact_events(0.1, x1)[1]
    assert abs(s.x1_out + x[0]) <= 5e-10 * -x[0]
    assert abs(s.period - 2.0 * t) <= 5e-11 * 2.0 * t


@pytest.mark.parametrize("x1", [1e-4, 0.5])
def test_event_rows_match_exact(paper_system, cfg, x1):
    # every event row at time k T and on the exact state; measured
    # 1.7e-11 in time and 3.0e-10 of the state's max-norm
    traj = integrate(paper_system, (x1, 0.0), 0.1, StopOnReturn(), cfg)
    exact = exact_events(0.1, x1)
    assert len(traj.events) == len(exact)
    for i, (t, x) in zip(traj.events, exact):
        assert abs(traj.times[i] - t) <= 5e-11 * t
        assert np.max(np.abs(traj.states[i] - x)) <= 9e-10 * np.max(np.abs(x))


def test_branch_amplitudes_match_exact_fixed_points(paper_system, cfg):
    # the amplitude error is the return-map error over |pi'(x*) - 1|, which
    # is about 2 |delta - 1| near the bifurcation; measured
    # |x - x*| / x* * |delta - 1| <= 2.0e-10 on these five points (solved
    # on the half return h, whose error over |h'(x*) - 1| is about the same)
    res = continue_branch(paper_system, [0.02, 0.05, 0.1, 0.5, 1.0], cfg)
    assert len(res.points) == 5
    for p in res.points:
        exact = exact_fixed_point(p.lam, 0.5 * p.x1_fixed, 2.0 * p.x1_fixed)
        bound = 7e-10 / abs(exact_delta(p.lam) - 1.0)
        assert abs(p.x1_fixed - exact) <= bound * exact, p
