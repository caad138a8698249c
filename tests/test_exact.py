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

from switchbif import (EscapeError, IntegratorConfig, StopOnReturn, continue_branch,
                       delta_numeric, integrate, poincare_numeric)

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


def quarter_integrals(lam):
    """J_q of each quarter-turn of QUARTERS, in order."""
    b, c, T = coefficients(lam)
    omega, ratio = math.sqrt(b * c), math.sqrt(b / c)
    tau = 0.5 * T * (NODES + 1.0)
    u_in, integrals = np.array([1.0, 0.0]), []
    for m, exit_axis in QUARTERS:
        u_out = np.array(exit_axis)
        # every region's linear flow turns the entry axis onto the exit axis
        # in time T and stretches it by ratio * exp(-A T)
        y = np.exp(-A * tau) * (np.cos(omega * tau) * u_in[:, None]
                                + ratio * np.sin(omega * tau) * u_out[:, None])
        s = -lam * y[0] ** 4 if m == 4 else -(y[0] ** 2 + lam * y[1] ** 2)
        integrals.append(0.5 * T * (WEIGHTS @ s))
        u_in = u_out
    return integrals


def exact_events(lam, x1):
    """(time, state) of the four switching events of one revolution from (x1, 0)."""
    b, c, T = coefficients(lam)
    sigma = math.sqrt(b / c) * math.exp(-A * T)
    r, events = x1, []
    for k, ((m, exit_axis), J) in enumerate(zip(QUARTERS, quarter_integrals(lam)), start=1):
        r = sigma * r * (1.0 - m * J * r ** m) ** (-1.0 / m)
        events.append((k * T, r * np.array(exit_axis)))
    return events


def exact_return(lam, x1):
    """pi(x1) of the exact map."""
    return float(exact_events(lam, x1)[-1][1][0])


def exact_delta(lam):
    """The linear return ratio: the map's gain at zero amplitude."""
    b, c, T = coefficients(lam)
    return (math.sqrt(b / c) * math.exp(-A * T)) ** 4


def exact_leading_coefficient(lam):
    """C of pi(x) = delta x + C x^3 + O(x^5): a quarter-turn maps r to
    sigma r (1 + J r^m + ...), so only the cubic (m = 2) quarters count."""
    b, c, T = coefficients(lam)
    sigma = math.sqrt(b / c) * math.exp(-A * T)
    lin, C = 1.0, 0.0
    for (m, _), J in zip(QUARTERS, quarter_integrals(lam)):
        lin, C = sigma * lin, sigma * C + (sigma * J * lin ** 3 if m == 2 else 0.0)
    return C


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
    # measured at rel_tol 1e-10: x1_out 1.1e-10 / 5.8e-11, period 3.8e-12 / 3.4e-12
    s = poincare_numeric(paper_system, x1, 0.1, cfg)
    t, x = exact_events(0.1, x1)[-1]
    assert abs(s.x1_out - x[0]) <= 3.5e-10 * x[0]
    assert abs(s.period - t) <= 1.2e-11 * t


@pytest.mark.parametrize("x1", [1e-4, 0.5])
def test_half_return_matches_exact(paper_system, cfg, x1):
    # the state after two quarter-turns, mirrored, and twice its time;
    # measured x1_out 5.5e-11 / 3.1e-11, period 3.9e-12 / 3.3e-12
    s = poincare_numeric(paper_system, x1, 0.1, cfg, half=True)
    t, x = exact_events(0.1, x1)[1]
    assert abs(s.x1_out + x[0]) <= 1.7e-10 * -x[0]
    assert abs(s.period - 2.0 * t) <= 1.2e-11 * 2.0 * t


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("x1", [8.39, 10.0])
def test_half_return_from_the_largest_scan_amplitudes(paper_system, cfg, lam, x1):
    # a rejected trial step beyond the bounding box, where the field points
    # inward, only shrinks the step; measured at most 1.3e-11 relative
    s = poincare_numeric(paper_system, x1, lam, cfg, half=True)
    _, x = exact_events(lam, x1)[1]
    assert abs(s.x1_out + x[0]) <= 1e-10 * -x[0]


@pytest.mark.parametrize("lam", [-0.2, -0.4])
@pytest.mark.parametrize("x1", [8.39, 10.0])
def test_blow_up_from_the_largest_scan_amplitudes_escapes(paper_system, cfg, rhs_evals,
                                                          lam, x1):
    # the +|lam| x1^5 terms point outward there: measured 24 to 35 RHS evals
    with pytest.raises(EscapeError):
        poincare_numeric(paper_system, x1, lam, cfg, half=True)
    assert rhs_evals[0] <= 35


@pytest.mark.parametrize("x1", [1e-4, 0.5])
def test_event_rows_match_exact(paper_system, cfg, x1):
    # every event row at time k T and on the exact state; measured
    # 3.9e-12 in time and 1.1e-10 of the state's max-norm
    traj = integrate(paper_system, (x1, 0.0), 0.1, StopOnReturn(), cfg)
    exact = exact_events(0.1, x1)
    assert len(traj.events) == len(exact)
    for i, (t, x) in zip(traj.events, exact):
        assert abs(traj.times[i] - t) <= 1.2e-11 * t
        assert np.max(np.abs(traj.states[i] - x)) <= 3.5e-10 * np.max(np.abs(x))


#: (rel_tol, x1): bound on the relative error of one return at lam = 0.1.
#: Measured: 3.9e-7 / 1.6e-7, 4.8e-9 / 2.5e-9, 1.1e-10 / 5.8e-11 and
#: 1.0e-12 / 6.7e-13 at x1 = 1e-4 / 0.5; each bound is 3x that, capped by
#: the 5(4) pair's error (7.1e-7 / 1.2e-6, 7.9e-9 / 9.5e-9, 2.5e-10 /
#: 3.0e-10, 2.7e-12 / 2.9e-12)
WORK_PRECISION = {(1e-6, 1e-4): 7.1e-7, (1e-6, 0.5): 4.8e-7,
                  (1e-8, 1e-4): 7.9e-9, (1e-8, 0.5): 7.4e-9,
                  (1e-10, 1e-4): 2.5e-10, (1e-10, 0.5): 1.75e-10,
                  (1e-12, 1e-4): 2.6e-12, (1e-12, 0.5): 2.0e-12}


@pytest.mark.parametrize("rel_tol,x1", sorted(WORK_PRECISION))
def test_work_precision(paper_system, rhs_evals, rel_tol, x1):
    # at the default rel_tol 1e-10, 378 / 496 RHS evals measured (382 / 500
    # with the ending arc's field re-evaluated at each event, 527 / 634 with
    # brent on re-taken steps to locate each crossing)
    s = poincare_numeric(paper_system, x1, 0.1, IntegratorConfig(rel_tol))
    exact = exact_return(0.1, x1)
    assert abs(s.x1_out - exact) <= WORK_PRECISION[rel_tol, x1] * exact
    if rel_tol == 1e-10:
        assert rhs_evals[0] <= 550


@pytest.mark.parametrize("lam,bound", [(0.0, 3.5e-10), (0.1, 3.5e-10), (1.0, 3.5e-11),
                                       (-0.3, 3.5e-10)])
def test_delta_numeric_matches_exact(paper_system, cfg, lam, bound):
    # measured 1.05e-10, 1.10e-10, 1.03e-11 and 1.19e-10 relative
    exact = exact_delta(lam)
    assert abs(delta_numeric(paper_system, lam, cfg) - exact) <= bound * exact


def test_branch_amplitudes_match_exact_fixed_points(paper_system, cfg):
    # the amplitude error is the return-map error over |pi'(x*) - 1|, which
    # is about 2 |delta - 1| near the bifurcation; measured
    # |x - x*| / x* * |delta - 1| = 3.8e-11 to 6.2e-11 on these five points
    # (1.3e-10 to 2.4e-10 with the 5(4) pair; solved on the half return h,
    # whose error over |h'(x*) - 1| is about the same)
    res = continue_branch(paper_system, [0.02, 0.05, 0.1, 0.5, 1.0], cfg)
    assert len(res.points) == 5
    for p in res.points:
        exact = exact_fixed_point(p.lam, 0.5 * p.x1_fixed, 2.0 * p.x1_fixed)
        bound = 1.8e-10 / abs(exact_delta(p.lam) - 1.0)
        assert abs(p.x1_fixed - exact) <= bound * exact, p
