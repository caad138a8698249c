import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import make_linear_system, make_params
from switchbif import (BranchDirection, CheckStatus, DegenerateError,
                       DomainError, InsufficientDataError, IntegrationError,
                       IntegratorConfig, LambdaPoly, MonomialTerm, TangencyError,
                       NoBracketError, OriginClass, PerturbationTooSmallError,
                       PolyField, Quadrant, StopOnReturn, SwitchedSystem, SystemParams,
                       bifurcation_direction, check_global_conditions,
                       classify_origin, continue_branch, delta, delta_prime,
                       find_critical_lambda, fit_local_expansion,
                       fit_scaling_law, integrate, is_point_symmetric,
                       leading_coefficient, linear_matrix, parse_config, poincare_numeric)
from switchbif import bifurcation, numeric
from switchbif.bifurcation import BranchPoint
from switchbif.model import freeze
from switchbif.rootfind import brent
from test_cli import TWO_SIDED
from test_exact import exact_delta, exact_fixed_point, exact_leading_coefficient


def field_parts(sys, q, x, lam):
    """Linear part A_q x and perturbation of region q at x, computed from
    linear_matrix and the MonomialTerm lists, independent of freeze."""
    m = linear_matrix(q, sys.params, lam)
    pf = sys.perturbations[q - 1]
    lin = (m[0, 0] * x[0] + m[0, 1] * x[1], m[1, 0] * x[0] + m[1, 1] * x[1])
    pert = tuple(sum(t.coeff.value_at(lam) * x[0] ** t.pow1 * x[1] ** t.pow2 for t in comp)
                 for comp in (pf.comp1, pf.comp2))
    return lin, pert


def with_x1_squared(paper_system, coeffs=(0.1,)):
    """The paper example plus coeffs(lam) x1^2 in region 1's first component:
    not point-symmetric where coeffs(lam) != 0, and k = 2 unless the
    polynomial is zero."""
    p1 = paper_system.perturbations[0]
    even = MonomialTerm(LambdaPoly(coeffs), 2, 0)
    return SwitchedSystem(paper_system.params, (PolyField(p1.comp1 + (even,), p1.comp2),
                                                *paper_system.perturbations[1:]))


def engineered_params():
    """b(lam) = 3.75 + lam, c = 1, a chosen so the index crosses 1 at lam = 0.25."""
    a = math.log(16.0) / math.pi
    return SystemParams(a=a, b=LambdaPoly((3.75, 1.0)), c=LambdaPoly((1.0,)),
                        lambda_domain=(-0.5, 0.6))


class TestFindCriticalLambda:
    def test_paper_example(self, paper_params):
        crit = find_critical_lambda(paper_params, (-0.1, 0.1))
        assert abs(crit.lambda_star) < 1e-11
        assert crit.delta_prime == pytest.approx(4.0 / (math.e * math.pi), rel=1e-9)

    def test_constant_index_has_no_bracket(self):
        params = make_params(0.1, 6.0, 1.0)  # index constant in the parameter
        with pytest.raises(NoBracketError):
            find_critical_lambda(params, (-0.5, 0.5))

    def test_engineered_root(self):
        params = engineered_params()
        crit = find_critical_lambda(params, (0.0, 0.5))
        assert crit.lambda_star == pytest.approx(0.25, abs=1e-12)
        assert abs(delta(params, crit.lambda_star) - 1.0) <= 1e-12

    def test_root_invariant_under_bracket_choice(self):
        params = engineered_params()
        roots = [find_critical_lambda(params, br).lambda_star
                 for br in ((0.0, 0.5), (0.1, 0.3), (-0.4, 0.45))]
        assert max(roots) - min(roots) <= 1e-12


class TestFitLocalExpansion:
    def test_linear_system_unresolvable(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        with pytest.raises(PerturbationTooSmallError):
            fit_local_expansion(sys, 0.0, cfg)

    def test_paper_example_cubic_contraction(self, paper_system, cfg):
        fit = fit_local_expansion(paper_system, 0.0, cfg)
        assert fit.delta_coeff < 0.0
        assert fit.k_exp == pytest.approx(3.0, abs=0.05)
        assert fit.delta_lin == pytest.approx(1.0, abs=1e-12)

    def test_paper_example_against_quadrature_oracle(self, paper_system, cfg):
        # the region-1/3 perturbation at the critical parameter is radial,
        # -x1^2 * x, so the leading return-map coefficient is
        # -2 (b/c) * integral_0^{pi/(2 w)} exp(-2 a t) sin(w t)^2 dt
        # with the quarter-turn section factor equal to 1 here
        a = 2.0
        b = math.e * math.pi
        c = math.pi / math.e
        w = math.sqrt(b * c)
        ts = np.linspace(0.0, math.pi / (2.0 * w), 40001)
        integrand = np.exp(-2.0 * a * ts) * np.sin(w * ts) ** 2
        quad = float(np.trapezoid(integrand, ts))
        predicted = -2.0 * (b / c) * quad
        fit = fit_local_expansion(paper_system, 0.0, cfg, x_max=0.05, n_points=8)
        assert fit.delta_coeff == pytest.approx(predicted, rel=0.05)

    def test_fit_stable_under_grid_halving(self, paper_system, cfg):
        full = fit_local_expansion(paper_system, 0.0, cfg, x_max=0.2)
        half = fit_local_expansion(paper_system, 0.0, cfg, x_max=0.1)
        assert abs(full.k_exp - half.k_exp) < 0.05

    def test_synthetic_cubic_map_recovery(self, cfg):
        params = make_params(1.0, 1.0, 1.0)
        sys = SwitchedSystem(params)
        d = delta(params, 0.0)
        coeff = -0.37
        fit = fit_local_expansion(sys, 0.0, cfg,
                                  return_map=lambda x: d * x + coeff * x ** 3)
        assert fit.delta_lin == pytest.approx(d, rel=1e-12)
        assert fit.k_exp == pytest.approx(3.0, abs=1e-6)
        assert fit.delta_coeff == pytest.approx(coeff, rel=1e-6)


class TestLeadingCoefficient:
    def test_paper_example_at_the_critical_parameter(self, paper_system, paper_params):
        # reference values of the exact map in test_exact
        crit = find_critical_lambda(paper_params, (-0.1, 0.1))
        C, k = leading_coefficient(paper_system, crit.lambda_star)
        assert k == 3
        assert C == pytest.approx(-0.99241215900, rel=1e-9)
        assert -C / crit.delta_prime == pytest.approx(2.11873401931, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.02, 0.5, 1.0, -0.3])
    def test_paper_example_matches_the_exact_map(self, paper_system, lam):
        # measured 3e-15 to 5e-15 relative
        C, k = leading_coefficient(paper_system, lam)
        assert k == 3
        assert C == pytest.approx(exact_leading_coefficient(lam), rel=1e-12)

    @pytest.mark.parametrize("make,degree", [(with_x1_squared, 2),
                                             (lambda paper: two_sided_system(), 3)],
                             ids=["x1_squared", "two_sided"])
    def test_asymmetric_system_matches_numeric_returns(self, paper_system, make, degree):
        # q(h) = (pi(h) - delta h) / h^k = C + a1 h + a2 h^2 + ..., from
        # returns at rel_tol 1e-13 on h = 0.02 / 2^j, extrapolated three
        # times (Richardson); measured 4.5e-9 (x1_squared) and 6.0e-8
        # (two_sided) relative off
        sys = make(paper_system)
        C, k = leading_coefficient(sys, 0.1)
        assert k == degree
        d, cfg = delta(sys.params, 0.1), IntegratorConfig(rel_tol=1e-13)
        hs = [0.02 / 2 ** j for j in range(5)]
        q = [(poincare_numeric(sys, h, 0.1, cfg).x1_out - d * h) / h ** k for h in hs]
        for level in (1, 2, 3):
            q = [(2 ** level * fine - coarse) / (2 ** level - 1)
                 for coarse, fine in zip(q, q[1:])]
        assert C == pytest.approx(q[-1], rel=1e-6)

    def test_lowest_degree_comes_from_the_frozen_terms(self, paper_system):
        # lam x1^2 freezes to 0.0 at lam = 0, which leaves the paper
        # example's k = 3 there, and sets k = 2 elsewhere
        lam_x1_squared = with_x1_squared(paper_system, (0.0, 1.0))
        assert (leading_coefficient(lam_x1_squared, 0.0)
                == leading_coefficient(paper_system, 0.0))
        C, k = leading_coefficient(lam_x1_squared, 0.1)
        assert k == 2 and C != 0.0
        assert (leading_coefficient(with_x1_squared(paper_system, (0.0, 0.0)), 0.1)
                == leading_coefficient(paper_system, 0.1))

    def test_linear_system_gives_no_seed_and_is_scanned(self, cfg, monkeypatch):
        # no seed: the whole grid gets a sign, from x_scan_max down; every
        # residual is positive (sqrt(delta) = 1.60), so none decides another
        # grid point and all 25 are integrated
        assert self.scan_calls(make_linear_system(0.1, 2.0, 1.0), cfg,
                               monkeypatch) == self.GRID[::-1]

    def test_contracting_linear_system_decides_every_other_grid_point(self, cfg,
                                                                      monkeypatch):
        # sqrt(delta) = 0.40: h(x) = 0.4 x decides the grid points in
        # (0.4 x, x), so below x_scan_max every other one is integrated
        assert (self.scan_calls(make_linear_system(0.1, 1.0, 2.0), cfg, monkeypatch)
                == [10.0] + self.GRID[-4::-2])

    GRID = [bifurcation._X_SCAN_MIN * 2.0 ** j for j in range(24)] + [10.0]

    @staticmethod
    def scan_calls(sys, cfg, monkeypatch):
        """Amplitudes integrated, in order, for a linear system at lam = 0."""
        assert leading_coefficient(sys, 0.0) == (0.0, 0)
        calls = []
        original = bifurcation.poincare_numeric

        def ret(*args, **kw):
            calls.append(args[1])
            return original(*args, **kw)
        monkeypatch.setattr(bifurcation, "poincare_numeric", ret)
        res = continue_branch(sys, [0.0], cfg)
        assert res.points == () and res.no_orbit == (0.0,)
        return calls


class TestBifurcationDirection:
    def test_paper_example_positive_side(self, paper_system):
        assert (bifurcation_direction(paper_system)
                == BranchDirection.BranchForPositiveLambda)

    def test_flipped_derivative_gives_negative_side(self, paper_system, cfg):
        # same system with b(lam) = e*pi + lam^2 - lam: the index derivative
        # flips sign while the nonlinear coefficient is unchanged
        p = paper_system.params
        flipped = SystemParams(a=p.a, b=LambdaPoly((p.b.coeffs[0], -1.0, 1.0)),
                               c=p.c, lambda_domain=p.lambda_domain)
        sys_flipped = SwitchedSystem(flipped, paper_system.perturbations)
        assert delta_prime(flipped, 0.0) == pytest.approx(-4.0 / (math.e * math.pi), rel=1e-9)
        assert (bifurcation_direction(sys_flipped)
                == BranchDirection.BranchForNegativeLambda)
        # brute-force confirmation: an orbit exists on the negative side only
        res = continue_branch(sys_flipped, [-0.05, 0.05], cfg)
        assert [p.lam for p in res.points] == [-0.05]
        assert res.no_orbit == (0.05,)

    def test_vanishing_cubic_leaves_the_quintic(self, paper_params, cfg):
        # p = (-lam x1^3 - x1^5, -lam x1^2 x2 - x1^4 x2) in every region: at
        # lam = 0 only the quintic is left, and C = -1.389 agrees with the
        # fitted -1.378 (k_exp 4.997)
        lam_cubic = PolyField(comp1=(MonomialTerm(LambdaPoly((0.0, -1.0)), 3, 0),
                                     MonomialTerm(LambdaPoly((-1.0,)), 5, 0)),
                              comp2=(MonomialTerm(LambdaPoly((0.0, -1.0)), 2, 1),
                                     MonomialTerm(LambdaPoly((-1.0,)), 4, 1)))
        sys = SwitchedSystem(paper_params, (lam_cubic,) * 4)
        C, k = leading_coefficient(sys, 0.0)
        fit = fit_local_expansion(sys, 0.0, cfg)
        assert k == 5 and fit.k_exp == pytest.approx(5.0, abs=0.01)
        assert C == pytest.approx(fit.delta_coeff, rel=0.02)
        assert fit.delta_coeff * delta_prime(paper_params, 0.0) < 0.0
        assert bifurcation_direction(sys) == BranchDirection.BranchForPositiveLambda

    def test_off_critical_system_raises_degenerate(self):
        sys = SwitchedSystem(make_params(1.0, 2.0, 1.0))
        assert abs(delta(sys.params, 0.0) - 1.0) > 1e-3
        with pytest.raises(DegenerateError):
            bifurcation_direction(sys)

    def test_critical_linear_system_raises_perturbation_too_small(self, paper_params):
        sys = SwitchedSystem(paper_params)
        with pytest.raises(PerturbationTooSmallError):
            bifurcation_direction(sys)


class TestOneDeltaOneTolerance:
    """Every check of delta = 1 uses analytic.DELTA_ONE_TOL (1e-12)."""

    @pytest.fixture
    def near_critical(self, paper_system):
        """The paper example with a lowered so that delta(0) - 1 = 5e-11."""
        params = dataclasses.replace(paper_system.params, a=paper_system.params.a - 2.5e-11)
        assert delta(params, 0.0) - 1.0 == pytest.approx(5e-11, rel=1e-3)
        return SwitchedSystem(params, paper_system.perturbations)

    def test_lambda_zero_is_not_critical(self, near_critical):
        params = near_critical.params
        assert classify_origin(params, 0.0) is OriginClass.Unstable
        crit = find_critical_lambda(params, (-0.1, 0.1))
        assert crit.lambda_star < 0.0
        with pytest.raises(DegenerateError):
            bifurcation_direction(near_critical)
        assert (bifurcation_direction(near_critical, lam_star=crit.lambda_star)
                == BranchDirection.BranchForPositiveLambda)

    def test_index_conditions_fail(self, near_critical):
        rep = check_global_conditions(near_critical, 0.5, radius_M=5.0, n_samples=5_000)
        assert not rep.delta_conditions_ok

    def test_index_conditions_need_a_nondegenerate_derivative(self):
        # delta(0) = 1 with 0 < delta'(0) < 1e-10, where find_critical_lambda
        # raises DegenerateError
        a = math.sqrt(2.0) * math.log(4.0) / (2.0 * math.pi)
        params = SystemParams(a=a, b=LambdaPoly((2.0, 1e-13)), c=LambdaPoly((1.0,)))
        assert abs(delta(params, 0.0) - 1.0) <= 1e-12
        assert 0.0 < delta_prime(params, 0.0) < 1e-10
        with pytest.raises(DegenerateError):
            find_critical_lambda(params, (-0.5, 0.5))
        rep = check_global_conditions(SwitchedSystem(params), 0.0,
                                      radius_M=5.0, n_samples=5_000)
        assert not rep.delta_conditions_ok


class TestContinueBranch:
    def test_paper_branch_monotone(self, paper_system, cfg):
        res = continue_branch(paper_system, [0.02, 0.05, 0.1, 0.5, 1.0], cfg)
        assert len(res.points) == 5
        assert res.no_orbit == ()
        xs = [p.x1_fixed for p in res.points]
        assert all(x > 0.0 for x in xs)
        assert xs == sorted(xs)
        assert all(p.residual <= 1e-8 for p in res.points)
        assert xs[0] < xs[2] / 2.0  # branch shrinks toward the origin

    def test_wrong_side_has_no_orbit(self, paper_system, cfg):
        res = continue_branch(paper_system, [-0.05], cfg)
        assert res.points == ()
        assert res.no_orbit == (-0.05,)

    def test_crossing_step_beyond_the_box_is_no_orbit(self, paper_system):
        # at rel_tol 0.5 the larger scan amplitudes take crossing steps that
        # end far outside the bounding box: they escape, and no orbit is found
        res = continue_branch(paper_system, [0.02, 0.1, 0.5], IntegratorConfig(0.5))
        assert res.points == ()
        assert res.no_orbit == (0.02, 0.1, 0.5)

    def test_no_orbit_at_the_weak_focus(self, paper_system, cfg):
        # delta(0) = 1 and the cubic term contracts: every small-amplitude
        # residual is noise, and noise must not bracket an orbit
        assert continue_branch(paper_system, [0.0], cfg).no_orbit == (0.0,)

    @pytest.mark.parametrize("lam", [1e-5, 1e-6])
    def test_amplitude_near_bifurcation_matches_tight_solve(self, paper_system, cfg, lam):
        # the residual's slope at the orbit is only about -2 (delta - 1), so
        # an absolute stop on |h(x) - x| would leave the amplitude far off;
        # the tight solve uses the same map, the half return of the
        # point-symmetric paper example (pi and h differ by eps / |delta - 1|)
        assert is_point_symmetric(paper_system, lam)
        x = continue_branch(paper_system, [lam], cfg).points[0].x1_fixed
        tight, _ = brent(lambda x1: poincare_numeric(paper_system, x1, lam, cfg,
                                                     half=True).x1_out - x1,
                         x / 2.0, 2.0 * x, xtol=1e-13, ftol=0.0)
        assert abs(x - tight) <= 1e-7 * tight
        exact = exact_fixed_point(lam, x / 2.0, 2.0 * x)
        assert abs(x - exact) <= 7e-10 / abs(exact_delta(lam) - 1.0) * exact

    def test_each_point_reverified_by_full_integration(self, paper_system, cfg):
        res = continue_branch(paper_system, [0.05, 0.5], cfg)
        for p in res.points:
            traj = integrate(paper_system, (p.x1_fixed, 0.0), p.lam, StopOnReturn(), cfg)
            assert len(traj.events) == 4
            assert abs(traj.states[-1, 0] - p.x1_fixed) <= max(10.0 * p.residual, 1e-12)
            assert traj.t_final == pytest.approx(p.period, rel=1e-9)

    def test_branch_continuity_under_grid_refinement(self, paper_system, cfg):
        coarse = continue_branch(paper_system, [0.1, 0.3], cfg)
        fine = continue_branch(paper_system, [0.1, 0.2, 0.3], cfg)
        gap_coarse = abs(coarse.points[1].x1_fixed - coarse.points[0].x1_fixed)
        gaps_fine = [abs(b.x1_fixed - a.x1_fixed)
                     for a, b in zip(fine.points, fine.points[1:])]
        assert max(gaps_fine) < gap_coarse

    def test_branch_found_despite_unintegrable_scan_tail(self, cfg):
        # radially expanding quartic term: trajectories from large scan
        # amplitudes blow up in finite time, yet the orbit at small
        # amplitude must still be found
        params = SystemParams(a=0.1, b=LambdaPoly((1.5,)), c=LambdaPoly((1.0,)),
                              lambda_domain=(-1.0, 1.0))
        pert = PolyField(comp1=(MonomialTerm(LambdaPoly((-1.0,)), 3, 0),
                                MonomialTerm(LambdaPoly((0.4,)), 5, 0)),
                         comp2=(MonomialTerm(LambdaPoly((-1.0,)), 2, 1),
                                MonomialTerm(LambdaPoly((0.4,)), 4, 1)))
        sys_blowup = SwitchedSystem(params, (pert,) * 4)
        res = continue_branch(sys_blowup, [0.0], cfg)
        assert len(res.points) == 1
        assert res.points[0].x1_fixed == pytest.approx(0.343285, abs=1e-4)

    @pytest.mark.parametrize("x_max", [1e-6, 1e-7, math.inf, math.nan])
    def test_scan_limit_must_lie_above_the_smallest_scan_amplitude(self, paper_system, cfg,
                                                                   x_max):
        with pytest.raises(ValueError, match="x_scan_max"):
            continue_branch(paper_system, [0.1], cfg, x_scan_max=x_max)

    def test_scaling_seed_matches_sequential(self, paper_system, cfg):
        # each parameter value solved cold and alone is seeded from the
        # leading coefficient and gives the sequential amplitude
        seq = continue_branch(paper_system, [0.02, 0.05], cfg)
        seeded = [continue_branch(paper_system, [lam], cfg).points[0] for lam in (0.02, 0.05)]
        for a, b in zip(seq.points, seeded):
            assert b.x1_fixed == pytest.approx(a.x1_fixed, rel=1e-7)
        assert [p.source for p in seeded] == ["expansion", "expansion"]

    def test_one_point_prediction_uses_the_leading_degree(self, paper_params, cfg):
        # p = -|x|^4 x has k = 5: after one point the law's exponent is
        # m = k - 1 = 4, and the walk from its prediction is short
        terms = [(1.0, 4, 0), (2.0, 2, 2), (1.0, 0, 4)]   # |x|^4 = sum of c x1^i x2^j
        pert = PolyField(
            comp1=tuple(MonomialTerm(LambdaPoly((-c,)), i + 1, j) for c, i, j in terms),
            comp2=tuple(MonomialTerm(LambdaPoly((-c,)), i, j + 1) for c, i, j in terms))
        quintic = SwitchedSystem(paper_params, (pert,) * 4)
        assert leading_coefficient(quintic, 0.1)[1] == 5
        seq = continue_branch(quintic, [0.01, 0.1], cfg)
        assert seq.points[1].source == "previous" and seq.points[1].returns <= 5
        cold = continue_branch(quintic, [0.1], cfg).points[0]
        assert seq.points[1].x1_fixed == pytest.approx(cold.x1_fixed, rel=1e-7)

    def test_prediction_past_float_range_is_infinite(self):
        # the log-log slope of d against x1 over these two points is
        # m = log(1 + 1e-7) / log(1e3) ~ 1.4e-8, so (d / d_ref)**(1 / m) overflows
        m = math.log(1.0000001e-3 / 1e-3) / math.log(1.0 / 1e-3)
        assert bifurcation._predict(1.0, (1.0000001e-3, 1.0, m)) == math.inf

    def test_returns_per_lambda_counted(self, paper_system, cfg, monkeypatch):
        # work counter: the leading coefficient seeds the first parameter
        # value, the previous points the rest; every point reports its returns
        # (each a half return on the point-symmetric paper example)
        calls, halves = [], []
        original = bifurcation.poincare_numeric

        def ret(sys, x1, lam, cfg_, **kw):
            calls.append(lam)
            halves.append(kw["half"])
            return original(sys, x1, lam, cfg_, **kw)
        monkeypatch.setattr(bifurcation, "poincare_numeric", ret)
        lams = [0.02, 0.05, 0.1, 0.5, 1.0]
        res = continue_branch(paper_system, lams, cfg)
        assert len(calls) <= 60
        assert halves == [True] * sum(p.returns for p in res.points)
        assert [p.returns for p in res.points] == [calls.count(lam) for lam in lams]
        assert [p.source for p in res.points] == ["expansion"] + ["previous"] * 4
        assert all(p.returns <= 8 for p in res.points[1:])
        # where the local law has no root the scan runs at once, so a
        # parameter value on the other side costs what it costs alone
        calls.clear()
        continue_branch(paper_system, [-0.05], cfg)
        alone = len(calls)
        calls.clear()
        continue_branch(paper_system, [0.05, -0.05, 0.05], cfg)
        assert calls.count(-0.05) == alone

    def test_asymmetric_system_falls_back_to_full_returns(self, paper_system, cfg, monkeypatch):
        # one even-degree term in region 1 alone breaks the point symmetry:
        # every return is a full one, and the amplitudes are those of the
        # full-return solve
        sys = with_x1_squared(paper_system)
        halves = []
        original = bifurcation.poincare_numeric

        def ret(*args, **kw):
            halves.append(kw["half"])
            return original(*args, **kw)
        monkeypatch.setattr(bifurcation, "poincare_numeric", ret)
        res = continue_branch(sys, [0.05, 0.1, 0.5], cfg)
        assert halves == [False] * sum(p.returns for p in res.points)
        # the fixed points of the full return by bisection on scipy's DOP853
        # at rtol 1e-13 (this integrator's at rel_tol 1e-13 agree to 2e-12);
        # measured 1.6e-9, 8.5e-10 and 7.0e-10 off
        assert [p.x1_fixed for p in res.points] == pytest.approx(
            [0.1760268675233514, 0.2426341940201467, 0.5505408954202191], rel=2e-9)
        for p in res.points:
            full = poincare_numeric(sys, p.x1_fixed, p.lam, cfg)
            assert p.residual == abs(full.x1_out - p.x1_fixed)
            assert p.period == full.period

    def test_walk_broken_by_an_integration_error_falls_back_to_the_scan(
            self, paper_system, cfg, monkeypatch):
        # the first return at the second parameter value, the walk's start
        # at the predicted amplitude, fails: the scan finds the same orbit
        plain = continue_branch(paper_system, [0.05, 0.1], cfg)
        broken = []
        original = bifurcation.poincare_numeric

        def ret(sys, x1, lam, cfg_, **kw):
            if lam == 0.1 and not broken:
                broken.append(x1)
                raise TangencyError("injected")
            return original(sys, x1, lam, cfg_, **kw)
        monkeypatch.setattr(bifurcation, "poincare_numeric", ret)
        res = continue_branch(paper_system, [0.05, 0.1], cfg)
        assert len(broken) == 1
        assert [p.source for p in res.points] == ["expansion", "scan"]
        assert [p.source for p in plain.points] == ["expansion", "previous"]
        assert res.points[1].x1_fixed == pytest.approx(plain.points[1].x1_fixed, rel=1e-7)
        assert res.points[1].returns > plain.points[1].returns

    # the last two end inside the noise floor (|sqrt(delta) - 1| <= 2.3e-9),
    # where a prediction from the previous orbit must not bracket noise
    @pytest.mark.parametrize("lams", [[0.1, 0.1], [1.0, 0.5, 0.1], [0.05, -0.05, 0.05],
                                      [1e-7, 1e-9], [2e-8, 1e-8]])
    def test_continuation_matches_solving_each_lambda_alone(self, paper_system, cfg, lams):
        self.assert_matches_alone(paper_system, lams, cfg)

    def test_continuation_across_sides_matches_alone(self, paper_system, cfg):
        p = paper_system.params
        flipped = SystemParams(a=p.a, b=LambdaPoly((p.b.coeffs[0], -1.0, 1.0)),
                               c=p.c, lambda_domain=p.lambda_domain)
        self.assert_matches_alone(SwitchedSystem(flipped, paper_system.perturbations),
                                  [-0.05, 0.05], cfg)

    @staticmethod
    def assert_matches_alone(sys, lams, cfg):
        res = continue_branch(sys, lams, cfg)
        alone = [continue_branch(sys, [lam], cfg) for lam in lams]
        assert [p.lam for p in res.points] == [p.lam for a in alone for p in a.points]
        assert res.no_orbit == tuple(lam for a in alone for lam in a.no_orbit)
        assert ([p.lam for p in res.additional]
                == [p.lam for a in alone for p in a.additional])
        for p, q in zip(res.points + res.additional,
                        [p for a in alone for p in a.points + a.additional]):
            assert p.x1_fixed == pytest.approx(q.x1_fixed, rel=1e-7)
            assert p.period == pytest.approx(q.period, rel=1e-7)


def full_scan(residual, xs):
    """Reference for ``bifurcation._scan``: integrates every amplitude of
    ``xs`` from the bottom up and brackets each sign change."""
    brackets, prev = [], None
    for x in xs:
        try:
            r = residual(x)
        except IntegrationError:
            prev = None
            continue
        if abs(r) > residual.floor * x:
            if prev is not None and (prev[1] > 0.0) != (r > 0.0):
                brackets.append((prev[0], x))
            prev = (x, r)
    return brackets


def outcome(res):
    """Everything a branch run reports but its work counter ``returns``."""
    return (tuple(dataclasses.replace(p, returns=0) for p in res.points + res.additional),
            res.no_orbit)


def two_sided_system():
    return parse_config(json.dumps(TWO_SIDED)).system


class TestMonotoneScan:
    SYSTEMS = {"paper": lambda paper: paper,
               "two_sided": lambda paper: two_sided_system(),
               "x1_squared": with_x1_squared,
               "expanding_linear": lambda paper: make_linear_system(0.1, 2.0, 1.0),
               "contracting_linear": lambda paper: make_linear_system(0.1, 1.0, 2.0)}

    # outer additional orbits of two_sided at lam < 0, full returns for
    # x1_squared at lam != 0
    @pytest.mark.parametrize("name, lams", [
        ("paper", [-0.11, 0.1]),
        ("paper", [-0.3, -0.05, 0.02, 0.05, 0.1, 0.5, 1.0, 1.5, 1.9]),
        ("two_sided", [-1.4, -1.0, -0.3, -0.05, 0.02, 0.1]),
        ("x1_squared", [-0.1, 0.05, 0.1, 0.5]),
        ("expanding_linear", [0.0]),
        ("contracting_linear", [0.0])])
    def test_matches_the_full_scan(self, paper_system, cfg, monkeypatch, name, lams):
        # in sequence and each parameter value alone (a cold scan above the
        # seeded orbit), bit for bit, at no more returns
        sys = self.SYSTEMS[name](paper_system)
        for run in [lams] + [[lam] for lam in lams]:
            monotone = continue_branch(sys, run, cfg)
            with monkeypatch.context() as m:
                m.setattr(bifurcation, "_scan", full_scan)
                full = continue_branch(sys, run, cfg)
            assert outcome(monotone) == outcome(full)
            assert all(p.returns <= q.returns for p, q in
                       zip(monotone.points + monotone.additional, full.points + full.additional))

    @pytest.mark.parametrize("lam", [-1.6, -1.7])
    def test_orbit_above_a_walked_one_in_its_grid_cell(self, cfg, lam):
        # a cold walk solves the inner orbit; the outer one lies in the same
        # scan-grid cell (0.52, 1.05), so the scan above it starts at the
        # walk bracket's upper end.  Reference: the sign changes of the
        # residual on a 0.025-step grid (the full scan misses the pair too)
        sys = two_sided_system()
        res = continue_branch(sys, [lam], cfg)
        grid = np.linspace(0.3, 1.2, 37)
        r = [poincare_numeric(sys, x, lam, cfg, half=True).x1_out - x for x in grid]
        cells = [(a, b) for a, b, ra, rb in zip(grid, grid[1:], r, r[1:])
                 if (ra > 0.0) != (rb > 0.0)]
        orbits = sorted(p.x1_fixed for p in res.points + res.additional)
        assert len(cells) == len(orbits) == 2
        assert all(a < x < b for x, (a, b) in zip(orbits, cells))

    def test_failed_confirmation_matches_the_full_scan(self, cfg, monkeypatch):
        # two_sided at lam = 0.02 has no seed, so the whole grid is scanned;
        # h(4.19) = 0.89 decides 2.10 and 1.05, whose lower neighbour 0.52 lies
        # between the origin and the outer orbit (positive residual): 1.05 is
        # integrated after the first pass, to close that bracket.  Its
        # integration breaks down here, so no bracket closes there, as in
        # the full scan
        sys = two_sided_system()
        x_bad = bifurcation._X_SCAN_MIN * 2.0 ** 20
        calls = []
        original = bifurcation.poincare_numeric

        def ret(sys_, x1, lam, cfg_, **kw):
            calls.append(x1)
            if x1 == x_bad:
                raise TangencyError("injected")
            return original(sys_, x1, lam, cfg_, **kw)
        monkeypatch.setattr(bifurcation, "poincare_numeric", ret)
        broken = continue_branch(sys, [0.02], cfg)
        assert calls.index(x_bad) > calls.index(bifurcation._X_SCAN_MIN)
        assert broken.no_orbit == (0.02,)
        monkeypatch.setattr(bifurcation, "_scan", full_scan)
        assert outcome(broken) == outcome(continue_branch(sys, [0.02], cfg))


class TestFitScalingLaw:
    def test_exact_square_root_branch(self):
        pts = [BranchPoint(lam=x * x, x1_fixed=x, period=1.0, residual=0.0)
               for x in (0.05, 0.1, 0.2, 0.4)]
        fit = fit_scaling_law(pts)
        assert fit.exponent_est == pytest.approx(2.0, abs=1e-6)
        assert fit.gamma_est == pytest.approx(1.0, rel=1e-6)
        assert fit.fit_residual < 1e-12

    def test_negative_side_branch_carries_sign(self):
        pts = [BranchPoint(lam=-2.0 * x ** 3, x1_fixed=x, period=1.0, residual=0.0)
               for x in (0.05, 0.1, 0.2, 0.4)]
        fit = fit_scaling_law(pts)
        assert fit.exponent_est == pytest.approx(3.0, abs=1e-6)
        assert fit.gamma_est == pytest.approx(-2.0, rel=1e-6)

    def test_three_points_insufficient(self):
        pts = [BranchPoint(lam=x * x, x1_fixed=x, period=1.0, residual=0.0)
               for x in (0.1, 0.2, 0.4)]
        with pytest.raises(InsufficientDataError):
            fit_scaling_law(pts)

    def test_one_repeated_amplitude_insufficient(self):
        # a repeated parameter value repeats its amplitude: log x has no spread
        pts = [BranchPoint(lam=0.1, x1_fixed=0.2225, period=1.0, residual=0.0)] * 4
        with pytest.raises(InsufficientDataError, match="distinct amplitudes"):
            fit_scaling_law(pts)

    @pytest.mark.parametrize("x_bad", [0.0, -0.3])
    def test_nonpositive_amplitude_insufficient(self, x_bad):
        pts = [BranchPoint(lam=x * x, x1_fixed=x, period=1.0, residual=0.0)
               for x in (0.1, 0.2, 0.4)]
        pts.append(BranchPoint(lam=0.09, x1_fixed=x_bad, period=1.0, residual=0.0))
        with pytest.raises(InsufficientDataError, match="positive amplitudes"):
            fit_scaling_law(pts)

    def test_mixed_sides_insufficient(self):
        pts = [BranchPoint(lam=s * x * x, x1_fixed=x, period=1.0, residual=0.0)
               for s, x in ((1, 0.1), (-1, 0.2), (1, 0.3), (1, 0.4))]
        with pytest.raises(InsufficientDataError):
            fit_scaling_law(pts)

    def test_paper_small_branch_matches_expansion(self, paper_system, paper_params, cfg):
        fit = fit_local_expansion(paper_system, 0.0, cfg)
        res = continue_branch(paper_system, [0.01, 0.02, 0.04, 0.08], cfg)
        sf = fit_scaling_law(res.points)
        predicted_gamma = -fit.delta_coeff / delta_prime(paper_params, 0.0)
        assert sf.exponent_est > 0.0
        assert sf.gamma_est == pytest.approx(predicted_gamma, rel=0.2)


class TestCheckGlobalConditions:
    def test_paper_example_passes_sampled(self, paper_system):
        rep = check_global_conditions(paper_system, 0.5, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.PASS_SAMPLED
        assert rep.rotation_ok is CheckStatus.PASS_SAMPLED
        assert rep.delta_conditions_ok
        assert rep.lyapunov_witness is None and rep.rotation_witness is None

    def test_paper_rotation_inner_products_are_exactly_zero(self, paper_system):
        rep = check_global_conditions(paper_system, 1.0, radius_M=10.0, n_samples=20_000)
        assert rep.rotation_pert_inner_max == 0.0

    def test_outward_cubic_fails_with_verifiable_witness(self, paper_params):
        # +x1^3 in the first component makes <x, pert> = x1^4 > 0 dominate
        bad = PolyField(comp1=(MonomialTerm(LambdaPoly((1.0,)), 3, 0),))
        sys = SwitchedSystem(paper_params,
                             (bad, PolyField(), PolyField(), PolyField()))
        rep = check_global_conditions(sys, 0.5, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.FAIL
        w = rep.lyapunov_witness
        assert w is not None and w.field_index == 1
        # independent re-evaluation of the witness: dV/dt = 2 <x, f(x)> >= 0
        lin, pert = field_parts(sys, Quadrant.Q1, w.x, 0.5)
        vdot = 2.0 * (w.x[0] * (lin[0] + pert[0]) + w.x[1] * (lin[1] + pert[1]))
        assert vdot >= 0.0
        assert w.value == pytest.approx(vdot, rel=1e-12)

    def test_overflowing_radius_is_domain_error(self, paper_params):
        # outward cubics in every region fail at radius 10; at 1e160 the
        # sampled |x|^4 overflows, which must not read as a pass
        out = PolyField(comp1=(MonomialTerm(LambdaPoly((1.0,)), 3, 0),),
                        comp2=(MonomialTerm(LambdaPoly((1.0,)), 0, 3),))
        sys = SwitchedSystem(paper_params, (out,) * 4)
        rep = check_global_conditions(sys, 0.0, radius_M=10.0, n_samples=1_000)
        assert rep.lyapunov_ok is CheckStatus.FAIL
        assert rep.lyapunov_witness.field_index == 1   # the first of four equal regions
        with pytest.raises(DomainError, match=r"^overflow .* radius_M = 1e\+160 "):
            check_global_conditions(sys, 0.0, radius_M=1e160, n_samples=1_000)

    @pytest.mark.parametrize("radius", [1e-170, 1e-100])
    def test_underflowing_radius_is_domain_error(self, paper_system, radius):
        # at 1e-40 the true verdict is NOT_APPLICABLE; far smaller radii
        # underflow <x, pert> to 0, which must not read as a FAIL
        rep = check_global_conditions(paper_system, 0.5, radius_M=1e-40, n_samples=1_000)
        assert rep.lyapunov_ok is CheckStatus.NOT_APPLICABLE
        with pytest.raises(DomainError, match=f"^underflow .* radius_M = {radius} "):
            check_global_conditions(paper_system, 0.5, radius_M=radius, n_samples=1_000)

    def test_float_event_caused_by_coefficients_does_not_blame_the_radius(self, paper_system):
        # a tiny coefficient underflows at the default radius: the message
        # names the float event and the radius sampled, not a bad radius
        tiny = PolyField(comp1=(MonomialTerm(LambdaPoly((-1e-305,)), 3, 0),))
        sys = SwitchedSystem(paper_system.params, (tiny, *paper_system.perturbations[1:]))
        with pytest.raises(DomainError) as info:
            check_global_conditions(sys, 0.5)
        msg = str(info.value)
        assert msg.startswith("underflow encountered in ") and "radius_M = 10.0 " in msg
        assert "too small" not in msg and "too large" not in msg
        assert info.value.exit_code == 1

    def test_equal_regions_are_sampled_once(self, paper_system, monkeypatch):
        # regions 1/3 and 2/4 of the paper example freeze to equal fields:
        # one generated (lin, pert) form per distinct field and check, called
        # once per block, not per region
        blocks = []   # the x1 block of each call, kept alive so ids stay unique
        compiled = []   # the forms of each generated function
        compile_forms = bifurcation.compile_forms

        def counting(*forms):
            form = compile_forms(*forms)

            def counted(x1, x2):
                blocks.append(x1)
                return form(x1, x2)
            compiled.append(forms)
            return counted
        monkeypatch.setattr(bifurcation, "compile_forms", counting)
        monkeypatch.setattr(bifurcation, "_BLOCK", 256)
        check_global_conditions(paper_system, 0.5, radius_M=10.0, n_samples=1_000)
        calls = collections.Counter(id(x1) for x1 in blocks)
        # confinement: 4 blocks of samples and one per circle; rotation: 4
        assert len(compiled) == 2 * 2
        assert len(calls) == 4 + 3 + 4
        assert set(calls.values()) == {2}

    def test_witness_names_the_one_region_that_differs(self, paper_system):
        # region 3 alone gets an outward cubic; regions 1 and 3 no longer
        # share a field, so the witness must name region 3
        bad = PolyField(comp1=(MonomialTerm(LambdaPoly((1.0,)), 3, 0),))
        perts = list(paper_system.perturbations)
        perts[2] = bad
        sys = SwitchedSystem(paper_system.params, tuple(perts))
        rep = check_global_conditions(sys, 0.5, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.FAIL
        assert rep.lyapunov_witness.field_index == 3

    def test_unsuitable_candidate_reports_not_applicable(self):
        # weak radial damping ~ -1e-4 * x1^2 * x in every region: the
        # candidate V = |x|^2 grows at moderate radii where the linear
        # cross term dominates, yet <x, pert> < 0 with magnitude growing
        # faster than |x|^2, so the failure is blamed on the candidate
        params = make_params(0.1, 6.0, 0.5)
        eps = LambdaPoly((-1e-4,))
        weak = PolyField(comp1=(MonomialTerm(eps, 3, 0),),
                         comp2=(MonomialTerm(eps, 2, 1),))
        sys = SwitchedSystem(params, (weak,) * 4)
        rep = check_global_conditions(sys, 0.0, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.NOT_APPLICABLE
        assert rep.rotation_ok is CheckStatus.PASS_SAMPLED
        assert any("candidate" in note for note in rep.notes)

    def test_rotation_violation_detected(self, paper_params):
        # a large angular perturbation defeats the linear angular speed
        spin = PolyField(comp1=(MonomialTerm(LambdaPoly((-50.0,)), 0, 2),),
                         comp2=(MonomialTerm(LambdaPoly((50.0,)), 1, 1),))
        sys = SwitchedSystem(paper_params,
                             (spin, PolyField(), PolyField(), PolyField()))
        rep = check_global_conditions(sys, 0.0, radius_M=10.0, n_samples=20_000)
        assert rep.rotation_ok is CheckStatus.FAIL
        w = rep.rotation_witness
        assert w is not None and w.field_index == 1
        # independent re-evaluation: |<pert, Sx>| - |<A x, Sx>| >= 0, Sx = (-x2, x1)
        lin, pert = field_parts(sys, Quadrant.Q1, w.x, 0.0)
        sx = (-w.x[1], w.x[0])
        excess = (abs(pert[0] * sx[0] + pert[1] * sx[1])
                  - abs(lin[0] * sx[0] + lin[1] * sx[1]))
        assert excess >= 0.0
        assert w.value == pytest.approx(excess, rel=1e-9)

    def test_cancelling_monomials_freeze_to_the_linear_field(self, paper_params):
        # +x1^3 and -x1^3 in one component sum to exactly zero
        null = PolyField(comp1=(MonomialTerm(LambdaPoly((1.0,)), 3, 0),
                                MonomialTerm(LambdaPoly((-1.0,)), 3, 0)))
        sys = SwitchedSystem(paper_params,
                             (null, PolyField(), PolyField(), PolyField()))
        ((a11, _, _), (a12, _, _), *t1), ((a21, _, _), (a22, _, _), *t2) = freeze(sys, 0.5)[0]
        assert t1 == t2 == []
        f = numeric._compiled_fields(sys, 0.5)[1]
        for x1, x2 in ((0.3, 0.7), (1e-3, -2.5), (-4.0, 1e5)):
            assert f(x1, x2) == (a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)
        rep = check_global_conditions(sys, 0.5, radius_M=10.0, n_samples=5_000)
        assert rep.rotation_pert_inner_max == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"radius_M": math.nan}, {"radius_M": math.inf}, {"radius_M": -1.0},
        {"radius_M": 0.0}, {"n_samples": 0}, {"n_samples": -5}, {"n_samples": 100.0},
        {"n_samples": True}, {"n_samples": np.True_}, {"n_samples": np.float64(100.0)},
        {"n_samples": np.int64(0)},
    ], ids=lambda kw: f"{next(iter(kw))}={next(iter(kw.values()))!r}")
    def test_bad_arguments_rejected(self, paper_system, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            check_global_conditions(paper_system, 0.5, **kwargs)

    def test_any_integral_sample_count_is_accepted(self, paper_system):
        want = check_global_conditions(paper_system, 0.5, n_samples=1000)
        for n in (np.int64(1000), np.int32(1000), np.uint16(1000)):
            got = check_global_conditions(paper_system, 0.5, n_samples=n)
            assert got == want
            assert type(got.samples_used) is int

    def test_delta_conditions_false_off_critical_family(self):
        params = make_params(0.1, 6.0, 1.0)
        rep = check_global_conditions(SwitchedSystem(params), 0.0,
                                      radius_M=5.0, n_samples=5_000)
        assert not rep.delta_conditions_ok
