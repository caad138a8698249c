import math

import numpy as np
import pytest

from conftest import make_linear_system, make_params
from switchbif import (BranchDirection, CheckStatus, DegenerateError,
                       InsufficientDataError, LambdaPoly, MonomialTerm,
                       NoBracketError, PerturbationTooSmallError, PolyField,
                       Quadrant, StopOnReturn, SwitchedSystem, SystemParams,
                       bifurcation_direction, check_global_conditions,
                       continue_branch, delta, delta_prime,
                       find_critical_lambda, fit_local_expansion,
                       fit_scaling_law, integrate, linear_matrix)
from switchbif import numeric
from switchbif.bifurcation import BranchPoint


def field_parts(sys, q, x, lam):
    """Linear part A_q x and perturbation of region q at x, computed from
    linear_matrix and the MonomialTerm lists, independent of freeze."""
    m = linear_matrix(q, sys.params, lam)
    pf = sys.perturbation(q)
    lin = (m[0, 0] * x[0] + m[0, 1] * x[1], m[1, 0] * x[0] + m[1, 1] * x[1])
    pert = tuple(sum(t.coeff.value_at(lam) * x[0] ** t.pow1 * x[1] ** t.pow2 for t in comp)
                 for comp in (pf.comp1, pf.comp2))
    return lin, pert


def engineered_params():
    """b(lam) = 3.75 + lam, c = 1, a chosen so the index crosses 1 at lam = 0.25."""
    a = math.log(16.0) / math.pi
    return SystemParams(a=a, b=LambdaPoly((3.75, 1.0)), c=LambdaPoly.constant(1.0),
                        lambda_domain=(-0.5, 0.6))


class TestFindCriticalLambda:
    def test_paper_example(self, paper_params):
        crit = find_critical_lambda(paper_params, (-0.1, 0.1))
        assert abs(crit.lambda_star) < 1e-11
        assert crit.delta_prime == pytest.approx(4.0 / (math.e * math.pi), rel=1e-9)
        assert crit.nondegenerate

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
        sys = SwitchedSystem.linear(params)
        d = delta(params, 0.0)
        coeff = -0.37
        fit = fit_local_expansion(sys, 0.0, cfg,
                                  return_map=lambda x: d * x + coeff * x ** 3)
        assert fit.delta_lin == pytest.approx(d, rel=1e-12)
        assert fit.k_exp == pytest.approx(3.0, abs=1e-6)
        assert fit.delta_coeff == pytest.approx(coeff, rel=1e-6)


class TestBifurcationDirection:
    def test_paper_example_positive_side(self, paper_system, cfg):
        assert (bifurcation_direction(paper_system, cfg)
                == BranchDirection.BranchForPositiveLambda)

    def test_flipped_derivative_gives_negative_side(self, paper_system, cfg):
        # same system with b(lam) = e*pi + lam^2 - lam: the index derivative
        # flips sign while the nonlinear coefficient is unchanged
        p = paper_system.params
        flipped = SystemParams(a=p.a, b=LambdaPoly((p.b.coeffs[0], -1.0, 1.0)),
                               c=p.c, lambda_domain=p.lambda_domain)
        sys_flipped = SwitchedSystem(flipped, paper_system.perturbations)
        assert delta_prime(flipped, 0.0) == pytest.approx(-4.0 / (math.e * math.pi), rel=1e-9)
        assert (bifurcation_direction(sys_flipped, cfg)
                == BranchDirection.BranchForNegativeLambda)
        # brute-force confirmation: an orbit exists on the negative side only
        res = continue_branch(sys_flipped, [-0.05, 0.05], cfg)
        assert [p.lam for p in res.points] == [-0.05]
        assert res.no_orbit == (0.05,)

    def test_off_critical_system_raises_degenerate(self, cfg):
        sys = SwitchedSystem.linear(make_params(1.0, 2.0, 1.0))
        assert abs(delta(sys.params, 0.0) - 1.0) > 1e-3
        with pytest.raises(DegenerateError):
            bifurcation_direction(sys, cfg)

    def test_critical_linear_system_raises_perturbation_too_small(self, paper_params, cfg):
        sys = SwitchedSystem.linear(paper_params)
        with pytest.raises(PerturbationTooSmallError):
            bifurcation_direction(sys, cfg)


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

    def test_each_point_reverified_by_full_integration(self, paper_system, cfg):
        res = continue_branch(paper_system, [0.05, 0.5], cfg)
        for p in res.points:
            traj = integrate(paper_system, (p.x1_fixed, 0.0), p.lam, StopOnReturn(),
                             cfg.scaled_for_amplitude(p.x1_fixed))
            assert len(traj.events) == 4
            assert abs(traj.final_state[0] - p.x1_fixed) <= max(10.0 * p.residual, 1e-12)
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
        P = LambdaPoly.constant
        params = SystemParams(a=0.1, b=P(1.5), c=P(1.0), lambda_domain=(-1.0, 1.0))
        pert = PolyField(
            comp1=(MonomialTerm(P(-1.0), 3, 0), MonomialTerm(P(0.4), 5, 0)),
            comp2=(MonomialTerm(P(-1.0), 2, 1), MonomialTerm(P(0.4), 4, 1)))
        sys_blowup = SwitchedSystem(params, (pert,) * 4)
        res = continue_branch(sys_blowup, [0.0], cfg)
        assert len(res.points) == 1
        assert res.points[0].x1_fixed == pytest.approx(0.343285, abs=1e-4)

    def test_scaling_seed_matches_sequential(self, paper_system, cfg):
        from switchbif import fit_local_expansion
        fit = fit_local_expansion(paper_system, 0.0, cfg)
        seq = continue_branch(paper_system, [0.02, 0.05], cfg)
        seeded = continue_branch(paper_system, [0.02, 0.05], cfg,
                                 expansion=fit, seed_from_previous=False)
        for a, b in zip(seq.points, seeded.points):
            assert b.x1_fixed == pytest.approx(a.x1_fixed, rel=1e-7)


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
        bad = PolyField(comp1=(MonomialTerm(LambdaPoly.constant(1.0), 3, 0),))
        sys = SwitchedSystem(paper_params,
                             (bad, PolyField.zero(), PolyField.zero(), PolyField.zero()))
        rep = check_global_conditions(sys, 0.5, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.FAIL
        w = rep.lyapunov_witness
        assert w is not None and w.field_index == 1
        # independent re-evaluation of the witness: dV/dt = 2 <x, f(x)> >= 0
        lin, pert = field_parts(sys, Quadrant.Q1, w.x, 0.5)
        vdot = 2.0 * (w.x[0] * (lin[0] + pert[0]) + w.x[1] * (lin[1] + pert[1]))
        assert vdot >= 0.0
        assert w.value == pytest.approx(vdot, rel=1e-12)

    def test_unsuitable_candidate_reports_not_applicable(self):
        # weak radial damping ~ -1e-4 * x1^2 * x in every region: the
        # candidate V = |x|^2 grows at moderate radii where the linear
        # cross term dominates, yet <x, pert> < 0 with magnitude growing
        # faster than |x|^2, so the failure is blamed on the candidate
        params = make_params(0.1, 6.0, 0.5)
        eps = LambdaPoly.constant(-1e-4)
        weak = PolyField(comp1=(MonomialTerm(eps, 3, 0),),
                         comp2=(MonomialTerm(eps, 2, 1),))
        sys = SwitchedSystem(params, (weak,) * 4)
        rep = check_global_conditions(sys, 0.0, radius_M=10.0, n_samples=20_000)
        assert rep.lyapunov_ok is CheckStatus.NOT_APPLICABLE
        assert rep.rotation_ok is CheckStatus.PASS_SAMPLED
        assert any("candidate" in note for note in rep.notes)

    def test_rotation_violation_detected(self, paper_params):
        # a large angular perturbation defeats the linear angular speed
        spin = PolyField(comp1=(MonomialTerm(LambdaPoly.constant(-50.0), 0, 2),),
                         comp2=(MonomialTerm(LambdaPoly.constant(50.0), 1, 1),))
        sys = SwitchedSystem(paper_params,
                             (spin, PolyField.zero(), PolyField.zero(), PolyField.zero()))
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
        null = PolyField(comp1=(MonomialTerm(LambdaPoly.constant(1.0), 3, 0),
                                MonomialTerm(LambdaPoly.constant(-1.0), 3, 0)))
        sys = SwitchedSystem(paper_params,
                             (null, PolyField.zero(), PolyField.zero(), PolyField.zero()))
        assert numeric._compiled_fields(sys, 0.5)[1].__name__ == "f_lin"
        rep = check_global_conditions(sys, 0.5, radius_M=10.0, n_samples=5_000)
        assert rep.rotation_pert_inner_max == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"radius_M": math.nan}, {"radius_M": math.inf}, {"radius_M": -1.0},
        {"radius_M": 0.0}, {"n_samples": 0}, {"n_samples": -5}, {"n_samples": 100.0},
    ], ids=lambda kw: f"{next(iter(kw))}={next(iter(kw.values()))}")
    def test_bad_arguments_rejected(self, paper_system, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            check_global_conditions(paper_system, 0.5, **kwargs)

    def test_delta_conditions_false_off_critical_family(self):
        params = make_params(0.1, 6.0, 1.0)
        rep = check_global_conditions(SwitchedSystem.linear(params), 0.0,
                                      radius_M=5.0, n_samples=5_000)
        assert not rep.delta_conditions_ok
