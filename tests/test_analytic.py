import math

import numpy as np
import pytest

from conftest import make_params, rk4_integrate
from switchbif import (DomainError, LambdaPoly, OriginClass, Quadrant, SideError,
                       SystemParams, classify_origin, delta, delta_prime, flow_linear,
                       linear_matrix, section_map)


class TestFlowLinear:
    def test_identity_at_time_zero(self):
        params = make_params(0.3, 2.0, 5.0)
        for q in Quadrant:
            x = flow_linear(q, (0.4, -1.7), 0.0, params, 0.0)
            assert np.allclose(x, [0.4, -1.7], atol=0.0)

    def test_quarter_turn_from_x2_axis(self):
        # from (0, x2) the first-quadrant flow reaches the x1-axis after a
        # quarter turn, scaled by sqrt(b/c) * exp(-a*pi/(2*sqrt(b*c)))
        a, b, c = 0.1, 6.0, 1.0
        params = make_params(a, b, c)
        w = math.sqrt(b * c)
        t = math.pi / (2.0 * w)
        x = flow_linear(Quadrant.Q1, (0.0, 1.0), t, params, 0.0)
        expected = math.sqrt(b / c) * math.exp(-a * math.pi / (2.0 * w))
        assert x[0] == pytest.approx(expected, rel=1e-14)
        assert x[0] == pytest.approx(2.29734, abs=1e-5)
        assert abs(x[1]) < 1e-15

    def test_against_rk4_oracle(self):
        params = make_params(0.1, 6.0, 1.0)
        m = linear_matrix(Quadrant.Q1, params, 0.0)
        t = math.pi / (2.0 * math.sqrt(6.0))
        oracle = rk4_integrate(lambda x: m @ x, (0.0, 1.0), t)
        closed = flow_linear(Quadrant.Q1, (0.0, 1.0), t, params, 0.0)
        assert np.allclose(closed, oracle, atol=1e-11)

    def test_against_rk4_oracle_b_matrix(self):
        params = make_params(0.4, 2.0, 3.0)
        m = linear_matrix(Quadrant.Q4, params, 0.0)
        oracle = rk4_integrate(lambda x: m @ x, (1.0, -0.5), 0.8)
        closed = flow_linear(Quadrant.Q4, (1.0, -0.5), 0.8, params, 0.0)
        assert np.allclose(closed, oracle, atol=1e-11)

    def test_semigroup_property(self):
        params = make_params(0.7, 3.0, 0.5)
        for q in Quadrant:
            for t1, t2 in ((0.3, 0.9), (1.4, 0.05)):
                one_go = flow_linear(q, (1.2, -0.4), t1 + t2, params, 0.0)
                two_go = flow_linear(q, flow_linear(q, (1.2, -0.4), t1, params, 0.0),
                                     t2, params, 0.0)
                assert np.allclose(one_go, two_go, rtol=1e-12, atol=1e-15)

    def test_quadratic_decay_law(self):
        # c*x1^2 + b*x2^2 decays exactly like exp(-2at) along A-quadrant flow,
        # b*x1^2 + c*x2^2 along B-quadrant flow
        a, b, c = 0.25, 4.0, 1.5
        params = make_params(a, b, c)
        x0 = np.array([0.8, -0.6])
        for q, (w1, w2) in ((Quadrant.Q1, (c, b)), (Quadrant.Q3, (c, b)),
                            (Quadrant.Q2, (b, c)), (Quadrant.Q4, (b, c))):
            q0 = w1 * x0[0] ** 2 + w2 * x0[1] ** 2
            for t in (0.1, 0.7, 2.3):
                x = flow_linear(q, x0, t, params, 0.0)
                qt = w1 * x[0] ** 2 + w2 * x[1] ** 2
                assert qt == pytest.approx(q0 * math.exp(-2.0 * a * t), rel=1e-12)

    def test_rotation_is_clockwise(self):
        # <A x, Sx> = -(c x1^2 + b x2^2) < 0 with Sx = (-x2, x1); same sign for B
        params = make_params(0.2, 5.0, 0.7)
        rng = np.random.default_rng(3)
        for q in Quadrant:
            m = linear_matrix(q, params, 0.0)
            for x in rng.normal(size=(50, 2)):
                sx = np.array([-x[1], x[0]])
                assert float(m @ x @ sx) < 0.0


class TestSectionMap:
    def test_no_damping_symmetric_is_pure_rotation(self):
        params = make_params(1e-300, 2.0, 2.0)  # a > 0 required; effectively zero
        out = section_map(1, 1.0, params, 0.0)
        assert out.exit_value == pytest.approx(1.0, rel=1e-14)
        assert out.transit_time == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_map_two_matches_brute_force(self):
        # B-matrix flow from (1, 0) lands on the negative x2-axis after a
        # quarter turn
        a, b, c = 0.1, 6.0, 1.0
        params = make_params(a, b, c)
        out = section_map(2, 1.0, params, 0.0)
        expected = -math.sqrt(b / c) * math.exp(-a * math.pi / (2.0 * math.sqrt(b * c)))
        assert out.exit_value == pytest.approx(expected, rel=1e-14)
        assert out.exit_value == pytest.approx(-2.29734, abs=1e-5)
        m = linear_matrix(Quadrant.Q4, params, 0.0)
        oracle = rk4_integrate(lambda x: m @ x, (1.0, 0.0), out.transit_time)
        assert abs(oracle[0]) < 1e-11
        assert oracle[1] == pytest.approx(out.exit_value, rel=1e-10)

    def test_four_maps_compose_to_delta(self):
        params = make_params(0.37, 3.1, 0.9)
        x = 1.7
        total_time = 0.0
        value = x
        for i in (2, 3, 4, 1):  # geometric order starting on the positive x1-axis
            out = section_map(i, value, params, 0.0)
            value = out.exit_value
            total_time += out.transit_time
        assert value == pytest.approx(delta(params, 0.0) * x, rel=1e-12)
        w = math.sqrt(3.1 * 0.9)
        assert total_time == pytest.approx(2.0 * math.pi / w, rel=1e-12)

    def test_exit_signs_follow_clockwise_targets(self):
        params = make_params(0.1, 2.0, 1.0)
        assert section_map(1, 0.5, params, 0.0).exit_value > 0.0   # -> +x1
        assert section_map(2, 0.5, params, 0.0).exit_value < 0.0   # -> -x2
        assert section_map(3, -0.5, params, 0.0).exit_value < 0.0  # -> -x1
        assert section_map(4, -0.5, params, 0.0).exit_value > 0.0  # -> +x2

    def test_wrong_side_raises(self):
        params = make_params(0.1, 2.0, 1.0)
        for i, bad in ((1, -1.0), (2, -1.0), (3, 1.0), (4, 1.0)):
            with pytest.raises(SideError):
                section_map(i, bad, params, 0.0)
        with pytest.raises(SideError):
            section_map(1, 0.0, params, 0.0)

    def test_index_outside_one_to_four_raises(self):
        with pytest.raises(ValueError, match="must be 1..4, got 5"):
            section_map(5, 0.5, make_params(0.1, 2.0, 1.0), 0.0)


class TestDelta:
    def test_paper_example_is_one(self, paper_params):
        assert delta(paper_params, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_fig_one_parameters(self):
        params = make_params(0.1, 6.0, 1.0)
        expected = 36.0 * math.exp(-0.2 * math.pi / math.sqrt(6.0))
        assert delta(params, 0.0) == pytest.approx(expected, rel=1e-15)
        assert delta(params, 0.0) == pytest.approx(27.855, abs=1e-3)

    def test_unit_parameters(self):
        params = make_params(1.0, 1.0, 1.0)
        assert delta(params, 0.0) == pytest.approx(math.exp(-2.0 * math.pi), rel=1e-15)

    def test_lambda_where_b_is_negative_is_a_domain_error(self):
        # b(lam) = (lam - 0.0011)^2 - 1e-8 dips below 0 between validate's samples
        params = SystemParams(a=1.0, b=LambdaPoly((1.2e-6, -2.2e-3, 1.0)),
                              c=LambdaPoly((1.0,)))
        with pytest.raises(DomainError, match="must both be positive"):
            delta(params, 0.0011)

    def test_exp_overflow_is_a_domain_error(self):
        # a < 0, which validate refuses but a library caller can pass: with
        # w = 1e-3, exp(2 pi |a| / w) = exp(6283) raises OverflowError
        params = make_params(-1.0, 1e-3, 1e-3)
        with pytest.raises(DomainError,
                           match=r"^delta\(0\.0\) = inf leaves the floating-point range$"):
            delta(params, 0.0)


class TestDeltaPrime:
    def test_paper_example_value(self, paper_params):
        expected = 4.0 / (math.e * math.pi)
        assert delta_prime(paper_params, 0.0) == pytest.approx(expected, abs=1e-10)
        assert delta_prime(paper_params, 0.0) == pytest.approx(0.468398, abs=1e-6)

    def test_constant_coefficients_give_zero(self):
        params = make_params(0.8, 2.0, 3.0)
        for lam in (-0.3, 0.0, 0.4):
            assert delta_prime(params, lam) == 0.0

    @pytest.mark.parametrize("coeffs_b,coeffs_c", [
        ((2.0, 1.0), (1.0,)),
        ((3.0, -0.5, 0.25), (1.5, 0.75)),
        ((math.e * math.pi, 1.0, 1.0), (math.pi / math.e, 0.0, 1.0)),
    ])
    def test_matches_central_differences(self, coeffs_b, coeffs_c):
        from switchbif import LambdaPoly, SystemParams
        params = SystemParams(a=1.3, b=LambdaPoly(coeffs_b), c=LambdaPoly(coeffs_c),
                              lambda_domain=(-1.0, 1.0))
        h = 1e-6
        for lam in (-0.2, 0.0, 0.3):
            fd = (delta(params, lam + h) - delta(params, lam - h)) / (2.0 * h)
            assert delta_prime(params, lam) == pytest.approx(fd, rel=1e-6)


class TestClassifyOrigin:
    def test_paper_example_periodic_family(self, paper_params):
        assert classify_origin(paper_params, 0.0) == OriginClass.PeriodicFamily

    def test_expanding_case(self):
        assert classify_origin(make_params(0.1, 6.0, 1.0), 0.0) == OriginClass.Unstable

    def test_contracting_case(self):
        assert (classify_origin(make_params(1.0, 1.0, 1.0), 0.0)
                == OriginClass.AsymptoticallyStable)
