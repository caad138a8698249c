import math
import random

import numpy as np
import pytest

from conftest import make_params
from switchbif import (DomainError, LambdaPoly, MonomialTerm, OriginError,
                       PolyField, Quadrant, SideError, SwitchedSystem, SystemParams,
                       eval_field, is_point_symmetric, linear_matrix, region_of,
                       section_map, validate)
from switchbif.model import REGIONS, compile_forms, freeze


class TestLambdaPoly:
    def test_evaluation(self):
        p = LambdaPoly((1.0, 2.0, 3.0))
        assert p.value_at(0.0) == 1.0
        assert p.value_at(2.0) == 1.0 + 4.0 + 12.0

    def test_derivative(self):
        p = LambdaPoly((1.0, 2.0, 3.0))
        assert p.deriv_at(0.0) == 2.0
        assert p.deriv_at(2.0) == 2.0 + 12.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LambdaPoly((1.0, math.inf))

    def test_no_coefficients_is_the_zero_polynomial(self):
        p = LambdaPoly(())
        assert p.coeffs == (0.0,)
        assert p.value_at(3.0) == 0.0 and p.deriv_at(3.0) == 0.0


class TestRegionOf:
    def test_axis_points(self):
        assert region_of((1.0, 0.0)) == Quadrant.Q1
        assert region_of((0.0, 1.0)) == Quadrant.Q2
        assert region_of((-1.0, 0.0)) == Quadrant.Q3
        assert region_of((0.0, -1.0)) == Quadrant.Q4
        # a signed zero is zero: -0.0 <= 0 and -0.0 >= 0 both hold
        assert region_of((-0.0, 1.0)) == Quadrant.Q2
        assert region_of((1.0, -0.0)) == Quadrant.Q1
        assert region_of((-0.0, -1.0)) == Quadrant.Q4

    def test_interior_points(self):
        assert region_of((2.0, 3.0)) == Quadrant.Q1
        assert region_of((-2.0, 3.0)) == Quadrant.Q2
        assert region_of((-2.0, -3.0)) == Quadrant.Q3
        assert region_of((2.0, -3.0)) == Quadrant.Q4

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            region_of((0.0, 0.0))
        with pytest.raises(OriginError):
            region_of((-0.0, -0.0))

    def test_nan_has_no_region(self):
        for x in [(math.nan, 1.0), (1.0, math.nan), (math.nan, 0.0), (math.nan, math.nan)]:
            with pytest.raises(ValueError, match="no region holds"):
                region_of(x)

    def test_partition_covers_plane_exactly_once(self):
        # membership counted from the half-open definitions
        rng = np.random.default_rng(20260808)
        pts = rng.uniform(-10.0, 10.0, size=(1_000_000, 2))
        x1, x2 = pts[:, 0], pts[:, 1]
        counts = (((x1 > 0) & (x2 >= 0)).astype(np.int64)
                  + ((x1 <= 0) & (x2 > 0))
                  + ((x1 < 0) & (x2 <= 0))
                  + ((x1 >= 0) & (x2 < 0)))
        assert np.all(counts == 1)

    def test_matches_angle_formula(self):
        # independent formulation: region = 1 + floor(2*angle/pi)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(2000, 2))
        axis_pts = [(3.0, 0.0), (0.0, 3.0), (-3.0, 0.0), (0.0, -3.0)]
        for x in list(pts) + axis_pts:
            phi = math.atan2(x[1], x[0]) % (2.0 * math.pi)
            expected = 1 + int(phi // (math.pi / 2.0))
            assert int(region_of(x)) == expected


#: the half-open regions as defined, independent of ``model.REGIONS``
_HALF_OPEN = {Quadrant.Q1: lambda x1, x2: x1 > 0 and x2 >= 0,
              Quadrant.Q2: lambda x1, x2: x1 <= 0 and x2 > 0,
              Quadrant.Q3: lambda x1, x2: x1 < 0 and x2 <= 0,
              Quadrant.Q4: lambda x1, x2: x1 >= 0 and x2 < 0}


def _holding(x):
    (q,) = [q for q, inside in _HALF_OPEN.items() if inside(*x)]
    return q


def _clockwise_eighths(x, k):
    """x turned clockwise by k * 45 degrees and stretched by sqrt(2) per turn."""
    for _ in range(k % 8):
        x = (x[0] + x[1], x[1] - x[0])
    return x


class TestClockwiseGeometry:
    """The clockwise order, exit semi-axes and section maps, derived by
    turning the first-quadrant bisector (1, 1) clockwise in eighths."""

    def test_successor_walk_is_clockwise(self):
        walk = [Quadrant.Q1]
        for _ in range(4):
            walk.append(REGIONS[walk[-1]][3])
        assert walk == [Quadrant.Q1, Quadrant.Q4, Quadrant.Q3, Quadrant.Q2, Quadrant.Q1]
        for k in range(4):
            q = _holding(_clockwise_eighths((1.0, 1.0), 2 * k))
            assert REGIONS[q][3] == _holding(_clockwise_eighths((1.0, 1.0), 2 * k + 2))

    def test_each_region_holds_its_exit_semi_axis(self):
        # turning an open quadrant's bisector clockwise by 45 degrees lands
        # on the semi-axis its orbits leave it through
        for k in range(4):
            q = _holding(_clockwise_eighths((1.0, 1.0), 2 * k))
            exit_point = _clockwise_eighths((1.0, 1.0), 2 * k + 1)
            assert 0.0 in exit_point
            assert _holding(exit_point) == q == region_of(exit_point)

    def test_section_map_takes_the_previous_exit_semi_axis(self):
        # map i crosses the i-th region clockwise from Q1, entering on the
        # exit semi-axis of the region before it and leaving on its own
        params = make_params(0.1, 2.0, 1.0)
        for i in (1, 2, 3, 4):
            entry = sum(_clockwise_eighths((1.0, 1.0), 2 * i - 3))
            exit_ = sum(_clockwise_eighths((1.0, 1.0), 2 * i - 1))
            assert section_map(i, 0.5 * entry, params, 0.0).exit_value * exit_ > 0.0
            for wrong in (0.0, -0.5 * entry):
                with pytest.raises(SideError):
                    section_map(i, wrong, params, 0.0)


class TestLinearMatrix:
    def test_quadrant_one_matrix(self):
        params = make_params(0.1, 6.0, 1.0)
        m = linear_matrix(Quadrant.Q1, params, 0.0)
        assert np.allclose(m, [[-0.1, 6.0], [-1.0, -0.1]])

    def test_quadrant_two_matrix_swaps_b_c(self):
        params = make_params(0.1, 6.0, 1.0)
        m = linear_matrix(Quadrant.Q2, params, 0.0)
        assert np.allclose(m, [[-0.1, 1.0], [-6.0, -0.1]])

    def test_opposite_quadrants_agree(self):
        params = make_params(0.7, 2.5, 0.3)
        assert np.array_equal(linear_matrix(Quadrant.Q1, params, 0.1),
                              linear_matrix(Quadrant.Q3, params, 0.1))
        assert np.array_equal(linear_matrix(Quadrant.Q2, params, -0.1),
                              linear_matrix(Quadrant.Q4, params, -0.1))

    def test_lambda_outside_domain(self):
        params = make_params(1.0, 1.0, 1.0, domain=(-0.5, 0.5))
        with pytest.raises(DomainError):
            linear_matrix(Quadrant.Q1, params, 0.6)


class TestAt:
    @pytest.mark.parametrize("lam", [-1.9, 0.0, 0.1, 1.9])
    def test_reads_a_and_the_coefficient_polynomials(self, paper_params, lam):
        p = paper_params
        assert p.at(lam) == (p.a, p.b.value_at(lam), p.c.value_at(lam))

    def test_refuses_a_lambda_where_b_dips_below_zero(self):
        # b(lam) = (lam - 0.0011)^2 - 1e-8 < 0 only on (0.001, 0.0012), between
        # validate's samples, so the system passes validate
        params = SystemParams(a=1.0, b=LambdaPoly((1.2e-6, -2.2e-3, 1.0)),
                              c=LambdaPoly((1.0,)))
        assert validate(SwitchedSystem(params))
        with pytest.raises(DomainError, match=r"^b\(0\.0011\) = -1\.0\d*e-08 and "
                                              r"c\(0\.0011\) = 1\.0 must both be positive$"):
            params.at(0.0011)
        with pytest.raises(DomainError, match="outside parameter interval"):
            params.at(1.0)

    def test_refuses_a_lambda_where_b_overflows(self):
        # b(1e200) = 1 + 1e400 overflows to inf, which validate's samples report
        params = SystemParams(a=1.0, b=LambdaPoly((1.0, 0.0, 1.0)), c=LambdaPoly((1.0,)),
                              lambda_domain=(-1e300, 1e300))
        with pytest.raises(DomainError, match=r"^b\(1e\+200\) = inf and c\(1e\+200\) = 1\.0 "
                                              r"must both be finite$"):
            params.at(1e200)
        report = validate(SwitchedSystem(params))
        assert report.violations == ("b(lambda) is not finite at lambda = -1e+300 (b = inf)",)


class TestEvalField:
    def test_linear_part_only(self):
        sys = SwitchedSystem(make_params(0.1, 6.0, 1.0))
        v = eval_field(sys, Quadrant.Q1, (1.0, 0.0), 0.0)
        assert np.allclose(v, [-0.1, -1.0])

    def test_paper_example_by_hand(self, paper_system):
        # A(0) @ (1,1) + perturbation at (1,1): (e*pi - 3, -pi/e - 3)
        v = eval_field(paper_system, Quadrant.Q1, (1.0, 1.0), 0.0)
        assert v[0] == pytest.approx(-2.0 + math.e * math.pi - 1.0, abs=1e-14)
        assert v[1] == pytest.approx(-math.pi / math.e - 2.0 - 1.0, abs=1e-14)

    def test_origin_is_equilibrium(self, paper_system):
        for q in Quadrant:
            for lam in (-0.5, 0.0, 0.7):
                assert np.all(eval_field(paper_system, q, (0.0, 0.0), lam) == 0.0)


def random_forms(seed):
    """Three seeded forms of degree <= 6: terms with a cancelling pair
    among them, terms alone, and the empty form."""
    rng = random.Random(seed)

    def term():
        p1 = rng.randint(0, 6)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3), p1, rng.randint(0, 6 - p1)

    cancelling = [term() for _ in range(rng.randint(1, 6))]
    c, p1, p2 = cancelling[0]
    cancelling.append((-c, p1, p2))
    rng.shuffle(cancelling)
    return cancelling, [term() for _ in range(rng.randint(1, 8))], []


def reference_sum(terms, x1, x2):
    """The generated order by a loop: each power x**p once as x**(p-1) * x,
    a term c * x1**p1 * x2**p2 left to right, terms added in order."""
    total = None
    powers = ([1.0, x1], [1.0, x2])
    for c, *ps in terms:
        term = c
        for table, p in zip(powers, ps):
            while len(table) <= p:
                table.append(table[-1] * table[1])
            if p:
                term = term * table[p]
        total = term if total is None else total + term
    return 0.0 * (x1 + x2) if total is None else total


class TestCompileForms:
    """The one field evaluator against sympy and against a reference loop."""

    @pytest.mark.parametrize("seed", range(20))
    def test_scalars_match_the_exact_expansion(self, seed):
        sympy = pytest.importorskip("sympy")
        X1, X2 = sympy.symbols("x1 x2")
        forms = random_forms(seed)
        f = compile_forms(*forms)
        rng = random.Random(1000 + seed)
        for x1, x2 in [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(3)] \
                + [(0.0, rng.uniform(-2.0, 2.0))]:
            at = {X1: sympy.Rational(x1), X2: sympy.Rational(x2)}
            for got, form in zip(f(x1, x2), forms):
                monomials = [sympy.Rational(c) * X1 ** p1 * X2 ** p2 for c, p1, p2 in form]
                exact = sympy.expand(sum(monomials, sympy.Integer(0))).subs(at)
                scale = float(sum((abs(m.subs(at)) for m in monomials), sympy.Integer(0)))
                # each term rounds at most 7 times and each sum once
                assert type(got) is float
                assert abs(got - float(exact)) <= 16 * math.ulp(scale) if scale else got == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_arrays_equal_the_reference_loop_bit_for_bit(self, seed):
        forms = random_forms(seed)
        rng = np.random.default_rng(seed)
        x1, x2 = rng.uniform(-3.0, 3.0, 101), rng.uniform(-3.0, 3.0, 101)
        x1[0] = x2[1] = 0.0
        for got, form in zip(compile_forms(*forms)(x1, x2), forms):
            assert np.array_equal(got, reference_sum(form, x1, x2))

    def test_non_finite_coefficients_are_float_constants(self):
        f = compile_forms(((math.inf, 1, 0),), ((-math.inf, 0, 2), (math.nan, 0, 0)))
        d1, d2 = f(2.0, 3.0)
        assert d1 == math.inf and math.isnan(d2)

    def test_numpy_scalars_are_written_as_floats_and_ints(self):
        f = compile_forms(((np.float64(0.5), np.int64(2), 0), (np.float32(2.0), 0, 1)))
        assert f(3.0, 1.0) == (6.5,)


def with_terms(sys, extra):
    """``sys`` with the x1-component terms ``extra[q]`` appended to region q + 1."""
    return SwitchedSystem(sys.params, tuple(
        PolyField(p.comp1 + tuple(extra.get(q, ())), p.comp2)
        for q, p in enumerate(sys.perturbations)))


class TestIsPointSymmetric:
    @pytest.mark.parametrize("lam", [-0.5, 0.0, 0.1, 1.0])
    def test_paper_example(self, paper_system, lam):
        # odd-degree terms, equal in regions 1/3 and in regions 2/4
        assert is_point_symmetric(paper_system, lam)

    def test_even_term_in_region_1_alone_breaks_it(self, paper_system):
        term = MonomialTerm(LambdaPoly((0.1,)), 2, 0)
        assert not is_point_symmetric(with_terms(paper_system, {0: [term]}), 0.1)
        # the same sign in region 3 is not the mirror image of an even term
        assert not is_point_symmetric(with_terms(paper_system, {0: [term], 2: [term]}), 0.1)

    def test_even_term_mirrored_with_opposite_sign(self, paper_system):
        term, mirror = (MonomialTerm(LambdaPoly((c,)), 1, 1) for c in (0.1, -0.1))
        sys = with_terms(paper_system, {0: [term], 2: [mirror]})
        assert is_point_symmetric(sys, 0.1)
        # f_3(x) = -f_1(-x), checked on the evaluated fields
        for x in ((0.3, -0.7), (-1.2, 0.4)):
            minus = tuple(-v for v in x)
            assert np.array_equal(eval_field(sys, Quadrant.Q3, x, 0.1),
                                  -eval_field(sys, Quadrant.Q1, minus, 0.1))

    def test_term_order_does_not_matter(self, paper_system):
        p1, p2, p3, p4 = paper_system.perturbations
        swapped = PolyField(p3.comp1[::-1], p3.comp2[::-1])
        assert is_point_symmetric(SwitchedSystem(paper_system.params, (p1, p2, swapped, p4)), 0.1)

    def test_decided_at_the_parameter(self, paper_system):
        # an even term with coefficient lam vanishes, and so breaks nothing, at lam = 0
        term = MonomialTerm(LambdaPoly((0.0, 1.0)), 0, 2)
        sys = with_terms(paper_system, {1: [term]})
        assert is_point_symmetric(sys, 0.0)
        assert not is_point_symmetric(sys, 0.1)


class TestFreeze:
    @pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("asymmetric", [False, True], ids=["paper", "asymmetric"])
    def test_component_is_matrix_row_then_collected_terms(self, paper_system, lam, asymmetric):
        # (0.1 + lam) x1^2, twice, in region 1 alone: collected into one even term
        term = MonomialTerm(LambdaPoly((0.1, 1.0)), 2, 0)
        sys = with_terms(paper_system, {0: [term, term]}) if asymmetric else paper_system
        assert is_point_symmetric(sys, lam) is not asymmetric
        for q, region in zip(Quadrant, freeze(sys, lam)):
            pert = sys.perturbations[q - 1]
            rows = linear_matrix(q, sys.params, lam)
            for row, comp, terms in zip(rows, (pert.comp1, pert.comp2), region, strict=True):
                assert terms[:2] == ((row[0], 1, 0), (row[1], 0, 1))
                assert all(type(c) is float for c, _, _ in terms)
                want = {}
                for t in comp:
                    want[t.pow1, t.pow2] = want.get((t.pow1, t.pow2), 0.0) + t.coeff.value_at(lam)
                assert all(p1 + p2 >= 2 for _, p1, p2 in terms[2:])
                assert terms[2:] == tuple((c, p1, p2) for (p1, p2), c in want.items() if c != 0.0)


class TestValidate:
    def test_paper_system_passes(self, paper_system):
        report = validate(paper_system)
        assert report.passed
        assert report.violations == ()

    def test_report_is_true_when_it_passed(self, paper_system):
        assert validate(paper_system)
        assert not validate(SwitchedSystem(make_params(-1.0, 1.0, 1.0)))

    def test_negative_damping_fails(self):
        sys = SwitchedSystem(
            make_params(-1.0, 1.0, 1.0))
        report = validate(sys)
        assert not report.passed
        assert any("a <= 0" in v for v in report.violations)

    def test_linear_monomial_fails(self):
        bad = PolyField(comp1=(MonomialTerm(LambdaPoly((1.0,)), 1, 0),))
        sys = SwitchedSystem(make_params(1.0, 1.0, 1.0),
                             (bad, PolyField(), PolyField(), PolyField()))
        report = validate(sys)
        assert not report.passed
        assert any("o(|x|)" in v for v in report.violations)

    def test_negative_coefficient_function_fails(self):
        params = make_params(1.0, 1.0, 1.0)
        params = params.__class__(a=1.0, b=LambdaPoly((1.0, -3.0)),
                                  c=LambdaPoly((1.0,)), lambda_domain=(-1.0, 1.0))
        report = validate(SwitchedSystem(params))
        assert not report.passed
        assert any("b(lambda) <= 0 at lambda" in v for v in report.violations)

    def test_monomial_powers_must_be_nonnegative_ints(self):
        with pytest.raises(ValueError):
            MonomialTerm(LambdaPoly((1.0,)), -1, 3)
        with pytest.raises(TypeError):
            MonomialTerm(LambdaPoly((1.0,)), 1.5, 1)

    def test_system_needs_four_fields(self):
        with pytest.raises(ValueError, match="exactly four"):
            SwitchedSystem(make_params(1.0, 1.0, 1.0), (PolyField(),) * 3)

    def test_lambda_domain_must_contain_zero(self):
        with pytest.raises(ValueError):
            make_params(1.0, 1.0, 1.0, domain=(0.1, 0.5))
