import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest

from conftest import arcs, emit_canonical, make_linear_system, make_params
from switchbif import (BudgetError, EscapeError, IntegratorConfig,
                       LambdaPoly, MonomialTerm, OriginError, PolyField, Quadrant,
                       SideError, StiffnessError, StopAfterEvents, StopAtTime, StopOnReturn,
                       SwitchedSystem, TangencyError, continue_branch, delta,
                       delta_numeric, fit_local_expansion, integrate,
                       paper_example_config, poincare_numeric, numeric)
from switchbif.analytic import _spiral, flow_linear
from switchbif.config import parse_config
from switchbif.model import REGIONS
from test_bifurcation import two_sided_system, with_x1_squared
from test_cli import TWO_SIDED
from test_exact import exact_events

#: (a, b, c) grid used for the linear-case oracle comparisons
ORACLE_GRID = [(a, b, c) for a in (0.1, 1.0, 2.0) for b in (1.0, 6.0) for c in (1.0, 3.0)]


def turning_back_system():
    """p = (-10 x2^2, 10 x1^2) in regions 1, 3 and 4 (a = 0.1, b = c = 1):
    at (0.5, 0) region 1's field points up, back into region 1."""
    pert = PolyField(comp1=(MonomialTerm(LambdaPoly((-10.0,)), 0, 2),),
                     comp2=(MonomialTerm(LambdaPoly((10.0,)), 2, 0),))
    return SwitchedSystem(make_params(0.1, 1.0, 1.0), (pert, PolyField(), pert, pert))


def return_residual(sys, x1, lam, cfg):
    """Signed fixed-point residual of the return map: pi(x1) - x1."""
    return poincare_numeric(sys, x1, lam, cfg).x1_out - x1


class TestIntegrate:
    def test_expanding_linear_spiral(self, cfg):
        sys = make_linear_system(0.1, 6.0, 1.0)
        traj = integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(4), cfg)
        d = delta(sys.params, 0.0)
        assert traj.states[-1, 0] == pytest.approx(d, rel=1e-9)
        assert traj.states[-1, 0] == pytest.approx(27.855, abs=1e-3)
        q_period = math.pi / (2.0 * math.sqrt(6.0))
        for k, t in enumerate(traj.times[traj.events], start=1):
            assert t == pytest.approx(k * q_period, abs=1e-8)

    def test_clockwise_arc_and_event_sequence(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        traj = integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(8), cfg)
        assert [int(q) for q, _, _ in arcs(traj)] == [4, 3, 2, 1, 4, 3, 2, 1]

    def test_event_states_lie_on_axes(self, cfg):
        sys = make_linear_system(0.3, 4.0, 1.5)
        traj = integrate(sys, (0.7, 0.0), 0.0, StopAfterEvents(6), cfg)
        for q, state in zip(traj.quadrants[traj.events], traj.states[traj.events]):
            gidx = 1 if q in (Quadrant.Q1, Quadrant.Q3) else 0
            scale = max(1.0, abs(state[0]), abs(state[1]))
            assert abs(state[gidx]) < cfg.event_tol * scale

    def test_one_row_per_step_and_event(self, paper_system, cfg):
        # a time stop past several events: row 0, then one row per
        # accepted step or event, with each event row on its exit axis
        traj = integrate(paper_system, (0.3, 0.2), 0.1, StopAtTime(3.0), cfg)
        n = len(traj.times)
        assert traj.n_steps == n - 1
        assert traj.states.shape == (n, 2) and traj.quadrants.shape == (n,)
        assert len(traj.events) >= 4 and np.all(np.diff(traj.events) > 0)
        assert traj.events[-1] < n - 1
        for i in traj.events:
            x1, x2 = traj.states[i]
            on_axis = x2 if traj.quadrants[i] in (Quadrant.Q1, Quadrant.Q3) else x1
            assert abs(on_axis) < cfg.event_tol * max(abs(x1), abs(x2))
            assert traj.quadrants[i + 1] == REGIONS[traj.quadrants[i]][3]

    def test_rows_are_strictly_time_ordered(self, cfg):
        sys = make_linear_system(0.2, 3.0, 1.0)
        traj = integrate(sys, (1.0, 0.5), 0.0, StopAfterEvents(5), cfg)
        assert np.all(np.diff(traj.times) > 0.0)

    def test_arc_interiors_match_their_quadrant(self, cfg):
        from switchbif import region_of
        sys = make_linear_system(0.2, 3.0, 1.0)
        traj = integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(4), cfg)
        for q, _, states in arcs(traj):
            for state in states[1:-1]:
                assert region_of(state) == q

    def test_time_stop_is_exact(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        traj = integrate(sys, (1.0, 0.0), 0.0, StopAtTime(1.2345), cfg)
        assert traj.t_final == 1.2345
        assert traj.times[-1] == 1.2345

    def test_zero_time_gives_single_point(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        traj = integrate(sys, (1e-3, 0.0), 0.0, StopAtTime(0.0), cfg)
        assert len(traj.events) == 0
        assert traj.states.shape == (1, 2)
        assert traj.quadrants.tolist() == [4]
        assert traj.t_final == 0.0

    def test_quadratic_decay_on_every_arc(self, cfg):
        a, b, c = 0.25, 4.0, 1.5
        sys = make_linear_system(a, b, c)
        traj = integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(4), cfg)
        for q, times, states in arcs(traj):
            w1, w2 = (c, b) if q in (Quadrant.Q1, Quadrant.Q3) else (b, c)
            q_vals = w1 * states[:, 0] ** 2 + w2 * states[:, 1] ** 2
            expected = q_vals[0] * np.exp(-2.0 * a * (times - times[0]))
            assert np.allclose(q_vals, expected, rtol=1e-8)

    def test_origin_start_rejected(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        with pytest.raises(OriginError):
            integrate(sys, (0.0, 0.0), 0.0, StopAtTime(1.0), cfg)

    def test_subnormal_start_is_origin(self, cfg):
        # abs_tol * |x| underflows to zero: no error scale is left
        sys = make_linear_system(0.5, 2.0, 1.0)
        with pytest.raises(OriginError):
            integrate(sys, (5e-324, 0.0), 0.0, StopAtTime(1.0), cfg)
        assert len(integrate(sys, (1e-300, 0.0), 0.0, StopAfterEvents(1), cfg).events) == 1

    def test_underflowing_error_scale_is_origin(self):
        # abs_tol * |x| and rel_tol * |x| both underflow to zero at rel_tol = 1e-300
        sys = make_linear_system(0.5, 2.0, 1.0)
        with pytest.raises(OriginError, match="indistinguishable from the origin"):
            integrate(sys, (1e-300, 0.0), 0.0, StopAtTime(1.0), IntegratorConfig(rel_tol=1e-300))

    def test_escape_raises(self, cfg):
        sys = make_linear_system(0.1, 6.0, 1.0)  # stability index ~27.9, expanding
        # leaves the bounding box (max-norm 1e6) near t = 10.6
        with pytest.raises(EscapeError):
            integrate(sys, (1.0, 0.0), 0.0, StopAtTime(50.0), cfg)

    def test_start_outside_bounding_box_is_escape(self, paper_system, cfg, monkeypatch):
        # a NaN coordinate is outside the box too, and fails before any field
        # is compiled rather than as an origin, tangency or stiffness error
        def no_fields(*args):
            raise AssertionError("a field was compiled for a rejected start point")
        monkeypatch.setattr(numeric, "_compiled_fields", no_fields)
        for x0 in [(1e300, 0.0), (0.0, math.nan), (math.nan, 0.0), (math.nan, 1.0)]:
            with pytest.raises(EscapeError):
                integrate(paper_system, x0, 0.1, StopOnReturn(), cfg)

    @pytest.mark.parametrize("half", [True, False])
    def test_crossing_step_beyond_the_box_escapes(self, paper_system, half):
        # at rel_tol 0.5 an accepted step from x1 = 2.1 crosses its exit
        # semi-axis and ends at (4.4e25, 2.4e25): it is judged before any
        # event location, like every other trial state
        with pytest.raises(EscapeError):
            poincare_numeric(paper_system, 2.1, 0.02, IntegratorConfig(0.5), half=half)

    def test_nan_trial_state_escapes(self, paper_system, cfg, rhs_evals):
        # the first trial step overflows to a NaN state where the field points
        # out: 13 RHS evals (2 at the start, 11 for the step), not a shrinking
        # step to StiffnessError
        with pytest.raises(EscapeError):
            poincare_numeric(paper_system, 8.388608, -0.175867197871665, cfg, half=True)
        assert rhs_evals[0] <= 13

    def test_event_budget_raises(self, cfg, monkeypatch):
        sys = make_linear_system(0.5, 2.0, 1.0)
        stop = StopAfterEvents(10)
        monkeypatch.setattr(numeric, "_MAX_ARCS", 3)
        with pytest.raises(BudgetError):
            integrate(sys, (1.0, 0.0), 0.0, stop, cfg)

    def test_arc_time_budget_raises(self, cfg, monkeypatch):
        # a quarter turn of this system takes pi / (2 sqrt(2)) ~ 1.11
        sys = make_linear_system(0.5, 2.0, 1.0)
        monkeypatch.setattr(numeric, "_MAX_ARC_TIME", 0.5)
        with pytest.raises(BudgetError, match="no switching event within time 0.5"):
            integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(1), cfg)

    def test_unsupported_stop_raises(self, cfg):
        sys = make_linear_system(0.5, 2.0, 1.0)
        with pytest.raises(TypeError, match="unsupported stop condition"):
            integrate(sys, (1.0, 0.0), 0.0, 1.0, cfg)

    def test_sliding_contact_raises(self, cfg):
        # third-quadrant field pushes back across the negative x2-axis:
        # crossing from quadrant 4 has disagreeing fields -> sliding
        pushy = PolyField(comp1=(MonomialTerm(LambdaPoly((10.0,)), 0, 2),))
        sys = SwitchedSystem(make_params(0.1, 1.0, 1.0),
                             (PolyField(), PolyField(), pushy, PolyField()))
        with pytest.raises(TangencyError):
            integrate(sys, (1.0, 0.0), 0.0, StopAfterEvents(2), cfg)

    def test_ambiguous_axis_departure_raises(self, cfg):
        # fourth-quadrant field pushes up at the positive x1-axis while the
        # first-quadrant field pushes down: no consistent side to enter
        pushy = PolyField(comp2=(MonomialTerm(LambdaPoly((4.0,)), 2, 0),))
        sys = SwitchedSystem(make_params(0.1, 2.0, 1.0),
                             (PolyField(), PolyField(), PolyField(), pushy))
        with pytest.raises(TangencyError):
            integrate(sys, (1.0, 0.0), 0.0, StopAtTime(1.0), cfg)

    def test_interior_start_quadrant(self, cfg):
        sys = make_linear_system(0.3, 2.0, 1.0)
        traj = integrate(sys, (-0.5, 0.8), 0.0, StopAfterEvents(2), cfg)
        assert [q for q, _, _ in arcs(traj)] == [Quadrant.Q2, Quadrant.Q1]


class TestPoincareNumeric:
    @pytest.mark.parametrize("a,b,c", ORACLE_GRID)
    def test_linear_oracle_grid(self, a, b, c, cfg):
        sys = make_linear_system(a, b, c)
        d = delta(sys.params, 0.0)
        for x1 in (0.1, 1.0):
            s = poincare_numeric(sys, x1, 0.0, cfg)
            assert s.x1_out / x1 == pytest.approx(d, rel=1e-6)
            assert s.period == pytest.approx(2.0 * math.pi / math.sqrt(b * c), rel=1e-8)

    def test_exactly_four_events(self, paper_system, cfg):
        from switchbif import StopOnReturn, integrate
        traj = integrate(paper_system, (0.5, 0.0), 0.2, StopOnReturn(), cfg)
        assert len(traj.events) == 4

    def test_homogeneity_linear(self, cfg):
        sys = make_linear_system(0.4, 3.0, 1.2)
        for x1 in (0.05, 0.3, 2.0):
            s1 = poincare_numeric(sys, x1, 0.0, cfg)
            s2 = poincare_numeric(sys, 2.0 * x1, 0.0, cfg)
            assert s2.x1_out == pytest.approx(2.0 * s1.x1_out, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_linear_return_map_is_exactly_homogeneous(self, paper_params, lam, cfg):
        # pi(x1) = delta * x1 with tolerances sized to the state: a start
        # scaled by a power of two gives the same steps, bit for bit
        sys = SwitchedSystem(paper_params)
        ref = poincare_numeric(sys, 0.75, lam, cfg)
        for k in (1, 3, 10, 30, 60):
            s = poincare_numeric(sys, 0.75 * 2.0 ** -k, lam, cfg)
            assert s.x1_out * 2.0 ** k == ref.x1_out, k
            assert s.period == ref.period, k

    @pytest.mark.parametrize("x", [1e-3, 0.5, 2.0])
    def test_half_revolution_is_point_symmetric(self, paper_system, x, cfg):
        # the paper example's fields are odd and repeat in opposite
        # regions, so the flow from (-x, 0) is the flow from (x, 0) negated
        right = integrate(paper_system, (x, 0.0), 0.1, StopAfterEvents(2), cfg)
        left = integrate(paper_system, (-x, 0.0), 0.1, StopAfterEvents(2), cfg)
        assert len(right.events) == 2
        for (rq, rt, rx), (lq, lt, lx) in zip(arcs(right), arcs(left), strict=True):
            assert int(lq) == (int(rq) + 1) % 4 + 1
            assert np.array_equal(lt, rt)
            assert np.array_equal(lx, -rx)

    def test_requires_positive_amplitude(self, paper_system, cfg):
        with pytest.raises(SideError):
            poincare_numeric(paper_system, -1.0, 0.0, cfg)
        with pytest.raises(SideError):
            poincare_numeric(paper_system, 0.0, 0.0, cfg)

    def test_paper_small_amplitude_ratio_tends_to_one(self, paper_system, cfg):
        # ratio -> stability index = 1 as the amplitude shrinks
        r_coarse = poincare_numeric(paper_system, 1e-1, 0.0, cfg)
        r_fine = poincare_numeric(paper_system, 1e-3, 0.0, cfg)
        assert abs(r_fine.x1_out / 1e-3 - 1.0) < abs(r_coarse.x1_out / 1e-1 - 1.0)
        assert r_fine.x1_out / 1e-3 == pytest.approx(1.0, abs=1e-5)

    def test_trajectory_spirals_onto_periodic_orbit(self, paper_system, cfg):
        # off-critical start relaxes onto the attracting orbit: successive
        # positive-x1-axis crossings converge to the branch amplitude
        traj = integrate(paper_system, (1.0, 0.0), 0.1, StopAtTime(30.0), cfg)
        crossings = [x1 for q, x1 in zip(traj.quadrants[traj.events],
                                         traj.states[traj.events, 0])
                     if q == Quadrant.Q1 and x1 > 0.0]
        assert len(crossings) > 10
        assert min(crossings) > 0.2  # bounded away from the origin
        gaps = [abs(x - 0.22252914490521986) for x in crossings]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] / 10.0


class TestDop853Coefficients:
    """The DOP853 tables against scipy's copy and the order conditions, and
    the step generated from them against scipy's own Runge-Kutta step."""

    @staticmethod
    def dense(pairs):
        row = [0.0] * 12
        for j, a in pairs:
            row[j - 1] = a
        return row

    def test_every_constant_equals_scipys(self):
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        # dense rows catch both a missing nonzero and a stated zero
        assert sorted(numeric._A) == list(range(2, 13))
        a = [[0.0] * 12] + [self.dense(numeric._A[i]) for i in range(2, 13)]
        assert a == coef.A[:12, :12].tolist()
        b = self.dense(numeric._B)
        assert b == coef.B.tolist()
        assert self.dense(numeric._E) == coef.E5[:12].tolist()
        # the 3rd-order error weights are b less the _BHH weights
        bhh = self.dense(numeric._BHH)
        for i in range(12):
            assert b[i] - bhh[i] == coef.E3[i], i + 1
        assert coef.E3[12] == coef.E5[12] == 0.0   # f at the new state is not used

    def test_order_conditions(self):
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        c = [0.0] + [sum(self.dense(numeric._A[i])) for i in range(2, 13)]
        assert c == pytest.approx(coef.C[:12], abs=1e-14)
        b = self.dense(numeric._B)
        for k in range(1, 9):
            assert math.fsum(bi * ci ** (k - 1) for bi, ci in zip(b, c)) == pytest.approx(
                1.0 / k, abs=1e-14), k

    def test_step_matches_scipys_rk_step(self, paper_system):
        # one step of the generated code against scipy's table-driven one
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        f = numeric._compiled_fields(paper_system, 0.3)[1]
        x, h = np.array([0.7, 0.4]), 0.05
        k = np.empty((13, 2))
        u, _ = rk.rk_step(lambda t, y: np.array(f(*y)), 0.0, x, np.array(f(*x)), h,
                          coef.A[:12, :12], coef.B, coef.C[:12], k)
        u1, u2, e1, e2, d1, d2 = numeric._rk_step(f, *x, h, *f(*x))
        assert [u1, u2] == pytest.approx(u, rel=1e-15, abs=0.0)
        assert [e1, e2] == pytest.approx(h * k.T @ coef.E5, rel=0.0, abs=1e-15)
        assert [d1, d2] == pytest.approx(h * k.T @ coef.E3, rel=0.0, abs=1e-15)

    def test_phase_step_matches_scipys_rk_step(self):
        # the step of a field that reads its independent variable, which
        # stage i gets at th + c_i h, against scipy's step with its own C
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def f(th, x1, x2):
            return math.cos(3.0 * th) * x2 + 0.3 * x1 * x1, th * x1 - math.sin(th) * x2
        th, x, h = 0.4, np.array([0.7, 0.4]), 0.3
        k = np.empty((13, 2))
        u, _ = rk.rk_step(lambda s, y: np.array(f(s, *y)), th, x, np.array(f(th, *x)), h,
                          coef.A[:12, :12], coef.B, coef.C[:12], k)
        u1, u2, e1, e2, d1, d2 = numeric._rk_phase_step(f, th, *x, h, *f(th, *x))
        assert [u1, u2] == pytest.approx(u, rel=1e-15, abs=0.0)
        assert [e1, e2] == pytest.approx(h * k.T @ coef.E5, rel=0.0, abs=1e-15)
        assert [d1, d2] == pytest.approx(h * k.T @ coef.E3, rel=0.0, abs=1e-15)


class TestEventLocationCost:
    """RHS evaluations per return, counted around the compiled fields."""

    @pytest.mark.parametrize("x1", [0.5, 1e-4])
    def test_one_return_budget(self, paper_config, rhs_evals, x1):
        # 480 and 362 measured (496 and 378 with brent on the crossing step's
        # dense output, 500 and 382 with the ending arc's field re-evaluated
        # at each event, 634 and 527 with brent on re-taken steps, 1,300 and
        # 1,288 with the 5(4) pair)
        poincare_numeric(paper_config.system, x1, 0.1, paper_config.integrator)
        assert 0 < rhs_evals[0] <= 500

    def test_one_landing_costs_12_evals(self, paper_system, cfg):
        # one phase step's 11 stages, its first stage being the field that the
        # arc holds, and the field at the landed state, which _leave checks
        # (16 with brent on the dense output: its 4 stages, one step to the
        # located time and the field there)
        calls = []
        fields = numeric._compiled_fields(paper_system, 0.1)
        field = fields[1]

        def f(x1, x2):
            calls.append((x1, x2))
            return field(x1, x2)
        x, w = (0.3, 0.02), _spiral(paper_system.params, 0.1)[2]
        k = f(*x)
        calls.clear()
        t, v = numeric._land(f, Quadrant.Q1, w, 0.0, *x, k, cfg.rel_tol, cfg.abs_tol)
        _, _, t_event, state = numeric._leave({**fields, 1: f}, Quadrant.Q1, *v, f(*v), t)
        assert 0.0 < t == t_event and state == v and v[1] == 0.0 < v[0]
        assert len(calls) == 12

    def test_one_event_costs_13_evals(self, paper_system, cfg):
        # between f at the row before an event and the next arc's first stage:
        # the discarded step's 11 stages, the landing's 11, the ending field at
        # the event row, which _leave checks, and the successor's field there
        # (17 with brent on the dense output, whose event row no field saw)
        calls = []

        def spy(q, f):
            def g(x1, x2):
                calls.append((q, x1, x2))
                return f(x1, x2)
            return g
        fields = {q: spy(q, f) for q, f in numeric._compiled_fields(paper_system, 0.1).items()}
        traj = integrate(paper_system, (0.5, 0.0), 0.1, StopOnReturn(), cfg, fields=fields)
        assert len(traj.events) == 4
        for i in traj.events.tolist():
            q, (x_prev, x) = int(traj.quadrants[i]), traj.states[i - 1:i + 1].tolist()
            end = calls.index((int(REGIONS[q][3]), *x))
            start = max(j for j, call in enumerate(calls[:end]) if call == (q, *x_prev))
            assert end - start == 11 + 13
            assert calls[end - 1] == (q, *x) and calls.count((q, *x)) == 1

    def test_paper_branch_budget(self, paper_config, rhs_evals):
        # half returns on the point-symmetric paper example, the first
        # parameter value seeded from the leading coefficient and h(10)
        # deciding four grid points above its orbit: 7,479 RHS evals
        # measured (7,711 with brent on the crossing step's dense output,
        # 7,769 with the ending arc's field re-evaluated at each event,
        # 9,657 with brent on re-taken steps to locate each crossing, 11,895
        # with the whole grid above the orbit integrated, 17,099 with the
        # first value scanned in 32 returns, 35,610 with the 5(4) pair,
        # 68,654 with full returns)
        res = continue_branch(paper_config.system, [0.02, 0.05, 0.1, 0.5, 1.0],
                              paper_config.integrator)
        assert [p.returns for p in res.points] == [9, 4, 4, 6, 6]
        assert 0 < rhs_evals[0] <= 7_500

    def test_fields_compile_once_per_lambda(self, paper_config, compiled):
        # every return at one parameter value shares its compiled fields:
        # the paper branch's 29 returns take 5 compiles, the expansion
        # fit's 8 returns one
        lams = [0.02, 0.05, 0.1, 0.5, 1.0]
        continue_branch(paper_config.system, lams, paper_config.integrator)
        assert compiled == lams
        compiled.clear()
        fit_local_expansion(paper_config.system, 0.0, paper_config.integrator)
        assert compiled == [0.0]


class TestCrossingLocation:
    """Event rows, landed by phase steps, against the paper example's exact map."""

    #: rel_tol: (time, state) bounds, about 3x the largest relative error of
    #: the event rows measured over the grid below (7.1e-8 and 3.1e-7 at 1e-6,
    #: 1.8e-11 and 1.1e-10 at 1e-10; 7.0e-8, 3.9e-7, 1.9e-11 and 1.1e-10 with
    #: brent on the crossing step's dense output)
    BOUNDS = {1e-6: (2.1e-7, 9.3e-7), 1e-10: (5.6e-11, 3.3e-10)}

    @pytest.mark.parametrize("rel_tol", sorted(BOUNDS))
    @pytest.mark.parametrize("lam", [0.1, 1.0])
    @pytest.mark.parametrize("x1", [1e-4, 0.5, 2.0])
    def test_event_rows_match_the_exact_map(self, paper_system, rel_tol, lam, x1):
        traj = integrate(paper_system, (x1, 0.0), lam, StopOnReturn(), IntegratorConfig(rel_tol))
        exact = exact_events(lam, x1)
        assert len(traj.events) == len(exact) == 4
        t_bound, x_bound = self.BOUNDS[rel_tol]
        for i, (t, x) in zip(traj.events, exact):
            assert abs(traj.times[i] - t) <= t_bound * t
            assert np.max(np.abs(traj.states[i] - x)) <= x_bound * np.max(np.abs(x))
        assert np.all(np.any(traj.states[traj.events] == 0.0, axis=1))   # on the axis

    @pytest.mark.parametrize("normal", [
        lambda x1, x2: -3.0 * (0.75 - x1) ** 2,
        lambda x1, x2: -3.0 * (0.75 - x1) ** 2 if abs(x2) > 1e-9 else 0.0],
        ids=["cubic_tangency", "zero_near_the_axis"])
    def test_zero_normal_velocity_raises(self, cfg, normal):
        # x2 = (0.25 - t)^3 meets the positive x1-axis at t = 0.25 with zero
        # velocity (tangentially), where dt/dth grows without bound; the second
        # field's normal velocity is exactly zero near the axis, which it never
        # reaches.  Either way the landing's phase step underflows
        def f(x1, x2):
            return 1.0, normal(x1, x2)
        x = (0.5, 0.25 ** 3)
        with pytest.raises(TangencyError, match=r"quadrant 1 cannot end after t = 0\.249.*"
                                                "phase rate vanishes"):
            numeric._land(f, Quadrant.Q1, 1.0, 0.0, *x, f(*x), cfg.rel_tol, cfg.abs_tol)

    def test_phase_rate_that_is_not_positive_raises(self, cfg):
        # the field turns the state counterclockwise, away from the exit axis
        def f(x1, x2):
            return -1.0, 0.0
        with pytest.raises(TangencyError, match="quadrant 1 cannot end after t = 0.0: it stops "
                                                "turning clockwise"):
            numeric._land(f, Quadrant.Q1, 1.0, 0.0, 0.5, 0.1, f(0.5, 0.1), cfg.rel_tol,
                          cfg.abs_tol)


class TestHalfReturn:
    def test_twice_is_the_full_return(self, paper_system, cfg):
        # the paper example is point-symmetric, so pi = h o h
        h1 = poincare_numeric(paper_system, 0.5, 0.1, cfg, half=True)
        h2 = poincare_numeric(paper_system, h1.x1_out, 0.1, cfg, half=True)
        full = poincare_numeric(paper_system, 0.5, 0.1, cfg)
        assert h2.x1_out == pytest.approx(full.x1_out, rel=1e-9)
        assert (h1.period + h2.period) / 2.0 == pytest.approx(full.period, rel=1e-10)

    def test_rejects_start_off_the_positive_axis(self, paper_system, cfg):
        with pytest.raises(SideError):
            poincare_numeric(paper_system, -0.5, 0.1, cfg, half=True)


class TestStopOnReturn:
    @pytest.mark.parametrize("x0, n_events", [
        ((0.6, 0.3), 1), ((-0.4, 0.5), 2), ((-0.5, -0.2), 3), ((0.3, -0.6), 4),
        ((0.0, 0.7), 1), ((-0.4, 0.0), 2), ((0.0, -0.3), 3), ((0.5, 0.0), 4),
        ((0.5, 1e-13), 4)])
    def test_ends_at_the_first_event_on_the_positive_x1_axis(self, paper_system, cfg,
                                                             x0, n_events):
        # an arc of quadrant q reaches the positive x1-axis at event int(q),
        # from interior starts and from starts on (or next to) each semi-axis
        traj = integrate(paper_system, x0, 0.1, StopOnReturn(), cfg)
        assert len(traj.events) == int(traj.quadrants[0]) == n_events
        counted = integrate(paper_system, x0, 0.1, StopAfterEvents(n_events), cfg)
        for name in ("times", "states", "quadrants", "events"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(counted, name))
        assert traj.events[-1] == len(traj.times) - 1
        assert traj.states[-1, 1] == 0.0 < traj.states[-1, 0]


class TestStopAtEventTime:
    """A t_max at or next to a switching event ends the run at its last row."""

    STARTS = [(0.5, 0.0), (1e-4, 0.0), (2.0, 0.0), (-0.3, 0.7), (0.0, -1.2), (0.9, -0.4)]

    def test_event_times_as_t_max_end_without_error(self, paper_system, cfg):
        # 6 starts x 4 lambdas x 6 event times x {t_e and its two float
        # neighbours}: 432 runs; a row within the step floor of t_max ends
        # the run rather than forcing a step under the floor
        runs = 0
        for lam in (0.02, 0.1, 0.5, 1.0):
            for x0 in self.STARTS:
                full = integrate(paper_system, x0, lam, StopAfterEvents(6), cfg)
                for t_e in full.times[full.events].tolist():
                    for t_max in (t_e, math.nextafter(t_e, 0.0), math.nextafter(t_e, math.inf)):
                        traj = integrate(paper_system, x0, lam, StopAtTime(t_max), cfg)
                        runs += 1
                        n = len(traj.times) - 1
                        # the steps before the last are those of the full run
                        assert np.array_equal(traj.times[:n], full.times[:n])
                        assert traj.t_final == t_max or n in traj.events.tolist()
                        assert t_max - traj.t_final <= numeric._H_FLOOR * max(1.0, t_max)
        assert runs == 432

    def test_step_underflow_short_of_t_max_raises(self, cfg):
        # w = sqrt(b c) = 1e14 turns a quarter in 1.6e-14: the first step
        # shrinks under the floor at t = 0, far from t_max, and nothing grows
        sys = make_linear_system(0.5, 1e14, 1e14)
        with pytest.raises(StiffnessError, match=r"step size underflow .* at t = 0\.0$"):
            integrate(sys, (1.0, 0.0), 0.0, StopAtTime(0.5), cfg)


def arc_growth(traj, params, lam):
    """Largest |y| on an arc over |y| at the arc's start, in the growth rule's
    norm: hypot(x1, r x2) in regions 1 and 3, hypot(x1, x2 / r) in 2 and 4."""
    _, b, c = params.at(lam)
    r = math.sqrt(b) / math.sqrt(c)
    growth = 0.0
    for q, _, x in arcs(traj):
        norm = np.hypot(x[:, 0], (r if q in (Quadrant.Q1, Quadrant.Q3) else 1.0 / r) * x[:, 1])
        growth = max(growth, float(norm.max() / norm[0]))
    return growth


def scaled_system(config, s, kappa):
    """The system of ``config`` in y = x / s and time t / kappa, built from its
    JSON document: each degree-d term's coefficient times kappa s^(d - 1), and
    a, b and c times kappa."""
    doc = json.loads(emit_canonical(config))
    system = doc["system"]
    system["a"] *= kappa
    for key in ("b_poly", "c_poly"):
        system[key] = [kappa * v for v in system[key]]
    for field in system["perturbations"].values():
        for terms in field.values():
            for term in terms:
                scale = kappa * s ** (term["pow1"] + term["pow2"] - 1)
                term["coeff_poly"] = [scale * v for v in term["coeff_poly"]]
    return parse_config(json.dumps(doc)).system


class TestScaleInvariance:
    """Two exact symmetries of the system class: y = x / s maps orbits to
    orbits with m_s(x / s) = m(x) / s, and time t / kappa divides periods by
    kappa.  ``integrate`` scales every tolerance to the state and to the time,
    so the copies agree while no absolute constant bites.  Each bound is about
    3x the largest relative difference measured over the grid below: 7.3e-12
    in x1_out and 2.0e-12 in the period for the amplitude copies, 1.9e-11 in
    x1_out and 2.8e-12 in the period for the time copies."""

    CONFIGS = {"paper": paper_example_config,
               "two_sided": lambda: parse_config(json.dumps(TWO_SIDED))}

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("lam", [0.02, 0.1])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_scaled_copies_give_the_same_return(self, cfg, name, lam, half):
        config = self.CONFIGS[name]()
        for x in (0.3, 2.0):
            m = poincare_numeric(config.system, x, lam, cfg, half=half)
            for s in (0.5, 3.0, 1e3):
                ms = poincare_numeric(scaled_system(config, s, 1.0), x / s, lam, cfg, half=half)
                assert ms.x1_out * s == pytest.approx(m.x1_out, rel=2.2e-11, abs=0.0)
                assert ms.period == pytest.approx(m.period, rel=6e-12, abs=0.0)
            for kappa in (0.25, 4.0):
                mk = poincare_numeric(scaled_system(config, 1.0, kappa), x, lam, cfg, half=half)
                assert mk.x1_out == pytest.approx(m.x1_out, rel=5.7e-11, abs=0.0)
                assert mk.period * kappa == pytest.approx(m.period, rel=8.5e-12, abs=0.0)


class TestGrowthRule:
    """An arc ends with EscapeError once an accepted state's |y| exceeds
    _ARC_GROWTH times its value at the arc's start: the region's linear part
    only shrinks |y|, so a finite-time blow-up ends early, and nothing else."""

    BLOW_UPS = [(lam, x1) for lam in (-0.15, -0.2, -0.3, -0.35, -0.4, -0.5)
                for x1 in (2.097152, 4.194304)]

    @pytest.mark.parametrize("lam, x1", BLOW_UPS)
    def test_half_return_blow_up_ends_at_the_rule(self, paper_system, cfg, rhs_evals, lam, x1):
        # the branch scan's half returns at lambda < 0, where +|lam| x1^5
        # blows up in finite time: measured 1,163 to 1,233 RHS evals, where
        # the step underflow at |x| ~ 2e3 took 3,106 to 3,821
        with pytest.raises(EscapeError, match="growth rule"):
            poincare_numeric(paper_system, x1, lam, cfg, half=True)
        assert rhs_evals[0] <= 1_300

    def test_blow_up_short_of_t_max_ends_at_the_rule(self, paper_system, cfg):
        # the step from (2, 0) at lambda = -0.5 used to shrink under the
        # step floor near t = 0.036; the rule ends the arc there first
        with pytest.raises(EscapeError, match=r"growth rule: .* by t = 0\.036"):
            integrate(paper_system, (2.0, 0.0), -0.5, StopAtTime(0.5), cfg)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("kappa", [0.25, 4.0])
    def test_scaled_copies_end_at_the_rule(self, paper_config, cfg, s, kappa):
        # |y| ratios are invariant under the amplitude and time scalings
        sys = scaled_system(paper_config, s, kappa)
        with pytest.raises(EscapeError, match="growth rule"):
            poincare_numeric(sys, 2.097152 / s, -0.2, cfg, half=True)

    def test_linear_systems_never_trigger_it(self, cfg):
        # b / c in [1/2, 2] keeps four quarter turns from 1e5 inside the box
        rng = random.Random("growth-rule/linear")
        for _ in range(40):
            a, c = rng.uniform(0.01, 2.0), rng.uniform(0.2, 5.0)
            sys = make_linear_system(a, c * rng.uniform(0.5, 2.0), c)
            x1 = 10.0 ** rng.uniform(-6.0, 5.0)
            t_max = rng.uniform(0.0, 2.0 * math.pi / math.sqrt(sys.params.at(0.0)[1] * c))
            for stop in (StopOnReturn(), StopAtTime(t_max)):
                traj = integrate(sys, (x1, 0.0), 0.0, stop, cfg)
                assert arc_growth(traj, sys.params, 0.0) <= 1.0 + 1e-9

    @pytest.mark.parametrize("name, lams", [
        ("paper", [-0.3, -0.11, -0.05, 0.02, 0.05, 0.1, 0.5, 1.0, 1.5, 1.9]),
        ("two_sided", [-1.4, -1.0, -0.3, -0.05, 0.02, 0.1]),
        ("x1_squared", [-0.1, 0.05, 0.1, 0.5])])
    def test_completed_arcs_keep_a_wide_margin(self, paper_system, cfg, monkeypatch,
                                               name, lams):
        # every integration of these branches that completes grows |y| by at
        # most 1.1x in any arc, far below the rule's 10x
        sys = {"paper": paper_system, "two_sided": two_sided_system(),
               "x1_squared": with_x1_squared(paper_system)}[name]
        growths = []
        original = numeric.integrate

        def measured(sys_, x0, lam, *args, **kw):
            traj = original(sys_, x0, lam, *args, **kw)
            growths.append(arc_growth(traj, sys_.params, lam))
            return traj
        monkeypatch.setattr(numeric, "integrate", measured)
        continue_branch(sys, lams, cfg)
        assert growths and max(growths) <= 1.1

    def test_extreme_b_over_c_neither_overflows_nor_triggers_it(self, cfg):
        # b / c = 1e300, r = 1e150: the small coordinate of a region-1 or
        # region-4 start grows by 1e139 in max-norm while |y| decays
        sys = make_linear_system(0.5, 1e150, 1e-150)
        for q, x0 in ((Quadrant.Q1, (1e-140, 1e-150)), (Quadrant.Q4, (1e-150, -1e-140))):
            traj = integrate(sys, x0, 0.0, StopAtTime(1.5), cfg)
            assert arc_growth(traj, sys.params, 0.0) <= 1.0
            np.testing.assert_allclose(traj.states[-1], flow_linear(q, x0, 1.5, sys.params, 0.0),
                                       rtol=1e-9)


class TestCrossingRule:
    """A start on an axis ends an arc of the region that holds it."""

    @pytest.mark.parametrize("x2", [0.0, 1e-13])
    def test_start_that_region_1_turns_back_raises_at_t0(self, cfg, x2):
        # region 1 holds the positive x1-axis, and its field at (0.5, 0)
        # points back into it: no arc of region 1 ends there
        sys = turning_back_system()
        for run in (lambda: integrate(sys, (0.5, x2), 0.0, StopAfterEvents(2), cfg),
                    lambda: poincare_numeric(sys, 0.5, 0.0, cfg),
                    lambda: poincare_numeric(sys, 0.5, 0.0, cfg, half=True)):
            with pytest.raises(TangencyError, match=r"quadrant 1 cannot end at t = 0\.0,"):
                run()

    def test_zero_normal_velocity_at_the_start_raises(self, cfg):
        # region 1's x2-velocity -c x1 + x1^2 vanishes at (1, 0); region 4's
        # field would carry the trajectory on, but the start is region 1's
        pert = PolyField(comp2=(MonomialTerm(LambdaPoly((1.0,)), 2, 0),))
        sys = SwitchedSystem(make_params(0.1, 2.0, 1.0),
                             (pert, PolyField(), PolyField(), PolyField()))
        with pytest.raises(TangencyError, match=r"quadrant 1 cannot end at t = 0\.0,"):
            integrate(sys, (1.0, 0.0), 0.0, StopAtTime(0.1), cfg)

    @pytest.mark.parametrize("x0,first", [((0.0, 0.7), Quadrant.Q1), ((-0.4, 0.0), Quadrant.Q2),
                                          ((0.0, -0.3), Quadrant.Q3),
                                          ((0.5, -1e-13), Quadrant.Q4)])
    def test_start_on_an_axis_is_not_an_event(self, cfg, x0, first):
        sys = make_linear_system(0.3, 2.0, 1.0)
        traj = integrate(sys, x0, 0.0, StopAfterEvents(1), cfg)
        assert traj.quadrants[0] == first and traj.events.tolist() == [len(traj.times) - 1]
        assert traj.times[traj.events[0]] > 0.1

    def test_start_next_to_an_axis_is_placed_on_it(self, paper_system, cfg):
        # x2 = 1e-13 is within 4 * event_tol * |x0| of the positive x1-axis
        traj = integrate(paper_system, (0.5, 1e-13), 0.1, StopAfterEvents(1), cfg)
        assert traj.times[0] == 0.0 and traj.states[0, 1] == 0.0
        assert traj.states[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert traj.quadrants[0] == Quadrant.Q4

    def test_state_off_the_exit_semi_axis_raises(self):
        # both fields point down, but only the positive x1-axis closes region 1
        def down(x1, x2):
            return 0.0, -1.0
        fields = {1: down, 4: down}
        assert (numeric._leave(fields, Quadrant.Q1, 0.5, 0.0, (0.0, -1.0), 0.0)
                == (Quadrant.Q4, (0.0, -1.0), 0.0, (0.5, 0.0)))
        with pytest.raises(TangencyError, match="quadrant 1 cannot end"):
            numeric._leave(fields, Quadrant.Q1, -0.5, 0.0, (0.0, -1.0), 0.0)

    def test_mid_arc_wrong_axis_raises(self, cfg):
        # from (0.5, -0.1) region 4's field swings the trajectory up
        # through the positive x1-axis instead of on to the negative x2-axis;
        # the guard names the step in which that crossing (t = 0.0508) lies
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

        def region4(t, x):    # a = 0.1, b = c = 1, p = (-10 x2^2, 10 x1^2)
            return (-0.1 * x[0] + x[1] - 10.0 * x[1] ** 2,
                    -x[0] - 0.1 * x[1] + 10.0 * x[0] ** 2)

        def up_through_x1_axis(t, x):
            return x[1]
        up_through_x1_axis.terminal, up_through_x1_axis.direction = True, 1.0
        sol = solve_ivp(region4, (0.0, 1.0), (0.5, -0.1), method="DOP853", rtol=1e-12,
                        atol=1e-14, events=up_through_x1_axis)
        (t_cross,) = sol.t_events[0]
        assert t_cross == pytest.approx(0.0508, abs=1e-4)
        with pytest.raises(TangencyError, match=r"left quadrant 4 through an unexpected "
                                                r"axis in the step from t = ") as info:
            integrate(turning_back_system(), (0.5, -0.1), 0.0, StopAfterEvents(2), cfg)
        t0, t1 = re.search(r"from t = (\S+) to (\S+) ", str(info.value)).groups()
        assert float(t0) < t_cross < float(t1)


class TestReturnResidual:
    def test_zero_for_critical_linear_system(self, paper_params, cfg):
        sys = SwitchedSystem(paper_params)
        for x1 in (0.1, 1.0, 3.0):
            assert abs(return_residual(sys, x1, 0.0, cfg)) <= 1e-8

    def test_negative_for_contracting_system(self, cfg):
        sys = make_linear_system(1.0, 1.0, 1.0)
        for x1 in (0.2, 1.0):
            assert return_residual(sys, x1, 0.0, cfg) < 0.0

    def test_sign_change_brackets_orbit(self, paper_system, cfg):
        vals = [return_residual(paper_system, x1, 0.1, cfg)
                for x1 in (0.05, 0.1, 0.3, 0.5)]
        assert vals[0] > 0.0 and vals[1] > 0.0
        assert vals[2] < 0.0 and vals[3] < 0.0


class TestDeltaNumeric:
    @pytest.mark.parametrize("a,b,c", ORACLE_GRID[:4])
    def test_linear_matches_closed_form(self, a, b, c, cfg):
        sys = make_linear_system(a, b, c)
        est = delta_numeric(sys, 0.0, cfg)
        assert est == pytest.approx(delta(sys.params, 0.0), rel=1e-6)

    def test_paper_example_critical(self, paper_system, cfg):
        assert delta_numeric(paper_system, 0.0, cfg) == pytest.approx(1.0, abs=1e-6)

    def test_paper_example_off_critical(self, paper_system, cfg):
        d = delta(paper_system.params, 0.1)
        assert delta_numeric(paper_system, 0.1, cfg) == pytest.approx(d, rel=1e-6)

    @pytest.mark.parametrize("a,b,c", ORACLE_GRID)
    def test_linear_equals_slope_at_quarter_amplitude(self, a, b, c, cfg):
        # a linear return is homogeneous: the slope at 1e-2 / 4 is bit-identical
        sys = make_linear_system(a, b, c)
        slope = poincare_numeric(sys, 2.5e-3, 0.0, cfg).x1_out / 2.5e-3
        assert delta_numeric(sys, 0.0, cfg) == slope

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_nonlinear_slopes_converge_quadratically(self, paper_system, cfg, lam):
        # the cubic perturbation gives pi(h)/h - delta ~ C h**2: each halving
        # of h divides the gap to the linear return ratio by 4
        est = delta_numeric(paper_system, lam, cfg)
        gaps = [abs(poincare_numeric(paper_system, h, lam, cfg).x1_out / h - est)
                for h in (1e-2, 5e-3, 2.5e-3)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.9 <= coarse / fine <= 4.1

    def test_costs_one_return(self, paper_system, cfg, rhs_evals):
        delta_numeric(paper_system, 0.1, cfg)
        assert 0 < rhs_evals[0] <= 1400


class TestIntegratorConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan])
    def test_rejects_nonfinite(self, rel_tol):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=rel_tol)

    def test_rel_tol_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["rel_tol"]

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    def test_derived_tolerances_at_benchmark_rel_tols(self, rel_tol):
        cfg = IntegratorConfig(rel_tol=rel_tol)
        assert cfg.abs_tol == 1e-10
        assert cfg.event_tol == 1e-12

    def test_tighter_rel_tol_tightens_every_tolerance(self):
        cfg = IntegratorConfig(rel_tol=1e-12)
        assert cfg.abs_tol == 1e-12
        assert cfg.event_tol == 1e-14


class TestStopConditions:
    @pytest.mark.parametrize("make", [lambda: StopAtTime(-1.0), lambda: StopAtTime(math.nan),
                                      lambda: StopAfterEvents(0),
                                      lambda: StopAfterEvents(numeric._MAX_ARCS + 1),
                                      lambda: StopAfterEvents(2.5), lambda: StopAfterEvents(True),
                                      lambda: StopAfterEvents("2")],
                             ids=["t_max<0", "t_max=nan", "count=0", "count>budget",
                                  "count=2.5", "count=True", "count='2'"])
    def test_rejects_bad_argument(self, make):
        with pytest.raises(ValueError):
            make()

    def test_event_budget_is_a_valid_count(self):
        assert StopAfterEvents(numeric._MAX_ARCS).count == numeric._MAX_ARCS
        assert type(StopAfterEvents(np.int64(2)).count) is int   # numpy integers too
