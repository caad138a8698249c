"""Event-detecting adaptive integration of the full switched system.

Each smooth arc lives in one open quadrant and is integrated with an
embedded Dormand-Prince 5(4) pair under PI step-size control.  The
switching manifolds are the four coordinate semi-axes, so the event
function on an arc is simply the coordinate about to vanish under
clockwise motion: x2 on arcs in quadrants 1 and 3, x1 on arcs in
quadrants 2 and 4.  A sign change over an accepted step is located by
``rootfind.brent`` on the length tau of a single re-taken step from the
step start, until the crossing coordinate is below ``event_tol`` times
the state scale.

Arc fields follow the open quadrant that contains the arc's interior:
a trajectory on an axis evolves under the field of the quadrant it is
entering, so axis points occur only as arc endpoints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BudgetError, EscapeError, OriginError, SideError,
                     StiffnessError, SwitchBifError, TangencyError,
                     NoConvergenceError)
from .model import Quadrant, SwitchedSystem, clockwise_successor, freeze
from .rootfind import brent

__all__ = [
    "IntegratorConfig",
    "SwitchEvent",
    "Arc",
    "HybridTrajectory",
    "PoincareSample",
    "StopAtTime",
    "StopAfterEvents",
    "StopOnReturn",
    "integrate",
    "poincare_numeric",
    "return_residual",
    "delta_numeric",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for the hybrid integrator.

    ``event_tol`` is the axis-crossing location tolerance in state
    units, applied relative to max(1, |x|).  ``max_arcs`` bounds the
    number of switching events per integration.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = 1.0
    event_tol: float = 1e-12
    max_arcs: int = 10_000
    h0: float = 1e-3
    tangency_tol: float = 1e-10
    escape_radius: float = 1e6
    max_arc_time: float = 1e4

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "event_tol", "h0",
                     "tangency_tol", "escape_radius", "max_arc_time"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if self.max_arcs < 1:
            raise ValueError("max_arcs must be >= 1")
        if self.event_tol > self.abs_tol:
            warnings.warn("event_tol > abs_tol: event states may be less accurate "
                          "than step error control suggests", stacklevel=2)

    def scaled_for_amplitude(self, amplitude: float) -> "IntegratorConfig":
        """Config with absolute tolerances tied to a trajectory scale.

        For trajectories of size << 1 the default absolute tolerances
        would dominate the error control and destroy relative accuracy
        of return ratios; shrinking them with the amplitude keeps the
        integration scale-invariant.
        """
        s = min(1.0, abs(amplitude))
        if s >= 1.0 or s == 0.0:
            return self
        return replace(self, abs_tol=self.abs_tol * s, event_tol=self.event_tol * s)


@dataclass(frozen=True)
class SwitchEvent:
    """One refined switching-manifold crossing."""

    time: float
    state: tuple[float, float]
    from_quadrant: Quadrant
    to_quadrant: Quadrant


@dataclass
class Arc:
    """One smooth piece of a hybrid trajectory, inside one open quadrant."""

    quadrant: Quadrant
    times: np.ndarray
    states: np.ndarray


@dataclass
class HybridTrajectory:
    arcs: list[Arc]
    events: list[SwitchEvent]
    t_final: float

    @property
    def final_state(self) -> np.ndarray:
        return self.arcs[-1].states[-1]

    @property
    def n_steps(self) -> int:
        return sum(len(a.times) - 1 for a in self.arcs)


@dataclass(frozen=True)
class PoincareSample:
    """One full revolution of the return map on the positive x1-axis."""

    x1_in: float
    x1_out: float
    period: float


@dataclass(frozen=True)
class StopAtTime:
    t_max: float


@dataclass(frozen=True)
class StopAfterEvents:
    count: int


@dataclass(frozen=True)
class StopOnReturn:
    """Stop at the first switching event on the positive x1-axis."""


# -- Dormand-Prince 5(4) coefficients -----------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_H_FLOOR = 1e-14
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA


def _rk_stages(f, x1, x2, h, k11, k12):
    """One 5th-order step of size h; returns solution, error, and the
    final stage (reusable as the next step's first stage)."""
    k21, k22 = f(x1 + h * _A21 * k11, x2 + h * _A21 * k12)
    k31, k32 = f(x1 + h * (_A31 * k11 + _A32 * k21),
                 x2 + h * (_A31 * k12 + _A32 * k22))
    k41, k42 = f(x1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31),
                 x2 + h * (_A41 * k12 + _A42 * k22 + _A43 * k32))
    k51, k52 = f(x1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41),
                 x2 + h * (_A51 * k12 + _A52 * k22 + _A53 * k32 + _A54 * k42))
    k61, k62 = f(x1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51),
                 x2 + h * (_A61 * k12 + _A62 * k22 + _A63 * k32 + _A64 * k42 + _A65 * k52))
    u1 = x1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
    u2 = x2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
    k71, k72 = f(u1, u2)
    e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
    e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
    return u1, u2, e1, e2, k71, k72


def _compiled_fields(sys: SwitchedSystem, lam: float) -> dict[int, object]:
    """Per-quadrant scalar closures with coefficients frozen at ``lam``."""
    fields: dict[int, object] = {}
    for q, (a11, a12, a21, a22, t1, t2) in zip(Quadrant, freeze(sys, lam)):
        if not t1 and not t2:
            def f_lin(x1, x2, a11=a11, a12=a12, a21=a21, a22=a22):
                return a11 * x1 + a12 * x2, a21 * x1 + a22 * x2
            fields[int(q)] = f_lin
        else:
            def f_full(x1, x2, a11=a11, a12=a12, a21=a21, a22=a22, t1=t1, t2=t2):
                # float overflow in a rejected trial step must surface as an
                # infinite error estimate, not an exception
                try:
                    d1 = a11 * x1 + a12 * x2
                    for cc, p1, p2 in t1:
                        d1 += cc * x1 ** p1 * x2 ** p2
                    d2 = a21 * x1 + a22 * x2
                    for cc, p1, p2 in t2:
                        d2 += cc * x1 ** p1 * x2 ** p2
                except OverflowError:
                    return math.inf, math.inf
                return d1, d2
            fields[int(q)] = f_full
    return fields


def _monitored_index(q: Quadrant) -> int:
    """Coordinate that vanishes at the arc's clockwise exit axis."""
    return 1 if q in (Quadrant.Q1, Quadrant.Q3) else 0


def _initial_quadrant(fields, x1: float, x2: float, on_axis_tol: float) -> Quadrant:
    """Open quadrant whose field governs the first arc from (x1, x2).

    Interior points use their sign quadrant; axis points use the side
    the transversal velocity points into.
    """
    on_x2_axis = abs(x1) <= on_axis_tol
    on_x1_axis = abs(x2) <= on_axis_tol
    if on_x1_axis and on_x2_axis:
        raise OriginError(f"start point ({x1}, {x2}) is indistinguishable from the origin")
    if not on_x1_axis and not on_x2_axis:
        if x1 > 0.0:
            return Quadrant.Q1 if x2 > 0.0 else Quadrant.Q4
        return Quadrant.Q2 if x2 > 0.0 else Quadrant.Q3
    if on_x1_axis:
        side_pos, side_neg = (Quadrant.Q1, Quadrant.Q4) if x1 > 0.0 else (Quadrant.Q2, Quadrant.Q3)
        tidx = 1
    else:
        side_pos, side_neg = (Quadrant.Q1, Quadrant.Q2) if x2 > 0.0 else (Quadrant.Q4, Quadrant.Q3)
        tidx = 0
    v_pos = fields[int(side_pos)](x1, x2)[tidx]
    v_neg = fields[int(side_neg)](x1, x2)[tidx]
    pos_ok = v_pos > 0.0
    neg_ok = v_neg < 0.0
    if pos_ok == neg_ok:
        raise TangencyError(
            f"departure from axis at ({x1}, {x2}) is ambiguous or sliding "
            f"(transversal velocities {v_pos}, {v_neg})")
    return side_pos if pos_ok else side_neg


def _locate_crossing(f, x1, x2, h, end_state, gidx, k11, k12, tol_g):
    """(tau, state) where the monitored coordinate g crosses zero within [0, h].

    g(tau) is that coordinate after one 5th-order step of size tau; the
    known bracket ends and every state evaluated are kept, so neither
    brent's first calls nor the returned state cost a further step.
    """
    states = {0.0: (x1, x2), h: end_state}

    def g(tau):
        state = states.get(tau)
        if state is None:
            u1, u2, _, _, _, _ = _rk_stages(f, x1, x2, tau, k11, k12)
            state = states[tau] = (u1, u2)
        return state[gidx]

    tau, _ = brent(g, 0.0, h, xtol=math.ulp(h), ftol=tol_g)
    return tau, states[tau]


def integrate(sys: SwitchedSystem, x0, lam: float, stop, cfg: IntegratorConfig) -> HybridTrajectory:
    """Integrate the switched system from ``x0`` until ``stop`` is met.

    ``stop`` is one of StopAtTime, StopAfterEvents, StopOnReturn.
    Records every accepted step and every refined switching event.
    Raises TangencyError on non-transversal or sliding crossings,
    BudgetError when the event budget or per-arc time budget is
    exhausted, StiffnessError on step underflow and EscapeError when
    the start point or the trajectory lies outside the bounding box.
    """
    sys.params.check_lambda(lam)
    x1, x2 = float(x0[0]), float(x0[1])
    norm0 = max(abs(x1), abs(x2))
    if norm0 == 0.0:
        raise OriginError("cannot integrate from the origin")
    if norm0 > cfg.escape_radius:
        raise EscapeError(f"start point ({x1}, {x2}) lies outside the bounding box "
                          f"(escape_radius = {cfg.escape_radius})")

    if isinstance(stop, StopAtTime):
        if stop.t_max < 0.0:
            raise ValueError("t_max must be >= 0")
        t_target = stop.t_max
        events_target = math.inf
        stop_on_return = False
    elif isinstance(stop, StopAfterEvents):
        if stop.count < 1:
            raise ValueError("event count must be >= 1")
        t_target = math.inf
        events_target = stop.count
        stop_on_return = False
    elif isinstance(stop, StopOnReturn):
        t_target = math.inf
        events_target = math.inf
        stop_on_return = True
    else:
        raise TypeError(f"unsupported stop condition: {stop!r}")

    fields = _compiled_fields(sys, lam)
    on_axis_tol = 4.0 * cfg.event_tol * norm0
    q = _initial_quadrant(fields, x1, x2, on_axis_tol)

    arcs: list[Arc] = []
    events: list[SwitchEvent] = []
    cur_t: list[float] = [0.0]
    cur_x: list[tuple[float, float]] = [(x1, x2)]
    t = 0.0
    arc_start_t = 0.0

    def close_arc():
        arcs.append(Arc(quadrant=q,
                        times=np.array(cur_t),
                        states=np.array(cur_x)))

    if t_target == 0.0:
        close_arc()
        return HybridTrajectory(arcs=arcs, events=events, t_final=0.0)

    f = fields[int(q)]
    gidx = _monitored_index(q)
    k11, k12 = f(x1, x2)
    h = min(cfg.h0, cfg.max_step)
    if math.isfinite(t_target):
        h = min(h, t_target)
    facold = 1e-4
    just_rejected = False

    while True:
        clipped = False
        if t + h >= t_target:
            h = t_target - t
            clipped = True
        if h <= _H_FLOOR * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow (h = {h}) at t = {t}")

        u1, u2, e1, e2, k71, k72 = _rk_stages(f, x1, x2, h, k11, k12)
        # the absolute-tolerance floor follows the trajectory scale, so
        # control stays relative while a contracting spiral decays; without
        # this, event times on strongly damped orbits lose absolute accuracy
        loc = min(1.0, max(abs(x1), abs(x2), abs(u1), abs(u2)))
        sc1 = cfg.abs_tol * loc + cfg.rel_tol * max(abs(x1), abs(u1))
        sc2 = cfg.abs_tol * loc + cfg.rel_tol * max(abs(x2), abs(u2))
        err = math.hypot(e1 / sc1, e2 / sc2) / math.sqrt(2.0)
        if not math.isfinite(err):
            err = math.inf

        if err > 1.0:
            if max(abs(u1), abs(u2)) > cfg.escape_radius:
                raise EscapeError(
                    f"trajectory left the bounding box near t = {t}: ({u1}, {u2})")
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2)) if math.isfinite(err) else _MIN_FACTOR
            just_rejected = True
            continue

        g0 = (x1, x2)[gidx]
        g1 = (u1, u2)[gidx]
        crossed = (g1 == 0.0) or ((g0 > 0.0) != (g1 > 0.0))

        if crossed:
            # crossing located relative to the local state scale: the time
            # error is then ~ event_tol / rotation_rate regardless of decay
            tol_g = cfg.event_tol * max(abs(x1), abs(x2), 1e-300)
            tau, (ev1, ev2) = _locate_crossing(f, x1, x2, h, (u1, u2), gidx,
                                               k11, k12, tol_g)
            t_ev = t + tau
            # tangency check against the field that carried the crossing
            d1, d2 = f(ev1, ev2)
            speed = math.hypot(d1, d2)
            gdot = (d1, d2)[gidx]
            if abs(gdot) <= cfg.tangency_tol * max(speed, 1e-300):
                raise TangencyError(
                    f"non-transversal axis crossing at t = {t_ev}, x = ({ev1}, {ev2})")
            s_cross = -1.0 if g0 > 0.0 else 1.0
            q_next = clockwise_successor(q)
            gdot_next = fields[int(q_next)](ev1, ev2)[gidx]
            if gdot_next * s_cross <= 0.0:
                raise TangencyError(
                    f"fields disagree at the switching manifold at t = {t_ev} "
                    f"(sliding contact), x = ({ev1}, {ev2})")

            cur_t.append(t_ev)
            cur_x.append((ev1, ev2))
            close_arc()
            events.append(SwitchEvent(time=t_ev, state=(ev1, ev2),
                                      from_quadrant=q, to_quadrant=q_next))

            returned = stop_on_return and gidx == 1 and ev1 > 0.0
            if len(events) >= events_target or returned:
                return HybridTrajectory(arcs=arcs, events=events, t_final=t_ev)
            if len(events) >= cfg.max_arcs:
                raise BudgetError(f"switching-event budget exhausted ({cfg.max_arcs})")

            q = q_next
            f = fields[int(q)]
            gidx = _monitored_index(q)
            t = t_ev
            arc_start_t = t_ev
            x1, x2 = ev1, ev2
            k11, k12 = f(x1, x2)
            cur_t = [t_ev]
            cur_x = [(x1, x2)]
            just_rejected = False
            continue

        # guard: the non-monitored coordinate must not cross back through
        # its axis mid-arc (would mean the rotation is not clockwise)
        oidx = 1 - gidx
        o0 = (x1, x2)[oidx]
        o1 = (u1, u2)[oidx]
        band = 10.0 * cfg.event_tol * max(1.0, abs(x1), abs(x2))
        if abs(o0) > band and (o0 > 0.0) != (o1 > 0.0):
            raise TangencyError(
                f"trajectory left quadrant {int(q)} through an unexpected axis "
                f"near t = {t + h} (rotation is not clockwise)")

        t = t_target if clipped else t + h
        x1, x2 = u1, u2
        k11, k12 = k71, k72
        cur_t.append(t)
        cur_x.append((x1, x2))

        if max(abs(x1), abs(x2)) > cfg.escape_radius:
            raise EscapeError(f"trajectory left the bounding box at t = {t}: ({x1}, {x2})")
        if t >= t_target:
            close_arc()
            return HybridTrajectory(arcs=arcs, events=events, t_final=t)
        if t - arc_start_t > cfg.max_arc_time:
            raise BudgetError(
                f"no switching event within max_arc_time = {cfg.max_arc_time} "
                f"(arc started at t = {arc_start_t})")

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_EXPO) * facold ** _BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if just_rejected:
            factor = min(1.0, factor)
            just_rejected = False
        facold = max(err, 1e-4)
        h = min(h * factor, cfg.max_step)


def poincare_numeric(sys: SwitchedSystem, x1: float, lam: float,
                     cfg: IntegratorConfig) -> PoincareSample:
    """One revolution of the return map from (x1, 0) on the positive x1-axis.

    Integration tolerances are scaled with ``x1`` so the returned ratio
    keeps full relative accuracy for small amplitudes.
    """
    if not (x1 > 0.0):
        raise SideError(f"return map takes x1 > 0, got {x1}")
    eff = cfg.scaled_for_amplitude(x1)
    traj = integrate(sys, (x1, 0.0), lam, StopOnReturn(), eff)
    if len(traj.events) != 4:
        raise SwitchBifError(
            f"return to the section took {len(traj.events)} switching events, expected 4")
    x_end = traj.final_state
    return PoincareSample(x1_in=x1, x1_out=float(x_end[0]), period=traj.t_final)


def return_residual(sys: SwitchedSystem, x1: float, lam: float,
                    cfg: IntegratorConfig) -> float:
    """Signed fixed-point residual of the return map: pi(x1) - x1."""
    return poincare_numeric(sys, x1, lam, cfg).x1_out - x1


#: First amplitude and relative agreement of the slope sequence in delta_numeric.
_SLOPE_H0 = 1e-2
_SLOPE_AGREE_RTOL = 1e-8


def delta_numeric(sys: SwitchedSystem, lam: float, cfg: IntegratorConfig,
                  max_halvings: int = 48) -> float:
    """Linearized return ratio lim_{h -> 0+} pi(h, lam) / h.

    Evaluates return-map slopes on the geometric sequence
    _SLOPE_H0 * 2**-j and stops once three successive slopes agree to
    _SLOPE_AGREE_RTOL relative; the last estimate is returned (no
    extrapolation, since the convergence order of the nonlinear
    correction is not known a priori).  Raises NoConvergenceError with
    the slope sequence if the estimates never settle.
    """
    slopes: list[float] = []
    for j in range(max_halvings):
        h = _SLOPE_H0 * 2.0 ** (-j)
        slopes.append(poincare_numeric(sys, h, lam, cfg).x1_out / h)
        if len(slopes) >= 3:
            window = slopes[-3:]
            span = max(window) - min(window)
            if span <= _SLOPE_AGREE_RTOL * max(abs(v) for v in window):
                return slopes[-1]
    raise NoConvergenceError("return-ratio slope sequence did not settle", slopes)
