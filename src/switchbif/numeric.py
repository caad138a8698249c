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

The result is one time-ordered table, a row per accepted step and per
switching event.  An arc, the rows between two event rows, follows the
field of the open quadrant containing its interior.  Every arc end is
checked by one rule: the ending arc's field crosses its exit semi-axis
outward and transversally, and the clockwise successor's field carries
on across it.  A start on an axis counts as the end of an arc of the
half-open region that holds it, so it leaves that axis clockwise too.

``poincare_numeric`` is one revolution of the return map on the positive
x1-axis, ``half_return`` half of one for point-symmetric systems;
``delta_numeric``, the linear return ratio, is one return of
the linear part, which ``integrate`` computes alike at every amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetError, EscapeError, OriginError, SideError, StiffnessError,
                     TangencyError)
from .model import Quadrant, SwitchedSystem, clockwise_successor, freeze, region_of
from .rootfind import brent

__all__ = [
    "IntegratorConfig",
    "HybridTrajectory",
    "PoincareSample",
    "StopAtTime",
    "StopAfterEvents",
    "StopOnReturn",
    "integrate",
    "poincare_numeric",
    "half_return",
    "delta_numeric",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """The hybrid integrator's one accuracy setting, ``rel_tol``.

    ``integrate`` alone sizes the tolerances to the state, with |x| the
    max-norm of the current state: step error control allows
    abs_tol * min(1, |x|) + rel_tol * |x_i| in coordinate i, and every
    event-side tolerance (crossing location, on-axis start, wrong-axis
    guard) is a multiple of event_tol * |x|, so a linear system
    integrates scale-invariantly below |x| = 1.  The derived
    abs_tol = min(rel_tol, 1e-10) and event_tol = min(1e-12, rel_tol / 100)
    are 1e-10 and 1e-12 for every rel_tol >= 1e-10.  The event budget, the
    bounding box, the step sizes, the transversality threshold and the
    per-arc time budget are module constants.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")

    @property
    def abs_tol(self) -> float:
        return min(self.rel_tol, 1e-10)

    @property
    def event_tol(self) -> float:
        return min(1e-12, self.rel_tol / 100.0)


@dataclass(frozen=True)
class HybridTrajectory:
    """One row per accepted step and per switching event, in time order.

    ``quadrants[i]`` is the quadrant whose field carried the trajectory
    to row i (row 0: that of the first step); ``events`` holds the row
    indices of the switching events.
    """

    times: np.ndarray
    states: np.ndarray
    quadrants: np.ndarray
    events: np.ndarray

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class PoincareSample:
    """One revolution of the return map on the positive x1-axis, or half of one."""

    x1_in: float
    x1_out: float
    period: float


@dataclass(frozen=True)
class StopAtTime:
    t_max: float

    def __post_init__(self):
        if not (self.t_max >= 0.0):
            raise ValueError(f"t_max must be >= 0, got {self.t_max!r}")


@dataclass(frozen=True)
class StopAfterEvents:
    count: int

    def __post_init__(self):
        if not (1 <= self.count <= _MAX_ARCS):
            raise ValueError(f"event count must be in [1, {_MAX_ARCS}], got {self.count!r}")


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
#: first and largest step, least |normal velocity| / speed at a crossing, longest arc
_H0, _MAX_STEP, _TANGENCY_TOL, _MAX_ARC_TIME = 1e-3, 1.0, 1e-10, 1e4
#: switching events per integration, max-norm bound of every state
_MAX_ARCS, _ESCAPE_RADIUS = 10_000, 1e6
#: smallest normal float: a state below it has lost its relative precision
_FLOAT_MIN = float(np.finfo(float).tiny)
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


#: per quadrant: the coordinate that vanishes on its clockwise exit
#: semi-axis, the sign of that coordinate inside it, and the sign of the
#: other one, which the exit semi-axis shares
_EXIT = {Quadrant.Q1: (1, 1.0, 1.0), Quadrant.Q2: (0, -1.0, 1.0),
         Quadrant.Q3: (1, -1.0, -1.0), Quadrant.Q4: (0, 1.0, -1.0)}


def _leave(fields, q: Quadrant, x1: float, x2: float, t: float):
    """(successor, its field value) where an arc of ``q`` ends at (x1, x2).

    Raises TangencyError unless the state lies on q's exit semi-axis,
    q's field crosses it outward and transversally, and the clockwise
    successor's field carries on across it (no sliding).
    """
    gidx, s_g, s_o = _EXIT[q]
    d1, d2 = fields[int(q)](x1, x2)
    if not ((x1, x2)[1 - gidx] * s_o > 0.0
            and (d1, d2)[gidx] * s_g < -_TANGENCY_TOL * max(math.hypot(d1, d2), 1e-300)):
        raise TangencyError(f"an arc of quadrant {int(q)} cannot end at t = {t}, "
                            f"x = ({x1}, {x2}): its field must cross its exit semi-axis "
                            "there outward and transversally")
    q_next = clockwise_successor(q)
    k = fields[int(q_next)](x1, x2)
    if not (k[gidx] * s_g < 0.0):
        raise TangencyError(f"fields disagree at the switching manifold at t = {t} "
                            f"(sliding contact), x = ({x1}, {x2})")
    return q_next, k


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


def _table(rows: list, events: list[int], quadrants: list[int]) -> HybridTrajectory:
    """The trajectory from its (t, x1, x2) rows and one quadrant per arc:
    arc k + 1 carries rows events[k] + 1 to events[k + 1]."""
    table = np.array(rows)
    arc_rows = np.diff([0, *(e + 1 for e in events), len(rows)])
    return HybridTrajectory(times=table[:, 0], states=table[:, 1:],
                            quadrants=np.repeat(quadrants, arc_rows),
                            events=np.array(events, dtype=int))


def integrate(sys: SwitchedSystem, x0, lam: float, stop, cfg: IntegratorConfig) -> HybridTrajectory:
    """Integrate the switched system from ``x0`` until ``stop`` is met.

    ``stop`` is one of StopAtTime, StopAfterEvents, StopOnReturn.
    Returns one row per accepted step and per refined switching event.
    Raises TangencyError on non-transversal or sliding crossings,
    BudgetError when the event budget or per-arc time budget is
    exhausted, StiffnessError on step underflow, EscapeError when the
    start point or the trajectory lies outside the bounding box, and
    OriginError when the start or a later state lies below the smallest
    normal float.  A start within 4 * event_tol * |x0| of an axis ends
    an arc of the region holding the point snapped onto that axis and is
    checked like every switching event, but it is not recorded as one.
    """
    sys.params.check_lambda(lam)
    x1, x2 = float(x0[0]), float(x0[1])
    norm0 = max(abs(x1), abs(x2))
    if norm0 < _FLOAT_MIN:
        raise OriginError(f"start point ({x1}, {x2}) is the origin at float resolution")
    if norm0 > _ESCAPE_RADIUS:
        raise EscapeError(f"start point ({x1}, {x2}) lies outside the bounding box "
                          f"(max-norm {_ESCAPE_RADIUS})")
    if not isinstance(stop, (StopAtTime, StopAfterEvents, StopOnReturn)):
        raise TypeError(f"unsupported stop condition: {stop!r}")
    t_target = stop.t_max if isinstance(stop, StopAtTime) else math.inf
    events_target = stop.count if isinstance(stop, StopAfterEvents) else math.inf
    rel_tol, abs_tol, event_tol = cfg.rel_tol, cfg.abs_tol, cfg.event_tol

    fields = _compiled_fields(sys, lam)
    on_axis_tol = 4.0 * event_tol * norm0
    snapped = tuple(0.0 if abs(v) <= on_axis_tol else v for v in (x1, x2))
    q = region_of(snapped)
    if 0.0 in snapped:
        q, (k11, k12) = _leave(fields, q, x1, x2, 0.0)
    else:
        k11, k12 = fields[int(q)](x1, x2)

    rows: list[tuple[float, float, float]] = [(0.0, x1, x2)]
    events: list[int] = []
    quadrants: list[int] = [int(q)]
    t = 0.0
    arc_start_t = 0.0

    if t_target == 0.0:
        return _table(rows, events, quadrants)

    f = fields[int(q)]
    gidx, s_g, _ = _EXIT[q]
    h = _H0
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
        sc1 = abs_tol * loc + rel_tol * max(abs(x1), abs(u1))
        sc2 = abs_tol * loc + rel_tol * max(abs(x2), abs(u2))
        try:
            err = math.hypot(e1 / sc1, e2 / sc2) / math.sqrt(2.0)
        except ZeroDivisionError:   # the scale underflowed: no tolerance is left
            raise OriginError(f"state ({x1}, {x2}) at t = {t} is indistinguishable "
                              "from the origin at float resolution") from None
        if not math.isfinite(err):
            err = math.inf

        if err > 1.0:
            if max(abs(u1), abs(u2)) > _ESCAPE_RADIUS:
                raise EscapeError(
                    f"trajectory left the bounding box near t = {t}: ({u1}, {u2})")
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2)) if math.isfinite(err) else _MIN_FACTOR
            just_rejected = True
            continue
        if max(abs(u1), abs(u2)) < _FLOAT_MIN:
            raise OriginError(f"trajectory decayed below float resolution at t = {t + h}: "
                              f"({u1}, {u2})")

        crossed = not ((u1, u2)[gidx] * s_g > 0.0)
        # event-side tolerance relative to the local state scale: the event
        # time error is then ~ event_tol / rotation_rate regardless of decay
        tol_x = event_tol * max(abs(x1), abs(x2))

        if crossed:
            tau, (ev1, ev2) = _locate_crossing(f, x1, x2, h, (u1, u2), gidx,
                                               k11, k12, tol_x)
            t_ev = t + tau
            # the next arc's field at the event state is its first stage
            q_next, (k11, k12) = _leave(fields, q, ev1, ev2, t_ev)

            events.append(len(rows))
            rows.append((t_ev, ev1, ev2))
            quadrants.append(int(q_next))

            returned = isinstance(stop, StopOnReturn) and q == Quadrant.Q1
            if len(events) >= events_target or returned:
                return _table(rows, events, quadrants)
            if len(events) >= _MAX_ARCS:
                raise BudgetError(f"switching-event budget exhausted ({_MAX_ARCS})")

            q = q_next
            f = fields[int(q)]
            gidx, s_g, _ = _EXIT[q]
            t = t_ev
            arc_start_t = t_ev
            x1, x2 = ev1, ev2
            just_rejected = False
            continue

        # guard: the non-monitored coordinate must not cross back through
        # its axis mid-arc (would mean the rotation is not clockwise)
        oidx = 1 - gidx
        o0 = (x1, x2)[oidx]
        o1 = (u1, u2)[oidx]
        if abs(o0) > 10.0 * tol_x and (o0 > 0.0) != (o1 > 0.0):
            raise TangencyError(
                f"trajectory left quadrant {int(q)} through an unexpected axis "
                f"near t = {t + h} (rotation is not clockwise)")

        t = t_target if clipped else t + h
        x1, x2 = u1, u2
        k11, k12 = k71, k72
        rows.append((t, x1, x2))

        if max(abs(x1), abs(x2)) > _ESCAPE_RADIUS:
            raise EscapeError(f"trajectory left the bounding box at t = {t}: ({x1}, {x2})")
        if t >= t_target:
            return _table(rows, events, quadrants)
        if t - arc_start_t > _MAX_ARC_TIME:
            raise BudgetError(
                f"no switching event within time {_MAX_ARC_TIME} "
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
        h = min(h * factor, _MAX_STEP)


def poincare_numeric(sys: SwitchedSystem, x1: float, lam: float,
                     cfg: IntegratorConfig) -> PoincareSample:
    """One revolution of the return map from (x1, 0) on the positive x1-axis.

    ``integrate`` sizes every tolerance to the state, so the returned
    ratio keeps full relative accuracy for small amplitudes.  The start
    ends a quadrant-1 arc, so the return is the fourth switching event.
    """
    if not (x1 > 0.0):
        raise SideError(f"return map takes x1 > 0, got {x1}")
    traj = integrate(sys, (x1, 0.0), lam, StopOnReturn(), cfg)
    return PoincareSample(x1_in=x1, x1_out=float(traj.states[-1, 0]), period=traj.t_final)


def half_return(sys: SwitchedSystem, x1: float, lam: float,
                cfg: IntegratorConfig) -> PoincareSample:
    """Half a revolution h(x1) from (x1, 0); pi = h o h when f_(q+2)(x) = -f_q(-x).

    ``x1_out`` is -x1 at the second switching event, which ends a
    quadrant-3 arc on the negative x1-axis, and ``period`` twice its time.
    """
    if not (x1 > 0.0):
        raise SideError(f"return map takes x1 > 0, got {x1}")
    traj = integrate(sys, (x1, 0.0), lam, StopAfterEvents(2), cfg)
    return PoincareSample(x1_in=x1, x1_out=-float(traj.states[-1, 0]), period=2.0 * traj.t_final)


#: Amplitude of the one return in delta_numeric.
_SLOPE_H0 = 1e-2


def delta_numeric(sys: SwitchedSystem, lam: float, cfg: IntegratorConfig) -> float:
    """Linearized return ratio lim_{h -> 0+} pi(h, lam) / h.

    Perturbations have total degree >= 2 (checked by ``model.validate``),
    so the limit is the return ratio of the linear part: one return of
    ``SwitchedSystem.linear(sys.params)`` from (_SLOPE_H0, 0) over _SLOPE_H0.
    """
    linear = SwitchedSystem.linear(sys.params)
    return poincare_numeric(linear, _SLOPE_H0, lam, cfg).x1_out / _SLOPE_H0
