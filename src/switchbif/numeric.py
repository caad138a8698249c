"""Event-detecting adaptive integration of the full switched system.

Each smooth arc lives in one open quadrant and is integrated with
Hairer's DOP853 pair (Hairer, Norsett and Wanner, Solving ODEs I, II.5):
an 8th-order step takes 11 new RHS evaluations, and f at an accepted
state is the next step's first stage.  The tableau is stated once, as
data, and the steps in time and in phase are code generated from it.
The step size follows Hairer's error norm, which blends the pair's 5th-
and 3rd-order estimates, with exponent 1/8.  The switching manifolds are
the four coordinate semi-axes.  In the growth rule's frame y = (x1, w x2)
each region's linear part is a pure clockwise spiral, and its quadrant is
the phase interval [0, pi/2] from its entry semi-axis to its exit one in
``model.REGIONS``.  A step that ends within ``event_tol`` |y| of the exit
semi-axis, or past it, is not taken: DOP853 steps in that phase land the
arc on the axis from the last accepted state (Henon's trick).

The result is one time-ordered table, a row per accepted step and per
switching event.  An arc, the rows between two event rows, follows the field
of the open quadrant containing its interior; ``integrate`` takes one pass per
arc, whose step loop ends at the landing, and each row records the quadrant of
the arc that reached it.  A stop at t_max ends at the first row that leaves at
most the step floor before t_max: t_max itself, or an event row at or past it.
A return stop counts events: after a first arc of quadrant q, the arc of Q1
ends on the positive x1-axis at event int(q).  ``_leave`` ends every arc: the
arc's field must cross its exit semi-axis outward and transversally, and the
clockwise successor's field there must carry on across it.  A start on or next
to an axis ends an arc of the region holding it, moved onto the axis.
The growth rule ends an arc with EscapeError once an accepted state's |y|, a norm
in which the region's linear part decays, exceeds ``_ARC_GROWTH`` times its value
at the arc's start: only the perturbation grows |y|, as in a finite-time blow-up.

``poincare_numeric`` is one revolution of the return map on the positive
x1-axis, or with ``half=True`` half of one for point-symmetric systems;
``delta_numeric``, the linear return ratio, is one return of
the linear part, which ``integrate`` computes alike at every amplitude.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .analytic import _spiral
from .errors import (BudgetError, EscapeError, OriginError, SideError, StiffnessError,
                     TangencyError)
from .model import REGIONS, Quadrant, SwitchedSystem, compile_forms, freeze, region_of

__all__ = [
    "IntegratorConfig",
    "HybridTrajectory",
    "PoincareSample",
    "StopAtTime",
    "StopAfterEvents",
    "StopOnReturn",
    "integrate",
    "poincare_numeric",
    "delta_numeric",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """The hybrid integrator's one accuracy setting, ``rel_tol``.

    ``integrate`` alone sizes the tolerances to the state, with |x| the
    max-norm of the current state: step error control scales the DOP853
    pair's error estimates by abs_tol * min(1, |x|) + rel_tol * |x_i| in
    coordinate i (in a landing, R's alike and t's by rel_tol * |t| + abs_tol
    * |dt|), a step within event_tol * |y| of its exit semi-axis reaches it,
    and a start within 4 * event_tol * |x| of an axis lies on it, so a
    linear system integrates scale-invariantly below |x| = 1.  The derived
    abs_tol = min(rel_tol, 1e-10) and event_tol = min(1e-12, rel_tol / 100)
    are 1e-10 and 1e-12 for every rel_tol >= 1e-10.  The event budget, the
    bounding box, the growth rule's factor, the step sizes, the transversality
    threshold and the per-arc time budget are module constants.
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
    to row i, so an event row has the quadrant of the arc it ends (row 0:
    that of the first step); ``events`` holds the row indices of the
    switching events.
    """

    times: np.ndarray
    states: np.ndarray
    quadrants: np.ndarray
    events: np.ndarray

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class PoincareSample:
    """One revolution of the return map on the positive x1-axis, or half of one,
    from the amplitude that the caller passed."""

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
        if (isinstance(self.count, bool) or not hasattr(self.count, "__index__")
                or not 1 <= self.count <= _MAX_ARCS):
            raise ValueError(f"event count must be an integer in [1, {_MAX_ARCS}], "
                             f"got {self.count!r}")
        object.__setattr__(self, "count", operator.index(self.count))


@dataclass(frozen=True)
class StopOnReturn:
    """Stop at the first switching event on the positive x1-axis."""


# -- DOP853 tableau (Hairer, Norsett and Wanner, Solving ODEs I, II.5) ------------
#: stage i = 2..12: the nonzero (j, a_ij) over the stages j < i
_A = {
    2: ((1, 5.26001519587677318785587544488e-2),),
    3: ((1, 1.97250569845378994544595329183e-2), (2, 5.91751709536136983633785987549e-2)),
    4: ((1, 2.95875854768068491816892993775e-2), (3, 8.87627564304205475450678981324e-2)),
    5: ((1, 2.41365134159266685502369798665e-1), (3, -8.84549479328286085344864962717e-1),
        (4, 9.24834003261792003115737966543e-1)),
    6: ((1, 3.7037037037037037037037037037e-2), (4, 1.70828608729473871279604482173e-1),
        (5, 1.25467687566822425016691814123e-1)),
    7: ((1, 3.7109375e-2), (4, 1.70252211019544039314978060272e-1),
        (5, 6.02165389804559606850219397283e-2), (6, -1.7578125e-2)),
    8: ((1, 3.70920001185047927108779319836e-2), (4, 1.70383925712239993810214054705e-1),
        (5, 1.07262030446373284651809199168e-1), (6, -1.53194377486244017527936158236e-2),
        (7, 8.27378916381402288758473766002e-3)),
    9: ((1, 6.24110958716075717114429577812e-1), (4, -3.36089262944694129406857109825),
        (5, -8.68219346841726006818189891453e-1), (6, 2.75920996994467083049415600797e1),
        (7, 2.01540675504778934086186788979e1), (8, -4.34898841810699588477366255144e1)),
    10: ((1, 4.77662536438264365890433908527e-1), (4, -2.48811461997166764192642586468),
         (5, -5.90290826836842996371446475743e-1), (6, 2.12300514481811942347288949897e1),
         (7, 1.52792336328824235832596922938e1), (8, -3.32882109689848629194453265587e1),
         (9, -2.03312017085086261358222928593e-2)),
    11: ((1, -9.3714243008598732571704021658e-1), (4, 5.18637242884406370830023853209),
         (5, 1.09143734899672957818500254654), (6, -8.14978701074692612513997267357),
         (7, -1.85200656599969598641566180701e1), (8, 2.27394870993505042818970056734e1),
         (9, 2.49360555267965238987089396762), (10, -3.0467644718982195003823669022)),
    12: ((1, 2.27331014751653820792359768449), (4, -1.05344954667372501984066689879e1),
         (5, -2.00087205822486249909675718444), (6, -1.79589318631187989172765950534e1),
         (7, 2.79488845294199600508499808837e1), (8, -2.85899827713502369474065508674),
         (9, -8.87285693353062954433549289258), (10, 1.23605671757943030647266201528e1),
         (11, 6.43392746015763530355970484046e-1)),
}
#: (j, weight): the 8th-order weights, the 5th-order error weights, and the
#: 3rd-order weights, whose difference from _B is the 3rd-order error
_B = ((1, 5.42937341165687622380535766363e-2), (6, 4.45031289275240888144113950566),
      (7, 1.89151789931450038304281599044), (8, -5.8012039600105847814672114227),
      (9, 3.1116436695781989440891606237e-1), (10, -1.52160949662516078556178806805e-1),
      (11, 2.01365400804030348374776537501e-1), (12, 4.47106157277725905176885569043e-2))
_E = ((1, 0.1312004499419488073250102996e-1), (6, -0.1225156446376204440720569753e+1),
      (7, -0.4957589496572501915214079952), (8, 0.1664377182454986536961530415e+1),
      (9, -0.3503288487499736816886487290), (10, 0.3341791187130174790297318841),
      (11, 0.8192320648511571246570742613e-1), (12, -0.2235530786388629525884427845e-1))
_BHH = ((1, 0.244094488188976377952755905512), (9, 0.733846688281611857341361741547),
        (12, 0.220588235294117647058823529412e-1))
#: step floor, relative to max(1, |t|): no step is shorter
_H_FLOOR = 1e-14
#: first and largest step, least |normal velocity| / speed at a crossing, longest arc
_H0, _MAX_STEP, _TANGENCY_TOL, _MAX_ARC_TIME = 1e-3, 1.0, 1e-10, 1e4
#: switching events per integration, max-norm bound of every state
_MAX_ARCS, _ESCAPE_RADIUS = 10_000, 1e6
#: growth rule: largest |y| of an arc over |y| at its start, where |y|^2 = x1^2 + (b/c) x2^2
#: in regions 1, 3 and x1^2 + (c/b) x2^2 in 2, 4, which the linear part decays at rate a
_ARC_GROWTH = 10.0
#: smallest normal float: a state below it has lost its relative precision
_FLOAT_MIN = float(np.finfo(float).tiny)
#: step-size controller: h *= SAFETY * err**-EXPO within [MIN_FACTOR, MAX_FACTOR]
_SAFETY, _EXPO, _MIN_FACTOR, _MAX_FACTOR = 0.9, 1 / 8, 0.333, 6.0


def _generate_step():
    """``_rk_step`` and ``_rk_phase_step`` as straight-line code generated from the tables.

    _rk_step(f, x1, x2, h, p1, q1) takes one 8th-order step of size h from
    the first stage (p1, q1) = f(x1, x2); stage i is (p_i, q_i).  It returns
    the solution (u1, u2), the 5th-order error (e1, e2) and the 3rd-order
    one (d1, d2); f(u) is left to the caller, as the next step's first
    stage.  _rk_phase_step(f, th, x1, x2, h, p1, q1) is the same step of a
    field f(th, x1, x2) that reads the independent variable th, which stage
    i gets at th + c_i h, with c_i the row sum of ``_A``.  Only the nonzero
    coefficients appear, as ``repr(float)`` literals, and each sum runs left
    to right in increasing j.
    """
    def dot(pairs, v, sep=" + "):
        return sep.join(f"{a!r} * {v}{j}" for j, a in pairs)

    def step(head, var):
        lines = [head]
        for i, row in _A.items():
            incs = [f"h * {dot(row, v)}" if len(row) == 1 else f"h * ({dot(row, v)})"
                    for v in "pq"]
            lines.append(f"    p{i}, q{i} = f({var(row)}x1 + {incs[0]}, x2 + {incs[1]})")
        for c, v in ((1, "p"), (2, "q")):
            lines += [f"    s{c} = {dot(_B, v)}", f"    e{c} = h * ({dot(_E, v)})",
                      f"    d{c} = h * (s{c} - {dot(_BHH, v, ' - ')})"]
        return [*lines, "    return x1 + h * s1, x2 + h * s2, e1, e2, d1, d2"]

    namespace = {"__builtins__": {}}
    exec("\n".join([*step("def _rk_step(f, x1, x2, h, p1, q1):", lambda row: ""),
                    *step("def _rk_phase_step(f, th, x1, x2, h, p1, q1):",
                          lambda row: f"th + {math.fsum(a for _, a in row)!r} * h, ")]), namespace)
    return namespace["_rk_step"], namespace["_rk_phase_step"]


_rk_step, _rk_phase_step = _generate_step()


def _error(e1, e2, d1, d2, sc1, sc2, x1, x2, t):
    """(err, factor) of a step from (x1, x2) at t: Hairer's norm of its 5th- and
    3rd-order error estimates e and d, scaled per coordinate by sc, and the next
    step's factor.  A scale that underflowed to zero leaves no tolerance."""
    try:
        n5 = math.hypot(e1 / sc1, e2 / sc2)
        n3 = math.hypot(d1 / sc1, d2 / sc2)
    except ZeroDivisionError:
        raise OriginError(f"state ({x1}, {x2}) at t = {t} is indistinguishable "
                          "from the origin at float resolution") from None
    # Hairer's n5^2 / sqrt(2 (n5^2 + 0.01 n3^2)), in a form that neither
    # overflows nor divides by zero: inf or nan on overflow, 0 for n5 = 0
    err = n5 * (n5 / math.hypot(n5, 0.1 * n3)) / math.sqrt(2.0) if n5 else 0.0
    if not math.isfinite(err):
        return math.inf, _MIN_FACTOR
    return err, min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_EXPO)) if err else _MAX_FACTOR


def _compiled_fields(sys: SwitchedSystem, lam: float) -> dict[int, object]:
    """Every region's field at ``lam``, its two ``model.freeze`` components compiled
    once by ``compile_forms``: {region: f(x1, x2) -> (dx1, dx2)}; equal ones share one f."""
    frozen = freeze(sys, lam)
    shared = {fr: compile_forms(*fr) for fr in set(frozen)}
    return {int(q): shared[fr] for q, fr in zip(Quadrant, frozen)}


def _leave(fields, q: Quadrant, x1: float, x2: float, d, t: float):
    """(successor, its field value, time, state) that end an arc of ``q`` next
    to (x1, x2) at t, where q's field is d: the state moved along d, for time
    -g / g', onto q's exit semi-axis.  Raises TangencyError unless the state is
    beside that semi-axis and d crosses it outward and transversally, and unless
    the clockwise successor's field at the moved state carries on across it."""
    gidx, s_g, s_o, q_next = REGIONS[q]
    if not ((x1, x2)[1 - gidx] * s_o > 0.0
            and d[gidx] * s_g < -_TANGENCY_TOL * max(math.hypot(*d), 1e-300)):
        raise TangencyError(f"an arc of quadrant {int(q)} cannot end at t = {t}, "
                            f"x = ({x1}, {x2}): its field must cross its exit semi-axis "
                            "there outward and transversally")
    dt = -(x1, x2)[gidx] / d[gidx]
    x = (0.0, x2 + dt * d[1]) if gidx == 0 else (x1 + dt * d[0], 0.0)
    k = fields[int(q_next)](*x)
    if not (k[gidx] * s_g < 0.0):
        raise TangencyError(f"fields disagree at the switching manifold at t = {t + dt} "
                            f"(sliding contact), x = ({x[0]}, {x[1]})")
    return q_next, k, t + dt, x


def _land(f, q: Quadrant, w: float, t: float, x1: float, x2: float, k, rel_tol, abs_tol):
    """(time, state) where the arc of ``q`` from (x1, x2) at t, with q's field k
    there, reaches q's exit semi-axis, by DOP853 steps in the arc's phase.

    In the frame y = (x1, w x2), q's quadrant is R (cos th, sin th), th in
    [0, pi/2], in the coordinates (g, o): g the exit coordinate, o the other,
    both positive inside.  After Henon (Physica D 5, 1982) th is the
    independent variable and (R, t) the state, with dR/dth = R (y'.u_r) /
    (y'.u_th) and dt/dth = R / (y'.u_th), stepped under ``integrate``'s error
    norm and controller.  The last step ends at th = pi/2, where g is set to
    0.0.  A phase rate y'.u_th / R that is not positive, or that vanishes so
    that the phase step underflows, raises TangencyError."""
    gidx, s_g, s_o, _ = REGIONS[q]
    mg, mo = (s_g, s_o * w) if gidx == 0 else (s_g * w, s_o)   # g = mg x_gidx, o = mo x_other

    def rates(c, s, R, d):
        dg, do = mg * d[gidx], mo * d[1 - gidx]
        v = do * c - dg * s
        if not v > 0.0:
            raise TangencyError(f"an arc of quadrant {int(q)} cannot end after t = {t}: it "
                                f"stops turning clockwise (phase rate {v / R})")
        return R * ((dg * c + do * s) / v), R / v

    def field(th, R, _):
        c, s = math.cos(th), math.sin(th)
        xg, xo = R * c / mg, R * s / mo
        return rates(c, s, R, f(xg, xo) if gidx == 0 else f(xo, xg))

    g, o = mg * (x1, x2)[gidx], mo * (x1, x2)[1 - gidx]
    R, th, end = math.hypot(g, o), math.atan2(o, g), 0.5 * math.pi
    kR, kt = rates(g / R, o / R, R, k)
    h = h_max = end - th
    while True:
        clipped = th + h >= end
        if clipped:
            h = end - th
        elif h <= _H_FLOOR:   # dt/dth grows without bound: the phase rate vanishes
            raise TangencyError(f"an arc of quadrant {int(q)} cannot end after t = {t}: its "
                                f"phase rate vanishes (phase step underflow, h = {h})")
        R1, t1, e1, e2, d1, d2 = _rk_phase_step(field, th, R, t, h, kR, kt)
        big = max(R, abs(R1))
        err, factor = _error(e1, e2, d1, d2, abs_tol * min(1.0, big) + rel_tol * big,
                             rel_tol * max(abs(t), abs(t1)) + abs_tol * abs(t1 - t), x1, x2, t)
        if err > 1.0:
            h = h_max = h * factor   # the step after a rejection does not grow
            continue
        th, R, t = end if clipped else th + h, R1, t1
        if clipped:
            return t, ((0.0, R / mo) if gidx == 0 else (R / mo, 0.0))
        kR, kt = field(th, R, t)
        h, h_max = min(h * factor, h_max), end


def integrate(sys: SwitchedSystem, x0, lam: float, stop, cfg: IntegratorConfig,
              fields=None) -> HybridTrajectory:
    """Integrate the switched system from ``x0`` until ``stop`` is met.

    ``stop`` is one of StopAtTime, StopAfterEvents, StopOnReturn.
    Returns one row per accepted step and per switching event.
    A StopAtTime ends at the first row that leaves at most the step floor,
    _H_FLOOR * max(1, |t|), before t_max: t_max itself, or an event row at
    or past it.
    Raises DomainError where ``sys.params.at(lam)`` does, TangencyError on
    non-transversal or sliding crossings, on an arc that stops turning
    clockwise and on a trial state on or past the axis its arc entered by,
    BudgetError when the event budget or per-arc time budget is exhausted,
    StiffnessError on step underflow, EscapeError when the start, a trial
    state or a landed state lies outside the bounding box, NaN too, unless
    the step is rejected and x . f(x) <= 0 at the accepted state, or by the
    growth rule when an accepted or landed state's |y| exceeds _ARC_GROWTH
    times its arc's start, and OriginError when a state lies below the
    smallest normal float.  A start within 4 * event_tol * |x0| of an axis
    ends an arc of the region holding the point snapped onto that axis:
    ``_leave`` checks it and moves it onto the axis, and row 0 holds the
    placed state, which is not recorded as an event.
    ``fields`` is ``_compiled_fields(sys, lam)`` when the caller holds it.
    """
    r = _spiral(sys.params, lam)[2]
    x1, x2 = float(x0[0]), float(x0[1])
    if not (abs(x1) <= _ESCAPE_RADIUS and abs(x2) <= _ESCAPE_RADIUS):   # NaN included
        raise EscapeError(f"start point ({x1}, {x2}) lies outside the bounding box "
                          f"(max-norm {_ESCAPE_RADIUS})")
    norm0 = max(abs(x1), abs(x2))
    if norm0 < _FLOAT_MIN:
        raise OriginError(f"start point ({x1}, {x2}) is the origin at float resolution")
    if not isinstance(stop, (StopAtTime, StopAfterEvents, StopOnReturn)):
        raise TypeError(f"unsupported stop condition: {stop!r}")
    t_target = stop.t_max if isinstance(stop, StopAtTime) else math.inf
    rel_tol, abs_tol, event_tol = cfg.rel_tol, cfg.abs_tol, cfg.event_tol

    if fields is None:
        fields = _compiled_fields(sys, lam)
    on_axis_tol = 4.0 * event_tol * norm0
    snapped = tuple(0.0 if abs(v) <= on_axis_tol else v for v in (x1, x2))
    q = region_of(snapped)
    k11, k12 = fields[int(q)](x1, x2)
    if 0.0 in snapped:   # row 0 holds the start placed on the axis
        q, (k11, k12), _, (x1, x2) = _leave(fields, q, x1, x2, (k11, k12), 0.0)
    events_target = (stop.count if isinstance(stop, StopAfterEvents)
                     else int(q) if isinstance(stop, StopOnReturn) else math.inf)

    rows = [(0.0, x1, x2, int(q))]
    events: list[int] = []
    t, h = 0.0, _H0
    # one pass per arc: q's field from (x1, x2) at t, with first stage (k11, k12)
    while len(events) < events_target and t_target - t > _H_FLOOR * max(1.0, abs(t)):
        if len(events) >= _MAX_ARCS:
            raise BudgetError(f"switching-event budget exhausted ({_MAX_ARCS})")
        f, (gidx, s_g, s_o, _), t_arc, h_max = fields[int(q)], REGIONS[q], t, _MAX_STEP
        w = r if q % 2 else 1.0 / r   # the growth rule's norm |y| is hypot(x1, w * x2)
        mg, limit = s_g * (w if gidx else 1.0), _ARC_GROWTH * math.hypot(x1, w * x2)
        while True:   # DOP853 steps, until one reaches q's exit semi-axis or ends at t_target
            clipped = t + h >= t_target
            if clipped:
                h = t_target - t
            if h <= _H_FLOOR * max(1.0, abs(t)):
                raise StiffnessError(f"step size underflow (h = {h}) at t = {t}")

            u1, u2, e1, e2, d1, d2 = _rk_step(f, x1, x2, h, k11, k12)
            # the absolute-tolerance floor follows the trajectory scale, so
            # control stays relative while a contracting spiral decays; without
            # this, event times on strongly damped orbits lose absolute accuracy
            loc = min(1.0, max(abs(x1), abs(x2), abs(u1), abs(u2)))
            err, factor = _error(e1, e2, d1, d2, abs_tol * loc + rel_tol * max(abs(x1), abs(u1)),
                                 abs_tol * loc + rel_tol * max(abs(x2), abs(u2)), x1, x2, t)

            # outside the box (NaN too): escape, unless rejected where x . f(x) <= 0
            if (not (abs(u1) <= _ESCAPE_RADIUS and abs(u2) <= _ESCAPE_RADIUS)
                    and (err <= 1.0 or x1 * k11 + x2 * k12 > 0.0)):
                raise EscapeError(f"trajectory left the bounding box near t = {t}: ({u1}, {u2})")
            if err > 1.0:
                h = h_max = h * factor   # the step after a rejection does not grow
                continue
            t_u, norm = t_target if clipped else t + h, math.hypot(u1, w * u2)
            reached = not ((u1, u2)[gidx] * mg > event_tol * norm)
            if reached:   # the step is not taken: the arc lands on the axis from (x1, x2)
                t_u, (u1, u2) = _land(f, q, w, t, x1, x2, (k11, k12), rel_tol, abs_tol)
                norm = math.hypot(u1, w * u2)
                if not (abs(u1) <= _ESCAPE_RADIUS and abs(u2) <= _ESCAPE_RADIUS):
                    raise EscapeError(f"trajectory left the bounding box near t = {t_u}: "
                                      f"({u1}, {u2})")
            if max(abs(u1), abs(u2)) < _FLOAT_MIN:
                raise OriginError(f"trajectory decayed below float resolution at t = {t_u}: "
                                  f"({u1}, {u2})")
            if norm > limit:
                raise EscapeError(f"growth rule: |y| grew over {_ARC_GROWTH:g} times its value "
                                  f"at the arc's start by t = {t_u}: ({u1}, {u2})")
            if reached:
                break
            # an arc starts on its entry semi-axis or inside its quadrant, so a
            # trial state off the quadrant's side of that axis turns counterclockwise
            if not ((u1, u2)[1 - gidx] * s_o > 0.0):
                raise TangencyError(
                    f"trajectory left quadrant {int(q)} through an unexpected axis "
                    f"in the step from t = {t} to {t_u} (rotation is not clockwise)")

            t, x1, x2 = t_u, u1, u2
            rows.append((t, x1, x2, int(q)))
            if t_target - t <= _H_FLOOR * max(1.0, abs(t)):
                break   # no step fits before t_target: the outer loop ends too
            if t - t_arc > _MAX_ARC_TIME:
                raise BudgetError(f"no switching event within time {_MAX_ARC_TIME} "
                                  f"(arc started at t = {t_arc})")
            k11, k12 = f(x1, x2)
            h, h_max = min(h * factor, h_max), _MAX_STEP
        if reached:
            # _leave checks the landed state; the next arc's field there is its first stage
            ended, (q, (k11, k12), t, (x1, x2)) = int(q), _leave(fields, q, u1, u2, f(u1, u2), t_u)
            events.append(len(rows))
            rows.append((t, x1, x2, ended))

    table = np.array(rows)
    return HybridTrajectory(times=table[:, 0], states=table[:, 1:3],
                            quadrants=table[:, 3].astype(int), events=np.array(events, dtype=int))


def poincare_numeric(sys: SwitchedSystem, x1: float, lam: float, cfg: IntegratorConfig,
                     fields=None, half: bool = False) -> PoincareSample:
    """One revolution of the return map from (x1, 0) on the positive x1-axis,
    or with ``half`` half of one, h(x1): pi = h o h when f_(q+2)(x) = -f_q(-x).

    ``integrate`` sizes every tolerance to the state, so the returned
    ratio keeps full relative accuracy for small amplitudes.  The start
    ends a quadrant-1 arc, so the return is the fourth switching event and
    the half return the second, on the negative x1-axis: ``x1_out`` is then
    -x1 there and ``period`` twice its time.
    """
    if not (x1 > 0.0):
        raise SideError(f"return map takes x1 > 0, got {x1}")
    traj = integrate(sys, (x1, 0.0), lam, StopAfterEvents(2 if half else 4), cfg, fields=fields)
    x1_out, t = float(traj.states[-1, 0]), traj.t_final
    return PoincareSample(-x1_out, 2.0 * t) if half else PoincareSample(x1_out, t)


#: Amplitude of the one return in delta_numeric.
_SLOPE_H0 = 1e-2


def delta_numeric(sys: SwitchedSystem, lam: float, cfg: IntegratorConfig) -> float:
    """Linearized return ratio lim_{h -> 0+} pi(h, lam) / h.

    Perturbations have total degree >= 2 (checked by ``model.validate``),
    so the limit is the return ratio of the linear part: one return of
    ``SwitchedSystem(sys.params)``, whose perturbations default to zero, from
    (_SLOPE_H0, 0) over _SLOPE_H0.
    """
    return poincare_numeric(SwitchedSystem(sys.params), _SLOPE_H0, lam, cfg).x1_out / _SLOPE_H0
