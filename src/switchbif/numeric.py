"""Event-detecting adaptive integration of the full switched system.

Each smooth arc lives in one open quadrant and is integrated with
Hairer's DOP853 pair (Hairer, Norsett and Wanner, Solving ODEs I, II.5):
an 8th-order step takes 11 new RHS evaluations, and f at an accepted
state is the next step's first stage.  The tableau is stated once, as
data, and the step is straight-line code generated from it at import.
The step size follows Hairer's error norm, which blends the pair's 5th-
and 3rd-order estimates, with exponent 1/8.  The switching manifolds are
the four coordinate semi-axes, so the event function on an arc is the
coordinate that vanishes on its quadrant's exit semi-axis in
``model.REGIONS``.  A sign change over an accepted step is located by
``rootfind.brent`` on the step's 7th-order dense output (II.6, 4 more RHS
evaluations) to ``event_tol`` times the state scale, and one step of that
length and the field there give the state that ends the arc.

The result is one time-ordered table, a row per accepted step and per
switching event.  An arc, the rows between two event rows, follows the field
of the open quadrant containing its interior; ``integrate`` takes one pass per
arc, whose step loop ends at the step that crosses the exit semi-axis, and
each row records the quadrant of the arc that reached it.  A stop at t_max
ends at the first row that leaves at most the step floor before t_max: t_max
itself, or an event row at or past it.  A return stop counts events: after a
first arc of quadrant q, the arc of Q1 ends on the positive x1-axis at event
int(q).  ``_leave`` ends every arc: the arc's field must cross its exit
semi-axis outward and transversally, a first-order move along it places the
state on the axis, and the clockwise successor's field there must carry on
across it.  A start on or next to an axis ends an arc of the region holding it.

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

from .errors import (BudgetError, EscapeError, OriginError, SideError, StiffnessError,
                     TangencyError)
from .model import REGIONS, Quadrant, SwitchedSystem, compile_forms, freeze, region_of
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
    "delta_numeric",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """The hybrid integrator's one accuracy setting, ``rel_tol``.

    ``integrate`` alone sizes the tolerances to the state, with |x| the
    max-norm of the current state: step error control scales the DOP853
    pair's error estimates by abs_tol * min(1, |x|) + rel_tol * |x_i| in
    coordinate i, and both event-side tolerances (crossing location, on-axis
    start) are multiples of event_tol * |x|, so a linear system
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
#: dense output (II.6): stage i = 14..16 as (j, a_ij), where stage 13 is f at the
#: step's end, and the interpolant's coefficients 4..7, h * sum_j d_j k_j, as (j, d_j)
_A_DENSE = {
    14: ((1, 5.61675022830479523392909219681e-2), (7, 2.53500210216624811088794765333e-1),
         (8, -2.46239037470802489917441475441e-1), (9, -1.24191423263816360469010140626e-1),
         (10, 1.5329179827876569731206322685e-1), (11, 8.20105229563468988491666602057e-3),
         (12, 7.56789766054569976138603589584e-3), (13, -8.298e-3)),
    15: ((1, 3.18346481635021405060768473261e-2), (6, 2.83009096723667755288322961402e-2),
         (7, 5.35419883074385676223797384372e-2), (8, -5.49237485713909884646569340306e-2),
         (11, -1.08347328697249322858509316994e-4), (12, 3.82571090835658412954920192323e-4),
         (13, -3.40465008687404560802977114492e-4), (14, 1.41312443674632500278074618366e-1)),
    16: ((1, -4.28896301583791923408573538692e-1), (6, -4.69762141536116384314449447206),
         (7, 7.68342119606259904184240953878), (8, 4.06898981839711007970213554331),
         (9, 3.56727187455281109270669543021e-1), (13, -1.39902416515901462129418009734e-3),
         (14, 2.9475147891527723389556272149), (15, -9.15095847217987001081870187138)),
}
_D = (
    ((1, -0.84289382761090128651353491142e+1), (6, 0.56671495351937776962531783590),
     (7, -0.30689499459498916912797304727e+1), (8, 0.23846676565120698287728149680e+1),
     (9, 0.21170345824450282767155149946e+1), (10, -0.87139158377797299206789907490),
     (11, 0.22404374302607882758541771650e+1), (12, 0.63157877876946881815570249290),
     (13, -0.88990336451333310820698117400e-1), (14, 0.18148505520854727256656404962e+2),
     (15, -0.91946323924783554000451984436e+1), (16, -0.44360363875948939664310572000e+1)),
    ((1, 0.10427508642579134603413151009e+2), (6, 0.24228349177525818288430175319e+3),
     (7, 0.16520045171727028198505394887e+3), (8, -0.37454675472269020279518312152e+3),
     (9, -0.22113666853125306036270938578e+2), (10, 0.77334326684722638389603898808e+1),
     (11, -0.30674084731089398182061213626e+2), (12, -0.93321305264302278729567221706e+1),
     (13, 0.15697238121770843886131091075e+2), (14, -0.31139403219565177677282850411e+2),
     (15, -0.93529243588444783865713862664e+1), (16, 0.35816841486394083752465898540e+2)),
    ((1, 0.19985053242002433820987653617e+2), (6, -0.38703730874935176555105901742e+3),
     (7, -0.18917813819516756882830838328e+3), (8, 0.52780815920542364900561016686e+3),
     (9, -0.11573902539959630126141871134e+2), (10, 0.68812326946963000169666922661e+1),
     (11, -0.10006050966910838403183860980e+1), (12, 0.77771377980534432092869265740),
     (13, -0.27782057523535084065932004339e+1), (14, -0.60196695231264120758267380846e+2),
     (15, 0.84320405506677161018159903784e+2), (16, 0.11992291136182789328035130030e+2)),
    ((1, -0.25693933462703749003312586129e+2), (6, -0.15418974869023643374053993627e+3),
     (7, -0.23152937917604549567536039109e+3), (8, 0.35763911791061412378285349910e+3),
     (9, 0.93405324183624310003907691704e+2), (10, -0.37458323136451633156875139351e+2),
     (11, 0.10409964950896230045147246184e+3), (12, 0.29840293426660503123344363579e+2),
     (13, -0.43533456590011143754432175058e+2), (14, 0.96324553959188282948394950600e+2),
     (15, -0.39177261675615439165231486172e+2), (16, -0.14972683625798562581422125276e+3)),
)

#: step floor, relative to max(1, |t|): no step is shorter
_H_FLOOR = 1e-14
#: first and largest step, least |normal velocity| / speed at a crossing, longest arc
_H0, _MAX_STEP, _TANGENCY_TOL, _MAX_ARC_TIME = 1e-3, 1.0, 1e-10, 1e4
#: switching events per integration, max-norm bound of every state
_MAX_ARCS, _ESCAPE_RADIUS = 10_000, 1e6
#: smallest normal float: a state below it has lost its relative precision
_FLOAT_MIN = float(np.finfo(float).tiny)
#: step-size controller: h *= SAFETY * err**-EXPO within [MIN_FACTOR, MAX_FACTOR]
_SAFETY, _EXPO, _MIN_FACTOR, _MAX_FACTOR = 0.9, 1 / 8, 0.333, 6.0


def _generate_step():
    """``_rk_stages`` and ``_dense`` as straight-line code generated from the tables.

    _rk_stages(f, x1, x2, h, p1, q1) takes one 8th-order step of size h
    from the first stage (p1, q1) = f(x1, x2); stage i is (p_i, q_i).  It
    returns the solution (u1, u2), the 5th-order error (e1, e2), the
    3rd-order one (d1, d2) and the stages (p1, q1, ..., p12, q12); f(u) is
    left to the caller, as the next step's first stage.  _dense(f, x1, x2,
    u1, u2, h, k) turns the stages k of that step into the interpolant's
    coefficients 2..7, a 6-tuple per coordinate, at 4 RHS evaluations: f(u)
    and stages 14..16.  Only the nonzero coefficients appear, as
    ``repr(float)`` literals, and each sum runs left to right in increasing j.
    """
    def dot(pairs, v, sep=" + "):
        return sep.join(f"{a!r} * {v}{j}" for j, a in pairs)

    def stages(rows):
        for i, row in rows.items():
            incs = [f"h * {dot(row, v)}" if len(row) == 1 else f"h * ({dot(row, v)})"
                    for v in "pq"]
            yield f"    p{i}, q{i} = f(x1 + {incs[0]}, x2 + {incs[1]})"

    k = ", ".join(f"p{j}, q{j}" for j in range(1, 13))
    step = ["def _rk_stages(f, x1, x2, h, p1, q1):", *stages(_A)]
    dense = ["def _dense(f, x1, x2, u1, u2, h, k):", f"    {k} = k", "    p13, q13 = f(u1, u2)",
             *stages(_A_DENSE)]
    for c, v in ((1, "p"), (2, "q")):
        step += [f"    s{c} = {dot(_B, v)}", f"    e{c} = h * ({dot(_E, v)})",
                 f"    d{c} = h * (s{c} - {dot(_BHH, v, ' - ')})"]
        dense += [f"    y{c} = u{c} - x{c}", f"    F{c} = (h * {v}1 - y{c}, 2.0 * y{c} - h * "
                  f"({v}13 + {v}1), {', '.join(f'h * ({dot(row, v)})' for row in _D)})"]
    step.append(f"    return x1 + h * s1, x2 + h * s2, e1, e2, d1, d2, ({k})")
    namespace = {"__builtins__": {}}
    exec("\n".join([*step, *dense, "    return F1, F2"]), namespace)
    return namespace["_rk_stages"], namespace["_dense"]


_rk_stages, _dense = _generate_step()


def _interpolate(a: float, b: float, F, theta: float) -> float:
    """Dense output at theta = tau / h of a coordinate that a step takes from a
    to b, with its coefficients F from ``_dense``: exactly a and b at 0 and 1."""
    s = 1.0 - theta
    return s * a + theta * b + theta * s * (
        F[0] + theta * (F[1] + s * (F[2] + theta * (F[3] + s * (F[4] + theta * F[5])))))


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


def _locate_crossing(f, q: Quadrant, t, x1, x2, h, u1, u2, k, tol_g):
    """(time, state, f there) where the arc of ``q`` crosses its exit semi-axis
    g = 0 in the step from (x1, x2) at t to (u1, u2) at t + h with stages k:
    brent on the step's dense output for the length tau, and one 8th-order step
    of size tau.  ``_leave`` checks the crossing and puts the state on the axis."""
    gidx = REGIONS[q][0]
    a, b, F = (x1, x2)[gidx], (u1, u2)[gidx], _dense(f, x1, x2, u1, u2, h, k)[gidx]
    tau, _ = brent(lambda s: _interpolate(a, b, F, s / h), 0.0, h, xtol=math.ulp(h), ftol=tol_g)
    v = _rk_stages(f, x1, x2, tau, k[0], k[1])[:2]
    return t + tau, v, f(*v)


def integrate(sys: SwitchedSystem, x0, lam: float, stop, cfg: IntegratorConfig,
              fields=None) -> HybridTrajectory:
    """Integrate the switched system from ``x0`` until ``stop`` is met.

    ``stop`` is one of StopAtTime, StopAfterEvents, StopOnReturn.
    Returns one row per accepted step and per refined switching event.
    A StopAtTime ends at the first row that leaves at most the step floor,
    _H_FLOOR * max(1, |t|), before t_max: t_max itself, or an event row at
    or past it.
    Raises DomainError where ``sys.params.at(lam)`` does, TangencyError on
    non-transversal or sliding crossings and on a trial state on or past
    the axis its arc entered by, BudgetError when the event budget
    or per-arc time budget is exhausted, StiffnessError on step underflow,
    EscapeError when the start or a trial state lies outside the bounding
    box, NaN too, unless the step is rejected and x . f(x) <= 0 at the
    accepted state, and OriginError when a state lies below the smallest
    normal float.  A start within 4 * event_tol * |x0| of an axis ends an
    arc of the region holding the point snapped onto that axis: ``_leave``
    checks it and places it on the axis, as at every switching event, and
    row 0 holds the placed state, which is not recorded as an event.
    ``fields`` is ``_compiled_fields(sys, lam)`` when the caller holds it.
    """
    sys.params.at(lam)
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
        while True:   # DOP853 steps, until one crosses q's exit semi-axis or ends at t_target
            clipped = t + h >= t_target
            if clipped:
                h = t_target - t
            if h <= _H_FLOOR * max(1.0, abs(t)):
                raise StiffnessError(f"step size underflow (h = {h}) at t = {t}")

            u1, u2, e1, e2, d1, d2, stages = _rk_stages(f, x1, x2, h, k11, k12)
            # the absolute-tolerance floor follows the trajectory scale, so
            # control stays relative while a contracting spiral decays; without
            # this, event times on strongly damped orbits lose absolute accuracy
            loc = min(1.0, max(abs(x1), abs(x2), abs(u1), abs(u2)))
            sc1 = abs_tol * loc + rel_tol * max(abs(x1), abs(u1))
            sc2 = abs_tol * loc + rel_tol * max(abs(x2), abs(u2))
            try:
                n5 = math.hypot(e1 / sc1, e2 / sc2)
                n3 = math.hypot(d1 / sc1, d2 / sc2)
            except ZeroDivisionError:   # the scale underflowed: no tolerance is left
                raise OriginError(f"state ({x1}, {x2}) at t = {t} is indistinguishable "
                                  "from the origin at float resolution") from None
            # Hairer's n5^2 / sqrt(2 (n5^2 + 0.01 n3^2)), in a form that neither
            # overflows nor divides by zero: inf or nan on overflow, 0 for n5 = 0
            err = n5 * (n5 / math.hypot(n5, 0.1 * n3)) / math.sqrt(2.0) if n5 else 0.0
            if not math.isfinite(err):
                err = math.inf
            factor = (min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -_EXPO)) if err
                      else _MAX_FACTOR)

            # outside the box (NaN too): escape, unless rejected where x . f(x) <= 0
            if (not (abs(u1) <= _ESCAPE_RADIUS and abs(u2) <= _ESCAPE_RADIUS)
                    and (err <= 1.0 or x1 * k11 + x2 * k12 > 0.0)):
                raise EscapeError(f"trajectory left the bounding box near t = {t}: ({u1}, {u2})")
            if err > 1.0:
                h = h_max = h * factor   # the step after a rejection does not grow
                continue
            if max(abs(u1), abs(u2)) < _FLOAT_MIN:
                raise OriginError(f"trajectory decayed below float resolution at t = {t + h}: "
                                  f"({u1}, {u2})")
            crossed = not ((u1, u2)[gidx] * s_g > 0.0)
            if crossed:
                break
            # an arc starts on its entry semi-axis or inside its quadrant, so a
            # trial state off the quadrant's side of that axis turns counterclockwise
            if not ((u1, u2)[1 - gidx] * s_o > 0.0):
                raise TangencyError(
                    f"trajectory left quadrant {int(q)} through an unexpected axis "
                    f"in the step from t = {t} to {t + h} (rotation is not clockwise)")

            t = t_target if clipped else t + h
            x1, x2 = u1, u2
            rows.append((t, x1, x2, int(q)))
            if t_target - t <= _H_FLOOR * max(1.0, abs(t)):
                break   # no step fits before t_target: the outer loop ends too
            if t - t_arc > _MAX_ARC_TIME:
                raise BudgetError(f"no switching event within time {_MAX_ARC_TIME} "
                                  f"(arc started at t = {t_arc})")
            k11, k12 = f(x1, x2)
            h, h_max = min(h * factor, h_max), _MAX_STEP
        if crossed:
            # event-side tolerance relative to the local state scale: the event
            # time error is then ~ event_tol / rotation_rate regardless of decay
            t, v, fv = _locate_crossing(f, q, t, x1, x2, h, u1, u2, stages,
                                        event_tol * max(abs(x1), abs(x2)))
            # the next arc's field at the event state is its first stage
            ended, (q, (k11, k12), t, (x1, x2)) = int(q), _leave(fields, q, *v, fv, t)
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
