"""Critical-parameter detection, branch continuation, and global checks.

The linear return ratio crosses 1 at the critical parameter; the local
return-map expansion

    pi(x1) = delta(lam) * x1 + delta_coeff * x1**k + o(x1**k),  k > 1

then decides on which side of the critical parameter a branch of
periodic orbits bifurcates from the origin (branch for lam > 0 when
delta_coeff * delta'(0) < 0), with the local amplitude scaling
lam = gamma * x1**(k-1), gamma = -delta_coeff / delta'(0).
``leading_coefficient`` computes k and delta_coeff from the perturbation
polynomials by one quadrature in the linear spiral's phase, where every
switching line is a fixed angle; ``fit_local_expansion`` fits both.

Branch points are fixed points of the return map pi, or of the half
return h when pi = h o h, continued over the parameter by
``continue_branch`` (predictor from the leading coefficient or the
previous points, one-sided walk, brent, scan fallback).
The global confinement and rotation conditions that make the
bifurcating orbit exist for every parameter on the branch side are
checked by falsification on deterministic low-discrepancy samples: a
"pass" means "no violation found on the samples", never a proof.  Each
condition has one helper (``_confinement``, ``_rotation``,
``_index_ok``); the first two read the fields that ``model.freeze``
fixes at the parameter and evaluate <x, f> and <f, Sx> as monomial
forms collected in float, so structurally-zero forms come out exactly
zero.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .analytic import DELTA_ONE_TOL, _spiral, delta, delta_prime
from .errors import (DegenerateError, DomainError, InsufficientDataError,
                     IntegrationError, PerturbationTooSmallError)
from . import numeric
from .model import (REGIONS, Quadrant, SwitchedSystem, SystemParams, collect_terms,
                    compile_forms, freeze, is_point_symmetric)
from .numeric import IntegratorConfig, poincare_numeric
from .rootfind import brent, expand_bracket

__all__ = [
    "CriticalParameter",
    "ExpansionFit",
    "BranchDirection",
    "BranchPoint",
    "BranchResult",
    "ScalingFit",
    "CheckStatus",
    "Witness",
    "GlobalCheckReport",
    "find_critical_lambda",
    "fit_local_expansion",
    "leading_coefficient",
    "bifurcation_direction",
    "continue_branch",
    "fit_scaling_law",
    "check_global_conditions",
]

#: smallest |delta'| at a critical parameter; |delta - 1| there is at most
#: analytic.DELTA_ONE_TOL
_DEGENERATE_TOL = 1e-10
#: residuals |r(x1)| below this multiple of the tolerance times x1 are noise
_NOISE_FACTOR = 50.0
#: continue_branch: smallest scan amplitude, ratio of neighbouring scan
#: amplitudes, relative amplitude accuracy of a branch point times k - 1
_X_SCAN_MIN, _SCAN_RATIO, _RESIDUAL_TOL = 1e-6, 2.0, 1e-8


def _noise_floor(cfg: IntegratorConfig) -> float:
    """Relative size |r(x1)| / x1 below which a return-map residual is noise."""
    return _NOISE_FACTOR * cfg.rel_tol


def _loglog_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, rms residual) of the least-squares line log y ~ log x."""
    logx, logy = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = logy - (intercept + slope * logx)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid ** 2)))


def _critical_delta_prime(params: SystemParams, lam: float) -> float:
    """delta'(lam) at a nondegenerate critical parameter ``lam``.

    Raises DegenerateError unless |delta(lam) - 1| <= DELTA_ONE_TOL and
    |delta'(lam)| >= _DEGENERATE_TOL.
    """
    d = delta(params, lam)
    if abs(d - 1.0) > DELTA_ONE_TOL:
        raise DegenerateError(f"|delta({lam}) - 1| = {abs(d - 1.0)} > {DELTA_ONE_TOL}: "
                              f"{lam} is not a critical parameter")
    dp = delta_prime(params, lam)
    if abs(dp) < _DEGENERATE_TOL:
        raise DegenerateError(f"delta'({lam}) = {dp} is below the nondegeneracy "
                              f"threshold {_DEGENERATE_TOL}")
    return dp


@dataclass(frozen=True)
class CriticalParameter:
    """Nondegenerate root of delta(lam) = 1 and delta' there."""

    lambda_star: float
    delta_prime: float


def find_critical_lambda(params: SystemParams, bracket: tuple[float, float]) -> CriticalParameter:
    """Locate the parameter where the stability index crosses 1.

    Requires a sign change of delta - 1 over ``bracket``; raises
    NoBracketError otherwise and DegenerateError when the located root
    is not a nondegenerate critical parameter (``_critical_delta_prime``).
    A root that brent leaves above DELTA_ONE_TOL means the index is too
    steep for float resolution of lambda.
    """
    f = lambda lam: delta(params, lam) - 1.0
    lam_star, _ = brent(f, float(bracket[0]), float(bracket[1]), xtol=1e-15, ftol=0.0)
    return CriticalParameter(
        lambda_star=lam_star,
        delta_prime=_critical_delta_prime(params, lam_star))


@dataclass(frozen=True)
class ExpansionFit:
    """Leading nonlinear term of the return map, fitted from residuals.

    ``delta_lin`` is the linear ratio, ``delta_coeff`` and ``k_exp`` the
    fitted coefficient and exponent of the leading correction.  The
    exponent is reported as fitted -- it is not snapped to an integer.
    """

    delta_lin: float
    delta_coeff: float
    k_exp: float
    fit_residual: float
    x1_grid: tuple[float, ...]


def fit_local_expansion(sys: SwitchedSystem, lam: float, cfg: IntegratorConfig,
                        x_max: float = 0.2, n_points: int = 8,
                        return_map=None) -> ExpansionFit:
    """Fit the leading nonlinear return-map term on a geometric amplitude grid.

    Residuals r(x1) = pi(x1) - delta * x1 are fitted as
    log|r| = log|delta_coeff| + k_exp * log(x1) by least squares; the
    sign of delta_coeff is the residual sign at the largest usable
    amplitude.  Grid points with |r| below the integrator noise floor
    are dropped; fewer than three usable points raises
    PerturbationTooSmallError.

    ``return_map`` may inject a closed-form map x1 -> pi(x1) in place of
    the numerical one (used to test the fit in isolation).
    """
    if return_map is None:
        fields = numeric._compiled_fields(sys, lam)
        return_map = lambda x: poincare_numeric(sys, x, lam, cfg, fields=fields).x1_out
    d_lin = delta(sys.params, lam)
    xs = np.array([x_max * 2.0 ** (-j) for j in range(n_points)])
    rs = np.array([return_map(float(x)) - d_lin * x for x in xs])

    usable = np.abs(rs) > _noise_floor(cfg) * xs
    if int(usable.sum()) < 3:
        raise PerturbationTooSmallError(
            f"only {int(usable.sum())} of {n_points} residuals exceed the noise floor; "
            "the nonlinear term is unresolvable at these tolerances")
    xs_u, rs_u = xs[usable], rs[usable]
    sign = 1.0 if rs_u[np.argmax(xs_u)] > 0.0 else -1.0
    k_exp, intercept, rms = _loglog_fit(xs_u, np.abs(rs_u))
    return ExpansionFit(delta_lin=d_lin,
                        delta_coeff=sign * math.exp(intercept),
                        k_exp=k_exp,
                        fit_residual=rms,
                        x1_grid=tuple(float(x) for x in xs_u))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss   # at module level it slows start-up
    return leggauss(16)


def leading_coefficient(sys: SwitchedSystem, lam: float) -> tuple[float, int]:
    """(C, k) of the return map pi(x1) = delta(lam) x1 + C x1**k + O(x1**(k+1)).

    k is the lowest total degree above 1 among the terms that ``model.freeze``
    keeps at ``lam``, the perturbation terms with a nonzero coefficient there
    (0, with C = 0.0, when there is none); C is first order in those degree-k
    terms P_k.  In region q, x = (y1, s_q y2), y = rho (cos phi, -sin phi) and
    s_q = 1/r in regions 1, 3 and r in regions 2, 4 (w, r of ``analytic._spiral``):
    the linear flow is phi' = w, rho' = -a rho, and rho jumps by s_prev/s_next at
    each x2-axis, J(phi) the product of those jumps.  With n and t the radial and
    angular parts cos phi P1 - sin phi P2/s_q and -sin phi P1 - cos phi P2/s_q
    of P_k on the unit circle, 16 Gauss-Legendre nodes per quarter evaluate
    C = delta(lam) int_0^{2 pi} (J e^{-a phi/w})^(k-1) (n/w + a t/w^2) dphi (Coll,
    Gasull and Prohens, JMAA 253, 2001; Henon, Physica D 5, 1982); a C out of
    the float range is a DomainError.
    """
    frozen = freeze(sys, lam)
    k = min((p1 + p2 for fr in frozen for comp in fr for _, p1, p2 in comp if p1 + p2 > 1),
            default=0)
    if not k:
        return 0.0, 0
    p_k = compile_forms(*(tuple(t for t in comp if t[1] + t[2] == k)
                          for fr in frozen for comp in fr))
    a, w, r = _spiral(sys.params, lam)
    s = dict(zip(Quadrant, (1.0 / r, r, 1.0 / r, r)))   # x = (y1, s_q y2)
    nodes, weights = _gauss_legendre()
    C, jump, rows = 0.0, 1.0, list(REGIONS.items())   # jump: J on the region's phases
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i, (q, (g, _, _, nxt)) in enumerate(rows[1:] + rows[:1]):   # phi from 0
                phi = 0.25 * math.pi * (nodes + 2 * i + 1)
                cos, sin = np.cos(phi), np.sin(phi)
                p1, p2 = p_k(cos, -s[q] * sin)[2 * q - 2:2 * q]
                n, t = cos * p1 - sin * p2 / s[q], -sin * p1 - cos * p2 / s[q]
                C += (jump * np.exp(-a * phi / w)) ** (k - 1) * (n / w + a * t / (w * w)) @ weights
                jump *= s[q] / s[nxt] if g == 0 else 1.0   # rho jumps at an x2-axis
            C *= 0.25 * math.pi * delta(sys.params, lam)
    except FloatingPointError as exc:
        raise DomainError(f"{exc}: the leading coefficient at lambda = {lam} "
                          "leaves the floating-point range") from None
    return float(C), k


class BranchDirection(enum.Enum):
    BranchForPositiveLambda = "BranchForPositiveLambda"
    BranchForNegativeLambda = "BranchForNegativeLambda"


def bifurcation_direction(sys: SwitchedSystem, lam_star: float = 0.0) -> BranchDirection:
    """Side of the critical parameter on which periodic orbits bifurcate.

    Requires the system to sit at its critical parameter (delta = 1 at
    ``lam_star``) with a nonvanishing index derivative; the branch lies
    on the positive side iff C * delta' < 0, with C the
    ``leading_coefficient`` at ``lam_star``.  Raises
    PerturbationTooSmallError when C = 0, which leaves the side undecided.
    """
    dp = _critical_delta_prime(sys.params, lam_star)
    C, k = leading_coefficient(sys, lam_star)
    if C == 0.0:
        raise PerturbationTooSmallError(f"the leading return-map coefficient (degree {k}) "
                                        f"is 0 at {lam_star}: the branch side is undecided")
    if C * dp < 0.0:
        return BranchDirection.BranchForPositiveLambda
    return BranchDirection.BranchForNegativeLambda


@dataclass(frozen=True)
class BranchPoint:
    """Fixed point of the return map: a periodic orbit through (x1_fixed, 0).

    ``source`` says what bracketed it: a prediction from the previous
    branch points ("previous"), from the return map's leading coefficient
    ("expansion"), or the amplitude scan ("scan"); ``returns`` counts the
    return maps integrated for its parameter value, not the scan amplitudes
    whose sign a larger one decided (``_scan``): half returns h when
    the system is point-symmetric at ``lam``, with ``residual`` |h(x) - x|
    and ``period`` twice the half-turn time.
    """

    lam: float
    x1_fixed: float
    period: float
    residual: float
    source: str = "scan"
    returns: int = 0


@dataclass(frozen=True)
class BranchResult:
    """Outcome of a branch continuation run.

    ``points`` holds the orbit born at the bifurcation (the fixed point
    that the walk from the prediction reaches, else the smallest one the
    scan finds); further fixed points found by the scan land in
    ``additional``.  Parameters with no residual sign change in
    the scan range are listed in ``no_orbit``, and so are parameters
    with |delta(lam) - 1| below the noise floor of ``_noise_floor`` (5e-9
    at the default tolerances, also for half returns, whose floor and gain
    are both halved; lam = 1e-8 and 1e-9 on the paper example).
    """

    points: tuple[BranchPoint, ...]
    no_orbit: tuple[float, ...]
    additional: tuple[BranchPoint, ...]


class _Residual:
    """Memoized x1 -> m(x1) - x1 at one parameter value.

    m is the half return h when the system is point-symmetric at ``lam``
    (pi = h o h; h is increasing, so it has the fixed points of pi at
    half the cost and half the error: ``floor`` is halved), else pi.
    ``samples`` maps every amplitude integrated to its sample or to the
    IntegrationError it raised, so an amplitude costs at most one return
    and ``len(samples)`` counts them; the fields are compiled once, for all of
    them.  ``gain`` is |d|, with
    d = delta(lam) - 1 for pi and sqrt(delta(lam)) - 1 for h: the residual
    is about d x near the origin, and its slope at an orbit about
    -(k - 1) d, so ``solve`` stops brent at |r| <= _RESIDUAL_TOL |d| lo, an
    amplitude error of about _RESIDUAL_TOL x / (k - 1).
    """

    def __init__(self, sys: SwitchedSystem, lam: float, cfg: IntegratorConfig, d: float):
        self.sys, self.lam, self.cfg = sys, lam, cfg
        self.half = half = is_point_symmetric(sys, lam)
        self.gain = abs(math.sqrt(1.0 + d) - 1.0 if half else d)
        self.ftol = _RESIDUAL_TOL * self.gain
        self.floor = _noise_floor(cfg) / 2.0 if half else _noise_floor(cfg)
        self.samples: dict[float, object] = {}
        self.fields = numeric._compiled_fields(sys, lam)

    def __call__(self, x1: float) -> float:
        if x1 not in self.samples:
            try:
                self.samples[x1] = poincare_numeric(self.sys, x1, self.lam, self.cfg,
                                                    fields=self.fields, half=self.half)
            except IntegrationError as exc:
                self.samples[x1] = exc
        sample = self.samples[x1]
        if isinstance(sample, Exception):
            raise sample
        return sample.x1_out - x1

    def solve(self, lo: float, hi: float, source: str) -> BranchPoint:
        x_fix, fb = brent(self, lo, hi, xtol=1e-13, ftol=self.ftol * lo)
        return BranchPoint(lam=self.lam, x1_fixed=x_fix, period=self.samples[x_fix].period,
                           residual=abs(fb), source=source)


def _predict(d: float, law) -> float | None:
    """Root x_ref * (d / d_ref)**(1/m) of the local law pi(x) - x = d x + C x**(m+1),
    d = delta(lam) - 1, with C through the point (x_ref, d_ref) of ``law = (d_ref,
    x_ref, m)``; None when it has no positive root, so that the caller scans at
    once, and x_ref when m is not a positive number.
    """
    d_ref, x_ref, m = law
    if not d * d_ref > 0.0:
        return None
    if not (math.isfinite(m) and m > 0.0):
        return x_ref
    try:
        return x_ref * (d / d_ref) ** (1.0 / m)
    except OverflowError:   # far beyond any scan range
        return math.inf


def _scan(residual: _Residual, xs: list[float]) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the residual's sign changes over the ascending grid ``xs``.

    A residual with |r| <= floor * x has no sign; an amplitude where the
    integration breaks down ends the current bracket.  The return map m is
    increasing, so r(x) < -floor * x decides every y < x with
    y - m(x) > 2 * floor * y: m(y) <= m(x) < y, a negative residual beyond
    the noise of both returns.  The first pass integrates from the top down,
    skipping what the last integrated amplitude decides; the second brackets
    from the bottom up.  A run of decided amplitudes ends above at the
    negative one deciding it, so only its lowest can close a bracket: that
    one is integrated where it would.
    """
    decided, m = set(), math.inf
    for x in reversed(xs):
        if x - m > 2.0 * residual.floor * x:
            decided.add(x)
            continue
        try:
            r = residual(x)
        except IntegrationError:
            r = 0.0   # no sign: decides nothing
        m = x + r if r < -residual.floor * x else math.inf
    brackets, prev = [], None
    for x in xs:
        try:
            r = -math.inf if x in decided and not (prev and prev[1] > 0.0) else residual(x)
        except IntegrationError:
            prev = None
            continue
        if abs(r) > residual.floor * x:
            if prev is not None and (prev[1] > 0.0) != (r > 0.0):
                brackets.append((prev[0], x))
            prev = (x, r)
    return brackets


def continue_branch(sys: SwitchedSystem, lambdas, cfg: IntegratorConfig,
                    x_scan_max: float = 10.0) -> BranchResult:
    """Solve the return-map fixed point for each parameter value in turn.

    Predictor: the root of the local law pi(x) - x = (delta - 1) x + C x**(m+1)
    at the closed-form delta(lam) (``_predict``): at a cold parameter value (the
    first one and any after a parameter without orbit) C and m + 1 = k of
    ``leading_coefficient``, else C through the newest branch point and m the
    log-log slope of delta - 1 against x1 over the two newest (m stays after a
    cold point).
    Corrector: ``expand_bracket`` walks from the prediction toward the
    smallest root, upward while the residual pi(x1) - x1 keeps the sign
    of delta - 1 that it has near the origin, and brent polishes the
    bracket.  Every amplitude costs at most one return map per parameter
    value: a half return when the system is point-symmetric at the
    parameter (see ``_Residual``).

    The scan is a geometric grid over (_X_SCAN_MIN, x_scan_max].  A cold
    parameter value whose walk found an orbit scans from the upper end of
    the walk's bracket, whose residual is signed, over the grid points above
    it; sign changes there are additional orbits.  Without a prediction,
    with a residual gain |delta - 1| (|sqrt(delta) - 1| for half returns)
    at or below the scan's noise floor, or when the walk misses or an
    integration breaks down on it, the whole grid is scanned, and the
    smallest sign change is taken as the branch point (larger ones are
    reported as additional orbits).  ``_scan`` skips the grid amplitudes
    whose sign a larger contracting one fixes, with the brackets of
    integrating all.  Parameters without any sign change are recorded in
    ``no_orbit``, which also resets the prediction, and continuation
    proceeds.  Raises ValueError unless x_scan_max is finite and above
    _X_SCAN_MIN.
    """
    if not _X_SCAN_MIN < x_scan_max < math.inf:
        raise ValueError(f"x_scan_max must be finite and > {_X_SCAN_MIN}, got {x_scan_max}")
    grid = [_X_SCAN_MIN]
    while grid[-1] * _SCAN_RATIO < x_scan_max:
        grid.append(grid[-1] * _SCAN_RATIO)
    grid.append(x_scan_max)
    points: list[BranchPoint] = []
    no_orbit: list[float] = []
    additional: list[BranchPoint] = []
    law = None   # (d_ref, x_ref, m) of _predict; None at a cold parameter value

    for lam in lambdas:
        d = delta(sys.params, lam) - 1.0
        residual = _Residual(sys, lam, cfg, d)
        cold = law is None
        if cold:   # the leading coefficient's law, its reference point at x = 1
            C, k = leading_coefficient(sys, lam)
            law = (-C, 1.0, k - 1)
        seed = _predict(d, law)

        found: list[BranchPoint] = []
        # within the noise floor, a walk from the prediction brackets noise:
        # only the scan, whose noisy residuals carry no sign, tells no orbit
        if (seed is not None and residual.gain > residual.floor
                and _X_SCAN_MIN < seed < x_scan_max):
            # oriented to rise through the smallest root, where the
            # residual leaves the sign of d it has near the origin
            sign = -1.0 if d > 0.0 else 1.0
            try:
                bracket = expand_bracket(lambda x: sign * residual(x), seed,
                                         lo=_X_SCAN_MIN, hi=x_scan_max)
                if bracket is not None:
                    found.append(residual.solve(*bracket, "expansion" if cold else "previous"))
            except IntegrationError:
                pass

        if cold or not found:
            xs = [bracket[1], *(x for x in grid if x > bracket[1])] if found else grid
            brackets = _scan(residual, xs)
            if not (found or brackets):
                no_orbit.append(lam)
                law = None
                continue
            found += [residual.solve(lo, hi, "scan") for lo, hi in brackets]

        found = [replace(p, returns=len(residual.samples)) for p in found]
        points.append(found[0])
        additional.extend(found[1:])
        (d_ref, x_ref, m), x = law, found[0].x1_fixed
        if not cold:   # the log-log slope of d against x1 from the old reference
            m = (math.log(d / d_ref) / math.log(x / x_ref)
                 if d * d_ref > 0.0 and x != x_ref else math.nan)
        law = (d, x, m)

    return BranchResult(points=tuple(points), no_orbit=tuple(no_orbit),
                        additional=tuple(additional))


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit lam = gamma_est * x1**exponent_est of a branch."""

    gamma_est: float
    exponent_est: float
    fit_residual: float


def fit_scaling_law(branch) -> ScalingFit:
    """Least-squares log-log fit of parameter against orbit amplitude.

    Needs branch points at four or more distinct amplitudes, all positive and
    on one side of the critical parameter.  For a branch on the negative
    side the fit uses |lam| and gamma_est carries the sign.
    """
    pts = list(branch)
    n = len({p.x1_fixed for p in pts})
    if n < 4:
        raise InsufficientDataError(f"scaling-law fit needs >= 4 distinct amplitudes, got {n}")
    lams = np.array([p.lam for p in pts])
    xs = np.array([p.x1_fixed for p in pts])
    if np.any(xs <= 0.0):
        raise InsufficientDataError("scaling-law fit needs positive amplitudes")
    if np.all(lams > 0.0):
        side = 1.0
    elif np.all(lams < 0.0):
        side = -1.0
    else:
        raise InsufficientDataError("branch points must lie on one side of the critical parameter")
    slope, intercept, rms = _loglog_fit(xs, np.abs(lams))
    return ScalingFit(gamma_est=side * math.exp(intercept),
                      exponent_est=slope,
                      fit_residual=rms)


# -- global existence conditions ------------------------------------------------


class CheckStatus(enum.Enum):
    PASS_SAMPLED = "pass-sampled"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Witness:
    """A concrete sample point violating one of the checked inequalities."""

    field_index: int
    x: tuple[float, float]
    value: float
    description: str


@dataclass(frozen=True)
class GlobalCheckReport:
    """Sampled verification of the confinement / rotation / index conditions
    at the radius M that the caller passed.

    A PASS_SAMPLED status means no violation was found on the sample
    set; it is falsification-only, never a proof.  FAIL always carries
    a concrete witness.
    """

    lyapunov_ok: CheckStatus
    lyapunov_witness: Witness | None
    rotation_ok: CheckStatus
    rotation_witness: Witness | None
    delta_conditions_ok: bool
    samples_used: int
    rotation_pert_inner_max: float
    notes: tuple[str, ...]


_GOLDEN = 0.6180339887498949

#: points per block of the sampled checks, which walk their sample sets
#: block by block: memory is bounded by the block, not by n_samples, and a
#: block's live arrays (64 KB each) stay in a 2 MB L2 cache
_BLOCK = 1 << 13

#: monomial vectors x and Sx = (-x2, x1), S = [[0, -1], [1, 0]], as (sign, pow1, pow2)
_X = ((1.0, 1, 0), (1.0, 0, 1))
_SX = ((-1.0, 0, 1), (1.0, 1, 0))


@functools.cache
def _golden_table(block: int):
    """cos and sin of the in-block angles 2π·frac(i·_GOLDEN), i < block (read-only)."""
    theta = 2.0 * math.pi * (np.arange(block, dtype=float) * _GOLDEN % 1.0)
    table = np.cos(theta), np.sin(theta)
    for t in table:
        t.flags.writeable = False
    return table


def _golden_blocks(n: int, radius, offset: float):
    """Golden-angle points j = 0 .. n-1 at radius(j), as (x1, x2) blocks of
    at most ``_BLOCK`` points in index order.  Point j0 + i of the block
    that starts at j0 is the table's point i turned by the angle
    2π·frac(j0·_GOLDEN + offset): one cos and one sin per block."""
    tc, ts = _golden_table(_BLOCK)
    for j0 in range(0, n, _BLOCK):
        m = min(n - j0, _BLOCK)
        a = 2.0 * math.pi * ((j0 * _GOLDEN + offset) % 1.0)
        c, s = math.cos(a), math.sin(a)
        r = radius(np.arange(j0, j0 + m, dtype=float))
        yield r * (c * tc[:m] - s * ts[:m]), r * (s * tc[:m] + c * ts[:m])


def _circle(n: int, radius: float):
    """Blocks of n points on the circle of ``radius``; all circles share
    their sample angles, so radial decay can be compared along matched rays."""
    return _golden_blocks(n, lambda j: radius, 0.17)


def _inner(g, frozen_field):
    """Collected terms of <g, A x> and of <g, pert> for one region of :func:`freeze`:
    its degree-1 terms make A x, and its terms of degree >= 2 the perturbation.

    Collecting in float makes structurally-zero forms, such as the
    angular form of a radial field, evaluate to exactly 0.0.
    """
    return tuple(collect_terms((s * c, q1 + p1, q2 + p2)
                               for (s, q1, q2), comp in zip(g, frozen_field)
                               for c, p1, p2 in comp if (p1 + p2 == 1) == linear)
                 for linear in (True, False))


def _confinement(fields: dict, radius_M: float, n_samples: int):
    """Candidate V(x) = |x|^2 on radii in (M, 10M] and the circles M, 2M, 10M.

    Returns (status, witness, points used).  The status is FAIL with the
    largest dV/dt >= 0 of the first failing region as witness, or
    NOT_APPLICABLE when every region's <x, pert> is negative and
    |x|^2 / |<x, pert>| falls from the inner to the outer circle.
    """
    n_circ = max(64, n_samples // 100)
    forms = [(q, compile_forms(*_inner(_X, fr))) for fr, q in fields.items()]
    best = [None] * len(forms)   # per region: the witness at its largest dV/dt >= 0 so far
    outward = False   # some <x, pert> >= 0
    shells = _golden_blocks(
        n_samples, lambda j: radius_M * np.sqrt(1.0 + 99.0 * (j + 0.5) / n_samples), 0.0)
    for x1, x2 in itertools.chain(shells, *(_circle(n_circ, rc * radius_M)
                                            for rc in (1.0, 2.0, 10.0))):
        for i, (q, form) in enumerate(forms):
            lin, rad = form(x1, x2)
            vdot = 2.0 * (lin + rad)
            outward = outward or bool(np.any(rad >= 0.0))
            k = int(np.argmax(vdot))
            # strict > across blocks: equal values go to the lowest index
            if vdot[k] >= 0.0 and (best[i] is None or vdot[k] > best[i].value):
                v, y1, y2 = float(vdot[k]), float(x1[k]), float(x2[k])
                best[i] = Witness(int(q), (y1, y2), v, (
                    f"dV/dt = {v:.6g} >= 0 for field {int(q)} at "
                    f"x = ({y1:.6g}, {y2:.6g}), |x| = {math.hypot(y1, y2):.6g}"))
    n_used = n_samples + 3 * n_circ
    witness = next(filter(None, best), None)
    if witness is None:
        return CheckStatus.PASS_SAMPLED, None, n_used

    def grows(form):   # |x|^2 / |<x, pert>| does not fall from M to 10M on some ray
        return any(np.any((o1 ** 2 + o2 ** 2) / np.abs(form(o1, o2)[1])
                          >= (i1 ** 2 + i2 ** 2) / np.abs(form(i1, i2)[1]))
                   for (i1, i2), (o1, o2) in zip(_circle(n_circ, radius_M),
                                                 _circle(n_circ, 10.0 * radius_M)))

    confines = not outward and not any(grows(form) for _, form in forms)
    return (CheckStatus.NOT_APPLICABLE if confines else CheckStatus.FAIL), witness, n_used


def _rotation(fields: dict, radius_M: float, n_samples: int):
    """|<A_i x, Sx>| > |<pert_i, Sx>| at nonzero points of radius <= 10M.

    Returns (status, witness, whether the one-sided comparison
    <A_i x, Sx> > <pert_i, Sx> holds everywhere, max |<pert_i, Sx>|).
    The witness is the first violation of the first failing region.
    """
    forms = [(q, compile_forms(*_inner(_SX, fr))) for fr, q in fields.items()]
    first = [None] * len(forms)   # per region: the witness at its first violation
    one_sided = True
    pert_max = 0.0
    for x1, x2 in _golden_blocks(
            n_samples, lambda j: 10.0 * radius_M * np.sqrt((j + 0.5) / n_samples), 0.43):
        for i, (q, form) in enumerate(forms):
            lin, pert = form(x1, x2)
            pert_max = max(pert_max, float(np.max(np.abs(pert))))
            bad = np.abs(lin) <= np.abs(pert)
            k = int(np.argmax(bad))
            if bad[k] and first[i] is None:
                y1, y2, a, p = float(x1[k]), float(x2[k]), abs(float(lin[k])), abs(float(pert[k]))
                first[i] = Witness(int(q), (y1, y2), p - a, (
                    f"|<A x, Sx>| = {a:.6g} <= |<pert, Sx>| = {p:.6g} for field "
                    f"{int(q)} at x = ({y1:.6g}, {y2:.6g})"))
            one_sided = one_sided and not np.any(lin <= pert)
    witness = next(filter(None, first), None)
    status = CheckStatus.PASS_SAMPLED if witness is None else CheckStatus.FAIL
    return status, witness, one_sided, pert_max


def _index_ok(params: SystemParams) -> bool:
    """delta(0) = 1 and delta'(0) > 0, at the tolerances of find_critical_lambda."""
    try:
        return _critical_delta_prime(params, 0.0) > 0.0
    except DegenerateError:
        return False


def check_global_conditions(sys: SwitchedSystem, lam: float, radius_M: float = 10.0,
                            n_samples: int = 100_000) -> GlobalCheckReport:
    """Falsification check of the three global bifurcation conditions.

    1. Confinement: with the candidate function V(x) = |x|^2, the
       derivative along every quadrant field is negative at sampled
       points with radius in (M, 10M] plus points on the circles of
       radius M, 2M, 10M.  If only this candidate fails while the
       radial perturbation form <x, pert> < 0 (with growing magnitude)
       holds, the status is NOT_APPLICABLE rather than FAIL.
    2. Rotation: the linear angular speed dominates the perturbation's
       angular contribution, |<A_i x, Sx>| > |<pert_i, Sx>|, at sampled
       nonzero points with radius <= 10M.  The one-sided comparison
       without absolute values is also evaluated and noted.
    3. Index: delta(0) = 1 and delta'(0) > 0, at the tolerances of
       find_critical_lambda.

    Raises ValueError unless ``radius_M`` is finite and positive and
    ``n_samples`` is an integer >= 1, and DomainError naming the float
    event and the radius when a sampled value overflows, underflows or
    turns nan, where no sample could be trusted.
    """
    if not (math.isfinite(radius_M) and radius_M > 0.0):
        raise ValueError(f"radius_M must be finite and positive, got {radius_M}")
    if isinstance(n_samples, bool) or not hasattr(n_samples, "__index__") or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    n_samples = operator.index(n_samples)
    # frozen field -> first region that has it: equal regions are sampled once
    fields: dict = {}
    for q, fr in zip(Quadrant, freeze(sys, lam)):
        fields.setdefault(fr, q)
    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            lyap_status, lyap_witness, n_outer = _confinement(fields, radius_M, n_samples)
            rot_status, rot_witness, one_sided, pert_max = _rotation(fields, radius_M, n_samples)
    except FloatingPointError as exc:
        raise DomainError(f"{exc}: the field values sampled at radius_M = {radius_M} "
                          f"(radii up to {10.0 * radius_M}) leave the floating-point "
                          "range") from None
    notes: list[str] = []
    if not one_sided:
        notes.append("one-sided rotation comparison <A x, Sx> > <pert, Sx> fails "
                     "(linear angular term is negative for clockwise rotation); "
                     "status reflects the absolute-value form")
    if lyap_status is CheckStatus.NOT_APPLICABLE:
        notes.append("candidate V(x) = |x|^2 fails but the radial perturbation "
                     "form <x, pert> < 0 with growing magnitude holds on samples")
    return GlobalCheckReport(lyapunov_ok=lyap_status,
                             lyapunov_witness=lyap_witness,
                             rotation_ok=rot_status,
                             rotation_witness=rot_witness,
                             delta_conditions_ok=_index_ok(sys.params),
                             samples_used=n_outer + n_samples,
                             rotation_pert_inner_max=pert_max,
                             notes=tuple(notes))
