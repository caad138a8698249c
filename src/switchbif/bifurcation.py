"""Critical-parameter detection, branch continuation, and global checks.

The linear return ratio crosses 1 at the critical parameter; the local
return-map expansion

    pi(x1) = delta(lam) * x1 + delta_coeff * x1**k + o(x1**k),  k > 1

then decides on which side of the critical parameter a branch of
periodic orbits bifurcates from the origin (branch for lam > 0 when
delta_coeff * delta'(0) < 0), with the local amplitude scaling
lam = gamma * x1**(k-1), gamma = -delta_coeff / delta'(0).

Branch points are located as sign changes of the return-map residual
pi(x1) - x1 and polished with a bracketed root finder.  The global
confinement and rotation conditions that make the bifurcating orbit
exist for every parameter on the branch side are checked by
falsification on deterministic low-discrepancy samples: a "pass" means
"no violation found on the samples", never a proof.  Each condition has
one helper (``_confinement``, ``_rotation``, ``_index_ok``); the first
two read the fields that ``model.freeze`` fixes at the parameter and
evaluate <x, f> and <f, Sx> as monomial forms collected in float, so
structurally-zero forms come out exactly zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import delta, delta_prime
from .errors import (BudgetError, DegenerateError, EscapeError,
                     InsufficientDataError, PerturbationTooSmallError,
                     StiffnessError, TangencyError)
from .model import (Quadrant, SwitchedSystem, SystemParams, collect_terms,
                    eval_terms, freeze)
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
    "bifurcation_direction",
    "continue_branch",
    "fit_scaling_law",
    "check_global_conditions",
]

#: find_critical_lambda: largest |delta - 1| at the root, smallest |delta'| there
_VALUE_TOL, _DEGENERATE_TOL = 1e-12, 1e-10
#: fit_local_expansion: residuals below this multiple of the tolerance are noise
_NOISE_FACTOR = 50.0
#: continue_branch: smallest scan amplitude, ratio of neighbouring scan
#: amplitudes, fixed-point residual scale (brent stops at 1% of it)
_X_SCAN_MIN, _SCAN_RATIO, _RESIDUAL_TOL = 1e-6, 2.0, 1e-8


@dataclass(frozen=True)
class CriticalParameter:
    """Root of delta(lam) = 1 with its nondegeneracy data."""

    lambda_star: float
    delta_prime: float
    nondegenerate: bool


def find_critical_lambda(params: SystemParams, bracket: tuple[float, float]) -> CriticalParameter:
    """Locate the parameter where the stability index crosses 1.

    Requires a sign change of delta - 1 over ``bracket``; raises
    NoBracketError otherwise and DegenerateError when |delta - 1| at the
    located root exceeds _VALUE_TOL or |delta'| there is below
    _DEGENERATE_TOL.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    f = lambda lam: delta(params, lam) - 1.0
    lam_star, residual = brent(f, lo, hi, xtol=1e-15, ftol=0.0)
    if abs(residual) > _VALUE_TOL:
        # brent ran to bracket collapse; a residual above tolerance means
        # the index is too steep for float resolution of lambda
        raise DegenerateError(
            f"|delta - 1| = {abs(residual)} > {_VALUE_TOL} at the located root {lam_star}")
    dp = delta_prime(params, lam_star)
    if abs(dp) < _DEGENERATE_TOL:
        raise DegenerateError(
            f"delta'({lam_star}) = {dp} is below the nondegeneracy threshold {_DEGENERATE_TOL}")
    return CriticalParameter(lambda_star=lam_star, delta_prime=dp, nondegenerate=True)


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
        return_map = lambda x: poincare_numeric(sys, x, lam, cfg).x1_out
    d_lin = delta(sys.params, lam)
    xs = np.array([x_max * 2.0 ** (-j) for j in range(n_points)])
    rs = np.array([return_map(float(x)) - d_lin * x for x in xs])

    floor = _NOISE_FACTOR * max(cfg.rel_tol, cfg.abs_tol, cfg.event_tol)
    usable = np.abs(rs) > floor * xs
    if int(usable.sum()) < 3:
        raise PerturbationTooSmallError(
            f"only {int(usable.sum())} of {n_points} residuals exceed the noise floor; "
            "the nonlinear term is unresolvable at these tolerances")
    xs_u, rs_u = xs[usable], rs[usable]
    sign = 1.0 if rs_u[np.argmax(xs_u)] > 0.0 else -1.0
    logx = np.log(xs_u)
    logr = np.log(np.abs(rs_u))
    k_exp, intercept = np.polyfit(logx, logr, 1)
    resid = logr - (intercept + k_exp * logx)
    return ExpansionFit(delta_lin=d_lin,
                        delta_coeff=sign * math.exp(intercept),
                        k_exp=float(k_exp),
                        fit_residual=float(np.sqrt(np.mean(resid ** 2))),
                        x1_grid=tuple(float(x) for x in xs_u))


class BranchDirection(enum.Enum):
    BranchForPositiveLambda = "BranchForPositiveLambda"
    BranchForNegativeLambda = "BranchForNegativeLambda"


def bifurcation_direction(sys: SwitchedSystem, cfg: IntegratorConfig,
                          lam_star: float = 0.0,
                          expansion: ExpansionFit | None = None) -> BranchDirection:
    """Side of the critical parameter on which periodic orbits bifurcate.

    Requires the system to sit at its critical parameter (delta = 1 at
    ``lam_star``) with a nonvanishing index derivative; the branch lies
    on the positive side iff delta_coeff * delta' < 0.
    """
    d0 = delta(sys.params, lam_star)
    if abs(d0 - 1.0) > 1e-9:
        raise DegenerateError(
            f"delta({lam_star}) = {d0} != 1: system is not at its critical parameter")
    dp = delta_prime(sys.params, lam_star)
    if abs(dp) < 1e-10:
        raise DegenerateError(f"delta'({lam_star}) = {dp} vanishes; direction undefined")
    fit = expansion if expansion is not None else fit_local_expansion(sys, lam_star, cfg)
    product = fit.delta_coeff * dp
    if product < 0.0:
        return BranchDirection.BranchForPositiveLambda
    return BranchDirection.BranchForNegativeLambda


@dataclass(frozen=True)
class BranchPoint:
    """Fixed point of the return map: a periodic orbit through (x1_fixed, 0)."""

    lam: float
    x1_fixed: float
    period: float
    residual: float


@dataclass(frozen=True)
class BranchResult:
    """Outcome of a branch continuation run.

    ``points`` holds the orbit born at the bifurcation (smallest fixed
    point per parameter value); further fixed points found by the scan
    land in ``additional``.  Parameters with no residual sign change in
    the scan range are listed in ``no_orbit``.
    """

    points: tuple[BranchPoint, ...]
    no_orbit: tuple[float, ...]
    additional: tuple[BranchPoint, ...]


def _solve_bracket(residual_fn, cache, lo: float, hi: float, lam: float) -> BranchPoint:
    x_fix, fb = brent(residual_fn, lo, hi, xtol=1e-13, ftol=_RESIDUAL_TOL * 1e-2)
    sample = cache.get(x_fix)
    if sample is None:
        residual_fn(x_fix)
        sample = cache[x_fix]
    return BranchPoint(lam=lam, x1_fixed=x_fix, period=sample.period,
                       residual=abs(fb))


def continue_branch(sys: SwitchedSystem, lambdas, cfg: IntegratorConfig,
                    x_scan_max: float = 10.0, expansion: ExpansionFit | None = None,
                    seed_from_previous: bool = True) -> BranchResult:
    """Solve the return-map fixed point for each parameter value in turn.

    Each solve brackets a sign change of pi(x1) - x1, seeded by the
    previous branch point or by the amplitude scaling law when an
    expansion fit is supplied; otherwise a geometric scan over
    (_X_SCAN_MIN, x_scan_max] is used and the smallest sign change is
    taken as the branch point (larger ones are reported as additional
    orbits).  Scan amplitudes where the trajectory escapes or the
    integration breaks down are skipped (no orbit can pass through
    them); parameters without any sign change between adjacent usable
    amplitudes are recorded in ``no_orbit`` and continuation proceeds.
    """
    points: list[BranchPoint] = []
    no_orbit: list[float] = []
    additional: list[BranchPoint] = []
    prev_x1: float | None = None

    for lam in lambdas:
        cache: dict[float, object] = {}

        def residual_fn(x1, lam=lam, cache=cache):
            sample = poincare_numeric(sys, x1, lam, cfg)
            cache[x1] = sample
            return sample.x1_out - x1

        def residual_or_none(x1):
            try:
                return residual_fn(x1)
            except (EscapeError, StiffnessError, BudgetError, TangencyError):
                return None

        seed = None
        if seed_from_previous and prev_x1 is not None:
            seed = prev_x1
        elif expansion is not None and expansion.k_exp > 1.0:
            ratio = (delta(sys.params, lam) - 1.0) / (-expansion.delta_coeff)
            if ratio > 0.0:
                seed = ratio ** (1.0 / (expansion.k_exp - 1.0))

        solved = None
        if seed is not None and _X_SCAN_MIN < seed < x_scan_max:
            try:
                bracket = expand_bracket(residual_fn, seed, lo=_X_SCAN_MIN, hi=x_scan_max)
            except (EscapeError, StiffnessError, BudgetError, TangencyError):
                bracket = None
            if bracket is not None:
                solved = _solve_bracket(residual_fn, cache, bracket[0], bracket[1], lam)

        if solved is None:
            xs = [_X_SCAN_MIN]
            while xs[-1] * _SCAN_RATIO < x_scan_max:
                xs.append(xs[-1] * _SCAN_RATIO)
            xs.append(x_scan_max)
            vals = [residual_or_none(x) for x in xs]
            brackets = [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)
                        if vals[i] is not None and vals[i + 1] is not None
                        and (vals[i] > 0.0) != (vals[i + 1] > 0.0)]
            if not brackets:
                no_orbit.append(lam)
                prev_x1 = None
                continue
            solved = _solve_bracket(residual_fn, cache, *brackets[0], lam)
            for blo, bhi in brackets[1:]:
                additional.append(_solve_bracket(residual_fn, cache, blo, bhi, lam))

        points.append(solved)
        prev_x1 = solved.x1_fixed

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

    Needs at least four branch points, all on one side of the critical
    parameter, with positive amplitudes.  For a branch on the negative
    side the fit uses |lam| and gamma_est carries the sign.
    """
    pts = list(branch)
    if len(pts) < 4:
        raise InsufficientDataError(f"scaling-law fit needs >= 4 branch points, got {len(pts)}")
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
    logx = np.log(xs)
    logl = np.log(np.abs(lams))
    slope, intercept = np.polyfit(logx, logl, 1)
    resid = logl - (intercept + slope * logx)
    return ScalingFit(gamma_est=side * math.exp(intercept),
                      exponent_est=float(slope),
                      fit_residual=float(np.sqrt(np.mean(resid ** 2))))


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
    """Sampled verification of the confinement / rotation / index conditions.

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
    radius_M: float
    rotation_pert_inner_max: float
    notes: tuple[str, ...]


_GOLDEN = 0.6180339887498949

#: monomial vectors x and Sx = (-x2, x1), S = [[0, -1], [1, 0]], as (sign, pow1, pow2)
_X = ((1.0, 1, 0), (1.0, 0, 1))
_SX = ((-1.0, 0, 1), (1.0, 1, 0))


def _golden_points(radii: np.ndarray, offset: float) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(radii.size, dtype=float)
    theta = 2.0 * math.pi * ((j * _GOLDEN + offset) % 1.0)
    return radii * np.cos(theta), radii * np.sin(theta)


def _inner(g, frozen_field):
    """Collected terms of <g, A x> and of <g, pert> for one region of :func:`freeze`.

    Collecting in float makes structurally-zero forms, such as the
    angular form of a radial field, evaluate to exactly 0.0.
    """
    a11, a12, a21, a22, t1, t2 = frozen_field
    lin = (((a11, 1, 0), (a12, 0, 1)), ((a21, 1, 0), (a22, 0, 1)))
    return tuple(collect_terms((s * c, q1 + p1, q2 + p2)
                               for (s, q1, q2), comp in zip(g, comps) for c, p1, p2 in comp)
                 for comps in (lin, (t1, t2)))


def _confinement(frozen, radius_M: float, n_samples: int):
    """Candidate V(x) = |x|^2 on radii in (M, 10M] and the circles M, 2M, 10M.

    Returns (status, witness, points used).  The status is FAIL with the
    largest dV/dt >= 0 of the first failing region as witness, or
    NOT_APPLICABLE when every region's <x, pert> is negative and
    |x|^2 / |<x, pert>| falls from the inner to the outer circle.
    """
    n_circ = max(64, n_samples // 100)
    j = np.arange(n_samples, dtype=float)
    xs = [_golden_points(radius_M * np.sqrt(1.0 + 99.0 * (j + 0.5) / n_samples), 0.0)]
    # the three circles share sample angles so radial decay can be
    # compared along matched rays
    xs += [_golden_points(np.full(n_circ, rc * radius_M), 0.17) for rc in (1.0, 2.0, 10.0)]
    x1 = np.concatenate([p[0] for p in xs])
    x2 = np.concatenate([p[1] for p in xs])

    witness = None
    rads = []
    for q, fr in zip(Quadrant, frozen):
        lin, pert = _inner(_X, fr)
        rads.append(eval_terms(pert, x1, x2))
        vdot = 2.0 * (eval_terms(lin, x1, x2) + rads[-1])
        bad = np.nonzero(vdot >= 0.0)[0]
        if bad.size and witness is None:
            k = int(bad[np.argmax(vdot[bad])])
            witness = Witness(
                field_index=int(q), x=(float(x1[k]), float(x2[k])), value=float(vdot[k]),
                description=(f"dV/dt = {vdot[k]:.6g} >= 0 for field {int(q)} at "
                             f"x = ({x1[k]:.6g}, {x2[k]:.6g}), |x| = {math.hypot(x1[k], x2[k]):.6g}"))
    if witness is None:
        return CheckStatus.PASS_SAMPLED, None, x1.size
    inner = slice(n_samples, n_samples + n_circ)
    outer = slice(n_samples + 2 * n_circ, None)
    r2 = x1 ** 2 + x2 ** 2
    confines = not any(np.any(rad >= 0.0) for rad in rads) and not any(
        np.any(r2[outer] / np.abs(rad[outer]) >= r2[inner] / np.abs(rad[inner]))
        for rad in rads)
    return (CheckStatus.NOT_APPLICABLE if confines else CheckStatus.FAIL), witness, x1.size


def _rotation(frozen, radius_M: float, n_samples: int):
    """|<A_i x, Sx>| > |<pert_i, Sx>| at nonzero points of radius <= 10M.

    Returns (status, witness, whether the one-sided comparison
    <A_i x, Sx> > <pert_i, Sx> holds everywhere, max |<pert_i, Sx>|).
    """
    j = np.arange(n_samples, dtype=float)
    x1, x2 = _golden_points(10.0 * radius_M * np.sqrt((j + 0.5) / n_samples), 0.43)
    witness = None
    one_sided = True
    pert_max = 0.0
    for q, fr in zip(Quadrant, frozen):
        lin, pert = (eval_terms(terms, x1, x2) for terms in _inner(_SX, fr))
        pert_max = max(pert_max, float(np.max(np.abs(pert))))
        bad = np.nonzero(np.abs(lin) <= np.abs(pert))[0]
        if bad.size and witness is None:
            k = int(bad[0])
            witness = Witness(
                field_index=int(q), x=(float(x1[k]), float(x2[k])),
                value=float(abs(pert[k]) - abs(lin[k])),
                description=(f"|<A x, Sx>| = {abs(lin[k]):.6g} <= "
                             f"|<pert, Sx>| = {abs(pert[k]):.6g} for field "
                             f"{int(q)} at x = ({x1[k]:.6g}, {x2[k]:.6g})"))
        one_sided = one_sided and not np.any(lin <= pert)
    status = CheckStatus.PASS_SAMPLED if witness is None else CheckStatus.FAIL
    return status, witness, one_sided, pert_max


def _index_ok(params: SystemParams) -> bool:
    """delta(0) = 1 and delta'(0) > 0."""
    return abs(delta(params, 0.0) - 1.0) <= 1e-9 and delta_prime(params, 0.0) > 0.0


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
    3. Index: delta(0) = 1 and delta'(0) > 0.

    Raises ValueError unless ``radius_M`` is finite and positive and
    ``n_samples`` is an integer >= 1.
    """
    if not (math.isfinite(radius_M) and radius_M > 0.0):
        raise ValueError(f"radius_M must be finite and positive, got {radius_M}")
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    frozen = freeze(sys, lam)
    lyap_status, lyap_witness, n_outer = _confinement(frozen, radius_M, n_samples)
    rot_status, rot_witness, one_sided, pert_max = _rotation(frozen, radius_M, n_samples)
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
                             radius_M=radius_M,
                             rotation_pert_inner_max=pert_max,
                             notes=tuple(notes))
