"""Data model for planar switched systems with quadrant-based switching.

The state plane is partitioned into four half-open regions glued along
the coordinate semi-axes:

    region 1:  x1 > 0,  x2 >= 0      (contains the positive x1-axis)
    region 2:  x1 <= 0, x2 > 0       (contains the positive x2-axis)
    region 3:  x1 < 0,  x2 <= 0      (contains the negative x1-axis)
    region 4:  x1 >= 0, x2 < 0       (contains the negative x2-axis)

Together with the origin these cover the plane exactly once.  Regions
1 and 3 evolve under the matrix ``A(lam)``, regions 2 and 4 under
``B(lam)``; each region additionally carries a polynomial perturbation
of total degree >= 2, so the origin is always an equilibrium.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OriginError

__all__ = [
    "LambdaPoly",
    "SystemParams",
    "Quadrant",
    "MonomialTerm",
    "PolyField",
    "SwitchedSystem",
    "ValidationReport",
    "region_of",
    "linear_matrix",
    "freeze",
    "is_point_symmetric",
    "eval_field",
    "validate",
]


@dataclass(frozen=True)
class LambdaPoly:
    """Polynomial in the scalar parameter, stored as coefficients c0..cd.

    ``value_at(lam)`` evaluates sum(c_j * lam**j) by Horner's rule,
    elementwise when ``lam`` is a numpy array; ``deriv_at(lam)``
    evaluates the derivative polynomial.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            cs = (0.0,)
        if not all(math.isfinite(c) for c in cs):
            raise ValueError(f"non-finite coefficient in {cs}")
        object.__setattr__(self, "coeffs", cs)

    def value_at(self, lam: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def deriv_at(self, lam: float) -> float:
        acc = 0.0
        for j in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * lam + j * self.coeffs[j]
        return acc

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


@dataclass(frozen=True)
class SystemParams:
    """Damping ``a`` plus the parameter-dependent coefficients b, c.

    ``lambda_domain`` is the open parameter interval, which must
    contain 0.  :func:`validate` samples b, c > 0 over the interval;
    :meth:`at` checks them at each lambda in use.
    """

    a: float
    b: LambdaPoly
    c: LambdaPoly
    lambda_domain: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        lo, hi = (float(self.lambda_domain[0]), float(self.lambda_domain[1]))
        if not (lo < 0.0 < hi):
            raise ValueError(f"lambda_domain {self.lambda_domain} must be an open interval containing 0")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "lambda_domain", (lo, hi))

    def at(self, lam: float) -> tuple[float, float, float]:
        """(a, b(lam), c(lam)).  Raises DomainError outside the parameter interval
        and where b or c is not positive (nan too) or not finite: every closed
        form and field assumes the spirals -a +/- i sqrt(b c)."""
        lo, hi = self.lambda_domain
        if not (lo < lam < hi):
            raise DomainError(f"lambda = {lam} outside parameter interval ({lo}, {hi})")
        b, c = self.b.value_at(lam), self.c.value_at(lam)
        if not (0.0 < b < math.inf and 0.0 < c < math.inf):
            rule = "finite" if b > 0.0 and c > 0.0 else "positive"
            raise DomainError(f"b({lam}) = {b} and c({lam}) = {c} must both be {rule}")
        return self.a, b, c


class Quadrant(enum.IntEnum):
    """Index of one of the four half-open regions."""

    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4


#: One row per region, clockwise from the positive x1-axis: the coordinate that
#: vanishes on the region's exit semi-axis, its sign inside the region, the other
#: coordinate's sign (the exit semi-axis's too) and the clockwise successor.  Each
#: region holds its exit semi-axis, so the rows also define the partition.
REGIONS = {Quadrant.Q1: (1, 1.0, 1.0, Quadrant.Q4),      # exit: positive x1-axis
           Quadrant.Q4: (0, 1.0, -1.0, Quadrant.Q3),     # exit: negative x2-axis
           Quadrant.Q3: (1, -1.0, -1.0, Quadrant.Q2),    # exit: negative x1-axis
           Quadrant.Q2: (0, -1.0, 1.0, Quadrant.Q1)}     # exit: positive x2-axis


@dataclass(frozen=True)
class MonomialTerm:
    """coeff(lam) * x1**pow1 * x2**pow2.

    Powers must be nonnegative integers; total degree >= 2 is a
    standing assumption checked by :func:`validate` (so that its
    violation can be reported rather than raised).
    """

    coeff: LambdaPoly
    pow1: int
    pow2: int

    def __post_init__(self):
        if not (isinstance(self.pow1, int) and isinstance(self.pow2, int)):
            raise TypeError("monomial powers must be integers")
        if self.pow1 < 0 or self.pow2 < 0:
            raise ValueError("monomial powers must be nonnegative")

    @property
    def degree(self) -> int:
        return self.pow1 + self.pow2


@dataclass(frozen=True)
class PolyField:
    """Polynomial vector field: term lists for the x1 and x2 components."""

    comp1: tuple[MonomialTerm, ...] = ()
    comp2: tuple[MonomialTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "comp1", tuple(self.comp1))
        object.__setattr__(self, "comp2", tuple(self.comp2))


@dataclass(frozen=True)
class SwitchedSystem:
    """Linear quadrant matrices plus one polynomial perturbation per region.

    ``perturbations`` is ordered by region index 1..4.
    """

    params: SystemParams
    perturbations: tuple[PolyField, PolyField, PolyField, PolyField] = (PolyField(),) * 4

    def __post_init__(self):
        ps = tuple(self.perturbations)
        if len(ps) != 4:
            raise ValueError("exactly four perturbation fields required (regions 1..4)")
        object.__setattr__(self, "perturbations", ps)


def region_of(x) -> Quadrant:
    """Region index of a nonzero point: the row of ``REGIONS`` whose exit
    semi-axis or open quadrant holds it.  Raises OriginError at (0, 0), where
    the switching law is undefined, and ValueError at a NaN coordinate.
    """
    x = (float(x[0]), float(x[1]))
    for q, (g, s_g, s_o, _) in REGIONS.items():
        if x[1 - g] * s_o > 0.0 and x[g] * s_g >= 0.0:
            return q
    if x == (0.0, 0.0):
        raise OriginError("switching law is undefined at the origin")
    raise ValueError(f"no region holds the point {x}")


def linear_matrix(q: Quadrant, params: SystemParams, lam: float) -> np.ndarray:
    """2x2 matrix governing region ``q`` at parameter ``lam``.

    Regions 1, 3 share [[-a, b], [-c, -a]]; regions 2, 4 share
    [[-a, c], [-b, -a]].
    """
    a, b, c = params.at(lam)
    if Quadrant(q) in (Quadrant.Q1, Quadrant.Q3):
        return np.array([[-a, b], [-c, -a]])
    return np.array([[-a, c], [-b, -a]])


def collect_terms(terms) -> tuple[tuple[float, int, int], ...]:
    """Sum the float coefficients of equal powers in ``(coeff, pow1, pow2)`` terms.

    Zero sums are dropped and first-appearance order is kept.  Since c and
    -c sum to exactly 0.0, structurally-zero forms (e.g. angular inner
    products of radial fields) vanish exactly instead of leaving residue.
    """
    acc: dict[tuple[int, int], float] = {}
    for c, p1, p2 in terms:
        acc[(p1, p2)] = acc.get((p1, p2), 0.0) + c
    return tuple((c, p1, p2) for (p1, p2), c in acc.items() if c != 0.0)


def compile_forms(*forms):
    """One function (x1, x2) -> (sum of each form's ``(coeff, pow1, pow2)`` terms, ...).

    The function is straight-line code compiled once, and runs alike on
    floats and on numpy arrays of one shape: each power is a local built as
    x**p = x**(p-1) * x, a term is coeff * x1**p1 * x2**p2 in that order,
    a form sums its terms left to right, and an empty form is 0.0 * (x1 + x2).
    The source holds only ``repr(float)`` coefficients and int powers, with
    ``inf`` and ``nan`` bound to their floats; float ``*`` overflows to inf.
    """
    lines = ["def f(x1_1, x2_1):"]   # xi_p is the local xi**p
    for i in (1, 2):
        top = max((int(t[i]) for form in forms for t in form), default=0)
        lines += [f"    x{i}_{p} = x{i}_{p - 1} * x{i}_1" for p in range(2, top + 1)]

    def term(c, *powers):
        return " * ".join([repr(float(c))]
                          + [f"x{i}_{int(p)}" for i, p in enumerate(powers, 1) if p])

    sums = (" + ".join(term(*t) for t in form) or "0.0 * (x1_1 + x2_1)" for form in forms)
    lines.append(f"    return ({', '.join(sums)},)")
    namespace = {"__builtins__": {}, "inf": math.inf, "nan": math.nan}
    exec("\n".join(lines), namespace)
    return namespace["f"]


def freeze(sys: SwitchedSystem, lam: float) -> tuple[tuple, ...]:
    """Every region's field at ``lam`` as the term tuples of its two components,
    regions 1..4: component i is ``((a_i1, 1, 0), (a_i2, 0, 1), *terms)``.

    ``a_i1, a_i2`` is row i of :func:`linear_matrix`, and ``terms`` are the
    collected ``(coeff, pow1, pow2)`` perturbation terms of component i.  By
    :func:`validate`'s standing assumption those have degree >= 2, so readers
    take the degree-1 terms as A x and the rest as the perturbation.
    """
    def terms(comp):
        return collect_terms((t.coeff.value_at(lam), t.pow1, t.pow2) for t in comp)

    out = []
    for q, pert in zip(Quadrant, sys.perturbations):
        (a11, a12), (a21, a22) = linear_matrix(q, sys.params, lam).tolist()
        out.append((((a11, 1, 0), (a12, 0, 1), *terms(pert.comp1)),
                    ((a21, 1, 0), (a22, 0, 1), *terms(pert.comp2))))
    return tuple(out)


def is_point_symmetric(sys: SwitchedSystem, lam: float) -> bool:
    """Whether f_(q+2)(x) = -f_q(-x) at ``lam``, decided exactly on :func:`freeze`:
    the terms (c, p1, p2) of each component of region q, mirrored to
    ((-1)**(p1 + p2 + 1) c, p1, p2), are those of region q + 2 as a multiset."""
    frozen = freeze(sys, lam)
    return all(sorted(((-1.0) ** (p1 + p2 + 1) * c, p1, p2) for c, p1, p2 in tn) == sorted(tf)
               for near, far in zip(frozen[:2], frozen[2:]) for tn, tf in zip(near, far))


def eval_field(sys: SwitchedSystem, q: Quadrant, x, lam: float) -> np.ndarray:
    """Velocity of region ``q``'s field at point ``x``: A_q(lam) x + perturbation."""
    f = compile_forms(*freeze(sys, lam)[Quadrant(q) - 1])
    return np.array(f(float(x[0]), float(x[1])))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks; never raised."""

    passed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


_N_LAMBDA_SAMPLES = 1001  # equispaced lambdas on which validate checks 0 < b, c < inf


def validate(sys: SwitchedSystem) -> ValidationReport:
    """Check the standing assumptions and report every violation found.

    Checks: a > 0; b(lam) and c(lam) positive and finite on an equispaced
    sample of the parameter interval including both endpoints and 0; every
    perturbation monomial has total degree >= 2.  Positivity checking by
    sampling can falsify but not prove.
    """
    violations: list[str] = []
    p = sys.params
    if not (p.a > 0.0):
        violations.append(f"a <= 0 (a = {p.a})")

    lo, hi = p.lambda_domain
    samples = np.linspace(lo, hi, _N_LAMBDA_SAMPLES)
    samples = np.append(samples, 0.0)
    for name, poly in (("b", p.b), ("c", p.c)):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = poly.value_at(samples)
        bad = np.nonzero(~((vals > 0.0) & (vals < np.inf)))[0]
        if bad.size:
            w, v = samples[bad[0]], vals[bad[0]]
            rule = "<= 0" if v <= 0.0 else "is not finite"
            violations.append(f"{name}(lambda) {rule} at lambda = {w} ({name} = {v})")

    for q, pert in zip(Quadrant, sys.perturbations):
        for comp_name, terms in (("dx1", pert.comp1), ("dx2", pert.comp2)):
            for t in terms:
                if t.degree < 2 and not t.coeff.is_zero():
                    violations.append(
                        f"o(|x|) violated: region {int(q)} {comp_name} has monomial "
                        f"x1^{t.pow1} x2^{t.pow2} of total degree {t.degree} < 2")

    return ValidationReport(passed=not violations, violations=tuple(violations))
