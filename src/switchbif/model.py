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
from dataclasses import dataclass, field

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
    "eval_field",
    "validate",
    "clockwise_successor",
]


@dataclass(frozen=True)
class LambdaPoly:
    """Polynomial in the scalar parameter, stored as coefficients c0..cd.

    ``value_at(lam)`` evaluates sum(c_j * lam**j) by Horner's rule;
    ``deriv_at(lam)`` evaluates the derivative polynomial.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            cs = (0.0,)
        if not all(math.isfinite(c) for c in cs):
            raise ValueError(f"non-finite coefficient in {cs}")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value: float) -> "LambdaPoly":
        return cls((float(value),))

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
    contain 0.  Positivity of b and c over the interval is checked by
    :func:`validate`, not here.
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

    def check_lambda(self, lam: float) -> None:
        lo, hi = self.lambda_domain
        if not (lo < lam < hi):
            raise DomainError(f"lambda = {lam} outside parameter interval ({lo}, {hi})")


class Quadrant(enum.IntEnum):
    """Index of one of the four half-open regions."""

    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4


#: Successor under clockwise rotation: an orbit starting on the positive
#: x1-axis visits the open quadrants in the order 4, 3, 2, 1.
_CLOCKWISE_NEXT = {Quadrant.Q1: Quadrant.Q4, Quadrant.Q4: Quadrant.Q3,
                   Quadrant.Q3: Quadrant.Q2, Quadrant.Q2: Quadrant.Q1}


def clockwise_successor(q: Quadrant) -> Quadrant:
    return _CLOCKWISE_NEXT[Quadrant(q)]


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

    @classmethod
    def zero(cls) -> "PolyField":
        return cls((), ())

    def is_zero(self) -> bool:
        return all(t.coeff.is_zero() for t in self.comp1 + self.comp2)


@dataclass(frozen=True)
class SwitchedSystem:
    """Linear quadrant matrices plus one polynomial perturbation per region.

    ``perturbations`` is ordered by region index 1..4.
    """

    params: SystemParams
    perturbations: tuple[PolyField, PolyField, PolyField, PolyField] = field(
        default=(PolyField.zero(),) * 4)

    def __post_init__(self):
        ps = tuple(self.perturbations)
        if len(ps) != 4:
            raise ValueError("exactly four perturbation fields required (regions 1..4)")
        object.__setattr__(self, "perturbations", ps)

    @classmethod
    def linear(cls, params: SystemParams) -> "SwitchedSystem":
        """System with all perturbations identically zero."""
        return cls(params, (PolyField.zero(),) * 4)

    def perturbation(self, q: Quadrant) -> PolyField:
        return self.perturbations[Quadrant(q) - 1]

    def is_linear(self) -> bool:
        return all(p.is_zero() for p in self.perturbations)


def region_of(x) -> Quadrant:
    """Region index of a nonzero point under the half-open partition.

    Raises OriginError at (0, 0), where the switching law is undefined.
    """
    x1, x2 = float(x[0]), float(x[1])
    if x1 == 0.0 and x2 == 0.0:
        raise OriginError("switching law is undefined at the origin")
    if x1 > 0.0 and x2 >= 0.0:
        return Quadrant.Q1
    if x1 <= 0.0 and x2 > 0.0:
        return Quadrant.Q2
    if x1 < 0.0 and x2 <= 0.0:
        return Quadrant.Q3
    return Quadrant.Q4


def linear_matrix(q: Quadrant, params: SystemParams, lam: float) -> np.ndarray:
    """2x2 matrix governing region ``q`` at parameter ``lam``.

    Regions 1, 3 share [[-a, b], [-c, -a]]; regions 2, 4 share
    [[-a, c], [-b, -a]].
    """
    params.check_lambda(lam)
    a = params.a
    b = params.b.value_at(lam)
    c = params.c.value_at(lam)
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


def eval_terms(terms, x1, x2):
    """Evaluate ``(coeff, pow1, pow2)`` terms at (x1, x2); scalars or numpy arrays."""
    total = 0.0 * (x1 + x2)
    for c, p1, p2 in terms:
        total = total + c * x1 ** p1 * x2 ** p2
    return total


def freeze(sys: SwitchedSystem, lam: float) -> tuple[tuple, ...]:
    """Every region's field at ``lam`` as (a11, a12, a21, a22, t1, t2), regions 1..4.

    ``a11 .. a22`` are the entries of :func:`linear_matrix`; ``t1`` and
    ``t2`` are the collected perturbation terms of the x1 and x2 components.
    """
    def terms(comp):
        return collect_terms((t.coeff.value_at(lam), t.pow1, t.pow2) for t in comp)

    out = []
    for q in Quadrant:
        m = linear_matrix(q, sys.params, lam)
        pert = sys.perturbation(q)
        out.append((float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]),
                    terms(pert.comp1), terms(pert.comp2)))
    return tuple(out)


def eval_field(sys: SwitchedSystem, q: Quadrant, x, lam: float) -> np.ndarray:
    """Velocity of region ``q``'s field at point ``x``: A_q(lam) x + perturbation."""
    a11, a12, a21, a22, t1, t2 = freeze(sys, lam)[Quadrant(q) - 1]
    x1, x2 = float(x[0]), float(x[1])
    d1 = a11 * x1 + a12 * x2 + eval_terms(t1, x1, x2)
    d2 = a21 * x1 + a22 * x2 + eval_terms(t2, x1, x2)
    return np.array([d1, d2])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks; never raised."""

    passed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.passed


_N_LAMBDA_SAMPLES = 1001  # equispaced lambdas on which validate checks b, c > 0


def validate(sys: SwitchedSystem) -> ValidationReport:
    """Check the standing assumptions and report every violation found.

    Checks: a > 0; b(lam) > 0 and c(lam) > 0 on an equispaced sample of
    the parameter interval including both endpoints and 0; every
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
        vals = np.array([poly.value_at(s) for s in samples])
        bad = np.nonzero(vals <= 0.0)[0]
        if bad.size:
            w = samples[bad[0]]
            violations.append(f"{name}(lambda) <= 0 at lambda = {w} ({name} = {vals[bad[0]]})")

    for q in Quadrant:
        pert = sys.perturbation(q)
        for comp_name, terms in (("dx1", pert.comp1), ("dx2", pert.comp2)):
            for t in terms:
                if t.degree < 2 and not t.coeff.is_zero():
                    violations.append(
                        f"o(|x|) violated: region {int(q)} {comp_name} has monomial "
                        f"x1^{t.pow1} x2^{t.pow2} of total degree {t.degree} < 2")

    return ValidationReport(passed=not violations, violations=tuple(violations))
