"""Closed-form analysis of the purely linear switched system.

Both quadrant matrices have eigenvalues -a +/- i*sqrt(b*c), so each
subsystem is a stable clockwise spiral.  Quarter-turn section maps
between consecutive semi-axes compose into the return map on the
positive x1-axis, which is multiplication by the stability index

    delta = (b/c)**2 * exp(-2*pi*a / sqrt(b*c)).

The origin of the switched system is asymptotically stable iff
delta < 1, unstable iff delta > 1, and surrounded by a ring of
periodic orbits iff delta == 1 -- even though every individual
subsystem is stable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SideError
from .model import REGIONS, Quadrant, SystemParams

__all__ = [
    "SectionMapValue",
    "OriginClass",
    "flow_linear",
    "section_map",
    "delta",
    "delta_prime",
    "classify_origin",
]

#: |delta - 1| at or below this counts as delta = 1: the periodic-family
#: case here and the critical parameter in ``bifurcation``.
DELTA_ONE_TOL = 1e-12


@dataclass(frozen=True)
class SectionMapValue:
    """One quarter-turn section-map application."""

    exit_value: float
    transit_time: float


class OriginClass(enum.Enum):
    PeriodicFamily = "PeriodicFamily"
    AsymptoticallyStable = "AsymptoticallyStable"
    Unstable = "Unstable"


def _spiral(params: SystemParams, lam: float) -> tuple[float, float, float]:
    """(a, w, r): eigenvalues -a +/- i w, w = sqrt(b c), and quarter-turn scaling
    r = sqrt(b/c) at ``lam``, by roots of b and c apart, in range wherever b, c are."""
    a, b, c = params.at(lam)
    return a, math.sqrt(b) * math.sqrt(c), math.sqrt(b) / math.sqrt(c)


def flow_linear(q: Quadrant, x0, t: float, params: SystemParams, lam: float) -> np.ndarray:
    """Exact solution of the linear flow of region ``q`` after time ``t``.

    Uses the rotation-scaling form

        x1(t) = e^{-a t} (x10 cos(w t) + s x20 sin(w t))
        x2(t) = e^{-a t} (-(x10/s) sin(w t) + x20 cos(w t))

    with w and r of ``_spiral``, s = r for regions 1, 3 and s = 1/r for
    regions 2, 4, which is free of the branch ambiguities of an
    amplitude-phase representation.  ``t`` and the
    entries of ``x0`` may be numpy arrays of one shape; the result then
    stacks both coordinates, shape (2, ...).
    """
    a, w, r = _spiral(params, lam)
    s = r if Quadrant(q) in (Quadrant.Q1, Quadrant.Q3) else 1.0 / r
    x10, x20 = x0[0], x0[1]
    damp = np.exp(-a * t)
    cw, sw = np.cos(w * t), np.sin(w * t)
    return np.array([
        damp * (x10 * cw + s * x20 * sw),
        damp * (-(x10 / s) * sw + x20 * cw),
    ])


def section_map(i: int, entry: float, params: SystemParams, lam: float) -> SectionMapValue:
    """Quarter-turn map ``i``, across the i-th region of ``model.REGIONS`` from
    the previous region's exit semi-axis to its own (map 1: +x2- to +x1-axis).

    Every map scales the entry magnitude by r * exp(-a*pi / (2*w)) and
    takes time pi / (2*w), with w and r of ``_spiral``.
    Raises SideError if ``entry`` does not lie on the source open
    semi-axis for map ``i``.
    """
    rows = dict(enumerate(REGIONS.values(), 1))
    if i not in rows:
        raise ValueError(f"section map index must be 1..4, got {i}")
    _, entry_sign, exit_sign, _ = rows[i]   # the entry is the exit's vanishing coordinate
    if entry * entry_sign <= 0.0:
        want = "positive" if entry_sign > 0 else "negative"
        raise SideError(f"section map {i} takes a {want} entry coordinate, got {entry}")
    a, w, r = _spiral(params, lam)
    factor = r * math.exp(-a * math.pi / (2.0 * w))
    return SectionMapValue(exit_value=exit_sign * abs(entry) * factor,
                           transit_time=math.pi / (2.0 * w))


def delta(params: SystemParams, lam: float) -> float:
    """Stability index: the linear full-revolution return ratio.

    Raises DomainError when the index overflows or underflows to 0.
    """
    a, w, r = _spiral(params, lam)
    try:   # r**4 overflows to inf, and exp(+x) to OverflowError
        d = r * r * r * r * math.exp(-2.0 * math.pi * a / w)
    except OverflowError:
        d = math.inf
    if not 0.0 < d < math.inf:
        raise DomainError(f"delta({lam}) = {d} leaves the floating-point range")
    return d


def delta_prime(params: SystemParams, lam: float) -> float:
    """d(delta)/d(lam) = delta [2 (b'/b - c'/c) + pi a (b'/b + c'/c) / w], by logarithmic
    differentiation with b, c of ``params.at`` and w of ``_spiral``: free of w**3 and
    of the cancellation-prone expanded product form.  Raises DomainError where delta
    does and where delta' is not finite."""
    d = delta(params, lam)
    (_, b, c), (a, w, _) = params.at(lam), _spiral(params, lam)
    lb, lc = params.b.deriv_at(lam) / b, params.c.deriv_at(lam) / c
    dp = d * (2.0 * (lb - lc) + math.pi * a * (lb + lc) / w)
    if not math.isfinite(dp):
        raise DomainError(f"delta'({lam}) = {dp} leaves the floating-point range")
    return dp


def classify_origin(params: SystemParams, lam: float) -> OriginClass:
    """Trichotomy of the linear switched system by the stability index."""
    d = delta(params, lam)
    if abs(d - 1.0) <= DELTA_ONE_TOL:
        return OriginClass.PeriodicFamily
    return OriginClass.AsymptoticallyStable if d < 1.0 else OriginClass.Unstable

