"""Bracketed scalar root finding (Brent's method).

Bisection guarantees convergence on any sign-change bracket; inverse
quadratic / secant steps accelerate it when the iterates behave.  Used
by the critical-parameter search and the periodic-orbit branch solver.
"""

from __future__ import annotations

import math

from .errors import NoBracketError

__all__ = ["brent", "expand_bracket"]

_EPS = 2.220446049250313e-16
#: brent's iteration budget
_MAX_ITER = 200
#: expand_bracket: growth of the outward step and the step budget
_EXPAND_FACTOR = math.sqrt(2.0)
_EXPAND_MAX_STEPS = 80


def brent(f, a: float, b: float, xtol: float = 1e-14, ftol: float = 0.0):
    """Root of ``f`` in the sign-change bracket [a, b].

    Returns (x, f(x)).  Terminates when the bracket is narrower than
    ``xtol`` plus machine precision at the iterate, or when
    ``|f| <= ftol``.  Raises NoBracketError if f(a), f(b) do not have
    opposite signs.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if (fa > 0.0) == (fb > 0.0):
        raise NoBracketError(f"no sign change over [{a}, {b}]: f = ({fa}, {fb})")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0 or abs(fb) <= ftol:
            return b, fb
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += tol if m > 0.0 else -tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b, fb


def expand_bracket(f, x0: float, lo: float, hi: float):
    """Search outward from ``x0`` for a sign-change bracket inside [lo, hi].

    Returns (a, b) with f(a) * f(b) < 0, or None if the expansion
    exhausts the interval without finding one.
    """
    x0 = min(max(x0, lo), hi)
    a = b = x0
    fa = fb = f(x0)
    if fa == 0.0:
        return x0, x0
    da = db = max((hi - lo) * 1e-3, abs(x0) * 1e-2)
    for _ in range(_EXPAND_MAX_STEPS):
        moved = False
        if a > lo:
            a = max(a - da, lo)
            da *= _EXPAND_FACTOR
            fa = f(a)
            moved = True
            if (fa > 0.0) != (fb > 0.0):
                return a, b
        if b < hi:
            b = min(b + db, hi)
            db *= _EXPAND_FACTOR
            fb = f(b)
            moved = True
            if (fa > 0.0) != (fb > 0.0):
                return a, b
        if not moved:
            return None
    return None
