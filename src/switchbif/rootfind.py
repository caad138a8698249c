"""Bracketed scalar root finding (Brent's method).

Bisection guarantees convergence on any sign-change bracket; inverse
quadratic / secant steps accelerate it when the iterates behave.  Used
by event location, the critical-parameter search and the periodic-orbit
branch solver, which brackets its predicted amplitude with the one-sided
walk of ``expand_bracket``.
"""

from __future__ import annotations

from .errors import NoBracketError

__all__ = ["brent", "expand_bracket"]

_EPS = 2.220446049250313e-16
#: brent's iteration budget
_MAX_ITER = 200
#: expand_bracket: first step relative to |x0|, growth of the step
_EXPAND_FIRST, _EXPAND_GROWTH = 1e-2, 4.0


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
    """Walk from ``x0`` to the sign change that the sign of f(x0) points to.

    ``f`` is taken to increase through its root: the walk goes up from
    ``x0`` when f(x0) < 0 and down when f(x0) > 0, in steps of 1% of
    |x0| that grow 4x each, clipped to [lo, hi].  Each point costs one
    evaluation of ``f``.  Returns the bracket (a, b), a <= b, of the
    last two points, or None when the walk reaches lo or hi without a
    sign change.
    """
    x = min(max(x0, lo), hi)
    fx = f(x)
    if fx == 0.0:
        return x, x
    up = fx < 0.0
    step = _EXPAND_FIRST * (abs(x) or hi - lo)
    while x < hi if up else x > lo:
        x_new = min(x + step, hi) if up else max(x - step, lo)
        f_new = f(x_new)
        if f_new >= 0.0 if up else f_new <= 0.0:
            return (x, x_new) if up else (x_new, x)
        x = x_new
        step *= _EXPAND_GROWTH
    return None
