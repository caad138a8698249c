import math

import pytest

from switchbif import NoBracketError
from switchbif.rootfind import brent, expand_bracket


def test_brent_simple_root():
    x, fx = brent(lambda x: x * x - 2.0, 0.0, 2.0)
    assert x == pytest.approx(math.sqrt(2.0), abs=1e-13)
    assert abs(fx) < 1e-12


def test_brent_transcendental():
    x, _ = brent(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert x == pytest.approx(0.7390851332151607, abs=1e-13)


def test_brent_endpoint_root():
    x, fx = brent(lambda x: x - 1.0, 1.0, 2.0)
    assert x == 1.0 and fx == 0.0
    assert brent(lambda x: x - 2.0, 1.0, 2.0) == (2.0, 0.0)


def test_brent_ftol_stops_early():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 - 8.0

    x, fx = brent(f, 0.0, 5.0, ftol=1e-3)
    assert abs(fx) <= 1e-3
    assert x == pytest.approx(2.0, abs=1e-3)


def test_brent_requires_sign_change():
    with pytest.raises(NoBracketError):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brent_steep_function():
    x, _ = brent(lambda x: math.exp(40.0 * x) - 1.0, -1.0, 0.9)
    assert x == pytest.approx(0.0, abs=1e-12)


def test_brent_returns_its_last_iterate_when_the_budget_runs_out():
    # a step on a bracket of width 2e300: the 200 iterations at best halve
    # the bracket each, far short of its tolerance
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.0 else 1.0

    x, fx = brent(step, -1e300, 1e300)
    assert len(calls) == 2 + 200
    assert (x, fx) == (calls[-1], step(calls[-1])) and abs(x) > 1e200


def test_expand_bracket_finds_sign_change():
    f = lambda x: (x - 2.5) * (x + 3.0)
    res = expand_bracket(f, 1.0, lo=0.0, hi=10.0)
    assert res is not None
    a, b = res
    assert f(a) * f(b) <= 0.0
    assert a <= 2.5 <= b


def test_expand_bracket_single_signed():
    assert expand_bracket(lambda x: x * x + 1.0, 1.0, lo=-5.0, hi=5.0) is None


def test_expand_bracket_walks_down_when_f_positive():
    # one-sided walk: from x0 = 1 with f > 0 the root lies below, and
    # the steps 1%, 4%, 16%, 64% of x0 reach 0.15 past the root at 0.5
    xs = []

    def f(x):
        xs.append(x)
        return x - 0.5
    assert expand_bracket(f, 1.0, lo=0.0, hi=10.0) == pytest.approx((0.15, 0.79))
    assert xs == pytest.approx([1.0, 0.99, 0.95, 0.79, 0.15])


def test_expand_bracket_root_at_start():
    assert expand_bracket(lambda x: x - 2.0, 2.0, lo=0.0, hi=10.0) == (2.0, 2.0)


def test_expand_bracket_clips_to_interval():
    # the walk stops at hi and reports the sign change found there
    assert expand_bracket(lambda x: x - 9.99, 1.0, lo=0.0, hi=10.0) == pytest.approx((4.41, 10.0))
    assert expand_bracket(lambda x: x - 20.0, 1.0, lo=0.0, hi=10.0) is None
