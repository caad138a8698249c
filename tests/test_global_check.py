"""The blocked global checks against an unblocked reference, and their memory.

``check_global_conditions`` walks its sample sets in blocks of
``bifurcation._BLOCK`` points and builds each power by repeated
multiplication.  The reference below is the unblocked form: every sample
point at once and powers taken with ``**``.  Put in place of
``_confinement`` and ``_rotation``, it gives a whole report to compare
against, notes included.  The legacy points, cos and sin of each
point's own angle, are the oracle for the statuses of the rotated table.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from switchbif import (CheckStatus, LambdaPoly, MonomialTerm, PolyField, SwitchedSystem,
                       bifurcation, check_global_conditions, paper_example_config)
from switchbif.bifurcation import _GOLDEN, _SX, _X, Witness, _inner

#: two and a half blocks: every running reduction crosses a block boundary
N = 5 * bifurcation._BLOCK // 2


def _eval(terms, x1, x2):
    total = np.zeros_like(x1)
    for c, p1, p2 in terms:
        total += c * x1 ** p1 * x2 ** p2
    return total


def _points(radii, offset):
    """Point j is entry j - j0 of the table of in-block angles 2π·frac(i·_GOLDEN),
    turned by the angle 2π·frac(j0·_GOLDEN + offset) of its block's start
    j0 = _BLOCK·floor(j / _BLOCK)."""
    block = bifurcation._BLOCK
    u = np.arange(block, dtype=float) * _GOLDEN
    theta = 2.0 * math.pi * (u % 1.0)
    i = np.arange(radii.size) % block
    tc, ts = np.cos(theta)[i], np.sin(theta)[i]
    a = [2.0 * math.pi * ((j0 * _GOLDEN + offset) % 1.0) for j0 in range(0, radii.size, block)]
    c = np.repeat([math.cos(x) for x in a], block)[:radii.size]
    s = np.repeat([math.sin(x) for x in a], block)[:radii.size]
    return radii * (c * tc - s * ts), radii * (s * tc + c * ts)


def _legacy_points(radii, offset):
    """The point set before the table: cos and sin of every point's own angle."""
    j = np.arange(radii.size, dtype=float)
    theta = 2.0 * math.pi * ((j * _GOLDEN + offset) % 1.0)
    return radii * np.cos(theta), radii * np.sin(theta)


def _legacy_blocks(n, radius, offset):
    """``_legacy_points`` in place of ``bifurcation._golden_blocks``, as one block."""
    j = np.arange(n, dtype=float)
    yield _legacy_points(np.broadcast_to(radius(j), j.shape), offset)


def _confinement(fields, radius_M, n_samples):
    n_circ = max(64, n_samples // 100)
    j = np.arange(n_samples, dtype=float)
    xs = [_points(radius_M * np.sqrt(1.0 + 99.0 * (j + 0.5) / n_samples), 0.0)]
    xs += [_points(np.full(n_circ, rc * radius_M), 0.17) for rc in (1.0, 2.0, 10.0)]
    x1 = np.concatenate([p[0] for p in xs])
    x2 = np.concatenate([p[1] for p in xs])
    witness = None
    rads = []
    for fr, q in fields.items():
        lin, pert = _inner(_X, fr)
        rads.append(_eval(pert, x1, x2))
        vdot = 2.0 * (_eval(lin, x1, x2) + rads[-1])
        k = int(np.argmax(vdot))
        if witness is None and vdot[k] >= 0.0:
            witness = Witness(int(q), (float(x1[k]), float(x2[k])), float(vdot[k]), "")
    if witness is None:
        return CheckStatus.PASS_SAMPLED, None, x1.size
    inner = slice(n_samples, n_samples + n_circ)
    outer = slice(n_samples + 2 * n_circ, None)
    r2 = x1 ** 2 + x2 ** 2
    confines = all(np.all(rad < 0.0) for rad in rads) and all(
        np.all(r2[outer] / np.abs(rad[outer]) < r2[inner] / np.abs(rad[inner])) for rad in rads)
    return (CheckStatus.NOT_APPLICABLE if confines else CheckStatus.FAIL), witness, x1.size


def _rotation(fields, radius_M, n_samples):
    j = np.arange(n_samples, dtype=float)
    x1, x2 = _points(10.0 * radius_M * np.sqrt((j + 0.5) / n_samples), 0.43)
    witness = None
    one_sided = True
    pert_max = 0.0
    for fr, q in fields.items():
        lin, pert = (_eval(terms, x1, x2) for terms in _inner(_SX, fr))
        pert_max = max(pert_max, float(np.max(np.abs(pert))))
        bad = np.flatnonzero(np.abs(lin) <= np.abs(pert))
        if witness is None and bad.size:
            k = bad[0]
            witness = Witness(int(q), (float(x1[k]), float(x2[k])),
                              float(abs(pert[k]) - abs(lin[k])), "")
        one_sided = one_sided and bool(np.all(lin > pert))
    status = CheckStatus.PASS_SAMPLED if witness is None else CheckStatus.FAIL
    return status, witness, one_sided, pert_max


def _field(c1, c2):
    """The field (c1, c2) as a PolyField of (coeff, pow1, pow2) terms."""
    def terms(comp):
        return tuple(MonomialTerm(LambdaPoly((c,)), p1, p2) for c, p1, p2 in comp)
    return PolyField(comp1=terms(c1), comp2=terms(c2))


PAPER = paper_example_config().system
EPS = -1.3e-4
#: weak radial damping EPS |x|^2 x: dV/dt peaks at |x| = 86, in the main
#: samples' second block, and the verdict is NOT_APPLICABLE
WEAK = SwitchedSystem(PAPER.params, (_field(
    ((EPS, 3, 0), (EPS, 1, 2)), ((EPS, 2, 1), (EPS, 0, 3))),) * 4)
#: the angular term 0.07 x2 (-x2, x1) in region 1 alone first beats the
#: linear angular speed at |x| = 83, in the second block
SPIN = SwitchedSystem(PAPER.params, (_field(((-0.07, 0, 2),), ((0.07, 1, 1),)),
                                     *(PolyField(),) * 3))
#: <x, pert> = ALPHA |x|^4 (1 - |x|^2 / 2500) >= 0 up to |x| = 50, in the
#: first block only, and <pert, Sx> = -K |x|^4 < <A x, Sx> past |x| = 31:
#: the last block alone would read NOT_APPLICABLE and a one-sided pass
ALPHA, K = 1e-3, 1e-2
GROW = SwitchedSystem(PAPER.params, (_field(
    ((ALPHA, 3, 0), (ALPHA, 1, 2), (-ALPHA / 2500, 5, 0), (-ALPHA / 1250, 3, 2),
     (-ALPHA / 2500, 1, 4), (K, 2, 1), (K, 0, 3)),
    ((ALPHA, 2, 1), (ALPHA, 0, 3), (-ALPHA / 2500, 4, 1), (-ALPHA / 1250, 2, 3),
     (-ALPHA / 2500, 0, 5), (-K, 3, 0), (-K, 1, 2))),) * 4)

CASES = {
    # name: (system, lambda, radius_M, confinement, rotation, None or the
    # witness that must lie past the first block and the radius that takes)
    "paper-not-applicable": (PAPER, 0.3, 1.5, CheckStatus.NOT_APPLICABLE,
                             CheckStatus.PASS_SAMPLED, None),
    "paper-pass": (PAPER, 1.0, 5.0, CheckStatus.PASS_SAMPLED, CheckStatus.PASS_SAMPLED, None),
    "confinement-witness-past-first-block": (
        WEAK, 0.5, 10.0, CheckStatus.NOT_APPLICABLE, CheckStatus.PASS_SAMPLED,
        ("lyapunov_witness", 10.0 * math.sqrt(1.0 + 99.0 * bifurcation._BLOCK / N))),
    "rotation-witness-past-first-block": (
        SPIN, 0.0, 10.0, CheckStatus.FAIL, CheckStatus.FAIL,
        ("rotation_witness", 100.0 * math.sqrt(bifurcation._BLOCK / N))),
    "signs-change-across-blocks": (GROW, 0.5, 10.0, CheckStatus.FAIL, CheckStatus.FAIL, None),
}


@pytest.mark.parametrize("case", CASES)
def test_blocked_check_equals_unblocked_reference(case, monkeypatch):
    system, lam, radius_M, confinement, rotation, past = CASES[case]
    got = check_global_conditions(system, lam, radius_M, N)
    monkeypatch.setattr(bifurcation, "_confinement", _confinement)
    monkeypatch.setattr(bifurcation, "_rotation", _rotation)
    want = check_global_conditions(system, lam, radius_M, N)

    assert (got.lyapunov_ok, got.rotation_ok) == (want.lyapunov_ok, want.rotation_ok) \
        == (confinement, rotation)
    assert got.notes == want.notes
    assert got.samples_used == want.samples_used == 2 * N + 3 * max(64, N // 100)
    assert got.delta_conditions_ok == want.delta_conditions_ok
    assert got.rotation_pert_inner_max == pytest.approx(want.rotation_pert_inner_max,
                                                        rel=1e-12, abs=0.0)
    for g, w in ((got.lyapunov_witness, want.lyapunov_witness),
                 (got.rotation_witness, want.rotation_witness)):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.field_index == w.field_index
            assert g.x == w.x   # the same float point, bit for bit
            assert g.value == pytest.approx(w.value, rel=1e-12, abs=0.0)
    if past is not None:
        name, radius = past
        assert radius < math.hypot(*getattr(got, name).x) < 10.0 * radius_M


def _assert_reports_agree(got, want, rel):
    """Equal statuses, notes, sample counts and witness regions; witness
    points (by distance), values and rotation_pert_inner_max within ``rel``."""
    assert (got.lyapunov_ok, got.rotation_ok, got.delta_conditions_ok, got.notes,
            got.samples_used) == (want.lyapunov_ok, want.rotation_ok,
                                  want.delta_conditions_ok, want.notes, want.samples_used)
    assert got.rotation_pert_inner_max == pytest.approx(want.rotation_pert_inner_max,
                                                        rel=rel, abs=0.0)
    for g, w in ((got.lyapunov_witness, want.lyapunov_witness),
                 (got.rotation_witness, want.rotation_witness)):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.field_index == w.field_index
            assert math.dist(g.x, w.x) <= rel * math.hypot(*w.x)
            assert g.value == pytest.approx(w.value, rel=rel, abs=0.0)


@pytest.mark.parametrize("case", CASES)
def test_report_does_not_depend_on_the_block_size(case, monkeypatch):
    # the block is the table's period, so the points move by ulps with it
    system, lam, radius_M = CASES[case][:3]
    reports = []
    for block in (256, 1 << 13, 1 << 15):
        monkeypatch.setattr(bifurcation, "_BLOCK", block)
        reports.append(check_global_conditions(system, lam, radius_M, N))
    for got in reports[::2]:
        _assert_reports_agree(got, reports[1], 1e-9)


#: CASES at N samples, and the paper example on a grid of lambda x radius_M
LEGACY = {case: CASES[case][:3] + (N,) for case in CASES} | {
    f"paper-lam{lam:g}-M{radius_M:g}": (PAPER, lam, radius_M, 100_000)
    for lam in (0.1, 0.5, 1.0, 1.8, -0.5) for radius_M in (1.0, 2.0, 5.0, 30.0)}


@pytest.mark.parametrize("case", LEGACY)
def test_statuses_match_the_legacy_points(case, monkeypatch):
    # the rotated table moves each point by about the rounding of j * _GOLDEN
    system, lam, radius_M, n = LEGACY[case]
    got = check_global_conditions(system, lam, radius_M, n)
    monkeypatch.setattr(bifurcation, "_golden_blocks", _legacy_blocks)
    _assert_reports_agree(got, check_global_conditions(system, lam, radius_M, n), 1e-8)


@pytest.mark.parametrize("offset", [0.0, 0.17, 0.43])
def test_fraction_is_exact_at_late_indices(offset):
    # j * _GOLDEN + offset passes 6.5e5 here, where few fraction bits are left;
    # the oracle angle 2π·frac(j·_GOLDEN + offset) is exact in rational arithmetic
    n = (1 << 20) + 3
    x1, x2 = (np.concatenate(c) for c in
              zip(*bifurcation._golden_blocks(n, lambda j: 1.0, offset)))
    g, o = Fraction(_GOLDEN), Fraction(offset)
    d = math.lcm(g.denominator, o.denominator)
    num = (np.arange(n, dtype=object) * (g.numerator * (d // g.denominator))
           + o.numerator * (d // o.denominator)) % d
    theta = 2.0 * math.pi * (num.astype(float) / d)
    # the points are off by at most 6.9e-10 here, with or without the table:
    # the rounding of j * _GOLDEN sets it
    assert np.max(np.hypot(x1 - np.cos(theta), x2 - np.sin(theta))) < 2e-9


def test_blocks_hold_the_unblocked_points():
    # the blocks hold the unblocked table definition, bit for bit
    n = 2 * bifurcation._BLOCK + 7
    blocks = list(bifurcation._golden_blocks(n, lambda j: 3.0 * np.sqrt((j + 0.5) / n), 0.43))
    assert len(blocks) == 3
    x1, x2 = _points(3.0 * np.sqrt((np.arange(n, dtype=float) + 0.5) / n), 0.43)
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), x1)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), x2)


def test_memory_is_bounded_by_the_block():
    # 1e6 samples in blocks: about 19 block-sized float arrays live at the
    # peak, where the unblocked check held about 86 MB
    bound = 32 * bifurcation._BLOCK * 8
    tracemalloc.start()
    try:
        check_global_conditions(PAPER, 0.5, n_samples=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
