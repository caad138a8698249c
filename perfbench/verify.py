"""Output verifiers, run after the timed region.

Each verifier reads the files one op wrote and returns a list of
problems (empty when the output is correct).  Numbers are checked
against references that do not go through the package's integrator:

* an independent return map and trajectory oracle, built on scipy's
  DOP853 (``scipy.integrate.ode``) with its own axis-crossing location,
  and the vector fields evaluated from the workload's own system description;
* the closed form for linear systems: switching events at multiples of
  pi / (2 sqrt(bc)) and the state from ``switchbif.analytic.flow_linear``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import ode

from switchbif.analytic import flow_linear
from switchbif.model import LambdaPoly, Quadrant, SystemParams

#: region -> (coordinate that vanishes at its clockwise exit, its sign of change)
_EXIT = {1: (1, -1.0), 4: (0, -1.0), 3: (1, 1.0), 2: (0, 1.0)}
_NEXT = {1: 4, 4: 3, 3: 2, 2: 1}

#: oracle rtol: 100 times tighter than the program's, and at most 1e-12
ORACLE_RTOL_SHARE = 1e-2
ORACLE_RTOL_MIN = 1e-12
#: fixed points: |pi_oracle(x*) - x*| allowed, relative to x*
FIXED_POINT_RTOL = 1e-7
#: reported fixed-point residual bound
RESIDUAL_MAX = 1e-8
#: trajectory event times and final state: allowed error per unit of
#: integrator rel_tol and of simulated time
TRAJ_ERR_PER_TOL = 20.0
ROTATION_PERT_MAX = 1e-14


def _poly(coeffs, lam: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc


def _field(m, comp1, comp2):
    (a11, a12), (a21, a22) = m

    def f(t, y):
        x1, x2 = y.tolist()   # Python floats: numpy scalar arithmetic is slower
        d1 = a11 * x1 + a12 * x2
        for k, p1, p2 in comp1:
            d1 += k * x1 ** p1 * x2 ** p2
        d2 = a21 * x1 + a22 * x2
        for k, p1, p2 in comp2:
            d2 += k * x1 ** p1 * x2 ** p2
        return (d1, d2)
    return f


class Oracle:
    """Hybrid flow of a workload system at one lam, by scipy's DOP853.

    Each arc is integrated with the Fortran DOP853 code until the
    coordinate that vanishes at its exit axis changes sign over an
    accepted step; the crossing time is then refined by Newton's method
    on that coordinate, re-integrating from the last step before it.
    """

    def __init__(self, system, lam: float, rel_tol: float = 1e-10):
        self.rtol = max(ORACLE_RTOL_MIN, ORACLE_RTOL_SHARE * rel_tol)
        a, b, c = system.a, _poly(system.b, lam), _poly(system.c, lam)
        self.fields = {}
        for q in (1, 2, 3, 4):
            m = ((-a, b), (-c, -a)) if q in (1, 3) else ((-a, c), (-b, -a))
            c1, c2 = system.terms.get(q, ((), ()))
            self.fields[q] = _field(m, [(_poly(cp, lam), p1, p2) for cp, p1, p2 in c1],
                                    [(_poly(cp, lam), p1, p2) for cp, p1, p2 in c2])

    def run(self, x, t_end: float, max_events: int | None = None):
        """Integrate from an interior point or from the positive x1-axis.

        Returns (events, t, x): event times and states, then the end
        time and state (at t_end, or at the last event if max_events
        was reached).
        """
        x = np.array(x, dtype=float)
        if x[1] == 0.0 and x[0] > 0.0:
            q = 4
        elif x[0] > 0.0:
            q = 1 if x[1] > 0.0 else 4
        else:
            q = 2 if x[1] > 0.0 else 3
        atol = 1e-3 * self.rtol * float(np.max(np.abs(x)))
        t, events = 0.0, []
        while True:
            idx = _EXIT[q][0]
            crossed, t, x = self._arc(self.fields[q], idx, t, x, t_end, atol)
            if not crossed:
                return events, t, x
            events.append((t, x.copy()))
            q = _NEXT[q]
            if max_events is not None and len(events) >= max_events:
                return events, t, x

    def _arc(self, f, idx: int, t0: float, x0, t_end: float, atol: float):
        positive = x0[idx] > 0.0
        last = [t0, x0]
        state = {"watch": True, "crossed": False}

        def solout(t, y):
            if state["watch"] and (y[idx] == 0.0 or (y[idx] > 0.0) != positive):
                state["crossed"] = True
                return -1
            last[0], last[1] = t, np.array(y)
            return 0

        r = ode(f).set_integrator("dop853", rtol=self.rtol, atol=atol, nsteps=10**6)
        r.set_solout(solout)
        r.set_initial_value(x0, t0)
        r.integrate(t_end)
        if not state["crossed"]:
            return False, t_end, np.array(r.y)
        state["watch"] = False
        t_a, y_a = last
        t_b, g_a, g_b = r.t, y_a[idx], r.y[idx]
        tau = t_a + (t_b - t_a) * g_a / (g_a - g_b)
        for _ in range(10):
            r.set_initial_value(y_a, t_a)
            y = np.array(r.integrate(tau))
            step = y[idx] / f(tau, y)[idx]
            tau = min(max(tau - step, t_a), t_b)
            if abs(step) <= 4e-16 * max(1.0, abs(tau)):
                break
        y[idx] = 0.0
        return True, tau, y

    def return_map(self, x1: float) -> tuple[float, float]:
        """(pi(x1), period) for one revolution from (x1, 0)."""
        events, t, x = self.run((x1, 0.0), t_end=1e3, max_events=4)
        if len(events) != 4:
            raise RuntimeError(f"oracle return from x1 = {x1} made {len(events)} events")
        return float(x[0]), t


def _csv_rows(path: Path) -> list[list[float]]:
    with path.open(newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [[float(v) for v in row] for row in list(csv.reader(lines))[1:]]


def verify_branch(out: Path, check: dict, system) -> list[str]:
    lams = check["lambdas"]
    rows = _csv_rows(out / "branch.csv")
    fit = json.loads((out / "branch_fit.json").read_text())
    problems = []
    want_pos = [v for v in lams if v > 0.0]
    want_neg = [v for v in lams if v <= 0.0]
    if [r[0] for r in rows] != want_pos:
        problems.append(f"branch points at lambdas {[r[0] for r in rows]}, want {want_pos}")
    if list(fit["no_orbit_lambdas"]) != want_neg:
        problems.append(f"no_orbit_lambdas {fit['no_orbit_lambdas']}, want {want_neg}")
    amps = [r[1] for r in rows]
    if any(b <= a for a, b in zip(amps, amps[1:])):
        problems.append(f"amplitudes do not increase with lambda: {amps}")
    orbits = [(r[0], r[1], r[2], r[3]) for r in rows]
    orbits += [(o["lambda"], o["x1_fixed"], o["period"], o["residual"])
               for o in fit["additional_orbits"]]
    for lam, x1, period, residual in orbits:
        if not residual <= RESIDUAL_MAX:
            problems.append(f"lambda {lam}: residual {residual} > {RESIDUAL_MAX}")
        out_x1, out_t = Oracle(system, lam).return_map(x1)
        if not abs(out_x1 - x1) <= FIXED_POINT_RTOL * x1:
            problems.append(f"lambda {lam}: x* = {x1} is not a fixed point of the "
                            f"oracle return map (pi(x*) = {out_x1})")
        if not abs(out_t - period) <= FIXED_POINT_RTOL * period:
            problems.append(f"lambda {lam}: period {period}, oracle {out_t}")
    return problems


def verify_return(out: Path, check: dict, system) -> list[str]:
    problems = []
    for x1, x1_out, period in _csv_rows(out / "poincare.csv"):
        ref, ref_t = Oracle(system, check["lam"]).return_map(x1)
        if not abs(x1_out - ref) <= FIXED_POINT_RTOL * x1:
            problems.append(f"pi({x1}) = {x1_out}, oracle {ref}")
        if not abs(period - ref_t) <= FIXED_POINT_RTOL * ref_t:
            problems.append(f"period from {x1} = {period}, oracle {ref_t}")
    return problems


def _trajectory_reference(check: dict):
    """Event times and states, then the final state, from a reference."""
    system, lam, x0, t_max = check["system"], check["lam"], check["x0"], check["t_max"]
    if not check["linear"]:
        return Oracle(system, lam, check["rel_tol"]).run(x0, t_end=t_max)
    params = SystemParams(a=system.a, b=LambdaPoly(system.b), c=LambdaPoly(system.c))
    b, c = system.b[0], system.c[0]
    quarter = math.pi / (2.0 * math.sqrt(b * c))
    events, q, x, t = [], 4, np.array(x0, dtype=float), 0.0
    while t + quarter <= t_max:
        t += quarter
        x = flow_linear(Quadrant(q), x, quarter, params, lam)
        x[_EXIT[q][0]] = 0.0
        events.append((t, x.copy()))
        q = _NEXT[q]
    return events, t_max, flow_linear(Quadrant(q), x, t_max - t, params, lam)


def verify_trajectory(out: Path, check: dict) -> list[str]:
    rows = _csv_rows(out / "trajectory.csv")
    t_max = check["t_max"]
    tol = TRAJ_ERR_PER_TOL * check["rel_tol"] * (1.0 + t_max)
    ref_events, ref_t, ref_x = _trajectory_reference(check)
    events = [r for r in rows if r[4] == 1.0]
    problems = []
    # an event within tol of t_max may fall on either side of it
    longer = max([t for t, _ in ref_events], [r[0] for r in events], key=len)
    if len(ref_events) != len(events) and not (
            abs(len(ref_events) - len(events)) == 1 and t_max - longer[-1] <= tol):
        problems.append(f"{len(events)} switching events, reference has {len(ref_events)}")
    for k, (row, (t_ref, x_ref)) in enumerate(zip(events, ref_events)):
        scale = max(1.0, float(np.max(np.abs(x_ref))))
        if not abs(row[0] - t_ref) <= tol:
            problems.append(f"event {k}: t = {row[0]}, reference {t_ref}")
            break
        if not max(abs(row[1] - x_ref[0]), abs(row[2] - x_ref[1])) <= tol * scale:
            problems.append(f"event {k}: x = ({row[1]}, {row[2]}), reference {tuple(x_ref)}")
            break
    last = rows[-1]
    if last[0] != t_max or ref_t != t_max:
        problems.append(f"trajectory ends at t = {last[0]}, want t_max = {t_max}")
    scale = max(1.0, float(np.max(np.abs(ref_x))))
    if not max(abs(last[1] - ref_x[0]), abs(last[2] - ref_x[1])) <= tol * scale:
        problems.append(f"final state ({last[1]}, {last[2]}), reference {tuple(ref_x)}")
    return problems


def samples_used(n: int) -> int:
    """Annulus, three circles and disk: n + 3 max(64, n // 100) + n."""
    return 2 * n + 3 * max(64, n // 100)


def verify_global(out: Path, check: dict) -> list[str]:
    doc = json.loads((out / "global_check.json").read_text())
    problems = []
    if doc["rotation_ok"] != "pass-sampled":
        problems.append(f"rotation_ok = {doc['rotation_ok']}")
    if not doc["rotation_pert_inner_max"] <= ROTATION_PERT_MAX:
        problems.append(f"rotation_pert_inner_max = {doc['rotation_pert_inner_max']}")
    if doc["lyapunov_ok"] not in ("pass-sampled", "not-applicable"):
        problems.append(f"lyapunov_ok = {doc['lyapunov_ok']}")
    if doc["delta_conditions_ok"] is not True:
        problems.append("delta_conditions_ok is not true")
    if doc["samples_used"] != samples_used(check["n"]):
        problems.append(f"samples_used = {doc['samples_used']}, "
                        f"want {samples_used(check['n'])}")
    if doc["lambda"] != check["lam"] or doc["radius_M"] != check["radius"]:
        problems.append(f"report echoes lambda {doc['lambda']}, radius {doc['radius_M']}")
    return problems
