"""Seeded operation streams for the three benchmark workloads.

Every operation ("op") is one argv list for ``switchbif.cli.main`` plus,
for ``simulate``, the configuration document it reads.  The same seed
gives the same ops.  Each stream is drawn in small balanced blocks (the
op sizes that drive cost appear in fixed proportions in every block), so
that runs with different seeds do the same amount of work per op and
their timings can be compared; the values inside each block are fresh
draws, so no two ops repeat.

The systems are described here independently of the package, so the
verifiers can evaluate the vector fields without going through the code
under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

#: argv placeholders filled in by the worker with per-op paths
CONFIG = "{config}"
OUT = "{out}"

E_PI = math.e * math.pi
PI_E = math.pi / math.e
#: constants written as expressions in generated configs, so that the
#: config parser evaluates them the way it does for the built-in system
_EXPRESSIONS = {E_PI: "e*pi", PI_E: "pi/e"}


@dataclass(frozen=True)
class System:
    """Switched system: a, b(lam), c(lam) and per-region monomials.

    ``b`` and ``c`` are coefficient tuples in lam; ``terms`` maps region
    1..4 to (comp1, comp2), each a tuple of (coeff_poly, pow1, pow2).
    Regions 1 and 3 use [[-a, b], [-c, -a]], regions 2 and 4 use
    [[-a, c], [-b, -a]].
    """

    a: float
    b: tuple[float, ...]
    c: tuple[float, ...]
    terms: dict = field(default_factory=dict)
    domain: tuple[float, float] = (-1.0, 1.0)


_CUBIC = ((((-1.0,), 3, 0), ((0.0, -1.0), 1, 2)),
          (((0.0, -1.0), 0, 3), ((-1.0,), 2, 1)))
_QUINTIC = ((((0.0, -1.0), 5, 0),),
            (((0.0, -1.0), 4, 1),))

#: the built-in ``paper-example`` system
PAPER = System(a=2.0, b=(E_PI, 1.0, 1.0), c=(PI_E, 0.0, 1.0),
               terms={1: _CUBIC, 2: _QUINTIC, 3: _CUBIC, 4: _QUINTIC},
               domain=(-2.0, 2.0))


def config_document(system: System, rel_tol: float) -> str:
    def num(v):
        return _EXPRESSIONS.get(v, v)

    def monomials(terms):
        return [{"coeff_poly": [num(c) for c in cp], "pow1": p1, "pow2": p2}
                for cp, p1, p2 in terms]

    perts = {f"q{q}": {"comp1": monomials(c1), "comp2": monomials(c2)}
             for q, (c1, c2) in sorted(system.terms.items())}
    doc = {"system": {"a": num(system.a),
                      "b_poly": [num(v) for v in system.b],
                      "c_poly": [num(v) for v in system.c],
                      "lambda_domain": list(system.domain),
                      "perturbations": perts},
           "integrator": {"rel_tol": rel_tol}}
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call: argv (with CONFIG/OUT placeholders), config text, and
    the inputs its verifier needs."""

    argv: tuple[str, ...]
    check: dict
    config: str | None = None


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int, n: int) -> float:
    u = (stratum + rng.random()) / n
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def branch_ops(seed: int):
    """``paper-example branch`` over sorted lambdas, log-uniform in
    [0.01, 1.9] and stratified within each op.

    Per block of five ops the lambda counts are 3, 4, 5, 5 and 6 in
    seeded order, and the 3-lambda op starts with one lambda in
    [-0.5, -0.125], which has no orbit.  The median op is then a
    5-lambda op in every block, so the median does not flip between op
    sizes.  The range of the lambda <= 0 stops short of the two windows
    near -0.11 and -0.055 where the program raises OverflowError (see
    ``DEFECT_PROBE``), so that the number of failed ops does not depend
    on how many ops a run reaches.
    """
    rng = random.Random(f"branch/{seed}")
    while True:
        counts = [3, 4, 5, 5, 6]
        rng.shuffle(counts)
        for n in counts:
            lams = [-rng.uniform(0.125, 0.5)] if n == 3 else []
            n_pos = n - len(lams)
            lams += [_log_uniform(rng, 0.01, 1.9, k, n_pos) for k in range(n_pos)]
            argv = ("paper-example", "branch",
                    "--lambdas=" + ",".join(repr(v) for v in lams), "--out", OUT)
            yield Op(argv, {"lambdas": lams})


REL_TOLS = (1e-6, 1e-8, 1e-10)


def _linear_system(rng: random.Random) -> System:
    """Linear system with return ratio delta in [0.8, 1].

    delta = (b/c)^2 exp(-2 pi a / sqrt(bc)) is solved for a, which is
    positive because b/c > 1.
    """
    c = rng.uniform(0.5, 2.0)
    b = c * rng.uniform(1.2, 3.0)
    d = rng.uniform(0.8, 1.0)
    a = math.sqrt(b * c) * math.log((b / c) ** 2 / d) / (2.0 * math.pi)
    return System(a=a, b=(b,), c=(c,))


def trajectory_ops(seed: int):
    """``simulate`` to t_max in [10, 30].

    Per block of 18 ops, nine run the paper system, one at every pair of
    integrator rel_tol and third of its lambda range, and nine run
    linear systems, three at every rel_tol.  t_max takes every ninth of
    its range once in each half: in seeded order on the linear half, and
    on the paper half rising with lambda and then with tighter rel_tol.
    The costliest ops, which set op_ms_tail (paper system, rel_tol 1e-10,
    lambda in the top third), then have t_max in [27.8, 30] and are
    equally many in every run.
    """
    rng = random.Random(f"trajectory/{seed}")
    cells = [(tol, k) for k in range(len(REL_TOLS)) for tol in REL_TOLS]
    while True:
        linear_strata = rng.sample(range(len(cells)), len(cells))
        block = [(False, tol, k, ts) for ts, (tol, k) in enumerate(cells)]
        block += [(True, tol, k, ts) for (tol, k), ts in zip(cells, linear_strata)]
        rng.shuffle(block)
        for linear, tol, k, ts in block:
            t_max = 10.0 + 20.0 * (ts + rng.random()) / len(cells)
            if linear:
                system = _linear_system(rng)
                lam = 0.0
                # start on the positive x1-axis: switching events then fall
                # at multiples of the closed-form quarter-turn time
                x0 = (rng.uniform(0.5, 2.0), 0.0)
            else:
                system = PAPER
                lam = -0.5 + 2.4 * (k + rng.random()) / len(REL_TOLS)
                r, th = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi)
                x0 = (r * math.cos(th), r * math.sin(th))
            argv = ("simulate", "--config", CONFIG, f"--lambda={lam!r}",
                    f"--x0={x0[0]!r},{x0[1]!r}", "--t-max", repr(t_max), "--out", OUT)
            check = {"system": system, "lam": lam, "x0": x0, "t_max": t_max,
                     "rel_tol": tol, "linear": linear}
            yield Op(argv, check, config_document(system, tol))


def global_ops(seed: int):
    """``paper-example verify-global``; per block of three ops, lambda and
    log R each take every third of their range once, lambda uniform in
    (0, 1.9] and R log-uniform in [1, 30].

    The thirds are paired low with low, so the op cost classes are the
    same in every block: the check's slower fallback (run when |x|^2
    fails as a Lyapunov candidate, i.e. for R below 2.6-7.3 depending on
    lambda) runs on the low pair only.  The middle pair samples 1e6
    points, the other two 1e5, so the median op is the fallback 1e5 op
    and the tail ops are the 1e6 ones.
    """
    rng = random.Random(f"global-check/{seed}")
    while True:
        strata = [0, 1, 2]
        rng.shuffle(strata)
        for k in strata:
            radius = _log_uniform(rng, 1.0, 30.0, k, 3)
            lam = 1.9 * (k + 1.0 - rng.random()) / 3.0   # in (0, 1.9]
            n = 1_000_000 if k == 1 else 100_000
            argv = ("paper-example", "verify-global", f"--lambda={lam!r}",
                    "--radius-m", repr(radius), "--n-samples", str(n), "--out", OUT)
            yield Op(argv, {"lam": lam, "radius": radius, "n": n})


STREAMS = {"branch": branch_ops, "trajectory": trajectory_ops, "global-check": global_ops}

#: the reference kernel (``reference.KERNELS``) that does each workload's
#: kind of work: scalar Python floats, or numpy arrays
REFERENCE = {"branch": "python", "trajectory": "python", "global-check": "array"}

#: a branch op that the program fails with an uncaught OverflowError at
#: the parent commit (lambda in [-0.118, -0.102] or [-0.058, -0.052]);
#: the branch workload runs it untimed after the timed loop and prints
#: the outcome, so the defect shows in every branch run until it is fixed
DEFECT_PROBE = Op(("paper-example", "branch", "--lambdas=-0.11,0.1", "--out", OUT),
                  {"lambdas": [-0.11, 0.1]})

#: fixed calibration ops for the traced run: the 5-point paper branch and
#: single returns at x1 = 0.5 and 1e-4, lam = 0.1
CALIBRATION = {
    "calib-branch": Op(("paper-example", "branch", "--lambdas=0.02,0.05,0.1,0.5,1",
                        "--out", OUT), {"lambdas": [0.02, 0.05, 0.1, 0.5, 1.0]}),
    "calib-x0.5": Op(("paper-example", "poincare", "--lambda=0.1", "--x1=0.5",
                      "--out", OUT), {"lam": 0.1}),
    "calib-x1e-4": Op(("paper-example", "poincare", "--lambda=0.1", "--x1=1e-4",
                       "--out", OUT), {"lam": 0.1}),
}
