import dataclasses
import json

import numpy as np
import pytest

from switchbif import (IntegratorConfig, LambdaPoly, PolyField, Quadrant,
                       SwitchedSystem, SystemParams, numeric, paper_example_config)


def make_params(a, b, c, domain=(-1.0, 1.0)):
    """Constant-coefficient system parameters."""
    return SystemParams(a=a, b=LambdaPoly((b,)), c=LambdaPoly((c,)),
                        lambda_domain=domain)


def make_linear_system(a, b, c, domain=(-1.0, 1.0)):
    return SwitchedSystem(make_params(a, b, c, domain))


def _poly_coeffs(poly):
    return [float(cv) for cv in poly.coeffs]


def emit_canonical(config):
    """Serialize a RunConfig as a canonical JSON document.

    All expressions are resolved to plain floats; re-parsing the result
    reproduces an equal RunConfig, and emission is byte-deterministic.
    """
    perts = {}
    for qi in range(1, 5):
        fieldq = config.system.perturbations[qi - 1]
        if fieldq == PolyField():
            continue
        perts[f"q{qi}"] = {
            comp_name: [{"coeff_poly": _poly_coeffs(t.coeff),
                         "pow1": t.pow1, "pow2": t.pow2} for t in terms]
            for comp_name, terms in (("comp1", fieldq.comp1), ("comp2", fieldq.comp2))
        }
    doc = {
        "system": {
            "a": config.system.params.a,
            "b_poly": _poly_coeffs(config.system.params.b),
            "c_poly": _poly_coeffs(config.system.params.c),
            "lambda_domain": list(config.system.params.lambda_domain),
            "perturbations": perts,
        },
        "integrator": {f.name: getattr(config.integrator, f.name)
                       for f in dataclasses.fields(IntegratorConfig)},
        "options": config.options,
    }
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def arcs(traj):
    """(quadrant, times, states) of each arc of a trajectory with events:
    the rows from one event row (or row 0) to the next, both included."""
    ends = [0, *traj.events.tolist()]
    if ends[-1] != len(traj.times) - 1:
        ends.append(len(traj.times) - 1)
    return [(Quadrant(int(traj.quadrants[j])), traj.times[i:j + 1], traj.states[i:j + 1])
            for i, j in zip(ends, ends[1:])]


def rk4_integrate(f, x0, t_final, n_steps=4000):
    """Fixed-step classical RK4; independent oracle for the closed-form flow."""
    x = np.asarray(x0, dtype=float)
    dt = t_final / n_steps
    for _ in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.fixture(scope="session")
def paper_config():
    return paper_example_config()


@pytest.fixture(scope="session")
def paper_system(paper_config):
    return paper_config.system


@pytest.fixture(scope="session")
def paper_params(paper_system):
    return paper_system.params


@pytest.fixture(scope="session")
def cfg():
    return IntegratorConfig()


@pytest.fixture
def rhs_evals(monkeypatch):
    """RHS evaluations, counted around the compiled fields."""
    count = [0]
    compiled = numeric._compiled_fields

    def counting_fields(*args):
        def counted(f):
            def g(x1, x2):
                count[0] += 1
                return f(x1, x2)
            return g
        return {q: counted(f) for q, f in compiled(*args).items()}
    monkeypatch.setattr(numeric, "_compiled_fields", counting_fields)
    return count


@pytest.fixture
def compiled(monkeypatch):
    """The lambda of each field compile, in call order."""
    lams = []
    original = numeric._compiled_fields

    def recording(sys, lam):
        lams.append(lam)
        return original(sys, lam)
    monkeypatch.setattr(numeric, "_compiled_fields", recording)
    return lams
