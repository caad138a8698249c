"""Configuration documents: parsing and the built-in benchmark.

A configuration is a JSON document.  Every numeric leaf accepts either
a JSON number or a string holding a constant expression over the named
constants ``pi`` and ``e`` with ``+ - * /`` and parentheses, so values
like ``"e*pi"`` and ``"pi/e"`` are exact to machine precision.

Document schema::

    {
      "system": {
        "a": <num>,
        "b_poly": [<num>, ...],          # coefficients c0..cd in lambda
        "c_poly": [<num>, ...],
        "lambda_domain": [<num>, <num>], # open interval containing 0
        "perturbations": {               # optional; omitted quadrants are zero
          "q1": {"comp1": [{"coeff_poly": [<num>, ...],
                             "pow1": <int>, "pow2": <int>}, ...],
                  "comp2": [...]},
          ...
        }
      },
      "integrator": {"rel_tol": <num>},        # optional integrator tolerance
      "options": {"lambda": <num>, ...}        # optional command defaults
    }

Each ``options`` entry is the default of the command-line flag listed
with it in ``_OPTIONS``, and meets the same type and range checks when a
command reads it.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field

from .bifurcation import _X_SCAN_MIN
from .errors import ParseError, ValidationError
from .model import (LambdaPoly, MonomialTerm, PolyField, SwitchedSystem,
                    SystemParams, validate)
from .numeric import _MAX_ARCS, IntegratorConfig

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_constant_expression",
    "paper_example_config",
    "PAPER_EXAMPLE_LABEL",
]

PAPER_EXAMPLE_LABEL = "paper-example"

_BAD_CHAR_RE = re.compile(r"[^0-9.eEpi+\-*/()\s]")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate(node) -> float:
    """Value of a whitelisted expression node, every literal as a float."""
    op = _OPERATORS.get(type(getattr(node, "op", None)))
    if isinstance(node, ast.BinOp) and op:
        return op(_evaluate(node.left), _evaluate(node.right))
    if isinstance(node, ast.UnaryOp) and op:
        return op(_evaluate(node.operand))
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    raise ValueError(f"{ast.unparse(node)!r} is not a number, pi, e or + - * / of them")


def parse_constant_expression(text: str, location: str = "expression") -> float:
    """Evaluate a constant expression over pi and e with + - * / and parentheses."""
    bad = _BAD_CHAR_RE.search(text)  # keeps hex, underscore and complex literals out
    if bad:
        raise ParseError(f"bad character {bad.group()!r} in expression {text!r}", location)
    try:
        value = _evaluate(ast.parse(text.strip(), mode="eval").body)
        if math.isfinite(value):
            return value
        reason = "non-finite value"
    except SyntaxError as exc:
        reason = exc.msg
    except (ValueError, ArithmeticError) as exc:
        reason = str(exc)
    except (RecursionError, MemoryError):  # the parser's and the walk's depth limits
        reason = "nesting too deep"
    raise ParseError(f"{reason} in expression {text!r}", location)


def _num(node, location: str) -> float:
    if isinstance(node, str):
        return parse_constant_expression(node, location)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"expected a number or constant expression, got {node!r}", location)
    if not abs(node) <= sys.float_info.max:  # exact for integers of any size; false for nan
        raise ParseError(f"non-finite number {node!r}", location)
    return float(node)


def _int(node, location: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ParseError(f"expected an integer, got {node!r}", location)
    return node


def _poly(node, location: str) -> LambdaPoly:
    if not isinstance(node, list) or not node:
        raise ParseError("expected a nonempty coefficient list", location)
    return LambdaPoly(tuple(_num(c, f"{location}[{i}]") for i, c in enumerate(node)))


def _object(node, location: str, keys, required=()) -> dict:
    """``node``, checked to be an object with every ``required`` key and no key
    outside ``keys``."""
    if not isinstance(node, dict):
        raise ParseError("expected an object", location)
    unknown = set(node) - set(keys)
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} (expected {sorted(keys)})", location)
    for key in required:
        if key not in node:
            raise ParseError(f"missing required key {key!r}", location)
    return node


_MONOMIAL_KEYS = ("coeff_poly", "pow1", "pow2")


def _terms(node, location: str) -> tuple[MonomialTerm, ...]:
    if not isinstance(node, list):
        raise ParseError("expected a list of monomial objects", location)
    out = []
    for i, term in enumerate(node):
        loc = f"{location}[{i}]"
        _object(term, loc, _MONOMIAL_KEYS, required=_MONOMIAL_KEYS)
        try:
            out.append(MonomialTerm(coeff=_poly(term["coeff_poly"], f"{loc}.coeff_poly"),
                                    pow1=_int(term["pow1"], f"{loc}.pow1"),
                                    pow2=_int(term["pow2"], f"{loc}.pow2")))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), loc) from exc
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated run configuration."""

    system: SwitchedSystem
    integrator: IntegratorConfig
    options: dict = field(default_factory=dict)
    label: str = field(default="config", compare=False)


def _numbers(node, location: str) -> list[float]:
    """A list of numbers, or one string of comma-separated expressions."""
    if isinstance(node, str):
        node = [part for part in node.split(",") if part.strip()]
    if not isinstance(node, list):
        raise ParseError(f"expected a list of numbers, got {node!r}", location)
    return [_num(v, location) for v in node]


def _count(node, location: str) -> int:
    """An integer; a string (a command-line flag) in decimal digits."""
    return int(node) if isinstance(node, str) else _int(node, location)


def _switch(node, location: str) -> bool:
    if not isinstance(node, bool):
        raise ParseError(f"expected true or false, got {node!r}", location)
    return node


#: ``options`` key -> (command-line flag, converter, default, range check,
#: rule the check enforces); the flag's string and the document's JSON value
#: pass the same converter and check
_OPTIONS = {
    "lambda": ("--lambda", _num, 0.0, None, None),
    "x0": ("--x0", _numbers, [1.0, 0.0], lambda v: len(v) == 2, "must be two numbers"),
    "t_max": ("--t-max", _num, None, lambda v: v >= 0.0, "must be >= 0"),
    "n_events": ("--n-events", _count, None, lambda v: 1 <= v <= _MAX_ARCS,
                 f"must be between 1 and {_MAX_ARCS}"),
    "return_to_section": ("--return-to-section", _switch, False, None, None),
    "x1_values": ("--x1", _numbers, None, bool, "needs at least one value"),
    "lambdas": ("--lambdas", _numbers, None, bool, "needs at least one value"),
    "lambda_min": ("--lambda-min", _num, None, None, None),
    "lambda_max": ("--lambda-max", _num, None, None, None),
    "n": ("--n", _count, 101, lambda v: v >= 1, "must be >= 1"),
    "bracket": ("--bracket", _numbers, [-0.1, 0.1], lambda v: len(v) == 2,
                "must be two numbers"),
    "x_scan_max": ("--x-scan-max", _num, 10.0, lambda v: v > _X_SCAN_MIN,
                   f"must be > {_X_SCAN_MIN}"),
    "radius_m": ("--radius-m", _num, 10.0, lambda v: v > 0.0, "must be > 0"),
    "n_samples": ("--n-samples", _count, 100_000, lambda v: v >= 1, "must be >= 1"),
}


def parse_config(text: str, label: str = "config") -> RunConfig:
    """Parse and validate a configuration document.

    Raises ParseError with a location for structural problems and
    ValidationError (its message lists the violations) when the defined
    system violates the standing assumptions.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"line {exc.lineno}, column {exc.colno}") from exc
    _object(doc, "document", ("system", "integrator", "options"), required=("system",))
    s = _object(doc["system"], "system",
                ("a", "b_poly", "c_poly", "lambda_domain", "perturbations"),
                required=("a", "b_poly", "c_poly"))

    a = _num(s["a"], "system.a")
    b = _poly(s["b_poly"], "system.b_poly")
    c = _poly(s["c_poly"], "system.c_poly")
    domain_node = s.get("lambda_domain", [-1.0, 1.0])
    if not isinstance(domain_node, list) or len(domain_node) != 2:
        raise ParseError("lambda_domain must be a two-element list", "system.lambda_domain")
    domain = (_num(domain_node[0], "system.lambda_domain[0]"),
              _num(domain_node[1], "system.lambda_domain[1]"))
    try:
        params = SystemParams(a=a, b=b, c=c, lambda_domain=domain)
    except ValueError as exc:
        raise ParseError(str(exc), "system.lambda_domain") from exc

    perts = [PolyField()] * 4
    pert_node = _object(s.get("perturbations", {}), "system.perturbations",
                        ("q1", "q2", "q3", "q4"))
    for key, qnode in pert_node.items():
        loc = f"system.perturbations.{key}"
        _object(qnode, loc, ("comp1", "comp2"))
        perts[int(key[1]) - 1] = PolyField(
            comp1=_terms(qnode.get("comp1", []), f"{loc}.comp1"),
            comp2=_terms(qnode.get("comp2", []), f"{loc}.comp2"))

    system = SwitchedSystem(params=params, perturbations=tuple(perts))
    report = validate(system)
    if not report.passed:
        raise ValidationError("; ".join(report.violations))

    integ_node = _object(doc.get("integrator", {}), "integrator",
                         [f.name for f in dataclasses.fields(IntegratorConfig)])
    kwargs = {key: _num(val, f"integrator.{key}") for key, val in integ_node.items()}
    try:
        integrator = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), "integrator") from exc

    options = dict(_object(doc.get("options", {}), "options", _OPTIONS))
    return RunConfig(system=system, integrator=integrator, options=options, label=label)


def paper_example_config() -> RunConfig:
    """Built-in benchmark system.

    a = 2, b(lam) = e*pi + lam^2 + lam, c(lam) = pi/e + lam^2; regions
    1 and 3 carry the cubic radial perturbation
    (-(x1^3 + lam x1 x2^2), -(lam x2^3 + x1^2 x2)) and regions 2 and 4
    the quintic (-lam x1^5, -lam x1^4 x2).  The stability index equals
    1 at lam = 0 with positive derivative, so periodic orbits bifurcate
    for lam > 0.
    """
    cubic = {"comp1": [{"coeff_poly": [-1], "pow1": 3, "pow2": 0},
                       {"coeff_poly": [0, -1], "pow1": 1, "pow2": 2}],
             "comp2": [{"coeff_poly": [0, -1], "pow1": 0, "pow2": 3},
                       {"coeff_poly": [-1], "pow1": 2, "pow2": 1}]}
    quintic = {"comp1": [{"coeff_poly": [0, -1], "pow1": 5, "pow2": 0}],
               "comp2": [{"coeff_poly": [0, -1], "pow1": 4, "pow2": 1}]}
    document = {"system": {"a": "2", "b_poly": ["e*pi", 1, 1], "c_poly": ["pi/e", 0, 1],
                           "lambda_domain": [-2, 2],
                           "perturbations": {"q1": cubic, "q2": quintic,
                                             "q3": cubic, "q4": quintic}}}
    return parse_config(json.dumps(document), label=PAPER_EXAMPLE_LABEL)
