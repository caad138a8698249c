"""Configuration documents: parsing, canonical emission, built-in benchmark.

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
      "integrator": {"rel_tol": <num>, ...},   # optional overrides
      "options": {"lambda": <num>, ...}        # optional command defaults
    }
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .model import (LambdaPoly, MonomialTerm, PolyField, SwitchedSystem,
                    SystemParams, validate)
from .numeric import IntegratorConfig

__all__ = [
    "RunConfig",
    "parse_config",
    "emit_canonical",
    "parse_constant_expression",
    "paper_example_config",
    "PAPER_EXAMPLE_LABEL",
]

PAPER_EXAMPLE_LABEL = "paper-example"

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/()])
    )""", re.VERBOSE)

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _tokenize(text: str, location: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad character {text[pos:]!r} in expression {text!r}", location)
        pos = m.end()
        for kind in ("number", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    tokens.append(("end", ""))
    return tokens


class _ExprParser:
    """Recursive-descent parser for constant expressions over pi and e."""

    def __init__(self, text: str, location: str):
        self.text = text
        self.location = location
        self.tokens = _tokenize(text, location)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> float:
        try:
            value = self.expr()
        except ZeroDivisionError:
            raise ParseError(f"division by zero in expression {self.text!r}",
                             self.location) from None
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input {self.peek()[1]!r} in expression {self.text!r}",
                             self.location)
        if not math.isfinite(value):
            raise ParseError(f"non-finite value of expression {self.text!r}", self.location)
        return value

    def expr(self) -> float:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> float:
        sign = 1.0
        while self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                sign = -sign
        return sign * self.primary()

    def primary(self) -> float:
        kind, val = self.take()
        if kind == "number":
            return float(val)
        if kind == "name":
            if val not in _CONSTANTS:
                raise ParseError(f"unknown constant {val!r} (only pi and e are defined) "
                                 f"in expression {self.text!r}", self.location)
            return _CONSTANTS[val]
        if (kind, val) == ("op", "("):
            value = self.expr()
            if self.take() != ("op", ")"):
                raise ParseError(f"missing ')' in expression {self.text!r}", self.location)
            return value
        raise ParseError(f"unexpected {val!r} in expression {self.text!r}", self.location)


def parse_constant_expression(text: str, location: str = "expression") -> float:
    """Evaluate a constant expression over pi and e with + - * / and parentheses."""
    return _ExprParser(text, location).parse()


def _num(node, location: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float, str)):
        raise ParseError(f"expected a number or constant expression, got {node!r}", location)
    if isinstance(node, str):
        return parse_constant_expression(node, location)
    val = float(node)
    if not math.isfinite(val):
        raise ParseError(f"non-finite number {node!r}", location)
    return val


def _int(node, location: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ParseError(f"expected an integer, got {node!r}", location)
    return node


def _poly(node, location: str) -> LambdaPoly:
    if not isinstance(node, list) or not node:
        raise ParseError("expected a nonempty coefficient list", location)
    return LambdaPoly(tuple(_num(c, f"{location}[{i}]") for i, c in enumerate(node)))


def _terms(node, location: str) -> tuple[MonomialTerm, ...]:
    if not isinstance(node, list):
        raise ParseError("expected a list of monomial objects", location)
    out = []
    for i, term in enumerate(node):
        loc = f"{location}[{i}]"
        if not isinstance(term, dict):
            raise ParseError("expected a monomial object", loc)
        unknown = set(term) - {"coeff_poly", "pow1", "pow2"}
        if unknown:
            raise ParseError(f"unknown monomial keys {sorted(unknown)}", loc)
        for key in ("coeff_poly", "pow1", "pow2"):
            if key not in term:
                raise ParseError(f"missing monomial key {key!r}", loc)
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


_OPTION_KEYS = {"lambda", "x0", "t_max", "n_events", "return_to_section",
                "x1_values", "lambdas", "bracket", "radius_m", "n_samples",
                "x_scan_max"}


def parse_config(text: str, label: str = "config") -> RunConfig:
    """Parse and validate a configuration document.

    Raises ParseError with a location for structural problems and
    ValidationError (carrying the validation report) when the defined
    system violates the standing assumptions.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", "document")
    unknown = set(doc) - {"system", "integrator", "options"}
    if unknown:
        raise ParseError(f"unknown top-level keys {sorted(unknown)}", "document")
    if "system" not in doc:
        raise ParseError("missing required key 'system'", "document")

    s = doc["system"]
    if not isinstance(s, dict):
        raise ParseError("'system' must be an object", "system")
    unknown = set(s) - {"a", "b_poly", "c_poly", "lambda_domain", "perturbations"}
    if unknown:
        raise ParseError(f"unknown system keys {sorted(unknown)}", "system")
    for key in ("a", "b_poly", "c_poly"):
        if key not in s:
            raise ParseError(f"missing required key '{key}'", "system")

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

    perts = [PolyField.zero()] * 4
    pert_node = s.get("perturbations", {})
    if not isinstance(pert_node, dict):
        raise ParseError("'perturbations' must be an object", "system.perturbations")
    unknown = set(pert_node) - {"q1", "q2", "q3", "q4"}
    if unknown:
        raise ParseError(f"unknown perturbation keys {sorted(unknown)} "
                         "(expected q1..q4)", "system.perturbations")
    for qi in range(1, 5):
        key = f"q{qi}"
        if key not in pert_node:
            continue
        qnode = pert_node[key]
        loc = f"system.perturbations.{key}"
        if not isinstance(qnode, dict):
            raise ParseError("expected an object with comp1/comp2", loc)
        unknown = set(qnode) - {"comp1", "comp2"}
        if unknown:
            raise ParseError(f"unknown keys {sorted(unknown)}", loc)
        perts[qi - 1] = PolyField(comp1=_terms(qnode.get("comp1", []), f"{loc}.comp1"),
                                  comp2=_terms(qnode.get("comp2", []), f"{loc}.comp2"))

    system = SwitchedSystem(params=params, perturbations=tuple(perts))
    report = validate(system)
    if not report.passed:
        raise ValidationError("; ".join(report.violations), report=report)

    integ_node = doc.get("integrator", {})
    if not isinstance(integ_node, dict):
        raise ParseError("'integrator' must be an object", "integrator")
    known = {f.name for f in dataclasses.fields(IntegratorConfig)}
    unknown = set(integ_node) - known
    if unknown:
        raise ParseError(f"unknown integrator keys {sorted(unknown)}", "integrator")
    kwargs = {}
    for key, val in integ_node.items():
        loc = f"integrator.{key}"
        kwargs[key] = _int(val, loc) if key == "max_arcs" else _num(val, loc)
    try:
        integrator = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), "integrator") from exc

    options_node = doc.get("options", {})
    if not isinstance(options_node, dict):
        raise ParseError("'options' must be an object", "options")
    unknown = set(options_node) - _OPTION_KEYS
    if unknown:
        raise ParseError(f"unknown option keys {sorted(unknown)}", "options")
    options = dict(options_node)

    return RunConfig(system=system, integrator=integrator, options=options, label=label)


def _poly_coeffs(poly: LambdaPoly) -> list[float]:
    return [float(cv) for cv in poly.coeffs]


def emit_canonical(config: RunConfig) -> str:
    """Serialize a RunConfig as a canonical JSON document.

    All expressions are resolved to plain floats; re-parsing the result
    reproduces an equal RunConfig, and emission is byte-deterministic.
    """
    perts = {}
    for qi in range(1, 5):
        fieldq = config.system.perturbations[qi - 1]
        if fieldq.is_zero():
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


def paper_example_config() -> RunConfig:
    """Built-in benchmark system.

    a = 2, b(lam) = e*pi + lam^2 + lam, c(lam) = pi/e + lam^2; regions
    1 and 3 carry the cubic radial perturbation
    (-(x1^3 + lam x1 x2^2), -(lam x2^3 + x1^2 x2)) and regions 2 and 4
    the quintic (-lam x1^5, -lam x1^4 x2).  The stability index equals
    1 at lam = 0 with positive derivative, so periodic orbits bifurcate
    for lam > 0.
    """
    document = """\
{
  "system": {
    "a": "2",
    "b_poly": ["e*pi", 1, 1],
    "c_poly": ["pi/e", 0, 1],
    "lambda_domain": [-2, 2],
    "perturbations": {
      "q1": {
        "comp1": [{"coeff_poly": [-1], "pow1": 3, "pow2": 0},
                  {"coeff_poly": [0, -1], "pow1": 1, "pow2": 2}],
        "comp2": [{"coeff_poly": [0, -1], "pow1": 0, "pow2": 3},
                  {"coeff_poly": [-1], "pow1": 2, "pow2": 1}]
      },
      "q2": {
        "comp1": [{"coeff_poly": [0, -1], "pow1": 5, "pow2": 0}],
        "comp2": [{"coeff_poly": [0, -1], "pow1": 4, "pow2": 1}]
      },
      "q3": {
        "comp1": [{"coeff_poly": [-1], "pow1": 3, "pow2": 0},
                  {"coeff_poly": [0, -1], "pow1": 1, "pow2": 2}],
        "comp2": [{"coeff_poly": [0, -1], "pow1": 0, "pow2": 3},
                  {"coeff_poly": [-1], "pow1": 2, "pow2": 1}]
      },
      "q4": {
        "comp1": [{"coeff_poly": [0, -1], "pow1": 5, "pow2": 0}],
        "comp2": [{"coeff_poly": [0, -1], "pow1": 4, "pow2": 1}]
      }
    }
  }
}
"""
    return parse_config(document, label=PAPER_EXAMPLE_LABEL)
