import dataclasses
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

from conftest import emit_canonical
from switchbif import IntegratorConfig, ParseError, PolyField, ValidationError
from switchbif.config import (paper_example_config, parse_config,
                              parse_constant_expression)

MINIMAL = """
{
  "system": {
    "a": 1.5,
    "b_poly": [2, 1],
    "c_poly": [1],
    "lambda_domain": [-0.5, 0.5]
  }
}
"""


class TestConstantExpressions:
    @pytest.mark.parametrize("text,expected", [
        ("2", 2.0),
        ("e*pi", math.e * math.pi),
        ("pi/e", math.pi / math.e),
        ("1 + 2*3", 7.0),
        ("-(1/4)", -0.25),
        ("(1+2)/(3-1)", 1.5),
        ("--2", 2.0),
        ("1e-3", 1e-3),
        ("2.5e2", 250.0),
    ])
    def test_values(self, text, expected):
        assert parse_constant_expression(text) == expected

    @pytest.mark.parametrize("bad", ["2**3", "sin(1)", "pi pi", "1 +", "(1", "x", "", "2e",
                                     "1/0", "1e400", "1e999/1e999"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_constant_expression(bad)

    def test_named_constants_exact(self):
        assert parse_constant_expression("pi") == math.pi
        assert parse_constant_expression("e") == math.e

    @pytest.mark.parametrize("bad", [
        "(" * 1000 + "0" + ")" * 1000,   # past the parser's nesting limit
        "-" * 100_000 + "1",             # the parser runs out of stack
        "+".join(["1"] * 100_000),       # deeper than the recursion limit
        "0x1", "1_0", "1j", "pi.e", "01", "1\n+2"],
        ids=["nested-parens", "sign-chain", "long-sum", "hex", "underscore", "complex",
             "attribute", "leading-zero", "line-break"])
    def test_rejects_deep_nesting_and_other_python_syntax(self, bad):
        with pytest.raises(ParseError):
            parse_constant_expression(bad)

    def test_surrounding_whitespace_and_wrapped_lines(self):
        assert parse_constant_expression(" 1 + 2\t\n") == 3.0
        assert parse_constant_expression("(1\n+ 2)") == 3.0


class TestParseConfig:
    def test_minimal_document(self):
        rc = parse_config(MINIMAL)
        assert rc.system.params.a == 1.5
        assert rc.system.params.b.coeffs == (2.0, 1.0)
        assert rc.system.perturbations == (PolyField(),) * 4
        assert rc.integrator.rel_tol == 1e-10

    def test_paper_example_values(self):
        rc = paper_example_config()
        p = rc.system.params
        assert p.a == 2.0
        assert p.b.coeffs == (math.e * math.pi, 1.0, 1.0)
        assert p.c.coeffs == (math.pi / math.e, 0.0, 1.0)
        q1 = rc.system.perturbations[0]
        assert [(t.coeff.coeffs, t.pow1, t.pow2) for t in q1.comp1] == [
            ((-1.0,), 3, 0), ((0.0, -1.0), 1, 2)]
        assert [(t.coeff.coeffs, t.pow1, t.pow2) for t in q1.comp2] == [
            ((0.0, -1.0), 0, 3), ((-1.0,), 2, 1)]
        assert rc.system.perturbations[0] == rc.system.perturbations[2]
        assert rc.system.perturbations[1] == rc.system.perturbations[3]

    def test_expression_fields(self):
        doc = MINIMAL.replace('"a": 1.5', '"a": "e*pi - e*pi + 1.5"')
        assert parse_config(doc).system.params.a == pytest.approx(1.5, abs=1e-15)

    def test_bad_json_reports_location(self):
        with pytest.raises(ParseError) as exc_info:
            parse_config("{ not json }")
        assert "line" in str(exc_info.value)

    def test_unknown_key_reports_path(self):
        doc = json.loads(MINIMAL)
        doc["system"]["b_polynomial"] = [1]
        with pytest.raises(ParseError) as exc_info:
            parse_config(json.dumps(doc))
        assert "b_polynomial" in str(exc_info.value)

    def test_negative_damping_is_validation_error(self):
        doc = json.loads(MINIMAL)
        doc["system"]["a"] = "-1"
        with pytest.raises(ValidationError) as exc_info:
            parse_config(json.dumps(doc))
        assert "a <= 0" in str(exc_info.value)

    def test_low_degree_monomial_is_validation_error(self):
        doc = json.loads(MINIMAL)
        doc["system"]["perturbations"] = {
            "q1": {"comp1": [{"coeff_poly": [1], "pow1": 1, "pow2": 0}]}}
        with pytest.raises(ValidationError) as exc_info:
            parse_config(json.dumps(doc))
        assert "o(|x|)" in str(exc_info.value)

    def test_negative_power_reports_path(self):
        doc = json.loads(MINIMAL)
        doc["system"]["perturbations"] = {
            "q1": {"comp1": [{"coeff_poly": [1], "pow1": -2, "pow2": 4}]}}
        with pytest.raises(ParseError) as exc_info:
            parse_config(json.dumps(doc))
        assert "perturbations.q1.comp1[0]" in str(exc_info.value)

    def test_domain_must_contain_zero(self):
        doc = json.loads(MINIMAL)
        doc["system"]["lambda_domain"] = [0.1, 0.9]
        with pytest.raises(ParseError):
            parse_config(json.dumps(doc))

    def test_integrator_overrides(self):
        doc = json.loads(MINIMAL)
        doc["integrator"] = {"rel_tol": 1e-8}
        rc = parse_config(json.dumps(doc))
        assert rc.integrator.rel_tol == 1e-8

    @pytest.mark.parametrize("a", [10 ** 400, "1e400"])
    def test_number_beyond_float_range_is_parse_error(self, a):
        doc = json.loads(MINIMAL)
        doc["system"]["a"] = a
        with pytest.raises(ParseError, match="system.a"):
            parse_config(json.dumps(doc))

    def test_unknown_integrator_key(self):
        doc = json.loads(MINIMAL)
        doc["integrator"] = {"reltol": 1e-8}
        with pytest.raises(ParseError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("key", ["h0", "max_step", "tangency_tol", "max_arc_time",
                                     "abs_tol", "event_tol", "max_arcs", "escape_radius"])
    def test_fixed_integrator_constant_is_unknown_key(self, key):
        doc = json.loads(MINIMAL)
        doc["integrator"] = {key: 1.0}
        with pytest.raises(ParseError, match=rf"^integrator: unknown keys \['{key}'\]"):
            parse_config(json.dumps(doc))


class TestCanonicalEmission:
    def test_round_trip_identity(self):
        rc = paper_example_config()
        emitted = emit_canonical(rc)
        rc2 = parse_config(emitted, label=rc.label)
        assert rc2 == rc

    def test_emission_is_byte_deterministic(self):
        rc = paper_example_config()
        text1 = emit_canonical(rc)
        text2 = emit_canonical(parse_config(text1))
        assert text1 == text2

    def test_minimal_round_trip(self):
        rc = parse_config(MINIMAL)
        assert parse_config(emit_canonical(rc)) == rc


class TestBenchmarkTraffic:
    def test_trajectory_configs_use_only_integrator_fields(self, monkeypatch):
        # perfbench/workloads.py, loaded from its file without running the benchmark
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        fields = {f.name for f in dataclasses.fields(IntegratorConfig)}
        used = set()
        for op in itertools.islice(workloads.trajectory_ops(1), 18):
            rc = parse_config(op.config)
            used |= set(json.loads(op.config).get("integrator", {}))
            assert rc.integrator.rel_tol == op.check["rel_tol"]
        assert used and used <= fields
