import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import emit_canonical
from switchbif import find_critical_lambda, fit_local_expansion, numeric, poincare_numeric
from switchbif.cli import main
from switchbif.config import paper_example_config

BAD_SYSTEM = """
{
  "system": {"a": "-1", "b_poly": [1], "c_poly": [1], "lambda_domain": [-1, 1]}
}
"""

_TURN_BACK = {"comp1": [{"coeff_poly": [-10], "pow1": 0, "pow2": 2}],
              "comp2": [{"coeff_poly": [10], "pow1": 2, "pow2": 0}]}
#: p = (-10 x2^2, 10 x1^2) in regions 1, 3 and 4: at (0.5, 0) region 1's
#: field points back into region 1, so no arc of it ends there
TURNING_BACK = {"system": {"a": 0.1, "b_poly": [1], "c_poly": [1], "perturbations": {
    "q1": _TURN_BACK, "q3": _TURN_BACK, "q4": _TURN_BACK}}}

#: (coefficient, powers) of |x|^2 - |x|^4
_RADIAL = [(1, 2, 0), (1, 0, 2), (-1, 4, 0), (-2, 2, 2), (-1, 0, 4)]
_SHELL = {"comp1": [{"coeff_poly": [c], "pow1": p1 + 1, "pow2": p2} for c, p1, p2 in _RADIAL],
          "comp2": [{"coeff_poly": [c], "pow1": p1, "pow2": p2 + 1} for c, p1, p2 in _RADIAL]}
#: the paper's a, b(lam), c(lam) with p = (|x|^2 - |x|^4) x in every region:
#: orbits on both sides of lambda* = 0
TWO_SIDED = {"system": {"a": "2", "b_poly": ["e*pi", 1, 1], "c_poly": ["pi/e", 0, 1],
                        "lambda_domain": [-2, 2],
                        "perturbations": {q: _SHELL for q in ("q1", "q2", "q3", "q4")}}}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_paper_example_critical(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "classify", "--lambda", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "PeriodicFamily"
        assert doc["delta"] == pytest.approx(1.0, abs=1e-12)
        assert doc["tool"] == "switchbif"
        assert doc["config"] == "paper-example"

    def test_expression_lambda(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "classify", "--lambda", "1/10"])
        assert code == 0
        assert json.loads(out)["class"] == "Unstable"


class TestConfigFile:
    def test_config_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(emit_canonical(paper_example_config()), encoding="utf-8")
        code, out, _ = run(capsys, ["classify", "--config", str(path), "--lambda", "0"])
        assert code == 0
        assert json.loads(out)["class"] == "PeriodicFamily"
        assert json.loads(out)["config"] == "system.json"

    def test_validation_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(BAD_SYSTEM, encoding="utf-8")
        code, _, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 1
        assert "a <= 0" in err

    def test_every_flag_has_a_config_option(self, capsys, tmp_path):
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = {"lambda_min": 0, "lambda_max": "1/2", "n": 3}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, ["delta-sweep", "--config", str(path)])
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["0.0", "0.25", "0.5"]

    def test_delta_sweep_reads_lambdas_from_the_flag_only(self, capsys, tmp_path):
        # options.lambdas is branch's list: delta-sweep needs its own range,
        # so one config can hold both
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = {"lambdas": [0.1, 0.2]}
        code, _, err = run(capsys, ["delta-sweep", "--config",
                                    write_json(tmp_path / "lambdas.json", doc)])
        assert code == 1
        assert "give --lambdas or both --lambda-min and --lambda-max" in err
        doc["options"].update({"lambda_min": 0, "lambda_max": "1/2", "n": 3})
        code, out, _ = run(capsys, ["delta-sweep", "--config",
                                    write_json(tmp_path / "both.json", doc)])
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[2:]] == ["0.0", "0.25", "0.5"]

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["classify", "--config", "/nonexistent.json"])
        assert code == 1
        assert "cannot read config file" in err

    def test_config_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["classify", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("switchbif: error: ParseError: cannot read config file: ")

    def test_error_json_flag(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(BAD_SYSTEM, encoding="utf-8")
        code, out, _ = run(capsys, ["--error-json", "validate", "--config", str(path)])
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "ValidationError"
        assert doc["exit_code"] == 1


class TestSimulate:
    def test_zero_time_single_row(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "simulate", "--lambda", "0",
                                    "--x0", "0.001,0", "--t-max", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# switchbif")
        assert lines[1] == "t,x1,x2,quadrant,event"
        assert len(lines) == 3
        assert lines[2].startswith("0.0,0.001,0.0,")

    def test_event_rows_flagged(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "simulate", "--lambda", "0.1",
                                    "--x0", "1,0", "--n-events", "4"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert all(re.fullmatch("[1-4]", r[3]) and re.fullmatch("[01]", r[4]) for r in rows)
        events = [r for r in rows if r[4] == "1"]
        assert len(events) == 4
        # event rows sit on alternating axes
        assert abs(float(events[0][0]) - 0.0) < math.inf
        assert abs(float(events[0][1])) < 1e-10  # first crossing: x1 ~ 0
        assert abs(float(events[1][2])) < 1e-10  # second crossing: x2 ~ 0

    def test_t_max_at_a_switching_event_ends_on_its_row(self, capsys):
        # the trajectory's second event time: the run ends on the event row
        code, out, _ = run(capsys, ["paper-example", "simulate", "--lambda", "0.1",
                                    "--x0", "0.5,0", "--t-max", "0.9893500912364693"])
        assert code == 0
        t, _, x2, _, event = out.strip().splitlines()[-1].split(",")
        assert (t, x2, event) == ("0.9893500912364693", "0.0", "1")

    def test_requires_stop_condition(self, capsys):
        code, _, err = run(capsys, ["paper-example", "simulate", "--x0", "1,0"])
        assert code == 1
        assert "stop condition" in err

    @pytest.mark.parametrize("x0", ["1e-300,0", "1e-12,0", "3e-12,1e-13", "0,1e-200"])
    def test_tiny_start_point_integrates(self, capsys, x0):
        # the origin test scales with |x0|, so tiny nonzero starts are not the origin
        code, out, _ = run(capsys, ["paper-example", "simulate", "--x0", x0, "--t-max", "1"])
        assert code == 0
        assert len(out.strip().splitlines()) > 3

    @pytest.mark.parametrize("x0", ["0.5,0", "0.5,1e-13"])
    def test_start_that_region_1_turns_back_is_tangency(self, capsys, tmp_path, x0):
        path = write_json(tmp_path / "turning_back.json", TURNING_BACK)
        code, out, err = run(capsys, ["simulate", "--config", path, "--x0", x0,
                                      "--n-events", "2"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("switchbif: error: TangencyError: an arc of quadrant 1 "
                              "cannot end at t = 0.0,")

    def test_origin_start_is_user_error(self, capsys):
        code, _, _ = run(capsys, ["paper-example", "simulate", "--x0", "0,0",
                                  "--t-max", "1"])
        assert code == 1

    def test_writes_file(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, ["paper-example", "simulate", "--lambda", "0",
                                    "--x0", "1,0", "--return-to-section",
                                    "--out", str(out_dir)])
        assert code == 0
        text = (out_dir / "trajectory.csv").read_text(encoding="utf-8")
        assert text.startswith("# switchbif")
        assert "trajectory.csv" in out


class TestPoincare:
    def test_csv_numbers_equal_the_library_values(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "poincare", "--lambda", "0.1",
                                    "--x1", "1e-4,0.5"])
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[2:]]
        config = paper_example_config()
        samples = [poincare_numeric(config.system, x1, 0.1, config.integrator)
                   for x1 in (1e-4, 0.5)]
        assert rows == [(x1, s.x1_out, s.period) for x1, s in zip((1e-4, 0.5), samples)]

    def test_fields_compile_once_per_command(self, capsys, compiled):
        # the golden case's three amplitudes share one compile
        code, _, _ = run(capsys, ["paper-example", "poincare", "--lambda", "0.1",
                                  "--x1", "1e-4,0.5,1"])
        assert code == 0
        assert compiled == [0.1]


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["paper-example", "poincare", "--lambda", "0.1", "--x1", "0.5,1.0"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_branch_files_byte_identical(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run(capsys, ["paper-example", "branch",
                                      "--lambdas", "0.05,0.1", "--out", str(d)])
            assert code == 0
        assert ((d1 / "branch.csv").read_bytes() == (d2 / "branch.csv").read_bytes())
        assert ((d1 / "branch_fit.json").read_bytes()
                == (d2 / "branch_fit.json").read_bytes())


class TestBranchCommand:
    def test_branch_csv_increasing(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "branch",
                                    "--lambdas", "0.02,0.05,0.1"])
        assert code == 0
        csv_part = [line for line in out.splitlines() if not line.startswith(("#", "{", " ", "}"))]
        rows = [line.split(",") for line in csv_part[1:] if line and "," in line]
        xs = [float(r[1]) for r in rows]
        assert xs == sorted(xs)
        assert len(xs) == 3

    def test_overflowing_scan_reports_no_orbit(self, capsys):
        # the scan at -0.11 takes trial steps whose error estimate overflows a float
        code, out, _ = run(capsys, ["paper-example", "branch", "--lambdas=-0.11,0.1"])
        assert code == 0
        assert -0.11 in json.loads(out[out.index("{"):])["no_orbit_lambdas"]

    @pytest.mark.parametrize("x_max", ["1e-7", "1e-6"])
    def test_scan_limit_at_or_below_the_smallest_scan_amplitude_exits_1(self, capsys, x_max):
        # the scan starts at 1e-6: a limit there or below would scan downward
        code, out, err = run(capsys, ["paper-example", "branch", "--lambdas=0.1",
                                      f"--x-scan-max={x_max}"])
        assert code == 1 and out == ""
        assert err == f"switchbif: error: ParseError: --x-scan-max: must be > 1e-06, got {float(x_max)!r}\n"

    def test_one_repeated_amplitude_has_no_scaling_fit(self, capsys):
        # four points at one amplitude leave the log-log fit rank-deficient
        code, out, err = run(capsys, ["paper-example", "branch", "--lambdas=0.1,0.1,0.1,0.1"])
        assert code == 0 and err == ""
        assert json.loads(out[out.index("{"):])["scaling_fit"] is None

    def test_no_orbit_exit_code(self, capsys):
        code, _, err = run(capsys, ["paper-example", "branch", "--lambdas=-0.05"])
        assert code == 2
        assert "NoOrbit" in err

    def test_branch_on_both_sides_has_no_scaling_fit(self, capsys, tmp_path):
        # four branch points, one on the negative side: the scaling law
        # does not apply, and both files are written
        out_dir = tmp_path / "results"
        code, _, err = run(capsys, ["branch", "--config",
                                    write_json(tmp_path / "two_sided.json", TWO_SIDED),
                                    "--lambdas=-0.05,0.05,0.1,0.2", "--out", str(out_dir)])
        assert code == 0 and err == ""
        rows = (out_dir / "branch.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert [float(r.split(",")[0]) for r in rows] == [-0.05, 0.05, 0.1, 0.2]
        doc = json.loads((out_dir / "branch_fit.json").read_text(encoding="utf-8"))
        assert doc["scaling_fit"] is None
        [extra] = doc["additional_orbits"]
        assert extra["lambda"] == -0.05
        assert extra["x1_fixed"] == pytest.approx(0.8597, abs=1e-4)


class TestVerifyGlobal:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "verify-global",
                                    "--lambda", "0.5", "--n-samples", "20000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lyapunov_ok"] == "pass-sampled"
        assert doc["rotation_ok"] == "pass-sampled"
        assert doc["delta_conditions_ok"] is True
        assert doc["rotation_pert_inner_max"] == 0.0


class TestDeltaSweep:
    def test_csv_matches_closed_form(self, capsys, paper_params):
        from switchbif import delta, delta_prime
        code, out, _ = run(capsys, ["paper-example", "delta-sweep",
                                    "--lambda-min", "0", "--lambda-max", "0.2", "--n", "3"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert len(rows) == 3
        for row in rows:
            lam = float(row[0])
            assert float(row[1]) == pytest.approx(delta(paper_params, lam), rel=1e-15)
            assert float(row[2]) == pytest.approx(delta_prime(paper_params, lam), rel=1e-15)


class TestBifurcateCommand:
    def test_paper_example_report(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "bifurcate"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["critical_lambda"]) < 1e-11
        assert doc["delta_prime"] == pytest.approx(4.0 / (math.e * math.pi), rel=1e-9)
        assert doc["direction"] == "BranchForPositiveLambda"
        assert doc["expansion_fit"]["delta_coeff"] < 0.0
        # the report's numbers are the library's, unrounded
        config = paper_example_config()
        crit = find_critical_lambda(config.system.params, (-0.1, 0.1))
        fit = fit_local_expansion(config.system, crit.lambda_star, config.integrator)
        assert doc["critical_lambda"] == crit.lambda_star
        assert doc["expansion_fit"] == {**dataclasses.asdict(fit), "x1_grid": list(fit.x1_grid)}


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["verify-global", "--n-samples", "0"],
        ["verify-global", "--radius-m=-1"],
        ["verify-global", "--n-samples", "abc"],
        ["simulate", "--n-events", "0"],
        ["simulate", "--lambda", "0.5", "--x0", "0.5,0", "--n-events", "10001"],
        ["simulate", "--x0", "1,0", "--t-max=-1"],
        ["simulate", "--x0", "1,2,3", "--t-max", "1"],
        ["delta-sweep", "--lambda-min", "0", "--lambda-max", "1", "--n", "0"],
        ["delta-sweep", "--lambda-min", "0"],
        ["classify", "--lambda", "foo"],
        ["classify", "--lambda", "1/0"],
        ["poincare", "--x1", "0.5", "--unknown-flag"],
        ["branch"],
    ], ids=" ".join)
    def test_bad_argument_is_one_line_user_error(self, capsys, argv):
        code, _, err = run(capsys, ["paper-example", *argv])
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("switchbif: error: ")

    @pytest.mark.parametrize("argv", [
        ["paper-example", "classify", "--config", "F"],
        ["paper-example", "paper-example", "classify"],
        ["classify", "--lambda", "0"],
    ], ids=" ".join)
    def test_config_source_error_is_one_line_parse_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("switchbif: error: ParseError")
        assert "--config" in err

    @pytest.mark.parametrize("error_json", [False, True], ids=["plain", "error-json"])
    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_out_through_a_file_is_one_line_parse_error(self, capsys, tmp_path, sub,
                                                        error_json):
        # --out F with F a regular file (FileExistsError), or F/sub (NotADirectoryError)
        blocker = tmp_path / "F"
        blocker.write_text("kept", encoding="utf-8")
        argv = ["paper-example", "classify", "--lambda", "0.1", "--out", str(blocker / sub)]
        code, out, err = run(capsys, ["--error-json"] * error_json + argv)
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("switchbif: error: ParseError: --out: ")
        assert (json.loads(out)["error"] == "ParseError") if error_json else out == ""
        assert blocker.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("system,argv", [
        ({"b_poly": [1e200], "c_poly": [1]}, ["classify", "--lambda", "0"]),
        ({"b_poly": [1e200], "c_poly": [1]}, ["delta-sweep", "--lambdas", "0"]),
        ({"b_poly": [1e200], "c_poly": [1]}, ["bifurcate"]),
        ({"b_poly": [1e200], "c_poly": [1]}, ["verify-global", "--n-samples", "100"]),
        # b'/b and c'/c overflow to inf where b and c do not
        ({"b_poly": [1, 1e308], "c_poly": [1, 1e308], "lambda_domain": [-1e-309, 1]},
         ["delta-sweep", "--lambdas", "0"]),
        # b / c overflows to inf without an OverflowError
        ({"b_poly": [1e300], "c_poly": [1e-300]}, ["classify", "--lambda", "0"]),
        ({"b_poly": [1e300], "c_poly": [1e-300]}, ["delta-sweep", "--lambdas", "0"]),
        ({"b_poly": [1e300], "c_poly": [1e-300]}, ["bifurcate"]),
        # the index underflows to 0, where b c or b alone is below the float range
        *(({"b_poly": b, "c_poly": c}, argv)
          for b, c in (([1e-200], [1e-200]), ([1e-320], [1]))
          for argv in (["classify", "--lambda", "0"], ["delta-sweep", "--lambdas", "0"],
                       ["bifurcate"], ["branch", "--lambdas", "0.1"])),
        ({"b_poly": [1e-200], "c_poly": [1e200]}, ["classify", "--lambda", "0"]),
    ], ids=lambda v: str(v))
    def test_overflowing_index_is_one_line_domain_error(self, capsys, tmp_path,
                                                        system, argv):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"system": {"a": 1, **system}}), encoding="utf-8")
        code, _, err = run(capsys, [argv[0], "--config", str(path), *argv[1:]])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("switchbif: error: DomainError")
        assert re.search(r"delta'?\(-?\d", err)   # names lambda

    def test_huge_b_and_c_give_a_tiny_delta_prime(self, capsys, tmp_path):
        # w**3 = 1e450 is out of range, but delta'(0) = 2 b'/b + pi a b'/(b w) is not
        doc = {"system": {"a": 1, "b_poly": [1e150, 1], "c_poly": [1e150]}}
        argv = ["delta-sweep", "--config", write_json(tmp_path / "c.json", doc), "--lambdas", "0"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lam, d, dp = map(float, out.splitlines()[-1].split(","))
        assert (lam, d) == (0.0, 1.0) and dp == pytest.approx(2e-150, rel=1e-12)

    def test_overflowing_leading_coefficient_is_one_line_domain_error(self, capsys, tmp_path):
        # in region 1, J = (b/c)^2 = 1e40, and C's integrand carries J^39 there
        doc = {"system": {"a": 0.01, "b_poly": [1e10], "c_poly": [1e-10], "perturbations": {
            "q1": {"comp1": [{"coeff_poly": [-1], "pow1": 40, "pow2": 0}]}}}}
        argv = ["branch", "--config", write_json(tmp_path / "c.json", doc), "--lambdas", "0.1",
                "--x-scan-max", "1e-3", "--out", str(tmp_path)]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("switchbif: error: DomainError")
        assert "at lambda = 0.1 " in err

    @pytest.mark.parametrize("error_json", [False, True])
    @pytest.mark.parametrize("argv", [["classify", "--lambda", "0.0011"],
                                      ["delta-sweep", "--lambdas", "0.0011"],
                                      ["branch", "--lambdas", "0.0011"]], ids=lambda v: v[0])
    def test_lambda_where_b_dips_negative_is_one_line_domain_error(self, capsys, tmp_path,
                                                                   argv, error_json):
        # b(lam) = (lam - 0.0011)^2 - 1e-8 < 0 only on (0.001, 0.0012), between
        # validate's samples at 0 and 0.002, so the config passes validation
        doc = {"system": {"a": 1, "b_poly": ["0.0000012", "-0.0022", 1], "c_poly": [1]}}
        path = write_json(tmp_path / "dip.json", doc)
        code, out, err = run(capsys, ["--error-json"] * error_json
                             + [argv[0], "--config", path, *argv[1:]])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("switchbif: error: DomainError: b(0.0011)")
        assert err.endswith("and c(0.0011) = 1.0 must both be positive\n")
        assert (json.loads(out)["error"] == "DomainError") if error_json else out == ""

    def test_overflowing_coefficient_is_one_line_validation_error(self, capsys, tmp_path):
        # b(lam) = 1 + lam^2 overflows to inf near the ends of the interval
        doc = {"system": {"a": 1, "b_poly": [1, 0, 1], "c_poly": [1],
                          "lambda_domain": [-1e300, 1e300]}}
        argv = ["simulate", "--config", write_json(tmp_path / "inf.json", doc),
                "--x0", "1,0", "--t-max", "1", "--lambda", "1e200"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == ("switchbif: error: ValidationError: b(lambda) is not finite at "
                       "lambda = -1e+300 (b = inf)\n")

    @pytest.mark.parametrize("argv, code, message", [
        (["simulate", "--x0", "1,0", "--t-max", "1"], 2,
         "TangencyError: an arc of quadrant 1 cannot end at t = 0.0, x = (1.0, 0.0)"),
        (["poincare", "--x1", "0.5"], 2,
         "TangencyError: an arc of quadrant 1 cannot end at t = 0.0, x = (0.5, 0.0)"),
        (["verify-global"], 1,
         "DomainError: invalid value encountered in multiply: the field values sampled "
         "at radius_M = 10.0"),
    ], ids=["simulate", "poincare", "verify-global"])
    def test_infinite_frozen_coefficient_is_one_line_error(self, capsys, tmp_path,
                                                           argv, code, message):
        # two 1.5e308 x2^3 terms collect to inf x2^3 at lambda = 0.5, which
        # the compiled field writes as the float constant inf: at (x1, 0)
        # region 1's dx2 is inf * 0 = nan, and so is <x, pert> at x2 = 0
        term = {"coeff_poly": [1e308, 1e308], "pow1": 0, "pow2": 3}
        doc = {"system": {"a": 0.1, "b_poly": [1], "c_poly": [1], "perturbations": {
            "q1": {"comp2": [term, term]}}}}
        got, out, err = run(capsys, [argv[0], "--config", write_json(tmp_path / "inf.json", doc),
                                     "--lambda", "0.5", *argv[1:], "--out", str(tmp_path)])
        assert got == code and out == ""
        assert err.count("\n") == 1 and err.startswith(f"switchbif: error: {message}")

    def test_underflowing_radius_is_one_line_domain_error(self, capsys):
        code, out, err = run(capsys, ["paper-example", "verify-global", "--lambda", "0.5",
                                      "--radius-m", "1e-170", "--n-samples", "1000"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("switchbif: error: DomainError")
        assert re.search(r"DomainError: underflow encountered in \w+: .* radius_M = 1e-170 ", err)

    def test_bad_config_option_names_its_key(self, capsys, tmp_path):
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = {"n_samples": 0}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["verify-global", "--config", str(path)])
        assert code == 1
        assert "options.n_samples" in err

    @pytest.mark.parametrize("options,argv", [
        ({"n_samples": 1.9}, ["verify-global"]),
        ({"lambda": True}, ["classify"]),
        ({"return_to_section": "no"}, ["simulate"]),
        ({"x0": [True, 0]}, ["simulate", "--t-max", "1"]),
        ({"n": 2.0}, ["delta-sweep", "--lambda-min", "0", "--lambda-max", "1"]),
        ({"lambdas": 0.1}, ["branch"]),
    ], ids=lambda v: str(v))
    def test_config_option_of_wrong_type_names_its_key(self, capsys, tmp_path,
                                                       options, argv):
        # a document value meets the type checks of the system's own numbers
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = options
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, [argv[0], "--config", str(path), *argv[1:]])
        assert code == 1
        assert err.count("\n") == 1 and f"options.{next(iter(options))}" in err

    def test_no_orbit_below_the_noise_floor(self, capsys):
        # at lambda = 0 and 1e-300 the origin is a weak focus: no orbit exists,
        # and a sign change of integrator noise must not report one
        code, out, err = run(capsys, ["paper-example", "branch", "--lambdas=1e-300,0"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("switchbif: error: NoOrbitError")

    def test_decay_below_float_resolution_is_one_line_user_error(self, capsys):
        code, _, err = run(capsys, ["paper-example", "simulate", "--x0", "1e-300,0",
                                    "--t-max", "1000", "--lambda=-1.9"])
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("switchbif: error: OriginError")

    def test_start_outside_bounding_box_is_escape(self, capsys):
        code, _, err = run(capsys, ["paper-example", "poincare", "--x1", "1e300"])
        assert code == 2
        assert "EscapeError" in err

    def test_crossing_step_beyond_the_box_is_no_orbit(self, capsys, tmp_path):
        # a crossing step that leaves the bounding box is an escape, not a
        # failed event location, so the branch reports no orbit
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["integrator"] = {"rel_tol": 0.5}
        path = write_json(tmp_path / "loose.json", doc)
        code, out, err = run(capsys, ["branch", "--config", path, "--lambdas", "0.02,0.1,0.5",
                                      "--out", str(tmp_path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("switchbif: error: NoOrbitError")

    def test_deeply_nested_expression_is_one_line_user_error(self, capsys):
        nested = "(" * 1000 + "0" + ")" * 1000
        code, _, err = run(capsys, ["paper-example", "classify", "--lambda", nested])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("switchbif: error: ParseError")

    def test_overflowing_radius_is_one_line_user_error(self, capsys):
        code, out, err = run(capsys, ["paper-example", "verify-global",
                                      "--radius-m", "1e300", "--n-samples", "1000"])
        assert code == 1
        assert "pass" not in out
        assert err.count("\n") == 1 and "radius_M" in err

    def test_infinite_config_option_is_user_error(self, capsys, tmp_path):
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = {"radius_m": 1e400}   # json reads this as inf
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["verify-global", "--config", str(path)])
        assert code == 1
        assert "options.radius_m" in err

    @pytest.mark.parametrize("argv, error", [
        (["poincare", "--x1", "0.9"], "TangencyError"),
        (["branch", "--lambdas=0.1"], "NoOrbitError"),
    ])
    def test_return_in_one_event_is_numerical_failure(self, capsys, tmp_path, argv, error):
        # +5 x1^2 in the x2 field of q1 and q4 points region 1's field at
        # (x1, 0) upward for x1 > 0.2: no arc of region 1 ends there, so no
        # orbit leaves the positive x1-axis clockwise
        pert = {"comp2": [{"coeff_poly": [5], "pow1": 2, "pow2": 0}]}
        path = tmp_path / "one_event.json"
        path.write_text(json.dumps({"system": {
            "a": 0.1, "b_poly": [1], "c_poly": [1],
            "perturbations": {"q1": pert, "q4": pert}}}), encoding="utf-8")
        assert run(capsys, ["validate", "--config", str(path)])[0] == 0
        code, _, err = run(capsys, [argv[0], "--config", str(path), *argv[1:]])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"switchbif: error: {error}: ")

    @pytest.mark.parametrize("doc,location", [
        ({"system": {"a": 1, "b_poly": 1, "c_poly": [1]}}, "system.b_poly"),
        ({"system": {"a": 1, "b_poly": [], "c_poly": [1]}}, "system.b_poly"),
        ({"system": [1]}, "system"),
        ({"system": {"b_poly": [1], "c_poly": [1]}}, "system"),
        ({"system": {"a": 1, "b_poly": [1], "c_poly": [1],
                     "perturbations": {"q1": {"comp1": 5}}}}, "system.perturbations.q1.comp1"),
        ({"system": {"a": 1, "b_poly": [1], "c_poly": [1], "lambda_domain": [1]}},
         "system.lambda_domain"),
        ({"system": {"a": 1, "b_poly": [1], "c_poly": [1]}, "integrator": {"rel_tol": -1}},
         "integrator"),
    ], ids=["b_poly-not-a-list", "b_poly-empty", "system-not-an-object", "a-missing",
            "comp1-not-a-list", "lambda_domain-one-element", "rel_tol-negative"])
    def test_malformed_config_is_one_line_parse_error(self, capsys, tmp_path, doc, location):
        code, out, err = run(capsys, ["validate", "--config",
                                      write_json(tmp_path / "bad.json", doc)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"switchbif: error: ParseError: {location}: ")

    def test_degenerate_crossing_is_numerical_failure(self, capsys, tmp_path):
        # delta = 1 at lambda = 0 with delta'(0) = 0, since b'(0) = 0
        a = math.sqrt(2.0) * math.log(4.0) / (2.0 * math.pi)
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"system": {"a": a, "b_poly": [2, 0, 0, 1],
                                               "c_poly": [1]}}), encoding="utf-8")
        code, _, err = run(capsys, ["bifurcate", "--config", str(path),
                                    "--bracket=-0.5,0.4"])
        assert code == 2
        assert "DegenerateError" in err


class TestModuleEntryPoint:
    """``python -m switchbif.cli`` exits with ``main``'s code."""

    @pytest.mark.parametrize("argv,code", [
        (["paper-example", "classify"], 0),
        (["paper-example", "simulate", "--x0", "0,0", "--t-max", "1"], 1),
        (["simulate", "--config", "{turning_back}", "--x0", "0.5,0", "--n-events", "2"], 2),
    ], ids=["classify", "origin-start", "turning-back-start"])
    def test_exit_code(self, tmp_path, argv, code):
        config = write_json(tmp_path / "turning_back.json", TURNING_BACK)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "switchbif.cli",
             *(arg.format(turning_back=config) for arg in argv)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == code
        assert proc.stderr.count("\n") == (code != 0)
        assert "Traceback" not in proc.stderr


_VALUE = st.one_of(st.text(alphabet="0123456789.eEpi+-*/() x", max_size=24),
                   st.floats().map(repr), st.floats(-3.0, 40.0).map(repr),
                   st.integers(-10 ** 6, 10 ** 6).map(str))
#: amplitudes and times bounded, so that no example integrates for long
_AMPLITUDE = st.one_of(st.floats(-1.0, 3.0).map(repr),
                       st.sampled_from(["", "x", "0", "5e-324", "1e300", "pi/4"]))
_TIME = st.one_of(st.floats(-1.0, 5.0).map(repr), st.sampled_from(["", "x", "1/0"]))
_COUNT = st.one_of(st.integers(-2, 8).map(str), st.sampled_from(["x", "1.5", "1e3", ""]))
_STOP = st.one_of(st.just(["--return-to-section"]),
                  st.builds(lambda t: [f"--t-max={t}"], _TIME),
                  st.builds(lambda n: [f"--n-events={n}"], _COUNT))
_LAMBDA = st.one_of(st.floats(-2.5, 2.5).map(repr), _VALUE)
_ARGV = st.one_of(
    st.builds(lambda lam: ["classify", f"--lambda={lam}"], _VALUE),
    st.builds(lambda lam, x0, stops: ["simulate", f"--lambda={lam}", "--x0=" + ",".join(x0),
                                      *sum(stops, [])],
              _LAMBDA, st.one_of(st.lists(_AMPLITUDE, min_size=2, max_size=2),
                                 st.lists(_AMPLITUDE, max_size=3)),
              st.lists(_STOP, min_size=1, max_size=2)),
    st.builds(lambda lam, xs: ["poincare", f"--lambda={lam}", "--x1=" + ",".join(xs)],
              _LAMBDA, st.lists(_AMPLITUDE, min_size=1, max_size=2)),
    st.builds(lambda bracket: ["bifurcate", "--bracket=" + ",".join(bracket)],
              st.lists(_LAMBDA, max_size=3)),
    st.builds(lambda lams, x_max: ["branch", "--lambdas=" + ",".join(lams),
                                   f"--x-scan-max={x_max}"],
              st.lists(_LAMBDA, min_size=1, max_size=2),
              st.one_of(st.floats(-1.0, 10.0).map(repr), st.sampled_from(["", "x"]))),
    st.builds(lambda lams: ["delta-sweep", "--lambdas=" + ",".join(lams)],
              st.lists(_VALUE, max_size=4)),
    st.builds(lambda lam, radius, n: ["verify-global", f"--lambda={lam}",
                                      f"--radius-m={radius}", f"--n-samples={n}"],
              _VALUE, _VALUE,
              st.one_of(st.integers(-2, 1000).map(str), st.sampled_from(["x", "1.5", "1e3", ""]))))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_ARGV)
def test_fuzzed_flags_end_with_an_exit_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["paper-example", *argv])
    assert code in (0, 1, 2, 3)
    # verify-global exits 2 on a failed check without an error message
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
