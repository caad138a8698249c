import json
import math

import pytest

from switchbif.cli import main
from switchbif.config import emit_canonical, paper_example_config

BAD_SYSTEM = """
{
  "system": {"a": "-1", "b_poly": [1], "c_poly": [1], "lambda_domain": [-1, 1]}
}
"""


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

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["classify", "--config", "/nonexistent.json"])
        assert code == 1
        assert "cannot read config file" in err

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
        assert lines[2].startswith("0,0.001,0,")

    def test_event_rows_flagged(self, capsys):
        code, out, _ = run(capsys, ["paper-example", "simulate", "--lambda", "0.1",
                                    "--x0", "1,0", "--n-events", "4"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        events = [r for r in rows if r[4] == "1"]
        assert len(events) == 4
        # event rows sit on alternating axes
        assert abs(float(events[0][0]) - 0.0) < math.inf
        assert abs(float(events[0][1])) < 1e-10  # first crossing: x1 ~ 0
        assert abs(float(events[1][2])) < 1e-10  # second crossing: x2 ~ 0

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

    def test_no_orbit_exit_code(self, capsys):
        code, _, err = run(capsys, ["paper-example", "branch", "--lambdas=-0.05"])
        assert code == 2
        assert "NoOrbit" in err


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


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["verify-global", "--n-samples", "0"],
        ["verify-global", "--radius-m=-1"],
        ["verify-global", "--n-samples", "abc"],
        ["simulate", "--n-events", "0"],
        ["simulate", "--x0", "1,0", "--t-max=-1"],
        ["simulate", "--x0", "1,2,3", "--t-max", "1"],
        ["delta-sweep", "--lambda-min", "0", "--lambda-max", "1", "--n", "0"],
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

    def test_bad_config_option_names_its_key(self, capsys, tmp_path):
        doc = json.loads(emit_canonical(paper_example_config()))
        doc["options"] = {"n_samples": 0}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, ["verify-global", "--config", str(path)])
        assert code == 1
        assert "options.n_samples" in err

    def test_start_outside_bounding_box_is_escape(self, capsys):
        code, _, err = run(capsys, ["paper-example", "poincare", "--x1", "1e300"])
        assert code == 2
        assert "EscapeError" in err
