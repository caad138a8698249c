"""Golden outputs of every ``paper-example`` subcommand.

Each case runs one subcommand with fixed flags and compares the files
it writes against ``tests/golden/<case>/``: comment lines, headers and
strings exactly, CSV row counts exactly, numbers at relative 1e-8.
Numbers near zero (axis coordinates at and next to switching events,
fixed-point residuals) are compared absolutely at 1e-10, the
integrator's default tolerance, which lies above the event and
fixed-point tolerances.

Regenerate the files after an intended output change with
``PYTHONPATH=src python tests/test_golden.py [CASE ...]``: only the
named cases, or every case when none is named.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from switchbif.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-8
ABS_TOL = 1e-10

CASES = {
    "validate": ["validate"],
    "simulate": ["simulate", "--lambda", "0.1", "--x0", "0.5,0", "--t-max", "10"],
    "poincare": ["poincare", "--lambda", "0.1", "--x1", "1e-4,0.5,1"],
    "classify": ["classify", "--lambda", "0.1"],
    "delta-sweep": ["delta-sweep", "--lambda-min", "-0.5", "--lambda-max", "0.5",
                    "--n", "11"],
    "bifurcate": ["bifurcate"],
    "branch": ["branch", "--lambdas", "0.02,0.05,0.1,0.5,1"],
    "verify-global": ["verify-global", "--lambda", "0.5", "--n-samples", "20000"],
}


def _run(case: str, out_dir: Path) -> int:
    return main(["paper-example", *CASES[case], "--out", str(out_dir)])


def _same_number(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_json(got, want, path: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _compare_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert not isinstance(got, bool) and isinstance(got, (int, float)), path
        assert _same_number(got, want), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


def _compare_csv(got: str, want: str, name: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: row count"
    for row, (g, w) in enumerate(zip(got_lines, want_lines)):
        if w.startswith("#") or row == 1:
            assert g == w, f"{name} line {row}"
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), f"{name} line {row}"
        for col, (gc, wc) in enumerate(zip(g_cells, w_cells)):
            assert _same_number(float(gc), float(wc)), \
                f"{name} line {row} column {col}: {gc} != {wc}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_paper_example_output_matches_golden(case, tmp_path, capsys):
    assert _run(case, tmp_path) == 0
    capsys.readouterr()
    want_dir = GOLDEN / case
    wanted = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == wanted
    for name in wanted:
        got = (tmp_path / name).read_text(encoding="utf-8")
        want = (want_dir / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            _compare_json(json.loads(got), json.loads(want), name)
        else:
            _compare_csv(got, want, name)


@pytest.mark.parametrize("case", ["branch", "delta-sweep", "poincare", "simulate"])
def test_csv_cells_are_plain_numbers(case, tmp_path, capsys):
    # each cell is the repr of a Python int or float, never of a numpy
    # scalar ("np.float64(...)") or a bool ("True")
    assert _run(case, tmp_path) == 0
    capsys.readouterr()
    (csv,) = tmp_path.glob("*.csv")
    for line in csv.read_text(encoding="utf-8").splitlines()[2:]:
        for cell in line.split(","):
            assert cell in (repr(float(cell)), repr(int(float(cell)))), f"{csv.name}: {line}"


#: the golden cases, which exit 0, and a sampled check that fails and exits 2
WRITER_CASES = {**{case: (argv, 0) for case, argv in CASES.items()},
                "verify-global-fail": (["verify-global", "--lambda", "-0.5",
                                        "--n-samples", "1000"], 2)}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_stdout_is_the_written_files_in_order(case, tmp_path, capsys):
    # without --out a command prints exactly the files it writes with --out,
    # in the order of its "wrote" lines, and exits alike
    argv, code = WRITER_CASES[case]
    assert main(["paper-example", *argv]) == code
    printed = capsys.readouterr().out
    assert main(["paper-example", *argv, "--out", str(tmp_path)]) == code
    wrote = capsys.readouterr().out.splitlines()
    assert wrote and all(line.startswith(f"wrote {tmp_path}") for line in wrote)
    assert printed == "".join(Path(line[len("wrote "):]).read_text(encoding="utf-8")
                              for line in wrote)


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(sorted(unknown))}; cases: {', '.join(sorted(CASES))}")
    for case in sorted(sys.argv[1:] or CASES):
        out = GOLDEN / case
        out.mkdir(parents=True, exist_ok=True)
        for old in out.iterdir():
            old.unlink()
        if _run(case, out) != 0:
            sys.exit(f"{case} failed")
