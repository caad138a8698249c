"""The README's lists of integrator keys, exit codes, subcommands and absolute
constants and its global-check block size match the code, its library example
prints what its comments say, and the package stays within ROADMAP.md's line
cap and imports only the standard library and numpy."""

import ast
import contextlib
import dataclasses
import inspect
import io
import re
import sys
from pathlib import Path

from switchbif import IntegratorConfig, bifurcation, errors, numeric
from switchbif.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: ROADMAP.md's cap on the lines of src/switchbif/*.py
LINE_CAP = 2_700


def test_integrator_keys_match_config_fields():
    bullet = re.search(r"^- `integrator`: optional overrides of (.*?)\.", README,
                       re.MULTILINE | re.DOTALL)
    assert bullet is not None
    listed = re.findall(r"`(\w+)`", bullet.group(1))
    assert listed == [f.name for f in dataclasses.fields(IntegratorConfig)]


def test_exit_code_table_lists_every_error():
    rows = re.findall(r"^\| (\d) \| [^|]* \| (.*) \|$", README, re.MULTILINE)
    listed = {name: int(code) for code, names in rows
              for name in re.findall(r"`(\w+)`", names)}
    classes = {name: cls.exit_code for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SwitchBifError)}
    assert listed == classes


def test_subcommand_table_lists_every_command():
    table = re.search(r"^\| subcommand .*?\n\n", README, re.MULTILINE | re.DOTALL)
    assert table is not None
    assert re.findall(r"^\| `([\w-]+)` ", table.group(0), re.MULTILINE) == list(_COMMANDS)


def test_library_example_prints_its_comments():
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    printed = out.getvalue().splitlines()
    assert printed[:2] == ["1.0000000000000002", "BranchDirection.BranchForPositiveLambda"]
    calls = [line for line in block.group(1).splitlines() if line.startswith("print(")]
    for call, value in zip(calls[:2], printed):
        assert call.split("# ", 1)[1].startswith(value)


def test_global_check_block_size_matches_the_code():
    stated = re.findall(r"blocks of 2\^(\d+) points", README)
    assert stated and all(1 << int(e) == bifurcation._BLOCK for e in stated)


def test_absolute_constants_match_the_code():
    rows = re.findall(r"^  \| `([\w.]+)` \| [^|]* \| ([^ |]+) \|", README, re.MULTILINE)
    code = {"numeric._ESCAPE_RADIUS": numeric._ESCAPE_RADIUS,
            "numeric._MAX_ARC_TIME": numeric._MAX_ARC_TIME,
            "bifurcation._X_SCAN_MIN": bifurcation._X_SCAN_MIN,
            "IntegratorConfig.abs_tol": IntegratorConfig(rel_tol=1.0).abs_tol,
            "numeric._H0": numeric._H0,
            "numeric._MAX_STEP": numeric._MAX_STEP}
    assert {name: float(value) for name, value in rows} == code


def test_source_stays_within_the_line_cap():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (ROOT / "src" / "switchbif").glob("*.py"))
    assert lines <= LINE_CAP, f"src/switchbif/*.py has {lines} lines, over the cap of {LINE_CAP}"


def test_numpy_is_the_only_runtime_dependency():
    allowed = {*sys.stdlib_module_names, "numpy", "switchbif"}
    for path in (ROOT / "src" / "switchbif").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(n.split(".")[0] in allowed for n in names), f"{path.name} imports {names}"
