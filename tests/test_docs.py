"""The README's lists of integrator keys, exit codes and subcommands match the code."""

import dataclasses
import inspect
import re
from pathlib import Path

from switchbif import IntegratorConfig, errors
from switchbif.cli import _COMMANDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
