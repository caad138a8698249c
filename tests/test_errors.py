"""Exit codes belong to the error families, and no code raises the bare base."""

import ast
import inspect
from pathlib import Path

from switchbif import errors

SRC = Path(errors.__file__).resolve().parent


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.SwitchBifError)]


def test_exit_code_is_set_once_per_family():
    assert {cls.__name__ for cls in _error_classes() if "exit_code" in vars(cls)} == {
        "SwitchBifError", "UserError", "NumericalError"}
    assert {cls.__name__ for cls in _error_classes() if cls.exit_code == 3} == {"SwitchBifError"}


def test_integration_failures_are_integration_errors():
    assert {cls.__name__ for cls in _error_classes()
            if issubclass(cls, errors.IntegrationError)} == {
        "IntegrationError", "TangencyError", "BudgetError", "StiffnessError", "EscapeError"}


def test_no_module_raises_the_bare_base_class():
    # exit 3 is kept for internal errors: every deliberate raise names a family
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (getattr(exc, "id", None) or getattr(exc, "attr", None)) == "SwitchBifError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
