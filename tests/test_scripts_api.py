"""The demos and tools/bitwise_oracle.py against the package's API, without
running them: every name they import from switchpass, and every attribute
they read off an imported switchpass module, must exist."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tools" / "bitwise_oracle.py"]


def _is_switchpass(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "switchpass"


def _member(module: types.ModuleType, name: str):
    """module.name, importing it first if it is a submodule; None if absent."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def missing_names(source: str) -> list[str]:
    """`line: module.name` for each switchpass name the source uses that does not exist."""
    tree = ast.parse(source)
    bound: dict[str, types.ModuleType] = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_switchpass(alias.name):
                    module = importlib.import_module(alias.name)
                    if alias.asname is None:
                        bound["switchpass"] = importlib.import_module("switchpass")
                    else:
                        bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and _is_switchpass(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _member(module, alias.name)
                if value is None:
                    missing.append(f"{node.lineno}: {node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    bound[alias.asname or alias.name] = value

    def resolve(node):
        """The module an expression names, if it names one."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            value = None if owner is None else _member(owner, node.attr)
            return value if isinstance(value, types.ModuleType) else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None and _member(owner, node.attr) is None:
                missing.append(f"{node.lineno}: {owner.__name__}.{node.attr}")
    return sorted(missing)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_only_names_that_exist(path):
    assert missing_names(path.read_text(encoding="utf-8")) == []


def test_a_missing_name_is_reported():
    source = (
        "from switchpass import evaluation as ev\n"
        "from switchpass.routing import DEFAULT_TARGET_LIGHT_FRACTION, no_such_name\n"
        "import switchpass.model as mdl\n"
        "import switchpass\n"
        "ev.quality_parity\n"
        "ev.no_such_report(1)\n"
        "mdl.SwitchedAutoencoder.passes\n"
        "switchpass.routing.no_such_constant\n"
    )
    assert missing_names(source) == [
        "2: switchpass.routing.no_such_name",
        "6: switchpass.evaluation.no_such_report",
        "8: switchpass.routing.no_such_constant",
    ]
