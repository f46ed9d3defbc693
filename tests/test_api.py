"""The public names resolve, and the runtime imports only the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import hilbloc

PACKAGE = Path(hilbloc.__file__).parent
MODULES = sorted(
    {"hilbloc"}
    | {
        f"hilbloc.{m.name}"
        for m in pkgutil.iter_modules([str(PACKAGE)])
        if m.name != "__main__"  # importing it would run the CLI
    }
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def test_runtime_imports_only_the_standard_library():
    foreign = {
        (path.name, top)
        for path in sorted(PACKAGE.glob("*.py"))
        for top in _imported_modules(path)
        if top != "hilbloc" and top not in sys.stdlib_module_names
    }
    assert not foreign
