"""Every ``from repro... import name`` in ``examples/*.py`` resolves.

The examples are only run end to end in CI; this parses them with ``ast`` and
imports just the named symbols, so an example still importing a deleted or
renamed name fails here in milliseconds.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def _repro_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, "")
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_repro_imports_resolve(path):
    imports = _repro_imports(path)
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name and not hasattr(module, name):
            # ``from package import submodule`` is a valid import too.
            importlib.import_module(f"{module_name}.{name}")
