"""Every ``src/repro`` module is reached from code that is not a test.

A module that only its own tests import is code the toolkit does not run:
no CLI path, library caller, benchmark, example or perfbench workload
depends on it.  This guard reads imports with :mod:`ast` only (nothing of
``repro`` is imported) and fails on any such module, so new code arrives
with a caller or is deleted.

A module M counts as reached when a non-test file

* imports M, or a name from M;
* imports from a package a name that the package's ``__init__`` re-exports
  from M (``from repro.serve import ServeClient`` reaches
  ``repro.serve.client``), following re-exports through nested packages; or
* is M's own package ``__init__`` importing M as a module for its side
  effects (``from . import builtin``).

M's own package ``__init__`` re-exporting names from M does not reach it.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NON_TEST_DIRS = (SRC / "repro", ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")

#: Modules kept although nothing outside ``tests/`` reaches them yet: each is
#: a future row of the paper-claims table (ROADMAP, "Paper claims as one
#: machine-checked table") -- Eq. 2's per-user decomposition and the
#: embodied-carbon breakeven.  ``test_exemption_is_still_unreached`` fails
#: once either gains a caller, so the exemption cannot go stale.
EXEMPT = frozenset({"repro.core.user_level", "repro.tracking.embodied"})


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


SRC_FILES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in SRC_FILES.items() if path.name == "__init__.py"}
MODULES = sorted(name for name in SRC_FILES if name not in PACKAGES)


def _parent_package(name: str) -> str:
    return name.rpartition(".")[0]


def _resolve_from(importer: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute module named by a ``from ... import`` in module ``importer``."""
    if not node.level:
        return node.module or ""
    base = importer if is_package else _parent_package(importer)
    for _ in range(node.level - 1):
        base = _parent_package(base)
    return f"{base}.{node.module}" if node.module else base


def _imports(path: pathlib.Path, importer: str | None) -> list[tuple[str, str | None]]:
    """``(module, name)`` pairs one file imports; ``name`` is None for ``import x``."""
    is_package = path.name == "__init__.py"
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and importer is None:
                continue  # relative import outside the package
            module = _resolve_from(importer or "", is_package, node)
            found.extend((module, alias.name) for alias in node.names)
    return found


#: For each package, the module each name its ``__init__`` imports comes from.
REEXPORTS = {
    package: {
        name: module
        for module, name in _imports(SRC_FILES[package], package)
        if name is not None
    }
    for package in PACKAGES
}


def _reached_by(module: str, name: str | None) -> str | None:
    """The ``src/repro`` module one ``(module, name)`` import reaches, if any."""
    seen: set[str] = set()
    while module not in seen:
        seen.add(module)
        if module in SRC_FILES and module not in PACKAGES:
            return module
        if module not in PACKAGES or name is None:
            return None
        if f"{module}.{name}" in SRC_FILES:
            return f"{module}.{name}"
        if name not in REEXPORTS[module]:
            return None
        module = REEXPORTS[module][name]
    return None


@functools.cache
def unreached_modules() -> frozenset[str]:
    reached: set[str] = set()
    for directory in NON_TEST_DIRS:
        inside_src = directory == SRC / "repro"
        for path in sorted(directory.rglob("*.py")):
            importer = _module_name(path) if inside_src else None
            own_init = path.name == "__init__.py"
            for module, name in _imports(path, importer):
                target = _reached_by(module, name)
                if target is None:
                    continue
                reexport = name is not None and module == target
                if own_init and reexport and _parent_package(target) == importer:
                    # A package's own __init__ re-exporting names from a
                    # submodule does not reach it; ``from . import mod`` does.
                    continue
                reached.add(target)
    return frozenset(MODULES) - reached


class TestReach:
    def test_module_list_is_read_from_src(self):
        # An empty glob would leave the parametrized cases below with
        # nothing to check; pin a few modules every layer depends on.
        assert {"repro.cli", "repro.units", "repro.serve.client"} <= set(MODULES)
        assert EXEMPT <= set(MODULES), "an exempt module no longer exists"

    @pytest.mark.parametrize("module", sorted(set(MODULES) - EXEMPT))
    def test_module_is_reached_outside_tests(self, module):
        assert module not in unreached_modules(), (
            f"{module} is reached only by tests; "
            "give it a caller outside tests/ or delete it"
        )

    @pytest.mark.parametrize("module", sorted(EXEMPT))
    def test_exemption_is_still_unreached(self, module):
        assert module in unreached_modules(), (
            f"exempt module {module} is now reached; drop it from EXEMPT"
        )
