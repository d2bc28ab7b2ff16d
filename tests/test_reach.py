"""Every ``src/repro`` module, public name, method and import is used outside tests.

A module or function that only its own tests reach is code the toolkit does
not run: no CLI path, library caller, benchmark, example or perfbench
workload depends on it.  These guards read source with :mod:`ast` only
(nothing of ``repro`` is imported) and fail, one case per module, on

* a module no non-test file reaches (below);
* a public top-level function or class no non-test file names.  A name
  counts when it appears as a name, an attribute or an imported name in a
  non-test file; an import in a package ``__init__`` (a re-export) and an
  entry of ``__all__`` do not count;
* a public method, property or classmethod of a public top-level class that
  no non-test file names.  A method counts as named when its name appears as
  an attribute or a whole string constant in a non-test file
  (``perfbench/layers.py`` wraps methods by name string); a bare name such
  as a local variable does not count, and neither does its own ``def``.
  Names are matched without their class, so a method shares its fate with
  every other of the same name: the check cannot see an unused method whose
  name a builtin container method also carries (every ``list.clear()`` call
  names a ``clear``).  State probes that tests compare against are listed in
  ``EXEMPT_METHODS``, each with its reason; an exempt case fails once its
  method gains a non-test name or no test names it any more;
* a module-level import the module never uses.  An unused import would
  otherwise make the imported name look used to the check above.  The
  test files under ``tests/`` are scanned for unused imports too.

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

#: Public methods kept although only tests name them, keyed ``module.Class.method``.
EXEMPT_METHODS = {
    "repro.cluster.resources.Cluster.n_occupied_nodes": "state probe the parity tests compare",
    "repro.cluster.resources.Cluster.snapshot_state": "whole-pool state the parity tests compare",
    "repro.cluster.resources.Cluster.undrain_all": (
        "moves the state-parity random walk out of drained states; it stalls without it"
    ),
    "repro.grid.storage.BatteryStorage.soc_kwh": "battery total the storage tests check",
    "repro.grid.storage.BatteryStorage.total_charged_kwh": "battery total the storage tests check",
    "repro.grid.storage.BatteryStorage.total_discharged_kwh": (
        "battery total the storage tests check"
    ),
    "repro.telemetry.nvml_sim.SimulatedNvml.total_energy_j": (
        "device-side energy the sampler's integrated energy is checked against"
    ),
    "repro.experiments.campaign.CampaignResult.column": "typed read of a result the tests compare",
    "repro.experiments.result.ExperimentResult.column": "typed read of a result the tests compare",
    "repro.experiments.result.ExperimentResult.scalar": "typed read of a result the tests compare",
    "repro.serve.client.ServeClient.list_sessions": "the client's twin of the daemon's GET /sessions",
}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


SRC_FILES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in SRC_FILES.items() if path.name == "__init__.py"}
MODULES = sorted(name for name in SRC_FILES if name not in PACKAGES)
TEST_FILES = sorted(path.name for path in (ROOT / "tests").glob("*.py"))


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
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and importer is None:
                continue  # relative import outside the package
            module = _resolve_from(importer or "", is_package, node)
            found.extend((module, alias.name) for alias in node.names)
    return found


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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


#: Decorators that register what they decorate, so the registry is its caller.
REGISTERING_DECORATORS = frozenset({"experiment"})


def _registered(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Name)
        and decorator.func.id in REGISTERING_DECORATORS
        for decorator in node.decorator_list
    )


def public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes one module defines, bar registered ones."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not _registered(node)
    ]


def names_used(tree: ast.Module, *, is_package: bool) -> set[str]:
    """Every name one file mentions; a package ``__init__``'s imports do not count."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_package:
            names.update(alias.name for alias in node.names)
    return names


@functools.cache
def names_used_outside_tests() -> frozenset[str]:
    names: set[str] = set()
    for directory in NON_TEST_DIRS:
        for path in sorted(directory.rglob("*.py")):
            names |= names_used(_parse(path), is_package=path.name == "__init__.py")
    return frozenset(names)


def public_methods(tree: ast.Module) -> list[str]:
    """``Class.method`` for each public method, property and classmethod of a public class."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def attribute_names(tree: ast.Module) -> set[str]:
    """Every attribute and whole string constant one file mentions.

    Bare names do not count: a method is called through an attribute, so a
    local variable that shares its name does not name it.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unnamed_methods(tree: ast.Module, named: set[str] | frozenset[str]) -> list[str]:
    """``Class.method`` for each public method of ``tree`` whose name is not in ``named``."""
    return [method for method in public_methods(tree) if method.rpartition(".")[2] not in named]


def _attribute_names_in(paths) -> frozenset[str]:
    return frozenset().union(*(attribute_names(_parse(path)) for path in paths))


@functools.cache
def attribute_names_outside_tests() -> frozenset[str]:
    return _attribute_names_in(
        path for directory in NON_TEST_DIRS for path in sorted(directory.rglob("*.py"))
    )


@functools.cache
def attribute_names_in_tests() -> frozenset[str]:
    """What the other test files name; this file's exempt keys would name every entry."""
    this_file = pathlib.Path(__file__).resolve()
    return _attribute_names_in(
        path for path in sorted((ROOT / "tests").rglob("*.py")) if path.resolve() != this_file
    )


def _module_level(body: list[ast.stmt]):
    """Statements at module level, including those under ``if``/``try``."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", [])):
                yield from _module_level(block)
            for handler in getattr(stmt, "handlers", []):
                yield from _module_level(handler.body)


def _quoted_annotation_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations (``simulator: "ClusterSimulator"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports the module never uses (``__all__`` entries count as use)."""
    bound: dict[str, int] = {}
    for stmt in _module_level(tree.body):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _quoted_annotation_names(tree)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            used.update(ast.literal_eval(stmt.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


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

    def test_definition_and_import_lists_are_read_from_src(self):
        # Both checks below pass vacuously on empty inputs; pin a few names
        # and imports every layer depends on.
        assert "main" in public_definitions(_parse(SRC_FILES["repro.cli"]))
        assert "ServeClient" in public_definitions(_parse(SRC_FILES["repro.serve.client"]))
        assert {"main", "ServeClient", "run_campaign"} <= names_used_outside_tests()
        cli = _parse(SRC_FILES["repro.cli"])
        assert any(isinstance(stmt, ast.ImportFrom) for stmt in _module_level(cli.body))

    def test_checks_flag_a_synthetic_unused_definition_and_import(self):
        tree = ast.parse(
            "import os\n"
            "from typing import Optional\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from .sim import Simulator\n"
            "def used(x: Optional[int], sim: 'Simulator') -> int:\n"
            "    return x\n"
            "def orphan():\n"
            "    return used(1)\n"
        )
        assert unused_imports(tree) == ["os (line 1)"]
        named = names_used(tree, is_package=False)
        assert [n for n in public_definitions(tree) if n not in named] == ["orphan"]
        # A package __init__'s re-export does not name what it imports.
        reexport = ast.parse("from .mod import orphan\n")
        assert "orphan" not in names_used(reexport, is_package=True)
        assert "orphan" in names_used(reexport, is_package=False)
        # A definition that a decorator registers is used by its registry.
        registered = ast.parse("@experiment('demo')\ndef run_demo(session):\n    pass\n")
        assert public_definitions(registered) == []

    @pytest.mark.parametrize("module", sorted(set(MODULES) - EXEMPT))
    def test_public_names_are_named_outside_tests(self, module):
        unnamed = [
            name
            for name in public_definitions(_parse(SRC_FILES[module]))
            if name not in names_used_outside_tests()
        ]
        assert not unnamed, (
            f"{module}: {', '.join(unnamed)} named only by tests; "
            "give each a caller outside tests/ or delete it"
        )

    @pytest.mark.parametrize("module", MODULES)
    def test_module_has_no_unused_imports(self, module):
        unused = unused_imports(_parse(SRC_FILES[module]))
        assert not unused, f"{module} never uses its imports {', '.join(unused)}"

    @pytest.mark.parametrize("name", TEST_FILES)
    def test_test_file_has_no_unused_imports(self, name):
        unused = unused_imports(_parse(ROOT / "tests" / name))
        assert not unused, f"tests/{name} never uses its imports {', '.join(unused)}"

    def test_method_list_is_read_from_src(self):
        # An empty method list would pass the case below vacuously; pin a few
        # methods every layer depends on, and every exempt entry.
        scanned = {
            f"{module}.{method}"
            for module in MODULES
            for method in public_methods(_parse(SRC_FILES[module]))
        }
        assert {
            "repro.cluster.resources.Cluster.allocate",
            "repro.cluster.simulator.ClusterSimulator.run",
            "repro.serve.client.ServeClient.advance",
        } <= scanned
        assert set(EXEMPT_METHODS) <= scanned, "an exempt method no longer exists"
        assert {"allocate", "peek"} <= attribute_names_outside_tests()
        assert {"snapshot_state", "soc_kwh"} <= attribute_names_in_tests()

    def test_method_check_flags_a_synthetic_unnamed_method(self):
        tree = ast.parse(
            "class Model:\n"
            "    def orphan(self):\n"
            "        return 1\n"
            "    @property\n"
            "    def wrapped(self):\n"
            "        return self._private()\n"
            "    def _private(self):\n"
            "        return 2\n"
            "class _Hidden:\n"
            "    def unseen(self):\n"
            "        pass\n"
            "WRAPPED = ('wrapped',)\n"
            "def local():\n"
            "    orphan = 1\n"
            "    return orphan\n"
        )
        assert public_methods(tree) == ["Model.orphan", "Model.wrapped"]
        # A method's own ``def`` and a local variable of its name do not name
        # it; a string constant does (perfbench wraps methods by name string).
        assert unnamed_methods(tree, attribute_names(tree)) == ["Model.orphan"]

    @pytest.mark.parametrize("module", sorted(set(MODULES) - EXEMPT))
    def test_public_methods_are_named_outside_tests(self, module):
        tree = _parse(SRC_FILES[module])
        unnamed = [
            f"{module}.{method}"
            for method in unnamed_methods(tree, attribute_names_outside_tests())
            if f"{module}.{method}" not in EXEMPT_METHODS
        ]
        assert not unnamed, (
            f"{', '.join(unnamed)} named only by tests or by nothing; "
            "give each a caller outside tests/ or delete it"
        )

    @pytest.mark.parametrize("method", sorted(EXEMPT_METHODS))
    def test_method_exemption_is_still_test_only(self, method):
        name = method.rpartition(".")[2]
        assert name not in attribute_names_outside_tests(), (
            f"exempt method {method} is now named outside tests; drop it from EXEMPT_METHODS"
        )
        assert name in attribute_names_in_tests(), (
            f"exempt method {method} is named by no test any more; delete it"
        )
