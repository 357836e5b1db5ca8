from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import csskit

#: public names deleted because nothing in the package, the benchmark or the CLI needed them
DELETED = (
    "DISJOINT_CLASS",
    "ExecuteOptions",
    "SimulatedClock",
    "canonicalize_unit",
    "class_relation",
    "conjoin",
    "evaluate_expression",
    "expression_to_text",
    "normal_form_to_expression",
    "resolve_capability",
    "satisfiable",
    "world_to_doc",
)


def test_every_exported_name_resolves():
    missing = [name for name in csskit.__all__ if not hasattr(csskit, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(csskit.__all__) == len(set(csskit.__all__))


def test_deleted_names_are_not_exported():
    assert [name for name in DELETED if name in csskit.__all__ or hasattr(csskit, name)] == []


def test_the_client_has_no_test_only_paths():
    """Tests send raw lines through ``conftest``'s wires, not through a client."""
    from csskit.protocol import SkillClient

    assert [name for name in ("send_raw", "next_stray") if hasattr(SkillClient, name)] == []


def test_package_imports_only_the_standard_library():
    """csskit is stdlib-only: every absolute import (``__future__`` among them)
    names a standard module."""
    paths = sorted(Path(csskit.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_module_parses_at_the_oldest_supported_python():
    """No module uses syntax newer than ``requires-python`` allows, such as
    ``except*`` (3.11) or a ``type`` statement (3.12)."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    refused = []
    for path in sorted(Path(csskit.__file__).parent.glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
        except SyntaxError as exc:
            refused.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert refused == []


def _module_level_imports(tree):
    """Import statements of a module body and of its top-level ``if`` blocks
    (``if TYPE_CHECKING:``); imports inside functions or classes are left out."""
    for node in tree.body:
        for statement in node.body + node.orelse if isinstance(node, ast.If) else [node]:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                yield statement


def test_every_module_import_is_used():
    """Each module-level import of a package module (``__init__`` re-exports,
    so it is left out) is used in its module, or its line says why not with
    ``# noqa: F401 - reason``."""
    paths = sorted(Path(csskit.__file__).parent.glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound in used or re.search(r"# noqa: F401 - \S", lines[alias.lineno - 1]):
                    continue
                unused.append(f"{path.name}:{alias.lineno}: {bound}")
    assert unused == []


#: package modules built on the data model, which ``model`` must not import
ABOVE_MODEL = {
    "matching", "market", "skills", "protocol", "hosting", "orchestrate", "documents", "cli",
}


def test_model_imports_no_layer_above_it():
    """``model``'s module-level and ``TYPE_CHECKING`` imports name no module
    that is built on it."""
    source = (Path(csskit.__file__).parent / "model.py").read_text(encoding="utf-8")
    imported = set()
    for node in _module_level_imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:  # "from . import x" names module x, "from .x import y" module x
            module = ".".join(filter(None, ["csskit" if node.level else "", node.module]))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        imported.update(name.split(".")[1] for name in names if name.startswith("csskit."))
    assert sorted(imported & ABOVE_MODEL) == []
    assert "expressions" in imported  # the walk sees relative imports
