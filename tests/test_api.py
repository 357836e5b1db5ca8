from __future__ import annotations

import ast
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
