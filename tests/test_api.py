from __future__ import annotations

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
