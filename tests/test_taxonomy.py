from __future__ import annotations

import pytest

from csskit.errors import UnknownClassError
from csskit.taxonomy import Taxonomy, TaxonomyClass, is_subclass_of

from conftest import sample_taxonomy


def test_parent_edge():
    tax = sample_taxonomy()
    assert is_subclass_of(tax, "Drilling", "Separating")


def test_reflexive():
    tax = sample_taxonomy()
    assert is_subclass_of(tax, "Drilling", "Drilling")


def test_siblings_are_not_subclasses():
    tax = sample_taxonomy()
    assert not is_subclass_of(tax, "Drilling", "Milling")
    assert not is_subclass_of(tax, "Milling", "Drilling")


def test_transitive_to_root():
    tax = sample_taxonomy()
    assert is_subclass_of(tax, "Drilling", "ManufacturingProcess")


def test_unknown_class():
    tax = sample_taxonomy()
    with pytest.raises(UnknownClassError):
        is_subclass_of(tax, "Drilling", "Gluing")


def test_partial_order_on_sample_taxonomy():
    """Reflexive, antisymmetric and transitive over all class pairs."""
    tax = sample_taxonomy()
    ids = [cls.id for cls in tax.classes]
    for a in ids:
        assert is_subclass_of(tax, a, a)
    for a in ids:
        for b in ids:
            if a != b and is_subclass_of(tax, a, b):
                assert not is_subclass_of(tax, b, a)
            for c in ids:
                if is_subclass_of(tax, a, b) and is_subclass_of(tax, b, c):
                    assert is_subclass_of(tax, a, c)


def test_partial_order_on_larger_random_tree():
    import random

    rng = random.Random(17)
    classes = [TaxonomyClass("c0")]
    for i in range(1, 60):
        parent = f"c{rng.randrange(i)}"
        classes.append(TaxonomyClass(f"c{i}", parent=parent))
    tax = Taxonomy(classes=tuple(classes))
    assert tax.structural_issues() == []
    ids = [cls.id for cls in tax.classes]
    below = {a: {b for b in ids if is_subclass_of(tax, a, b)} for a in ids}
    for a in ids:
        assert a in below[a]
        for b in below[a]:
            if a != b:
                assert a not in below[b]  # antisymmetry
            assert below[b] <= below[a] | below[b]  # sanity
            for c in below[b]:
                assert c in below[a]  # transitivity


def test_class_relation():
    tax = sample_taxonomy()
    assert is_subclass_of(tax, "Drilling", "Drilling")
    assert is_subclass_of(tax, "Drilling", "Separating")
    assert not is_subclass_of(tax, "Separating", "Drilling")
    assert not is_subclass_of(tax, "Drilling", "Screwing")
    assert not is_subclass_of(tax, "Screwing", "Drilling")


def test_structural_issues():
    ok = sample_taxonomy()
    assert ok.structural_issues() == []

    two_roots = Taxonomy(classes=(TaxonomyClass("A"), TaxonomyClass("B")))
    assert any("exactly one root" in msg for msg in two_roots.structural_issues())

    dangling = Taxonomy(
        classes=(TaxonomyClass("A"), TaxonomyClass("B", parent="Missing"))
    )
    assert any("unknown parent" in msg for msg in dangling.structural_issues())

    cyclic = Taxonomy(
        classes=(
            TaxonomyClass("Root"),
            TaxonomyClass("A", parent="B"),
            TaxonomyClass("B", parent="A"),
        )
    )
    assert any("cycle" in msg for msg in cyclic.structural_issues())

    duplicated = Taxonomy(classes=(TaxonomyClass("A"), TaxonomyClass("A")))
    assert any("duplicate class id" in msg for msg in duplicated.structural_issues())


def test_subclass_tests_on_broken_trees():
    dangling = Taxonomy(
        classes=(TaxonomyClass("A"), TaxonomyClass("B", parent="Missing"))
    )
    for _ in range(2):  # the second answer comes from the kept ancestor set
        with pytest.raises(UnknownClassError):
            is_subclass_of(dangling, "B", "A")
    cyclic = Taxonomy(
        classes=(
            TaxonomyClass("Root"),
            TaxonomyClass("A", parent="B"),
            TaxonomyClass("B", parent="A"),
        )
    )
    for _ in range(2):
        assert is_subclass_of(cyclic, "A", "B")
        assert not is_subclass_of(cyclic, "A", "Root")
