from __future__ import annotations

import random
import sys
import time

import pytest

from csskit.errors import UnknownClassError
from csskit.model import WorldModel, validate_model
from csskit.taxonomy import Taxonomy, TaxonomyClass, is_subclass_of

from conftest import (
    oracle_is_subclass_of,
    oracle_structural_issues,
    sample_properties,
    sample_taxonomy,
)


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
    for _ in range(2):  # nothing is kept per query, so both answers agree
        with pytest.raises(UnknownClassError):
            is_subclass_of(dangling, "B", "A")
    under_dangling = Taxonomy(
        classes=(TaxonomyClass("C", parent="B"), *dangling.classes)
    )
    with pytest.raises(UnknownClassError):  # the walk goes on past "B"
        is_subclass_of(under_dangling, "C", "B")
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


def _small_tree(rng: random.Random) -> list[TaxonomyClass]:
    classes = [TaxonomyClass("c0")]
    for i in range(1, rng.randint(1, 9)):
        classes.append(TaxonomyClass(f"c{i}", parent=f"c{rng.randrange(i)}"))
    return classes


def _reparent(classes: list[TaxonomyClass], index: int, parent) -> None:
    classes[index] = TaxonomyClass(classes[index].id, parent=parent)


def _small_taxonomy(rng: random.Random, kind: str) -> Taxonomy:
    """One small taxonomy of the given kind, its entries in random order."""
    classes = [] if kind == "empty" else _small_tree(rng)
    ids = [c.id for c in classes]
    if kind == "roots":
        for index in rng.sample(range(len(classes)), rng.randint(1, len(classes))):
            _reparent(classes, index, None)
    elif kind == "dangling":
        _reparent(classes, rng.randrange(len(classes)), "gone")
    elif kind == "cycle":
        # reparent a class under one of its own descendants (or itself), so
        # the cycle keeps the rest of that subtree hanging below it
        index = rng.randrange(len(classes))
        tree = Taxonomy(classes=tuple(classes))
        below = [cid for cid in ids if oracle_is_subclass_of(tree, cid, ids[index])]
        _reparent(classes, index, rng.choice(below))
    elif kind == "duplicates":
        for _ in range(rng.randint(1, 3)):
            classes.append(TaxonomyClass(rng.choice(ids), rng.choice(ids + [None, "gone"])))
    elif kind == "wild":
        pool = [f"c{i}" for i in range(6)]
        classes = [
            TaxonomyClass(rng.choice(pool), rng.choice(pool + [None, "gone"]))
            for _ in range(rng.randint(0, 8))
        ]
    rng.shuffle(classes)
    return Taxonomy(classes=tuple(classes))


def _answer(subclass_test, tax: Taxonomy, a: str, b: str):
    try:
        return subclass_test(tax, a, b)
    except UnknownClassError as exc:
        return ("UnknownClassError", str(exc))


def test_tree_checks_and_subclass_tests_match_the_parent_walk_oracle():
    rng = random.Random(1982)
    kinds = ("empty", "tree", "roots", "dangling", "cycle", "duplicates", "wild", "wild")
    for n in range(400):
        tax = _small_taxonomy(rng, kinds[n % len(kinds)])
        assert tax.structural_issues() == oracle_structural_issues(tax), tax
        queried = sorted({"gone"}.union(*((c.id, c.parent or "gone") for c in tax.classes)))
        for a in queried:
            for b in queried:
                assert _answer(is_subclass_of, tax, a, b) == _answer(
                    oracle_is_subclass_of, tax, a, b
                ), (tax, a, b)


def _validated_in(classes: list[TaxonomyClass]) -> tuple[WorldModel, float]:
    start = time.perf_counter()
    world = WorldModel(
        taxonomy=Taxonomy(classes=tuple(classes)), property_defs=sample_properties()
    )
    report = validate_model(world)
    seconds = time.perf_counter() - start
    assert report.ok, report.errors()[:3]
    return world, seconds


def test_a_chain_deeper_than_the_recursion_limit_validates_within_a_second():
    depth = 20_000
    assert depth > sys.getrecursionlimit()
    classes = [TaxonomyClass("c0")]
    classes += [TaxonomyClass(f"c{i}", parent=f"c{i - 1}") for i in range(1, depth)]
    world, seconds = _validated_in(classes)
    assert seconds < 1.0
    bottom = f"c{depth - 1}"
    assert is_subclass_of(world.taxonomy, bottom, "c0")
    assert not is_subclass_of(world.taxonomy, "c0", bottom)


def test_a_broad_taxonomy_validates_within_a_second():
    rng = random.Random(40)
    depth = {"c0": 0}
    shallow = ["c0"]  # classes that may still take children
    classes = [TaxonomyClass("c0")]
    for i in range(1, 40_000):
        parent = rng.choice(shallow)
        classes.append(TaxonomyClass(f"c{i}", parent=parent))
        depth[f"c{i}"] = depth[parent] + 1
        if depth[f"c{i}"] < 5:
            shallow.append(f"c{i}")
    assert max(depth.values()) <= 5  # at most 6 levels
    world, seconds = _validated_in(classes)
    assert seconds < 1.0
    leaf = max(depth, key=depth.get)
    assert is_subclass_of(world.taxonomy, leaf, "c0")
    assert not is_subclass_of(world.taxonomy, "c0", leaf)
