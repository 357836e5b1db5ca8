"""Class taxonomy with tree subsumption and closed-world sibling disjointness."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownClassError


@dataclass(frozen=True)
class TaxonomyClass:
    id: str
    parent: str | None = None
    label: str = ""


@dataclass(frozen=True)
class Taxonomy:
    """A single-rooted class tree.

    Closure semantics are built in: a class subsumes all its descendants and
    classes on different branches are disjoint.
    """

    classes: tuple[TaxonomyClass, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _ancestor_sets: dict = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {c.id: c for c in self.classes})
        object.__setattr__(self, "_ancestor_sets", {})

    def has_class(self, class_id: str) -> bool:
        return class_id in self._by_id

    def get(self, class_id: str) -> TaxonomyClass:
        cls = self._by_id.get(class_id)
        if cls is None:
            raise UnknownClassError(f"class {class_id!r} is not in the taxonomy")
        return cls

    def ancestors(self, class_id: str) -> tuple[str, ...]:
        """Ancestors from parent up to the root, excluding the class itself."""
        chain: list[str] = []
        current = self.get(class_id)
        seen = {class_id}
        while current.parent is not None:
            if current.parent in seen:
                break  # defensive against cyclic hand-built input
            chain.append(current.parent)
            seen.add(current.parent)
            current = self.get(current.parent)
        return tuple(chain)

    def ancestor_set(self, class_id: str) -> frozenset[str]:
        """``ancestors`` as a set, walked once per class and then kept.

        Kept sets never go stale because the taxonomy is immutable; two
        threads filling the same entry store equal sets.
        """
        found = self._ancestor_sets.get(class_id)
        if found is None:
            found = frozenset(self.ancestors(class_id))
            self._ancestor_sets[class_id] = found
        return found

    def structural_issues(self) -> list[str]:
        """Tree-shape defects; empty when the taxonomy is a proper tree."""
        issues: list[str] = []
        ids = [c.id for c in self.classes]
        for cid in sorted({i for i in ids if ids.count(i) > 1}):
            issues.append(f"duplicate class id {cid!r}")
        roots = [c.id for c in self.classes if c.parent is None]
        if not self.classes:
            issues.append("taxonomy has no classes")
        elif len(roots) != 1:
            issues.append(f"taxonomy must have exactly one root, found {len(roots)}")
        for cls in self.classes:
            if cls.parent is not None and cls.parent not in self._by_id:
                issues.append(f"class {cls.id!r} references unknown parent {cls.parent!r}")
        # cycle check: walk parents bounded by class count
        for cls in self.classes:
            hops = 0
            cur = cls
            while cur.parent is not None and cur.parent in self._by_id:
                cur = self._by_id[cur.parent]
                hops += 1
                if hops > len(self.classes):
                    issues.append(f"parent chain of class {cls.id!r} contains a cycle")
                    break
        return issues


def is_subclass_of(tax: Taxonomy, a: str, b: str) -> bool:
    """True iff ``a`` equals ``b`` or ``b`` is an ancestor of ``a``."""
    tax.get(a)
    tax.get(b)
    return a == b or b in tax.ancestor_set(a)

