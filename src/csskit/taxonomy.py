"""Class taxonomy with tree subsumption and closed-world sibling disjointness."""

from __future__ import annotations

from collections import Counter
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
    classes on different branches are disjoint. The tree is numbered once in
    preorder (Dietz, STOC 1982): each class reachable from a parentless class
    gets a span ``(entry, exit)`` holding the entries of exactly its subtree.
    """

    classes: tuple[TaxonomyClass, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _spans: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        by_id = {c.id: c for c in self.classes}
        children: dict[str | None, list[str]] = {}
        for cls in by_id.values():
            children.setdefault(cls.parent, []).append(cls.id)
        spans: dict[str, tuple[int, int]] = {}
        entered = 0
        stack = [(root, None) for root in children.get(None, ())]
        while stack:
            class_id, entry = stack.pop()
            if entry is None:
                stack.append((class_id, entered))
                stack += [(child, None) for child in children.get(class_id, ())]
                entered += 1
            else:
                spans[class_id] = (entry, entered)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_spans", spans)

    def has_class(self, class_id: str) -> bool:
        return class_id in self._by_id

    def get(self, class_id: str) -> TaxonomyClass:
        cls = self._by_id.get(class_id)
        if cls is None:
            raise UnknownClassError(f"class {class_id!r} is not in the taxonomy")
        return cls

    def structural_issues(self) -> list[str]:
        """Tree-shape defects; empty when the taxonomy is a proper tree."""
        counts = Counter(c.id for c in self.classes)
        issues = [f"duplicate class id {i!r}" for i in sorted(counts) if counts[i] > 1]
        roots = sum(c.parent is None for c in self.classes)
        if not self.classes:
            issues.append("taxonomy has no classes")
        elif roots != 1:
            issues.append(f"taxonomy must have exactly one root, found {roots}")
        # unnumbered classes and missing parents -> whether the chain ends in a cycle
        ends_in_cycle: dict[str, bool] = {}
        for cls in self.classes:
            if cls.parent is not None and cls.parent not in self._by_id:
                issues.append(f"class {cls.id!r} references unknown parent {cls.parent!r}")
                ends_in_cycle[cls.parent] = False
        for class_id in self._by_id.keys() - self._spans.keys():
            path: dict[str, None] = {}
            while class_id not in path and class_id not in ends_in_cycle:
                path[class_id] = None
                class_id = self._by_id[class_id].parent  # never None: not a root
            ends_in_cycle.update(dict.fromkeys(path, ends_in_cycle.get(class_id, True)))
        issues += [f"parent chain of class {c.id!r} contains a cycle"
                   for c in self.classes if ends_in_cycle.get(c.parent)]
        return issues


def is_subclass_of(tax: Taxonomy, a: str, b: str) -> bool:
    """True iff ``a`` equals ``b`` or ``b`` is an ancestor of ``a``."""
    spans = tax._spans
    if a in spans and b in spans:
        entry_b, exit_b = spans[b]
        return entry_b <= spans[a][0] < exit_b
    cls = tax.get(a)
    tax.get(b)
    if a == b or a in spans:
        return a == b  # a numbered class has only numbered ancestors
    # unnumbered: walk the whole chain, so a missing parent raises past ``b``
    seen = {a}
    while cls.parent not in seen:
        seen.add(cls.parent)
        cls = tax.get(cls.parent)
    return b in seen
