"""Compatibility of required vs provided capabilities.

A match compares the two normal forms under closed-world closure (sibling
classes are disjoint, a class subsumes its descendants) and classifies how
the two satisfying sets relate:

    EXACT    same satisfying set
    PLUGIN   required strictly inside provided
    SUBSUME  provided strictly inside required
    INTERSECT joint satisfiability without containment
    DISJOINT  no common satisfying assignment

Cost is linear in the number of constrained properties; every check is a
per-property interval or member-set operation. Emptiness is decided from the
bounds (intervals by the larger lower against the smaller upper bound,
member sets by a disjointness test); an intersection is built only when a set
has excluded points, and ``PropertyComparison.intersection`` is computed on
read. The two subclass tests are made once per pair of classes (once per
class group when ranking) and serve both the class-disjoint check and
containment.

``rank_providers`` ranks the world's own capabilities. It normalizes the
required side once and walks the world's class groups
(``WorldModel.capabilities_by_class``). It decides each group's class
relation once, here and nowhere else, and skips a class-disjoint group whole,
so its members' normal forms are neither read nor kept. Each member of a
related group is compared against the one required normal form, using the
normal form the world keeps for it. ``match_normal_form`` takes a required
side its caller has already normalized: offer selection normalizes each
requested key once and compares every offer against that form. Provided
expressions from callers (offers, the CLI) are normalized per call and never
kept. Ranking and offer selection decide a ``MatchDegree`` only;
``match_capabilities`` alone builds ``MatchResult.per_property``, the
per-property explanation that ``csskit match`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .expressions import (
    CapabilityExpression,
    FeasibleSet,
    NormalForm,
    normalize,
)
from .model import WorldModel
from .taxonomy import is_subclass_of
from .values import Literal, fraction_to_number


class MatchDegree(Enum):
    EXACT = "EXACT"
    PLUGIN = "PLUGIN"
    SUBSUME = "SUBSUME"
    INTERSECT = "INTERSECT"
    DISJOINT = "DISJOINT"

    @property
    def rank(self) -> int:
        return _DEGREE_RANK[self]


#: EXACT 4, PLUGIN 3, SUBSUME 2, INTERSECT 1, DISJOINT 0
_DEGREE_RANK = {degree: 4 - i for i, degree in enumerate(MatchDegree)}


@dataclass(frozen=True)
class PropertyComparison:
    required: FeasibleSet
    provided: FeasibleSet

    @property
    def intersection(self) -> FeasibleSet:
        """The values both sides admit, computed on each read."""
        return self.required.intersect(self.provided)


@dataclass(frozen=True)
class MatchResult:
    degree: MatchDegree
    per_property: dict[str, PropertyComparison]

    @property
    def witness(self) -> dict[str, Literal] | None:
        """One member of every per-property intersection; None when DISJOINT."""
        if self.degree is MatchDegree.DISJOINT:
            return None
        return {
            property_id: _as_literal(comparison.intersection.pick_member())
            for property_id, comparison in self.per_property.items()
        }


def match_capabilities(
    required: CapabilityExpression,
    provided: CapabilityExpression,
    world: WorldModel,
) -> MatchResult:
    required_nf = normalize(required, world)
    provided_nf = normalize(provided, world)
    per_property = {
        property_id: PropertyComparison(
            required_nf.feasible_or_domain(property_id, world),
            provided_nf.feasible_or_domain(property_id, world),
        )
        for property_id in sorted(required_nf.feasible.keys() | provided_nf.feasible.keys())
    }
    return MatchResult(_compare(required_nf, provided_nf, world), per_property)


def match_normal_form(
    required_nf: NormalForm,
    provided: CapabilityExpression,
    world: WorldModel,
) -> MatchDegree:
    """``match_capabilities(...).degree`` for an already normalized required side."""
    return _compare(required_nf, normalize(provided, world), world)


def _relation(tax, required_class: str, provided_class: str) -> tuple[bool, bool]:
    """Both subclass tests: (required below provided, provided below required)."""
    return (
        is_subclass_of(tax, required_class, provided_class),
        is_subclass_of(tax, provided_class, required_class),
    )


def _compare(
    required_nf: NormalForm,
    provided_nf: NormalForm,
    world: WorldModel,
    relation: tuple[bool, bool] | None = None,
) -> MatchDegree:
    """Classify two normal forms in one pass over their constrained properties,
    given ``_relation`` of their classes or deciding it here. The first
    property whose sets do not meet decides DISJOINT; a refuted containment
    is not tested again."""
    if relation is None:
        relation = _relation(world.taxonomy, required_nf.class_id, provided_nf.class_id)
    required_in_provided, provided_in_required = relation
    if not (required_in_provided or provided_in_required):
        return MatchDegree.DISJOINT
    for property_id in required_nf.feasible.keys() | provided_nf.feasible.keys():
        r = required_nf.feasible_or_domain(property_id, world)
        p = provided_nf.feasible_or_domain(property_id, world)
        if not r.meets(p):
            return MatchDegree.DISJOINT
        required_in_provided = required_in_provided and r.subset_of(p)
        provided_in_required = provided_in_required and p.subset_of(r)

    if required_in_provided and provided_in_required:
        return MatchDegree.EXACT
    if required_in_provided:
        return MatchDegree.PLUGIN
    if provided_in_required:
        return MatchDegree.SUBSUME
    return MatchDegree.INTERSECT


def _as_literal(value) -> Literal:
    if isinstance(value, Fraction):
        return fraction_to_number(value)
    return value


def rank_providers(required: CapabilityExpression, world: WorldModel):
    """The world's capabilities that ``required`` does not match as DISJOINT,
    as (resource_id, Capability, MatchDegree) ordered by degree, then resource
    and capability id.

    Each degree equals ``match_capabilities(...).degree`` of the pair. The
    required side is normalized once; the class relation is decided once per
    class group of the world, and a class-disjoint group is skipped whole.
    """
    required_nf = normalize(required, world)
    required_class = required_nf.class_id
    tax = world.taxonomy
    scored = []
    for class_id, group in world.capabilities_by_class().items():
        relation = _relation(tax, required_class, class_id)
        if not any(relation):
            continue
        for resource_id, capability in group:
            degree = _compare(required_nf, world.normal_form(capability), world, relation)
            if degree is not MatchDegree.DISJOINT:
                scored.append((resource_id, capability, degree))
    scored.sort(key=lambda item: (-item[2].rank, item[0], item[1].id))
    return scored
