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
read. The two subclass tests are made once per pair and serve both the
class-disjoint check and containment.

Ranking against a world normalizes the required side once and decides the
class relation once per distinct candidate class, in a memo local to the
call. Candidates whose class is disjoint from the required class are dropped
before their normal form is read; the others take it from the world, which
keeps one per capability it owns. ``match_normal_form`` takes a required
side its caller has already normalized: offer selection normalizes each
requested key once and compares every offer against that form. Provided
expressions from callers (offers, the CLI) are normalized per call and never
kept.
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


_DEGREE_RANK = {
    MatchDegree.EXACT: 4,
    MatchDegree.PLUGIN: 3,
    MatchDegree.SUBSUME: 2,
    MatchDegree.INTERSECT: 1,
    MatchDegree.DISJOINT: 0,
}


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
    return match_normal_form(normalize(required, world), provided, world)


def match_normal_form(
    required_nf: NormalForm,
    provided: CapabilityExpression,
    world: WorldModel,
) -> MatchResult:
    """``match_capabilities`` for a required side that is already normalized."""
    provided_nf = normalize(provided, world)
    tax = world.taxonomy
    return _compare(
        required_nf,
        provided_nf,
        world,
        is_subclass_of(tax, required_nf.class_id, provided_nf.class_id),
        is_subclass_of(tax, provided_nf.class_id, required_nf.class_id),
    )


def _compare(
    required_nf: NormalForm,
    provided_nf: NormalForm,
    world: WorldModel,
    required_below: bool,
    provided_below: bool,
) -> MatchResult:
    """Classify two normal forms, given both subclass tests between their classes."""
    property_ids = sorted(set(required_nf.feasible) | set(provided_nf.feasible))
    per_property: dict[str, PropertyComparison] = {}
    for property_id in property_ids:
        r = required_nf.feasible_or_domain(property_id, world)
        p = provided_nf.feasible_or_domain(property_id, world)
        per_property[property_id] = PropertyComparison(r, p)

    if not (required_below or provided_below) or not all(
        c.required.meets(c.provided) for c in per_property.values()
    ):
        return MatchResult(MatchDegree.DISJOINT, per_property)

    required_in_provided = required_below and all(
        c.required.subset_of(c.provided) for c in per_property.values()
    )
    provided_in_required = provided_below and all(
        c.provided.subset_of(c.required) for c in per_property.values()
    )

    if required_in_provided and provided_in_required:
        degree = MatchDegree.EXACT
    elif required_in_provided:
        degree = MatchDegree.PLUGIN
    elif provided_in_required:
        degree = MatchDegree.SUBSUME
    else:
        degree = MatchDegree.INTERSECT

    return MatchResult(degree, per_property)


def _as_literal(value) -> Literal:
    if isinstance(value, Fraction):
        return fraction_to_number(value)
    return value


def rank_providers(
    required: CapabilityExpression,
    candidates,
    world: WorldModel,
):
    """Non-disjoint candidates ordered by degree, then resource and capability id.

    ``candidates`` is an iterable of (resource_id, Capability); the result is a
    list of (resource_id, Capability, MatchResult), each result equal to
    ``match_capabilities`` of the pair. The required side is normalized once
    and the class relation is decided once per distinct candidate class. A
    class-disjoint candidate is dropped without being normalized, so its
    normal form is neither read nor kept.
    """
    required_nf = normalize(required, world)
    required_class = required_nf.class_id
    tax = world.taxonomy
    relations: dict[str, tuple[bool, bool]] = {}
    scored = []
    for resource_id, capability in candidates:
        class_id = capability.expression.class_id
        relation = relations.get(class_id)
        if relation is None:
            relation = relations[class_id] = (
                is_subclass_of(tax, required_class, class_id),
                is_subclass_of(tax, class_id, required_class),
            )
        required_below, provided_below = relation
        if not (required_below or provided_below):
            continue
        provided_nf = world.normal_form(capability)
        result = _compare(required_nf, provided_nf, world, required_below, provided_below)
        if result.degree is not MatchDegree.DISJOINT:
            scored.append((resource_id, capability, result))
    scored.sort(key=lambda item: (-item[2].degree.rank, item[0], item[1].id))
    return scored
