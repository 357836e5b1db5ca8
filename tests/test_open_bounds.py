"""Matching on numeric properties without a declared range, and on a real
property whose bounds are open, against a breakpoint oracle.

Each side of a match is a conjunction of comparisons, so on one property a
side's set changes membership only at the literals it compares with (and at
the declared range, if any). Between two such breakpoints, and beyond the
outermost, a set is either all in or all out. Asking membership at every
breakpoint, at each midpoint between two, and one step past each extreme
(every integer in that span for an integer property) therefore decides
emptiness and containment exactly, and with them the match degree.
"""

from __future__ import annotations

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

from conftest import evaluate_expression, sample_taxonomy

from csskit.expressions import CapabilityExpression, parse_expression
from csskit.matching import MatchDegree, match_capabilities
from csskit.model import PropertyDefinition, WorldModel
from csskit.values import convert_between_units, to_fraction

#: seeded pairs per run (20,000 agreed as well, in about 10 s)
PAIRS = 600

PROPERTIES = (
    PropertyDefinition("length", "integer", unit="mm"),
    PropertyDefinition("mass", "real", unit="g"),
    PropertyDefinition("dwell", "real", unit="s", declared_range=(0, 60)),
)
#: property -> the units its literals are written in, and the values they take
#: on the property's own unit: halves around zero, or a few points and two
#: beyond the declared range
LITERALS = {
    "length": (("mm", "cm", "m"), [Fraction(k, 2) for k in range(-12, 13)]),
    "mass": (("g", "kg"), [Fraction(k, 2) for k in range(-12, 13)]),
    "dwell": (("s", "min"), [Fraction(v) for v in (-5, 0, 15, 30, 45, 60, 65)] + [Fraction(15, 2)]),
}
UNIT = {prop.id: prop.unit for prop in PROPERTIES}
COMPARATORS = ("<", "<=", ">", ">=", "=", "!=")
#: Drilling and Milling lie below Separating and beside each other
CLASSES = ("Drilling", "Milling", "Separating")


def _world() -> WorldModel:
    return WorldModel(taxonomy=sample_taxonomy(), property_defs=PROPERTIES)


def _below(a: str, b: str) -> bool:
    return a == b or b == "Separating"


def _decimal_text(value: Fraction) -> str:
    """``value`` as an exact decimal literal; its denominator divides a power of ten."""
    text = format((Decimal(value.numerator) / Decimal(value.denominator)).normalize(), "f")
    return text if text != "-0" else "0"


def _literal(rng: random.Random, property_id: str) -> str:
    """A literal of ``property_id``, often in a rescaled unit, as expression text."""
    units, values = LITERALS[property_id]
    value = rng.choice(values)
    for unit in rng.sample(units, len(units)):
        scaled = convert_between_units(value, UNIT[property_id], unit)
        if 10**12 % scaled.denominator == 0:  # a terminating decimal
            return f"{_decimal_text(scaled)} {unit}"
    raise AssertionError("the property's own unit always writes the value")


def _expression_text(rng: random.Random) -> str:
    atoms = []
    for property_id in rng.sample(list(LITERALS), rng.randint(1, 2)):
        for _ in range(rng.randint(0, 3)):
            atoms.append(f"({property_id} {rng.choice(COMPARATORS)} {_literal(rng, property_id)})")
    return " and ".join([rng.choice(CLASSES), *atoms])


def _atoms_on(expr: CapabilityExpression, property_id: str) -> CapabilityExpression:
    return CapabilityExpression(
        expr.class_id, tuple(a for a in expr.atoms if a.property_id == property_id)
    )


def _member(expr: CapabilityExpression, prop: PropertyDefinition, value, world) -> bool:
    """Whether ``value`` lies in the property's domain and satisfies every
    atom of ``expr`` on it."""
    v = to_fraction(value)
    if prop.datatype == "integer" and v.denominator != 1:
        return False
    if prop.declared_range is not None:
        low, high = prop.declared_range
        if not low <= v <= high:
            return False
    return evaluate_expression(expr, {prop.id: v}, world)


def _probes(prop: PropertyDefinition, sides: tuple[CapabilityExpression, ...]) -> list:
    """The breakpoint oracle's values for ``prop``: every breakpoint, each
    midpoint and one step past each extreme; for an integer property every
    integer from one below the lowest breakpoint to one above the highest."""
    points = {
        convert_between_units(to_fraction(a.literal), a.unit, prop.unit)
        for side in sides for a in side.atoms
    }
    points |= {Fraction(bound) for bound in prop.declared_range or ()}
    ordered = sorted(points) or [Fraction(0)]
    low, high = ordered[0] - 1, ordered[-1] + 1
    if prop.datatype == "integer":
        return list(range(int(low) - 1, int(high) + 2))
    return [low, *ordered, *((a + b) / 2 for a, b in zip(ordered, ordered[1:])), high]


def oracle_degree(required: CapabilityExpression, provided: CapabilityExpression, world):
    required_in_provided = _below(required.class_id, provided.class_id)
    provided_in_required = _below(provided.class_id, required.class_id)
    if not (required_in_provided or provided_in_required):
        return MatchDegree.DISJOINT
    for property_id in {a.property_id for a in required.atoms + provided.atoms}:
        prop = world.property_def(property_id)
        sides = _atoms_on(required, property_id), _atoms_on(provided, property_id)
        probes = _probes(prop, sides)
        r, p = ({v for v in probes if _member(side, prop, v, world)} for side in sides)
        if not r & p:
            return MatchDegree.DISJOINT
        required_in_provided = required_in_provided and r <= p
        provided_in_required = provided_in_required and p <= r
    if required_in_provided and provided_in_required:
        return MatchDegree.EXACT
    if required_in_provided:
        return MatchDegree.PLUGIN
    if provided_in_required:
        return MatchDegree.SUBSUME
    return MatchDegree.INTERSECT


def test_open_and_unbounded_sets_match_as_the_breakpoint_oracle_says():
    world = _world()
    rng = random.Random(2028)
    degrees: Counter = Counter()
    for _ in range(PAIRS):
        texts = _expression_text(rng), _expression_text(rng)
        required, provided = (parse_expression(text, world) for text in texts)
        result = match_capabilities(required, provided, world)
        assert result.degree is oracle_degree(required, provided, world), texts
        degrees[result.degree] += 1
        if result.witness is None:
            continue
        for property_id, value in result.witness.items():
            prop = world.property_def(property_id)
            for side in (required, provided):
                assert _member(_atoms_on(side, property_id), prop, value, world), (texts, value)
    assert set(degrees) == set(MatchDegree), degrees


def test_a_witness_steps_past_an_excluded_point_of_a_half_open_set():
    world = _world()
    required = parse_expression("Drilling and (mass > 2 g) and (mass != 3 g)", world)
    result = match_capabilities(required, parse_expression("Drilling", world), world)
    assert result.degree is MatchDegree.PLUGIN
    assert result.witness == {"mass": 4}
