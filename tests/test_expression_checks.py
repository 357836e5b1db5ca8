"""One set of atom checks: a seeded table of atom texts pins what
``parse_expression`` answers, and every hand-built twin of those atoms gets the
same verdict and first message from ``validate_expression``.

``expression_atoms.json`` holds the table: a row per seeded atom, then a row
per text in ``EDGE_TEXTS``. Only when a message is meant to change, rewrite it
from the generator with
``PYTHONPATH=src:tests python tests/test_expression_checks.py > tests/expression_atoms.json``.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import sample_properties, sample_taxonomy

from csskit.errors import CssError
from csskit.expressions import Atom, CapabilityExpression, parse_expression, validate_expression
from csskit.model import PropertyDefinition, WorldModel

TABLE = Path(__file__).with_name("expression_atoms.json")

#: the sample properties plus one of a datatype validation rejects, and an undefined one
PROPERTIES = ("depth", "diameter", "torque", "material", "coolant", "cycle", "hue", "speed")
COMPARATORS = ("<", "<=", ">", ">=", "=", "!=", "in")
LITERALS = {
    "integer": ("0", "5", "15", "-3", "120", "007", "-0"),
    "decimal": ("2.5", "0.25", "-1.5", "10.0"),
    "member": ("steel", "aluminium", "wood"),
    "non-member": ("brass", "fast", "yes", "and", "in"),
    "boolean": ("true", "false"),
}
UNITS = {
    "none": (None,),
    "length": ("mm", "cm", "m"),
    "time": ("s", "min", "h"),
    "mass": ("g", "kg"),
    "unknown": ("furlong", "parsec"),
}
#: text after the closing parenthesis of the atom; each but "" is a syntax error
TAILS = ("", "", "", "", "", " or", ",", " and", " and (", " #")


def generator_world() -> WorldModel:
    return WorldModel(
        taxonomy=sample_taxonomy(),
        property_defs=(*sample_properties(), PropertyDefinition("hue", "colour")),
    )


#: property -> (literal kinds, unit kinds) its well-typed atoms draw from
FITTING = {
    "depth": (("integer", "decimal"), ("none", "length")),
    "diameter": (("integer",), ("none", "length")),
    "torque": (("integer", "decimal"), ("none",)),
    "material": (("member",), ("none",)),
    "coolant": (("boolean",), ("none",)),
    "cycle": (("integer",), ("none", "time")),
}


#: malformed texts the seeded atoms never produce: a comparator missing at the
#: end of the text (also after trailing blanks) and in front of a literal
EDGE_TEXTS = ("Drilling and (depth", "Drilling and (material  ", "Drilling and (depth 5)")


def generate_atoms(seed: int = 1502, count: int = 420):
    """Seeded atoms as (property, comparator, literal tokens, unit, tail). Each
    literal and the unit fit the property half of the time, and are drawn from
    every kind otherwise."""
    rng = random.Random(seed)

    def kind(pool: dict, fitting) -> str:
        return rng.choice(fitting if rng.random() < 0.5 else sorted(pool))

    atoms = []
    for _ in range(count):
        prop = rng.choice(PROPERTIES)
        literal_kinds, unit_kinds = FITTING.get(prop, (sorted(LITERALS), sorted(UNITS)))
        comparator = rng.choice(COMPARATORS)
        size = rng.randint(1, 3) if comparator == "in" else 1
        tokens = tuple(
            rng.choice(LITERALS[kind(LITERALS, literal_kinds)]) for _ in range(size)
        )
        unit = None if comparator == "in" else rng.choice(UNITS[kind(UNITS, unit_kinds)])
        atoms.append((prop, comparator, tokens, unit, rng.choice(TAILS)))
    return atoms


def atom_text(prop: str, comparator: str, tokens, unit, tail: str) -> str:
    literal = "{" + ", ".join(tokens) + "}" if comparator == "in" else tokens[0]
    unit_text = "" if unit is None else f" {unit}"
    return f"Drilling and ({prop} {comparator} {literal}{unit_text}){tail}"


def hand_built(world: WorldModel, prop: str, comparator: str, tokens, unit) -> Atom:
    """The Atom the parser would build: a numeral is an int or a Decimal, and
    ``true``/``false`` is a bool on a boolean property only."""
    definition = world.property_def(prop)
    boolean = definition is not None and definition.datatype == "boolean"

    def decode(token: str):
        if token[0].isdigit() or token[0] == "-":
            return Decimal(token) if "." in token else int(token)
        if boolean and token in ("true", "false"):
            return token == "true"
        return token

    values = tuple(decode(token) for token in tokens)
    return Atom(prop, comparator, values if comparator == "in" else values[0], unit)


def parse_outcome(text: str, world: WorldModel) -> list:
    """[text, exception class name, message], or [text, None, repr of the atoms]."""
    try:
        expr = parse_expression(text, world)
    except CssError as exc:
        return [text, type(exc).__name__, exc.message]
    return [text, None, repr(expr.atoms)]


def table_rows() -> list:
    world = generator_world()
    texts = [atom_text(*atom) for atom in generate_atoms()] + list(EDGE_TEXTS)
    return [parse_outcome(text, world) for text in texts]


def test_table_covers_every_kind_of_atom():
    atoms = generate_atoms()
    assert len(atoms) >= 300
    assert {comparator for _, comparator, _, _, _ in atoms} == set(COMPARATORS)
    tokens = {token for _, _, literal, _, _ in atoms for token in literal}
    for kind, pool in LITERALS.items():
        assert tokens & set(pool), kind
    units = {unit for _, _, _, unit, _ in atoms}
    for kind, pool in UNITS.items():
        assert units & set(pool), kind
    assert {tail for *_, tail in atoms} == set(TAILS)
    rows = table_rows()
    kinds = {kind for _, kind, _ in rows}
    assert kinds >= {
        None, "ExpressionSyntaxError", "TypeMismatchError", "UnitMismatchError",
        "UnknownUnitError", "UnknownPropertyError",
    }


def test_parse_expression_answers_as_the_table_records():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert table_rows() == expected


@pytest.mark.parametrize("atom", generate_atoms(), ids=lambda atom: atom_text(*atom))
def test_validate_expression_agrees_with_the_parser(atom):
    """The tail is left out: a hand-built expression has no text to be malformed."""
    world = generator_world()
    *parts, _ = atom
    expr = CapabilityExpression("Drilling", (hand_built(world, *parts),))
    issues = validate_expression(expr, world)
    try:
        parse_expression(atom_text(*parts, ""), world)
    except CssError as exc:
        assert issues and issues[0] == exc.message
    else:
        assert issues == []


if __name__ == "__main__":
    print(json.dumps(table_rows(), indent=1))
