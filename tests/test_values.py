from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from csskit.errors import TypeMismatchError, UnitMismatchError, UnknownUnitError
from csskit.values import (
    convert_between_units,
    format_timestamp,
    fraction_to_number,
    literal_matches,
    parse_timestamp,
    to_fraction,
    unit_base,
)


def _to_base(value, unit):
    """``value`` in ``unit`` rescaled onto the base unit of its dimension."""
    return fraction_to_number(convert_between_units(to_fraction(value), unit, unit_base(unit)))


def test_canonicalize_unit_table_entries():
    assert (unit_base("mm"), _to_base(15, "mm")) == ("m", Decimal("0.015"))
    assert (unit_base("min"), _to_base(2, "min")) == ("s", 120)
    assert (unit_base("h"), _to_base(3, "h")) == ("s", 10800)
    assert (unit_base("cm"), _to_base(Decimal("2.5"), "cm")) == ("m", Decimal("0.025"))
    assert (unit_base("g"), _to_base(500, "g")) == ("kg", Decimal("0.5"))
    assert (unit_base("m"), _to_base(7, "m")) == ("m", 7)


def test_canonicalize_unit_unknown():
    with pytest.raises(UnknownUnitError):
        unit_base("furlong")
    with pytest.raises(UnknownUnitError):
        convert_between_units(Fraction(1), "furlong", "m")


def test_convert_to_a_unit_outside_the_scale_table():
    with pytest.raises(UnknownUnitError) as excinfo:
        convert_between_units(Fraction(1), "m", "furlong")
    assert excinfo.value.message == "unit 'furlong' is not in the scale table"


def test_canonicalize_unit_is_exact_decimal():
    value = _to_base(Decimal("0.1"), "mm")
    assert value == Decimal("0.0001")
    assert str(value) == "0.0001"


def test_convert_between_units():
    assert convert_between_units(Fraction(12), "mm", "m") == Fraction(3, 250)
    assert convert_between_units(Fraction(90), "s", "min") == Fraction(3, 2)
    assert convert_between_units(Fraction(4), None, "mm") == Fraction(4)
    with pytest.raises(UnitMismatchError):
        convert_between_units(Fraction(1), "mm", "s")


def test_fraction_rendering():
    assert fraction_to_number(Fraction(5)) == 5
    assert isinstance(fraction_to_number(Fraction(5)), int)
    assert fraction_to_number(Fraction(3, 250)) == Decimal("0.012")
    assert fraction_to_number(Fraction(25, 2)) == Decimal("12.5")


def test_to_fraction_rejects_booleans():
    with pytest.raises(TypeMismatchError):
        to_fraction(True)


@pytest.mark.parametrize("value, fraction", [
    (7, Fraction(7)),
    (Decimal("2.5"), Fraction(5, 2)),
    (Fraction(1, 3), Fraction(1, 3)),
    (0.1, Fraction(1, 10)),  # the float's shortest repr, not its binary value
])
def test_to_fraction_is_exact(value, fraction):
    assert to_fraction(value) == fraction


@pytest.mark.parametrize("value", ["12", None, [1]])
def test_to_fraction_rejects_a_non_number(value):
    with pytest.raises(TypeMismatchError, match="not a numeric value"):
        to_fraction(value)


def test_literal_matches():
    assert literal_matches("integer", 5)
    assert not literal_matches("integer", True)
    assert not literal_matches("integer", Decimal("5.5"))
    assert literal_matches("real", Decimal("2.5"))
    assert literal_matches("real", 3)
    assert literal_matches("enum", "steel")
    assert literal_matches("boolean", False)
    assert not literal_matches("boolean", 0)
    assert not literal_matches("timestamp", "2026-08-08T12:30:00Z")  # no such datatype


def test_timestamp_round_trip():
    stamp = parse_timestamp("2026-08-08T12:30:00Z")
    assert format_timestamp(stamp) == "2026-08-08T12:30:00Z"
    offset = parse_timestamp("2026-08-08T14:30:00+02:00")
    assert offset == stamp


def test_timestamp_requires_offset():
    with pytest.raises(TypeMismatchError):
        parse_timestamp("2026-08-08T12:30:00")
