"""Literal values, datatypes and the fixed unit scale table.

All numeric comparisons in the constraint engine go through exact rational
arithmetic (Fraction); stored model literals stay int/Decimal so documents
round-trip without binary-float drift.
"""

from __future__ import annotations

from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction

from .errors import TypeMismatchError, UnknownUnitError

DATATYPES = ("integer", "real", "enum", "boolean")

NUMERIC_DATATYPES = ("integer", "real")

#: unit -> (base unit, exact scale factor into the base unit)
UNIT_TABLE: dict[str, tuple[str, Fraction]] = {
    "mm": ("m", Fraction(1, 1000)),
    "cm": ("m", Fraction(1, 100)),
    "m": ("m", Fraction(1)),
    "s": ("s", Fraction(1)),
    "min": ("s", Fraction(60)),
    "h": ("s", Fraction(3600)),
    "g": ("kg", Fraction(1, 1000)),
    "kg": ("kg", Fraction(1)),
}

Literal = int | Decimal | Fraction | bool | str


def unit_base(unit: str) -> str:
    entry = UNIT_TABLE.get(unit)
    if entry is None:
        raise UnknownUnitError(f"unit {unit!r} is not in the scale table")
    return entry[0]


def canonicalize_unit(value: int | Decimal | Fraction, unit: str) -> tuple[int | Decimal, str]:
    """Rescale ``value`` from ``unit`` into the base unit of its dimension."""
    base, scale = UNIT_TABLE.get(unit, (None, None))
    if base is None:
        raise UnknownUnitError(f"unit {unit!r} is not in the scale table")
    return fraction_to_number(to_fraction(value) * scale), base


def convert_between_units(value: Fraction, from_unit: str | None, to_unit: str | None) -> Fraction:
    """Exact conversion between two table units of the same dimension.

    A missing unit on either side means "already on the target scale".
    """
    if from_unit is None or to_unit is None or from_unit == to_unit:
        return value
    from_base, from_scale = UNIT_TABLE.get(from_unit, (None, None))
    to_base, to_scale = UNIT_TABLE.get(to_unit, (None, None))
    if from_base is None:
        raise UnknownUnitError(f"unit {from_unit!r} is not in the scale table")
    if to_base is None:
        raise UnknownUnitError(f"unit {to_unit!r} is not in the scale table")
    if from_base != to_base:
        from .errors import UnitMismatchError

        raise UnitMismatchError(
            f"cannot convert {from_unit} ({from_base}) to {to_unit} ({to_base})"
        )
    return value * from_scale / to_scale


def to_fraction(value: int | Decimal | Fraction | float) -> Fraction:
    if isinstance(value, bool):
        raise TypeMismatchError("boolean is not a numeric value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(Decimal(repr(value)))
    raise TypeMismatchError(f"not a numeric value: {value!r}")


def fraction_to_number(fr: Fraction) -> int | Decimal:
    """Render a Fraction as int or exact Decimal.

    Fractions with a denominator outside 2^a*5^b have no exact decimal form;
    they only arise from cross-scale time conversions and are rendered as an
    exact Decimal-of-quotient with 28 significant digits.
    """
    if fr.denominator == 1:
        return int(fr)
    den = fr.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        shift = max(twos, fives)
        scaled = fr.numerator * 2 ** (shift - twos) * 5 ** (shift - fives)
        return Decimal(scaled).scaleb(-shift)
    return Decimal(fr.numerator) / Decimal(fr.denominator)


def literal_matches(datatype: str, value: Literal) -> bool:
    """Does ``value`` inhabit ``datatype``? Booleans never pass as numbers."""
    if datatype == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if datatype == "real":
        return isinstance(value, (int, Decimal, Fraction)) and not isinstance(value, bool)
    if datatype == "enum":
        return isinstance(value, str)
    if datatype == "boolean":
        return isinstance(value, bool)
    return False


def format_literal(value: Literal) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(fraction_to_number(value))
    return str(value)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp (trailing Z or explicit offset)."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise TypeMismatchError(f"invalid ISO-8601 timestamp {text!r}: {exc}") from exc
    if parsed.tzinfo is None:
        raise TypeMismatchError(f"timestamp {text!r} must carry a UTC offset")
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
