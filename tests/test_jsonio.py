"""jsonio against the stdlib encoder on seeded random payloads, plus the
exact-number literals, document layout and rejections it pins on its own."""

from __future__ import annotations

import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from csskit import jsonio
from csskit.errors import ParseError

#: characters a string is drawn from: ASCII, escapes, controls, non-ASCII
#: letters, an astral symbol and lone surrogates
ALPHABET = (
    'ab Z09"\\/' + "\b\f\n\r\t\x00\x1f\x7f" + "\xe4\xdf\u20ac\u65e5\u2028\u2029\U0001f600"
    + "\ud800\udfff"
)


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(8)))


def _random_value(rng: random.Random, depth: int = 0):
    kinds = ["str", "int", "bool", "none", "float"]
    if depth < 4:
        kinds += ["list", "tuple", "dict"]
    kind = rng.choice(kinds)
    if kind == "str":
        return _random_string(rng)
    if kind == "int":
        return rng.choice([0, -1, rng.randrange(-10**20, 10**20)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice([0.0, -0.0, 1e-7, 1e16, 2.5, rng.uniform(-1e6, 1e6)])
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {_random_string(rng): item for item in items}


def _decoded(value):
    """What loads gives back for ``value``: arrays as lists, floats as Decimal."""
    if isinstance(value, float):
        return Decimal(repr(value))
    if isinstance(value, (list, tuple)):
        return [_decoded(item) for item in value]
    if isinstance(value, dict):
        return {key: _decoded(item) for key, item in value.items()}
    return value


def test_dumps_equals_the_stdlib_encoder_on_random_payloads():
    rng = random.Random(9)
    for _ in range(400):
        value = _random_value(rng)
        expected = json.dumps(
            value, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
            allow_nan=False,
        )
        assert jsonio.dumps(value) == expected
        assert jsonio.loads(jsonio.dumps(value)) == _decoded(value)


def test_exact_numbers_are_plain_literals():
    value = {
        "a": Decimal("4.50"), "b": Fraction(1, 4), "c": Fraction(3),
        "d": Fraction(1, 3), "e": Decimal("-0.000"), "f": Decimal("1E+3"),
    }
    line = '{"a":4.50,"b":0.25,"c":3,"d":0.3333333333333333333333333333,"e":-0.000,"f":1E+3}'
    assert jsonio.dumps(value) == line
    assert jsonio.loads('{"a": 4.50, "b": 1e3}') == {"a": Decimal("4.50"), "b": Decimal("1E+3")}


@pytest.mark.parametrize(
    "value", [{1: "a"}, float("nan"), [float("inf")], Decimal("NaN"), {"a": object()}]
)
def test_dumps_rejects_what_json_cannot_carry(value):
    with pytest.raises(ValueError):
        jsonio.dumps(value)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"x": NaN}', "non-finite number NaN is not allowed"),
        ("[-Infinity]", "non-finite number -Infinity is not allowed"),
        ("﻿{}", "Unexpected UTF-8 BOM (decode using utf-8-sig) (byte offset 0)"),
        ('{"ü": 1', "Expecting ',' delimiter (byte offset 8)"),
        ("[1E+4301]", "decimal literal has an exponent beyond 4300 in magnitude"),
        ("[-1.0e-4301]", "decimal literal has an exponent beyond 4300 in magnitude"),
        (
            "[1E999999999999999999999999999]",
            "decimal literal has an exponent beyond 4300 in magnitude",
        ),
        pytest.param(
            "[0." + "5" * 4300 + "]", "decimal literal has 4301 digits, more than 4300",
            id="decimal-of-4301-digits",
        ),
    ],
)
def test_loads_rejections_are_parse_errors(text, message):
    with pytest.raises(ParseError) as excinfo:
        jsonio.loads(text)
    assert excinfo.value.message == message


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_of_max_int_digits_is_read(sign):
    literal = sign + "7" * jsonio.MAX_INT_DIGITS
    assert jsonio.loads(f"[{literal}]") == [int(literal)]


@pytest.mark.parametrize(
    "literal",
    ["1E+4300", "-9.9e-4300", "0.5E-4299", "1." + "7" * (jsonio.MAX_INT_DIGITS - 1)],
    ids=["1E+4300", "-9.9e-4300", "0.5E-4299", "decimal-of-4300-digits"],
)
def test_a_decimal_at_the_bounds_is_read(literal):
    assert jsonio.loads(f"[{literal}]") == [Decimal(literal)]


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_longer_integer_is_refused_in_the_readers_own_words(sign):
    """The refusal names the digit count, not an interpreter setting the
    sender cannot change, and reads alike on every supported Python."""
    digits = jsonio.MAX_INT_DIGITS + 1
    with pytest.raises(ParseError) as excinfo:
        jsonio.loads('{"depth": ' + sign + "7" * digits + "}")
    assert excinfo.value.message == f"integer literal has {digits} digits, more than 4300"
    assert excinfo.value.offset is None


def test_pairs_without_numbers_reads_an_object_and_converts_no_number():
    text = '{"a": 1E+100000000, "b": [NaN, {"c": ' + "9" * 5000 + '}], "a": "x"}'
    assert jsonio.pairs_without_numbers(text) == (
        ("a", None), ("b", [None, (("c", None),)]), ("a", "x")
    )


@pytest.mark.parametrize("text", ["[1]", "7", '"a"', "null", "{", "[" * 100_000 + "]" * 100_000])
def test_pairs_without_numbers_refuses_what_is_no_object(text):
    with pytest.raises(ValueError):
        jsonio.pairs_without_numbers(text)
