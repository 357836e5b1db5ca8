"""Deterministic JSON for wire lines and document files.

Numbers are kept exact: Decimal values are emitted as plain decimal literals
and every fractional literal is decoded back into Decimal, so a value like
4.50 survives a round trip digit for digit. Keys are always sorted, which
makes encoded output byte-stable for identical inputs. ``loads`` refuses what
a strict JSON tree cannot hold: a repeated key, NaN or an infinity, a number
literal of more than ``MAX_INT_DIGITS`` digits, and a decimal whose exponent
is beyond ``MAX_INT_DIGITS`` in magnitude.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import ParseError
from .values import fraction_to_number

#: the quoting json.dumps(s, ensure_ascii=False) ends in, without building an encoder
_quote = json.encoder.encode_basestring


def dumps(value) -> str:
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


#: a code point UTF-8 cannot carry; ``dumps`` leaves it raw inside a JSON string
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def dumps_utf8(value) -> str:
    """``dumps`` as text that encodes to valid UTF-8 (see ``escape_surrogates``),
    so a high surrogate directly followed by a low one reads back as one
    astral character."""
    return escape_surrogates(dumps(value))


def escape_surrogates(text: str) -> str:
    """``text`` with each lone surrogate written as its ``\\uXXXX`` escape, so
    it encodes to valid UTF-8."""
    if text.isascii():
        return text
    return _LONE_SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def loads(text: str):
    # json.loads refuses a leading BOM with this message; the decoder alone would
    # only say "Expecting value"
    if text.startswith("\ufeff"):
        raise ParseError("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(exc.msg, offset) from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(str(exc)) from exc


#: most digits of a number literal read from outside, and the largest
#: magnitude of a decimal's exponent; the same on every supported Python,
#: whatever its own limit for converting text to int
MAX_INT_DIGITS = 4300


def parse_int(text: str) -> int:
    """An integer literal of at most ``MAX_INT_DIGITS`` digits."""
    digits = len(text.lstrip("-"))
    if digits > MAX_INT_DIGITS:
        raise ValueError(f"integer literal has {digits} digits, more than {MAX_INT_DIGITS}")
    return int(text)


def parse_decimal(text: str) -> Decimal:
    """A fractional or exponent literal of at most ``MAX_INT_DIGITS`` digits
    and an exponent at most that in magnitude, so that no exact conversion
    (``Fraction``) has to build an integer of unbounded size."""
    digits = len(text.lower().partition("e")[0].lstrip("-").replace(".", ""))
    if digits > MAX_INT_DIGITS:
        raise ValueError(f"decimal literal has {digits} digits, more than {MAX_INT_DIGITS}")
    with contextlib.suppress(InvalidOperation):  # an exponent too large for Decimal itself
        value = Decimal(text)
        if abs(value.adjusted()) <= MAX_INT_DIGITS:
            return value
    raise ValueError(f"decimal literal has an exponent beyond {MAX_INT_DIGITS} in magnitude")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _reject_repeated_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ParseError(f"duplicate object key {repeated!r}")
    return obj


#: one decoder for every line; json.loads with arguments would build one per call
_DECODER = json.JSONDecoder(
    parse_float=parse_decimal, parse_int=parse_int, parse_constant=_reject_constant,
    object_pairs_hook=_reject_repeated_keys,
)


def _unread(number_text: str) -> None:
    return None


#: reads JSON with each number unread (None) and each object as a tuple of its pairs
_PAIRS_DECODER = json.JSONDecoder(
    parse_int=_unread, parse_float=_unread, parse_constant=_unread, object_pairs_hook=tuple
)


def pairs_without_numbers(text: str) -> tuple:
    """The (key, value) pairs of the JSON object ``text`` holds, read without
    converting any number, whatever its size: each number reads as None and
    each nested object as a tuple of its pairs. Raises ValueError when
    ``text`` holds no JSON object or nests too deep."""
    try:
        pairs = _PAIRS_DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("JSON nests too deep") from exc
    if not isinstance(pairs, tuple):
        raise ValueError("not a JSON object")
    return pairs


def _emit(value, out: list[str]) -> None:
    if value is None or value is True or value is False:
        out.append("null" if value is None else ("true" if value else "false"))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"non-finite Decimal {value} is not serializable")
        out.append(str(value))
    elif isinstance(value, Fraction):
        _emit(fraction_to_number(value), out)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value} is not serializable")
        out.append(repr(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise ValueError("object keys must be strings")
            if i:
                out.append(",")
            out.append(_quote(key) + ":")
            _emit(value[key], out)
        out.append("}")
    else:
        raise ValueError(f"value of type {type(value).__name__} is not serializable")

