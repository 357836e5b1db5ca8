"""Capability expression grammar and normalization.

An expression is a taxonomy class plus a conjunction of per-property atoms:

    Drilling and (depth <= 15 mm) and (material in {steel, aluminium})

Normalization folds the atoms of each property into one feasible set: a
numeric interval with excluded points, or a finite member set. Integer
intervals are tightened to closed ``int`` bounds (``depth < 15`` becomes
``depth <= 14``), which stay exact without ``Fraction`` arithmetic, and
every numeric value is rescaled onto the property's declared unit before
folding. An ``int`` literal on an integer property that needs no rescaling
(no unit on either side, or the declared one) is folded as the ``int``
itself; Decimal and rescaled literals, and every ``real`` bound, go through
``Fraction``. A property's optional declared range acts as its value
domain, so feasible sets are clipped to it, using the world's canonical
domain bounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from . import jsonio
from .errors import (
    CssError,
    ExpressionSyntaxError,
    TypeMismatchError,
    UnitMismatchError,
    UnknownClassError,
    UnknownPropertyError,
)
from .values import (
    Literal,
    convert_between_units,
    format_literal,
    to_fraction,
    unit_base,
)

if TYPE_CHECKING:
    from .model import PropertyDefinition, WorldModel

NUMERIC_COMPARATORS = ("<", "<=", ">", ">=", "=", "!=")
SET_COMPARATORS = ("=", "!=", "in")


@dataclass(frozen=True)
class Atom:
    """One atomic constraint: ``property comparator literal [unit]``.

    For the ``in`` comparator ``literal`` is a tuple of members.
    """

    property_id: str
    comparator: str
    literal: Literal | tuple[Literal, ...]
    unit: str | None = None


@dataclass(frozen=True)
class CapabilityExpression:
    class_id: str
    atoms: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class FeasibleSet:
    """Canonical set of admissible values for one property.

    kind "interval": numeric, bounds in the property's declared unit; for
    integer properties the bounds are closed and, like the strictly interior
    points in ``excluded``, plain ``int``s, for real properties they are
    ``Fraction``s. kind "members": finite enum/boolean subset.
    kind "empty": unsatisfiable.
    """

    kind: str
    datatype: str
    lower: int | Fraction | None = None
    lower_closed: bool = False
    upper: int | Fraction | None = None
    upper_closed: bool = False
    excluded: frozenset = frozenset()
    members: tuple = ()

    # -- construction --------------------------------------------------

    @staticmethod
    def empty(datatype: str) -> FeasibleSet:
        return FeasibleSet(kind="empty", datatype=datatype)

    @staticmethod
    def of_members(datatype: str, values) -> FeasibleSet:
        members = tuple(sorted(set(values)))
        if not members:
            return FeasibleSet.empty(datatype)
        return FeasibleSet(kind="members", datatype=datatype, members=members)

    @staticmethod
    def interval(
        datatype: str,
        lower: int | Fraction | None,
        lower_closed: bool,
        upper: int | Fraction | None,
        upper_closed: bool,
        excluded=frozenset(),
    ) -> FeasibleSet:
        """The one canonical form of a numeric interval (``None``: no bound).
        Integer bounds become closed whole numbers walked inward past excluded
        points; an excluded closed real bound becomes open, and any datatype
        but ``"integer"`` is stored as ``"real"``. Only excluded points strictly
        inside are kept; a set with no value is the empty set."""
        if datatype == "integer":
            points = {int(x) for x in excluded if x == int(x)}
            if lower is not None:
                lower = math.ceil(lower) if lower_closed else math.floor(lower) + 1
                while lower in points:
                    lower += 1
            if upper is not None:
                upper = math.floor(upper) if upper_closed else math.ceil(upper) - 1
                while upper in points:
                    upper -= 1
            lower_closed = upper_closed = True
        else:
            datatype = "real"
            points = set(map(Fraction, excluded))
            if lower_closed and lower in points:
                lower_closed = False
            if upper_closed and upper in points:
                upper_closed = False
        lower_closed = lower is not None and lower_closed
        upper_closed = upper is not None and upper_closed
        if lower is not None and upper is not None and (
            lower > upper or (lower == upper and not (lower_closed and upper_closed))
        ):
            return FeasibleSet.empty(datatype)
        interior = frozenset(
            x for x in points if (lower is None or x > lower) and (upper is None or x < upper)
        )
        return FeasibleSet(
            kind="interval", datatype=datatype, lower=lower, lower_closed=lower_closed,
            upper=upper, upper_closed=upper_closed, excluded=interior,
        )

    # -- queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, value) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "members":
            return value in self.members
        v = value if type(value) is int or type(value) is Fraction else to_fraction(value)
        if self.datatype == "integer" and v.denominator != 1:
            return False
        if self.lower is not None:
            if v < self.lower or (v == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if v > self.upper or (v == self.upper and not self.upper_closed):
                return False
        return v not in self.excluded

    def subset_of(self, other: FeasibleSet) -> bool:
        if self.kind == "empty":
            return True
        if other.kind == "empty":
            return False
        if self.kind == "members" or other.kind == "members":
            return set(self.members) <= set(other.members)
        if other.lower is not None:
            if self.lower is None:
                return False
            if other.lower > self.lower:
                return False
            if other.lower == self.lower and not other.lower_closed and self.lower_closed:
                return False
        if other.upper is not None:
            if self.upper is None:
                return False
            if other.upper < self.upper:
                return False
            if other.upper == self.upper and not other.upper_closed and self.upper_closed:
                return False
        return all(not self.contains(x) for x in other.excluded)

    def intersect(self, other: FeasibleSet) -> FeasibleSet:
        if self.kind == "empty" or other.kind == "empty":
            return FeasibleSet.empty(self.datatype)
        if self.kind == "members":
            return FeasibleSet.of_members(
                self.datatype, set(self.members) & set(other.members)
            )
        lower, lower_closed = _max_lower(
            (self.lower, self.lower_closed), (other.lower, other.lower_closed)
        )
        upper, upper_closed = _min_upper(
            (self.upper, self.upper_closed), (other.upper, other.upper_closed)
        )
        return FeasibleSet.interval(
            self.datatype, lower, lower_closed, upper, upper_closed,
            self.excluded | other.excluded,
        )

    def meets(self, other: FeasibleSet) -> bool:
        """Whether the two sets share a value, i.e. their intersection is not
        empty. Decided from the bounds of the canonical forms; only a set with
        excluded points falls back to building the intersection."""
        if self.kind == "empty" or other.kind == "empty":
            return False
        if self.kind == "members":
            return not set(self.members).isdisjoint(other.members)
        if self.excluded or other.excluded:
            return not self.intersect(other).is_empty
        lower, lower_closed = _max_lower(
            (self.lower, self.lower_closed), (other.lower, other.lower_closed)
        )
        upper, upper_closed = _min_upper(
            (self.upper, self.upper_closed), (other.upper, other.upper_closed)
        )
        if lower is None or upper is None or lower < upper:
            return True
        return lower == upper and lower_closed and upper_closed

    def pick_member(self):
        """Deterministic member: midpoint rule for intervals, smallest member
        for finite sets. Only valid on non-empty sets."""
        if self.kind == "empty":
            raise ValueError("cannot pick from an empty feasible set")
        if self.kind == "members":
            return self.members[0]
        if self.datatype == "integer":
            return self._pick_integer()
        return self._pick_real()

    def _pick_integer(self) -> int:
        if self.lower is not None and self.upper is not None:
            start = (self.lower + self.upper) // 2
        elif self.lower is not None:
            start = self.lower
        elif self.upper is not None:
            start = self.upper
        else:
            start = 0
        offset = 0
        while True:
            for candidate in (start + offset, start - offset) if offset else (start,):
                if self.contains(candidate):
                    return candidate
            offset += 1

    def _pick_real(self) -> Fraction:
        if self.lower is not None and self.upper is not None:
            if self.lower == self.upper:
                return self.lower
            candidate = (self.lower + self.upper) / 2
            while candidate in self.excluded:
                candidate = (candidate + self.upper) / 2
            return candidate
        if self.lower is not None:
            candidate = self.lower if self.lower_closed else self.lower + 1
        elif self.upper is not None:
            candidate = self.upper if self.upper_closed else self.upper - 1
        else:
            candidate = Fraction(0)
        step = 1 if self.upper is None else -1
        while candidate in self.excluded:
            candidate += step
        return candidate


def _max_lower(a, b):
    (v1, c1), (v2, c2) = a, b
    if v1 is None:
        return v2, c2
    if v2 is None:
        return v1, c1
    if v1 > v2:
        return v1, c1
    if v2 > v1:
        return v2, c2
    return v1, c1 and c2


def _min_upper(a, b):
    (v1, c1), (v2, c2) = a, b
    if v1 is None:
        return v2, c2
    if v2 is None:
        return v1, c1
    if v1 < v2:
        return v1, c1
    if v2 < v1:
        return v2, c2
    return v1, c1 and c2


@dataclass(frozen=True)
class NormalForm:
    """A class plus one feasible set per constrained property."""

    class_id: str
    feasible: dict[str, FeasibleSet] = field(default_factory=dict)

    def feasible_or_domain(self, property_id: str, world: WorldModel) -> FeasibleSet:
        got = self.feasible.get(property_id)
        if got is not None:
            return got
        return world.domain(property_id)


def full_domain(prop: PropertyDefinition) -> FeasibleSet:
    """The unconstrained feasible set of a property."""
    if prop.datatype == "enum":
        return FeasibleSet.of_members("enum", prop.enum_values)
    if prop.datatype == "boolean":
        return FeasibleSet.of_members("boolean", (False, True))
    if prop.declared_range is not None:
        lo, hi = prop.declared_range
        return FeasibleSet.interval(
            prop.datatype, to_fraction(lo), True, to_fraction(hi), True
        )
    return FeasibleSet.interval(prop.datatype, None, False, None, False)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>-?\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|!=|<|>|=)|(?P<punct>[(){},]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | punct | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[where]!r}", where)
        for kind in ("number", "ident", "op", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent. Each part of an atom is checked at its own token, by
    the function ``validate_expression`` calls for that part."""

    def __init__(self, tokens: list[_Token], world: WorldModel):
        self.tokens = tokens
        self.world = world
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None, expected: str = "") -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            raise _unexpected(token, expected or text or kind)
        return self.advance()

    def parse(self) -> CapabilityExpression:
        class_token = self.expect("ident", expected="class name")
        _check_class(self.world, class_token.text)
        atoms: list[Atom] = []
        while self.peek().kind != "end":
            self.expect("ident", "and")
            self.expect("punct", "(")
            atoms.append(self.parse_atom())
            self.expect("punct", ")")
        return CapabilityExpression(class_id=class_token.text, atoms=tuple(atoms))

    def parse_atom(self) -> Atom:
        prop = _property(self.world, self.expect("ident", expected="property name").text)
        token = self.advance()
        if token.kind != "op" and (token.kind, token.text) != ("ident", "in"):
            raise _unexpected(token, "comparator", "in")
        _check_comparator(prop, token.text)
        if token.text != "in":
            literal = self.parse_literal(prop)
            unit = None
            if self.peek().kind == "ident" and self.peek().text != "and":
                unit = self.advance().text
                _check_unit(prop, unit)
            return Atom(prop.id, token.text, literal, unit)
        self.expect("punct", "{")
        values = [self.parse_literal(prop)]
        while self.peek().text == ",":
            self.advance()
            values.append(self.parse_literal(prop))
        self.expect("punct", "}")
        return Atom(prop.id, "in", tuple(values))

    def parse_literal(self, prop) -> Literal:
        """Decode one literal token, then check it against the property."""
        token = self.advance()
        if token.kind == "number":
            read = jsonio.parse_decimal if "." in token.text else jsonio.parse_int
            try:
                value = read(token.text)
            except ValueError as exc:  # more digits than jsonio.MAX_INT_DIGITS
                raise ExpressionSyntaxError(str(exc), token.pos) from None
        elif token.kind == "ident":
            truth = prop.datatype == "boolean" and token.text in ("true", "false")
            value = token.text == "true" if truth else token.text
        else:
            raise _unexpected(token, "literal")
        _check_literal(prop, value)
        return value


def _unexpected(token: _Token, *expected: str) -> ExpressionSyntaxError:
    what = "end of input" if token.kind == "end" else repr(token.text)
    return ExpressionSyntaxError(f"unexpected {what}", token.pos, expected)


def _check_class(world: WorldModel, class_id: str) -> None:
    if not world.taxonomy.has_class(class_id):
        raise UnknownClassError(f"class {class_id!r} is not in the taxonomy")


def _property(world: WorldModel, property_id: str) -> PropertyDefinition:
    prop = world.property_def(property_id)
    if prop is None:
        raise UnknownPropertyError(f"property {property_id!r} is not defined")
    return prop


def _check_comparator(prop, comparator: str) -> None:
    allowed = NUMERIC_COMPARATORS if prop.datatype in ("integer", "real") else SET_COMPARATORS
    if comparator not in allowed:
        raise TypeMismatchError(
            f"comparator {comparator!r} is not legal for {prop.datatype} property {prop.id!r}"
        )


def _check_literal(prop, value) -> None:
    """A number fits a numeric property, a bool a boolean one, a member an enum one."""
    if isinstance(value, (int, Decimal, Fraction)) and not isinstance(value, bool):
        if prop.datatype not in ("integer", "real"):
            raise TypeMismatchError(
                f"numeric literal {value} on {prop.datatype} property {prop.id!r}"
            )
    elif prop.datatype == "boolean":
        if not isinstance(value, bool):
            raise TypeMismatchError(f"{value!r} is not a boolean literal (property {prop.id!r})")
    elif prop.datatype == "enum":
        if value not in prop.enum_values:
            raise TypeMismatchError(f"{value!r} is not a member of enum property {prop.id!r}")
    else:
        raise TypeMismatchError(
            f"non-numeric literal {value!r} on {prop.datatype} property {prop.id!r}"
        )


def _check_unit(prop, unit: str) -> None:
    base = unit_base(unit)  # raises UnknownUnit for off-table units
    if prop.unit is None:
        raise UnitMismatchError(
            f"property {prop.id!r} is unitless but constraint carries unit {unit!r}"
        )
    if unit_base(prop.unit) != base:
        raise UnitMismatchError(
            f"unit {unit!r} ({base}) does not match property {prop.id!r} unit "
            f"{prop.unit!r} ({unit_base(prop.unit)})"
        )


def _check_atom(world: WorldModel, atom: Atom) -> None:
    """The parser's checks of one atom, in the parser's order."""
    prop = _property(world, atom.property_id)
    _check_comparator(prop, atom.comparator)
    for value in atom.literal if atom.comparator == "in" else (atom.literal,):
        _check_literal(prop, value)
    if atom.unit is not None:
        _check_unit(prop, atom.unit)


def parse_expression(text: str, world: WorldModel) -> CapabilityExpression:
    """Parse ``ClassName ('and' '(' atom ')')*`` into a resolved expression."""
    return _Parser(_tokenize(text), world).parse()


def validate_expression(expr: CapabilityExpression, world: WorldModel) -> list[str]:
    """Non-raising re-check of a (possibly hand-built) expression: the class,
    then each atom's first fault, worded as the parse error of its text."""
    issues: list[str] = []
    for check, part in ((_check_class, expr.class_id), *((_check_atom, a) for a in expr.atoms)):
        try:
            check(world, part)
        except CssError as exc:
            issues.append(exc.message)
    return issues


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _atom_value_declared(prop, atom: Atom, value) -> int | Fraction:
    """Atom literal rescaled onto the property's declared unit. An ``int`` on
    an integer property that needs no rescaling stays ``int``."""
    if (
        type(value) is int
        and prop.datatype == "integer"
        and (atom.unit is None or prop.unit is None or atom.unit == prop.unit)
    ):
        return value
    return convert_between_units(to_fraction(value), atom.unit, prop.unit)


def normalize(expr: CapabilityExpression, world: WorldModel) -> NormalForm:
    """Fold all atoms into one canonical feasible set per property."""
    grouped: dict[str, list[Atom]] = {}
    for atom in expr.atoms:
        grouped.setdefault(atom.property_id, []).append(atom)

    feasible: dict[str, FeasibleSet] = {}
    for property_id, atoms in grouped.items():
        prop = _property(world, property_id)
        if prop.datatype in ("enum", "boolean"):
            feasible[property_id] = _normalize_members(prop, atoms)
        else:
            feasible[property_id] = _normalize_interval(prop, atoms, world)
    return NormalForm(class_id=expr.class_id, feasible=feasible)


def _normalize_members(prop, atoms: list[Atom]) -> FeasibleSet:
    allowed = set(prop.enum_values) if prop.datatype == "enum" else {False, True}
    for atom in atoms:
        if atom.comparator == "=":
            allowed &= {atom.literal}
        elif atom.comparator == "!=":
            allowed -= {atom.literal}
        elif atom.comparator == "in":
            allowed &= set(atom.literal)
    return FeasibleSet.of_members(prop.datatype, allowed)


def _normalize_interval(prop, atoms: list[Atom], world: WorldModel) -> FeasibleSet:
    lower: tuple[int | Fraction | None, bool] = (None, False)
    upper: tuple[int | Fraction | None, bool] = (None, False)
    excluded: set[int | Fraction] = set()
    for atom in atoms:
        value = _atom_value_declared(prop, atom, atom.literal)
        if atom.comparator == "<":
            upper = _min_upper(upper, (value, False))
        elif atom.comparator == "<=":
            upper = _min_upper(upper, (value, True))
        elif atom.comparator == ">":
            lower = _max_lower(lower, (value, False))
        elif atom.comparator == ">=":
            lower = _max_lower(lower, (value, True))
        elif atom.comparator == "=":
            lower = _max_lower(lower, (value, True))
            upper = _min_upper(upper, (value, True))
        elif atom.comparator == "!=":
            excluded.add(value)
    if prop.declared_range is not None:
        # the world's domain holds the declared range with canonical bounds
        domain = world.domain(prop.id)
        if domain.is_empty:
            return domain
        lower = _max_lower(lower, (domain.lower, domain.lower_closed))
        upper = _min_upper(upper, (domain.upper, domain.upper_closed))
    return FeasibleSet.interval(
        prop.datatype, lower[0], lower[1], upper[0], upper[1], frozenset(excluded)
    )


def format_feasible_set(fs: FeasibleSet) -> str:
    """Human/machine-stable rendering, e.g. ``[10, 15]`` or ``(-inf, 15]``."""
    if fs.kind == "empty":
        return "EMPTY"
    if fs.kind == "members":
        return "{" + ", ".join(format_literal(m) for m in fs.members) + "}"
    left = "[" if fs.lower_closed else "("
    right = "]" if fs.upper_closed else ")"
    low = format_literal(fs.lower) if fs.lower is not None else "-inf"
    high = format_literal(fs.upper) if fs.upper is not None else "inf"
    text = f"{left}{low}, {high}{right}"
    if fs.excluded:
        text += " \\ {" + ", ".join(format_literal(x) for x in sorted(fs.excluded)) + "}"
    return text

