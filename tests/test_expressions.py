from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import evaluate_expression, sample_taxonomy

from csskit.errors import (
    ExpressionSyntaxError,
    TypeMismatchError,
    UnitMismatchError,
    UnknownClassError,
    UnknownPropertyError,
    UnknownUnitError,
)
from csskit.expressions import (
    Atom,
    CapabilityExpression,
    FeasibleSet,
    NormalForm,
    format_feasible_set,
    normalize,
    parse_expression,
)
from csskit.model import PropertyDefinition, WorldModel
from csskit.values import convert_between_units, to_fraction


def _enumerate_satisfying(expr, world, property_id):
    """Independent oracle: integers of the declared range satisfying every
    raw atom on the property, checked by direct comparison."""
    prop = world.property_def(property_id)
    lo, hi = prop.declared_range
    atoms = [a for a in expr.atoms if a.property_id == property_id]
    out = set()
    for v in range(int(lo), int(hi) + 1):
        ok = True
        for atom in atoms:
            literal = Fraction(atom.literal if not isinstance(atom.literal, Decimal)
                               else atom.literal)
            if atom.unit is not None and atom.unit != prop.unit:
                scale = {"mm": 1, "cm": 10, "m": 1000, "s": 1, "min": 60, "h": 3600}
                literal = literal * scale[atom.unit] / scale[prop.unit]
            checks = {
                "<": v < literal,
                "<=": v <= literal,
                ">": v > literal,
                ">=": v >= literal,
                "=": v == literal,
                "!=": v != literal,
            }
            if not checks[atom.comparator]:
                ok = False
                break
        if ok:
            out.add(v)
    return out


def _normal_form_members(nf, world, property_id):
    prop = world.property_def(property_id)
    lo, hi = prop.declared_range
    fs = nf.feasible_or_domain(property_id, world)
    return {v for v in range(int(lo), int(hi) + 1) if fs.contains(v)}


# --- parsing ----------------------------------------------------------------

def test_parse_drilling_depth_limit(base_world):
    expr = parse_expression("Drilling and (depth <= 15 mm)", base_world)
    assert expr.class_id == "Drilling"
    assert expr.atoms == (Atom("depth", "<=", 15, "mm"),)


def test_parse_unconstrained_class(base_world):
    expr = parse_expression("Drilling", base_world)
    assert expr.class_id == "Drilling"
    assert expr.atoms == ()


def test_parse_non_numeric_literal_is_type_mismatch(base_world):
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (depth <= fast)", base_world)


def test_parse_whitespace_insensitive(base_world):
    a = parse_expression("Drilling and(depth<=15mm)", base_world)
    b = parse_expression("Drilling  and ( depth <= 15 mm )", base_world)
    assert a == b


def test_parse_syntax_error_reports_position(base_world):
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("Drilling and depth <= 15", base_world)
    assert excinfo.value.position == 13
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("Drilling and (depth <= )", base_world)


def test_parse_unknown_class_and_property(base_world):
    with pytest.raises(UnknownClassError):
        parse_expression("Gluing", base_world)
    with pytest.raises(UnknownPropertyError):
        parse_expression("Drilling and (speed <= 15)", base_world)


def test_parse_unit_errors(base_world):
    with pytest.raises(UnknownUnitError):
        parse_expression("Drilling and (depth <= 15 furlong)", base_world)
    with pytest.raises(UnitMismatchError):
        parse_expression("Drilling and (depth <= 15 s)", base_world)
    with pytest.raises(UnitMismatchError):
        parse_expression("Drilling and (torque <= 5 mm)", base_world)


def test_parse_comparator_datatype_rules(base_world):
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (material <= steel)", base_world)
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (depth in {10, 12})", base_world)
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (material = 5)", base_world)
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (coolant = yes)", base_world)
    with pytest.raises(TypeMismatchError):
        parse_expression("Drilling and (material in {steel, brass})", base_world)


def test_parse_membership_and_boolean(base_world):
    expr = parse_expression(
        "Drilling and (material in {steel, aluminium}) and (coolant = true)",
        base_world,
    )
    assert expr.atoms[0] == Atom("material", "in", ("steel", "aluminium"), None)
    assert expr.atoms[1] == Atom("coolant", "=", True, None)


# --- normalization ----------------------------------------------------------

def test_normalize_interval_intersection(base_world):
    expr = parse_expression(
        "Drilling and (depth <= 15 mm) and (depth >= 10 mm)", base_world
    )
    fs = normalize(expr, base_world).feasible["depth"]
    assert (fs.lower, fs.upper) == (10, 15)
    assert fs.lower_closed and fs.upper_closed


def test_normalize_empty_intersection(base_world):
    expr = parse_expression(
        "Drilling and (depth <= 15 mm) and (depth >= 20 mm)", base_world
    )
    assert normalize(expr, base_world).feasible["depth"].is_empty


def test_normalize_integer_tightening_matches_enumeration(base_world):
    expr = parse_expression("Drilling and (depth < 15 mm)", base_world)
    nf = normalize(expr, base_world)
    fs = nf.feasible["depth"]
    assert fs.upper == 14 and fs.upper_closed
    assert _normal_form_members(nf, base_world, "depth") == _enumerate_satisfying(
        expr, base_world, "depth"
    )


def test_normalize_applies_unit_scaling_first(base_world):
    expr = parse_expression("Drilling and (depth < 2 cm)", base_world)
    fs = normalize(expr, base_world).feasible["depth"]
    assert fs.upper == 19  # 2 cm = 20 mm, tightened below the strict bound


def test_normalize_clips_to_declared_range(base_world):
    expr = parse_expression("Drilling and (depth >= -5 mm)", base_world)
    fs = normalize(expr, base_world).feasible["depth"]
    assert (fs.lower, fs.upper) == (0, 100)


def test_normalize_excluded_point_integer_splits_nothing(base_world):
    expr = parse_expression(
        "Drilling and (depth >= 10 mm) and (depth <= 14 mm) and (depth != 12 mm)",
        base_world,
    )
    nf = normalize(expr, base_world)
    fs = nf.feasible["depth"]
    assert fs.excluded == frozenset({Fraction(12)})
    assert _normal_form_members(nf, base_world, "depth") == {10, 11, 13, 14}


def test_normalize_excluded_endpoint_folds_into_bound(base_world):
    expr = parse_expression(
        "Drilling and (depth >= 10 mm) and (depth <= 14 mm) and (depth != 14 mm)",
        base_world,
    )
    fs = normalize(expr, base_world).feasible["depth"]
    assert fs.upper == 13 and not fs.excluded


def test_normalize_real_excluded_point_keeps_interval_nonempty(base_world):
    expr = parse_expression(
        "Screwing and (torque >= 1) and (torque <= 3) and (torque != 2)", base_world
    )
    fs = normalize(expr, base_world).feasible["torque"]
    assert not fs.is_empty
    assert not fs.contains(2) and fs.contains(Decimal("2.5"))


def test_normalize_real_degenerate_excluded_point_is_empty(base_world):
    expr = parse_expression(
        "Screwing and (torque >= 2) and (torque <= 2) and (torque != 2)", base_world
    )
    assert normalize(expr, base_world).feasible["torque"].is_empty


def test_normalize_integer_strict_and_closed_bound_at_one_value(base_world):
    expr = parse_expression("Drilling and (depth <= 5) and (depth < 5)", base_world)
    fs = normalize(expr, base_world).feasible["depth"]
    assert format_feasible_set(fs) == "[0, 4]"


def test_normalize_real_excluded_open_bound_keeps_no_excluded_point(base_world):
    expr = parse_expression("Screwing and (torque > 2) and (torque != 2)", base_world)
    fs = normalize(expr, base_world).feasible["torque"]
    assert format_feasible_set(fs) == "(2, 10]"
    assert fs.excluded == frozenset()


def test_normalize_excluding_an_open_bound_changes_nothing(base_world):
    plain = parse_expression("Screwing and (torque < 5)", base_world)
    excluded = parse_expression("Screwing and (torque < 5) and (torque != 5)", base_world)
    assert normalize(plain, base_world) == normalize(excluded, base_world)


def test_normalize_enum_and_boolean(base_world):
    expr = parse_expression(
        "Drilling and (material in {steel, wood}) and (material != wood) "
        "and (coolant != false)",
        base_world,
    )
    nf = normalize(expr, base_world)
    assert nf.feasible["material"].members == ("steel",)
    assert nf.feasible["coolant"].members == (True,)


def test_normalize_fractional_literals_on_integer_property(base_world):
    # no integer equals 12.5
    expr = parse_expression("Drilling and (depth = 12.5 mm)", base_world)
    assert normalize(expr, base_world).feasible["depth"].is_empty
    # bounds tighten onto the integer grid
    expr = parse_expression("Drilling and (depth <= 12.5 mm)", base_world)
    fs = normalize(expr, base_world).feasible["depth"]
    assert fs.upper == 12
    assert fs.contains(12) and not fs.contains(Decimal("11.5"))
    # excluding a non-integer point changes nothing
    expr = parse_expression(
        "Drilling and (depth <= 12 mm) and (depth != 11.5 mm)", base_world
    )
    fs = normalize(expr, base_world).feasible["depth"]
    assert fs.excluded == frozenset() and fs.upper == 12


def test_normalize_cross_unit_time_scaling(base_world):
    expr = parse_expression("Drilling and (cycle >= 1 min) and (cycle < 1 h)", base_world)
    fs = normalize(expr, base_world).feasible["cycle"]
    assert (fs.lower, fs.upper) == (60, 3599)


def test_raw_atoms_equal_normal_form_by_enumeration(base_world):
    """Assignments satisfying the raw conjunction equal the normal form's set."""
    rng = random.Random(20260808)
    comparators = ["<", "<=", ">", ">=", "=", "!="]
    for _ in range(300):
        atoms = []
        for _ in range(rng.randint(0, 4)):
            literal = rng.randint(-10, 110)
            atoms.append(Atom("depth", rng.choice(comparators), literal, "mm"))
        expr = CapabilityExpression("Drilling", tuple(atoms))
        nf = normalize(expr, base_world)
        assert _normal_form_members(nf, base_world, "depth") == _enumerate_satisfying(
            expr, base_world, "depth"
        )


def test_evaluate_expression_direct(base_world):
    expr = parse_expression(
        "Drilling and (depth >= 10 mm) and (depth <= 20 mm)", base_world
    )
    assert evaluate_expression(expr, {"depth": 12}, base_world)
    assert not evaluate_expression(expr, {"depth": 21}, base_world)
    assert not evaluate_expression(expr, {}, base_world)


def test_format_feasible_set(base_world):
    nf = normalize(
        parse_expression("Drilling and (depth >= 10 mm) and (depth <= 15 mm)", base_world),
        base_world,
    )
    assert format_feasible_set(nf.feasible["depth"]) == "[10, 15]"
    nf = normalize(parse_expression("Screwing and (torque < 4)", base_world), base_world)
    assert format_feasible_set(nf.feasible["torque"]) == "[0, 4)"


# --- the matching kernel: int bounds and emptiness from bounds ---------------

def _random_feasible_set(rng, datatype):
    if datatype == "enum":
        return FeasibleSet.of_members("enum", rng.sample("abcde", rng.randint(0, 5)))

    def bound():
        if rng.random() < 0.2:
            return None
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))

    excluded = {
        Fraction(rng.randint(-12, 12), rng.choice((1, 2)))
        for _ in range(rng.choice((0, 0, 1, 3)))
    }
    return FeasibleSet.interval(
        datatype, bound(), rng.random() < 0.5, bound(), rng.random() < 0.5, excluded
    )


def test_emptiness_from_bounds_equals_intersection():
    rng = random.Random(6006)
    for _ in range(6000):
        datatype = rng.choice(("integer", "real", "enum"))
        r = _random_feasible_set(rng, datatype)
        p = _random_feasible_set(rng, datatype)
        assert r.meets(p) == (not r.intersect(p).is_empty), (r, p)
        assert r.meets(p) == p.meets(r)


@pytest.mark.parametrize("datatype", ["integer", "real", "enum"])
def test_the_empty_set_is_a_subset_of_each_set_and_only_empty_sets_of_it(datatype):
    rng = random.Random(6008)
    empty = FeasibleSet.empty(datatype)
    for _ in range(50):
        other = _random_feasible_set(rng, datatype)
        assert empty.subset_of(other)
        assert other.subset_of(empty) == other.is_empty, other


def _bound_values(fs):
    return [v for v in (fs.lower, fs.upper) if v is not None] + sorted(fs.excluded)


def test_integer_feasible_sets_have_int_bounds(base_world):
    rng = random.Random(6007)
    comparators = ["<", "<=", ">", ">=", "=", "!="]
    seen = 0
    for _ in range(300):
        atoms = tuple(
            Atom(
                "depth",
                rng.choice(comparators),
                rng.choice((rng.randint(-10, 110), Decimal(rng.randint(-10, 110)) / 4)),
                rng.choice(("mm", "mm", "cm")),
            )
            for _ in range(rng.randint(1, 4))
        )
        fs = normalize(CapabilityExpression("Drilling", atoms), base_world).feasible["depth"]
        values = _bound_values(fs)
        assert all(type(v) is int for v in values), fs
        seen += len(values)
        other = _random_feasible_set(rng, "integer")
        assert all(type(v) is int for v in _bound_values(fs.intersect(other)))
        if not fs.is_empty:
            assert type(fs.pick_member()) is int
    assert seen > 200
    torque = normalize(parse_expression("Screwing and (torque < 4)", base_world), base_world)
    assert all(type(v) is Fraction for v in _bound_values(torque.feasible["torque"]))


def test_format_prints_int_and_whole_fraction_bounds_alike():
    for low, high, excluded in ((10, 15, 12), (-3, 0, -1), (0, 100, 7)):
        as_int = FeasibleSet("interval", "integer", low, True, high, True, frozenset({excluded}))
        as_fraction = FeasibleSet(
            "interval", "integer", Fraction(low), True, Fraction(high), True,
            frozenset({Fraction(excluded)}),
        )
        assert format_feasible_set(as_int) == format_feasible_set(as_fraction)
    assert format_feasible_set(as_int) == "[0, 100] \\ {7}"


# --- the integer fold against the Fraction fold -------------------------------

def _fraction_fold(expr, world):
    """Reference normal form: every literal through ``to_fraction`` and a
    unit conversion, the declared range clipped with ``to_fraction`` bounds,
    then the same canonical ``FeasibleSet.interval``."""

    def tighter(old, new, lower):
        if old[0] is None or (new[0] > old[0] if lower else new[0] < old[0]):
            return new
        if new[0] == old[0]:
            return old[0], old[1] and new[1]
        return old

    feasible = {}
    for property_id in dict.fromkeys(a.property_id for a in expr.atoms):
        prop = world.property_def(property_id)
        lower = upper = (None, False)
        excluded = set()
        for atom in (a for a in expr.atoms if a.property_id == property_id):
            value = convert_between_units(to_fraction(atom.literal), atom.unit, prop.unit)
            if atom.comparator in (">", ">=", "="):
                lower = tighter(lower, (value, atom.comparator != ">"), True)
            if atom.comparator in ("<", "<=", "="):
                upper = tighter(upper, (value, atom.comparator != "<"), False)
            if atom.comparator == "!=":
                excluded.add(value)
        if prop.declared_range is not None:
            lo, hi = prop.declared_range
            lower = tighter(lower, (to_fraction(lo), True), True)
            upper = tighter(upper, (to_fraction(hi), True), False)
        feasible[property_id] = FeasibleSet.interval(
            prop.datatype, lower[0], lower[1], upper[0], upper[1], frozenset(excluded)
        )
    return NormalForm(expr.class_id, feasible)


def _fold_world() -> WorldModel:
    """Integer and real properties with and without units and declared
    ranges; ``gap``, ``sliver`` and ``flat`` have empty domains, which only an
    unvalidated world can hold."""
    return WorldModel(
        taxonomy=sample_taxonomy(),
        property_defs=(
            PropertyDefinition("depth", "integer", unit="mm", declared_range=(0, 100)),
            PropertyDefinition("span", "integer", unit="mm"),
            PropertyDefinition("cycle", "integer", unit="s", declared_range=(0, 3600)),
            PropertyDefinition(
                "count", "integer", declared_range=(Decimal("-2.5"), Decimal("40.5"))
            ),
            PropertyDefinition("gap", "integer", unit="mm", declared_range=(5, 3)),
            PropertyDefinition(
                "sliver", "integer", declared_range=(Decimal("0.2"), Decimal("0.8"))
            ),
            PropertyDefinition("torque", "real", declared_range=(0, 10)),
            PropertyDefinition("angle", "real"),
            PropertyDefinition("flat", "real", declared_range=(4, 2)),
        ),
    )


#: property -> units an atom on it may carry
_FOLD_UNITS = {
    "depth": (None, "mm", "cm"), "span": (None, "mm", "cm", "m"),
    "cycle": (None, "s", "min"), "count": (None,), "gap": (None, "mm", "cm"),
    "sliver": (None,), "torque": (None,), "angle": (None,), "flat": (None,),
}


def _fold_literal(rng):
    roll = rng.random()
    if roll < 0.6:
        return rng.randint(-10, 110)
    if roll < 0.9:
        return Decimal(rng.randint(-40, 440)) / 4
    return Fraction(rng.randint(-30, 330), 3)


def test_normalize_equals_the_fraction_fold():
    world = _fold_world()
    rng = random.Random(1010)
    comparators = ["<", "<=", ">", ">=", "=", "!="]
    kinds = set()
    for _ in range(3000):
        properties = rng.sample(sorted(_FOLD_UNITS), rng.randint(1, 3))
        atoms = tuple(
            Atom(p, rng.choice(comparators), _fold_literal(rng), rng.choice(_FOLD_UNITS[p]))
            for p in properties
            for _ in range(rng.randint(1, 4))
        )
        expr = CapabilityExpression("Drilling", rng.sample(atoms, len(atoms)))
        got, want = normalize(expr, world), _fraction_fold(expr, world)
        assert got == want, expr
        for property_id, fs in got.feasible.items():
            assert format_feasible_set(fs) == format_feasible_set(want.feasible[property_id])
            kinds.add((property_id, fs.kind, bool(fs.excluded)))
            if fs.datatype == "integer":
                assert all(type(v) is int for v in _bound_values(fs)), fs
            else:
                assert all(type(v) is Fraction for v in _bound_values(fs)), fs
    for property_id in ("depth", "span", "cycle", "count", "torque", "angle"):
        assert {(property_id, "interval", True), (property_id, "empty", False)} <= kinds
    assert {("gap", "empty", False), ("sliver", "empty", False), ("flat", "empty", False)} <= kinds
    assert not any(p in ("gap", "sliver", "flat") and k != "empty" for p, k, _ in kinds)
