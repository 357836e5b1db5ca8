from __future__ import annotations

import random
from dataclasses import replace
from decimal import Decimal

from conftest import evaluate_expression, exec_world_doc, sample_taxonomy
from test_documents import offer_doc, request_doc

import csskit.matching
from csskit.documents import build_world, offer_from_doc, request_from_doc
from csskit.expressions import (
    Atom,
    CapabilityExpression,
    normalize,
)
from csskit.market import select_offers
from csskit.matching import MatchDegree, match_capabilities, match_normal_form, rank_providers
from csskit.model import Capability, PropertyDefinition, Resource, WorldModel
from csskit.orchestrate import plan
from csskit.taxonomy import is_subclass_of
from csskit.values import parse_timestamp


def _expr(world, text):
    from csskit.expressions import parse_expression

    return parse_expression(text, world)


# --- satisfiable -------------------------------------------------------------

def test_satisfiable_nonempty_interval(base_world):
    nf = normalize(
        _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 15 mm)"),
        base_world,
    )
    assert not nf.feasible["depth"].is_empty


def test_satisfiable_empty_interval(base_world):
    nf = normalize(
        _expr(base_world, "Drilling and (depth >= 20 mm) and (depth <= 15 mm)"),
        base_world,
    )
    assert nf.feasible["depth"].is_empty


def test_satisfiable_point_with_excluded_point_matches_enumeration(base_world):
    expr = _expr(
        base_world,
        "Drilling and (depth >= 12 mm) and (depth <= 12 mm) and (depth != 12 mm)",
    )
    nf = normalize(expr, base_world)
    # oracle: enumerate the declared range directly against the raw atoms
    prop = base_world.property_def("depth")
    lo, hi = prop.declared_range
    oracle = {
        v for v in range(lo, hi + 1) if evaluate_expression(expr, {"depth": v}, base_world)
    }
    assert oracle == set()
    assert nf.feasible["depth"].is_empty


# --- conjunction ---------------------------------------------------------------

def test_conjoin_intersects_intervals(base_world):
    required = _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 20 mm)")
    provided = _expr(base_world, "Drilling and (depth <= 15 mm)")
    result = match_capabilities(required, provided, base_world)
    fs = result.per_property["depth"].intersection
    # oracle: intersect by integer enumeration of both raw expressions
    members = {v for v in range(0, 101) if fs.contains(v)}
    oracle = {v for v in range(0, 101) if 10 <= v <= 20 and v <= 15}
    assert members == oracle == set(range(10, 16))


def test_conjoin_sibling_classes_disjoint(base_world):
    required = _expr(base_world, "Drilling")
    provided = _expr(base_world, "Milling")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.DISJOINT


def test_conjoin_subsumption_picks_specific_class(base_world):
    general = _expr(base_world, "Separating")
    specific = _expr(base_world, "Drilling")
    assert match_capabilities(general, specific, base_world).degree is MatchDegree.SUBSUME
    assert match_capabilities(specific, general, base_world).degree is MatchDegree.PLUGIN


# --- match_capabilities --------------------------------------------------------

def test_match_intersect_with_witness(base_world):
    """Required [10,20] vs provided <=15: brute force over the declared range
    confirms partial overlap; witness is the floored midpoint 12."""
    required = _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 20 mm)")
    provided = _expr(base_world, "Drilling and (depth <= 15 mm)")
    r_set = {v for v in range(0, 101) if evaluate_expression(required, {"depth": v}, base_world)}
    p_set = {v for v in range(0, 101) if evaluate_expression(provided, {"depth": v}, base_world)}
    assert r_set & p_set and not r_set <= p_set and not p_set <= r_set

    result = match_capabilities(required, provided, base_world)
    assert result.degree is MatchDegree.INTERSECT
    assert result.witness == {"depth": 12}
    assert result.witness["depth"] in (r_set & p_set)


def test_match_plugin(base_world):
    required = _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 12 mm)")
    provided = _expr(base_world, "Drilling and (depth <= 15 mm)")
    r_set = {v for v in range(0, 101) if evaluate_expression(required, {"depth": v}, base_world)}
    p_set = {v for v in range(0, 101) if evaluate_expression(provided, {"depth": v}, base_world)}
    assert r_set < p_set
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.PLUGIN


def test_match_disjoint_classes(base_world):
    required = _expr(base_world, "Milling")
    provided = _expr(base_world, "Drilling and (depth <= 15 mm)")
    result = match_capabilities(required, provided, base_world)
    assert result.degree is MatchDegree.DISJOINT
    assert result.witness is None


def test_match_exact_and_subsume(base_world):
    a = _expr(base_world, "Drilling and (depth >= 0 mm) and (depth <= 100 mm)")
    b = _expr(base_world, "Drilling")
    assert match_capabilities(a, b, base_world).degree is MatchDegree.EXACT

    required = _expr(base_world, "Drilling and (depth <= 20 mm)")
    provided = _expr(base_world, "Drilling and (depth <= 15 mm)")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.SUBSUME


def test_match_exact_across_different_units(base_world):
    # 2 cm and 20 mm denote the same bound on the declared mm scale
    required = _expr(base_world, "Drilling and (depth <= 2 cm)")
    provided = _expr(base_world, "Drilling and (depth <= 20 mm)")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.EXACT


def test_match_exact_on_real_intervals_is_order_insensitive(base_world):
    required = _expr(base_world, "Screwing and (torque >= 1) and (torque < 5)")
    provided = _expr(base_world, "Screwing and (torque < 5) and (torque >= 1)")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.EXACT


def test_match_real_open_vs_closed_bounds(base_world):
    required = _expr(base_world, "Screwing and (torque > 1) and (torque < 5)")
    provided = _expr(base_world, "Screwing and (torque >= 1) and (torque <= 5)")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.PLUGIN
    assert match_capabilities(provided, required, base_world).degree is MatchDegree.SUBSUME


def test_match_real_excluded_point_containment(base_world):
    # [1,5] minus {3} is strictly inside [1,5]
    required = _expr(base_world, "Screwing and (torque >= 1) and (torque <= 5) and (torque != 3)")
    provided = _expr(base_world, "Screwing and (torque >= 1) and (torque <= 5)")
    assert match_capabilities(required, provided, base_world).degree is MatchDegree.PLUGIN
    # and identical exclusions are EXACT
    same = _expr(base_world, "Screwing and (torque != 3) and (torque <= 5) and (torque >= 1)")
    assert match_capabilities(required, same, base_world).degree is MatchDegree.EXACT


def test_real_interval_membership_sampling(base_world):
    """Raw-atom evaluation and normal-form membership agree on sampled
    rationals around every bound (the real-datatype counterpart of the
    integer enumeration oracle)."""
    from decimal import Decimal as D

    texts = [
        "Screwing and (torque > 1) and (torque < 5)",
        "Screwing and (torque >= 1) and (torque <= 5) and (torque != 3)",
        "Screwing and (torque >= 2.5)",
        "Screwing and (torque = 4.25)",
        "Screwing and (torque > 5) and (torque < 1)",
    ]
    probes = [D("0"), D("0.999"), D("1"), D("1.001"), D("2.5"), D("3"),
              D("4.25"), D("4.999"), D("5"), D("5.001"), D("10")]
    for text in texts:
        expr = _expr(base_world, text)
        nf = normalize(expr, base_world)
        fs = nf.feasible_or_domain("torque", base_world)
        for probe in probes:
            direct = evaluate_expression(expr, {"torque": probe}, base_world)
            assert fs.contains(probe) == direct, (text, probe)


def test_witness_rules_are_deterministic(base_world):
    # integer: floor of the intersection midpoint
    result = match_capabilities(
        _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 20 mm)"),
        _expr(base_world, "Drilling and (depth <= 15 mm)"),
        base_world,
    )
    assert result.witness == {"depth": 12}  # midpoint 12.5 floored
    # enum: lexicographically smallest member of the intersection
    result = match_capabilities(
        _expr(base_world, "Drilling and (material in {steel, wood, aluminium})"),
        _expr(base_world, "Drilling and (material in {wood, steel})"),
        base_world,
    )
    assert result.witness == {"material": "steel"}


def test_witness_satisfies_both_sides(base_world):
    pairs = [
        ("Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
         "Drilling and (depth <= 15 mm)"),
        ("Screwing and (torque >= 1) and (torque <= 3)",
         "Screwing and (torque >= 2) and (torque <= 8)"),
        ("Drilling and (material in {steel, wood})",
         "Drilling and (material in {wood, aluminium})"),
        ("Drilling and (coolant = true)", "Drilling"),
        ("Separating and (depth != 12 mm)", "Drilling and (depth >= 12 mm)"),
    ]
    for required_text, provided_text in pairs:
        required = _expr(base_world, required_text)
        provided = _expr(base_world, provided_text)
        result = match_capabilities(required, provided, base_world)
        assert result.degree is not MatchDegree.DISJOINT
        assert evaluate_expression(required, result.witness, base_world)
        assert evaluate_expression(provided, result.witness, base_world)


# --- rank_providers -------------------------------------------------------------

def _cap(world, cid, iri, text):
    return Capability(id=cid, iri=iri, expression=_expr(world, text))


def _world_of(world, candidates):
    """The world with one resource per (resource id, capability) candidate."""
    return replace(
        world, resources=tuple(Resource(rid, (capability,)) for rid, capability in candidates)
    )


def test_rank_tie_breaks_on_resource_id(base_world):
    required = _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 12 mm)")
    world = _world_of(base_world, [
        ("r-b", _cap(base_world, "cap-b", "urn:b", "Drilling and (depth <= 15 mm)")),
        ("r-a", _cap(base_world, "cap-a", "urn:a", "Drilling and (depth <= 15 mm)")),
    ])
    ranked = rank_providers(required, world)
    assert [r[0] for r in ranked] == ["r-a", "r-b"]
    assert all(r[2] is MatchDegree.PLUGIN for r in ranked)


def test_rank_orders_by_degree(base_world):
    required = _expr(base_world, "Drilling and (depth >= 10 mm) and (depth <= 20 mm)")
    world = _world_of(base_world, [
        ("r-intersect", _cap(base_world, "cap-i", "urn:i", "Drilling and (depth <= 15 mm)")),
        ("r-plugin", _cap(base_world, "cap-p", "urn:p", "Drilling and (depth <= 30 mm)")),
    ])
    ranked = rank_providers(required, world)
    assert [r[0] for r in ranked] == ["r-plugin", "r-intersect"]


def test_rank_drops_disjoint(base_world):
    required = _expr(base_world, "Milling")
    world = _world_of(base_world, [
        ("r-a", _cap(base_world, "cap-a", "urn:a", "Drilling")),
        ("r-b", _cap(base_world, "cap-b", "urn:b", "Screwing")),
    ])
    assert rank_providers(required, world) == []


# --- properties ------------------------------------------------------------------

def _random_world() -> WorldModel:
    return WorldModel(
        taxonomy=sample_taxonomy(),
        property_defs=(
            PropertyDefinition("p1", "integer", unit="mm", declared_range=(0, 60)),
            PropertyDefinition("p2", "integer", declared_range=(-20, 20)),
        ),
    )


def _random_expression(rng: random.Random, world: WorldModel) -> CapabilityExpression:
    class_id = rng.choice([c.id for c in world.taxonomy.classes])
    atoms = []
    for prop in world.property_defs:
        lo, hi = prop.declared_range
        for _ in range(rng.randint(0, 2)):
            comparator = rng.choice(["<", "<=", ">", ">=", "=", "!="])
            literal = rng.randint(lo - 5, hi + 5)
            atoms.append(Atom(prop.id, comparator, literal, None))
    return CapabilityExpression(class_id, tuple(atoms))


def _oracle_degree(required, provided, world) -> MatchDegree:
    """Independent enumeration oracle: class sets by parent walking, property
    sets by direct raw-atom evaluation over the declared ranges."""
    def class_set(class_id):
        out = set()
        for cls in world.taxonomy.classes:
            cur = cls
            while cur is not None:
                if cur.id == class_id:
                    out.add(cls.id)
                    break
                cur = next(
                    (c for c in world.taxonomy.classes if c.id == cur.parent), None
                )
        return out

    def prop_set(expr, prop):
        lo, hi = prop.declared_range
        return {
            v
            for v in range(lo, hi + 1)
            if evaluate_expression(
                CapabilityExpression(
                    expr.class_id,
                    tuple(a for a in expr.atoms if a.property_id == prop.id),
                ),
                {prop.id: v},
                world,
            )
        }

    r_class, p_class = class_set(required.class_id), class_set(provided.class_id)
    r_sets = {prop.id: prop_set(required, prop) for prop in world.property_defs}
    p_sets = {prop.id: prop_set(provided, prop) for prop in world.property_defs}

    inter_empty = not (r_class & p_class) or any(
        not (r_sets[k] & p_sets[k]) for k in r_sets
    )
    if inter_empty:
        return MatchDegree.DISJOINT
    r_in_p = r_class <= p_class and all(r_sets[k] <= p_sets[k] for k in r_sets)
    p_in_r = p_class <= r_class and all(p_sets[k] <= r_sets[k] for k in r_sets)
    if r_in_p and p_in_r:
        return MatchDegree.EXACT
    if r_in_p:
        return MatchDegree.PLUGIN
    if p_in_r:
        return MatchDegree.SUBSUME
    return MatchDegree.INTERSECT


def test_random_pairs_against_enumeration_oracle():
    world = _random_world()
    rng = random.Random(7)
    for _ in range(250):
        required = _random_expression(rng, world)
        provided = _random_expression(rng, world)
        expected = _oracle_degree(required, provided, world)
        got = match_capabilities(required, provided, world).degree
        assert got is expected, (required, provided, expected, got)


def test_pruned_ranking_equals_sorted_pairwise_matches():
    """rank_providers (one required normal form, kept candidate normal forms,
    class pruning) and match_normal_form against the degree of every pair
    through match_capabilities."""
    rng = random.Random(23)
    class_disjoint = 0
    for _ in range(8):
        base = _random_world()
        world = replace(
            base,
            resources=tuple(
                Resource(
                    f"r-{i:02d}",
                    tuple(
                        Capability(f"cap-{j}", f"urn:{i}:{j}", _random_expression(rng, base))
                        for j in range(rng.randint(1, 3))
                    ),
                )
                for i in range(24)
            ),
        )
        candidates = [(resource.id, capability) for resource, capability in world.capabilities()]
        for _ in range(6):
            required = _random_expression(rng, world)
            required_nf = normalize(required, world)
            pairs = []
            for resource_id, capability in candidates:
                degree = match_capabilities(required, capability.expression, world).degree
                assert match_normal_form(required_nf, capability.expression, world) is degree
                pairs.append((resource_id, capability, degree))
            expected = sorted(
                (item for item in pairs if item[2] is not MatchDegree.DISJOINT),
                key=lambda item: (-item[2].rank, item[0], item[1].id),
            )
            assert rank_providers(required, world) == expected
            class_disjoint += sum(
                not is_subclass_of(world.taxonomy, required.class_id, provided)
                and not is_subclass_of(world.taxonomy, provided, required.class_id)
                for provided in (capability.expression.class_id for _, capability in candidates)
            )
    assert class_disjoint > 0


def test_symmetry_properties():
    world = _random_world()
    rng = random.Random(11)
    flip = {
        MatchDegree.PLUGIN: MatchDegree.SUBSUME,
        MatchDegree.SUBSUME: MatchDegree.PLUGIN,
        MatchDegree.EXACT: MatchDegree.EXACT,
        MatchDegree.INTERSECT: MatchDegree.INTERSECT,
        MatchDegree.DISJOINT: MatchDegree.DISJOINT,
    }
    for _ in range(120):
        a = _random_expression(rng, world)
        b = _random_expression(rng, world)
        forward = match_capabilities(a, b, world).degree
        backward = match_capabilities(b, a, world).degree
        assert backward is flip[forward]


def test_tightening_monotonicity():
    """Adding a required atom never un-disjoints, and never turns
    PLUGIN/EXACT into SUBSUME/INTERSECT."""
    world = _random_world()
    rng = random.Random(13)
    for _ in range(120):
        required = _random_expression(rng, world)
        provided = _random_expression(rng, world)
        before = match_capabilities(required, provided, world).degree
        prop = rng.choice(world.property_defs)
        lo, hi = prop.declared_range
        extra = Atom(
            prop.id,
            rng.choice(["<", "<=", ">", ">=", "!="]),
            rng.randint(lo - 2, hi + 2),
            None,
        )
        tightened = CapabilityExpression(required.class_id, required.atoms + (extra,))
        after = match_capabilities(tightened, provided, world).degree
        if before is MatchDegree.DISJOINT:
            assert after is MatchDegree.DISJOINT
        if before in (MatchDegree.PLUGIN, MatchDegree.EXACT):
            assert after in (
                MatchDegree.PLUGIN,
                MatchDegree.EXACT,
                MatchDegree.DISJOINT,
            )


def test_plan_and_offer_selection_build_no_per_property_explanation(monkeypatch):
    """Ranking and offer selection decide a degree only; the per-property
    comparisons are built by match_capabilities alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("PropertyComparison built outside match_capabilities")

    monkeypatch.setattr(csskit.matching, "PropertyComparison", refuse)
    world = build_world([exec_world_doc()])
    entries = plan(world.product("prod-bracket"), world).entries
    assert [entry.resource_id for entry in entries] == ["r-driller-a", "r-screwer"]

    screw_offer = offer_doc()
    screw_offer.update(
        offerId="off-8",
        coveredCapKeys=["cap-screw"],
        providedCapabilities={"cap-screw": "Screwing"},
        unitPrice=Decimal("0.40"),
        exclusiveGroup="lot-b",
    )
    request = request_from_doc(request_doc(), world)
    offers = [offer_from_doc(doc, world) for doc in (offer_doc(), screw_offer)]
    award = select_offers(request, offers, parse_timestamp("2026-08-10T00:00:00Z"), world)
    assert award.offer_ids() == ("off-7", "off-8")
