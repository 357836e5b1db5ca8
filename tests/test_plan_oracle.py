"""``plan`` against a reference planner that repeats every per-step decision
for every candidate: it ranks all of the world's capabilities through
``match_capabilities``, tests the envelope with the step values as written,
binds each candidate through ``bind_parameters`` and keeps each step's chain
of qualifying candidates eagerly.
``plan`` ranks only class-compatible groups and qualifies the candidates
after a step's primary only when execution reaches them; neither may change
a plan, the chain of candidates execution would try, or an error.
"""

from __future__ import annotations

import random
from dataclasses import replace
from decimal import Decimal

import pytest

from conftest import exec_world_doc, many_drillers_world_doc, taxonomy_doc_classes
from test_acceptance import scenario_world_doc
from test_hosting import _depth_mapped_to_metres, enum_skill_world
from test_orchestrate import (
    _depth_in_metres,
    _depth_onto_an_output,
    _feed_rate_required,
    single_provider_world_doc,
    two_holes_world,
)

import csskit.matching
import csskit.model
import csskit.orchestrate
from csskit.documents import build_world
from csskit.errors import (
    CssError,
    ModelInvalidError,
    NoMatchForStepError,
    TypeMismatchError,
    UnboundRequiredParameterError,
    UnknownParameterError,
)
from csskit.expressions import parse_expression
from csskit.matching import MatchDegree, match_capabilities, rank_providers
from csskit.model import Capability, Resource, WorldModel, validate_model, validate_product
from csskit.orchestrate import PlanEntry, bind_parameters, plan
from csskit.taxonomy import is_subclass_of

_UNBOUND = (TypeMismatchError, UnboundRequiredParameterError, UnknownParameterError)


def reference_candidates(step, world):
    """(resource id, capability, degree, skill) of every candidate that
    matches the step, holds its values and has a skill, in ranking order:
    every candidate that planning and execution together may bind."""
    ranked = []
    for resource, capability in world.capabilities():
        degree = match_capabilities(step.required_capability, capability.expression, world).degree
        if degree is not MatchDegree.DISJOINT:
            ranked.append((resource.id, capability, degree))
    ranked.sort(key=lambda item: (-item[2].rank, item[0], item[1].id))
    for resource_id, capability, degree in ranked:
        provided_nf = world.normal_form(capability)
        if not all(
            provided_nf.feasible_or_domain(property_id, world).contains(value)
            for property_id, value in step.parameter_values.items()
        ):
            continue
        descriptor = world.skill_implementing(resource_id, capability)
        if descriptor is not None:
            yield resource_id, capability, degree, descriptor


def reference_plan(product, world):
    """``plan_chains`` with no work shared between candidates or steps: every
    step's qualifying candidates, bound eagerly."""
    for what, report in (("world", validate_model(world)),
                         ("product", validate_product(world, product))):
        if not report.ok:
            details = "; ".join(f"{i.path}: {i.message}" for i in report.errors())
            raise ModelInvalidError(f"{what} fails validation: {details}")
    entries = []
    for step in product.steps:
        qualifying = []
        for resource_id, capability, degree, descriptor in reference_candidates(step, world):
            try:
                assignment = bind_parameters(step, capability, descriptor, world)
            except _UNBOUND:
                continue
            qualifying.append(PlanEntry(
                step.id, resource_id, capability.id, descriptor.skill_id, degree, assignment,
            ))
        if not qualifying:
            raise NoMatchForStepError(step.id)
        entries.append(tuple(qualifying))
    return product.id, entries


def plan_chains(product, world):
    """The product id and, per step, the primary ``plan`` chose followed by
    the alternates ``execute_plan`` would qualify and try, in order."""
    production_plan = plan(product, world)
    return production_plan.product_id, [
        (entry, *entry.alternates()) for entry in production_plan.entries
    ]


def outcome(planner, product, world) -> str:
    """The plan's repr, or the error's type and message."""
    try:
        return repr(planner(product, world))
    except CssError as exc:
        return f"{type(exc).__name__}: {exc.message}"


def assert_plans_match_reference(world) -> int:
    """Compare every product of the world; the number planned without error."""
    planned = 0
    for product in world.products:
        expected = outcome(reference_plan, product, world)
        assert outcome(plan_chains, product, world) == expected, product.id
        planned += not expected.startswith(("NoMatchForStepError", "ModelInvalidError"))
    return planned


# --- the worlds of the other test modules ------------------------------------------

def _both_drillers(modify):
    return lambda: modify(modify(exec_world_doc(), "r-driller-a"), "r-driller-b")


def _test_world_docs():
    docs = [
        exec_world_doc, single_provider_world_doc, scenario_world_doc,
        _depth_mapped_to_metres, lambda: _depth_mapped_to_metres(default_depth=99),
    ]
    for modify in (_feed_rate_required, _depth_in_metres, _depth_onto_an_output):
        for resource_id in ("r-driller-a", "r-driller-b"):
            docs.append(lambda m=modify, r=resource_id: m(exec_world_doc(), r))
        docs.append(_both_drillers(modify))
    return docs


@pytest.mark.parametrize("make_doc", _test_world_docs())
def test_plan_equals_reference_on_test_worlds(make_doc):
    assert_plans_match_reference(build_world([make_doc()]))


@pytest.mark.parametrize("make_world", [two_holes_world, enum_skill_world])
def test_plan_equals_reference_on_built_test_worlds(make_world):
    world = make_world()
    assert assert_plans_match_reference(world) == len(world.products)


# --- seeded worlds ----------------------------------------------------------------

#: the sample tree with one class below Drilling, so Drilling is not a leaf
CLASSES = (*(c["id"] for c in taxonomy_doc_classes()), "Countersinking")
PROPERTIES = [
    {"id": "depth", "datatype": "integer", "unit": "mm", "declaredRange": [0, 100]},
    {"id": "torque", "datatype": "real", "declaredRange": [0, 10]},
    {"id": "material", "datatype": "enum", "enumValues": ["steel", "aluminium", "wood"]},
]
#: torque values and envelope bounds that meet: 5 as an int and as Decimals
TORQUES = (Decimal("2.5"), 3, Decimal("3.0"), 5, Decimal("5"), Decimal("5.00"))
TORQUE_BOUNDS = ("2.5", "3", "5")


def _envelope(rng: random.Random) -> str:
    atoms = []
    if rng.random() < 0.7:
        limit = rng.choice((1, 2, 3, 5))
        atoms.append(f"(depth {rng.choice(('<', '<='))} {limit} cm)")
    if rng.random() < 0.3:
        atoms.append(f"(depth {rng.choice(('>', '>=', '!='))} {rng.choice((10, 12, 20))} mm)")
    if rng.random() < 0.7:
        comparator = rng.choice(("<", "<=", ">", ">=", "!="))
        atoms.append(f"(torque {comparator} {rng.choice(TORQUE_BOUNDS)})")
    if rng.random() < 0.2:
        atoms.append("(material in {" + ", ".join(rng.sample(["steel", "aluminium", "wood"], 2)) + "})")
    return " and ".join([rng.choice(CLASSES), *atoms])


def _skill(rng: random.Random, skill_id: str, ref: str) -> tuple[dict, dict]:
    """A skill whose depth input is in mm, cm or m and an integer or a real,
    plus the capability's mapping onto it."""
    depth_id = rng.choice(("depth", "drillDepth"))
    parameters = [
        {"paramId": depth_id, "direction": "input",
         "datatype": rng.choice(("integer", "real")), "unit": rng.choice(("mm", "cm", "m"))},
        {"paramId": "torque", "direction": "input", "datatype": rng.choice(("integer", "real"))},
    ]
    if rng.random() < 0.3:
        parameters.append({"paramId": "material", "direction": "input", "datatype": "enum"})
    if rng.random() < 0.2:
        extra = {"paramId": "feedRate", "direction": "input", "datatype": "real"}
        if rng.random() < 0.5:
            extra["default"] = 1
        parameters.append(extra)
    mapping = {} if depth_id == "depth" else {"depth": depth_id}
    skill = {"skillId": skill_id, "capabilityRef": ref, "parameters": parameters}
    return skill, mapping


def _step(rng: random.Random, step_id: str) -> dict:
    class_id = rng.choice(("ManufacturingProcess", "Separating", "Joining", "Drilling",
                           rng.choice(CLASSES)))
    depth = rng.choice((0, 10, 12, 20, 25, 30, 50))
    torque = rng.choice(TORQUES)
    atoms = [f"(depth >= {max(depth - rng.randint(0, 5), 0)} mm)"] if rng.random() < 0.5 else []
    values = {"depth": depth, "torque": torque}
    if rng.random() < 0.3:
        values["material"] = rng.choice(["steel", "aluminium", "wood"])
    return {
        "id": step_id,
        "requiredCapability": " and ".join([class_id, *atoms]),
        "parameterValues": values,
    }


def seeded_world_doc(seed: int) -> dict:
    rng = random.Random(f"plan-oracle:{seed}")
    taxonomy = [*taxonomy_doc_classes(), {"id": "Countersinking", "parent": "Drilling"}]
    resources = []
    for index in range(rng.randint(10, 24)):
        capabilities, skills = [], []
        for position in range(rng.randint(1, 2)):
            cap_id = f"cap-{index:02d}-{position}"
            capability = {"id": cap_id, "iri": f"urn:cap:{index}:{position}",
                          "expression": _envelope(rng)}
            if rng.random() < 0.9:
                skill, capability["propertyToParameter"] = _skill(
                    rng, f"skill-{index:02d}-{position}", cap_id
                )
                skills.append(skill)
            capabilities.append(capability)
        resources.append({"id": f"r-{index:02d}", "capabilities": capabilities, "skills": skills})
    products = [
        {"id": f"prod-{p}", "steps": [_step(rng, f"step-{s}") for s in range(rng.randint(1, 3))]}
        for p in range(3)
    ]
    return {
        "schema": "css.world/1",
        "taxonomy": {"classes": taxonomy},
        "properties": PROPERTIES,
        "resources": resources,
        "products": products,
    }


SEEDS = range(40)


def test_plan_equals_reference_on_seeded_worlds():
    planned = 0
    for seed in SEEDS:
        world = build_world([seeded_world_doc(seed)])
        assert validate_model(world).ok, seed
        planned += assert_plans_match_reference(world)
    assert planned >= 2 * len(SEEDS)  # most of the three products plan; the rest raise alike


def test_a_conversion_failure_names_each_input_it_fails_for():
    """12 mm binds to no integer input in metres: each binding fails, naming
    the candidate's input."""
    doc = _depth_in_metres(_depth_in_metres(exec_world_doc(), "r-driller-a"), "r-driller-b")
    driller_b = doc["resources"][1]
    driller_b["capabilities"][0]["propertyToParameter"] = {"depth": "drillDepth"}
    driller_b["skills"][0]["parameters"][0]["paramId"] = "drillDepth"
    world = build_world([doc])
    step = world.product("prod-bracket").steps[0]
    messages = []
    for resource_id in ("r-driller-a", "r-driller-b", "r-driller-a"):
        capability = world.resource(resource_id).provided_capabilities[0]
        skill = world.skill_implementing(resource_id, capability)
        with pytest.raises(TypeMismatchError) as excinfo:
            bind_parameters(step, capability, skill, world)
        messages.append(excinfo.value.message)
    assert messages == [
        f"{target}: 12 does not scale to an integer value"
        for target in ("depth", "drillDepth", "depth")
    ]


def test_real_values_on_open_and_closed_bounds():
    """A Decimal and an int torque, each exactly on an open and on a closed
    bound of its candidates' envelopes, bound to real and integer inputs."""
    doc = seeded_world_doc(0)
    doc["resources"] = [
        {
            "id": f"r-{i}",
            "capabilities": [{"id": f"cap-{i}", "iri": f"urn:cap:{i}",
                              "expression": f"Screwing and (torque {comparator} {bound})"}],
            "skills": [{"skillId": f"skill-{i}", "capabilityRef": f"cap-{i}",
                        "parameters": [{"paramId": "torque", "direction": "input",
                                        "datatype": datatype}]}],
        }
        for i, (comparator, bound, datatype) in enumerate(
            (c, b, d) for c in ("<", "<=", ">", ">=", "!=") for b in ("2.5", "5")
            for d in ("integer", "real")
        )
    ]
    doc["products"] = [
        {"id": f"prod-{i}", "steps": [{"id": "step", "requiredCapability": required,
                                        "parameterValues": {"torque": value}}]}
        for i, (required, value) in enumerate(
            (r, v) for r in ("Screwing", "Joining")
            for v in (Decimal("2.5"), Decimal("2.50"), 5, Decimal("5"), Decimal("5.0"))
        )
    ]
    world = build_world([doc])
    assert assert_plans_match_reference(world) == len(world.products)
    primary = plan(world.product("prod-2"), world).entries[0]  # torque 5 as an int
    assert primary.parameter_assignment == {"torque": 5}


# --- one code path per decision -----------------------------------------------------

@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_plan_binds_and_decides_class_relations_through_one_path(monkeypatch, seed):
    """While ``plan`` runs, the public ``bind_parameters`` is called once per
    ranked candidate inside the envelope that has a skill, up to the first
    that binds, and the matcher's ``is_subclass_of`` twice per class group per
    step ranked; the world decides no class relation. ``None`` stands for
    ``exec_world_doc``."""
    world = build_world([exec_world_doc() if seed is None else seeded_world_doc(seed)])
    groups = len({capability.expression.class_id for _, capability in world.capabilities()})
    expected_binds, expected_tests = [], 0
    for product in world.products:
        assert validate_product(world, product).ok
        for step in product.steps:  # up to the first step that nothing qualifies for
            expected_tests += 2 * groups
            bound = False
            for _, capability, _, skill in reference_candidates(step, world):
                expected_binds.append((step.id, capability.id, skill.skill_id))
                try:
                    bind_parameters(step, capability, skill, world)
                    bound = True
                    break
                except _UNBOUND:
                    pass
            if not bound:
                break

    binds, tests = [], []

    def counted_bind(step, capability, skill, *rest):
        binds.append((step.id, capability.id, skill.skill_id))
        return bind_parameters(step, capability, skill, *rest)

    def counted_test(*args):
        tests.append(args)
        return is_subclass_of(*args)

    monkeypatch.setattr(csskit.orchestrate, "bind_parameters", counted_bind)
    monkeypatch.setattr(csskit.matching, "is_subclass_of", counted_test)
    for product in world.products:
        outcome(plan, product, world)
    assert binds == expected_binds
    assert len(tests) == expected_tests
    assert not hasattr(csskit.model, "is_subclass_of")


def test_plan_binds_and_reads_the_envelope_of_each_primary_only(monkeypatch):
    """With 42 drill providers that all qualify, ``plan`` binds once per step
    and reads a normal form once per ranked candidate, for ranking, plus once
    per step, for its primary's envelope."""
    world = build_world([many_drillers_world_doc(40)])
    product = world.product("prod-bracket")
    ranked = sum(len(rank_providers(step.required_capability, world)) for step in product.steps)
    assert ranked == 43  # 42 drill providers and one screwing provider
    binds, reads = [], []

    def counted_bind(step, *rest):
        binds.append(step.id)
        return bind_parameters(step, *rest)

    original = WorldModel.normal_form

    def counted_read(self, capability):
        reads.append(capability.id)
        return original(self, capability)

    monkeypatch.setattr(csskit.orchestrate, "bind_parameters", counted_bind)
    monkeypatch.setattr(WorldModel, "normal_form", counted_read)
    plan(product, world)
    assert binds == [step.id for step in product.steps]
    assert len(reads) == ranked + len(product.steps)


# --- the order of the class groups -----------------------------------------------

def test_plan_does_not_depend_on_the_order_of_class_groups():
    for seed in range(8):
        world = build_world([seeded_world_doc(seed)])
        before = [outcome(plan_chains, product, world) for product in world.products]
        groups = world._class_groups  # built by the plans above
        assert len(groups) >= 3
        reversed_groups = {c: pairs[::-1] for c, pairs in reversed(groups.items())}
        object.__setattr__(world, "_class_groups", reversed_groups)
        assert [outcome(plan_chains, product, world) for product in world.products] == before
        assert world._class_groups is reversed_groups


def test_rank_providers_does_not_depend_on_the_order_of_resources():
    """Any order of the world's resources, one extra resource among them,
    ranks as the pairwise matches sorted."""
    base = build_world([seeded_world_doc(1)])
    extra = Capability(
        "cap-extra", "urn:cap:extra", parse_expression("Separating and (depth <= 40 mm)", base),
    )
    resources = [*base.resources, Resource("r-extra", (extra,))]
    rng = random.Random(5)
    for required in ("Drilling", "Separating", "ManufacturingProcess and (depth <= 15 mm)"):
        expression = parse_expression(required, base)
        expected = sorted(
            (
                (resource.id, capability, degree)
                for resource in resources
                for capability in resource.provided_capabilities
                if (degree := match_capabilities(expression, capability.expression, base).degree)
                is not MatchDegree.DISJOINT
            ),
            key=lambda item: (-item[2].rank, item[0], item[1].id),
        )
        assert ("r-extra", extra) in [(r, c) for r, c, _ in expected]
        for _ in range(4):
            rng.shuffle(resources)
            world = replace(base, resources=tuple(resources))
            assert rank_providers(expression, world) == expected
        world = replace(base, resources=tuple(reversed(resources)))
        assert rank_providers(expression, world) == expected
