from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import exec_world_doc

from csskit import jsonio
from csskit.documents import build_world, load_document_text
from csskit.errors import DescriptorInvalidError, ModelInvalidError
from csskit.expressions import Atom, CapabilityExpression, normalize, parse_expression
from csskit.hosting import build_resource_host
from csskit.matching import match_capabilities, match_normal_form, rank_providers
from csskit.model import (
    Capability,
    ParameterSpec,
    ProcessStep,
    Product,
    PropertyDefinition,
    Resource,
    SkillDescriptor,
    WorldModel,
    validate_model,
    validate_product,
)
from csskit.orchestrate import plan
from csskit.skills import SkillBehavior, SkillHost
from csskit.taxonomy import Taxonomy, TaxonomyClass


def _capability(world, cid, iri, text):
    return Capability(id=cid, iri=iri, expression=parse_expression(text, world))


def _drill_descriptor(skill_id="skill-drill", ref="urn:cap:drill"):
    return SkillDescriptor(
        skill_id=skill_id,
        capability_ref=ref,
        parameters=(
            ParameterSpec("depth", "input", "integer", unit="mm"),
            ParameterSpec("achievedDepth", "output", "integer", unit="mm"),
        ),
    )


@pytest.fixture
def two_resource_world(base_world) -> WorldModel:
    drill = _capability(base_world, "cap-drill", "urn:cap:drill",
                        "Drilling and (depth <= 15 mm)")
    screw = _capability(base_world, "cap-screw", "urn:cap:screw",
                        "Screwing and (torque <= 5)")
    return replace(
        base_world,
        resources=(
            Resource("r-drill", (drill,), (_drill_descriptor(),)),
            Resource("r-screw", (screw,), ()),
        ),
    )


def test_well_formed_world_validates_empty(two_resource_world):
    report = validate_model(two_resource_world)
    assert report.issues == ()
    assert report.ok


def test_dangling_skill_reference(two_resource_world):
    broken = replace(
        two_resource_world,
        resources=two_resource_world.resources[:1]
        + (
            Resource(
                "r-broken",
                (),
                (_drill_descriptor("skill-broken", ref="cap-missing"),),
            ),
        ),
    )
    report = validate_model(broken)
    errors = report.errors()
    assert len(errors) == 1
    assert errors[0].severity == "error"
    assert "cap-missing" in errors[0].message
    assert "capabilityRef" in errors[0].path


def test_unit_mismatch_in_capability_constraint(base_world):
    # depth is declared in mm; a constraint in seconds is a dimension clash
    expr = parse_expression("Drilling and (depth <= 15 mm)", base_world)
    bad_atom = replace(expr.atoms[0], unit="s")
    bad_expr = replace(expr, atoms=(bad_atom,))
    world = replace(
        base_world,
        resources=(
            Resource(
                "r-drill",
                (Capability("cap-drill", "urn:cap:drill", bad_expr),),
                (),
            ),
        ),
    )
    report = validate_model(world)
    assert len(report.errors()) == 1
    assert "does not match property" in report.errors()[0].message


def test_validation_is_ordered_and_deterministic(two_resource_world):
    broken = replace(
        two_resource_world,
        resources=two_resource_world.resources
        + (
            Resource("r-z", (), (_drill_descriptor("skill-z", ref="nope"),)),
            Resource("r-a2", (), (_drill_descriptor("skill-a2", ref="also-nope"),)),
        ),
    )
    first = validate_model(broken)
    second = validate_model(broken)
    assert first == second
    paths = [issue.path for issue in first.issues]
    assert paths == sorted(paths)


def test_duplicate_identifiers_flagged(two_resource_world):
    dup = replace(
        two_resource_world,
        resources=two_resource_world.resources
        + (
            Resource(
                "r-dup",
                (
                    _capability(
                        two_resource_world,
                        "cap-drill",
                        "urn:cap:drill",
                        "Drilling",
                    ),
                ),
                (_drill_descriptor(),),
            ),
        ),
    )
    report = validate_model(dup)
    messages = " | ".join(issue.message for issue in report.errors())
    assert "duplicate capability id" in messages
    assert "duplicate capability iri" in messages
    assert "duplicate skill id" in messages


def test_step_parameters_must_satisfy_own_constraints(two_resource_world, base_world):
    from csskit.model import ProcessStep, Product

    step = ProcessStep(
        id="step-1",
        required_capability=parse_expression(
            "Drilling and (depth <= 15 mm)", base_world
        ),
        parameter_values={"depth": 40},
    )
    world = replace(
        two_resource_world, products=(Product("prod-1", steps=(step,)),)
    )
    report = validate_model(world)
    assert any(
        "violates the step's own constraints" in issue.message
        for issue in report.errors()
    )


def test_empty_product_is_a_warning_not_error(two_resource_world):
    from csskit.model import Product

    world = replace(two_resource_world, products=(Product("prod-empty"),))
    report = validate_model(world)
    assert report.ok
    assert any(issue.severity == "warning" for issue in report.issues)


def test_duplicate_iri_fails_validation(two_resource_world):
    shadow = Capability(
        id="cap-shadow",
        iri="urn:cap:drill",
        expression=parse_expression("Milling", two_resource_world),
    )
    world = replace(
        two_resource_world,
        resources=two_resource_world.resources + (Resource("r-shadow", (shadow,), ()),),
    )
    assert not validate_model(world).ok


def test_clean_world_resolves_every_skill_reference(exec_world):
    report = validate_model(exec_world)
    assert report.ok
    for resource in exec_world.resources:
        # raises NotFoundError for a skill whose capability reference resolves nowhere
        host = build_resource_host(exec_world, resource.id)
        assert len(host.local_runtime_ids()) == len(resource.skills)


def test_world_document_round_trip(exec_world):
    text = jsonio.dumps(exec_world_doc())
    reloaded = build_world([load_document_text(text)])
    assert reloaded == exec_world


def test_world_round_trip_from_doc_fixture():
    doc = exec_world_doc()
    text = jsonio.dumps(doc)
    assert load_document_text(text) == doc
    assert jsonio.dumps(load_document_text(text)) == text
    assert build_world([load_document_text(text)]) == build_world([doc])


# --- the world's indexed lookups and kept derived data ----------------------------

def test_lookups_return_the_first_entry_for_a_duplicated_id(base_world):
    world = replace(
        base_world,
        property_defs=base_world.property_defs + (PropertyDefinition("depth", "real"),),
        resources=(Resource("r-1"), Resource("r-1"), Resource("r-2")),
        products=(Product("p-1"), Product("p-1"), Product("p-2")),
    )
    assert world.property_def("depth") is base_world.property_defs[0]
    assert world.resource("r-1") is world.resources[0]
    assert world.product("p-1") is world.products[0]
    assert world.resource("r-2") is world.resources[2]
    assert world.property_def("width") is world.resource("r-9") is world.product("p-9") is None


def _kept_sizes(world) -> dict:
    return {
        (type(holder).__name__, name): len(value)
        for holder in (world, world.taxonomy)
        for name, value in vars(holder).items()
        if isinstance(value, dict)
    }


def test_caller_expressions_are_not_kept_by_the_world(two_resource_world):
    world = two_resource_world
    classes = [c.id for c in world.taxonomy.classes]
    # fill everything bounded by the world itself: domains, class groups and
    # the normal forms of the capabilities it owns (the taxonomy keeps nothing
    # per query)
    for prop in world.property_defs:
        world.domain(prop.id)
    world.capabilities_by_class()
    for _, capability in world.capabilities():
        world.normal_form(capability)
    before = _kept_sizes(world)

    rng = random.Random(3)
    for i in range(1000):
        required = CapabilityExpression(
            rng.choice(classes), (Atom("depth", "<=", rng.randint(0, 100), "mm"),)
        )
        provided = CapabilityExpression(
            rng.choice(classes), (Atom("torque", ">=", i % 10, None),)
        )
        match_capabilities(required, provided, world)
        caller_made = Capability(f"cap-{i}", f"urn:cap:{i}", provided)
        assert world.normal_form(caller_made) == normalize(provided, world)
        match_normal_form(normalize(required, world), caller_made.expression, world)
        rank_providers(required, world)
    assert _kept_sizes(world) == before


def test_invalid_world_builds_and_only_plan_raises():
    step = ProcessStep("s-1", CapabilityExpression("Drilling"))
    world = WorldModel(
        taxonomy=Taxonomy(
            classes=(TaxonomyClass("Root"), TaxonomyClass("Drilling", parent="Missing"))
        ),
        property_defs=(
            PropertyDefinition("depth", "quantity"),
            PropertyDefinition("grade", "enum"),
        ),
        resources=(
            Resource(
                "r-1",
                (
                    Capability(
                        "cap-1",
                        "urn:cap:1",
                        CapabilityExpression("Drilling", (Atom("width", "<=", 3, None),)),
                    ),
                ),
            ),
        ),
        products=(Product("p-1", (step,)),),
    )
    assert not validate_model(world).ok
    with pytest.raises(ModelInvalidError):
        plan(world.product("p-1"), world)


@pytest.mark.parametrize("mapping, messages", [
    ({"diameter": "depth"}, ["input 'depth' is bound by both 'depth' and 'diameter'"]),
    ({"depth": "drillDepth"}, ["input 'depth' has no default and no property binds it",
                               "mapping targets 'drillDepth', which is not an input "
                               "parameter of skill 'skill-drill-a'"]),
    ({"diameter": "achievedDepth"}, ["mapping targets 'achievedDepth', which is not an "
                                     "input parameter of skill 'skill-drill-a'"]),
])
def test_validation_warns_of_an_ambiguous_or_broken_binding(mapping, messages):
    doc = exec_world_doc()
    doc["resources"][0]["capabilities"][0]["propertyToParameter"] = mapping
    report = validate_model(build_world([doc]))
    assert report.ok
    assert [(i.severity, i.path, i.message) for i in report.issues] == [
        ("warning", "resources[r-driller-a].skills[skill-drill-a]", message)
        for message in messages
    ]


@pytest.mark.parametrize("unit, issues", [
    ("cm", []),
    ("m", []),
    (None, []),
    ("furlong", [("error", "resources[r-driller-a].skills[skill-drill-a]",
                  "parameter 'depth' unit 'furlong' is not in the scale table")]),
])
def test_validation_warns_only_of_an_input_unit_of_another_dimension(unit, issues):
    """An input in another length unit, or in none, converts; a unit outside
    the table is already an error and gets no second, dimension issue."""
    doc = exec_world_doc()
    parameter = doc["resources"][0]["skills"][0]["parameters"][0]
    if unit is None:
        del parameter["unit"]
    else:
        parameter["unit"] = unit
    report = validate_model(build_world([doc]))
    assert [(i.severity, i.path, i.message) for i in report.issues] == issues


@pytest.mark.parametrize("prop, path, message", [
    (PropertyDefinition("depth", "integer", unit="mm"), "properties[depth]",
     "duplicate property id 'depth'"),
    (PropertyDefinition("grade", "integer", enum_values=("a",)), "properties[grade]",
     "enumValues are only allowed on enum properties"),
    (PropertyDefinition("grade", "integer", unit="furlong"), "properties[grade]",
     "unit 'furlong' is not in the scale table"),
    (PropertyDefinition("grade", "boolean", declared_range=(0, 1)), "properties[grade]",
     "declaredRange is only allowed on numeric properties"),
    (PropertyDefinition("grade", "integer", declared_range=(5, 1)), "properties[grade]",
     "declaredRange lower 5 exceeds upper 1"),
], ids=["duplicate-id", "enum-values", "unit", "range-datatype", "range-order"])
def test_validation_flags_each_bad_property(base_world, prop, path, message):
    world = replace(base_world, property_defs=base_world.property_defs + (prop,))
    assert [(i.severity, i.path, i.message) for i in validate_model(world).issues] == [
        ("error", path, message)
    ]


def _with_extra_resource(world):
    return replace(world, resources=world.resources + (Resource("r-driller-a"),))


def _with_extra_product(world):
    return replace(world, products=world.products + (Product("prod-bracket"),))


def _without_capability_ref(world):
    first = world.resources[0]
    skill = replace(first.skills[0], capability_ref="")
    return replace(world, resources=(replace(first, skills=(skill,)), *world.resources[1:]))


@pytest.mark.parametrize("edit, issues", [
    (_with_extra_resource, [
        ("error", "resources[r-driller-a]", "duplicate resource id 'r-driller-a'"),
    ]),
    (_with_extra_product, [
        ("error", "products[prod-bracket]", "duplicate product id 'prod-bracket'"),
        ("warning", "products[prod-bracket]", "product has no steps and cannot be orchestrated"),
    ]),
    (_without_capability_ref, [
        ("error", "resources[r-driller-a].skills[skill-drill-a].capabilityRef",
         "capabilityRef must be specified"),
    ]),
], ids=["resource-id", "product-id", "capability-ref"])
def test_validation_flags_a_duplicate_id_or_an_empty_reference(exec_world, edit, issues):
    report = validate_model(edit(exec_world))
    assert [(i.severity, i.path, i.message) for i in report.issues] == issues


_DEPTH = ParameterSpec("depth", "input", "integer", unit="mm")


@pytest.mark.parametrize("parameters, profile, message", [
    ((_DEPTH,), "ISA-88", "unsupported state machine profile 'ISA-88'"),
    ((_DEPTH, replace(_DEPTH, direction="output")), "PACKML-17",
     "duplicate parameter id 'depth'"),
    ((_DEPTH, ParameterSpec("localRuntimeId", "input", "enum")), "PACKML-17",
     "localRuntimeId is runtime metadata, not a parameter"),
    ((replace(_DEPTH, direction="inout"),), "PACKML-17",
     "parameter 'depth' has invalid direction 'inout'"),
    ((replace(_DEPTH, datatype="quantity"),), "PACKML-17",
     "parameter 'depth' has unknown datatype 'quantity'"),
    ((replace(_DEPTH, default="deep"),), "PACKML-17",
     "parameter 'depth' default 'deep' is not a integer literal"),
    ((replace(_DEPTH, unit="furlong"),), "PACKML-17",
     "parameter 'depth' unit 'furlong' is not in the scale table"),
], ids=["profile", "duplicate", "runtime-id", "direction", "datatype", "default", "unit"])
def test_each_descriptor_issue_fails_validation_and_registration(
    exec_world, parameters, profile, message
):
    skill = SkillDescriptor(
        "skill-drill-a", "urn:cap:drill-a", parameters=parameters,
        state_machine_profile=profile,
    )
    first = exec_world.resources[0]
    world = replace(
        exec_world, resources=(replace(first, skills=(skill,)), *exec_world.resources[1:])
    )
    assert [(i.path, i.message) for i in validate_model(world).errors()] == [
        ("resources[r-driller-a].skills[skill-drill-a]", message)
    ]
    with pytest.raises(DescriptorInvalidError) as excinfo:
        SkillHost().register_skill(skill, SkillBehavior())
    assert excinfo.value.message == message


@pytest.mark.parametrize("step, path, message", [
    (ProcessStep("step-x", CapabilityExpression("Boring", ())),
     "products[p-1].steps[step-x].requiredCapability", "class 'Boring' is not in the taxonomy"),
    (ProcessStep("step-x", CapabilityExpression("Drilling", ()), {"depth": "deep"}),
     "products[p-1].steps[step-x].parameterValues[depth]", "'deep' is not a integer literal"),
], ids=["required-capability", "value-datatype"])
def test_validation_flags_a_bad_step(base_world, step, path, message):
    report = validate_product(base_world, Product("p-1", (step,)))
    assert [(i.severity, i.path, i.message) for i in report.issues] == [
        ("error", path, message)
    ]
