from __future__ import annotations

from decimal import Decimal

import pytest

from csskit.documents import build_world
from csskit.errors import NotFoundError
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.orchestrate import plan

from conftest import _drill_skill, exec_world_doc


def enum_skill_world():
    """r-driller-a drills only steel with coolant on, and its skill takes and
    reports the material and the coolant flag."""
    doc = exec_world_doc()
    resource = doc["resources"][0]
    resource["capabilities"][0]["expression"] = (
        "Drilling and (depth <= 25 mm) and (material in {steel}) and (coolant = true)"
    )
    resource["skills"][0]["parameters"] += [
        {"paramId": "material", "direction": "input", "datatype": "enum"},
        {"paramId": "achievedMaterial", "direction": "output", "datatype": "enum"},
        {"paramId": "coolant", "direction": "input", "datatype": "boolean"},
        {"paramId": "achievedCoolant", "direction": "output", "datatype": "boolean"},
    ]
    return build_world([doc])


def test_envelope_feasibility_tests_enum_and_boolean_inputs():
    host = build_resource_host(enum_skill_world(), "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    inside = {"depth": 12, "material": "steel", "coolant": True}
    assert host.check_feasibility(lrid, inside).feasible
    for name, value, shown in (("material", "wood", "wood"), ("coolant", False, "false")):
        result = host.check_feasibility(lrid, {**inside, name: value})
        assert not result.feasible
        assert result.reason == f"{name}={shown} is outside the provided limit for {name}"


def test_envelope_execution_echoes_enum_and_boolean_inputs():
    host = build_resource_host(enum_skill_world(), "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    host.fire_command(lrid, "Reset")
    host.write_parameters(lrid, {"depth": 12, "material": "steel", "coolant": True})
    host.fire_command(lrid, "Start")
    snapshot = host.read_skill(lrid)
    assert (snapshot.state, snapshot.last_error) == ("Complete", None)
    assert snapshot.output_values == {
        "achievedDepth": 12, "achievedMaterial": "steel", "achievedCoolant": True,
    }


def _recorded_capabilities(world, resource_id):
    """skill id -> id of the capability that build_resource_host gave its behavior."""
    seen = {}

    def factory(world, capability, descriptor):
        seen[descriptor.skill_id] = capability.id
        return CapabilityEnvelopeBehavior(world, capability, descriptor)

    build_resource_host(world, resource_id, behavior_factory=factory)
    return seen


def test_host_resolves_a_capability_by_iri_and_by_id_on_its_own_resource_only():
    doc = exec_world_doc()
    skills = doc["resources"][0]["skills"]
    skills.append({**_drill_skill("by-id"), "capabilityRef": "cap-drill-a"})
    assert _recorded_capabilities(build_world([doc]), "r-driller-a") == {
        "skill-drill-a": "cap-drill-a",
        "skill-drill-by-id": "cap-drill-a",
    }
    skills.append({
        **doc["resources"][2]["skills"][0], "skillId": "skill-screw-on-a",
    })
    with pytest.raises(NotFoundError) as excinfo:
        build_resource_host(build_world([doc]), "r-driller-a")
    assert excinfo.value.message == (
        "skill 'skill-screw-on-a' references unknown capability 'urn:cap:screw'"
    )


def test_host_rejects_a_reference_that_names_no_capability():
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["capabilityRef"] = "urn:cap:nowhere"
    with pytest.raises(NotFoundError) as excinfo:
        build_resource_host(build_world([doc]), "r-driller-a")
    assert excinfo.value.message == (
        "skill 'skill-drill-a' references unknown capability 'urn:cap:nowhere'"
    )


def _depth_mapped_to_metres(default_depth: int | None = None) -> dict:
    """r-driller-a's capability maps depth (mm) onto a drillDepth input in
    metres; with ``default_depth`` its skill also keeps a ``depth`` input
    with that default, which no property binds."""
    doc = exec_world_doc()
    resource = doc["resources"][0]
    resource["capabilities"][0]["propertyToParameter"] = {"depth": "drillDepth"}
    parameters = resource["skills"][0]["parameters"]
    if default_depth is None:
        parameters[0] = {
            "paramId": "drillDepth", "direction": "input", "datatype": "real", "unit": "m",
        }
    else:
        parameters[0]["default"] = default_depth
        parameters.append(
            {"paramId": "drillDepth", "direction": "input", "datatype": "real", "unit": "m"}
        )
    return doc


def test_envelope_rescales_an_explicitly_mapped_parameter():
    host = build_resource_host(build_world([_depth_mapped_to_metres()]), "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    assert host.check_feasibility(lrid, {"drillDepth": Decimal("0.025")}).feasible
    result = host.check_feasibility(lrid, {"drillDepth": Decimal("0.026")})
    assert not result.feasible
    assert result.reason == "drillDepth=0.026 is outside the provided limit for depth"


def test_envelope_accepts_what_plan_bound_past_a_same_named_default():
    """The envelope checks the parameters the binding rule binds: the mapped
    drillDepth, not the unbound depth input, whose default lies outside."""
    world = build_world([_depth_mapped_to_metres(default_depth=99)])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert entry.resource_id == "r-driller-a"
    assert entry.parameter_assignment == {"drillDepth": Decimal("0.012"), "depth": 99}
    host = build_resource_host(world, "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    assert host.check_feasibility(lrid, entry.parameter_assignment).feasible


def test_envelope_accepts_what_plan_bound_to_an_input_two_properties_bind():
    """depth binds the depth input by name and diameter by mapping; plan binds
    a step's depth there, so the envelope must not hold it to diameter's limit."""
    doc = exec_world_doc()
    capability = doc["resources"][0]["capabilities"][0]
    capability["expression"] = "Drilling and (depth <= 25 mm) and (diameter <= 10 mm)"
    capability["propertyToParameter"] = {"diameter": "depth"}
    doc["products"][0]["steps"][0]["parameterValues"] = {"depth": 20}
    world = build_world([doc])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    placed = [(e.resource_id, e.parameter_assignment) for e in (entry, *entry.alternates())]
    assert ("r-driller-a", {"depth": 20}) in placed
    host = build_resource_host(world, "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    assert host.check_feasibility(lrid, {"depth": 20}).feasible
    assert host.check_feasibility(lrid, {"depth": 8}).feasible
    result = host.check_feasibility(lrid, {"depth": 26})
    assert not result.feasible
    assert result.reason == "depth=26 is outside the provided limit for depth"


def test_envelope_passes_an_input_whose_unit_does_not_convert():
    """r-driller-a's depth input is in seconds: the envelope cannot rescale
    it onto the property's millimetres, so it holds every value."""
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["parameters"][0]["unit"] = "s"
    host = build_resource_host(build_world([doc]), "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    assert host.check_feasibility(lrid, {"depth": 99}).feasible


@pytest.mark.parametrize("output, outputs", [
    ({"paramId": "achievedDepth", "direction": "output", "datatype": "integer", "unit": "s"},
     {}),
    ({"paramId": "toolWear", "direction": "output", "datatype": "integer", "default": 3},
     {"toolWear": 3}),
], ids=["other-dimension", "default"])
def test_envelope_execution_skips_an_unconvertible_output_and_falls_back_to_a_default(
    output, outputs
):
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["parameters"][1] = output
    host = build_resource_host(build_world([doc]), "r-driller-a")
    (lrid,) = host.local_runtime_ids()
    host.fire_command(lrid, "Reset")
    host.write_parameters(lrid, {"depth": 12})
    host.fire_command(lrid, "Start")
    snapshot = host.read_skill(lrid)
    assert (snapshot.state, snapshot.output_values) == ("Complete", outputs)


def test_host_rejects_a_resource_the_world_lacks(exec_world):
    with pytest.raises(NotFoundError) as excinfo:
        build_resource_host(exec_world, "r-nowhere")
    assert excinfo.value.message == "no resource 'r-nowhere' in the world"
