from __future__ import annotations

from csskit.documents import build_world
from csskit.hosting import build_resource_host

from conftest import exec_world_doc


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
