from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import replace
from decimal import Decimal

import pytest

from csskit import protocol
from csskit.documents import build_world
from csskit.errors import (
    ConnectionLostError,
    ModelInvalidError,
    NoMatchForStepError,
    StepFailedNoAlternativeError,
    TimeoutError,
    TypeMismatchError,
    UnboundRequiredParameterError,
)
from csskit.expressions import parse_expression
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.matching import MatchDegree
from csskit.model import (
    Capability,
    ParameterSpec,
    ProcessStep,
    Resource,
    SkillDescriptor,
    WorldModel,
    validate_model,
)
from csskit.orchestrate import (
    StepCandidates,
    bind_parameters,
    execute_plan,
    plan,
    trace_to_lines,
)
from csskit.protocol import connect_loopback, connect_tcp, serve
from csskit.skills import FeasibilityResult, SkillFault

from conftest import (
    _drill_skill,
    evaluate_expression,
    exec_world_doc,
    lone_surrogate_world_doc,
    many_drillers_world_doc,
)

SUCCESS_SEQUENCE = (
    "Resetting", "Idle", "Starting", "Execute", "Completing", "Complete",
    "Resetting", "Idle",
)


def single_provider_world_doc() -> dict:
    doc = exec_world_doc()
    doc["resources"] = [doc["resources"][0], doc["resources"][2]]
    doc["resources"][0]["capabilities"][0]["expression"] = "Drilling and (depth <= 15 mm)"
    return doc


# --- bind_parameters -----------------------------------------------------------

def test_bind_explicit_mapping_with_unit_scaling(base_world):
    capability = Capability(
        id="cap-drill",
        iri="urn:cap:drill",
        expression=parse_expression("Drilling and (depth <= 15 mm)", base_world),
        property_to_parameter={"depth": "drillDepth"},
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(ParameterSpec("drillDepth", "input", "real", unit="m"),),
    )
    step = ProcessStep(
        id="s1",
        required_capability=capability.expression,
        parameter_values={"depth": 12},
    )
    assignment = bind_parameters(step, capability, descriptor, base_world)
    assert assignment == {"drillDepth": Decimal("0.012")}


def test_bind_by_name_equality(base_world):
    capability = Capability(
        id="cap-drill",
        iri="urn:cap:drill",
        expression=parse_expression("Drilling", base_world),
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(ParameterSpec("depth", "input", "integer", unit="mm"),),
    )
    step = ProcessStep(
        id="s1",
        required_capability=capability.expression,
        parameter_values={"depth": 12},
    )
    assert bind_parameters(step, capability, descriptor, base_world) == {"depth": 12}


def test_bind_unbound_required_parameter(base_world):
    capability = Capability(
        id="cap-drill", iri="urn:cap:drill",
        expression=parse_expression("Drilling", base_world),
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(ParameterSpec("feedRate", "input", "real"),),
    )
    step = ProcessStep(
        id="s1", required_capability=capability.expression, parameter_values={}
    )
    with pytest.raises(UnboundRequiredParameterError) as excinfo:
        bind_parameters(step, capability, descriptor, base_world)
    assert excinfo.value.param_id == "feedRate"


def test_bind_defaults_fill_unmapped_inputs(base_world):
    capability = Capability(
        id="cap-drill", iri="urn:cap:drill",
        expression=parse_expression("Drilling", base_world),
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(
            ParameterSpec("depth", "input", "integer", unit="mm"),
            ParameterSpec("feedRate", "input", "real", default=Decimal("0.5")),
        ),
    )
    step = ProcessStep(
        id="s1", required_capability=capability.expression,
        parameter_values={"depth": 9},
    )
    assignment = bind_parameters(step, capability, descriptor, base_world)
    assert assignment == {"depth": 9, "feedRate": Decimal("0.5")}


def test_bind_integer_parameter_rejects_fractional_scaling(base_world):
    capability = Capability(
        id="cap-drill", iri="urn:cap:drill",
        expression=parse_expression("Drilling", base_world),
        property_to_parameter={"depth": "depthMeters"},
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(ParameterSpec("depthMeters", "input", "integer", unit="m"),),
    )
    step = ProcessStep(
        id="s1", required_capability=capability.expression,
        parameter_values={"depth": 12},
    )
    with pytest.raises(TypeMismatchError):
        bind_parameters(step, capability, descriptor, base_world)


@pytest.mark.parametrize("property_id, value, datatype, message", [
    ("torque", Decimal("2.5"), "boolean",
     "torque: numeric property 'torque' cannot bind to boolean parameter"),
    ("material", "steel", "integer", "material: 'steel' is not a integer literal"),
], ids=["numeric", "non-numeric"])
def test_bind_rejects_a_value_of_another_datatype(
    base_world, property_id, value, datatype, message
):
    capability = Capability(
        id="cap-drill", iri="urn:cap:drill", expression=parse_expression("Drilling", base_world)
    )
    descriptor = SkillDescriptor(
        skill_id="skill-drill",
        capability_ref="urn:cap:drill",
        parameters=(ParameterSpec(property_id, "input", datatype),),
    )
    step = ProcessStep(
        id="s1", required_capability=capability.expression,
        parameter_values={property_id: value},
    )
    with pytest.raises(TypeMismatchError) as excinfo:
        bind_parameters(step, capability, descriptor, base_world)
    assert excinfo.value.message == message


# --- plan ------------------------------------------------------------------------

def test_plan_places_step_inside_provider_envelope():
    world = build_world([single_provider_world_doc()])
    production_plan = plan(world.product("prod-bracket"), world)
    entry = production_plan.entries[0]
    assert entry.resource_id == "r-driller-a"
    assert entry.match_degree is MatchDegree.INTERSECT
    assert 10 <= entry.parameter_assignment["depth"] <= 15


def test_plan_rejects_step_outside_envelope():
    doc = single_provider_world_doc()
    doc["products"][0]["steps"][0]["parameterValues"] = {"depth": 18}
    world = build_world([doc])
    with pytest.raises(NoMatchForStepError) as excinfo:
        plan(world.product("prod-bracket"), world)
    assert excinfo.value.step_id == "step-drill"


def test_plan_tie_breaks_on_resource_id(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    entry = production_plan.entries[0]
    assert entry.resource_id == "r-driller-a"
    assert [alt.resource_id for alt in entry.alternates()] == ["r-driller-b"]


def _feed_rate_required(doc: dict, resource_id: str) -> dict:
    """Give ``resource_id``'s skill a required ``feedRate`` input that no step
    value and no default binds."""
    resource = next(r for r in doc["resources"] if r["id"] == resource_id)
    resource["skills"][0]["parameters"].append(
        {"paramId": "feedRate", "direction": "input", "datatype": "real"}
    )
    return doc


def test_plan_drops_an_alternate_that_does_not_bind(exec_world):
    world = build_world([_feed_rate_required(exec_world_doc(), "r-driller-b")])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert entry.resource_id == "r-driller-a"
    assert list(entry.alternates()) == []
    # with every candidate binding, the plan is the one it always was
    bound = plan(exec_world.product("prod-bracket"), exec_world).entries[0]
    assert entry == bound
    assert [alt.resource_id for alt in bound.alternates()] == ["r-driller-b"]


def test_plan_without_a_bindable_candidate_has_no_match():
    doc = _feed_rate_required(exec_world_doc(), "r-driller-a")
    world = build_world([_feed_rate_required(doc, "r-driller-b")])
    with pytest.raises(NoMatchForStepError) as excinfo:
        plan(world.product("prod-bracket"), world)
    assert excinfo.value.step_id == "step-drill"


def _depth_in_metres(doc: dict, resource_id: str) -> dict:
    """Take ``resource_id``'s depth input in metres, to which 12 mm does not
    bind as an integer (``TypeMismatchError``)."""
    resource = next(r for r in doc["resources"] if r["id"] == resource_id)
    resource["skills"][0]["parameters"][0]["unit"] = "m"
    return doc


def _depth_onto_an_output(doc: dict, resource_id: str) -> dict:
    """Map ``resource_id``'s depth property onto an output parameter
    (``UnknownParameterError``)."""
    resource = next(r for r in doc["resources"] if r["id"] == resource_id)
    resource["capabilities"][0]["propertyToParameter"] = {"depth": "achievedDepth"}
    return doc


def _depth_in_seconds(doc: dict, resource_id: str) -> dict:
    """Take ``resource_id``'s depth input in seconds, to which no length
    converts (``UnitMismatchError``); validation only warns."""
    resource = next(r for r in doc["resources"] if r["id"] == resource_id)
    resource["skills"][0]["parameters"][0]["unit"] = "s"
    return doc


@pytest.mark.parametrize(
    "unbindable", [_depth_in_metres, _depth_onto_an_output, _depth_in_seconds]
)
def test_plan_drops_an_alternate_whose_binding_raises(exec_world, unbindable):
    world = build_world([unbindable(exec_world_doc(), "r-driller-b")])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert entry.resource_id == "r-driller-a"
    assert list(entry.alternates()) == []
    bound = plan(exec_world.product("prod-bracket"), exec_world).entries[0]
    assert entry == bound
    assert [alt.resource_id for alt in bound.alternates()] == ["r-driller-b"]

    world = build_world([unbindable(exec_world_doc(), "r-driller-a")])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert entry.resource_id == "r-driller-b"
    assert list(entry.alternates()) == []

    doc = unbindable(exec_world_doc(), "r-driller-a")
    world = build_world([unbindable(doc, "r-driller-b")])
    with pytest.raises(NoMatchForStepError) as excinfo:
        plan(world.product("prod-bracket"), world)
    assert excinfo.value.step_id == "step-drill"


def test_plan_drops_a_candidate_that_binds_one_input_twice():
    """On r-driller-a both depth (by name) and diameter (mapped) bind the
    depth input; neither step value may silently win."""
    doc = exec_world_doc()
    doc["resources"][0]["capabilities"][0]["propertyToParameter"] = {"diameter": "depth"}
    doc["products"][0]["steps"][0]["parameterValues"] = {"depth": 12, "diameter": 3}
    world = build_world([doc])
    assert validate_model(world).ok
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert (entry.resource_id, entry.parameter_assignment) == ("r-driller-b", {"depth": 12})
    assert list(entry.alternates()) == []

    step = world.product("prod-bracket").steps[0]
    capability = world.resource("r-driller-a").provided_capabilities[0]
    skill = world.skill_implementing("r-driller-a", capability)
    with pytest.raises(TypeMismatchError) as excinfo:
        bind_parameters(step, capability, skill, world)
    assert excinfo.value.message == "depth: bound by both 'depth' and 'diameter'"


@pytest.mark.parametrize("by_iri, by_id", [("m", "z"), ("z", "m")])
def test_plan_uses_the_lowest_skill_id_naming_the_capability(by_iri, by_id):
    """One skill names r-driller-a's capability by iri, another by id."""
    doc = exec_world_doc()
    doc["resources"][0]["skills"] = [
        {**_drill_skill(by_iri), "capabilityRef": "urn:cap:drill-a"},
        {**_drill_skill(by_id), "capabilityRef": "cap-drill-a"},
    ]
    world = build_world([doc])
    entry = plan(world.product("prod-bracket"), world).entries[0]
    assert (entry.resource_id, entry.skill_id) == ("r-driller-a", "skill-drill-m")


def test_qualify_says_why_a_candidate_does_not_qualify():
    """Each ranked candidate qualifies as a plan entry or fails for one
    reason: a step value outside its envelope, no skill, or a binding error."""
    doc = _feed_rate_required(many_drillers_world_doc(2), "r-driller-b")
    doc["resources"][0]["capabilities"][0]["expression"] = "Drilling and (depth <= 11 mm)"
    doc["resources"][3]["skills"] = []
    world = build_world([doc])
    candidates = StepCandidates(world.product("prod-bracket").steps[0], world)
    assert [r for r, _, _ in candidates.ranked] == [
        "r-driller-b", "r-driller-x00", "r-driller-x01", "r-driller-a",
    ]
    unbound, no_skill, entry, outside = (
        candidates.qualify(rank) for rank in range(len(candidates.ranked))
    )
    assert unbound == (
        "UnboundRequiredParameter: input parameter feedRate has no bound value and no default"
    )
    assert no_skill == "no skill implements the capability"
    assert outside == "depth=12 is outside the envelope"
    assert (entry.resource_id, entry.rank, entry.parameter_assignment) == (
        "r-driller-x01", 2, {"depth": 12}
    )
    primary = plan(world.product("prod-bracket"), world).entries[0]
    assert primary == entry
    assert list(primary.alternates()) == []


def test_qualify_drops_a_candidate_whose_unit_does_not_convert():
    world = build_world([_depth_in_seconds(exec_world_doc(), "r-driller-a")])
    assert validate_model(world).ok
    candidates = StepCandidates(world.product("prod-bracket").steps[0], world)
    assert candidates.qualify(0) == "UnitMismatch: cannot convert mm (m) to s (s)"
    assert candidates.qualify(1).resource_id == "r-driller-b"


def test_plan_requires_clean_validation(exec_world):
    broken = replace(
        exec_world,
        resources=exec_world.resources
        + (
            Resource(
                "r-bad",
                (),
                (SkillDescriptor(skill_id="skill-bad", capability_ref="nope"),),
            ),
        ),
    )
    with pytest.raises(ModelInvalidError):
        plan(broken.products[0], broken)


def test_plan_is_the_same_on_a_reused_and_a_fresh_world():
    """The world keeps derived data between plans; that must not change them."""
    doc = exec_world_doc()
    envelopes = (
        "Separating and (depth <= 40 mm)",
        "Separating and (depth >= 5 mm)",
        "Milling and (depth <= 90 mm)",
        "Drilling and (depth >= 11 mm)",
    )
    for i, expression in enumerate(envelopes):
        doc["resources"].append({
            "id": f"r-extra-{i}",
            "capabilities": [
                {"id": f"cap-extra-{i}", "iri": f"urn:cap:drill-x{i}",
                 "expression": expression},
            ],
            "skills": [_drill_skill(f"x{i}")],
        })
    world = build_world([doc])
    product = world.product("prod-bracket")
    first = plan(product, world)
    chain = (first.entries[0], *first.entries[0].alternates())
    assert len(chain) == 5  # all but the Milling provider
    fresh = build_world([doc])
    for again in (plan(product, world), plan(product, replace(world)),
                  plan(fresh.product("prod-bracket"), fresh)):
        assert again == first
        assert (again.entries[0], *again.entries[0].alternates()) == chain


def test_plan_soundness(exec_world):
    """Every assignment satisfies both the step's requirement and the
    provider's envelope under direct evaluation."""
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    for entry, step in zip(production_plan.entries, exec_world.products[0].steps):
        resource = exec_world.resource(entry.resource_id)
        capability = next(
            c for c in resource.provided_capabilities if c.id == entry.capability_id
        )
        # map parameters back onto property ids (identity mapping here)
        assignment = dict(step.parameter_values)
        assert evaluate_expression(step.required_capability, assignment, exec_world)
        assert evaluate_expression(capability.expression, assignment, exec_world)


# --- execute_plan -------------------------------------------------------------------

def _loopback_connections(world, behavior_factories=None):
    connections = {}
    cleanups = []
    for resource in world.resources:
        factory = (behavior_factories or {}).get(resource.id)
        host = build_resource_host(world, resource.id, behavior_factory=factory)
        client = connect_loopback(host)
        client.hello()
        connections[resource.id] = client
        cleanups.append(client.close)
    return connections, cleanups


class RejectingFeasibility(CapabilityEnvelopeBehavior):
    def feasibility(self, inputs):
        return FeasibilityResult(False, reason="tool broken (injected)")


class FaultingExecution(CapabilityEnvelopeBehavior):
    def on_execute(self, inputs):
        raise SkillFault("spindle stalled (injected)")


class RejectingPrecondition(CapabilityEnvelopeBehavior):
    def precondition(self, inputs):
        return "no workpiece (injected)"


class InfeasibleWithoutReason(CapabilityEnvelopeBehavior):
    """The host refuses a verdict without a reason, so the request fails."""

    def feasibility(self, inputs):
        return FeasibilityResult(False)


class ParksEverywhere(CapabilityEnvelopeBehavior):
    """Never finishes an acting state, so a Reset leaves it in Resetting."""

    def parks(self, state, inputs):
        return True


class FaultsOnFirstExecute(CapabilityEnvelopeBehavior):
    def __init__(self, world, capability, descriptor):
        super().__init__(world, capability, descriptor)
        self.faulted = False

    def on_execute(self, inputs):
        if not self.faulted:
            self.faulted = True
            raise SkillFault("first run fails (injected)")
        return super().on_execute(inputs)


class ParksOnFirstExecute(CapabilityEnvelopeBehavior):
    """Never finishes its first Execute, so the attempt times out."""

    def __init__(self, world, capability, descriptor):
        super().__init__(world, capability, descriptor)
        self.parked = False

    def parks(self, state, inputs):
        if state == "Execute" and not self.parked:
            self.parked = True
            return True
        return False


def test_execute_two_steps_in_order(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(exec_world)
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    completes = [
        r.step_id
        for r in trace.records
        if r.kind == "stateChange" and r.detail["newState"] == "Complete"
    ]
    assert completes == ["step-drill", "step-screw"]
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE
    assert trace.state_changes("step-screw") == SUCCESS_SEQUENCE
    stamps = [r.timestamp for r in trace.records]
    assert stamps == sorted(stamps)


def test_execute_feasibility_failure_fails_over(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world, {"r-driller-a": RejectingFeasibility}
    )
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    feas = [r for r in trace.records if r.kind == "feasibility"]
    assert feas[0].detail == {"feasible": False, "reason": "tool broken (injected)"}
    drill_outputs = next(
        r for r in trace.records if r.kind == "outputRead" and r.step_id == "step-drill"
    )
    assert drill_outputs.detail["outputs"] == {"achievedDepth": 12}
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b


def test_execute_abort_without_alternative_halts(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world,
        {"r-driller-a": FaultingExecution, "r-driller-b": FaultingExecution},
    )
    try:
        with pytest.raises(StepFailedNoAlternativeError) as excinfo:
            execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    trace = excinfo.value.trace
    assert excinfo.value.step_id == "step-drill"
    assert trace.records[-1].kind == "error"
    assert trace.records[-1].detail["code"] == "StepFailedNoAlternative"
    assert "Aborted" in trace.state_changes("step-drill")
    # later steps are absent from the trace
    assert all(r.step_id != "step-screw" for r in trace.records)


def test_execute_precondition_failure_fails_over():
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["hasPreconditionCheck"] = True
    world = build_world([doc])
    production_plan = plan(world.product("prod-bracket"), world)
    connections, cleanups = _loopback_connections(
        world, {"r-driller-a": RejectingPrecondition}
    )
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    errors = [r for r in trace.records if r.kind == "error"]
    assert errors and errors[0].detail["code"] == "PreconditionViolated"
    # the failed attempt contributed its Reset pair before the fail-over
    assert trace.state_changes("step-drill")[-8:] == SUCCESS_SEQUENCE


def test_execute_failed_request_fails_over(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world, {"r-driller-a": InfeasibleWithoutReason}
    )
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    errors = [r for r in trace.records if r.kind == "error"]
    assert [(r.step_id, r.detail["code"]) for r in errors] == [("step-drill", "InternalError")]
    assert set(errors[0].detail) == {"code", "message"}
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b


def test_execute_lost_connection_fails_over(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(exec_world)
    connections["r-driller-a"].connection_lost("unplugged (injected)")
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    errors = [r for r in trace.records if r.kind == "error"]
    assert [r.detail for r in errors] == [
        {"code": "ConnectionLost", "message": "unplugged (injected)"}
    ]
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b


def test_execute_connection_lost_mid_step_fails_over_at_once(exec_world):
    """An attempt that waits for events ends as soon as its connection
    drops, well before DEFAULT_TIMEOUT, and records ConnectionLost."""
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    unplug = []

    class UnplugsInExecute(ParksOnFirstExecute):
        def parks(self, state, inputs):
            parked = super().parks(state, inputs)
            if parked:
                threading.Timer(0.05, unplug[0]).start()
            return parked

    connections, cleanups = _loopback_connections(
        exec_world, {"r-driller-a": UnplugsInExecute}
    )
    unplug.append(
        lambda: connections["r-driller-a"].connection_lost("unplugged mid-step (injected)")
    )
    started = time.monotonic()
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    assert time.monotonic() - started < protocol.DEFAULT_TIMEOUT / 5
    errors = [r for r in trace.records if r.kind == "error"]
    assert [r.detail for r in errors] == [
        {"code": "ConnectionLost", "message": "unplugged mid-step (injected)"}
    ]
    drill = trace.state_changes("step-drill")
    assert drill[:4] == ("Resetting", "Idle", "Starting", "Execute")  # on resource a
    assert drill[4:] == SUCCESS_SEQUENCE  # on resource b


def test_execute_missing_connection_still_raises(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(exec_world)
    del connections["r-driller-a"]
    try:
        with pytest.raises(ConnectionLostError):
            execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()


@pytest.mark.parametrize("extra", [0, 1])
def test_execution_drops_an_alternate_whose_unit_does_not_convert(extra):
    """r-driller-a's feasibility check rejects and r-driller-b's depth input is
    in seconds: execution drops r-driller-b and goes on to the next
    candidate, or fails the step, keeping its trace, when none is left."""
    world = build_world([_depth_in_seconds(many_drillers_world_doc(extra), "r-driller-b")])
    production_plan = plan(world.product("prod-bracket"), world)
    connections, cleanups = _loopback_connections(world, {"r-driller-a": RejectingFeasibility})
    try:
        if extra:
            trace = execute_plan(production_plan, connections)
        else:
            with pytest.raises(StepFailedNoAlternativeError) as excinfo:
                execute_plan(production_plan, connections)
            trace = excinfo.value.trace
    finally:
        for close in cleanups:
            close()
    drill = [(r.kind, r.detail) for r in trace.records if r.step_id == "step-drill"]
    assert drill[0] == ("feasibility", {"feasible": False, "reason": "tool broken (injected)"})
    if extra:  # on r-driller-x00
        assert not trace.failed
        assert drill[1] == ("feasibility", {"feasible": True, "reason": None})
        assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE
    else:
        assert drill[1:] == [
            ("error", {"code": "StepFailedNoAlternative", "stepId": "step-drill"})
        ]


@pytest.mark.parametrize("rejected", [(), ("r-driller-a",), ("r-driller-a", "r-driller-b")])
def test_execution_qualifies_only_the_candidates_it_tries(monkeypatch, rejected):
    """A candidate ranked below a working primary is never qualified; after
    each failed attempt exactly the next ranked candidate is."""
    world = build_world([many_drillers_world_doc(30)])
    production_plan = plan(world.product("prod-bracket"), world)
    qualified = []
    original = StepCandidates.qualify

    def counted(self, rank):
        qualified.append((self.step.id, rank))
        return original(self, rank)

    monkeypatch.setattr(StepCandidates, "qualify", counted)
    connections, cleanups = _loopback_connections(
        world, dict.fromkeys(rejected, RejectingFeasibility)
    )
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    assert qualified == [("step-drill", rank) for rank in range(1, len(rejected) + 1)]
    assert not trace.failed
    rejections = [r for r in trace.records if r.kind == "feasibility" and not r.detail["feasible"]]
    assert len(rejections) == len(rejected)


@pytest.mark.parametrize("code", ["UnknownSkill", "WrongState"])
def test_a_skill_that_is_not_listed_or_not_at_rest_fails_over(exec_world, code):
    """r-driller-a's host lists no skill-drill-a, or its skill rests in
    Resetting, from which no walk leads to Idle."""
    doc = exec_world_doc()
    if code == "UnknownSkill":
        doc["resources"][0]["skills"][0]["skillId"] = "skill-drill-renamed"
    connections, cleanups = _loopback_connections(
        build_world([doc]), {"r-driller-a": ParksEverywhere}
    )
    lrid = connections["r-driller-a"].list_skills()[0]["localRuntimeId"]
    connections["r-driller-a"].command(lrid, "Reset")
    try:
        trace = execute_plan(plan(exec_world.product("prod-bracket"), exec_world), connections)
    finally:
        for close in cleanups:
            close()
    expected = {
        "UnknownSkill": ("", {"code": "UnknownSkill", "skillId": "skill-drill-a"}),
        "WrongState": (lrid, {"code": "WrongState", "state": "Resetting"}),
    }[code]
    errors = [(r.step_id, r.local_runtime_id, r.detail) for r in trace.records if r.kind == "error"]
    assert errors == [("step-drill", *expected)]
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b


def test_aborted_skills_are_recovered_on_the_next_run(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world,
        {"r-driller-a": FaultsOnFirstExecute, "r-driller-b": FaultsOnFirstExecute},
    )
    try:
        with pytest.raises(StepFailedNoAlternativeError):
            execute_plan(production_plan, connections)
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    assert not any(r.kind == "error" for r in trace.records)
    assert trace.state_changes("step-drill") == ("Clearing", "Stopped", *SUCCESS_SEQUENCE)


def test_timed_out_skills_are_aborted_and_recovered_on_the_next_run(
    exec_world, monkeypatch
):
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.2)
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world,
        {"r-driller-a": ParksOnFirstExecute, "r-driller-b": ParksOnFirstExecute},
    )
    try:
        with pytest.raises(StepFailedNoAlternativeError) as excinfo:
            execute_plan(production_plan, connections)
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    first = excinfo.value.trace
    timeouts = [r for r in first.records if r.kind == "error" and r.detail["code"] == "Timeout"]
    assert len(timeouts) == 2
    assert first.state_changes("step-drill").count("Aborted") == 2
    assert not any(r.kind == "error" for r in trace.records)
    assert trace.state_changes("step-drill") == ("Clearing", "Stopped", *SUCCESS_SEQUENCE)


def test_a_skill_parked_in_aborting_stays_there(exec_world, monkeypatch):
    """No css/1 request completes an acting state: a skill that parks in
    Aborting after its attempt timed out is never recovered, and each later
    run records WrongState for it and fails over."""
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.2)
    armed = [True]

    class ParksInExecuteAndAborting(CapabilityEnvelopeBehavior):
        def parks(self, state, inputs):
            return armed[0] and state in ("Execute", "Aborting")

    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(
        exec_world, {"r-driller-a": ParksInExecuteAndAborting}
    )
    driller = connections["r-driller-a"]
    lrid = driller.list_skills()[0]["localRuntimeId"]
    try:
        traces = [execute_plan(production_plan, connections)]
        armed[0] = False
        traces.append(execute_plan(production_plan, connections))
        state = driller.read(lrid)["state"]
    finally:
        for close in cleanups:
            close()
    errors = [[r.detail for r in t.records if r.kind == "error"] for t in traces]
    assert [e["code"] for e in errors[0]] == ["Timeout"]
    assert errors[1] == [{"code": "WrongState", "state": "Aborting"}]
    assert [t.state_changes("step-drill") for t in traces] == [
        ("Resetting", "Idle", "Starting", "Execute", "Aborting", *SUCCESS_SEQUENCE),
        SUCCESS_SEQUENCE[2:],  # on resource b, left Idle by the first run
    ]
    assert state == "Aborting"


def test_complete_skill_is_reset_before_use(exec_world):
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(exec_world)
    primary = connections["r-driller-a"]
    (skill,) = primary.list_skills()
    primary.command(skill["localRuntimeId"], "Reset")
    primary.command(skill["localRuntimeId"], "Start")
    assert primary.read(skill["localRuntimeId"])["state"] == "Complete"
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    assert not any(r.kind == "error" for r in trace.records)
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE


def unchecked_run_lines(*steps: tuple[str, bool, str, str]) -> list[str]:
    """The trace lines of steps that each succeed on skill lr-0001 of their
    primary, byte for byte as a run told to skip every feasibility check
    wrote them when ``execute_plan`` still had a switch for that.
    A step is (step id, whether its skill is walked from Stopped first,
    written values and read outputs as JSON text)."""
    records = []
    for step_id, walked, values, outputs in steps:
        states = '"Resetting"', '"Idle"'
        records += [(step_id, "stateChange", f'{{"newState":{s}}}') for s in states * walked]
        records.append((step_id, "paramWrite", f'{{"values":{values}}}'))
        records += [
            (step_id, "stateChange", f'{{"newState":"{s}"}}')
            for s in ("Starting", "Execute", "Completing", "Complete")
        ]
        records.append((step_id, "outputRead", f'{{"outputs":{outputs}}}'))
        records += [(step_id, "stateChange", f'{{"newState":{s}}}') for s in states]
    return [
        f'{{"detail":{detail},"kind":"{kind}","localRuntimeId":"lr-0001",'
        f'"stepId":"{step_id}","timestamp":{t}}}'
        for t, (step_id, kind, detail) in enumerate(records)
    ]


def test_execute_a_world_that_declares_no_checks():
    world = _without_feasibility_checks("r-driller-a", "r-driller-b", "r-screwer")
    connections, cleanups = _loopback_connections(world)
    try:
        trace = execute_plan(plan(world.product("prod-bracket"), world), connections)
    finally:
        for close in cleanups:
            close()
    assert trace_to_lines(trace) == unchecked_run_lines(
        ("step-drill", True, '{"depth":12}', '{"achievedDepth":12}'),
        ("step-screw", True, '{"torque":2.5}', '{"achievedTorque":2.5}'),
    )


def _tcp_connections(world):
    connections = {}
    cleanups = []
    for resource in world.resources:
        server = serve(build_resource_host(world, resource.id), ("127.0.0.1", 0))
        cleanups.append(server.close)
        client = connect_tcp(("127.0.0.1", server.port))
        cleanups.append(client.close)
        client.hello()
        connections[resource.id] = client
    return connections, cleanups


def test_a_lone_surrogate_step_value_runs_alike_over_both_transports(monkeypatch):
    """An enum value may hold a lone surrogate; each request and each trace
    line carries it as its JSON escape, so the run completes over loopback and
    TCP alike."""
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    world = build_world([lone_surrogate_world_doc()])
    production_plan = plan(world.product("prod-bracket"), world)
    traces = []
    for connect in (_loopback_connections, _tcp_connections):
        connections, cleanups = connect(world)
        try:
            traces.append(trace_to_lines(execute_plan(production_plan, connections)))
        finally:
            for close in reversed(cleanups):
                close()
    loopback, tcp = traces
    assert not any('"kind":"error"' in line for line in loopback)
    assert '"values":{"depth":12,"material":"\\ud800"}' in "\n".join(loopback)
    assert loopback == tcp


def test_trace_lines_are_wire_objects(exec_world):
    from csskit import jsonio

    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    connections, cleanups = _loopback_connections(exec_world)
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    lines = trace_to_lines(trace)
    assert len(lines) == len(trace.records)
    for line in lines:
        obj = jsonio.loads(line)
        assert set(obj) == {"timestamp", "stepId", "localRuntimeId", "kind", "detail"}


# --- requests per run -------------------------------------------------------------

def two_holes_world(checks_declared: bool = True):
    """The bracket world with a product that drills twice, so the primary
    driller is attempted in two steps of one run; without ``checks_declared``
    no skill declares a feasibility check."""
    doc = exec_world_doc()
    if not checks_declared:
        for resource in doc["resources"]:
            for skill in resource["skills"]:
                skill["hasFeasibilityCheck"] = False
    drill = doc["products"][0]["steps"][0]
    doc["products"].append({
        "id": "prod-two-holes",
        "steps": [
            {**drill, "id": "step-drill-1"},
            {**drill, "id": "step-drill-2", "parameterValues": {"depth": 14}},
            doc["products"][0]["steps"][1],
        ],
    })
    return build_world([doc])


def count_requests(client, fail_once: str | None = None) -> Counter:
    """Count the requests ``client`` sends by (kind, runtime id, subscribe flag).

    With ``fail_once`` the first request of that kind raises TimeoutError
    instead of being sent.
    """
    sent: Counter = Counter()
    invoke = client.invoke

    def counted(kind, payload=None):
        nonlocal fail_once
        payload = payload or {}
        sent[kind, payload.get("localRuntimeId"), payload.get("enable")] += 1
        if kind == fail_once:
            fail_once = None
            raise TimeoutError(f"no response to {kind} (injected)")
        return invoke(kind, payload)

    client.invoke = counted
    return sent


def _budget(lrid: str, attempts: int) -> Counter:
    """The lists, describes and subscription pairs a run sends one client: a
    client it attempts on is listed once, and no skill is described, since the
    plan says which skills have a feasibility check."""
    return Counter({
        ("list_skills", None, None): min(attempts, 1),
        ("describe", lrid, None): 0,
        ("subscribe", lrid, True): attempts,
        ("subscribe", lrid, False): attempts,
    })


@pytest.mark.parametrize("checks_declared", [True, False])
def test_a_run_lists_each_client_once_and_describes_no_skill(checks_declared):
    world = two_holes_world(checks_declared)
    production_plan = plan(world.product("prod-two-holes"), world)
    connections, cleanups = _loopback_connections(
        world, {"r-driller-a": RejectingFeasibility}
    )
    lrids = {rid: client.list_skills()[0]["localRuntimeId"] for rid, client in connections.items()}
    sent = {rid: count_requests(client) for rid, client in connections.items()}
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    assert not any(r.kind == "error" for r in trace.records)
    feasible = [r.detail["feasible"] for r in trace.records if r.kind == "feasibility"]
    if checks_declared:
        assert feasible == [False, True, False, True]
        attempts = {"r-driller-a": 2, "r-driller-b": 2, "r-screwer": 1}
    else:  # nothing is asked, so nothing rejects and the primaries run every step
        attempts = {"r-driller-a": 2, "r-driller-b": 0, "r-screwer": 1}
        assert trace_to_lines(trace) == unchecked_run_lines(
            ("step-drill-1", True, '{"depth":12}', '{"achievedDepth":12}'),
            ("step-drill-2", False, '{"depth":14}', '{"achievedDepth":14}'),
            ("step-screw", True, '{"torque":2.5}', '{"achievedTorque":2.5}'),
        )
    for rid, counter in sent.items():
        wanted = _budget(lrids[rid], attempts[rid])
        assert {key: counter[key] for key in wanted} == wanted, rid


def test_a_failed_skill_list_is_asked_for_again():
    world = two_holes_world()
    production_plan = plan(world.product("prod-two-holes"), world)
    connections, cleanups = _loopback_connections(world)
    lrid = connections["r-driller-a"].list_skills()[0]["localRuntimeId"]
    sent = count_requests(connections["r-driller-a"], fail_once="list_skills")
    try:
        trace = execute_plan(production_plan, connections)
    finally:
        for close in cleanups:
            close()
    errors = [r for r in trace.records if r.kind == "error"]
    assert [(r.step_id, r.local_runtime_id, r.detail) for r in errors] == [
        ("step-drill-1", "", {"code": "Timeout", "message": "no response to list_skills (injected)"})
    ]
    assert trace.state_changes("step-drill-1") == SUCCESS_SEQUENCE  # on resource b
    assert trace.state_changes("step-drill-2") == SUCCESS_SEQUENCE  # back on resource a
    assert {r.local_runtime_id for r in trace.records if r.step_id == "step-drill-2"} == {lrid}
    assert sent["list_skills", None, None] == 2
    assert sum(n for (kind, _, _), n in sent.items() if kind == "describe") == 0


def answer_with(client, kind: str, answer: dict) -> None:
    """Make every ``kind`` request of ``client`` read ``answer``."""
    invoke = client.invoke
    client.invoke = lambda asked, payload=None: (
        answer if asked == kind else invoke(asked, payload)
    )


_NO_SKILLS = "list_skills answer has no list field 'skills'"
_NO_STATE = "read answer has no string field 'state'"

#: an answer a server may send that a run cannot use, as (request kind,
#: answer, BadResponse message); an "event" reaches the client before the run
MALFORMED_ANSWERS = {
    "no skills": ("list_skills", {}, _NO_SKILLS),
    "skills not a list": ("list_skills", {"skills": {"skillId": "skill-drill-a"}}, _NO_SKILLS),
    "item not an object": (
        "list_skills", {"skills": ["lr-0001"]}, "list_skills answer skills[0] is not an object"
    ),
    "no skillId": (
        "list_skills", {"skills": [{"id": "x"}]},
        "list_skills answer skills[0] has no string field 'skillId'",
    ),
    "localRuntimeId not a string": (
        "list_skills",
        {"skills": [
            {"skillId": "skill-other", "localRuntimeId": "lr-0009"},
            {"skillId": "skill-drill-a", "localRuntimeId": 1},
        ]},
        "list_skills answer skills[1] has no string field 'localRuntimeId'",
    ),
    "no feasible": (
        "feasibility", {"verdict": True}, "feasibility answer has no boolean field 'feasible'"
    ),
    "no state": ("read", {"outputValues": {}}, _NO_STATE),
    "state not a string": ("read", {"state": ["Idle"], "outputValues": {}}, _NO_STATE),
    "no outputValues": (
        "read", {"state": "Stopped"}, "read answer has no object field 'outputValues'"
    ),
    "no newState": (
        "event", {"localRuntimeId": "lr-0001", "previousState": "Stopped"},
        "event has no string field 'newState'",
    ),
}

#: a verdict a run read as feasible because the string "no" is truthy
TRUTHY_VERDICT = (
    "feasibility", {"feasible": "no", "reason": None, "estimates": {}},
    "feasibility answer has no boolean field 'feasible'",
)


def event_line(payload: dict) -> str:
    return protocol.encode(protocol.Message("event", "", payload, seq=1))


@pytest.mark.parametrize(
    "kind, answer, message",
    [*MALFORMED_ANSWERS.values(), TRUTHY_VERDICT],
    ids=[*MALFORMED_ANSWERS, "feasible a string"],
)
def test_a_malformed_answer_is_one_error_and_fails_over(exec_world, kind, answer, message):
    connections, cleanups = _loopback_connections(exec_world)
    driller = connections["r-driller-a"]
    lrid = driller.list_skills()[0]["localRuntimeId"]
    if kind == "event":
        driller.feed_line(event_line(answer))
    else:
        answer_with(driller, kind, answer)
    try:
        trace = execute_plan(plan(exec_world.product("prod-bracket"), exec_world), connections)
    finally:
        for close in cleanups:
            close()
    errors = [(r.step_id, r.local_runtime_id, r.detail) for r in trace.records if r.kind == "error"]
    known = "" if kind == "list_skills" else lrid
    assert errors == [("step-drill", known, {"code": "BadResponse", "message": message})]
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b
    assert not trace.failed


def test_an_event_of_another_skill_is_skipped_unread(exec_world):
    """An event for a skill the attempt does not run, even one without a
    ``newState``, is dropped, so the trace is the run's without it."""
    traces = []
    for stray in ((), ({"localRuntimeId": "lr-0099"},)):
        connections, cleanups = _loopback_connections(exec_world)
        for payload in stray:
            connections["r-driller-a"].feed_line(event_line(payload))
        try:
            production_plan = plan(exec_world.product("prod-bracket"), exec_world)
            traces.append(trace_to_lines(execute_plan(production_plan, connections)))
        finally:
            for close in cleanups:
                close()
    assert traces[0] == traces[1]
    assert '"kind":"error"' not in "\n".join(traces[0])


def test_events_an_attempt_left_unread_are_not_recorded_by_the_next_run(exec_world):
    """A malformed event ends r-driller-a's attempt before it reads the events
    of its Reset; they are dropped once the attempt unsubscribes, so the next
    run records only the state changes it caused."""
    connections, cleanups = _loopback_connections(exec_world)
    driller = connections["r-driller-a"]
    lrid = driller.list_skills()[0]["localRuntimeId"]
    driller.feed_line(event_line({"localRuntimeId": lrid}))
    production_plan = plan(exec_world.product("prod-bracket"), exec_world)
    try:
        traces = [execute_plan(production_plan, connections) for _ in range(2)]
    finally:
        for close in cleanups:
            close()
    errors = [[r.detail["code"] for r in t.records if r.kind == "error"] for t in traces]
    assert errors == [["BadResponse"], []]
    assert traces[0].state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b
    assert traces[1].state_changes("step-drill") == SUCCESS_SEQUENCE[2:]  # a, left Idle
    assert {r.local_runtime_id for r in traces[1].records if r.step_id == "step-drill"} == {lrid}


def test_the_first_of_a_repeated_skill_id_is_run():
    world = two_holes_world()
    connections, cleanups = _loopback_connections(world)
    driller = connections["r-driller-a"]
    (listed,) = driller.list_skills()
    answer_with(driller, "list_skills", {"skills": [listed, {**listed, "localRuntimeId": "lr-9"}]})
    sent = count_requests(driller)
    try:
        trace = execute_plan(plan(world.product("prod-two-holes"), world), connections)
    finally:
        for close in cleanups:
            close()
    assert not trace.failed
    drills = {r.local_runtime_id for r in trace.records if r.step_id.startswith("step-drill")}
    assert drills == {listed["localRuntimeId"]}
    assert sent["list_skills", None, None] == 1


# --- the world, not the host, says which skills have a feasibility check -------

def _without_feasibility_checks(*resource_ids: str) -> WorldModel:
    """The bracket world whose skills on ``resource_ids`` declare no
    feasibility check."""
    doc = exec_world_doc()
    for resource in doc["resources"]:
        if resource["id"] in resource_ids:
            for skill in resource["skills"]:
                skill["hasFeasibilityCheck"] = False
    return build_world([doc])


def _run_on_hosts_of(host_world, world, behavior_factories=None):
    """Plan the bracket product on ``world`` and run it on hosts built from
    ``host_world``; the trace and the requests each client sent."""
    connections, cleanups = _loopback_connections(host_world, behavior_factories)
    lrids = {rid: client.list_skills()[0]["localRuntimeId"] for rid, client in connections.items()}
    sent = {rid: count_requests(client) for rid, client in connections.items()}
    try:
        trace = execute_plan(plan(world.product("prod-bracket"), world), connections)
    finally:
        for close in cleanups:
            close()
    return trace, sent, lrids


def test_a_check_the_world_declares_is_asked_for_and_a_host_without_it_fails_over(exec_world):
    trace, sent, lrids = _run_on_hosts_of(_without_feasibility_checks("r-driller-a"), exec_world)
    errors = [(r.step_id, r.local_runtime_id, r.detail) for r in trace.records if r.kind == "error"]
    assert errors == [
        ("step-drill", lrids["r-driller-a"], {
            "code": "UnsupportedCheck",
            "message": "UnsupportedCheck: skill 'skill-drill-a' has no feasibility check",
        }),
    ]
    assert sent["r-driller-a"]["feasibility", lrids["r-driller-a"], None] == 1
    assert sent["r-driller-b"]["feasibility", lrids["r-driller-b"], None] == 1
    assert trace.state_changes("step-drill") == SUCCESS_SEQUENCE  # on resource b
    assert trace.records[-1].kind == "stateChange"


def test_a_check_the_world_does_not_declare_is_never_asked_for(exec_world):
    trace, sent, lrids = _run_on_hosts_of(
        exec_world, _without_feasibility_checks("r-driller-a", "r-driller-b"),
        {"r-driller-a": RejectingFeasibility},
    )
    assert not [r for r in trace.records if r.kind in ("error", "feasibility")]
    assert {r.local_runtime_id for r in trace.records if r.step_id == "step-drill"} == {
        lrids["r-driller-a"]
    }
    assert not [key for counter in sent.values() for key in counter if key[0] == "feasibility"]
