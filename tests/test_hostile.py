"""Fault injection: skill behaviors that raise, park or return bad values in
each hook.

Whatever a behavior does, ``execute_plan`` completes each step on some
provider or raises StepFailedNoAlternative, and once the behaviors behave
again the next run on the same clients succeeds on every primary.
"""

from __future__ import annotations

import random

import pytest

from csskit import protocol
from csskit.documents import build_world
from csskit.errors import StepFailedNoAlternativeError
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.orchestrate import execute_plan, plan
from csskit.protocol import connect_loopback
from csskit.skills import FeasibilityResult, SkillFault

from conftest import exec_world_doc


def _raise(exc_type=RuntimeError):
    def act():
        raise exc_type("injected")
    return act


#: fault -> (hook it fires in, what the hook does instead)
FAULTS = {
    "feasibility raises": ("feasibility", _raise()),
    "feasibility says no without a reason": ("feasibility", lambda: FeasibilityResult(False)),
    "feasibility returns nothing": ("feasibility", lambda: None),
    "precondition raises": ("precondition", _raise()),
    "precondition returns a number": ("precondition", lambda: 42),
    "execute raises": ("on_execute", _raise(KeyError)),
    "execute faults": ("on_execute", _raise(SkillFault)),
    "execute returns an undeclared output": ("on_execute", lambda: {"spindleSpeed": 3}),
    "execute returns an ill-typed output": ("on_execute", lambda: {"achievedDepth": "x"}),
    "execute returns a list": ("on_execute", lambda: ["achievedDepth"]),
    "parks raises": ("parks", _raise()),
    "parks in Resetting": ("parks in Resetting", lambda: True),
    "parks in Starting": ("parks in Starting", lambda: True),
    "parks in Execute": ("parks in Execute", lambda: True),
    "parks in Completing": ("parks in Completing", lambda: True),
}

#: faults after which the attempt still succeeds
BENIGN = {None, "parks raises"}


class Hostile(CapabilityEnvelopeBehavior):
    """The envelope behavior, except in the hook ``fault`` names, until disarmed."""

    def __init__(self, world, capability, descriptor, fault):
        super().__init__(world, capability, descriptor)
        self.hook, self.act = FAULTS[fault] if fault else ("", None)

    def disarm(self):
        self.hook = ""

    def _fault(self, hook):
        return self.act if self.hook == hook else None

    def feasibility(self, inputs):
        act = self._fault("feasibility")
        return act() if act else super().feasibility(inputs)

    def precondition(self, inputs):
        act = self._fault("precondition")
        return act() if act else super().precondition(inputs)

    def on_execute(self, inputs):
        act = self._fault("on_execute")
        return act() if act else super().on_execute(inputs)

    def parks(self, state, inputs):
        act = self._fault("parks") or self._fault(f"parks in {state}")
        return act() if act else super().parks(state, inputs)


@pytest.fixture
def hostile_world():
    """The drill-then-screw world with both checks on every skill, so every
    hook runs: drilling has an alternate provider, screwing has none."""
    doc = exec_world_doc()
    for resource in doc["resources"]:
        for skill in resource["skills"]:
            skill["hasFeasibilityCheck"] = skill["hasPreconditionCheck"] = True
    return build_world([doc])


@pytest.fixture(autouse=True)
def short_timeout(monkeypatch):
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 0.05)


def _run_twice(world, faults: dict[str, str | None]):
    """Run the bracket product with the given faults, then disarmed.

    Returns the first run's trace (None when it raised
    StepFailedNoAlternative) and the second run's trace.
    """
    behaviors = []

    def factory(resource_id):
        def make(world_, capability, descriptor):
            behaviors.append(Hostile(world_, capability, descriptor, faults[resource_id]))
            return behaviors[-1]
        return make

    clients = [
        connect_loopback(build_resource_host(world, r.id, behavior_factory=factory(r.id)))
        for r in world.resources
    ]
    connections = {r.id: client for r, client in zip(world.resources, clients)}
    production_plan = plan(world.product("prod-bracket"), world)
    try:
        for client in clients:
            client.hello()
        try:
            first = execute_plan(production_plan, connections)
        except StepFailedNoAlternativeError:
            first = None
        for behavior in behaviors:
            behavior.disarm()
        return first, execute_plan(production_plan, connections)
    finally:
        for client in clients:
            client.close()


def _assert_clean(trace):
    assert [r for r in trace.records if r.kind == "error"] == []
    completes = [
        r.step_id for r in trace.records
        if r.kind == "stateChange" and r.detail["newState"] == "Complete"
    ]
    assert completes == ["step-drill", "step-screw"]


def _primary_failed(trace, step_id):
    return any(
        r.kind == "error"
        or (r.kind == "feasibility" and not r.detail["feasible"])
        or (r.kind == "stateChange" and r.detail["newState"] == "Aborted")
        for r in trace.records
        if r.step_id == step_id
    )


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_faulty_primary_fails_over_and_is_usable_on_the_next_run(hostile_world, fault):
    first, second = _run_twice(
        hostile_world, {"r-driller-a": fault, "r-driller-b": None, "r-screwer": None}
    )
    assert first is not None
    assert _primary_failed(first, "step-drill") == (fault not in BENIGN)
    if fault in BENIGN:
        _assert_clean(first)
    _assert_clean(second)


def test_seeded_faults_on_every_provider_never_escape(hostile_world):
    rng = random.Random(8)
    choices = [*sorted(FAULTS), None, None]
    for _ in range(30):
        faults = {r.id: rng.choice(choices) for r in hostile_world.resources}
        first, second = _run_twice(hostile_world, faults)
        no_drill = faults["r-driller-a"] not in BENIGN and faults["r-driller-b"] not in BENIGN
        assert (first is None) == (no_drill or faults["r-screwer"] not in BENIGN), faults
        _assert_clean(second)
