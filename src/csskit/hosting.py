"""Build skill hosts for document-defined resources.

Skills loaded from world files carry no executable behavior, so hosts built
here wire each skill to a simulated behavior derived from its capability:
the feasibility check accepts exactly the inputs inside the capability's
feasible sets, and execution echoes inputs onto like-named output
parameters (an output ``achievedDepth`` mirrors the input ``depth``),
converting units for numeric values. Every acting state completes at once.
A skill's capability is ``WorldModel.capability_named``, and feasibility tests
exactly the inputs that ``model.bound_input`` binds, as ``plan`` binds them: an
input that several properties bind is outside only when none of them holds it.
"""

from __future__ import annotations

from .errors import NotFoundError, UnitMismatchError
from .expressions import NormalForm
from .model import Capability, SkillDescriptor, WorldModel, input_bindings
from .skills import FeasibilityResult, SkillBehavior, SkillHost
from .values import (
    convert_between_units,
    format_literal,
    fraction_to_number,
    literal_matches,
    to_fraction,
)

#: the ``durationSeconds`` estimate every envelope feasibility check reports
EXECUTE_DURATION = 1.0


class CapabilityEnvelopeBehavior(SkillBehavior):
    """Simulated behavior bounded by the capability's provided envelope."""

    def __init__(self, world: WorldModel, capability: Capability,
                 descriptor: SkillDescriptor):
        self._world = world
        self._descriptor = descriptor
        self._nf: NormalForm = world.normal_form(capability)
        # input -> the properties bound to it; plan may bind any one of them
        self._bound, _ = input_bindings(world, capability, descriptor)

    def feasibility(self, inputs) -> FeasibilityResult:
        for param_id, value in inputs.items():
            props = self._bound.get(param_id)
            spec = self._descriptor.parameter(param_id)
            if props and not any(self._admits(prop, spec, value) for prop in props):
                return FeasibilityResult(
                    feasible=False,
                    reason=(
                        f"{param_id}={format_literal(value)} is outside the "
                        f"provided limit for {props[0].id}"
                    ),
                )
        return FeasibilityResult(
            feasible=True, estimates={"durationSeconds": EXECUTE_DURATION}
        )

    def _admits(self, prop, spec, value) -> bool:
        """Whether the property's envelope holds the value; one that cannot be rescaled passes."""
        if prop.datatype in ("integer", "real"):
            try:
                value = convert_between_units(to_fraction(value), spec.unit, prop.unit)
            except UnitMismatchError:
                return True
        return self._nf.feasible_or_domain(prop.id, self._world).contains(value)

    def on_execute(self, inputs):
        outputs = {}
        by_id = {spec.param_id: spec for spec in self._descriptor.input_parameters()}
        for spec in self._descriptor.output_parameters():
            source = None
            if spec.param_id.startswith("achieved"):
                stem = spec.param_id[len("achieved"):]
                candidates = (stem[:1].lower() + stem[1:], stem)
                source = next((c for c in candidates if c in by_id), None)
            if source is None or source not in inputs:
                if spec.default is not None:
                    outputs[spec.param_id] = spec.default
                continue
            value = inputs[source]
            if not isinstance(value, (bool, str)):  # numeric: onto the output's unit
                try:
                    scaled = convert_between_units(
                        to_fraction(value), by_id[source].unit, spec.unit
                    )
                except UnitMismatchError:
                    continue
                value = fraction_to_number(scaled)
            if literal_matches(spec.datatype, value):
                outputs[spec.param_id] = value
        return outputs


def build_resource_host(
    world: WorldModel,
    resource_id: str,
    behavior_factory=None,
) -> SkillHost:
    """A host exposing every skill of one resource.

    ``behavior_factory(world, capability, descriptor)`` may override the
    default envelope behavior (e.g. to inject failures in tests).
    """
    resource = world.resource(resource_id)
    if resource is None:
        raise NotFoundError(f"no resource {resource_id!r} in the world")
    host = SkillHost(name=resource_id)
    factory = behavior_factory or CapabilityEnvelopeBehavior
    for descriptor in resource.skills:
        capability = world.capability_named(resource_id, descriptor)
        if capability is None:
            raise NotFoundError(
                f"skill {descriptor.skill_id!r} references unknown capability "
                f"{descriptor.capability_ref!r}"
            )
        host.register_skill(descriptor, factory(world, capability, descriptor))
    return host
