"""Build skill hosts for document-defined resources.

Skills loaded from world files carry no executable behavior, so hosts built
here wire each skill to a simulated behavior derived from its capability:
the feasibility check accepts exactly the inputs inside the capability's
feasible sets, and execution echoes inputs onto like-named output
parameters (an output ``achievedDepth`` mirrors the input ``depth``),
converting units for numeric values. Every acting state completes at once.
"""

from __future__ import annotations

from .errors import NotFoundError, UnitMismatchError, UnknownUnitError
from .expressions import NormalForm
from .model import Capability, Resource, SkillDescriptor, WorldModel
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
        # parameter -> property, from explicit mappings plus name equality
        self._param_to_property: dict[str, str] = {}
        for property_id, param_id in capability.property_to_parameter.items():
            self._param_to_property[param_id] = property_id
        for spec in descriptor.input_parameters():
            if spec.param_id not in self._param_to_property:
                if world.property_def(spec.param_id) is not None:
                    self._param_to_property[spec.param_id] = spec.param_id

    def feasibility(self, inputs) -> FeasibilityResult:
        for param_id, value in inputs.items():
            property_id = self._param_to_property.get(param_id)
            prop = self._world.property_def(property_id) if property_id else None
            if prop is None:
                continue
            on_scale = value
            if prop.datatype in ("integer", "real"):
                spec = self._descriptor.parameter(param_id)
                try:
                    on_scale = convert_between_units(
                        to_fraction(value), spec.unit if spec else None, prop.unit
                    )
                except (UnitMismatchError, UnknownUnitError):
                    continue
            fs = self._nf.feasible_or_domain(property_id, self._world)
            if not fs.contains(on_scale):
                return FeasibilityResult(
                    feasible=False,
                    reason=(
                        f"{param_id}={format_literal(value)} is outside the "
                        f"provided limit for {property_id}"
                    ),
                )
        return FeasibilityResult(
            feasible=True, estimates={"durationSeconds": EXECUTE_DURATION}
        )

    def on_execute(self, inputs):
        outputs = {}
        by_id = {spec.param_id: spec for spec in self._descriptor.input_parameters()}
        for spec in self._descriptor.output_parameters():
            source = None
            if spec.param_id in by_id:
                source = spec.param_id
            elif spec.param_id.startswith("achieved"):
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
                except (UnitMismatchError, UnknownUnitError):
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
        capability = _capability_for(world, resource, descriptor)
        behavior = factory(world, capability, descriptor)
        host.register_skill(descriptor, behavior)
    return host


def _capability_for(world: WorldModel, resource: Resource,
                    descriptor: SkillDescriptor) -> Capability:
    for capability in resource.provided_capabilities:
        if descriptor.capability_ref in (capability.iri, capability.id):
            return capability
    for _, capability in world.capabilities():
        if descriptor.capability_ref in (capability.iri, capability.id):
            return capability
    raise NotFoundError(
        f"skill {descriptor.skill_id!r} references unknown capability "
        f"{descriptor.capability_ref!r}"
    )
