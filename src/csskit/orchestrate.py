"""Plan product steps onto resources and execute them over protocol clients.

Planning ranks each step's candidates with the matcher and keeps the
ranking (``StepCandidates``). The matcher ranks the world's class groups and
decides each group's class relation once; planning decides none. One
function, ``StepCandidates.qualify``, decides whether a ranked candidate
qualifies: its envelope must hold the step's values, a skill must implement
it (``WorldModel.skill_implementing``), and the step's values must bind to
that skill's inputs (``bind_parameters``). ``plan`` qualifies candidates
down the ranking up to the first that qualifies, its primary; the others
are qualified only when execution reaches them.

Execution fails over to the next-ranked candidate that qualifies when a
feasibility check rejects, a run aborts, or any request fails
(``protocol.FAILED_REQUEST``): an error answer (a violated precondition among
them), an answer or event without a field the run reads (``BadResponse``), a
timeout or a lost connection, each recorded as one ``error`` entry with the
failure's ``code``; an attempt that times out after it subscribed also aborts
its skill. A skill found resting in Aborted, Stopped or Complete is first
walked back to Idle (Clear, then Reset), so one failed run does not block the
next. A run reads each skill's id, inputs and feasibility check from its plan
and asks for a check exactly when the world declares one. It reads each
client's ``list_skills`` once into a {skillId: localRuntimeId} index, and a
list request that fails is asked again by the next attempt. The trace
records every state change, parameter write, feasibility verdict and output
read with a logical timestamp, so reruns over identical worlds are
byte-for-byte reproducible.
"""

from __future__ import annotations

import contextlib
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import jsonio
from .errors import (
    ConnectionLostError,
    ModelInvalidError,
    NoMatchForStepError,
    StepFailedNoAlternativeError,
    TimeoutError,
    TypeMismatchError,
    UnboundRequiredParameterError,
    UnitMismatchError,
    UnknownParameterError,
)
from .expressions import normalize  # noqa: F401 - bench/tracing.py patches this name
from .matching import MatchDegree, rank_providers
from .model import bound_input, validate_model, validate_product
from .protocol import FAILED_REQUEST, SkillClient, checked
from .values import (
    Literal,
    convert_between_units,
    format_literal,
    fraction_to_number,
    literal_matches,
    to_fraction,
)

if TYPE_CHECKING:
    from .model import (
        Capability, ParameterSpec, ProcessStep, Product, SkillDescriptor, WorldModel,
    )


@dataclass(frozen=True)
class PlanEntry:
    step_id: str
    resource_id: str
    capability_id: str
    skill_id: str
    match_degree: MatchDegree
    parameter_assignment: dict[str, Literal]
    #: the step's ranking, this entry's place in it and its skill's declared
    #: feasibility check; none takes part in equality, so a replan compares equal
    candidates: StepCandidates | None = field(default=None, compare=False, repr=False)
    rank: int = field(default=0, compare=False, repr=False)
    has_feasibility_check: bool = field(default=False, compare=False, repr=False)

    def alternates(self) -> Iterator[PlanEntry]:
        """The candidates ranked below this one that qualify, in order, each
        qualified only when the iteration reaches it."""
        if self.candidates is not None:
            yield from self.candidates.qualified(self.rank + 1)


@dataclass(frozen=True)
class ProductionPlan:
    product_id: str
    entries: tuple[PlanEntry, ...]


@dataclass(frozen=True)
class TraceRecord:
    timestamp: int
    step_id: str
    local_runtime_id: str
    kind: str  # stateChange | paramWrite | feasibility | outputRead | error
    detail: dict


@dataclass(frozen=True)
class ExecutionTrace:
    records: tuple[TraceRecord, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.records) and self.records[-1].kind == "error"

    def state_changes(self, step_id: str) -> tuple[str, ...]:
        return tuple(
            record.detail["newState"]
            for record in self.records
            if record.kind == "stateChange" and record.step_id == step_id
        )


def bind_parameters(
    step: ProcessStep,
    capability: Capability,
    descriptor: SkillDescriptor,
    world: WorldModel,
) -> dict[str, Literal]:
    """Map step property values onto skill input parameters.

    Each property binds to the input ``model.bound_input`` names, if any, and
    its value is rescaled from the property's declared unit onto the input's.
    Two properties binding one input, or a value that does not fit its
    input's datatype, raise ``TypeMismatchError`` naming the input; a unit of
    another dimension raises ``UnitMismatchError``. Inputs left unbound fall
    back to descriptor defaults.
    """
    assignment: dict[str, Literal] = {}
    bound_by: dict[str, str] = {}  # input -> the property that bound it
    for property_id, value in step.parameter_values.items():
        spec = bound_input(capability, descriptor, property_id)
        if spec is None:
            continue
        target = spec.param_id
        if bound_by.setdefault(target, property_id) != property_id:
            raise TypeMismatchError(
                f"{target}: bound by both {bound_by[target]!r} and {property_id!r}"
            )
        assignment[target] = _convert(world, property_id, value, spec)
    for spec in descriptor.input_parameters():
        if spec.param_id not in assignment:
            if spec.default is not None:
                assignment[spec.param_id] = spec.default
            else:
                raise UnboundRequiredParameterError(spec.param_id)
    return assignment


def _convert(
    world: WorldModel, property_id: str, value: Literal, spec: ParameterSpec
) -> Literal:
    """A step value as the input ``spec`` takes it."""
    prop = world.property_def(property_id)
    if prop is not None and prop.datatype in ("integer", "real"):
        scaled = convert_between_units(to_fraction(value), prop.unit, spec.unit)
        if spec.datatype == "integer":
            if scaled.denominator != 1:
                raise TypeMismatchError(
                    f"{spec.param_id}: {value!r} does not scale to an integer value"
                )
            return int(scaled)
        if spec.datatype == "real":
            return fraction_to_number(scaled)
        raise TypeMismatchError(
            f"{spec.param_id}: numeric property {property_id!r} cannot bind to "
            f"{spec.datatype} parameter"
        )
    if not literal_matches(spec.datatype, value):
        raise TypeMismatchError(f"{spec.param_id}: {value!r} is not a {spec.datatype} literal")
    return value


class StepCandidates:
    """One step's candidates as ``rank_providers`` ranks them."""

    def __init__(self, step: ProcessStep, world: WorldModel):
        self.step = step
        self.world = world
        self.ranked = rank_providers(step.required_capability, world)

    def qualify(self, rank: int) -> PlanEntry | str:
        """The entry of the candidate at ``rank``, or why it does not qualify:
        a step value outside its envelope, no skill, or a binding error."""
        step, world = self.step, self.world
        resource_id, capability, degree = self.ranked[rank]
        provided_nf = world.normal_form(capability)
        for property_id, value in step.parameter_values.items():
            if not provided_nf.feasible_or_domain(property_id, world).contains(value):
                return f"{property_id}={format_literal(value)} is outside the envelope"
        descriptor = world.skill_implementing(resource_id, capability)
        if descriptor is None:
            return "no skill implements the capability"
        try:
            assignment = bind_parameters(step, capability, descriptor, world)
        except (
            TypeMismatchError, UnitMismatchError, UnboundRequiredParameterError,
            UnknownParameterError,
        ) as exc:
            return f"{exc.code}: {exc.message}"
        return PlanEntry(
            step_id=step.id,
            resource_id=resource_id,
            capability_id=capability.id,
            skill_id=descriptor.skill_id,
            match_degree=degree,
            parameter_assignment=assignment,
            candidates=self,
            rank=rank,
            has_feasibility_check=descriptor.has_feasibility_check,
        )

    def qualified(self, start: int = 0) -> Iterator[PlanEntry]:
        """The entries of the candidates from ``start`` on that qualify, in
        ranking order, each qualified only when the iteration reaches it."""
        for rank in range(start, len(self.ranked)):
            entry = self.qualify(rank)
            if not isinstance(entry, str):
                yield entry


def plan(product: Product, world: WorldModel) -> ProductionPlan:
    """Choose a provider, capability and skill for every product step: the
    first candidate in ranking order that qualifies (see
    ``StepCandidates.qualify``).

    The world, then the product, must pass validation. A step that no
    candidate qualifies for raises ``NoMatchForStepError``.
    """
    reports = (("world", validate_model(world)), ("product", validate_product(world, product)))
    for what, report in reports:
        if not report.ok:
            details = "; ".join(f"{i.path}: {i.message}" for i in report.errors())
            raise ModelInvalidError(f"{what} fails validation: {details}")

    entries: list[PlanEntry] = []
    for step in product.steps:
        primary = next(StepCandidates(step, world).qualified(), None)
        if primary is None:
            raise NoMatchForStepError(step.id)
        entries.append(primary)
    return ProductionPlan(product_id=product.id, entries=tuple(entries))


def _record(
    trace: list[TraceRecord], step_id: str, local_runtime_id: str, kind: str, detail: dict
) -> None:
    """Append a record timestamped by its position in the trace."""
    trace.append(TraceRecord(len(trace), step_id, local_runtime_id, kind, detail))


def execute_plan(plan_: ProductionPlan, connections) -> ExecutionTrace:
    """Run every plan entry in order through the given protocol clients.

    ``connections`` maps resource ids to connected, hello'd SkillClients; it
    is looked up only for a candidate about to be attempted, and a resource
    it lacks raises ``ConnectionLostError``. A feasibility check is asked for
    exactly when the entry's skill declares one
    (``PlanEntry.has_feasibility_check``). On step failure the next-ranked
    candidate that qualifies is qualified (``PlanEntry.alternates``) and
    tried; with none left a terminal error record is appended and
    StepFailedNoAlternative (carrying the partial trace) is raised.
    """
    trace: list[TraceRecord] = []
    skill_indexes: dict = {}  # client -> {skillId: localRuntimeId} in this run

    for entry in plan_.entries:
        for candidate in itertools.chain((entry,), entry.alternates()):
            try:
                client = connections[candidate.resource_id]
            except KeyError:
                raise ConnectionLostError(
                    f"no connection for resource {candidate.resource_id!r}"
                ) from None
            if _attempt_step(candidate, client, trace, skill_indexes):
                break
        else:
            _record(
                trace, entry.step_id, "", "error",
                {"code": "StepFailedNoAlternative", "stepId": entry.step_id},
            )
            raise StepFailedNoAlternativeError(entry.step_id, ExecutionTrace(tuple(trace)))
    return ExecutionTrace(tuple(trace))


#: rest state -> (command that leaves it, state it settles in), one step toward Idle
_RECOVERY = {
    "Aborted": ("Clear", "Stopped"),
    "Stopped": ("Reset", "Idle"),
    "Complete": ("Reset", "Idle"),
}


def _attempt_step(
    entry: PlanEntry, client: SkillClient, trace: list[TraceRecord], skill_indexes: dict
) -> bool:
    """One candidate attempt; True on success, False to fail over.

    A failed request ends the attempt with one ``error`` record. An attempt
    that gives up on a timeout after it subscribed then aborts the skill,
    best effort, so the next run's walk to Idle recovers it. A subscribed
    attempt always unsubscribes, then drops the events it left unread: they
    all arrive before that answer, and the next attempt would record them.
    """
    local_runtime_id = ""
    subscribed = False

    def record(kind: str, detail: dict) -> None:  # under the runtime id known so far
        _record(trace, entry.step_id, local_runtime_id, kind, detail)

    try:
        if client not in skill_indexes:  # the first of a repeated skill id wins
            skill_indexes[client] = {
                item["skillId"]: item["localRuntimeId"] for item in reversed(client.list_skills())
            }
        local_runtime_id = skill_indexes[client].get(entry.skill_id, "")
        if not local_runtime_id:
            record("error", {"code": "UnknownSkill", "skillId": entry.skill_id})
            return False

        client.subscribe(local_runtime_id)
        subscribed = True
        if entry.has_feasibility_check:
            verdict = client.feasibility(local_runtime_id, entry.parameter_assignment)
            feasible = verdict["feasible"]
            record("feasibility", {"feasible": feasible, "reason": verdict.get("reason")})
            if not feasible:
                return False

        state = client.read(local_runtime_id)["state"]
        while state in _RECOVERY:
            command, state = _RECOVERY[state]
            client.command(local_runtime_id, command)
            _await_state(client, local_runtime_id, record, state)
        if state != "Idle":
            record("error", {"code": "WrongState", "state": state})
            return False

        client.write(local_runtime_id, entry.parameter_assignment)
        record("paramWrite", {"values": dict(entry.parameter_assignment)})
        client.command(local_runtime_id, "Start")
        if not _await_state(client, local_runtime_id, record, "Complete", "Aborted"):
            return False
        record("outputRead", {"outputs": client.read(local_runtime_id)["outputValues"]})
        client.command(local_runtime_id, "Reset")
        return _await_state(client, local_runtime_id, record, "Idle")
    except FAILED_REQUEST as exc:
        record("error", {"code": exc.code, "message": exc.message})
        if subscribed and isinstance(exc, TimeoutError):
            with contextlib.suppress(*FAILED_REQUEST):
                client.command(local_runtime_id, "Abort")
                _await_state(client, local_runtime_id, record, "Aborted")
        return False
    finally:
        if subscribed:
            # best effort: a failed unsubscribe must not replace the attempt's outcome
            with contextlib.suppress(*FAILED_REQUEST):
                client.subscribe(local_runtime_id, enable=False)
                client.drop_events()


def _await_state(
    client: SkillClient, local_runtime_id: str, record, target: str,
    failure_state: str | None = None,
) -> bool:
    """Record state-change events until target (True) or failure_state (False)."""
    while True:
        event = client.next_event()
        if event.payload.get("localRuntimeId") != local_runtime_id:
            continue
        new_state = checked(event.payload, "event", newState=str)["newState"]
        record("stateChange", {"newState": new_state})
        if new_state == target:
            return True
        if failure_state is not None and new_state == failure_state:
            return False


def trace_to_lines(trace: ExecutionTrace) -> list[str]:
    """One wire-format object per record, in order, each valid UTF-8 (see
    ``jsonio.dumps_utf8``)."""
    return [
        jsonio.dumps_utf8(
            {
                "timestamp": record.timestamp,
                "stepId": record.step_id,
                "localRuntimeId": record.local_runtime_id,
                "kind": record.kind,
                "detail": record.detail,
            }
        )
        for record in trace.records
    ]
