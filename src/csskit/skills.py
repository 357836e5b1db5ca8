"""Skill hosting: profile state machines, parameter sets and checks.

A host owns skill instances addressed by a host-unique ``localRuntimeId``.
Commands move an instance through the 17-state PACKML-17 profile. Acting
states complete inside the call that enters them, so runs are instant and
deterministic, unless the behavior's ``parks`` holds the instance in one
until ``advance()``. Behaviors plug in the actual work: ``on_execute``
produces output values; if it raises (:class:`SkillFault` or any other
exception) or returns an undeclared or ill-typed output, the instance takes
the abort path. Optional feasibility and precondition callbacks mirror the
descriptor's check flags.

Concurrency: one lock serializes commands, writes and completions; reads
take the same lock and return consistent snapshots. Listeners run under that
lock, so a listener must not block (a protocol session only queues a line).
One that raises is logged and skipped, and neither the transition nor the
listeners after it are affected.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field

from .errors import (
    DescriptorInvalidError,
    DuplicateSkillIdError,
    InvalidTransitionError,
    NotWritableError,
    PreconditionViolatedError,
    TypeMismatchError,
    UnknownParameterError,
    UnknownSkillError,
    UnsupportedCheckError,
    WrongStateError,
)
from .model import LOCAL_RUNTIME_ID_FIELD, SkillDescriptor, descriptor_issues
from .values import Literal, literal_matches

_log = logging.getLogger(__name__)

STATES = (
    "Stopped", "Starting", "Idle", "Suspended", "Execute", "Stopping",
    "Aborting", "Aborted", "Holding", "Held", "Unholding", "Suspending",
    "Unsuspending", "Resetting", "Completing", "Complete", "Clearing",
)

COMMANDS = (
    "Reset", "Start", "Stop", "Hold", "Unhold", "Suspend", "Unsuspend",
    "Abort", "Clear",
)

#: acting state -> state entered on internal completion ("SC")
ACTING_NEXT = {
    "Starting": "Execute",
    "Execute": "Completing",
    "Completing": "Complete",
    "Resetting": "Idle",
    "Holding": "Held",
    "Unholding": "Execute",
    "Suspending": "Suspended",
    "Unsuspending": "Execute",
    "Stopping": "Stopped",
    "Aborting": "Aborted",
    "Clearing": "Stopped",
}

_NO_STOP = frozenset({"Stopped", "Stopping", "Aborting", "Aborted", "Clearing"})
_NO_ABORT = frozenset({"Aborting", "Aborted"})

_COMMAND_TABLE = {
    ("Idle", "Start"): "Starting",
    ("Complete", "Reset"): "Resetting",
    ("Stopped", "Reset"): "Resetting",
    ("Execute", "Hold"): "Holding",
    ("Held", "Unhold"): "Unholding",
    ("Execute", "Suspend"): "Suspending",
    ("Suspended", "Unsuspend"): "Unsuspending",
    ("Aborted", "Clear"): "Clearing",
}


def transition(state: str, command: str) -> str | None:
    """Target state for (state, command), or None when the pair is invalid."""
    if command == "Stop":
        return "Stopping" if state not in _NO_STOP else None
    if command == "Abort":
        return "Aborting" if state not in _NO_ABORT else None
    return _COMMAND_TABLE.get((state, command))


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    reason: str | None = None
    estimates: dict[str, Literal] = field(default_factory=dict)


class SkillFault(Exception):
    """Raised by a behavior to signal execution failure (abort path)."""


class SkillBehavior:
    """Callbacks wiring a descriptor to simulated work."""

    def on_execute(self, inputs: dict[str, Literal]) -> dict[str, Literal]:
        return {}

    def feasibility(self, inputs: dict[str, Literal]) -> FeasibilityResult:
        return FeasibilityResult(feasible=True)

    def precondition(self, inputs: dict[str, Literal]) -> str | None:
        """None when satisfied, else the violation reason."""
        return None

    def parks(self, state: str, inputs: dict[str, Literal]) -> bool:
        """Hold the instance in an acting state until ``advance()``, asked on
        each entry; otherwise the state completes inside the entering call.
        One that raises is logged and counts as not parking."""
        return False


@dataclass(frozen=True)
class SkillEvent:
    local_runtime_id: str
    previous_state: str
    new_state: str
    seq: int


@dataclass(frozen=True)
class SkillSnapshot:
    local_runtime_id: str
    descriptor: SkillDescriptor
    state: str
    input_values: dict[str, Literal]
    output_values: dict[str, Literal]
    last_error: str | None


class _Instance:
    def __init__(self, local_runtime_id: str, descriptor: SkillDescriptor,
                 behavior: SkillBehavior):
        self.local_runtime_id = local_runtime_id
        self.descriptor = descriptor
        self.behavior = behavior
        self.state = "Stopped"
        self.input_values: dict[str, Literal] = {
            spec.param_id: spec.default
            for spec in descriptor.input_parameters()
            if spec.default is not None
        }
        self.output_values: dict[str, Literal] = {}
        self.last_error: str | None = None
        self.event_seq = 0


class SkillHost:
    """Container for skill instances sharing an event stream."""

    def __init__(self, name: str = "skill-host"):
        self.name = name
        self._lock = threading.RLock()
        self._instances: dict[str, _Instance] = {}
        self._skill_ids: set[str] = set()
        self._listeners: list = []
        self._id_counter = itertools.count(1)

    # -- registration and discovery --------------------------------------

    def register_skill(self, descriptor: SkillDescriptor,
                       behavior: SkillBehavior) -> str:
        with self._lock:
            if not descriptor.capability_ref:
                raise DescriptorInvalidError("capabilityRef must be specified")
            problems = descriptor_issues(descriptor)
            if problems:
                raise DescriptorInvalidError("; ".join(problems))
            if descriptor.skill_id in self._skill_ids:
                raise DuplicateSkillIdError(
                    f"skill id {descriptor.skill_id!r} is already registered"
                )
            local_runtime_id = f"lr-{next(self._id_counter):04d}"
            instance = _Instance(local_runtime_id, descriptor, behavior)
            self._instances[local_runtime_id] = instance
            self._skill_ids.add(descriptor.skill_id)
            return local_runtime_id

    def local_runtime_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._instances)

    def add_listener(self, listener) -> None:
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- interaction ------------------------------------------------------

    def fire_command(self, local_runtime_id: str, command: str) -> str:
        with self._lock:
            instance = self._get(local_runtime_id)
            target = transition(instance.state, command)
            if target is None:
                raise InvalidTransitionError(instance.state, command)
            if command == "Start" and instance.descriptor.has_precondition_check:
                reason = instance.behavior.precondition(dict(instance.input_values))
                if reason is not None:
                    raise PreconditionViolatedError(reason)
            self._settle(instance, target)
            return target

    def advance(self, local_runtime_id: str) -> str:
        """Complete the acting state the instance is parked in."""
        with self._lock:
            instance = self._get(local_runtime_id)
            if instance.state not in ACTING_NEXT:
                raise WrongStateError(
                    f"state {instance.state} has no internal completion"
                )
            self._settle(instance, ACTING_NEXT[instance.state])
            return instance.state

    def write_parameters(self, local_runtime_id: str,
                         values: dict[str, Literal]) -> tuple[str, ...]:
        with self._lock:
            instance = self._get(local_runtime_id)
            if instance.state not in ("Idle", "Stopped"):
                raise WrongStateError(
                    f"parameters are writable in Idle or Stopped, not {instance.state}"
                )
            for param_id, value in values.items():
                if param_id.lower() == LOCAL_RUNTIME_ID_FIELD.lower():
                    raise NotWritableError(f"parameter {param_id!r} is not writable")
                spec = instance.descriptor.parameter(param_id)
                if spec is None:
                    raise UnknownParameterError(f"no parameter {param_id!r}")
                if spec.direction != "input":
                    raise NotWritableError(f"parameter {param_id!r} is not writable")
                if not literal_matches(spec.datatype, value):
                    raise TypeMismatchError(
                        f"{param_id}: {value!r} is not a {spec.datatype} literal"
                    )
            instance.input_values.update(values)
            return tuple(values)

    def read_skill(self, local_runtime_id: str) -> SkillSnapshot:
        with self._lock:
            instance = self._get(local_runtime_id)
            return SkillSnapshot(
                local_runtime_id=instance.local_runtime_id,
                descriptor=instance.descriptor,
                state=instance.state,
                input_values=dict(instance.input_values),
                output_values=dict(instance.output_values),
                last_error=instance.last_error,
            )

    def check_feasibility(self, local_runtime_id: str,
                          inputs: dict[str, Literal]) -> FeasibilityResult:
        with self._lock:
            instance = self._get(local_runtime_id)
            if not instance.descriptor.has_feasibility_check:
                raise UnsupportedCheckError(
                    f"skill {instance.descriptor.skill_id!r} has no feasibility check"
                )
            for param_id, value in inputs.items():
                spec = instance.descriptor.parameter(param_id)
                if spec is None or spec.direction != "input":
                    raise TypeMismatchError(
                        f"{param_id!r} is not an input parameter"
                    )
                if not literal_matches(spec.datatype, value):
                    raise TypeMismatchError(
                        f"{param_id}: {value!r} is not a {spec.datatype} literal"
                    )
            merged = {**instance.input_values, **inputs}
            result = instance.behavior.feasibility(merged)
            if not result.feasible and not result.reason:
                raise ValueError(
                    "behavior returned infeasible without a reason"
                )
            return result

    # -- internals ---------------------------------------------------------

    def _get(self, local_runtime_id: str) -> _Instance:
        instance = self._instances.get(local_runtime_id)
        if instance is None:
            raise UnknownSkillError(f"no skill instance {local_runtime_id!r}")
        return instance

    def _enter(self, instance: _Instance, state: str) -> None:
        previous = instance.state
        instance.state = state
        instance.event_seq += 1
        event = SkillEvent(
            local_runtime_id=instance.local_runtime_id,
            previous_state=previous,
            new_state=state,
            seq=instance.event_seq,
        )
        for listener in list(self._listeners):
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - an observer must not break the transition
                _log.exception("listener failed on %s -> %s", previous, state)

        if state == "Resetting":
            instance.output_values = {}
            instance.last_error = None
        elif state == "Execute" and previous == "Starting":
            try:
                outputs = instance.behavior.on_execute(dict(instance.input_values)) or {}
                _check_outputs(instance.descriptor, outputs)
            except Exception as fault:  # noqa: BLE001 - any failure takes the abort path
                if not isinstance(fault, SkillFault):  # a behavior bug, not a reported fault
                    _log.exception("on_execute failed on %s", instance.local_runtime_id)
                instance.last_error = str(fault) or "execution failed"
                self._enter(instance, "Aborting")
            else:
                instance.output_values.update(outputs)

    def _settle(self, instance: _Instance, state: str) -> None:
        """Enter ``state``, then complete acting states until one parks or
        none is left."""
        self._enter(instance, state)
        while instance.state in ACTING_NEXT:
            try:
                if instance.behavior.parks(instance.state, dict(instance.input_values)):
                    return
            except Exception:  # noqa: BLE001 - a raising hook counts as not parking
                _log.exception("parks failed in %s", instance.state)
            self._enter(instance, ACTING_NEXT[instance.state])


def _check_outputs(descriptor: SkillDescriptor, outputs: dict[str, Literal]) -> None:
    """Raise SkillFault naming the first undeclared or ill-typed output."""
    for param_id, value in outputs.items():
        spec = descriptor.parameter(param_id)
        if spec is None or spec.direction != "output":
            raise SkillFault(f"behavior produced undeclared output {param_id!r}")
        if not literal_matches(spec.datatype, value):
            raise SkillFault(
                f"output {param_id}: {value!r} is not a {spec.datatype} literal"
            )
