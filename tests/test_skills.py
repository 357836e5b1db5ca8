from __future__ import annotations

import pytest

from csskit.errors import (
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
from csskit.model import ParameterSpec, SkillDescriptor
from csskit.skills import (
    COMMANDS,
    STATES,
    FeasibilityResult,
    SkillBehavior,
    SkillFault,
    SkillHost,
)

DRILL_LIMIT = 15


def drill_descriptor(skill_id="skill-drill", **kw) -> SkillDescriptor:
    return SkillDescriptor(
        skill_id=skill_id,
        capability_ref="urn:cap:drill",
        parameters=(
            ParameterSpec("depth", "input", "integer", unit="mm", default=5),
            ParameterSpec("achievedDepth", "output", "integer", unit="mm"),
        ),
        **kw,
    )


class DrillBehavior(SkillBehavior):
    def on_execute(self, inputs):
        return {"achievedDepth": inputs["depth"]}

    def feasibility(self, inputs):
        depth = inputs.get("depth", 0)
        if depth > DRILL_LIMIT:
            return FeasibilityResult(
                False, reason=f"depth {depth} exceeds limit {DRILL_LIMIT}"
            )
        return FeasibilityResult(True)


class ManualBehavior(SkillBehavior):
    """Parks in every acting state until host.advance() is called."""

    def parks(self, state, inputs):
        return True


class FaultyBehavior(SkillBehavior):
    def on_execute(self, inputs):
        raise SkillFault("bit snapped")


# --- registration -------------------------------------------------------------

def test_register_assigns_runtime_id_and_stopped_state():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    assert lrid == "lr-0001"
    assert host.read_skill(lrid).state == "Stopped"
    assert host.register_skill(drill_descriptor("skill-2"), DrillBehavior()) == "lr-0002"


def test_register_rejects_empty_capability_ref():
    host = SkillHost()
    descriptor = SkillDescriptor(skill_id="skill-x", capability_ref="")
    with pytest.raises(DescriptorInvalidError):
        host.register_skill(descriptor, SkillBehavior())


def test_register_rejects_duplicate_skill_id():
    host = SkillHost()
    host.register_skill(drill_descriptor(), DrillBehavior())
    with pytest.raises(DuplicateSkillIdError):
        host.register_skill(drill_descriptor(), DrillBehavior())


def test_register_rejects_local_runtime_id_parameter():
    descriptor = SkillDescriptor(
        skill_id="skill-x",
        capability_ref="urn:x",
        parameters=(ParameterSpec("localRuntimeId", "input", "enum"),),
    )
    with pytest.raises(DescriptorInvalidError):
        SkillHost().register_skill(descriptor, SkillBehavior())


def test_register_loads_defaults():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    assert host.read_skill(lrid).input_values == {"depth": 5}


# --- command firing -------------------------------------------------------------

def test_idle_start_goes_to_starting():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), ManualBehavior())
    host.fire_command(lrid, "Reset")
    host.advance(lrid)  # Resetting -> Idle
    assert host.fire_command(lrid, "Start") == "Starting"


def test_invalid_pair_raises_and_leaves_state():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    host.fire_command(lrid, "Reset")
    host.fire_command(lrid, "Start")  # runs through to Complete
    assert host.read_skill(lrid).state == "Complete"
    with pytest.raises(InvalidTransitionError):
        host.fire_command(lrid, "Start")
    assert host.read_skill(lrid).state == "Complete"


def test_unknown_command_raises_and_leaves_state():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), ManualBehavior())
    for command in ("Jump", "start", ""):
        with pytest.raises(InvalidTransitionError) as excinfo:
            host.fire_command(lrid, command)
        assert (excinfo.value.state, excinfo.value.command) == ("Stopped", command)
        assert host.read_skill(lrid).state == "Stopped"


def test_unknown_skill():
    with pytest.raises(UnknownSkillError):
        SkillHost().fire_command("lr-9999", "Start")


def test_failing_precondition_blocks_start():
    class Blocked(DrillBehavior):
        def precondition(self, inputs):
            return "no workpiece clamped"

    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_precondition_check=True), Blocked()
    )
    host.fire_command(lrid, "Reset")
    assert host.read_skill(lrid).state == "Idle"
    with pytest.raises(PreconditionViolatedError):
        host.fire_command(lrid, "Start")
    assert host.read_skill(lrid).state == "Idle"


# --- exhaustive transition closure -----------------------------------------------

_PARK = {
    "Stopped": [],
    "Resetting": ["Reset"],
    "Idle": ["Reset", "*"],
    "Starting": ["Reset", "*", "Start"],
    "Execute": ["Reset", "*", "Start", "*"],
    "Completing": ["Reset", "*", "Start", "*", "*"],
    "Complete": ["Reset", "*", "Start", "*", "*", "*"],
    "Holding": ["Reset", "*", "Start", "*", "Hold"],
    "Held": ["Reset", "*", "Start", "*", "Hold", "*"],
    "Unholding": ["Reset", "*", "Start", "*", "Hold", "*", "Unhold"],
    "Suspending": ["Reset", "*", "Start", "*", "Suspend"],
    "Suspended": ["Reset", "*", "Start", "*", "Suspend", "*"],
    "Unsuspending": ["Reset", "*", "Start", "*", "Suspend", "*", "Unsuspend"],
    "Stopping": ["Reset", "Stop"],
    "Aborting": ["Abort"],
    "Aborted": ["Abort", "*"],
    "Clearing": ["Abort", "*", "Clear"],
}

# the normative table, written out independently of the implementation
_EXPECTED: dict[tuple[str, str], str] = {
    ("Idle", "Start"): "Starting",
    ("Complete", "Reset"): "Resetting",
    ("Stopped", "Reset"): "Resetting",
    ("Execute", "Hold"): "Holding",
    ("Held", "Unhold"): "Unholding",
    ("Execute", "Suspend"): "Suspending",
    ("Suspended", "Unsuspend"): "Unsuspending",
    ("Aborted", "Clear"): "Clearing",
}
for _state in STATES:
    if _state not in ("Stopped", "Stopping", "Aborting", "Aborted", "Clearing"):
        _EXPECTED[(_state, "Stop")] = "Stopping"
    if _state not in ("Aborting", "Aborted"):
        _EXPECTED[(_state, "Abort")] = "Aborting"


def _park(state: str) -> tuple[SkillHost, str]:
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), ManualBehavior())
    for action in _PARK[state]:
        if action == "*":
            host.advance(lrid)
        else:
            host.fire_command(lrid, action)
    assert host.read_skill(lrid).state == state
    return host, lrid


def test_every_state_command_pair_matches_the_table():
    assert len(STATES) == 17 and len(COMMANDS) == 9
    checked = 0
    for state in STATES:
        for command in COMMANDS:
            host, lrid = _park(state)
            expected = _EXPECTED.get((state, command))
            if expected is None:
                with pytest.raises(InvalidTransitionError):
                    host.fire_command(lrid, command)
                assert host.read_skill(lrid).state == state
            else:
                assert host.fire_command(lrid, command) == expected
            checked += 1
    assert checked == 17 * 9
    assert len(_EXPECTED) == 8 + 12 + 15


# --- parameters -------------------------------------------------------------------

def test_write_parameters_in_idle():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    host.fire_command(lrid, "Reset")
    assert host.write_parameters(lrid, {"depth": 12}) == ("depth",)
    assert host.read_skill(lrid).input_values["depth"] == 12


def test_write_parameters_in_stopped():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    assert host.read_skill(lrid).state == "Stopped"
    assert host.write_parameters(lrid, {"depth": 7}) == ("depth",)


def test_write_parameters_wrong_state():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), ManualBehavior())
    host.fire_command(lrid, "Reset")
    host.advance(lrid)
    host.fire_command(lrid, "Start")
    host.advance(lrid)  # Starting -> Execute
    with pytest.raises(WrongStateError):
        host.write_parameters(lrid, {"depth": 9})


def test_write_parameters_rejections():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    with pytest.raises(NotWritableError):
        host.write_parameters(lrid, {"localRuntimeId": "lr-0009"})
    with pytest.raises(NotWritableError):
        host.write_parameters(lrid, {"achievedDepth": 3})
    with pytest.raises(UnknownParameterError):
        host.write_parameters(lrid, {"speed": 3})
    with pytest.raises(TypeMismatchError):
        host.write_parameters(lrid, {"depth": "deep"})


# --- read --------------------------------------------------------------------------

def test_read_after_complete_contains_outputs():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    host.fire_command(lrid, "Reset")
    host.write_parameters(lrid, {"depth": 12})
    host.fire_command(lrid, "Start")
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Complete"
    assert snapshot.output_values == {"achievedDepth": 12}


def test_read_fresh_registration():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Stopped"
    assert snapshot.output_values == {}
    assert snapshot.last_error is None


def test_read_unknown():
    with pytest.raises(UnknownSkillError):
        SkillHost().read_skill("lr-0404")


# --- feasibility ---------------------------------------------------------------------

def test_feasibility_inside_limit():
    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), DrillBehavior()
    )
    assert host.check_feasibility(lrid, {"depth": 12}).feasible


def test_feasibility_outside_limit_names_reason():
    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), DrillBehavior()
    )
    result = host.check_feasibility(lrid, {"depth": 40})
    assert not result.feasible
    assert "limit" in result.reason


def test_feasibility_unsupported():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    with pytest.raises(UnsupportedCheckError):
        host.check_feasibility(lrid, {"depth": 12})


@pytest.mark.parametrize("inputs, message", [
    ({"achievedDepth": 3}, "'achievedDepth' is not an input parameter"),
    ({"speed": 3}, "'speed' is not an input parameter"),
    ({"depth": "deep"}, "depth: 'deep' is not a integer literal"),
], ids=["output", "unknown", "datatype"])
def test_feasibility_refuses_what_is_not_an_input_value(inputs, message):
    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), DrillBehavior()
    )
    with pytest.raises(TypeMismatchError) as excinfo:
        host.check_feasibility(lrid, inputs)
    assert excinfo.value.message == message


def test_feasibility_is_side_effect_free():
    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), DrillBehavior()
    )
    host.fire_command(lrid, "Reset")
    before = host.read_skill(lrid)
    host.check_feasibility(lrid, {"depth": 40})
    after = host.read_skill(lrid)
    assert before == after


# --- runs, events, faults ---------------------------------------------------------------

def test_successful_run_state_sequence():
    host = SkillHost()
    seen = []
    host.add_listener(lambda e: seen.append(e.new_state))
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    host.fire_command(lrid, "Reset")
    host.fire_command(lrid, "Start")
    assert seen == ["Resetting", "Idle", "Starting", "Execute", "Completing", "Complete"]


def test_event_seq_is_per_instance_monotone():
    host = SkillHost()
    events = []
    host.add_listener(lambda e: events.append(e))
    a = host.register_skill(drill_descriptor("skill-a"), DrillBehavior())
    b = host.register_skill(drill_descriptor("skill-b"), DrillBehavior())
    for lrid in (a, b):
        host.fire_command(lrid, "Reset")
        host.fire_command(lrid, "Start")
    for lrid in (a, b):
        seqs = [e.seq for e in events if e.local_runtime_id == lrid]
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(seqs) == 6  # one event per state change


def test_raising_listener_neither_stops_others_nor_the_transition(caplog):
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), DrillBehavior())
    host.fire_command(lrid, "Reset")

    def broken(event):
        raise RuntimeError("listener broke (injected)")

    seen = []
    host.add_listener(broken)
    host.add_listener(lambda e: seen.append(e.new_state))
    assert host.fire_command(lrid, "Start") == "Starting"
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Complete"
    assert snapshot.output_values == {"achievedDepth": 5}
    assert seen == ["Starting", "Execute", "Completing", "Complete"]
    assert [record.getMessage() for record in caplog.records] == [
        "listener failed on Idle -> Starting",
        "listener failed on Starting -> Execute",
        "listener failed on Execute -> Completing",
        "listener failed on Completing -> Complete",
    ]


def test_abort_reaches_aborted_within_one_completion():
    for state in ("Idle", "Execute", "Held", "Complete", "Stopping"):
        host = SkillHost()
        lrid = host.register_skill(drill_descriptor(), ManualBehavior())
        for action in _PARK[state]:
            host.advance(lrid) if action == "*" else host.fire_command(lrid, action)
        assert host.fire_command(lrid, "Abort") == "Aborting"
        host.advance(lrid)
        assert host.read_skill(lrid).state == "Aborted"


def test_behavior_fault_takes_abort_path():
    host = SkillHost()
    seen = []
    host.add_listener(lambda e: seen.append(e.new_state))
    lrid = host.register_skill(drill_descriptor(), FaultyBehavior())
    host.fire_command(lrid, "Reset")
    host.fire_command(lrid, "Start")
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Aborted"
    assert "bit snapped" in snapshot.last_error
    assert seen[-3:] == ["Execute", "Aborting", "Aborted"]


def test_raising_parks_is_logged_and_counts_as_not_parking(caplog):
    class BrokenParks(DrillBehavior):
        def parks(self, state, inputs):
            raise RuntimeError("parks broke (injected)")

    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), BrokenParks())
    host.fire_command(lrid, "Reset")
    assert host.fire_command(lrid, "Start") == "Starting"
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Complete"
    assert snapshot.output_values == {"achievedDepth": 5}
    assert [record.getMessage() for record in caplog.records] == [
        f"parks failed in {state}"
        for state in ("Resetting", "Starting", "Execute", "Completing")
    ]


def test_hold_and_resume_completes():
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), ManualBehavior())
    for action in _PARK["Execute"]:
        host.advance(lrid) if action == "*" else host.fire_command(lrid, action)
    host.fire_command(lrid, "Hold")
    host.advance(lrid)  # Holding -> Held
    host.fire_command(lrid, "Unhold")
    host.advance(lrid)  # Unholding -> Execute
    assert host.read_skill(lrid).state == "Execute"
    host.advance(lrid)  # Execute -> Completing
    host.advance(lrid)
    assert host.read_skill(lrid).state == "Complete"


class ParkedExecute(DrillBehavior):
    """Parks in Execute until host.advance(); every other acting state is instant."""

    def __init__(self):
        self.executions = 0

    def on_execute(self, inputs):
        self.executions += 1
        return super().on_execute(inputs)

    def parks(self, state, inputs):
        return state == "Execute"


@pytest.mark.parametrize(
    "command, acting, final",
    [("Stop", "Stopping", "Stopped"), ("Abort", "Aborting", "Aborted")],
)
def test_stop_or_abort_from_parked_execute_never_completes(command, acting, final):
    host = SkillHost()
    seen = []
    host.add_listener(lambda e: seen.append(e.new_state))
    lrid = host.register_skill(drill_descriptor(), ParkedExecute())
    host.fire_command(lrid, "Reset")
    host.fire_command(lrid, "Start")
    assert host.read_skill(lrid).state == "Execute"
    assert host.fire_command(lrid, command) == acting
    assert host.read_skill(lrid).state == final
    assert seen[-3:] == ["Execute", acting, final]
    assert "Completing" not in seen


@pytest.mark.parametrize("state", ["Stopped", "Idle", "Held", "Suspended", "Complete", "Aborted"])
def test_advance_outside_an_acting_state_raises_and_leaves_state(state):
    host, lrid = _park(state)
    with pytest.raises(WrongStateError) as excinfo:
        host.advance(lrid)
    assert excinfo.value.message == f"state {state} has no internal completion"
    assert host.read_skill(lrid).state == state


def test_unsuspend_parks_execute_again_until_advance():
    behavior = ParkedExecute()
    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), behavior)
    host.fire_command(lrid, "Reset")
    host.fire_command(lrid, "Start")
    assert host.fire_command(lrid, "Suspend") == "Suspending"
    assert host.read_skill(lrid).state == "Suspended"
    assert host.fire_command(lrid, "Unsuspend") == "Unsuspending"
    assert host.read_skill(lrid).state == "Execute"
    assert host.advance(lrid) == "Complete"
    assert behavior.executions == 1
    assert host.read_skill(lrid).output_values == {"achievedDepth": 5}


@pytest.mark.parametrize(
    "outputs, named",
    [
        ({"achievedDepth": 5, "spindleSpeed": 300}, "spindleSpeed"),
        ({"achievedDepth": "deep"}, "achievedDepth"),
        (KeyError("spindle"), "spindle"),
    ],
    ids=["undeclared", "ill-typed", "raised"],
)
def test_bad_output_takes_abort_path_and_recovers(outputs, named):
    """Also any exception from on_execute: the command returns normally and
    the skill is left in Aborted, not stranded in Execute."""
    class BadOutput(SkillBehavior):
        def on_execute(self, inputs):
            if isinstance(outputs, Exception):
                raise outputs
            return outputs

    host = SkillHost()
    lrid = host.register_skill(drill_descriptor(), BadOutput())
    host.fire_command(lrid, "Reset")
    assert host.fire_command(lrid, "Start") == "Starting"
    snapshot = host.read_skill(lrid)
    assert snapshot.state == "Aborted"
    assert named in snapshot.last_error
    assert snapshot.output_values == {}
    host.fire_command(lrid, "Clear")
    host.fire_command(lrid, "Reset")
    assert host.read_skill(lrid).state == "Idle"
