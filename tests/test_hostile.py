"""Hostile request lines, and skill behaviors that raise, park or return bad
values in each hook.

Whatever a line holds, the server answers it with exactly one response and
keeps the connection. Whatever a behavior does, ``execute_plan`` completes
each step on some provider or raises StepFailedNoAlternative, and once the
behaviors behave again the next run on the same clients succeeds on every
primary.
"""

from __future__ import annotations

import json
import random
import socket
import threading

import pytest

from csskit import protocol
from csskit.documents import build_world
from csskit.errors import ParseError, StepFailedNoAlternativeError
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.orchestrate import execute_plan, plan
from csskit.protocol import Message, connect_loopback, connect_tcp, decode, encode
from csskit.skills import FeasibilityResult, SkillFault

from conftest import LoopbackWire, TcpWire, exec_world_doc, hello_of
from test_protocol import make_host


# --- hostile lines ------------------------------------------------------------------

#: a well-formed payload of every request kind, for a host whose one skill is lr-0001
PAYLOADS = {
    "hello": {"clientName": "fuzz", "version": "css/1"},
    "list_skills": {},
    "describe": {"localRuntimeId": "lr-0001"},
    "read": {"localRuntimeId": "lr-0001"},
    "write": {"localRuntimeId": "lr-0001", "values": {"depth": 3}},
    "command": {"localRuntimeId": "lr-0001", "command": "Reset"},
    "feasibility": {"localRuntimeId": "lr-0001", "inputs": {"depth": 3}},
    "subscribe": {"localRuntimeId": "lr-0001", "enable": True},
}
COMMANDS = ("Reset", "Start", "Stop", "Abort", "Clear", "Hold", "Unhold", "Fly")
#: one value of each JSON type
TYPED = (7, 2.5, True, None, "x", [1], {"a": 1})


def _wrong(value) -> list:
    return [other for other in TYPED if type(other) is not type(value)]


def _line(kind: str, correlation_id: str, payload, **extra) -> bytes:
    obj = {"kind": kind, "correlationId": correlation_id, "payload": payload, **extra}
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


def _request(rng: random.Random, correlation_id: str) -> bytes:
    kind = rng.choice(sorted(PAYLOADS))
    payload = dict(PAYLOADS[kind])
    if kind == "command":
        payload["command"] = rng.choice(COMMANDS)
    if kind == "subscribe":
        payload["enable"] = rng.random() < 0.5
    return _line(kind, correlation_id, payload)


ENVELOPE = {"kind": "read", "correlationId": "c-type", "payload": PAYLOADS["read"], "seq": 1}


def wrong_envelope_lines() -> list[bytes]:
    """Every envelope field once with each wrong type. None of these lines is
    a message, except the one with a null seq, which reads as no seq."""
    return [
        json.dumps({**ENVELOPE, field: wrong}).encode()
        for field, value in ENVELOPE.items()
        for wrong in _wrong(value)
    ]


def wrong_type_lines() -> list[bytes]:
    """Every envelope field and every payload field, once with each wrong type."""
    lines = wrong_envelope_lines()
    for kind, payload in PAYLOADS.items():
        for field, value in payload.items():
            for wrong in _wrong(value):
                lines.append(_line(kind, f"c-{kind}-{field}", {**payload, field: wrong}))
    return lines


def hostile_lines(rng: random.Random, count: int) -> list[bytes]:
    """A hello, every wrong-typed field, two lines at and over the length cap,
    then ``count`` seeded picks of the other hostile shapes."""
    lines = [_line("hello", "c-hello", PAYLOADS["hello"]), *wrong_type_lines()]
    lines += [hello_of(protocol.MAX_LINE_BYTES), hello_of(protocol.MAX_LINE_BYTES + 1)]
    for _ in range(count):
        shape = rng.choice([
            "deep", "truncated", "utf8", "unknown kind", "duplicate kind", "long number",
            "duplicate id", "not an object",
        ])
        if shape == "deep":
            depth = rng.choice([10, 500, 5000, 100_000])
            nested = "[" * depth + "]" * depth if rng.random() < 0.5 else "[" * depth
            lines.append(
                b'{"kind": "write", "correlationId": "c-deep", "payload": '
                b'{"localRuntimeId": "lr-0001", "values": {"depth": ' + nested.encode() + b"}}}"
            )
        elif shape == "truncated":
            whole = _request(rng, "c-cut")
            lines.append(whole[: rng.randrange(len(whole))])
        elif shape == "utf8":
            whole = _request(rng, "c-utf8")
            at = whole.index(b"c-utf8") + 1
            bad = rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80"])
            lines.append(whole[:at] + bad + whole[at:])
        elif shape == "unknown kind":
            kind = rng.choice(["result", "error", "event", "HELLO", "", "bye", "héllo"])
            lines.append(_line(kind, "c-kind", {}))
        elif shape == "duplicate kind":  # refused: no "kind" is read
            first, last = rng.sample(sorted(PAYLOADS), 2)
            whole = _line(last, "c-dup-kind", PAYLOADS[last])
            lines.append(b'{"kind": "' + first.encode() + b'", ' + whole[1:])
        elif shape == "long number":  # past jsonio.MAX_INT_DIGITS
            lines.append(
                b'{"kind": "write", "correlationId": "c-long-number", "payload": '
                b'{"localRuntimeId": "lr-0001", "values": {"depth": ' + b"9" * 5000 + b"}}}"
            )
        elif shape == "not an object":  # JSON, but no message
            lines.append(rng.choice([b"[1]", b"7", b'"read"', b"null", b"[]"]))
        else:  # well-formed requests sharing three correlation ids
            lines.append(_request(rng, f"c-dup-{rng.randrange(3)}"))
    return lines


#: every kind a message may have: each request kind, and the three a server sends
KINDS = (*PAYLOADS, "result", "error", "event")


def _pairs(raw: bytes) -> list | None:
    """The top-level (key, value) pairs of ``raw`` when it is within the cap,
    valid UTF-8 and a JSON object, else None. Read here with the standard json
    module, each number as a float, and not with decode."""
    if len(raw) > protocol.MAX_LINE_BYTES:
        return None
    try:
        obj = json.loads(raw.decode("utf-8"), object_pairs_hook=lambda pairs: ("{}", pairs),
                         parse_int=float, parse_float=float, parse_constant=float)
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    return obj[1] if isinstance(obj, tuple) else None


def _expected_correlation_id(raw: bytes) -> str:
    """The correlationId a response to ``raw`` carries: the line's own when
    ``raw`` is a JSON object (see ``_pairs``) holding exactly one string
    correlationId, whatever its numbers hold, else ""."""
    ids = [v for k, v in _pairs(raw) or () if k == "correlationId"]
    return ids[0] if len(ids) == 1 and isinstance(ids[0], str) else ""


def _refused(raw: bytes) -> bool:
    """Whether ``raw`` is no message: no JSON object (see ``_pairs``), of a kind
    no message has, or refused by decode for another fault."""
    pairs = _pairs(raw)
    if pairs is None or any(k == "kind" and v not in KINDS for k, v in pairs):
        return True
    try:
        decode(raw.decode("utf-8"))
    except ParseError:
        return True
    return False


@pytest.mark.parametrize("wire_type", [LoopbackWire, TcpWire])
def test_every_hostile_line_gets_one_response_and_the_connection_lives(wire_type):
    wire = wire_type(make_host()[0])
    null_seq = json.dumps({**ENVELOPE, "seq": None}).encode()
    not_messages = set(wrong_envelope_lines()) - {null_seq}
    try:
        for raw in hostile_lines(random.Random(4), 400):
            answers = wire.exchange(raw)
            expected = _expected_correlation_id(raw)
            assert [a.correlation_id for a in answers] == [expected], raw[:200]
            assert answers[0].kind in ("result", "error")
            # a line that is no message, and only such a line, is answered with ParseError
            refused = _refused(raw)
            assert refused or raw not in not_messages, raw[:200]
            assert (answers[0].payload.get("code") == "ParseError") == refused, raw[:200]
        (alive,) = wire.exchange(_line("hello", "c-alive", PAYLOADS["hello"]))
        assert (alive.kind, alive.correlation_id) == ("result", "c-alive")
        assert alive.payload["version"] == "css/1"
    finally:
        wire.close()


def test_a_client_drops_hostile_server_lines_and_keeps_its_connection(monkeypatch):
    """A server that sends a hostile line before each answer, the last one a
    result for the waiting request that is longer than ``MAX_QUEUED_BYTES``:
    the client drops every such line, gets each request's answer and can
    still ask more."""
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 5.0)
    monkeypatch.setattr(protocol, "MAX_QUEUED_BYTES", 1 << 16)
    hostile = hostile_lines(random.Random(4), 400)
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_each_after_a_hostile_line():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as requests:
            for n, line in zip(range(len(hostile) + 2), requests):  # until the client closes
                request = decode(line.decode("utf-8"))
                answer = encode(Message("result", request.correlation_id, {"n": n}))
                if n < len(hostile):
                    before = hostile[n]
                elif n == len(hostile):
                    pad = "x" * protocol.MAX_QUEUED_BYTES
                    before = encode(Message("result", request.correlation_id, {"pad": pad})).encode()
                else:
                    before = b""
                conn.sendall(before + b"\n" + answer.encode() + b"\n")

    server = threading.Thread(target=answer_each_after_a_hostile_line, daemon=True)
    server.start()
    client = connect_tcp(("127.0.0.1", listener.getsockname()[1]))
    try:
        answers = []
        for _ in range(len(hostile) + 2):
            answers.append(client.invoke("hello", {})["n"])
    finally:
        client.close()
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()
    assert len(hostile) > 400
    assert answers == list(range(len(hostile) + 2))


# --- faulty behaviors -----------------------------------------------------------------


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
