from __future__ import annotations

import contextlib
import gc
import random
import socket
import sys
import threading
import time
import warnings
from decimal import Decimal

import pytest

from csskit import jsonio, protocol
from csskit.errors import (
    BindFailureError, ConnectionLostError, ParseError, RemoteError, TimeoutError,
)
from csskit.protocol import (
    Message,
    ProtocolServer,
    ServerSession,
    SkillClient,
    connect_loopback,
    connect_tcp,
    decode,
    encode,
    serve,
)
from csskit.skills import FeasibilityResult, SkillHost

from conftest import LoopbackWire, TcpWire, hello_of
from test_jsonio import _decoded, _random_string, _random_value
from test_skills import DrillBehavior, drill_descriptor


def make_host(name="r-drill") -> tuple[SkillHost, str]:
    host = SkillHost(name)
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), DrillBehavior()
    )
    return host, lrid


def assert_silent(wait, monkeypatch) -> None:
    """``wait`` (a client's next_event) times out within 0.05 s."""
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "DEFAULT_TIMEOUT", 0.05)
        with pytest.raises(TimeoutError):
            wait()


# --- encode / decode -----------------------------------------------------------

def test_message_round_trip():
    msg = Message(
        kind="command",
        correlation_id="c-000007",
        payload={"localRuntimeId": "lr-0001", "command": "Start", "x": Decimal("4.50")},
    )
    line = encode(msg)
    assert "\n" not in line
    assert decode(line) == msg


def test_event_round_trip_keeps_seq():
    msg = Message("event", "", {"localRuntimeId": "lr-0001", "newState": "Idle"}, seq=3)
    assert decode(encode(msg)) == msg


def test_decode_missing_kind_is_parse_error():
    with pytest.raises(ParseError):
        decode('{"correlationId": "c-1", "payload": {}}')


@pytest.mark.parametrize("kind", ['"bye"', '""', '"HELLO"', "7"])
def test_decode_refuses_an_unknown_kind(kind):
    with pytest.raises(ParseError, match="message kind is missing or unknown"):
        decode('{"kind": ' + kind + ', "correlationId": "c-1", "payload": {}}')


def test_decode_reports_byte_offset():
    with pytest.raises(ParseError) as excinfo:
        decode('{"kind": "hello", "correlationId": }')
    assert excinfo.value.offset == 35


@pytest.mark.parametrize("line, message", [
    ("[1]", "message line must be a single object"),
    ("7", "message line must be a single object"),
    ('{"kind": "read", "correlationId": "c", "payload": []}', "payload must be an object"),
    ('{"kind": "read", "correlationId": "c", "payload": {}, "seq": 1.5}', "seq must be an integer"),
])
def test_a_structural_fault_names_no_byte_offset(line, message):
    """Only the JSON decoder knows where a fault lies; a line that is JSON but
    no message is refused without claiming an offset."""
    with pytest.raises(ParseError) as excinfo:
        decode(line)
    assert (excinfo.value.message, excinfo.value.offset) == (message, None)


def test_decode_rejects_unknown_fields():
    with pytest.raises(ParseError):
        decode('{"kind": "hello", "correlationId": "", "payload": {}, "extra": 1}')


def test_decoder_is_stateless_about_seq():
    first = decode(encode(Message("event", "", {"localRuntimeId": "x", "newState": "Idle"}, seq=2)))
    second = decode(encode(Message("event", "", {"localRuntimeId": "x", "newState": "Execute"}, seq=3)))
    assert (first.seq, second.seq) == (2, 3)


def _read_back(value):
    """``value`` as ``decode(encode(...))`` gives it back: a high surrogate
    directly followed by a low one is two escapes that read as one astral
    character, as with ``json.dumps(ensure_ascii=True)``."""
    if isinstance(value, str):
        return value.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")
    if isinstance(value, list):
        return [_read_back(item) for item in value]
    if isinstance(value, dict):
        return {_read_back(key): _read_back(item) for key, item in value.items()}
    return value


def test_encode_writes_utf8_that_decodes_to_the_same_message():
    rng = random.Random(19)
    for _ in range(400):
        payload = {_random_string(rng): _random_value(rng)}
        line = encode(Message("write", _random_string(rng), payload))
        line.encode("utf-8")  # strict: no lone surrogate is left raw
        msg = decode(line)
        assert msg.payload == _read_back(_decoded(payload))
    # the escapes of a lone surrogate pair read back as one astral character
    paired = encode(Message("write", "\ud83d\ude00", {"\udfff": "\ud800"}))
    assert paired == '{"correlationId":"\\ud83d\\ude00","kind":"write","payload":{"\\udfff":"\\ud800"}}'
    assert decode(paired).correlation_id == "\U0001f600"


def test_decode_rejects_a_repeated_kind():
    """A line with two kinds is refused, not answered as the last one."""
    with pytest.raises(ParseError) as excinfo:
        decode('{"kind": "read", "kind": "feasibility", "correlationId": "c", "payload": {}}')
    assert excinfo.value.message == "duplicate object key 'kind'"


def test_decode_refuses_a_decimal_too_large_to_convert_exactly():
    """Read whole, 1E+100000000 would stall the process that converts it to
    a Fraction (10**100000000)."""
    line = (
        '{"kind": "feasibility", "correlationId": "c-000001", "payload": '
        '{"localRuntimeId": "lr-0001", "inputs": {"torque": 1E+100000000}}}'
    )
    with pytest.raises(ParseError) as excinfo:
        decode(line)
    assert excinfo.value.message == "decimal literal has an exponent beyond 4300 in magnitude"


@pytest.mark.parametrize("seq", ["true", "false"])
def test_decode_rejects_a_boolean_seq(seq):
    with pytest.raises(ParseError, match="seq must be an integer"):
        decode(f'{{"kind":"read","correlationId":"c","payload":{{}},"seq":{seq}}}')


def test_a_client_drops_an_event_with_a_boolean_seq(monkeypatch):
    client = protocol.SkillClient(lambda line: None)
    event = '{"kind":"event","correlationId":"","payload":{"newState":"Idle"},"seq":%s}'
    client.feed_line(event % "false")
    assert_silent(client.next_event, monkeypatch)
    client.feed_line(event % "1")
    assert client.next_event().seq == 1


# --- handshake and requests ------------------------------------------------------

def test_hello_returns_server_name_and_version():
    host, _ = make_host()
    client = connect_loopback(host)
    assert client.hello() == {"serverName": "r-drill", "version": "css/1"}
    client.close()


def test_hello_sends_only_the_protocol_version():
    host, _ = make_host()
    payloads, clients = [], []
    session = ServerSession(host, host.name, lambda line: clients[0].feed_line(line))

    def send_line(line: str) -> None:
        payloads.append(decode(line).payload)
        session.handle_line(line)

    clients.append(SkillClient(send_line))
    clients[0].hello()
    assert payloads == [{"version": "css/1"}]


def test_requests_before_hello_are_rejected():
    host, lrid = make_host()
    client = connect_loopback(host)
    with pytest.raises(RemoteError) as excinfo:
        client.read(lrid)
    assert excinfo.value.remote_code == "HelloRequired"
    client.close()


#: a well-formed hello, which each test below sends last to show its connection lives
ALIVE = encode(Message("hello", "c-alive", {"version": "css/1"})).encode()


def _assert_alive(wire) -> None:
    """Over TCP an extra answer to an earlier line would come first and fail this."""
    (alive,) = wire.exchange(ALIVE)
    assert (alive.kind, alive.correlation_id) == ("result", "c-alive")
    assert alive.payload["version"] == "css/1"


@contextlib.contextmanager
def _wire(transport: str, host: SkillHost):
    """A raw-line connection to ``host`` over ``transport``, closed afterwards."""
    wire = (LoopbackWire if transport == "loopback" else TcpWire)(host)
    try:
        yield wire
    finally:
        wire.close()


def test_malformed_line_yields_parse_error_and_connection_survives():
    host, _ = make_host()
    with _wire("loopback", host) as wire:
        wire.exchange(ALIVE)
        (answer,) = wire.exchange(b"this is not a message")
        assert answer.kind == "error"
        assert answer.correlation_id == ""
        assert answer.payload["code"] == "ParseError"
        (listed,) = wire.exchange(encode(Message("list_skills", "c-list", {})).encode())
        assert listed.payload["skills"]  # still usable


def test_deeply_nested_line_yields_one_parse_error():
    host, _ = make_host()
    with _wire("loopback", host) as wire:
        (answer,) = wire.exchange(b"[" * 100000)
        assert answer.kind == "error"
        assert answer.payload["code"] == "ParseError"
        _assert_alive(wire)


@contextlib.contextmanager
def _connected(transport: str, host: SkillHost):
    """A client of ``host`` over ``transport``; the client and any server are
    closed afterwards."""
    server = serve(host, ("127.0.0.1", 0)) if transport == "tcp" else None
    client = connect_tcp(("127.0.0.1", server.port)) if server else connect_loopback(host)
    try:
        yield client
    finally:
        client.close()
        if server:
            server.close()


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_request_refused_for_a_number_fails_at_once(transport):
    """``encode`` writes a number the server refuses to read. The server's
    ParseError carries the request's correlationId, so the request fails at
    once instead of waiting out ``DEFAULT_TIMEOUT``."""
    host, lrid = make_host()
    with _connected(transport, host) as client:
        client.hello()
        started = time.monotonic()
        with pytest.raises(RemoteError) as excinfo:
            client.feasibility(lrid, {"depth": Decimal("1E+4301")})
        assert time.monotonic() - started < protocol.DEFAULT_TIMEOUT / 5
    assert excinfo.value.remote_code == "ParseError"


#: a line the server refuses -> the correlationId its ParseError carries
REFUSED_LINES = {
    b'{"kind": "read", "correlationId": "c-field", "payload": {}, "extra": 1}': "c-field",
    b'{"kind": "read", "correlationId": "c-list", "payload": []}': "c-list",
    b'{"kind": "read", "correlationId": "c-big", "payload": {"x": 1E+4301}}': "c-big",
    b'{"kind": "read", "correlationId": "c-long", "payload": {"x": ' + b"9" * 5000 + b"}}":
        "c-long",
    b'{"kind": "read", "kind": "write", "correlationId": "c-kind", "payload": {}}': "c-kind",
    b'{"kind": "bye", "correlationId": "c-bye", "payload": {}}': "c-bye",
    b'{"kind": "read", "correlationId": "c-a", "correlationId": "c-a", "payload": {}}': "",
    b'{"kind": "read", "correlationId": 7, "payload": {}}': "",
    b'{"kind": "read", "payload": {"correlationId": "c-inner"}, "extra": 1}': "",
    b'[{"kind": "read", "correlationId": "c-array", "payload": {}}]': "",
    b'{"kind": "read", "correlationId": "c-cut", "payload": {': "",
    b'{"kind": "read", "correlationId": "c-deep", "payload": {"x": '
    + b"[" * 100_000 + b"]" * 100_000 + b"}}": "",
    b'{"kind": "read", "correlationId": "c-\xff", "payload": {}, "extra": 1}': "",
}


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_refused_line_is_answered_under_its_own_readable_correlation_id(transport):
    host, _ = make_host()
    with _wire(transport, host) as wire:
        for line, correlation_id in REFUSED_LINES.items():
            (answer,) = wire.exchange(line)
            assert (answer.kind, answer.correlation_id) == ("error", correlation_id), line[:80]
            assert answer.payload["code"] == "ParseError"
        _assert_alive(wire)


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_over_long_line_yields_one_parse_error(transport):
    host, _ = make_host()
    with _wire(transport, host) as wire:
        (at_cap,) = wire.exchange(hello_of(protocol.MAX_LINE_BYTES))
        assert (at_cap.kind, at_cap.correlation_id) == ("result", "c-long")
        (over,) = wire.exchange(hello_of(protocol.MAX_LINE_BYTES + 1))
        assert (over.kind, over.correlation_id) == ("error", "")
        assert over.payload["code"] == "ParseError"
        _assert_alive(wire)


def test_invalid_utf8_line_yields_one_parse_error_over_tcp():
    host, _ = make_host()
    with _wire("tcp", host) as wire:
        (answer,) = wire.exchange(
            b'{"correlationId": "c-bad", "kind": "hello", "payload": {"clientName": "\xff"}}'
        )
        assert (answer.kind, answer.correlation_id) == ("error", "")
        assert answer.payload == {"code": "ParseError", "message": "line is not valid UTF-8"}
        _assert_alive(wire)


def test_unencodable_result_is_an_internal_error_for_its_request(monkeypatch):
    class NanEstimate(DrillBehavior):
        def feasibility(self, inputs):
            return FeasibilityResult(True, estimates={"seconds": float("nan")})

    host = SkillHost()
    lrid = host.register_skill(
        drill_descriptor(has_feasibility_check=True), NanEstimate()
    )
    client = connect_loopback(host)
    client.hello()
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    with pytest.raises(RemoteError) as excinfo:
        client.feasibility(lrid, {"depth": 3})
    assert excinfo.value.remote_code == "InternalError"
    assert client.read(lrid)["state"] == "Stopped"
    client.close()


def test_handle_line_answers_once_when_respond_fails(monkeypatch):
    host, _ = make_host()
    lines: list[str] = []
    session = ServerSession(host, "s", lines.append)

    def broken(line):
        raise RuntimeError("dispatch broke")

    monkeypatch.setattr(session, "_respond", broken)
    session.handle_line("{}")
    assert [decode(line).payload["code"] for line in lines] == ["InternalError"]
    session.close()


def test_remote_errors_carry_runtime_codes():
    host, lrid = make_host()
    client = connect_loopback(host)
    client.hello()
    with pytest.raises(RemoteError) as excinfo:
        client.read("lr-0404")
    assert excinfo.value.remote_code == "UnknownSkill"

    client.command(lrid, "Reset")
    client.command(lrid, "Start")  # runs to Complete
    with pytest.raises(RemoteError) as excinfo:
        client.command(lrid, "Start")
    assert excinfo.value.remote_code == "InvalidTransition"

    with pytest.raises(RemoteError) as excinfo:
        client.write(lrid, {"depth": 12})  # Complete: not writable
    assert excinfo.value.remote_code == "WrongState"
    client.close()


def test_an_unknown_command_is_an_invalid_transition():
    host, lrid = make_host()
    client = connect_loopback(host)
    client.hello()
    with pytest.raises(RemoteError) as excinfo:
        client.command(lrid, "Jump")
    assert excinfo.value.remote_code == "InvalidTransition"
    assert client.read(lrid)["state"] == "Stopped"
    client.close()


def test_command_start_result_then_events_when_subscribed(monkeypatch):
    host, lrid = make_host()
    client = connect_loopback(host)
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    client.hello()
    client.subscribe(lrid)
    assert client.command(lrid, "Reset")["newState"] == "Resetting"
    assert [client.next_event().payload["newState"] for _ in range(2)] == [
        "Resetting", "Idle",
    ]
    assert client.command(lrid, "Start")["newState"] == "Starting"
    states = [client.next_event().payload["newState"] for _ in range(4)]
    assert states == ["Starting", "Execute", "Completing", "Complete"]
    client.close()


def test_subscription_gap_free_and_complete(monkeypatch):
    host, lrid = make_host()
    truth = []
    host.add_listener(
        lambda e: truth.append(e.new_state) if e.local_runtime_id == lrid else None
    )
    client = connect_loopback(host)
    client.hello()
    client.subscribe(lrid)
    client.command(lrid, "Reset")
    client.command(lrid, "Start")
    client.command(lrid, "Reset")
    client.command(lrid, "Start")

    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    events = [client.next_event() for _ in range(len(truth))]
    assert [e.payload["newState"] for e in events] == truth
    seqs = [e.seq for e in events]
    assert seqs == list(range(1, len(truth) + 1))

    client.subscribe(lrid, enable=False)
    client.command(lrid, "Reset")
    assert_silent(client.next_event, monkeypatch)
    client.close()


def test_no_events_without_subscription(monkeypatch):
    host, lrid = make_host()
    client = connect_loopback(host)
    client.hello()
    client.command(lrid, "Reset")
    assert_silent(client.next_event, monkeypatch)
    client.close()


def test_unsupported_version_rejected():
    host, _ = make_host()
    client = connect_loopback(host)
    with pytest.raises(RemoteError) as excinfo:
        client.invoke("hello", {"version": "css/2"})
    assert excinfo.value.remote_code == "UnsupportedVersion"
    client.close()


# --- TCP transport ------------------------------------------------------------------

def test_a_failed_bind_closes_the_listening_socket():
    host, _ = make_host()
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        gc.collect()  # what earlier tests left is not this test's to report
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BindFailureError):
                ProtocolServer(host, taken.getsockname())
            gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_tcp_two_clients_command_different_skills(monkeypatch):
    host = SkillHost("r-multi")
    a = host.register_skill(drill_descriptor("skill-a"), DrillBehavior())
    b = host.register_skill(drill_descriptor("skill-b"), DrillBehavior())
    server = serve(host, ("127.0.0.1", 0))
    c1 = connect_tcp(("127.0.0.1", server.port))
    c2 = connect_tcp(("127.0.0.1", server.port))
    try:
        c1.hello()
        c2.hello()
        c1.subscribe(a)
        c2.subscribe(b)
        assert c1.command(a, "Reset")["newState"] == "Resetting"
        assert c2.command(b, "Reset")["newState"] == "Resetting"
        monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 2)
        for client in (c1, c2):
            seqs = [client.next_event().seq for _ in range(2)]
            assert seqs == [1, 2]
    finally:
        c1.close()
        c2.close()
        server.close()


def test_tcp_sockets_disable_nagle_on_both_ends(monkeypatch):
    """A connection's writer often sends one small line alone; with Nagle's
    algorithm on, it waits for the peer's delayed ACK."""
    client_socks: list[socket.socket] = []
    server_socks: list[socket.socket] = []
    create_connection = socket.create_connection
    serve_connection = ProtocolServer._serve_connection

    def spy_connect(*args, **kwargs):
        client_socks.append(create_connection(*args, **kwargs))
        return client_socks[-1]

    def spy_serve(self, conn):
        server_socks.append(conn)
        serve_connection(self, conn)

    monkeypatch.setattr(protocol.socket, "create_connection", spy_connect)
    monkeypatch.setattr(ProtocolServer, "_serve_connection", spy_serve)
    host, _ = make_host()
    server = serve(host, ("127.0.0.1", 0))
    client = connect_tcp(("127.0.0.1", server.port))
    try:
        client.hello()  # the server has set up its end once it answers
        for sock in (client_socks[0], server_socks[0]):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        client.close()
        server.close()


def test_tcp_peer_disconnect_fails_requests_at_once(monkeypatch):
    """A peer that accepts and then closes must not leave requests waiting
    out their timeout."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def accept_then_close():
        conn, _ = listener.accept()
        conn.close()

    peer = threading.Thread(target=accept_then_close, daemon=True)
    peer.start()
    client = connect_tcp(("127.0.0.1", port))
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 3)
    try:
        started = time.monotonic()
        with pytest.raises(ConnectionLostError):
            client.hello()
        assert time.monotonic() - started < 1.5
        started = time.monotonic()
        with pytest.raises(ConnectionLostError):
            client.list_skills()
        assert time.monotonic() - started < 0.5
    finally:
        client.close()
        peer.join(timeout=2)
        listener.close()
    assert not peer.is_alive()


def test_a_request_pending_when_its_connection_drops_fails_at_once():
    """A peer that reads a request and then closes fails that request, which
    is waiting for its answer, at once."""
    listener = socket.create_server(("127.0.0.1", 0))

    def read_one_request_then_close():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as requests:
            requests.readline()

    peer = threading.Thread(target=read_one_request_then_close, daemon=True)
    peer.start()
    client = connect_tcp(("127.0.0.1", listener.getsockname()[1]))
    try:
        started = time.monotonic()
        with pytest.raises(ConnectionLostError, match="closed"):
            client.hello()
        assert time.monotonic() - started < protocol.DEFAULT_TIMEOUT / 5
        assert client._pending == {}
    finally:
        client.close()
        peer.join(timeout=2)
        listener.close()
    assert not peer.is_alive()


def test_a_subscriber_that_stops_reading_cannot_stall_the_host(monkeypatch):
    """A subscriber that never reads is cut off once its output backs up, and
    meanwhile every other client is served at full speed."""
    # a small bound, so the events overflow it whatever the kernel buffers
    monkeypatch.setattr(protocol, "MAX_QUEUED_BYTES", 1 << 16)
    host, lrid = make_host()
    server = serve(host, ("127.0.0.1", 0))
    idle = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    idle.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    idle.settimeout(10)
    idle.connect(("127.0.0.1", server.port))
    idle_stream = idle.makefile("rb")
    client = None
    try:
        hello = encode(Message("hello", "c-1", {"version": "css/1"}))
        subscribe = encode(Message("subscribe", "c-2", {"localRuntimeId": lrid}))
        idle.sendall(f"{hello}\n{subscribe}\n".encode())
        answers = [decode(idle_stream.readline().decode()) for _ in range(2)]
        assert [(a.kind, a.correlation_id) for a in answers] == [
            ("result", "c-1"), ("result", "c-2"),
        ]
        # from here on the idle client reads nothing until the cycles are done
        client = connect_tcp(("127.0.0.1", server.port))
        client.hello()
        client.command(lrid, "Reset")
        for cycle in range(10_000):
            client.write(lrid, {"depth": 5 + cycle % 20})
            client.command(lrid, "Start")
            client.command(lrid, "Reset")
        rest = idle_stream.read()  # to EOF: the server has closed the idle session
    finally:
        if client is not None:
            client.close()
        idle_stream.close()
        idle.close()
        server.close()
    *lines, cut = rest.split(b"\n")  # the last line may be cut short by the close
    events = [decode(line.decode()) for line in lines]
    assert len(events) > 2
    assert {event.kind for event in events} == {"event"}
    assert [event.seq for event in events] == list(range(1, len(events) + 1))
    assert len(cut) < max(map(len, lines))


def test_server_close_ends_open_connections(monkeypatch):
    host, lrid = make_host()
    server = serve(host, ("127.0.0.1", 0))
    client = connect_tcp(("127.0.0.1", server.port))
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 2)
    try:
        client.hello()
        server.close()
        started = time.monotonic()
        with pytest.raises(ConnectionLostError):
            client.read(lrid)
        assert time.monotonic() - started < 1
    finally:
        client.close()
        server.close()


def _threads_of(port: int) -> list[str]:
    """Names of the live csskit threads that serve or read ``port``."""
    return sorted(
        thread.name.rsplit("-", 1)[0]
        for thread in threading.enumerate()
        if thread.name.startswith("css-") and thread.name.endswith(f"-{port}")
    )


def test_connection_threads_are_named_and_end_with_the_server():
    host, _ = make_host()
    server = serve(host, ("127.0.0.1", 0))
    clients = [connect_tcp(("127.0.0.1", server.port)) for _ in range(4)]
    try:
        for client in clients:
            client.hello()
        assert _threads_of(server.port) == [
            "css-accept", *["css-conn"] * 4, *["css-reader"] * 4, *["css-writer"] * 4,
        ]
        for client in clients[:2]:
            client.close()
        server.close()  # two clients are still connected
        deadline = time.monotonic() + 2
        while _threads_of(server.port) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _threads_of(server.port) == []
    finally:
        for client in clients:
            client.close()
        server.close()


def test_a_peer_that_sends_long_ids_and_never_reads_is_cut_off(monkeypatch):
    """Each response echoes its request's correlationId, so a peer that sends
    long ids and never reads would make the server hold its responses without
    end; the server closes the connection once they pass ``MAX_QUEUED_BYTES``."""
    monkeypatch.setattr(protocol, "MAX_QUEUED_BYTES", 1 << 18)
    host, _ = make_host()
    server = serve(host, ("127.0.0.1", 0))
    peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    peer.connect(("127.0.0.1", server.port))
    peer.sendall(f"{encode(Message('hello', 'c-1', {'version': 'css/1'}))}\n".encode())
    assert decode(peer.makefile("rb").readline().decode()).kind == "result"
    assert "css-writer" in _threads_of(server.port)
    hello = f"{encode(Message('hello', 'c' * (1 << 16), {'version': 'css/1'}))}\n".encode()
    sent = []

    def send_hellos():
        # 1,024 responses of 64 KiB would be 64 MiB held for this one peer;
        # once the server closes, a send fails or waits until the shutdown below
        with contextlib.suppress(OSError):
            for _ in range(1024):
                peer.sendall(hello)
                sent.append(1)

    sender = threading.Thread(target=send_hellos, daemon=True)
    sender.start()
    try:
        deadline = time.monotonic() + 5
        while _threads_of(server.port) != ["css-accept"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _threads_of(server.port) == ["css-accept"]  # the connection's threads ended
        assert len(sent) < 1024
    finally:
        with contextlib.suppress(OSError):
            peer.shutdown(socket.SHUT_RDWR)
        sender.join(timeout=5)
        peer.close()
        server.close()


def test_connection_loss_ends_the_event_stream_after_delivered_events(monkeypatch):
    client = SkillClient(send_line=lambda line: None)
    for seq in (1, 2):
        client.feed_line(encode(Message("event", "", {"newState": "Idle"}, seq=seq)))
    client.connection_lost("unplugged (injected)")
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    assert [client.next_event().seq for _ in range(2)] == [1, 2]
    for _ in range(2):  # every later call fails at once
        started = time.monotonic()
        with pytest.raises(ConnectionLostError, match="unplugged"):
            client.next_event()
        assert time.monotonic() - started < 0.5


def test_dropped_events_leave_the_connection_lost_marker(monkeypatch):
    client = SkillClient(send_line=lambda line: None)
    for seq in (1, 2):
        client.feed_line(encode(Message("event", "", {"newState": "Idle"}, seq=seq)))
    client.drop_events()
    assert_silent(client.next_event, monkeypatch)
    client.feed_line(encode(Message("event", "", {"newState": "Idle"}, seq=3)))
    client.connection_lost("unplugged (injected)")
    client.drop_events()
    with pytest.raises(ConnectionLostError, match="unplugged"):
        client.next_event()


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_an_escaped_lone_surrogate_correlation_id_is_answered(transport):
    """JSON can escape a lone surrogate that UTF-8 cannot carry; the response
    escapes it again instead of failing to encode."""
    host, _ = make_host()
    with _wire(transport, host) as wire:
        (answer,) = wire.exchange(b'{"correlationId": "\\ud800", "kind": "hello", "payload": {}}')
        assert (answer.kind, answer.correlation_id) == ("result", "\ud800")
        _assert_alive(wire)


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_closed_client_no_longer_commands_its_host(transport):
    host, lrid = make_host()
    with _connected(transport, host) as client:
        client.hello()
        client.close()
        with pytest.raises(ConnectionLostError):
            client.command(lrid, "Reset")
        assert host.read_skill(lrid).state == "Stopped"


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_lone_surrogate_in_a_payload_is_answered_as_a_type_mismatch(
    transport, monkeypatch
):
    """The request carries the surrogate as its JSON escape, so the server
    reads it, and the same client goes on working."""
    monkeypatch.setattr(protocol, "DEFAULT_TIMEOUT", 1)
    host, lrid = make_host()
    with _connected(transport, host) as client:
        client.hello()
        started = time.monotonic()
        with pytest.raises(RemoteError) as excinfo:
            client.write(lrid, {"depth": "\ud800"})
        assert excinfo.value.remote_code == "TypeMismatch"
        assert time.monotonic() - started < 0.5
        assert client._pending == {}
        assert client.hello()["version"] == "css/1"


def _scripted_session(client, lrid) -> list[str]:
    """A fixed request sequence; returns rendered result/error payloads."""
    outcomes: list[str] = []

    def record(call):
        try:
            payload = call()
            outcomes.append(jsonio.dumps({"result": payload}))
        except RemoteError as exc:
            outcomes.append(
                jsonio.dumps({"error": {"code": exc.remote_code}})
            )

    record(client.hello)
    record(client.list_skills)
    record(lambda: client.describe(lrid))
    record(lambda: client.read(lrid))
    record(lambda: client.write(lrid, {"depth": 12}))
    record(lambda: client.command(lrid, "Start"))  # invalid from Stopped
    record(lambda: client.command(lrid, "Reset"))
    record(lambda: client.write(lrid, {"depth": 13}))
    record(lambda: client.feasibility(lrid, {"depth": 40}))
    record(lambda: client.feasibility(lrid, {"depth": 13}))
    record(lambda: client.subscribe(lrid))
    record(lambda: client.command(lrid, "Start"))
    record(lambda: client.read(lrid))
    record(lambda: client.command(lrid, "Hold"))  # invalid in Complete
    record(lambda: client.command(lrid, "Reset"))
    record(lambda: client.read("lr-0404"))
    record(lambda: client.write(lrid, {"speed": 1}))
    record(lambda: client.subscribe(lrid, enable=False))
    for depth in range(5, 15):
        record(lambda d=depth: client.write(lrid, {"depth": d}))
        record(lambda: client.command(lrid, "Start"))
        record(lambda: client.read(lrid))
        record(lambda: client.command(lrid, "Reset"))
    return outcomes


def test_transport_equivalence_scripted():
    host_a, lrid_a = make_host()
    loop_client = connect_loopback(host_a)
    loopback_outcomes = _scripted_session(loop_client, lrid_a)
    loop_client.close()

    host_b, lrid_b = make_host()
    server = serve(host_b, ("127.0.0.1", 0))
    tcp_client = connect_tcp(("127.0.0.1", server.port))
    try:
        tcp_outcomes = _scripted_session(tcp_client, lrid_b)
    finally:
        tcp_client.close()
        server.close()

    assert len(loopback_outcomes) >= 50
    assert "\n".join(loopback_outcomes).encode() == "\n".join(tcp_outcomes).encode()


def test_tcp_concurrent_clients_stress():
    """Several clients hammer one host in parallel; every request gets its
    response and per-connection event streams stay gap-free."""
    import threading

    host = SkillHost("r-stress")
    lrids = [
        host.register_skill(drill_descriptor(f"skill-{i}"), DrillBehavior())
        for i in range(4)
    ]
    server = serve(host, ("127.0.0.1", 0))
    errors: list[Exception] = []

    def worker(lrid: str) -> None:
        try:
            client = connect_tcp(("127.0.0.1", server.port))
            try:
                client.hello()
                client.subscribe(lrid)
                for _ in range(25):
                    client.command(lrid, "Reset")
                    client.write(lrid, {"depth": 7})
                    client.command(lrid, "Start")
                events = [client.next_event() for _ in range(25 * 6)]
                seqs = [e.seq for e in events]
                assert seqs == list(range(1, len(seqs) + 1))
                states = [e.payload["newState"] for e in events]
                assert states[:6] == [
                    "Resetting", "Idle", "Starting", "Execute",
                    "Completing", "Complete",
                ]
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(lrid,)) for lrid in lrids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    server.close()
    assert not errors, errors


def test_tcp_writers_keep_every_line_in_order_under_thread_switching():
    """Four clients, all subscribed to every skill, cycle their own skill at
    once while threads switch as often as the interpreter allows. Every
    connection gets every event, in the order the host made them, with a
    gap-free seq, and every request gets its response."""
    host = SkillHost("r-switch")
    lrids = [
        host.register_skill(drill_descriptor(f"skill-{i}"), DrillBehavior())
        for i in range(4)
    ]
    truth: list = []
    host.add_listener(truth.append)
    server = serve(host, ("127.0.0.1", 0))
    subscribed, cycled = threading.Barrier(len(lrids)), threading.Barrier(len(lrids))
    seen: dict[str, list] = {}
    errors: list[Exception] = []

    def worker(lrid: str) -> None:
        client = connect_tcp(("127.0.0.1", server.port))
        try:
            client.hello()
            for other in lrids:
                client.subscribe(other)
            subscribed.wait(timeout=10)
            for _ in range(15):
                assert client.command(lrid, "Reset")["newState"] == "Resetting"
                assert client.command(lrid, "Start")["newState"] == "Starting"
            cycled.wait(timeout=10)
            seen[lrid] = [client.next_event() for _ in range(len(truth))]
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            errors.append(exc)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(lrid,)) for lrid in lrids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    made = [(event.local_runtime_id, event.seq) for event in truth]
    assert len(made) == 4 * 15 * 6
    for events in seen.values():
        assert [e.seq for e in events] == list(range(1, len(made) + 1))
        assert [
            (e.payload["localRuntimeId"], e.payload["instanceSeq"]) for e in events
        ] == made


# --- fuzz: exactly one response per correlationId -------------------------------------

def test_fuzzed_requests_get_exactly_one_response_each():
    host, lrid = make_host()
    responses: list[Message] = []
    session = ServerSession(host, "fuzz", lambda line: responses.append(decode(line)))
    rng = random.Random(99)

    requests = [("hello", {"version": "css/1"})]
    for _ in range(2000):
        requests.append(
            rng.choice(
                [
                    ("list_skills", {}),
                    ("describe", {"localRuntimeId": lrid}),
                    ("read", {"localRuntimeId": lrid}),
                    ("read", {"localRuntimeId": "lr-0404"}),
                    ("write", {"localRuntimeId": lrid, "values": {"depth": rng.randint(0, 30)}}),
                    ("command", {"localRuntimeId": lrid, "command": rng.choice(
                        ["Reset", "Start", "Stop", "Abort", "Clear", "Hold"])}),
                    ("feasibility", {"localRuntimeId": lrid, "inputs": {"depth": rng.randint(0, 40)}}),
                    ("subscribe", {"localRuntimeId": lrid, "enable": rng.random() < 0.5}),
                ]
            )
        )
    for index, (kind, payload) in enumerate(requests):
        session.handle_line(encode(Message(kind, f"c-{index:06d}", payload)))
    session.close()

    replies = [m for m in responses if m.kind in ("result", "error")]
    by_correlation: dict[str, int] = {}
    for message in replies:
        by_correlation[message.correlation_id] = (
            by_correlation.get(message.correlation_id, 0) + 1
        )
    assert len(by_correlation) == len(requests)
    assert all(count == 1 for count in by_correlation.values())
