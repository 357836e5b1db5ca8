"""Line-delimited skill interface over TCP and in-process transports.

Wire format: one UTF-8 JSON object per LF-terminated line with the fields
``kind``, ``correlationId``, ``payload`` and (events only) ``seq``. Every line
a server reads gets exactly one ``result`` or ``error``, with the request's
correlationId (for a refused line, see below). Connections handshake with
``hello`` (protocol version "css/1"); state-change events flow only after a
``subscribe`` request and carry a per-connection gap-free ``seq``. Every line
either end writes is valid UTF-8: ``encode`` writes each lone surrogate in a
string as its ``\\uXXXX`` escape, so a high surrogate directly followed by a
low one reads back as one astral character.

Responses leave in request order; an event that a request caused may leave
before that request's response. A session never waits for its peer: each TCP
connection queues its output for one writer thread, and a line that would
take the bytes waiting past ``MAX_QUEUED_BYTES`` (the peer stopped reading)
closes the connection instead.

Both transports share the same server session logic, so a scripted request
sequence produces identical result payloads in-process and over TCP.
A client waits at most ``DEFAULT_TIMEOUT`` seconds for each response or
event; every wait reads the constant when it starts. Once the transport
closes, or ``close()`` ends the client on either transport, every pending and
later request raises ``ConnectionLostError``, and ``next_event`` returns the
events received before, then raises it. Each request waits on its own
``queue.SimpleQueue``, and events queue on one more, so a round trip builds
no locks or conditions of its own. Request methods raise ``BadResponseError``
for an answer that lacks a field their callers read, or holds it with another
JSON type (``checked``).
Both ends of a TCP connection read lines through ``_lines``, the server up to
``MAX_LINE_BYTES``, the client up to ``MAX_QUEUED_BYTES``. The server answers a
longer line, or one ``decode`` refuses, with one ``ParseError`` under the id
``_refused_line_id`` reads; the client drops any response no request waits for.
"""

from __future__ import annotations

import contextlib
import itertools
import queue
import socket
import threading
from dataclasses import dataclass, field

from . import jsonio
from .errors import (
    BadResponseError,
    BindFailureError,
    ConnectionLostError,
    CssError,
    ParseError,
    RemoteError,
    TimeoutError,
)
from .skills import SkillEvent, SkillHost

PROTOCOL_VERSION = "css/1"
DEFAULT_TIMEOUT = 5.0
#: longest request line a server reads, in UTF-8 bytes without the LF
MAX_LINE_BYTES = 1 << 20
#: most output bytes a TCP connection holds for its peer; a line past it closes it
MAX_QUEUED_BYTES = 4 * MAX_LINE_BYTES

REQUEST_KINDS = (
    "hello", "list_skills", "describe", "read", "write", "command",
    "feasibility", "subscribe",
)
SERVER_KINDS = ("result", "error", "event")
MESSAGE_KINDS = REQUEST_KINDS + SERVER_KINDS


@dataclass(frozen=True)
class Message:
    kind: str
    correlation_id: str = ""
    payload: dict = field(default_factory=dict)
    seq: int | None = None


def encode(msg: Message) -> str:
    """One message as a single JSON line (without the trailing LF) that is
    valid UTF-8: each lone surrogate is written as its ``\\uXXXX`` escape."""
    obj = {
        "kind": msg.kind,
        "correlationId": msg.correlation_id,
        "payload": msg.payload,
    }
    if msg.seq is not None:
        obj["seq"] = msg.seq
    return jsonio.dumps_utf8(obj)


def decode(line: str) -> Message:
    """The message one line holds; lone surrogates (bytes not UTF-8) refuse it."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("line is not valid UTF-8") from None
    data = jsonio.loads(line)
    if not isinstance(data, dict):
        raise ParseError("message line must be a single object")
    unknown = sorted(set(data) - {"kind", "correlationId", "payload", "seq"})
    if unknown:
        raise ParseError(f"unknown message fields {unknown}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in MESSAGE_KINDS:
        raise ParseError("message kind is missing or unknown")
    correlation_id = data.get("correlationId", "")
    if not isinstance(correlation_id, str):
        raise ParseError("correlationId must be a string")
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        raise ParseError("payload must be an object")
    seq = data.get("seq")
    if seq is not None and type(seq) is not int:  # bool is an int subclass
        raise ParseError("seq must be an integer")
    return Message(kind=kind, correlation_id=correlation_id, payload=payload, seq=seq)


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

class _BadRequest(CssError):
    code = "BadRequest"


class _HelloRequired(CssError):
    code = "HelloRequired"


class _UnsupportedVersion(CssError):
    code = "UnsupportedVersion"


def _error_line(correlation_id: str, code: str, message: str) -> str:
    return encode(Message("error", correlation_id, {"code": code, "message": message}))


def _refused_line_id(line: str) -> str:
    """The correlationId that answers a line ``decode`` refuses: the line's own
    when it is valid UTF-8 and a JSON object holding exactly one string
    ``correlationId``, else "". No number is converted, whatever its size."""
    with contextlib.suppress(ValueError):  # UnicodeError is a ValueError
        line.encode("utf-8")
        ids = [v for k, v in jsonio.pairs_without_numbers(line) if k == "correlationId"]
        if len(ids) == 1 and isinstance(ids[0], str):
            return ids[0]
    return ""


class ServerSession:
    """Per-connection request dispatch plus subscription event fan-out.

    Each response and event line goes to ``send_line``, which must not block,
    as soon as it exists: an event can precede its request's response.
    """

    def __init__(self, host: SkillHost, name: str, send_line):
        self.host = host
        self.name = name
        self._send_line = send_line
        self._lock = threading.Lock()  # orders seq and guards the subscriptions
        self._subscriptions: set[str] = set()
        self._seq = itertools.count(1)
        self._hello_done = False
        host.add_listener(self._on_event)

    def close(self) -> None:
        self.host.remove_listener(self._on_event)

    def _on_event(self, event: SkillEvent) -> None:
        with self._lock:
            if event.local_runtime_id not in self._subscriptions:
                return
            payload = {
                "localRuntimeId": event.local_runtime_id,
                "previousState": event.previous_state,
                "newState": event.new_state,
                "instanceSeq": event.seq,
            }
            self._send_line(encode(Message("event", "", payload, next(self._seq))))

    def handle_line(self, line: str) -> None:
        try:
            response = self._respond(line)
        except Exception as exc:  # noqa: BLE001 - every line is owed one response
            response = _error_line("", "InternalError", str(exc))
        self._send_line(response)

    def _respond(self, line: str) -> str:
        if len(line.encode("utf-8", "surrogatepass")) > MAX_LINE_BYTES:
            return _error_line("", ParseError.code, f"line exceeds {MAX_LINE_BYTES} bytes")
        try:
            request = decode(line)
        except ParseError as exc:
            return _error_line(_refused_line_id(line), exc.code, exc.message)
        try:
            if request.kind not in REQUEST_KINDS:
                raise _BadRequest(f"{request.kind} is not a request kind")
            payload = self._dispatch(request)
            return encode(Message("result", request.correlation_id, payload))
        except CssError as exc:
            return _error_line(request.correlation_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - behavior bugs, unencodable results
            return _error_line(request.correlation_id, "InternalError", str(exc))

    def _dispatch(self, request: Message) -> dict:
        if request.kind == "hello":
            version = request.payload.get("version", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise _UnsupportedVersion(f"server speaks {PROTOCOL_VERSION}")
            self._hello_done = True
            return {"serverName": self.name, "version": PROTOCOL_VERSION}
        if not self._hello_done:
            raise _HelloRequired("send hello before other requests")

        if request.kind == "list_skills":
            skills = []
            for local_runtime_id in self.host.local_runtime_ids():
                snapshot = self.host.read_skill(local_runtime_id)
                skills.append(
                    {
                        "localRuntimeId": local_runtime_id,
                        "skillId": snapshot.descriptor.skill_id,
                        "name": snapshot.descriptor.name,
                        "state": snapshot.state,
                    }
                )
            return {"skills": skills}

        local_runtime_id = self._require_str(request, "localRuntimeId")
        if request.kind == "describe":
            descriptor = self.host.read_skill(local_runtime_id).descriptor
            return {
                "localRuntimeId": local_runtime_id,
                "skillId": descriptor.skill_id,
                "name": descriptor.name,
                "capabilityRef": descriptor.capability_ref,
                "parameters": [
                    {
                        "paramId": spec.param_id,
                        "direction": spec.direction,
                        "datatype": spec.datatype,
                        "unit": spec.unit,
                        "default": spec.default,
                    }
                    for spec in descriptor.parameters
                ],
                "hasFeasibilityCheck": descriptor.has_feasibility_check,
                "hasPreconditionCheck": descriptor.has_precondition_check,
                "stateMachineProfile": descriptor.state_machine_profile,
            }
        if request.kind == "read":
            snapshot = self.host.read_skill(local_runtime_id)
            return {
                "localRuntimeId": local_runtime_id,
                "state": snapshot.state,
                "inputValues": snapshot.input_values,
                "outputValues": snapshot.output_values,
                "lastError": snapshot.last_error,
            }
        if request.kind == "write":
            values = request.payload.get("values")
            if not isinstance(values, dict):
                raise _BadRequest("write requires an object field 'values'")
            written = self.host.write_parameters(local_runtime_id, values)
            return {"written": list(written)}
        if request.kind == "command":
            command = self._require_str(request, "command")
            new_state = self.host.fire_command(local_runtime_id, command)
            return {"localRuntimeId": local_runtime_id, "newState": new_state}
        if request.kind == "feasibility":
            inputs = request.payload.get("inputs", {})
            if not isinstance(inputs, dict):
                raise _BadRequest("feasibility requires an object field 'inputs'")
            result = self.host.check_feasibility(local_runtime_id, inputs)
            return {
                "feasible": result.feasible,
                "reason": result.reason,
                "estimates": dict(result.estimates),
            }
        if request.kind == "subscribe":
            enable = request.payload.get("enable", True)
            if not isinstance(enable, bool):
                raise _BadRequest("subscribe field 'enable' must be a boolean")
            self.host.read_skill(local_runtime_id)  # UnknownSkill check
            with self._lock:
                if enable:
                    self._subscriptions.add(local_runtime_id)
                else:
                    self._subscriptions.discard(local_runtime_id)
            return {"localRuntimeId": local_runtime_id, "subscribed": enable}
        raise _BadRequest(f"unhandled request kind {request.kind}")

    @staticmethod
    def _require_str(request: Message, key: str) -> str:
        value = request.payload.get(key)
        if not isinstance(value, str) or not value:
            raise _BadRequest(f"{request.kind} requires a string field {key!r}")
        return value


class ProtocolServer:
    """TCP server handle; each connection has a reader and a writer thread."""

    def __init__(self, host: SkillHost, endpoint):
        address = _as_address(endpoint)
        self.host = host
        try:
            self._sock = socket.create_server(address)  # closes the socket if it fails
        except OSError as exc:
            raise BindFailureError(f"cannot bind {address}: {exc}") from exc
        self.port = self._sock.getsockname()[1]
        self._closing = False
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"css-accept-{self.port}", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"css-conn-{self.port}", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        outbound = _Outbound(conn)
        threading.Thread(
            target=outbound.write, name=f"css-writer-{self.port}", daemon=True
        ).start()
        session = ServerSession(self.host, self.host.name, outbound.send_line)
        try:
            # no Nagle: a lone small line must not wait for the peer's delayed ACK
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # the session answers an over-long line, cut by _lines, with ParseError
            for line in _lines(conn, MAX_LINE_BYTES):
                session.handle_line(line)
        except OSError:
            pass
        finally:
            session.close()
            outbound.close()  # the writer sends what is queued, then closes conn
            with self._conns_lock:
                self._conns.discard(conn)

    def close(self) -> None:
        """Stop accepting, and end every open connection."""
        self._closing = True
        _shutdown(self._sock)  # wakes the blocked accept
        with contextlib.suppress(OSError):
            self._sock.close()
        self._accept_thread.join(timeout=2.0)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            _shutdown(conn)  # its reader reads EOF, and its writer's send fails


class _Outbound:
    """A TCP connection's output: lines wait in one queue for one writer thread.

    At most ``MAX_QUEUED_BYTES`` wait or are being sent; a line that would pass
    that bound shuts the connection down instead of waiting for the peer.
    """

    def __init__(self, conn: socket.socket):
        self._conn = conn
        self._lines: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()  # guards _unsent
        self._unsent = 0

    def send_line(self, line: str) -> None:
        data = f"{line}\n".encode("utf-8")
        with self._lock:
            self._unsent += len(data)
            fits = self._unsent <= MAX_QUEUED_BYTES
        if fits:
            self._lines.put(data)
        else:  # the peer has stopped reading: end the connection
            _shutdown(self._conn)

    def close(self) -> None:
        """Let the writer send what is queued, then close the connection."""
        self._lines.put(None)

    def write(self) -> None:
        """Send what is queued, one ``sendall`` per batch, until closed or a send fails."""
        batch: list[bytes | None] = []
        with contextlib.suppress(OSError):
            while None not in batch:
                batch = [self._lines.get()]
                while not self._lines.empty():  # this thread is the only taker
                    batch.append(self._lines.get())
                data = b"".join(line for line in batch if line is not None)
                self._conn.sendall(data)
                with self._lock:
                    self._unsent -= len(data)
        _shutdown(self._conn)
        self._conn.close()


def _lines(sock: socket.socket, limit: int):
    """The lines ``sock`` reads until EOF, without their LF; a line over
    ``limit`` bytes is cut after ``limit + 1`` and its rest skipped unheld.
    Bytes that are not UTF-8 become lone surrogates, which ``decode`` refuses."""
    with sock.makefile("rb") as reader:
        while raw := reader.readline(limit + 1):
            line = raw.rstrip(b"\n")
            while len(line) > limit and raw and not raw.endswith(b"\n"):
                raw = reader.readline(limit + 1)
            yield line.decode("utf-8", "surrogateescape")


def _shutdown(sock: socket.socket) -> None:
    """End both directions of ``sock``, waking every thread blocked on it."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


def serve(host: SkillHost, endpoint) -> ProtocolServer:
    """Bind and start serving a skill host; returns the running server handle."""
    return ProtocolServer(host, endpoint)


def _as_address(endpoint) -> tuple[str, int]:
    """A ``"host:port"`` string or a ``(host, port)`` pair as a socket address."""
    if isinstance(endpoint, str):
        host_part, _, port_part = endpoint.rpartition(":")
        return (host_part or "127.0.0.1", int(port_part))
    return (endpoint[0], int(endpoint[1]))


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

#: how a request fails: an error or malformed answer, no answer in time, a lost transport
FAILED_REQUEST = (RemoteError, BadResponseError, TimeoutError, ConnectionLostError)

_JSON_TYPES = {str: "string", bool: "boolean", list: "list", dict: "object"}


def checked(answer, what: str, **fields: type) -> dict:
    """``answer`` if it is an object in which each of ``fields`` has its type,
    else ``BadResponseError`` naming the first that is missing or of another type."""
    if not isinstance(answer, dict):
        raise BadResponseError(f"{what} is not an object")
    for key, type_ in fields.items():
        if not isinstance(answer.get(key), type_):
            raise BadResponseError(f"{what} has no {_JSON_TYPES[type_]} field {key!r}")
    return answer


class SkillClient:
    """Protocol client with blocking request/response and an event queue.

    Works identically over the in-process loopback and TCP transports.
    """

    def __init__(self, send_line, on_close=None):
        self._send_line = send_line
        self._on_close = on_close
        self._corr = itertools.count(1)
        self._pending: dict[str, queue.SimpleQueue] = {}
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._lost: str | None = None  # why the client closed or lost its transport

    # -- plumbing ---------------------------------------------------------

    def feed_line(self, line: str) -> None:
        """Deliver one raw line from the transport. A line that is no message,
        and a response that no request waits for, are dropped."""
        try:
            msg = decode(line)
        except ParseError:
            return
        if msg.kind == "event":
            self._events.put(msg)
        elif msg.kind in ("result", "error"):
            with self._lock:
                waiter = self._pending.pop(msg.correlation_id, None)
            if waiter is not None:
                waiter.put(msg)

    def connection_lost(self, reason: str) -> None:
        """The transport closed: fail every pending and every later request, and
        every wait for an event once the events received are taken, all with
        the first reason given."""
        with self._lock:
            if self._lost is None:
                self._lost = reason
            waiters = list(self._pending.values())
            self._pending.clear()
        for waiter in waiters:
            waiter.put(None)
        self._events.put(None)

    def close(self) -> None:
        """End this client on either transport: its connection is lost, so
        every pending and every later request raises ``ConnectionLostError``."""
        self.connection_lost("client closed")
        if self._on_close is not None:
            self._on_close()

    # -- requests ----------------------------------------------------------

    def invoke(self, kind: str, payload: dict | None = None) -> dict:
        """Send one request and wait up to ``DEFAULT_TIMEOUT``, as it is when
        called, for its response."""
        correlation_id = f"c-{next(self._corr):06d}"
        waiter: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._lost is not None:
                raise ConnectionLostError(self._lost)
            self._pending[correlation_id] = waiter
        try:
            self._send_line(encode(Message(kind, correlation_id, payload or {})))
            msg = _next(waiter, f"response to {kind}")
        except OSError as exc:
            raise ConnectionLostError(str(exc)) from exc
        finally:
            with self._lock:
                self._pending.pop(correlation_id, None)
        if msg is None:
            raise ConnectionLostError(self._lost)
        if msg.kind == "error":
            raise RemoteError(
                str(msg.payload.get("code", "Error")),
                str(msg.payload.get("message", "")),
            )
        return msg.payload

    def next_event(self) -> Message:
        event = _next(self._events, "event")
        if event is None:  # the transport closed after the events before it
            self._events.put(None)
            raise ConnectionLostError(self._lost)
        return event

    def drop_events(self) -> None:
        """Drop the events not yet taken, but not a lost connection's marker."""
        with contextlib.suppress(queue.Empty):
            while self._events.get_nowait() is not None:
                pass
            self._events.put(None)

    # -- conveniences -------------------------------------------------------

    def hello(self) -> dict:
        return self.invoke("hello", {"version": PROTOCOL_VERSION})

    def list_skills(self) -> list[dict]:
        """The server's skills, each an object with string ``skillId`` and ``localRuntimeId``."""
        skills = checked(self.invoke("list_skills", {}), "list_skills answer", skills=list)
        for i, item in enumerate(skills["skills"]):
            checked(item, f"list_skills answer skills[{i}]", skillId=str, localRuntimeId=str)
        return skills["skills"]

    def describe(self, local_runtime_id: str) -> dict:
        return self.invoke("describe", {"localRuntimeId": local_runtime_id})

    def read(self, local_runtime_id: str) -> dict:
        answer = self.invoke("read", {"localRuntimeId": local_runtime_id})
        return checked(answer, "read answer", state=str, outputValues=dict)

    def write(self, local_runtime_id: str, values: dict) -> dict:
        return self.invoke(
            "write", {"localRuntimeId": local_runtime_id, "values": values}
        )

    def command(self, local_runtime_id: str, command: str) -> dict:
        return self.invoke(
            "command", {"localRuntimeId": local_runtime_id, "command": command}
        )

    def feasibility(self, local_runtime_id: str, inputs: dict) -> dict:
        answer = self.invoke("feasibility", {"localRuntimeId": local_runtime_id, "inputs": inputs})
        return checked(answer, "feasibility answer", feasible=bool)

    def subscribe(self, local_runtime_id: str, enable: bool = True) -> dict:
        return self.invoke(
            "subscribe",
            {"localRuntimeId": local_runtime_id, "enable": enable},
        )


def _next(messages: queue.SimpleQueue, what: str) -> Message:
    """The next queued message, waiting up to ``DEFAULT_TIMEOUT`` as it is now."""
    try:
        return messages.get(timeout=DEFAULT_TIMEOUT)
    except queue.Empty:
        raise TimeoutError(f"no {what} within {DEFAULT_TIMEOUT} s") from None


def connect_loopback(host: SkillHost) -> SkillClient:
    """In-process transport: each request is handled on the caller's thread,
    and its response and events are fed straight back to the client.
    ``close()`` detaches the session from the host."""
    client = SkillClient(send_line=None)
    session = ServerSession(host, host.name, client.feed_line)
    client._send_line, client._on_close = session.handle_line, session.close
    return client


def connect_tcp(address) -> SkillClient:
    """TCP transport with a background reader thread."""
    addr = _as_address(address)
    try:
        sock = socket.create_connection(addr, timeout=DEFAULT_TIMEOUT)
    except OSError as exc:
        raise ConnectionLostError(f"cannot connect to {addr}: {exc}") from exc
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()

    def send_line(line: str) -> None:
        with send_lock:
            sock.sendall((line + "\n").encode("utf-8"))

    def on_close() -> None:
        _shutdown(sock)
        sock.close()

    client = SkillClient(send_line=send_line, on_close=on_close)

    def reader() -> None:
        with contextlib.suppress(OSError):
            for line in _lines(sock, MAX_QUEUED_BYTES):  # no css/1 server sends longer
                client.feed_line(line)
        client.connection_lost(f"connection to {addr} closed")

    threading.Thread(target=reader, name=f"css-reader-{addr[1]}", daemon=True).start()
    return client
