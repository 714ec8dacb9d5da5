"""Perception/control bridge between the simulator and a driving agent.

Wire protocol (both directions): a 4-byte big-endian unsigned length prefix
followed by that many bytes of UTF-8 canonical JSON.  Bodies::

    {"type": "perception", "sim_time": t, "ego": {...}, "obstacles": [...]}
    {"type": "control", "sim_time": t, "throttle": f, "brake": f, "steering": f}

Every frame must equal ``canonical.dump_bytes`` of its body's document byte
for byte (``tests/test_bridge.py`` keeps the dict-building encoder and the
original decoder checks as the reference).  Only the layouts that run
hundreds of times per evaluation are written by shape, their keys laid out
in sorted order: the perception frame, a recording's frames (in
``runner``), and a fresh exact ``ActorState`` whose five moving fields are
floats with a finite sum, none integral.  That actor is written in one
``%`` format call with ``%.17g`` at those keys: the routine behind
``format(v, ".17g")``, and 17 significant digits of a non-integral value
always hold a "." or an "e", so it is ``dump_value``'s text.  Those floats
never come back, so writing them past the float memo only skips missed
lookups.  The rest, every other actor and a control frame not yet written,
is built as a dict and written by ``canonical.dump_value``, which sorts its
keys, so its bytes and its first fault are the reference's.

Both sides of the codec have one path.  A writer writes each value as it
reads it: :func:`encode` and ``runner.recording_bytes`` write every actor
through :func:`actor_text` as they come to it.  A message or recording with
one fault raises exactly what ``canonical.dump_bytes`` of the reference
raises; with several, the first fault met while writing raises.
:func:`decode` checks an actor's structure once, then takes its seven
numbers at once when all are floats with a finite sum; otherwise it reads
them field by field, converting ints and naming the first bad field.

An actor's text is written once per object: :func:`actor_text` stores the
text of an exact ``ActorState`` in the object's ``_text`` the first time it
writes it, and every later frame or recording holding that object reuses it.
The fields are frozen and the text is a pure function of them, so the bytes
cannot move; a write that raises stores nothing, so it raises again.
Subclasses and duck-typed actors are written afresh every time.  A control
frame is written once per object the same way: :func:`encode` keeps the
frame of an exact ``ControlMessage`` with an exact ``ControlCommand`` and a
``float`` time in the message's ``_frame`` slot.

The session is lockstep: the runner sends one perception frame and blocks for
exactly one control frame.  The in-process transport encodes both frames, so
a message the wire cannot carry fails as it would over TCP, but it hands the
agent the simulator's own frozen message and returns an exact
``ControlMessage`` reply as it is; any other reply is decoded from its frame.
Decoding a simulator-built frame gives back equal values, so the two
transports produce identical traces for a deterministic agent.

:class:`BridgeServer` is ``socketserver.ThreadingTCPServer``: a connection
runs until its peer closes, a frame fails, the agent faults (logged with
its traceback) or ``close()`` is called, which refuses new connections and
ends open ones after at most their next frame.

The reference agent's tuning is fixed in module constants, ``CORRIDOR_LENGTH``
through ``LAT_ACCEL_MAX``; :class:`AgentSettings` holds only what a campaign
sets.  Its speed tracking is ``simulator.SpeedController`` (constant gains).

The agent's route guidance, :func:`route_guidance` (the projection onto the
route, the off-route distance, the pure-pursuit steering and the speed
target), is kept on the ego state.  The step memo hands back the same
``ActorState`` objects along the ego's repeated trajectory (see
``simulator``), so an exact ``ActorState`` on an exact ``Polyline`` keeps
``(route, cruise_speed, guidance, lateral)`` in its ``_guide`` slot: the
route and cruise-speed objects the guidance was computed for, the guidance,
and the signed lateral offset of the same ``route.project`` call.  It gives
the guidance back while both objects are the same, and
:func:`route_lateral` gives the offset back to search feedback
(``engine.feedback``) while the route is the same object.  A state's fields
are frozen, so what the slot holds for the same route and cruise-speed
objects cannot change; the slot is written with one dict store, so threads
that race on a state store equal values; and the step memo's
``STEP_MEMO_LIMIT`` bounds the shared states, and with them their slots.
The obstacle corridor and the off-route warning read the obstacles or keep
state, so they run in ``ReferenceEgoAgent.step`` on every call.

The speed-tracking reply is kept on the ego state as well, in its
``_reply`` slot: ``(route, cruise_speed, dt, sim_time, integral_in,
prev_error_in, reply, integral_out, prev_error_out)``.  An exact
``ActorState`` with an exact ``SpeedController`` fills it at the pedal call,
the one branch whose reply reads the controller.  That reply is a function
of the state, the route and cruise-speed objects, ``dt``, the time and the
controller's ``integral`` and ``prev_error``; the controller belongs to the
agent, so the slot is keyed on its values, not on the step before.  A later
call with the same route and cruise-speed objects, and a ``dt``, time,
``integral`` and ``prev_error`` equal to the kept ones, sets the controller
to the kept outputs and returns the kept ``ControlMessage`` itself.  Those
four are read and stored only when each is a non-zero ``float``, and equal
non-zero floats have equal bits, so a hit has the inputs of the stored
call bit for bit.  The message's frame is already in its ``_frame`` slot,
and its command takes the ego's ``_next`` slot (see ``simulator``) to the
next state.  Threads share replies as they share guidance, one dict store
of a frozen message each.  ``tests/test_bridge.py`` checks guidance and
replies against the old ``step`` kept in ``tests/oracles.py`` (the
``test_guide_memo_*`` and ``test_reply_memo_*`` tests).
"""

from __future__ import annotations

import logging
import math
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from . import canonical
from .canonical import dump_value, finite_number
from .geometry import MAX_COORDINATE, Polyline, normalize_angle
from .simulator import (ActorState, ControlCommand, SpeedController,
                        pure_pursuit_steering)

log = logging.getLogger(__name__)

HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_TIMEOUT_S = 5.0

# reference agent tuning
CORRIDOR_LENGTH = 25.0   # m, how far ahead obstacles are braked for
CORRIDOR_MARGIN = 1.0    # m, added to ego width
TIME_HEADWAY = 2.0       # s
HARD_STOP_GAP = 6.0      # m
OFF_ROUTE_LIMIT = 20.0   # m
COMFORT_BRAKE = 2.0      # m/s^2, approach-to-stop profile
LAT_ACCEL_MAX = 2.5      # m/s^2, curve slowdown

_isfinite = math.isfinite
_FLOAT = frozenset((float,))


class FrameError(ValueError):
    """Any malformed wire frame: bad length, bad UTF-8, bad JSON, bad schema."""


class AgentTimeoutError(TimeoutError):
    """The agent did not answer a perception frame within the timeout."""


@dataclass(frozen=True, init=False)
class PerceptionMessage:
    sim_time: float
    ego: ActorState
    obstacles: tuple[ActorState, ...]

    def __init__(self, sim_time: float, ego: ActorState,
                 obstacles: tuple[ActorState, ...]) -> None:
        fields = self.__dict__
        fields["sim_time"] = sim_time
        fields["ego"] = ego
        fields["obstacles"] = obstacles


@dataclass(frozen=True, init=False)
class ControlMessage:
    """One control reply.  Besides its fields, every instance holds a
    ``_frame`` slot, ``None`` until :func:`encode` fills it (and always in a
    subclass): the wire frame of an exact message with an exact
    ``ControlCommand`` and a ``float`` time, written once and given back on
    every later encode.  It pays only while the in-process session encodes
    its replies; once that encode is gone the slot is dead in process."""

    sim_time: float
    command: ControlCommand

    def __init__(self, sim_time: float, command: ControlCommand) -> None:
        fields = self.__dict__
        fields["sim_time"] = sim_time
        fields["command"] = command
        fields["_frame"] = None


# ---------------------------------------------------------------------------
# encoding

# An actor's fields in the order they are read; frames are written with their
# keys in sorted order.
_ACTOR_FIELDS = ("actor_id", "kind", "x", "y", "heading", "speed",
                 "acceleration", "length", "width")
_actor_fields = attrgetter(*_ACTOR_FIELDS)
_ACTOR_KEYS = frozenset(_ACTOR_FIELDS)
_NUMBER_KEYS = ("x", "y", "heading", "speed", "acceleration", "length", "width")
_actor_numbers = itemgetter(*_NUMBER_KEYS)
_PERCEPTION_KEYS = frozenset(("type", "sim_time", "ego", "obstacles"))
_CONTROL_KEYS = frozenset(("type", "sim_time", "throttle", "brake", "steering"))
# A fresh state's text when its five moving fields are non-integral finite
# floats (see the module docstring).
_ACTOR_FORMAT = ('{"acceleration":%.17g,"actor_id":%s,"heading":%.17g,'
                 '"kind":%s,"length":%s,"speed":%.17g,"width":%s,'
                 '"x":%.17g,"y":%.17g}')


def actor_text(actor) -> str:
    """Canonical JSON object of one actor.  An exact ``ActorState`` keeps
    the text it is first written with and gives it back from then on; any
    other actor is written afresh."""
    exact = type(actor) is ActorState
    if exact and actor._text is not None:
        return actor._text
    fields = _actor_fields(actor)
    actor_id, kind, x, y, heading, speed, acceleration, length, width = fields
    if (exact and type(x) is type(y) is type(heading) is type(speed)
            is type(acceleration) is float
            and _isfinite(x + y + heading + speed + acceleration)
            and not (x.is_integer() or y.is_integer() or heading.is_integer()
                     or speed.is_integer() or acceleration.is_integer())):
        text = _ACTOR_FORMAT % (acceleration, dump_value(actor_id), heading,
                                dump_value(kind), dump_value(length), speed,
                                dump_value(width), x, y)
    else:
        text = dump_value(dict(zip(_ACTOR_FIELDS, fields)))
    if exact:  # stored once written, so a write that raises stores nothing
        actor.__dict__["_text"] = text
    return text


def _parse_actor(doc, where: str) -> ActorState:
    if not isinstance(doc, dict):
        raise FrameError(f"{where}: expected an object")
    if doc.keys() != _ACTOR_KEYS:
        raise FrameError(f"{where}: wrong keys {sorted(doc)}")
    actor_id, kind = doc["actor_id"], doc["kind"]
    if not isinstance(actor_id, str) or not isinstance(kind, str):
        raise FrameError(f"{where}: actor_id and kind must be strings")
    numbers = _actor_numbers(doc)
    # A sum of floats is finite only if every term is (an overflowing sum
    # just takes the field-by-field reads).
    if set(map(type, numbers)) != _FLOAT or not _isfinite(sum(numbers)):
        numbers = [_require_number(doc, key, where) for key in _NUMBER_KEYS]
    try:
        return ActorState(actor_id, kind, *numbers)
    except ValueError as exc:  # an unknown kind
        raise FrameError(f"{where}: {exc}") from None


def _require_number(doc: dict, key: str, where: str = "") -> float:
    number = doc[key]
    if type(number) is float and _isfinite(number):
        return number
    number = finite_number(number)
    if number is None:
        raise FrameError(f"{where}/{key}: expected a finite number")
    return number


def encode(message: PerceptionMessage | ControlMessage) -> bytes:
    """Serialize a message to a complete length-prefixed wire frame."""
    if isinstance(message, PerceptionMessage):
        sim_time = message.sim_time
        body = ('{"ego":' + actor_text(message.ego) + ',"obstacles":['
                + ",".join([actor_text(o) for o in message.obstacles])
                + '],"sim_time":' + dump_value(sim_time)
                + ',"type":"perception"}')
    elif isinstance(message, ControlMessage):
        exact = type(message) is ControlMessage
        if exact and message._frame is not None:
            return message._frame
        sim_time = message.sim_time
        cmd = message.command
        payload = dump_value({
            "type": "control", "sim_time": sim_time,
            "throttle": cmd.throttle, "brake": cmd.brake,
            "steering": cmd.steering}).encode("utf-8")
        frame = HEADER.pack(len(payload)) + payload
        if exact and type(cmd) is ControlCommand and type(sim_time) is float:
            message.__dict__["_frame"] = frame  # stored once written
        return frame
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    payload = body.encode("utf-8")
    return HEADER.pack(len(payload)) + payload


def decode(frame: bytes) -> PerceptionMessage | ControlMessage:
    """Parse one complete frame. Raises FrameError for anything malformed."""
    if len(frame) < HEADER.size:
        raise FrameError("frame shorter than its length header")
    (declared,) = HEADER.unpack(frame[:HEADER.size])
    if declared > MAX_FRAME_BYTES:
        raise FrameError(f"declared length {declared} exceeds {MAX_FRAME_BYTES}")
    body = frame[HEADER.size:]
    if len(body) < declared:
        raise FrameError(f"truncated frame: declared {declared}, got {len(body)}")
    if len(body) > declared:
        raise FrameError(f"trailing bytes after declared length {declared}")
    try:
        doc = canonical.loads(body.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FrameError(f"body is not UTF-8: {exc}") from None
    except ValueError as exc:
        raise FrameError(f"body is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameError("body must be a JSON object")
    kind = doc.get("type")
    if kind == "perception":
        if doc.keys() != _PERCEPTION_KEYS:
            raise FrameError(f"perception: wrong keys {sorted(doc)}")
        obstacles = doc["obstacles"]
        if not isinstance(obstacles, list):
            raise FrameError("/obstacles: expected an array")
        return PerceptionMessage(
            sim_time=_require_number(doc, "sim_time"),
            ego=_parse_actor(doc["ego"], "/ego"),
            obstacles=tuple(_parse_actor(o, f"/obstacles/{i}")
                            for i, o in enumerate(obstacles)))
    if kind == "control":
        if doc.keys() != _CONTROL_KEYS:
            raise FrameError(f"control: wrong keys {sorted(doc)}")
        return ControlMessage(
            sim_time=_require_number(doc, "sim_time"),
            command=ControlCommand(_require_number(doc, "throttle"),
                                   _require_number(doc, "brake"),
                                   _require_number(doc, "steering")))
    raise FrameError(f"unknown message type {kind!r}")


def read_frame(reader) -> bytes:
    """Read one complete frame from a socket-like object with ``.recv``."""
    header = _read_exact(reader, HEADER.size)
    (declared,) = HEADER.unpack(header)
    if declared > MAX_FRAME_BYTES:
        raise FrameError(f"declared length {declared} exceeds {MAX_FRAME_BYTES}")
    return header + _read_exact(reader, declared)


def _read_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# reference ego agent


@dataclass(frozen=True)
class AgentSettings:
    cruise_speed: float = 8.0
    fault_ignore_obstacles: bool = False
    fault_ignore_junction_traffic: bool = False


class ReferenceEgoAgent:
    """Waypoint-following ego driver used when no external stack is attached.

    Pure pursuit on the mission route plus cruise-speed tracking; brakes for
    obstacles in a forward corridor.  The two fault switches disable obstacle
    handling wholesale or only for crossing traffic, which turns this into a
    deterministic bug-injected stack for oracle and search testing.
    """

    def __init__(self, route: Polyline,
                 settings: AgentSettings = AgentSettings(), dt: float = 0.1):
        self.route = route
        self.settings = settings
        self.dt = dt  # s, simulation step between requests
        self.speed_ctl = SpeedController()
        self.off_route = False

    def _corridor_gap(self, ego: ActorState, obstacles) -> float | None:
        ignore_crossing = self.settings.fault_ignore_junction_traffic
        half_width = (ego.width + CORRIDOR_MARGIN) / 2.0
        cos_h, sin_h = math.cos(ego.heading), math.sin(ego.heading)
        gap: float | None = None
        for obs in obstacles:
            if ignore_crossing and \
                    abs(normalize_angle(obs.heading - ego.heading)) > math.pi / 4:
                continue  # crossing traffic dropped by the injected fault
            dx, dy = obs.x - ego.x, obs.y - ego.y
            forward = dx * cos_h + dy * sin_h
            lateral = -dx * sin_h + dy * cos_h
            if forward <= 0.0 or forward > CORRIDOR_LENGTH:
                continue
            if abs(lateral) > half_width:
                continue
            this_gap = forward - (ego.length + obs.length) / 2.0
            if gap is None or this_gap < gap:
                gap = this_gap
        return gap

    def step(self, perception: PerceptionMessage) -> ControlMessage:
        ego, route = perception.ego, self.route
        cruise = self.settings.cruise_speed
        dist, steering, target = route_guidance(route, ego, cruise)

        if dist > OFF_ROUTE_LIMIT:
            if not self.off_route:
                log.warning("ego %.1f m off route at t=%.1f, holding full brake",
                            dist, perception.sim_time)
            self.off_route = True
            return ControlMessage(perception.sim_time, ControlCommand(0.0, 1.0, 0.0))

        gap = None
        if not self.settings.fault_ignore_obstacles:
            gap = self._corridor_gap(ego, perception.obstacles)
        if gap is not None:
            if gap < HARD_STOP_GAP:
                return ControlMessage(perception.sim_time,
                                      ControlCommand(0.0, 1.0, steering))
            headway = gap / max(ego.speed, 0.1)
            if headway < TIME_HEADWAY:
                brake = min((TIME_HEADWAY - headway) / TIME_HEADWAY, 1.0)
                return ControlMessage(perception.sim_time,
                                      ControlCommand(0.0, brake, steering))

        # the speed-tracking reply, kept in the ego state's _reply slot (see
        # the module docstring); equal non-zero floats have equal bits
        ctl, dt, sim_time = self.speed_ctl, self.dt, perception.sim_time
        integral, prev_error = ctl.integral, ctl.prev_error
        exact = (type(ego) is ActorState and type(ctl) is SpeedController
                 and type(dt) is type(sim_time) is type(integral)
                 is type(prev_error) is float
                 and dt and sim_time and integral and prev_error)
        if exact:
            kept = ego._reply
            if (kept is not None and kept[0] is route and kept[1] is cruise
                    and kept[2] == dt and kept[3] == sim_time
                    and kept[4] == integral and kept[5] == prev_error):
                ctl.integral, ctl.prev_error = kept[7], kept[8]
                return kept[6]
        throttle, brake = ctl.pedals(ego.speed, target, dt)
        reply = ControlMessage(sim_time,
                               ControlCommand(throttle, brake, steering))
        if exact and type(route) is Polyline:
            ego.__dict__["_reply"] = (route, cruise, dt, sim_time, integral,
                                      prev_error, reply, ctl.integral,
                                      ctl.prev_error)
        return reply


def route_guidance(route: Polyline, ego: ActorState, cruise_speed: float
                   ) -> tuple[float, float | None, float | None]:
    """``(distance, steering, target)`` for the ego on its route.

    ``distance`` is the ego's distance from the route; beyond
    ``OFF_ROUTE_LIMIT`` the other two are None.  Otherwise ``steering`` is
    the pure-pursuit steering and ``target`` the speed to track: the cruise
    speed, capped to stop at the route's end and to take the curve ahead.
    Kept in the state's ``_guide`` slot with the lateral offset (see the
    module docstring).
    """
    if type(ego) is ActorState and type(route) is Polyline:
        guide = ego._guide
        if guide is not None and guide[0] is route and guide[1] is cruise_speed:
            return guide[2]
        guidance, lateral = _route_guidance(route, ego, cruise_speed)
        ego.__dict__["_guide"] = (route, cruise_speed, guidance, lateral)
        return guidance
    return _route_guidance(route, ego, cruise_speed)[0]


def route_lateral(route: Polyline, ego: ActorState) -> float:
    """The ego's signed lateral offset from ``route``: the one kept in its
    ``_guide`` slot when :func:`route_guidance` projected it onto this very
    route object, else projected here."""
    guide = ego._guide
    if guide is not None and guide[0] is route:
        return guide[3]
    return route.project(ego.x, ego.y)[1]


def _route_guidance(route: Polyline, ego: ActorState, cruise_speed: float
                    ) -> tuple[tuple[float, float | None, float | None], float]:
    """``(guidance, lateral)``: :func:`route_guidance`'s triple and the
    signed lateral offset from the same projection.  An ego beyond
    ``MAX_COORDINATE`` is off route without projecting, since the squares
    in ``Polyline.project`` can overflow that far out."""
    if not (abs(ego.x) <= MAX_COORDINATE and abs(ego.y) <= MAX_COORDINATE):
        return (math.inf, None, None), math.inf
    s, lateral, dist = route.project(ego.x, ego.y)
    if dist > OFF_ROUTE_LIMIT:
        return (dist, None, None), lateral

    steering = pure_pursuit_steering(ego, route, s)

    remaining = max(route.length - s, 0.0)
    target = min(cruise_speed, math.sqrt(2.0 * COMFORT_BRAKE * remaining))
    # slow down for curvature ahead of the front axle
    probe = 12.0
    if remaining > 1.0:
        dh = abs(normalize_angle(
            route.heading_at(min(s + probe, route.length))
            - route.heading_at(s)))
        curvature = dh / probe
        if curvature > 1e-4:
            target = min(target, math.sqrt(LAT_ACCEL_MAX / curvature))
    return (dist, steering, target), lateral


# ---------------------------------------------------------------------------
# sessions


class BridgeSession:
    """Lockstep request/response channel to one agent instance."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0

    def request(self, perception: PerceptionMessage) -> ControlMessage:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden where needed
        pass

    @property
    def in_flight(self) -> int:
        return self.sent - self.received


class InProcessSession(BridgeSession):
    """Runs the agent in this process.

    Both frames are encoded, which rejects what the wire cannot carry, but
    the agent gets the perception message itself and an exact
    ``ControlMessage`` reply is returned as it is: ``ControlCommand`` stores
    only finite in-range floats, and the encode has rejected a non-finite
    time.  Any other reply is decoded from its frame, as TCP would.
    """

    def __init__(self, agent_factory):
        super().__init__()
        self.agent = agent_factory()

    def request(self, perception: PerceptionMessage) -> ControlMessage:
        self.sent += 1
        encode(perception)
        reply = self.agent.step(perception)
        frame = encode(reply)
        if not (type(reply) is ControlMessage and type(reply.sim_time) is float
                and type(reply.command) is ControlCommand):
            reply = decode(frame)
            if not isinstance(reply, ControlMessage):
                raise FrameError("agent answered with a non-control message")
        self.received += 1
        return reply


class TcpSession(BridgeSession):
    def __init__(self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT_S):
        super().__init__()
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach the agent at {host}:{port}: {exc}") from exc

    def request(self, perception: PerceptionMessage) -> ControlMessage:
        self.sent += 1
        try:
            self.sock.sendall(encode(perception))
            frame = read_frame(self.sock)
        except socket.timeout:
            raise AgentTimeoutError(
                f"no control reply within {self.sock.gettimeout()} s") from None
        except ConnectionError as exc:  # reset: closed with a frame unread
            raise FrameError(f"connection lost: {exc}") from None
        control = decode(frame)
        if not isinstance(control, ControlMessage):
            raise FrameError("agent answered with a non-control message")
        self.received += 1
        return control

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


_INPROC_AGENTS: dict[str, object] = {}


def register_inproc_agent(name: str, factory) -> None:
    _INPROC_AGENTS[name] = factory


def parse_endpoint(endpoint: str) -> tuple[str | None, str | int]:
    """``(None, name)`` for ``inproc:<name>`` with an agent registered as
    ``name``, ``(host, port)`` for ``host:port``; raises ValueError for
    anything else."""
    if endpoint.startswith("inproc:") and len(endpoint) > len("inproc:"):
        name = endpoint[len("inproc:"):]
        if name not in _INPROC_AGENTS:
            raise ValueError(f"no in-process agent is registered for "
                             f"{endpoint!r}")
        return None, name
    host, sep, port = endpoint.rpartition(":")
    if sep and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535:
        return host or "127.0.0.1", int(port)
    raise ValueError(f"endpoint must be 'inproc:<name>' or 'host:port' with a "
                     f"port from 1 to 65535, got {endpoint!r}")


def connect(endpoint: str, timeout: float = DEFAULT_TIMEOUT_S) -> BridgeSession:
    """Open a session to ``inproc:<name>`` or ``host:port``."""
    host, name_or_port = parse_endpoint(endpoint)
    if host is None:
        return InProcessSession(_INPROC_AGENTS[name_or_port])
    return TcpSession(host, name_or_port, timeout)


class BridgeServer(socketserver.ThreadingTCPServer):
    """One agent per connection, built from ``agent_factory`` when the
    connection opens; binds in the constructor and serves from a daemon
    thread until :meth:`close` (see the module docstring)."""

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = socket.SOMAXCONN

    def __init__(self, agent_factory, host: str = "127.0.0.1", port: int = 0):
        self.agent_factory = agent_factory
        self._closed = False
        super().__init__((host, port), _AgentConnection)
        self.address = self.server_address
        # close() waits up to one poll for the serving thread to stop
        threading.Thread(target=self.serve_forever,
                         kwargs={"poll_interval": 0.05}, daemon=True).start()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def close(self) -> None:
        self._closed = True
        self.shutdown()
        self.server_close()


class _AgentConnection(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server, conn = self.server, self.request
        try:
            agent = server.agent_factory()
        except Exception:
            log.exception("bridge agent could not be built; closing the "
                          "connection")
            return
        conn.settimeout(30.0)
        while not server._closed:
            try:
                frame = read_frame(conn)
            except (FrameError, socket.timeout, OSError):
                return
            try:
                perception = decode(frame)
                reply = agent.step(perception)
                conn.sendall(encode(reply))
            except Exception as exc:  # bad frame or reply, agent fault
                log.exception("bridge connection dropped: %s", exc)
                return
