"""Perception/control bridge between the simulator and a driving agent.

Wire protocol (both directions): a 4-byte big-endian unsigned length prefix
followed by that many bytes of UTF-8 canonical JSON.  Bodies::

    {"type": "perception", "sim_time": t, "ego": {...}, "obstacles": [...]}
    {"type": "control", "sim_time": t, "throttle": f, "brake": f, "steering": f}

Frames are written by shape: :func:`encode` lays out each body's keys in
sorted order and writes each value with ``canonical.dump_value``, and the
result must equal ``canonical.dump_bytes`` of the body's document byte for
byte (``tests/test_bridge.py`` keeps the dict-building encoder as the
reference).  :func:`decode` takes an actor whose values all have their exact
types at once; anything else goes through the full checks, which name the
fault.

An actor's text is written once per object: :func:`actor_text` stores the
text of an exact ``ActorState`` in the object's ``_text`` the first time it
writes it, and every later frame or recording holding that object reuses it.
The fields are frozen and the text is a pure function of them, so the bytes
cannot move; a write that raises stores nothing, so it raises again.
Subclasses and duck-typed actors are written afresh every time.  The
dict-building encoder reads a whole message before it writes any value, so
an unreadable actor fails before a bad value is written: a perception whose
obstacles are not a tuple, or whose actors raise when written one by one, is
written again that way, and a recording reads every frame first, except
the fields of exact ``ActorState`` objects, which can always be read.

The session is lockstep: the runner sends one perception frame and blocks for
exactly one control frame.  The in-process transport encodes both frames, so
a message the wire cannot carry fails as it would over TCP, but it hands the
agent the simulator's own frozen message and returns an exact
``ControlMessage`` reply as it is; any other reply is decoded from its frame.
Decoding a simulator-built frame gives back equal values, so the two
transports produce identical traces for a deterministic agent.

The reference agent's tuning is fixed in module constants, ``CORRIDOR_LENGTH``
through ``LAT_ACCEL_MAX``; :class:`AgentSettings` holds only what a campaign
sets.  Its speed tracking is ``simulator.SpeedController`` (constant gains).

The agent's route guidance, :func:`route_guidance`, is kept in a memo: the
projection onto the route, the off-route distance, the pure-pursuit steering
and the speed target.  Every evaluation of a campaign drives the ego along
mostly the same trajectory (see ``simulator``), so the same ego states come
back with the same route.  The memo is keyed on the route object itself (by
identity, and kept alive by the key; a ``Polyline`` is never changed once
built) and the IEEE bits of the ego's x, y, heading and speed and of the
cruise speed, never on the floats: as dict keys ``0.0`` equals ``-0.0`` and a
NaN equals nothing.  The guidance is a function of those bits and the route
alone, so a hit gives what a fresh computation would.  Only an exact
``Polyline``, an exact ``ActorState`` whose four fields are exact ``float``
values and a ``float`` cruise speed are looked up and stored; anything else
is computed afresh.  The obstacle corridor, the speed controller and the
off-route warning keep state or read the obstacles, so they stay in
``ReferenceEgoAgent.step`` and run on every call.  The memo is cleared
whenever it holds ``GUIDE_MEMO_LIMIT`` entries across all routes, about 150
bytes each, so a full memo holds about 0.15 MB.  Worker threads share it; a
dict's get, set and clear each hold the interpreter lock, so two threads that
race on one key each get exact guidance, and threads that race past the size
check leave at most one extra entry each.  ``tests/test_bridge.py`` checks
the memo against the old ``step`` kept in ``tests/oracles.py`` (the
``test_guide_memo_*`` tests).
"""

from __future__ import annotations

import logging
import math
import os
import socket
import struct
import threading
from dataclasses import dataclass
from operator import attrgetter

from . import canonical
from .canonical import dump_value, finite_number
from .geometry import Polyline, normalize_angle
from .simulator import (ACTOR_KINDS, ActorState, ControlCommand,
                        SpeedController, pure_pursuit_steering)

log = logging.getLogger(__name__)

HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024
DEFAULT_TIMEOUT_S = 5.0
ENDPOINT_ENV_VAR = "SCENOFUZZ_BRIDGE_ADDR"

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


@dataclass(frozen=True)
class PerceptionMessage:
    sim_time: float
    ego: ActorState
    obstacles: tuple[ActorState, ...]


@dataclass(frozen=True)
class ControlMessage:
    sim_time: float
    command: ControlCommand


# ---------------------------------------------------------------------------
# encoding

# An actor's fields in the order they are read; frames are written with their
# keys in sorted order.
_actor_fields = attrgetter("actor_id", "kind", "x", "y", "heading", "speed",
                          "acceleration", "length", "width")
_ACTOR_KEYS = frozenset(("actor_id", "kind", "x", "y", "heading", "speed",
                         "acceleration", "length", "width"))
_PERCEPTION_KEYS = frozenset(("type", "sim_time", "ego", "obstacles"))
_CONTROL_KEYS = frozenset(("type", "sim_time", "throttle", "brake", "steering"))


def actor_text(actor) -> str:
    """Canonical JSON object of one actor.  An exact ``ActorState`` keeps
    the text it is first written with and gives it back from then on; any
    other actor is written afresh."""
    exact = type(actor) is ActorState
    if exact and actor._text is not None:
        return actor._text
    actor_id, kind, x, y, heading, speed, acceleration, length, width = \
        _actor_fields(actor)
    text = ('{"acceleration":' + dump_value(acceleration)
            + ',"actor_id":' + dump_value(actor_id)
            + ',"heading":' + dump_value(heading)
            + ',"kind":' + dump_value(kind)
            + ',"length":' + dump_value(length)
            + ',"speed":' + dump_value(speed)
            + ',"width":' + dump_value(width)
            + ',"x":' + dump_value(x)
            + ',"y":' + dump_value(y) + "}")
    if exact:  # stored once written, so a write that raises stores nothing
        actor.__dict__["_text"] = text
    return text


def _read_all(actors) -> list:
    """``actors`` as a list, every field of each read as it comes."""
    read = []
    for actor in actors:
        _actor_fields(actor)
        read.append(actor)
    return read


def _perception_texts(message: PerceptionMessage) -> tuple[str, list[str]]:
    """The texts of a perception's ego and obstacles, each actor written as
    it is read.  If that raises, or the obstacles are not a tuple, the
    message is read whole before any value is written, as the reference
    does, so an unreadable actor fails before a bad value is written."""
    try:
        ego = actor_text(message.ego)
        obstacles = message.obstacles
        if type(obstacles) is tuple:
            return ego, [actor_text(o) for o in obstacles]
    except Exception:
        pass  # raised again below, in the reference order
    ego = message.ego
    _actor_fields(ego)
    obstacles = _read_all(message.obstacles)
    return actor_text(ego), [actor_text(o) for o in obstacles]


def _parse_actor(doc, where: str) -> ActorState:
    if type(doc) is dict and doc.keys() == _ACTOR_KEYS:
        actor_id, kind = doc["actor_id"], doc["kind"]
        numbers = (doc["x"], doc["y"], doc["heading"], doc["speed"],
                   doc["acceleration"], doc["length"], doc["width"])
        # A sum of floats is finite only if every term is (an overflowing sum
        # just takes the checks below).
        if type(actor_id) is str and type(kind) is str and \
                kind in ACTOR_KINDS and set(map(type, numbers)) == _FLOAT and \
                _isfinite(sum(numbers)):
            return ActorState(actor_id, kind, *numbers)
    if not isinstance(doc, dict):
        raise FrameError(f"{where}: expected an object")
    if doc.keys() != _ACTOR_KEYS:
        raise FrameError(f"{where}: wrong keys {sorted(doc)}")
    if not isinstance(doc["actor_id"], str) or not isinstance(doc["kind"], str):
        raise FrameError(f"{where}: actor_id and kind must be strings")
    numbers = {}
    for key in ("x", "y", "heading", "speed", "acceleration", "length", "width"):
        number = finite_number(doc[key])
        if number is None:
            raise FrameError(f"{where}/{key}: expected a finite number")
        numbers[key] = number
    try:
        return ActorState(doc["actor_id"], doc["kind"], **numbers)
    except ValueError as exc:
        raise FrameError(f"{where}: {exc}") from None


def _require_number(doc: dict, key: str) -> float:
    number = doc[key]
    if type(number) is float and _isfinite(number):
        return number
    number = finite_number(number)
    if number is None:
        raise FrameError(f"/{key}: expected a finite number")
    return number


def encode(message: PerceptionMessage | ControlMessage) -> bytes:
    """Serialize a message to a complete length-prefixed wire frame."""
    if isinstance(message, PerceptionMessage):
        sim_time = message.sim_time
        ego, texts = _perception_texts(message)
        body = ('{"ego":' + ego + ',"obstacles":[' + ",".join(texts)
                + '],"sim_time":' + dump_value(sim_time)
                + ',"type":"perception"}')
    elif isinstance(message, ControlMessage):
        sim_time = message.sim_time
        cmd = message.command
        throttle, brake, steering = cmd.throttle, cmd.brake, cmd.steering
        body = ('{"brake":' + dump_value(brake)
                + ',"sim_time":' + dump_value(sim_time)
                + ',"steering":' + dump_value(steering)
                + ',"throttle":' + dump_value(throttle)
                + ',"type":"control"}')
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
        ego = perception.ego
        dist, steering, target = route_guidance(
            self.route, ego, self.settings.cruise_speed)

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

        throttle, brake = self.speed_ctl.pedals(ego.speed, target, self.dt)
        return ControlMessage(perception.sim_time,
                              ControlCommand(throttle, brake, steering))


GUIDE_MEMO_LIMIT = 1024  # guidance entries held before the memo is cleared
_guides: dict[tuple[Polyline, bytes], tuple] = {}
_guide = _guides.get
_guide_bits = struct.Struct("<5d").pack
_ego_pose = attrgetter("x", "y", "heading", "speed")


def route_guidance(route: Polyline, ego: ActorState, cruise_speed: float
                   ) -> tuple[float, float | None, float | None]:
    """``(distance, steering, target)`` for the ego on its route.

    ``distance`` is the ego's distance from the route; beyond
    ``OFF_ROUTE_LIMIT`` the other two are None.  Otherwise ``steering`` is
    the pure-pursuit steering and ``target`` the speed to track: the cruise
    speed, capped to stop at the route's end and to take the curve ahead.
    Looked up in the guidance memo first (see the module docstring).
    """
    if (type(route) is Polyline and type(ego) is ActorState
            and type(cruise_speed) is float):
        x, y, heading, speed = _ego_pose(ego)
        if type(x) is type(y) is type(heading) is type(speed) is float:
            key = (route, _guide_bits(x, y, heading, speed, cruise_speed))
            guide = _guide(key)
            if guide is None:
                guide = _route_guidance(route, ego, cruise_speed)
                if len(_guides) >= GUIDE_MEMO_LIMIT:
                    _guides.clear()
                _guides[key] = guide
            return guide
    return _route_guidance(route, ego, cruise_speed)


def _route_guidance(route: Polyline, ego: ActorState, cruise_speed: float
                    ) -> tuple[float, float | None, float | None]:
    s, _, dist = route.project(ego.x, ego.y)
    if dist > OFF_ROUTE_LIMIT:
        return dist, None, None

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
    return dist, steering, target


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
        self.sock.settimeout(timeout)

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


def resolve_endpoint(default: str | None = None) -> str | None:
    """Bridge endpoint, with the environment variable taking precedence."""
    return os.environ.get(ENDPOINT_ENV_VAR) or default


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


class BridgeServer:
    """Threaded TCP server hosting one agent instance per connection."""

    def __init__(self, agent_factory, host: str = "127.0.0.1", port: int = 0):
        self.agent_factory = agent_factory
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen()
        self.address = self.sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _accept_loop(self) -> None:
        try:
            self.sock.settimeout(0.2)
        except OSError:
            return
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            try:
                agent = self.agent_factory()
            except Exception:
                log.exception("bridge agent could not be built; closing the "
                              "connection")
                return
            conn.settimeout(30.0)
            while not self._stop.is_set():
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
        finally:
            conn.close()

    def close(self) -> None:
        self._stop.set()
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._thread.join(timeout=2.0)
