"""Wire protocol, bridge sessions, and the reference ego agent."""

import dataclasses
import logging
import math
import os
import random
import socket
import struct
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from oracles import agent_step
from scenofuzz import bridge, canonical
from scenofuzz.bridge import (AgentSettings, AgentTimeoutError, BridgeServer,
                              BridgeSession, ControlMessage, FrameError,
                              InProcessSession,
                              PerceptionMessage, ReferenceEgoAgent, TcpSession,
                              connect, decode, encode, read_frame,
                              register_inproc_agent, resolve_endpoint,
                              route_guidance)
from scenofuzz.canonical import finite_number
from scenofuzz.config import build_execution, load_config
from scenofuzz.engine import CampaignBudget, CampaignContext, run_campaign
from scenofuzz.engine import campaign as campaign_module
from scenofuzz.geometry import Polyline
from scenofuzz.runner import mission_path
from scenofuzz.simulator import (ACTOR_KINDS, ActorState, ControlCommand,
                                 pure_pursuit_steering)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def actor(actor_id="ego", kind="ego", x=0.0, y=0.0, heading=0.0, speed=8.0,
          acceleration=0.0, length=4.8, width=2.0):
    return ActorState(actor_id, kind, x, y, heading, speed, acceleration,
                      length, width)


def straight_route(length=200.0):
    return Polyline([(0.0, 0.0), (length, 0.0)])


def perception(ego, obstacles=(), t=0.0):
    return PerceptionMessage(t, ego, tuple(obstacles))


# ---------------------------------------------------------------------------
# framing


class TestFraming:
    def test_perception_round_trip(self):
        msg = perception(actor(x=0.1 + 0.2, speed=7.25),
                         [actor("npc_1", "npc", x=30.0, heading=1.5)],
                         t=12.300000000000001)
        again = decode(encode(msg))
        assert again == msg
        assert encode(again) == encode(msg)

    def test_control_round_trip(self):
        msg = ControlMessage(3.7, ControlCommand(0.25, 0.0, -0.31))
        again = decode(encode(msg))
        assert again == msg
        assert encode(again) == encode(msg)

    def test_repeated_encode_is_byte_stable(self):
        msg = perception(actor(), [actor("npc_1", "npc", x=15.0)])
        assert encode(msg) == encode(msg)

    def test_encode_rejects_other_types(self):
        with pytest.raises(TypeError):
            encode({"type": "perception"})

    def test_truncated_and_padded_frames(self):
        frame = encode(ControlMessage(0.0, ControlCommand()))
        with pytest.raises(FrameError):
            decode(frame[:-1])
        with pytest.raises(FrameError):
            decode(frame + b"x")
        with pytest.raises(FrameError):
            decode(frame[:3])
        with pytest.raises(FrameError):
            decode(b"")

    def test_oversized_declared_length(self):
        header = bridge.HEADER.pack(bridge.MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            decode(header + b"{}")

    def test_non_utf8_and_non_json_bodies(self):
        bad_utf8 = b"\xff\xfe\x00\x01"
        with pytest.raises(FrameError):
            decode(bridge.HEADER.pack(len(bad_utf8)) + bad_utf8)
        not_json = b"hello world"
        with pytest.raises(FrameError):
            decode(bridge.HEADER.pack(len(not_json)) + not_json)
        not_object = b"[1,2,3]"
        with pytest.raises(FrameError):
            decode(bridge.HEADER.pack(len(not_object)) + not_object)

    def _reframe(self, body_doc):
        from scenofuzz import canonical
        payload = canonical.dump_bytes(body_doc)
        return bridge.HEADER.pack(len(payload)) + payload

    def test_schema_violations(self):
        good = perception(actor(), [actor("npc_1", "npc", x=30.0)])
        from scenofuzz import canonical
        doc = canonical.loads(encode(good)[4:])

        missing = dict(doc)
        del missing["obstacles"]
        with pytest.raises(FrameError):
            decode(self._reframe(missing))

        extra = dict(doc)
        extra["weather"] = "rain"
        with pytest.raises(FrameError):
            decode(self._reframe(extra))

        bad_type = dict(doc)
        bad_type["type"] = "telemetry"
        with pytest.raises(FrameError):
            decode(self._reframe(bad_type))

        bad_time = dict(doc)
        bad_time["sim_time"] = "noon"
        with pytest.raises(FrameError):
            decode(self._reframe(bad_time))

        bad_actor = dict(doc)
        bad_actor["ego"] = dict(doc["ego"])
        del bad_actor["ego"]["heading"]
        with pytest.raises(FrameError):
            decode(self._reframe(bad_actor))

        alien_kind = dict(doc)
        alien_kind["ego"] = dict(doc["ego"], kind="zebra")
        with pytest.raises(FrameError):
            decode(self._reframe(alien_kind))

        nan_speed = b'{"brake":0.0,"sim_time":0.0,"steering":0.0,' \
                    b'"throttle":NaN,"type":"control"}'
        with pytest.raises(FrameError):
            decode(bridge.HEADER.pack(len(nan_speed)) + nan_speed)

        # an integer too large for a float is not a finite number either
        huge = b"1" + b"0" * 400
        huge_throttle = b'{"brake":0.0,"sim_time":0.0,"steering":0.0,' \
                        b'"throttle":' + huge + b',"type":"control"}'
        with pytest.raises(FrameError, match="/throttle"):
            decode(bridge.HEADER.pack(len(huge_throttle)) + huge_throttle)
        huge_x = canonical.dump_bytes(doc).replace(
            b'"x":' + canonical.dumps(doc["ego"]["x"]).encode(),
            b'"x":' + huge, 1)
        with pytest.raises(FrameError, match="/ego/x"):
            decode(bridge.HEADER.pack(len(huge_x)) + huge_x)

    def test_decode_fuzz_raises_only_frame_errors(self):
        rng = random.Random(1234)
        valid = encode(perception(actor(), [actor("npc_1", "npc", x=30.0)]))
        for _ in range(2000):
            if rng.random() < 0.5:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            else:
                blob = bytearray(valid)
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                blob = bytes(blob)
            outcome = _outcome(decode, blob)
            assert outcome[0] in ("ok", FrameError)
            assert outcome == _outcome(reference_decode, blob)

    def test_read_frame_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            first = encode(ControlMessage(0.0, ControlCommand(0.5, 0.0, 0.1)))
            second = encode(ControlMessage(0.1, ControlCommand(0.0, 1.0, 0.0)))
            a.sendall(first + second)
            assert read_frame(b) == first
            assert read_frame(b) == second
            a.sendall(first[:5])
            a.close()
            with pytest.raises(FrameError):
                read_frame(b)
        finally:
            b.close()


# ---------------------------------------------------------------------------
# reference codec: the encoder that built a dict per frame and dumped it
# through canonical.dumps, and the decoder's original checks.  The shaped
# encode/decode must give the same bytes, results and errors.


def _reference_actor_doc(state):
    return {"actor_id": state.actor_id, "kind": state.kind,
            "x": state.x, "y": state.y, "heading": state.heading,
            "speed": state.speed, "acceleration": state.acceleration,
            "length": state.length, "width": state.width}


def reference_encode(message):
    if isinstance(message, PerceptionMessage):
        body = {"type": "perception", "sim_time": message.sim_time,
                "ego": _reference_actor_doc(message.ego),
                "obstacles": [_reference_actor_doc(o)
                              for o in message.obstacles]}
    elif isinstance(message, ControlMessage):
        cmd = message.command
        body = {"type": "control", "sim_time": message.sim_time,
                "throttle": cmd.throttle, "brake": cmd.brake,
                "steering": cmd.steering}
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    payload = canonical.dump_bytes(body)
    return bridge.HEADER.pack(len(payload)) + payload


def _reference_parse_actor(doc, where):
    if not isinstance(doc, dict):
        raise FrameError(f"{where}: expected an object")
    keys = {"actor_id", "kind", "x", "y", "heading", "speed", "acceleration",
            "length", "width"}
    if set(doc) != keys:
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


def _reference_number(doc, key):
    number = finite_number(doc[key])
    if number is None:
        raise FrameError(f"/{key}: expected a finite number")
    return number


def reference_decode(frame):
    if len(frame) < bridge.HEADER.size:
        raise FrameError("frame shorter than its length header")
    (declared,) = bridge.HEADER.unpack(frame[:bridge.HEADER.size])
    if declared > bridge.MAX_FRAME_BYTES:
        raise FrameError(
            f"declared length {declared} exceeds {bridge.MAX_FRAME_BYTES}")
    body = frame[bridge.HEADER.size:]
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
        if set(doc) != {"type", "sim_time", "ego", "obstacles"}:
            raise FrameError(f"perception: wrong keys {sorted(doc)}")
        obstacles = doc["obstacles"]
        if not isinstance(obstacles, list):
            raise FrameError("/obstacles: expected an array")
        return PerceptionMessage(
            sim_time=_reference_number(doc, "sim_time"),
            ego=_reference_parse_actor(doc["ego"], "/ego"),
            obstacles=tuple(_reference_parse_actor(o, f"/obstacles/{i}")
                            for i, o in enumerate(obstacles)))
    if kind == "control":
        if set(doc) != {"type", "sim_time", "throttle", "brake", "steering"}:
            raise FrameError(f"control: wrong keys {sorted(doc)}")
        return ControlMessage(
            sim_time=_reference_number(doc, "sim_time"),
            command=ControlCommand(_reference_number(doc, "throttle"),
                                   _reference_number(doc, "brake"),
                                   _reference_number(doc, "steering")))
    raise FrameError(f"unknown message type {kind!r}")


def _outcome(function, value):
    """``("ok", result)`` or the exception's type and message."""
    try:
        result = function(value)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not
    return "ok", result, repr(result)


def random_float(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return float(rng.randrange(-50, 50))  # integral: needs ".0"
    if pick == 1:
        return rng.choice([-0.0, 0.0, 1e16, 1e17, 5e-324, 1e-7, 0.1 + 0.2,
                           1.7976931348623157e308, -123456789012345.0])
    if pick == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-20, 20)
    return rng.uniform(-200.0, 200.0)


IDS = ["ego", "npc_1", "obstacle_12", "", "café", "中", 'q"uote',
       "back\\slash", "tab\tnew\nline", "\x00\x1f", "\U0001F697", "\u2028",
       "é" * 40]


def random_actor(rng, kind=None):
    return ActorState(rng.choice(IDS), kind or rng.choice(ACTOR_KINDS),
                      *(random_float(rng) for _ in range(7)))


def random_message(rng):
    if rng.random() < 0.5:
        return ControlMessage(random_float(rng),
                              ControlCommand(rng.uniform(-0.5, 1.5),
                                             rng.choice([0.0, 1.0, rng.random()]),
                                             rng.uniform(-1.0, 1.0)))
    return PerceptionMessage(random_float(rng), random_actor(rng, "ego"),
                             tuple(random_actor(rng)
                                   for _ in range(rng.randrange(5))))


def with_field(obj, name, value):
    """A copy of a frozen dataclass with one field set as is, unconverted."""
    copy = dataclasses.replace(obj)
    object.__setattr__(copy, name, value)
    return copy


ACTOR_FIELDS = ("actor_id", "kind", "x", "y", "heading", "speed",
                "acceleration", "length", "width")
NUMBER_FIELDS = ACTOR_FIELDS[2:]


class TestCodecReference:
    def test_encode_equals_reference_on_seeded_messages(self):
        rng = random.Random(20261018)
        for _ in range(6000):
            message = random_message(rng)
            frame = encode(message)
            assert frame == reference_encode(message)
            assert _outcome(decode, frame) == \
                _outcome(reference_decode, frame)

    @pytest.mark.parametrize("value", [
        3, -7, 0, 2**64, True, False, -0.0, 1e16, 1e17, 5e-324, 2.0, 1e15,
        -40.0, np.float64(0.1), np.float64(-0.0), np.float64(2.0),
        np.float64(1e16)], ids=repr)
    def test_encode_equals_reference_on_edge_values(self, value):
        ego = actor(x=12.5, speed=3.0)
        npc = actor("npc_1", "npc", x=30.25)
        for name in NUMBER_FIELDS:
            for message in (perception(with_field(ego, name, value), [npc]),
                            perception(ego, [npc, with_field(npc, name, value)])):
                assert encode(message) == reference_encode(message), name
        for message in (perception(ego, [npc], t=value),
                        ControlMessage(value, ControlCommand(0.5, 0.0, 0.1))):
            assert encode(message) == reference_encode(message)
        command = ControlCommand(0.5, 0.0, 0.1)
        for name in ("throttle", "brake", "steering"):
            message = ControlMessage(1.5, with_field(command, name, value))
            assert encode(message) == reference_encode(message), name

    def test_subclasses_encode_like_the_reference(self):
        class Actor(ActorState):
            pass

        class Perception(PerceptionMessage):
            pass

        class Control(ControlMessage):
            pass

        ego = Actor("ego", "ego", 1.0, 2.0, 0.5, 3.0)
        for message in (Perception(0.5, ego, (actor("npc_1", "npc"),)),
                        perception(ego, [ego]),
                        Control(0.5, ControlCommand(1.0, 0.0, 0.25))):
            assert encode(message) == reference_encode(message)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"), np.float64("nan"),
        np.float64("inf"), object(), [1.0, float("nan")], {1: 2.0},
        "\ud800"], ids=["nan", "inf", "-inf", "np-nan", "np-inf", "object",
                        "list-with-nan", "int-key", "lone-surrogate"])
    def test_encode_raises_like_reference(self, bad):
        ego = actor(x=1.0)
        npc = actor("npc_1", "npc", x=20.0)
        messages = [perception(ego, [npc], t=bad),
                    ControlMessage(bad, ControlCommand()),
                    ControlMessage(0.0, with_field(ControlCommand(), "brake", bad))]
        for name in ACTOR_FIELDS:
            messages.append(perception(with_field(ego, name, bad), [npc]))
            messages.append(perception(ego, [npc, with_field(npc, name, bad)]))
        # two bad fields: the one first in key order raises
        messages.append(perception(with_field(ego, "y", bad), [npc], t=bad))
        messages.append(perception(with_field(with_field(ego, "y", bad),
                                              "speed", float("nan")), [npc]))
        # an unreadable actor fails before any value is written
        messages.append(perception(with_field(ego, "x", bad), [npc, None]))
        messages.append(perception(ego, [with_field(npc, "x", bad), None]))
        for message in messages:
            expected = _outcome(reference_encode, message)
            assert expected[0] != "ok"
            assert _outcome(encode, message) == expected

    def test_actor_text_is_stored_once_per_object(self):
        ego, npc = actor(x=1.5), actor("npc_1", "npc", x=30.0)
        assert ego._text is None and npc._text is None
        message = perception(ego, [npc])
        frame = encode(message)
        text = ego._text
        assert text is not None and npc._text is not None
        assert encode(message) == frame == reference_encode(message)
        assert ego._text is text
        # the text is no field: equality, hash and repr ignore it
        copy = dataclasses.replace(ego)
        assert copy._text is None
        assert copy == ego and hash(copy) == hash(ego)
        assert repr(copy) == repr(ego) and "_text" not in repr(ego)
        moved = dataclasses.replace(ego, x=2.5)
        assert moved._text is None
        assert encode(perception(moved, [npc])) == \
            reference_encode(perception(moved, [npc]))

    def test_a_failed_write_stores_nothing(self):
        bad = with_field(actor("npc_1", "npc"), "speed", float("nan"))
        first = _outcome(bridge.actor_text, bad)
        assert first[0] is canonical.CanonicalError
        assert _outcome(bridge.actor_text, bad) == first
        assert bad._text is None
        message = perception(actor(), [bad])
        expected = _outcome(reference_encode, message)
        assert _outcome(encode, message) == expected
        assert _outcome(encode, message) == expected
        assert bad._text is None

    def test_iterated_obstacles_are_read_once(self):
        ego, npc = actor(x=1.0), actor("npc_1", "npc", x=20.0)
        bad = with_field(npc, "x", float("nan"))
        for obstacles in ([bad], [npc, None], [None, bad], [npc]):
            outcomes = [_outcome(function, PerceptionMessage(
                0.0, ego, iter(obstacles))) for function in
                (encode, reference_encode)]
            assert outcomes[0] == outcomes[1], obstacles

    def test_other_actors_are_written_afresh(self):
        class Actor(ActorState):
            pass

        sub = Actor("npc_1", "npc", 1.0, 2.0, 0.5, 3.0)
        duck = types.SimpleNamespace(
            **{name: getattr(sub, name) for name in ACTOR_FIELDS})
        ego, npc = actor(), actor("npc_2", "npc", x=9.0)
        listed = actor("npc_3", "npc", x=12.0)
        messages = [perception(ego, [npc, sub]), perception(sub, [npc]),
                    perception(ego, [duck]),
                    PerceptionMessage(0.0, ego, [listed])]
        for message in messages:
            for _ in range(2):
                assert encode(message) == reference_encode(message)
        # exact ActorStates keep their text whatever frame writes them
        assert ego._text is not None and npc._text is not None
        assert listed._text is not None and sub._text is None
        assert bridge.actor_text(sub) == bridge.actor_text(duck)
        assert sub._text is None

    @pytest.mark.parametrize("text", [
        '1', '-2', '0', '10000000000000000000000', '1' + '0' * 400,
        'NaN', 'Infinity', '-Infinity', 'true', 'null', '"3.5"', '[1.0]',
        '1e400', '-0', '-0.0', '5e-324'])
    def test_decode_equals_reference_on_number_spellings(self, text):
        good = perception(actor(x=1.5), [actor("npc_1", "npc", x=30.0)])
        perception_paths = [["sim_time"]] + \
            [["ego", key] for key in ACTOR_FIELDS] + \
            [["obstacles", 0, key] for key in ACTOR_FIELDS]
        control = ControlMessage(0.5, ControlCommand(0.25, 0.0, 0.1))
        control_paths = [["sim_time"], ["throttle"], ["brake"], ["steering"]]
        for message, paths in ((good, perception_paths),
                               (control, control_paths)):
            for path in paths:
                doc = canonical.loads(encode(message)[4:])
                target = doc
                for step in path[:-1]:
                    target = target[step]
                target[path[-1]] = None  # the one null, replaced by ``text``
                body = canonical.dumps(doc).replace(
                    "null", text).encode("utf-8")
                frame = bridge.HEADER.pack(len(body)) + body
                assert _outcome(decode, frame) == \
                    _outcome(reference_decode, frame), (path, text)

    def test_decode_equals_reference_on_malformed_documents(self):
        ego = canonical.loads(encode(perception(actor()))[4:])["ego"]
        bodies = [
            {"type": "perception", "sim_time": 0.0, "ego": ego,
             "obstacles": [dict(ego, kind="zebra")]},
            {"type": "perception", "sim_time": 0.0, "ego": ego,
             "obstacles": [dict(ego, actor_id=7)]},
            {"type": "perception", "sim_time": 0.0, "ego": ego,
             "obstacles": [dict(ego, extra=1.0)]},
            {"type": "perception", "sim_time": 0.0, "ego": ego,
             "obstacles": [[1.0]]},
            {"type": "perception", "sim_time": 0.0, "ego": ego,
             "obstacles": {"0": ego}},
            {"type": "perception", "sim_time": 0.0, "ego": ego},
            {"type": "perception", "sim_time": "0", "ego": [], "obstacles": 1},
            {"type": "control", "sim_time": 0.0, "throttle": 0.5,
             "brake": False, "steering": 0.0},
            {"type": "control", "sim_time": 0.0, "throttle": 0.5,
             "brake": 0.0},
            {"type": ["control"], "sim_time": 0.0},
        ]
        for body in bodies:
            payload = canonical.dump_bytes(body)
            frame = bridge.HEADER.pack(len(payload)) + payload
            assert _outcome(decode, frame) == _outcome(reference_decode, frame)

    def test_decode_accepts_finite_values_whose_sum_overflows(self):
        big = actor(x=1e308, y=1e308, speed=1e308)
        frame = encode(perception(big, [big]))
        outcome = _outcome(decode, frame)
        assert outcome[0] == "ok"
        assert outcome == _outcome(reference_decode, frame)


# ---------------------------------------------------------------------------
# reference ego agent


class TestReferenceEgoAgent:
    def make(self, dt=0.1, **settings):
        return ReferenceEgoAgent(straight_route(), AgentSettings(**settings),
                                 dt)

    def test_on_route_equilibrium(self):
        agent = self.make()
        reply = agent.step(perception(actor(x=50.0, speed=8.0)))
        cmd = reply.command
        assert abs(cmd.steering) < 1e-3
        assert cmd.brake == 0.0
        # throttle holds cruise speed against drag: drag * v / a_max
        assert cmd.throttle == pytest.approx(0.01 * 8.0 / 3.0, abs=0.01)

    def test_slows_to_stop_at_route_end(self):
        agent = self.make()
        reply = agent.step(perception(actor(x=198.0, speed=8.0)))
        # remaining 2 m allows only sqrt(2 * 2 * 2) ~ 2.8 m/s, so brake hard
        assert reply.command.throttle == 0.0
        assert reply.command.brake > 0.3

    def test_hard_stop_inside_minimum_gap(self):
        agent = self.make()
        blocker = actor("npc_1", "npc", x=60.0)
        reply = agent.step(perception(actor(x=50.0, speed=8.0), [blocker]))
        # bumper gap = 10 - 4.8 = 5.2 m < 6 m
        assert reply.command.brake == 1.0
        assert reply.command.throttle == 0.0

    def test_proportional_braking_at_short_headway(self):
        agent = self.make()
        blocker = actor("npc_1", "npc", x=68.0)
        reply = agent.step(perception(actor(x=50.0, speed=8.0), [blocker]))
        gap = 18.0 - 4.8
        headway = gap / 8.0
        expected = (2.0 - headway) / 2.0
        assert reply.command.brake == pytest.approx(expected, abs=1e-9)
        assert reply.command.throttle == 0.0

    def test_ignores_traffic_outside_corridor(self):
        agent = self.make()
        beside = actor("npc_1", "npc", x=60.0, y=3.0)
        behind = actor("npc_2", "npc", x=40.0)
        far = actor("npc_3", "npc", x=90.0)
        reply = agent.step(perception(actor(x=50.0, speed=8.0),
                                      [beside, behind, far]))
        assert reply.command.brake == 0.0
        assert reply.command.throttle > 0.0

    def test_fault_ignore_obstacles_disables_braking(self):
        agent = self.make(fault_ignore_obstacles=True)
        blocker = actor("npc_1", "npc", x=60.0)
        reply = agent.step(perception(actor(x=50.0, speed=8.0), [blocker]))
        assert reply.command.brake == 0.0
        assert reply.command.throttle > 0.0

    def test_fault_ignore_junction_traffic_is_selective(self):
        crossing = actor("npc_1", "npc", x=60.0, heading=math.pi / 2)
        ahead = actor("npc_2", "npc", x=60.0)

        faulty = self.make(fault_ignore_junction_traffic=True)
        reply = faulty.step(perception(actor(x=50.0, speed=8.0), [crossing]))
        assert reply.command.brake == 0.0

        faulty = self.make(fault_ignore_junction_traffic=True)
        reply = faulty.step(perception(actor(x=50.0, speed=8.0), [ahead]))
        assert reply.command.brake == 1.0

        sound = self.make()
        reply = sound.step(perception(actor(x=50.0, speed=8.0), [crossing]))
        assert reply.command.brake == 1.0

    def test_far_off_route_holds_full_brake(self):
        agent = self.make()
        reply = agent.step(perception(actor(x=50.0, y=30.0, speed=8.0)))
        assert reply.command.brake == 1.0
        assert reply.command.throttle == 0.0
        assert reply.command.steering == 0.0
        assert agent.off_route

    def test_slows_for_curve_ahead(self):
        pts = [(0.0, 0.0), (30.0, 0.0)]
        pts += [(30.0 + 10.0 * math.sin(a), 10.0 - 10.0 * math.cos(a))
                for a in [i * (math.pi / 2) / 16 for i in range(1, 17)]]
        bendy = Polyline(pts)
        agent = ReferenceEgoAgent(bendy)
        reply = agent.step(perception(actor(x=25.0, speed=8.0)))
        assert reply.command.brake > 0.0
        assert reply.command.throttle == 0.0

    def test_speed_controller_integrates_over_configured_dt(self):
        coarse, fine = self.make(), self.make(dt=0.05)
        assert coarse.dt == 0.1
        start = perception(actor(x=50.0, speed=2.0))
        coarse.step(start)
        fine.step(start)
        # one step from rest: integral = speed error * dt
        assert coarse.speed_ctl.integral == pytest.approx(6.0 * 0.1)
        assert fine.speed_ctl.integral == pytest.approx(6.0 * 0.05)

    def test_steers_back_toward_route(self):
        agent = self.make()
        reply = agent.step(perception(actor(x=50.0, y=-2.0, speed=8.0)))
        assert reply.command.steering > 0.01  # left, back to the centerline


# ---------------------------------------------------------------------------
# route guidance memo: checked against the step that guides afresh each call


def _bits(value):
    """Type and IEEE bits of a float (they tell 0.0 from -0.0), else repr."""
    if isinstance(value, float):
        return type(value), struct.pack("<d", value)
    return type(value), repr(value)


def _reply_bits(reply):
    cmd = reply.command
    return (type(reply), _bits(reply.sim_time), type(cmd), _bits(cmd.throttle),
            _bits(cmd.brake), _bits(cmd.steering))


def _agent_bits(agent):
    """The state a step leaves behind in an agent."""
    ctl = agent.speed_ctl
    return agent.off_route, _bits(ctl.integral), _bits(ctl.prev_error)


def _ulps(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def _guided_perceptions(path, rng):
    """Seeded perceptions around ``path``: on and off the route, within 1 m
    of its end and past it, signed zeros and headings at and one ulp around
    +-pi, some with a vehicle ahead in the corridor."""
    egos = []

    def near(s, lateral, heading_noise, speed):
        x, y = path.point_at(s)
        heading = path.heading_at(s)
        nx, ny = -math.sin(heading), math.cos(heading)
        return actor(x=x + lateral * nx, y=y + lateral * ny,
                     heading=heading + heading_noise, speed=speed)

    for k in range(24):
        lateral = rng.uniform(-3.0, 3.0) if k % 6 else \
            rng.choice((-1.0, 1.0)) * rng.uniform(20.5, 40.0)  # off route
        egos.append(near(rng.uniform(0.0, path.length), lateral,
                         rng.uniform(-0.4, 0.4), rng.uniform(0.0, 15.0)))
    for u in (1.0, 0.999, 0.5, 0.01, 0.0):  # within 1 m of the end
        egos.append(near(path.length - u, rng.uniform(-1.0, 1.0), 0.0,
                         rng.uniform(0.0, 9.0)))
    x, y = path.point_at(path.length)
    egos.append(actor(x=x + 0.3, y=y - 0.2, speed=2.0))  # past the end
    for zero in (0.0, -0.0):
        x, y = path.point_at(path.length / 2)
        egos.append(actor(x=x, y=y, heading=zero, speed=zero,
                          acceleration=zero))
        egos.append(actor(x=zero, y=-zero, heading=-zero, speed=zero))
    x, y = path.point_at(path.length / 3)
    for heading in (*_ulps(math.pi), *_ulps(-math.pi)):
        egos.append(actor(x=x, y=y, heading=heading, speed=6.0))
    perceptions = []
    for k, ego in enumerate(egos):
        obstacles = []
        if k % 3 == 0:  # a vehicle ahead, at 3 to 30 m
            ahead = rng.uniform(3.0, 30.0)
            obstacles.append(actor(
                "npc_1", "npc", x=ego.x + ahead * math.cos(ego.heading),
                y=ego.y + ahead * math.sin(ego.heading),
                heading=ego.heading + rng.uniform(-1.2, 1.2), speed=3.0))
        perceptions.append(perception(ego, obstacles, t=round(0.1 * k, 9)))
    return perceptions


GUIDED_CRUISE_SPEEDS = (8.0, 13.5, 0.0, -0.0, 8)  # 8 as an int is not memoised
ROUTE = straight_route()


def test_guide_memo_equals_the_reference_step(guide_memo, bundled_missions,
                                              caplog):
    """Whole control sequences match the reference bit for bit, and so do
    the speed controller and the off-route latch after every step; the
    second pass over a sequence is served from the memo."""
    rng = random.Random(2718)
    steps = off_route = 0
    caplog.set_level(logging.WARNING, logger=bridge.__name__)
    for _, mission in bundled_missions:
        perceptions = _guided_perceptions(mission.path, rng)
        for cruise in GUIDED_CRUISE_SPEEDS:
            guide_memo.clear()
            settings = AgentSettings(cruise_speed=cruise)
            for run in range(2):
                agent = ReferenceEgoAgent(mission.path, settings)
                reference = ReferenceEgoAgent(mission.path, settings)
                for p in perceptions:
                    got = _reply_bits(agent.step(p))
                    assert got == _reply_bits(agent_step(reference, p)), p
                    assert _agent_bits(agent) == _agent_bits(reference)
                    steps += 1
                off_route += agent.off_route
                if run == 0:
                    stored = dict(guide_memo)
                    assert len(stored) == (type(cruise) is float) * len(
                        {struct.pack("<4d", p.ego.x, p.ego.y, p.ego.heading,
                                     p.ego.speed) for p in perceptions})
            assert guide_memo == stored  # the second run stored nothing
            assert all(guide_memo[k] is v for k, v in stored.items())
    assert steps == 2 * 32 * len(GUIDED_CRUISE_SPEEDS) * len(perceptions)
    assert off_route == 2 * 32 * len(GUIDED_CRUISE_SPEEDS)
    # one warning per agent, hit or miss
    assert len(caplog.records) == off_route


def test_guide_memo_hit_returns_the_stored_guidance(guide_memo, monkeypatch):
    projected = []
    project = Polyline.project

    def counted(line, x, y):
        projected.append((x, y))
        return project(line, x, y)

    monkeypatch.setattr(Polyline, "project", counted)
    route = straight_route()
    ego = actor(x=50.0, y=-2.0, heading=0.1, speed=6.0)
    first = route_guidance(route, ego, 8.0)
    assert first == (2.0, pure_pursuit_steering(ego, route, 50.0), 8.0)
    assert projected == [(50.0, -2.0)]  # a miss projects, as traced
    again = route_guidance(
        route, actor(x=50.0, y=-2.0, heading=0.1, speed=6.0), 8.0)
    assert again is first and len(projected) == 1
    assert list(guide_memo.values()) == [first]
    # one changed bit, or another route with the same points, is another key
    others = [
        (route, actor(x=math.nextafter(50.0, 0.0), y=-2.0, heading=0.1,
                      speed=6.0), 8.0),
        (route, actor(x=50.0, y=-2.0, heading=0.1, speed=-0.0), 8.0),
        (route, actor(x=50.0, y=-2.0, heading=0.1, speed=0.0), 8.0),
        (route, actor(x=50.0, y=-2.0, heading=-0.0, speed=6.0), 8.0),
        (route, actor(x=50.0, y=-2.0, heading=0.0, speed=6.0), 8.0),
        (route, ego, math.nextafter(8.0, 9.0)),
        (straight_route(), ego, 8.0),
    ]
    for args in others:
        assert route_guidance(*args) is not first
    assert len(guide_memo) == 1 + len(others) == len(projected)
    # a far ego stores its distance alone
    far = route_guidance(route, actor(x=50.0, y=30.0), 8.0)
    assert far == (30.0, None, None)
    assert route_guidance(route, actor(x=50.0, y=30.0), 8.0) is far


def test_guide_memo_hit_still_warns_once_per_agent(guide_memo, caplog):
    caplog.set_level(logging.WARNING, logger=bridge.__name__)
    far = perception(actor(x=50.0, y=30.0, speed=8.0), t=1.5)
    for _ in range(2):  # the second agent is served from the memo
        agent = ReferenceEgoAgent(ROUTE)
        for _ in range(3):
            assert agent.step(far).command == ControlCommand(0.0, 1.0, 0.0)
        assert agent.off_route
    assert len(guide_memo) == 1
    assert [r.getMessage() for r in caplog.records] == \
        ["ego 30.0 m off route at t=1.5, holding full brake"] * 2


class Tagged(float):
    pass


class SubState(ActorState):
    pass


class SubPolyline(Polyline):
    __slots__ = ()


def _with_heading(value):
    ego = actor(x=50.0, y=-2.0, heading=0.1, speed=6.0)
    ego.__dict__["heading"] = value  # as if built around the normalising
    return ego


def _bypassing_guidance():
    """Inputs equal to ``ROUTE``, ``actor(x=50.0, y=-2.0, heading=0.1,
    speed=6.0)`` and a cruise speed of 8.0 as keys, but not exact: each must
    be guided afresh."""
    def ego(**change):
        return actor(**(dict(x=50.0, y=-2.0, heading=0.1, speed=6.0)
                        | change))

    return [
        ("int x", ROUTE, ego(x=50), 8.0),
        ("int y", ROUTE, ego(y=-2), 8.0),
        ("bool speed", ROUTE, ego(speed=True), 8.0),
        ("float-subclass x", ROUTE, ego(x=Tagged(50.0)), 8.0),
        ("float-subclass speed", ROUTE, ego(speed=Tagged(6.0)), 8.0),
        ("float-subclass heading", ROUTE, _with_heading(Tagged(0.1)), 8.0),
        ("numpy x", ROUTE, ego(x=np.float64(50.0)), 8.0),
        ("numpy y", ROUTE, ego(y=np.float64(-2.0)), 8.0),
        ("numpy heading", ROUTE, _with_heading(np.float64(0.1)), 8.0),
        ("subclass state",
         ROUTE, SubState("ego", "ego", 50.0, -2.0, 0.1, 6.0), 8.0),
        ("int cruise speed", ROUTE, ego(), 8),
        ("bool cruise speed", ROUTE, ego(), True),
        ("float-subclass cruise speed", ROUTE, ego(), Tagged(8.0)),
        ("numpy cruise speed", ROUTE, ego(), np.float64(8.0)),
        ("subclass route", SubPolyline(ROUTE.points), ego(), 8.0),
    ]


@pytest.mark.parametrize("name,route,ego,cruise", _bypassing_guidance(),
                         ids=[case[0] for case in _bypassing_guidance()])
def test_guide_memo_is_bypassed_for_inexact_inputs(guide_memo, name, route,
                                                   ego, cruise):
    exact = route_guidance(
        ROUTE, actor(x=50.0, y=-2.0, heading=0.1, speed=6.0), 8.0)
    stored = dict(guide_memo)
    for _ in range(2):
        assert route_guidance(route, ego, cruise) is not exact
        agent = ReferenceEgoAgent(route, AgentSettings(cruise_speed=cruise))
        reference = ReferenceEgoAgent(route,
                                      AgentSettings(cruise_speed=cruise))
        p = perception(ego, t=0.5)
        assert _reply_bits(agent.step(p)) == \
            _reply_bits(agent_step(reference, p))
        assert guide_memo == stored
        assert all(guide_memo[k] is v for k, v in stored.items())


def _guided_case(rng, route):
    ego = actor(x=rng.uniform(-10.0, 210.0), y=rng.uniform(-25.0, 25.0),
                heading=rng.uniform(-math.pi, math.pi),
                speed=rng.uniform(0.0, 15.0))
    return perception(ego, t=0.1)


def test_guide_memo_stays_bounded_with_every_guidance_exact(guide_memo):
    rng = random.Random(77)
    limit = bridge.GUIDE_MEMO_LIMIT
    route = straight_route()
    cases = [_guided_case(rng, route) for _ in range(3 * limit)]
    settings = AgentSettings()
    for _ in range(2):  # the second pass hits what the last clear left
        for p in cases:
            expected = agent_step(ReferenceEgoAgent(route, settings), p)
            got = ReferenceEgoAgent(route, settings).step(p)
            assert _reply_bits(got) == _reply_bits(expected)
            assert len(guide_memo) <= limit
    assert len(guide_memo) == limit


def test_guide_memo_shared_by_threads_guides_exactly(guide_memo):
    """More threads than cores, switching often, over more inputs than the
    memo holds, so the threads race its clears too."""
    threads_n = 2 * (os.cpu_count() or 1) + 2
    limit = bridge.GUIDE_MEMO_LIMIT
    rng = random.Random(21)
    route = straight_route()
    settings = AgentSettings()
    pool = []
    for _ in range(limit + limit // 2):
        p = _guided_case(rng, route)
        expected = agent_step(ReferenceEgoAgent(route, settings), p)
        pool.append((p, _reply_bits(expected)))
    wrong = []

    def drive(seed):
        local = random.Random(seed)
        for _ in range(4 * limit // threads_n):
            p, expected = local.choice(pool)
            got = ReferenceEgoAgent(route, settings).step(p)
            if _reply_bits(got) != expected:
                wrong.append(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(seed,))
                   for seed in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(guide_memo) <= limit + threads_n - 1


def test_guide_memo_keeps_campaign_logs(guide_memo, step_memo, tmp_path,
                                        monkeypatch):
    """An avfuzzer campaign writes the same log cold, warm and after the
    memo is cleared, and the warm run stores no new guidance.  Each
    campaign builds its own mission path, which is a new key, so the runs
    here share one path to be warm."""
    config = load_config(CONFIG_DIR / "avfuzzer.yaml")
    settings, _, params = build_execution(config)
    path = mission_path(settings.template, settings.lane_map)
    monkeypatch.setattr(campaign_module, "mission_path",
                        lambda template, lane_map: path)

    def campaign(name):
        ctx = CampaignContext(settings, CampaignBudget(max_evaluations=12),
                              seed=3, output_dir=tmp_path / name)
        run_campaign("avfuzzer", ctx, params)
        return (tmp_path / name / "evaluations.json").read_bytes()

    cold = campaign("cold")
    stored = dict(guide_memo)
    assert stored and all(key[0] is path for key in stored)
    assert campaign("warm") == cold
    assert guide_memo == stored
    assert all(guide_memo[key] is value for key, value in stored.items())
    guide_memo.clear()
    step_memo.clear()
    assert campaign("cleared") == cold
    assert guide_memo.keys() == stored.keys()


# ---------------------------------------------------------------------------
# sessions and server


def agent_factory():
    return ReferenceEgoAgent(straight_route())


def scripted_frames():
    """A short synthetic approach toward a slowing lead vehicle."""
    frames = []
    for i in range(8):
        t = round(0.1 * i, 9)
        ego = actor(x=50.0 + 0.8 * i, speed=8.0 - 0.2 * i)
        lead = actor("npc_1", "npc", x=75.0 + 0.3 * i, speed=3.0)
        frames.append(perception(ego, [lead], t=t))
    return frames


class TestSessions:
    def test_default_timeout_value(self):
        assert bridge.DEFAULT_TIMEOUT_S == 5.0

    def test_inprocess_lockstep_counters(self):
        session = InProcessSession(agent_factory)
        for i, frame in enumerate(scripted_frames()):
            reply = session.request(frame)
            assert isinstance(reply, ControlMessage)
            assert reply.sim_time == frame.sim_time
            assert session.sent == session.received == i + 1
            assert session.in_flight == 0
        session.close()

    def test_tcp_matches_inprocess_byte_for_byte(self):
        frames = scripted_frames()
        inproc = InProcessSession(agent_factory)
        local_replies = [encode(inproc.request(f)) for f in frames]
        inproc.close()

        server = BridgeServer(agent_factory)
        try:
            session = connect(server.endpoint, timeout=5.0)
            remote_replies = [encode(session.request(f)) for f in frames]
            assert session.in_flight == 0
            session.close()
        finally:
            server.close()
        assert remote_replies == local_replies

    def test_each_connection_gets_a_fresh_agent(self):
        frames = scripted_frames()
        server = BridgeServer(agent_factory)
        try:
            first = connect(server.endpoint)
            replies_a = [first.request(f) for f in frames]
            first.close()
            second = connect(server.endpoint)
            replies_b = [second.request(f) for f in frames]
            second.close()
        finally:
            server.close()
        assert replies_a == replies_b

    def test_timeout_raises_agent_timeout(self):
        class SleepyAgent:
            def step(self, perception_msg):
                time.sleep(1.0)
                return ControlMessage(perception_msg.sim_time, ControlCommand())

        server = BridgeServer(SleepyAgent)
        try:
            session = TcpSession(*server.address, timeout=0.2)
            with pytest.raises(AgentTimeoutError):
                session.request(scripted_frames()[0])
            session.close()
        finally:
            server.close()

    @pytest.mark.parametrize("fault", ["nan-command", "nan-sim-time", "raises",
                                       "none-reply"])
    def test_faulty_agent_drops_its_connection_with_a_log(self, caplog,
                                                          monkeypatch, fault):
        class FaultyAgent:
            def step(self, perception_msg):
                if fault == "nan-command":  # ValueError from ControlCommand
                    return ControlMessage(perception_msg.sim_time,
                                          ControlCommand(math.nan, 0.0, 0.0))
                if fault == "nan-sim-time":  # CanonicalError from encode
                    return ControlMessage(math.nan, ControlCommand())
                if fault == "raises":  # the agent's own fault
                    raise RuntimeError("agent lost its map")
                return None  # TypeError from encode

        uncaught = []
        monkeypatch.setattr("threading.excepthook", uncaught.append)
        server = BridgeServer(FaultyAgent)
        try:
            with caplog.at_level("WARNING", logger="scenofuzz.bridge"):
                session = connect(server.endpoint, timeout=5.0)
                with pytest.raises(FrameError, match="connection closed"):
                    session.request(scripted_frames()[0])
                session.close()
            # the server goes on serving other connections
            server.agent_factory = agent_factory
            session = connect(server.endpoint, timeout=5.0)
            assert isinstance(session.request(scripted_frames()[0]),
                              ControlMessage)
            session.close()
        finally:
            server.close()
        named = {"raises": "agent lost its map",
                 "none-reply": "cannot encode NoneType"}.get(fault, "finite")
        assert any("bridge connection dropped" in r.getMessage()
                   and named in r.getMessage() and r.exc_info is not None
                   for r in caplog.records)
        assert uncaught == []

    def test_failing_agent_factory_closes_the_connection(self, caplog):
        def broken_factory():
            raise RuntimeError("no route for this agent")

        server = BridgeServer(broken_factory)
        try:
            with caplog.at_level("ERROR", logger="scenofuzz.bridge"):
                session = connect(server.endpoint, timeout=5.0)
                started = time.monotonic()
                with pytest.raises(FrameError):
                    session.request(scripted_frames()[0])
                elapsed = time.monotonic() - started
                session.close()
        finally:
            server.close()
        assert elapsed < 1.0  # not the 5 s timeout
        assert any("could not be built" in r.getMessage()
                   and str(r.exc_info[1]) == "no route for this agent"
                   for r in caplog.records)

    def test_unreachable_endpoint_names_itself(self):
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ConnectionError) as caught:
            connect(f"127.0.0.1:{port}", timeout=5.0)
        assert str(caught.value).startswith(
            f"cannot reach the agent at 127.0.0.1:{port}: ")
        assert isinstance(caught.value.__cause__, OSError)

    def test_inproc_registry_and_endpoint_parsing(self):
        register_inproc_agent("test_reference", agent_factory)
        session = connect("inproc:test_reference")
        reply = session.request(scripted_frames()[0])
        assert isinstance(reply, ControlMessage)
        session.close()
        with pytest.raises(ValueError):
            connect("inproc:nope")
        with pytest.raises(ValueError):
            connect("garbage")

    def test_endpoint_env_override(self, monkeypatch):
        monkeypatch.delenv(bridge.ENDPOINT_ENV_VAR, raising=False)
        assert resolve_endpoint("inproc:default") == "inproc:default"
        monkeypatch.setenv(bridge.ENDPOINT_ENV_VAR, "10.0.0.1:9000")
        assert resolve_endpoint("inproc:default") == "10.0.0.1:9000"


# ---------------------------------------------------------------------------
# the in-process session against the round trip it replaced


class RoundTripSession(BridgeSession):
    """The in-process session as it was: both frames decoded back."""

    def __init__(self, agent_factory):
        super().__init__()
        self.agent = agent_factory()

    def request(self, perception_msg):
        self.sent += 1
        decoded = decode(encode(perception_msg))
        reply = self.agent.step(decoded)
        control = decode(encode(reply))
        if not isinstance(control, ControlMessage):
            raise FrameError("agent answered with a non-control message")
        self.received += 1
        return control


def seeded_perception(rng):
    """An ego near the straight route with a few actors around it."""
    ego = actor(x=rng.uniform(0.0, 220.0), y=rng.uniform(-8.0, 8.0),
                heading=rng.uniform(-math.pi, math.pi),
                speed=rng.uniform(0.0, 15.0), acceleration=rng.uniform(-8.0, 3.0))
    others = [actor(f"npc_{i}", rng.choice(("npc", "static")),
                    x=ego.x + rng.uniform(-10.0, 40.0), y=rng.uniform(-6.0, 6.0),
                    heading=rng.uniform(-math.pi, math.pi),
                    speed=rng.uniform(0.0, 12.0), length=rng.uniform(0.5, 12.0),
                    width=rng.uniform(0.5, 3.0))
              for i in range(rng.randrange(5))]
    return perception(ego, others, t=random_float(rng))


class ControlSubclass(ControlMessage):
    pass


class TestInProcessReference:
    def test_replies_equal_reference_on_scripted_and_seeded_frames(self):
        rng = random.Random(20261018)
        frames = scripted_frames() + [seeded_perception(rng) for _ in range(400)]
        session = InProcessSession(agent_factory)
        reference = RoundTripSession(agent_factory)
        for frame in frames:
            reply = session.request(frame)
            expected = reference.request(frame)
            assert reply == expected and repr(reply) == repr(expected)
            assert encode(reply) == encode(expected)
        assert session.sent == session.received == len(frames)
        assert reference.sent == reference.received == len(frames)

    @pytest.mark.parametrize("reply,ends", [
        (ControlMessage(0, ControlCommand()), "ok"),
        (ControlMessage(0.0, types.SimpleNamespace(throttle=2.0, brake=0.0,
                                                   steering=0.0)), "ok"),
        (ControlSubclass(0.0, ControlCommand(0.5, 0.0, 0.1)), "ok"),
        (perception(actor()), FrameError),
        (None, TypeError),
        (ControlMessage(math.nan, ControlCommand()), canonical.CanonicalError),
        (ControlMessage("0.0", ControlCommand()), FrameError),
    ], ids=["int-sim-time", "duck-command", "subclass", "perception", "none",
            "nan-sim-time", "string-sim-time"])
    def test_odd_replies_end_like_the_reference(self, reply, ends):
        class FixedAgent:
            def step(self, perception_msg):
                return reply

        frame = scripted_frames()[0]
        outcome = _outcome(InProcessSession(FixedAgent).request, frame)
        assert outcome == _outcome(RoundTripSession(FixedAgent).request, frame)
        assert outcome[0] == ends
        if ends == "ok":  # converted by the decode, as TCP would
            assert type(outcome[1]) is ControlMessage
            assert type(outcome[1].sim_time) is float
            assert type(outcome[1].command) is ControlCommand
