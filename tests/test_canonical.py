from __future__ import annotations

import json
import math
import random
import re
import struct
from collections import OrderedDict, namedtuple

import numpy as np
import pytest

from scenofuzz import canonical


def test_sorted_keys_compact():
    assert canonical.dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_float_formatting_keeps_type_through_round_trip():
    for value in [0.1, 1.0 / 3.0, 2.0, -0.0, 1e20, 5e-324, -273.15]:
        text = canonical.dumps(value)
        back = canonical.loads(text)
        assert isinstance(back, float), text
        assert back == value or (math.isnan(back) and math.isnan(value))
    assert canonical.loads(canonical.dumps(7)) == 7
    assert isinstance(canonical.loads(canonical.dumps(7)), int)


def test_nested_round_trip_exact():
    doc = {"xs": [0.1 + 0.2, 1e-17, 3.0], "flag": True, "name": "aé",
           "inner": {"z": None, "a": [1, 2.5]}}
    assert canonical.loads(canonical.dumps(doc)) == doc


def test_repeated_serialization_identical():
    doc = {"values": [k * 0.1 for k in range(50)]}
    assert canonical.dumps(doc) == canonical.dumps(doc)
    assert canonical.sha256(doc) == canonical.sha256(doc)


def test_rejects_non_finite():
    with pytest.raises(canonical.CanonicalError):
        canonical.dumps(float("nan"))
    with pytest.raises(canonical.CanonicalError):
        canonical.dumps({"x": float("inf")})


def test_rejects_unsupported_types():
    with pytest.raises(canonical.CanonicalError):
        canonical.dumps({1: "non-string key"})
    with pytest.raises(canonical.CanonicalError):
        canonical.dumps(object())


# ---------------------------------------------------------------------------
# reference encoder: the recursive isinstance chain canonical.dumps replaced.
# The fast encoder must produce the same text and raise the same errors.


def _reference_float(value):
    if math.isnan(value) or math.isinf(value):
        raise canonical.CanonicalError(f"non-finite float not allowed: {value!r}")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _reference_encode(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_reference_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_encode(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise canonical.CanonicalError(
                    f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _reference_encode(value[key], out)
        out.append("}")
    else:
        raise canonical.CanonicalError(
            f"unsupported type {type(value).__name__}")


def reference_dumps(value):
    out = []
    _reference_encode(value, out)
    return "".join(out)


class Label(str):
    pass


class Count(int):
    pass


Pair = namedtuple("Pair", "a b")

STRINGS = ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline\r",
           "\x00\x01\x1f\x7f", "café üß", "  ",
           "中文", "astral \U0001F697 \U00010000", "\ud800 lone"]


def random_float(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return rng.uniform(-100.0, 100.0)
    if pick == 1:
        return float(rng.randrange(-10**6, 10**6))
    if pick == 2:
        return rng.choice([0.0, -0.0, 1e16, 1e17, 5e-324, 1.7976931348623157e308,
                           -2.2250738585072014e-308, 0.1, 1.0 / 3.0])
    while True:  # any finite bit pattern, subnormals included
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            return value


def random_value(rng, depth=0):
    pick = rng.randrange(14 if depth < 4 else 9)
    if pick <= 2:
        return random_float(rng)
    if pick == 3:
        return rng.choice([0, -1, 7, 2**63, 2**64 + 1, -(2**70), 10**30])
    if pick == 4:
        return rng.choice([True, False, None])
    if pick == 5:
        return rng.choice(STRINGS)
    if pick == 6:
        return np.float64(random_float(rng))
    if pick == 7:
        return rng.choice([Label("sub"), Count(3), Count(-12)])
    if pick == 8:
        return "".join(chr(rng.choice([rng.randrange(32, 127),
                                       rng.randrange(0, 0x2000),
                                       rng.randrange(0x10000, 0x110000)]))
                       for _ in range(rng.randrange(8)))
    if pick == 9:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if pick == 10:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if pick == 11:
        return Pair(random_value(rng, depth + 1), random_value(rng, depth + 1))
    keys = rng.sample(STRINGS + ["x", "y", "heading", "speed", "z"],
                      rng.randrange(6))
    doc = {key: random_value(rng, depth + 1) for key in keys}
    return OrderedDict(doc) if pick == 12 else doc


def test_matches_reference_on_seeded_nested_values():
    rng = random.Random(20241216)
    for _ in range(20000):
        value = random_value(rng)
        assert canonical.dumps(value) == reference_dumps(value)


EDGE_CASES = [
    -0.0, 0.0, 1e16, 1e17, 5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.0, 0.1 + 0.2, 2**64, 2**64 + 1, -(2**100),
    True, False, None, 0, -1,
    "", 'esc " \\ / \b \f \n \r \t \x00 \x1f', "café", "中",
    "\U0001F697\U0010FFFF", "\ud800", Label("sub"), Count(5),
    (1.0, "a", (2, [3.5])), [], {}, (), [[[]]], {"": {"": []}},
    np.float64(0.1), np.float64(-0.0), np.float64(1e16), [np.float64(2.0)],
    {"b": 1, "a": [True, None, 1.5], "é": {"z": -0.0, "Z": 1e-7}},
    OrderedDict([("b", 1), ("a", 2)]), Pair(1.0, "x"),
]


@pytest.mark.parametrize("value", EDGE_CASES, ids=repr)
def test_matches_reference_on_edge_cases(value):
    assert canonical.dumps(value) == reference_dumps(value)


ERROR_CASES = [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),
    [1.0, float("-inf")], {"x": {"y": [float("nan")]}},
    {1: "int key"}, {None: 0}, {(1, 2): 0}, {2: "a", 1: "b"},
    object(), {1, 2}, b"bytes", np.int64(3), np.array([1.0]), 1 + 2j,
    {"a": float("nan"), "b": object()}, [object(), float("nan")],
    {"a": [1, {"b": set()}]}, {1: 0, "a": 0},
]


def _outcome(encode, value):
    try:
        return "ok", encode(value)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _stable_id(value):
    """repr without object addresses, which change on every collection."""
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))


@pytest.mark.parametrize("value", ERROR_CASES, ids=_stable_id)
def test_raises_like_reference(value):
    expected = _outcome(reference_dumps, value)
    assert expected[0] != "ok"
    assert _outcome(canonical.dumps, value) == expected


def test_dump_bytes_is_utf8_of_dumps():
    doc = {"name": "café \U0001F697", "x": 1.5}
    assert canonical.dump_bytes(doc) == canonical.dumps(doc).encode("utf-8")
    assert canonical.loads(canonical.dump_bytes(doc)) == doc
