from __future__ import annotations

import enum
import json
import math
import os
import random
import re
import struct
import sys
import threading
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
        out.append(int.__repr__(value))
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


class Seven(int):
    def __str__(self):
        return "seven"


class Shade(enum.IntEnum):
    A = 1


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
    # an int subclass writes its value, not its own str(): an IntEnum
    # member's str() is "Shade.A" on Python 3.10 and "1" from 3.11
    [Seven(7)], {"a": Shade.A},
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


# ---------------------------------------------------------------------------
# the float memo: a hit must write the text a fresh format writes


@pytest.fixture
def memo():
    """The module's float memo, emptied so each test sees its own stores."""
    canonical._float_texts.clear()
    return canonical._float_texts


MEMO_FLOATS = [1.5, 0.1 + 0.2, -273.15, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e16 + 2.0,
               1e17, 99999999999999984.0, 1.7976931348623157e308, 4.0]


@pytest.mark.parametrize("value", MEMO_FLOATS, ids=repr)
def test_memo_second_call_writes_the_first_text(memo, value):
    first = canonical.dumps(value)
    assert memo[value] == first
    assert canonical.dumps(value) == first == reference_dumps(value)
    assert canonical.dumps([value, value]) == f"[{first},{first}]"


def test_memo_keeps_the_sign_of_zero(memo):
    assert [canonical.dumps(v) for v in (-0.0, 0.0, -0.0)] == \
        ["-0.0", "0.0", "-0.0"]
    assert [canonical.dumps(v) for v in (0.0, -0.0, 0.0)] == \
        ["0.0", "-0.0", "0.0"]
    assert canonical.dumps({"a": 0.0, "b": -0.0}) == '{"a":0.0,"b":-0.0}'
    assert memo == {}


def test_memo_is_not_read_for_other_types(memo):
    class Tagged(float):
        def __format__(self, spec):
            return "4.00"

    assert canonical.dumps(4.0) == "4.0"
    assert canonical.dumps(1.0) == "1.0"
    assert memo == {4.0: "4.0", 1.0: "1.0"}
    # each is equal to a stored key and hashes like it
    assert canonical.dumps(4) == "4"
    assert canonical.dumps(True) == "true"
    assert canonical.dumps(Count(4)) == "4"
    assert canonical.dumps(Tagged(4.0)) == "4.00" == reference_dumps(Tagged(4.0))
    assert canonical.dumps(np.float64(4.0)) == "4.0"
    assert canonical.dumps(np.float64(2.5)) == "2.5"
    assert canonical.dumps(Tagged(2.5)) == "4.00"
    assert memo == {4.0: "4.0", 1.0: "1.0"}


def test_memo_never_stores_non_finite(memo):
    for _ in range(3):
        for value in (float("nan"), math.inf, -math.inf):
            expected = _outcome(reference_dumps, value)
            assert expected[0] is canonical.CanonicalError
            assert _outcome(canonical.dumps, value) == expected
            assert _outcome(canonical.dump_value, [1.5, value]) == expected
    assert memo == {1.5: "1.5"}


def test_memo_stays_bounded_with_every_text_exact(memo):
    rng = random.Random(7)
    values = [random_float(rng) for _ in range(3 * canonical.FLOAT_MEMO_LIMIT)]
    for _ in range(2):  # the second pass hits what the last clear left
        for value in values:
            assert canonical.dumps(value) == reference_dumps(value)
            assert len(memo) <= canonical.FLOAT_MEMO_LIMIT
    assert memo and all(text == reference_dumps(value)
                        for value, text in memo.items())


def test_memo_shared_by_threads_writes_exact_texts(memo):
    """More threads than cores, switching often, over one value pool."""
    threads_n = 2 * (os.cpu_count() or 1) + 2
    rng = random.Random(11)
    # pairs, not a dict: 0.0 and -0.0 would share one key
    pool = [(value, reference_dumps(value)) for value in
            (random_float(rng) for _ in range(canonical.FLOAT_MEMO_LIMIT // 2))]
    wrong = []

    def encode(seed):
        local = random.Random(seed)
        for _ in range(3 * canonical.FLOAT_MEMO_LIMIT // threads_n):
            value, text = local.choice(pool)
            if canonical.dumps(value) != text:
                wrong.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(seed,))
                   for seed in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert all(text == reference_dumps(value) for value, text in memo.items())
    assert len(memo) <= canonical.FLOAT_MEMO_LIMIT + threads_n - 1
