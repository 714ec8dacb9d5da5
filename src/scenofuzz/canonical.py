"""Canonical JSON serialization.

Every artifact that gets hashed, diffed, or byte-compared (scenario files,
recordings, wire frames, evaluation logs) goes through this encoder so that
the same value always produces the same bytes:

* object keys sorted,
* no insignificant whitespace,
* floats rendered with 17 significant digits (lossless for IEEE doubles),
* floats always carry a decimal point or exponent so the type survives a
  round trip.

The encoder dispatches on exact types first (floats, strings, dicts, lists,
tuples, ints) and falls back to ``isinstance`` checks for everything else
(bools, ``None``, subclasses such as ``numpy.float64``), so the common case
costs one ``type()`` lookup per value.

An exact ``float``'s text is looked up in a module-level memo before it is
formatted, because the same values come back in every frame, recording and
evaluation (the ``sim_time`` grid, vehicle sizes, a trajectory the ego
repeats).  The text is a function of the float's bits alone, so a hit writes
the same bytes a fresh format would.  The memo is cleared whenever it holds
``FLOAT_MEMO_LIMIT`` texts.  Two floats with different bits compare equal
only as ``0.0`` and ``-0.0``, so neither zero is ever stored, and a non-finite
value is never stored either: it raises :class:`CanonicalError` every time.
Worker threads share the memo; a dict's get, set and clear each hold the
interpreter lock, so a lookup that races a clear only misses, and threads
that race past the size check can leave at most one extra text each.

Every document read back (maps, scenarios, recordings, checkpoints) is
checked through :class:`Cursor`, so a fault is named the same way in each:
by the JSON pointer of the value at fault.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import AbstractSet, Any, Callable

# The C function behind json.dumps(s, ensure_ascii=False): same text.
_encode_str = json.encoder.encode_basestring
_isfinite = math.isfinite
_copysign = math.copysign

FLOAT_MEMO_LIMIT = 8192  # texts held before the memo is cleared
_float_texts: dict[float, str] = {}
_float_text = _float_texts.get


class CanonicalError(ValueError):
    """Raised for values that have no canonical representation."""


def _format_float(value: float) -> str:
    if not _isfinite(value):
        raise CanonicalError(f"non-finite float not allowed: {value!r}")
    text = format(value, ".17g")
    # keep the float/int distinction through a parse round trip
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def finite_number(value: Any) -> float | None:
    """``value`` as a finite float, or None if it is not a finite number.

    Bools are not numbers here, and a JSON integer too large for a float
    counts as not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if _isfinite(number) else None


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    raise CanonicalError(f"object keys must be strings, got {key!r}")


def dump_value(value: Any) -> str:
    """Canonical text of one value, with the text and errors of :func:`dumps`.

    Writers that lay out a document's keys themselves (the bridge's frames,
    recordings) call this once per field; an exact finite float or a string
    is written by the first two checks.
    """
    kind = type(value)
    if kind is float:
        text = _float_text(value)
        if text is None:
            if not value:  # 0.0 == -0.0 as keys, so neither zero is stored
                return "0.0" if _copysign(1.0, value) > 0.0 else "-0.0"
            text = _format_float(value)  # raises before a non-finite is stored
            if len(_float_texts) >= FLOAT_MEMO_LIMIT:
                _float_texts.clear()
            _float_texts[value] = text
        return text
    if kind is str:
        return _encode_str(value)
    if kind is dict:
        return "{" + ",".join([
            (_encode_str(k) if type(k) is str else _key(k)) + ":"
            + dump_value(value[k]) for k in sorted(value)]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([dump_value(item) for item in value]) + "]"
    if kind is int:
        return str(value)
    return _dump_other(value)


def _dump_other(value: Any) -> str:
    """Bools, None and subclasses, in the order the type checks always had."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # not a subclass's own __str__
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([dump_value(item) for item in value]) + "]"
    if isinstance(value, dict):
        return "{" + ",".join([_key(k) + ":" + dump_value(value[k])
                               for k in sorted(value)]) + "}"
    raise CanonicalError(f"unsupported type {type(value).__name__}")


def dumps(value: Any) -> str:
    """Serialize ``value`` to canonical JSON text."""
    return dump_value(value)


def dump_bytes(value: Any) -> bytes:
    return dumps(value).encode("utf-8")


def loads(text: str | bytes) -> Any:
    """Parse JSON text. Inverse of :func:`dumps` for supported values."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return json.loads(text)


def sha256(value: Any) -> str:
    """Hex digest of the canonical serialization of ``value``."""
    return hashlib.sha256(dump_bytes(value)).hexdigest()


class Cursor:
    """Checked reads of a parsed JSON document.

    Each read returns the value or raises ``error(message)``, the message
    led by the value's JSON pointer, as in ``/lanes/3/width: expected a
    finite number > 0``.
    """

    __slots__ = ("doc", "error", "path")

    def __init__(self, doc: Any, error: Callable[[str], Exception],
                 path: str = ""):
        self.doc = doc
        self.error = error
        self.path = path

    def fail(self, message: str) -> Exception:
        return self.error(f"{self.path or '/'}: {message}")

    def __getitem__(self, key: str) -> "Cursor":
        return Cursor(self.doc[key], self.error, f"{self.path}/{key}")

    def keys(self, required: AbstractSet[str],
             optional: AbstractSet[str] = frozenset(),
             closed: bool = True) -> "Cursor":
        """An object with every ``required`` key and, if ``closed``, no key
        outside ``required`` and ``optional``."""
        doc = self.doc
        if not isinstance(doc, dict):
            raise self.fail("expected an object")
        missing = required - doc.keys()
        if missing:
            raise self.fail(f"missing keys {sorted(missing)}")
        unknown = doc.keys() - required - optional
        if closed and unknown:
            raise self.fail(f"unknown keys {sorted(unknown)}")
        return self

    def items(self, min_items: int = 0) -> list["Cursor"]:
        if not isinstance(self.doc, list):
            raise self.fail("expected an array")
        if len(self.doc) < min_items:
            raise self.fail(f"expected at least {min_items} items")
        error, path = self.error, self.path
        return [Cursor(v, error, f"{path}/{i}") for i, v in enumerate(self.doc)]

    def text(self) -> str:
        if not isinstance(self.doc, str) or not self.doc:
            raise self.fail("expected a non-empty string")
        return self.doc

    def integer(self) -> int:
        if isinstance(self.doc, bool) or not isinstance(self.doc, int):
            raise self.fail("expected an integer")
        return self.doc

    def number(self, low: float | None = None, high: float | None = None,
               above: float | None = None) -> float:
        """A finite number as a float, ``>= low``, ``<= high`` and
        ``> above`` where given."""
        value = finite_number(self.doc)
        if value is not None and (above is None or value > above) \
                and (low is None or value >= low) \
                and (high is None or value <= high):
            return value
        bounds = " and ".join(f"{op} {limit:g}" for op, limit in
                              ((">", above), (">=", low), ("<=", high))
                              if limit is not None)
        if bounds:
            raise self.fail(f"expected a finite number {bounds}")
        if isinstance(self.doc, bool) or \
                not isinstance(self.doc, (int, float)):
            raise self.fail("expected a number")
        raise self.fail("expected a finite number")

    def numbers(self, count: int | None = None) -> tuple[float, ...]:
        """An array of finite numbers as floats, of ``count`` items if given."""
        if isinstance(self.doc, list) and count in (None, len(self.doc)):
            values = tuple(map(finite_number, self.doc))
            if None not in values:
                return values
        size = "" if count is None else f"{count} "
        raise self.fail(f"expected an array of {size}finite numbers")
