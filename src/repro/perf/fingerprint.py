"""Stable content fingerprints for planner inputs.

A cache key must identify a planning problem by *content*: two
:class:`~repro.models.spec.ModelSpec` objects built by the same factory in
different processes must hash identically, and changing any field — a layer's
FLOP count, a topology bandwidth, one config knob — must change the hash.
Python's builtin ``hash`` is salted per process and ``repr`` is neither
canonical nor complete, so neither qualifies.  Instead every supported value
is serialised to a canonical, type-tagged, length-prefixed byte string and
digested with SHA-256.

Supported values: ``None``, ``bool``, ``int``, ``float`` (hex encoding, so
``nan``/``inf`` and signed zeros are distinguished exactly), ``str``,
``bytes``, ``Enum``, sequences, sets (element-order independent), mappings
(key-order independent), frozen dataclasses (tagged with their qualified
class name), and numpy scalars/arrays.  A dataclass that is not
``frozen=True`` raises ``TypeError``: an instance mutated after hashing
would sit in the cache under a key that no longer describes it, so the
encoder, which visits every dataclass it hashes, is where immutability is
enforced.  A dataclass may list removed fields with
the one value they always held in ``__mobius_retired_fields__``; they are
encoded after the live fields, so removing a constant field keeps every
digest.  Arbitrary objects can opt in by defining
``__mobius_fingerprint__()`` returning any supported value — see
:class:`repro.hardware.topology.Topology`.  Everything else raises
``TypeError`` rather than silently producing an unstable key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math

import numpy as np

__all__ = ["canonical_bytes", "fingerprint"]

_SEPARATOR = b"\x00"


def _tag(out: bytearray, tag: bytes, payload: bytes = b"") -> None:
    out += tag
    out += str(len(payload)).encode("ascii")
    out += _SEPARATOR
    out += payload


def _encode(out: bytearray, value) -> None:
    if value is None:
        _tag(out, b"N")
    elif isinstance(value, bool):
        _tag(out, b"B", b"1" if value else b"0")
    elif isinstance(value, int):
        _tag(out, b"i", str(value).encode("ascii"))
    elif isinstance(value, float):
        # float.hex() is exact and canonical; it keeps nan/inf distinct from
        # every finite value and -0.0 distinct from 0.0.
        encoded = value.hex() if math.isfinite(value) else repr(value)
        _tag(out, b"f", encoded.encode("ascii"))
    elif isinstance(value, str):
        _tag(out, b"s", value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        _tag(out, b"b", bytes(value))
    elif isinstance(value, enum.Enum):
        _tag(out, b"E", _qualname(type(value)).encode("utf-8"))
        _encode(out, value.value)
    elif isinstance(value, np.ndarray):
        _tag(out, b"A", str(value.dtype).encode("ascii"))
        _encode(out, value.shape)
        _tag(out, b"a", np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _encode(out, value.item())
    elif hasattr(value, "__mobius_fingerprint__"):
        _tag(out, b"O", _qualname(type(value)).encode("utf-8"))
        _encode(out, value.__mobius_fingerprint__())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if not cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]
            raise TypeError(
                f"cannot fingerprint mutable dataclass {_qualname(cls)!r}; "
                "declare it frozen=True so its content address cannot change"
            )
        _tag(out, b"D", _qualname(cls).encode("utf-8"))
        for field in dataclasses.fields(value):
            _tag(out, b"k", field.name.encode("utf-8"))
            _encode(out, getattr(value, field.name))
        for name, retired in getattr(value, "__mobius_retired_fields__", ()):
            _tag(out, b"k", name.encode("utf-8"))
            _encode(out, retired)
        _tag(out, b"d")
    elif isinstance(value, (tuple, list)):
        _tag(out, b"(" if isinstance(value, tuple) else b"[")
        for item in value:
            _encode(out, item)
        _tag(out, b")")
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(canonical_bytes(item) for item in value)
        _tag(out, b"{")
        for item in encoded:
            _tag(out, b"e", item)
        _tag(out, b"}")
    elif isinstance(value, dict):
        items = sorted(
            (canonical_bytes(k), canonical_bytes(v)) for k, v in value.items()
        )
        _tag(out, b"M")
        for key_bytes, value_bytes in items:
            _tag(out, b"k", key_bytes)
            _tag(out, b"v", value_bytes)
        _tag(out, b"m")
    else:
        raise TypeError(
            f"cannot fingerprint {type(value).__qualname__!r}; add a "
            "__mobius_fingerprint__() method or use a supported type"
        )


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_bytes(value) -> bytes:
    """Canonical byte encoding of ``value`` (see module docstring)."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def fingerprint(value) -> str:
    """Hex SHA-256 digest of ``value``'s canonical encoding.

    Stable across processes and Python invocations; sensitive to every
    field of the encoded object graph.
    """
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
