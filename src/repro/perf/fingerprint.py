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

The same :class:`~repro.models.spec.ModelSpec` instance is embedded in many
keys (request, plan, partition solve, last-known-good), so the encoder
memoizes canonical bytes per instance.  The rule:

* **Deep immutability.**  Only a frozen dataclass whose fields are all
  ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``Enum``,
  numpy scalars, tuples and frozensets of these, or frozen dataclasses
  that qualify themselves is memoized.  ``frozen`` is shallow, so a frozen
  dataclass holding a list, dict, set, array or ``bytearray`` is encoded
  afresh every time, and so is everything a ``__mobius_fingerprint__``
  hook returns: a hook object is not a frozen dataclass with deeply
  immutable fields (a :class:`~repro.hardware.topology.Topology`'s
  attributes can be rebound).  The encoder learns which case applies
  while it walks the fields the first time.
* **Identity keying.**  The memo is a side table keyed by ``id`` whose
  entries are verified through a weak reference, never by equality
  (``1 == 1.0 == True`` encode differently), and never stored on the
  instance (pickles, ``==``, ``repr`` and ``dataclasses.replace`` are
  untouched).  A dataclass that cannot be weakly referenced (``slots=True``
  without ``__weakref__``) is simply not memoized.
* **Lifetime tied to the instance.**  The weak reference's callback drops
  the entry when the instance dies.  The outermost memoized dataclass of
  an encoding owns one ``bytes`` copy; the memoized dataclasses nested in
  it hold zero-copy ``memoryview`` slices of that copy.  (Set elements and
  dict entries are encoded apart for sorting, so nothing in them gets an
  entry of its own.)

Two threads encoding one instance store equal bytes, so the memo needs no
lock: each entry is published whole by a single dict assignment.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import math
import weakref

import numpy as np

__all__ = ["canonical_bytes", "fingerprint"]

_SEPARATOR = b"\x00"
_DATACLASS_END = b"d0" + _SEPARATOR

#: ``id(instance) -> (weak reference to it, its canonical bytes)`` for deeply
#: immutable frozen dataclasses; the bytes are ``bytes`` or a ``memoryview``.
_MEMO: dict[int, tuple[weakref.KeyedRef, bytes | memoryview]] = {}


def _memo_write(key: int, entry: tuple | None) -> None:
    """Synchronization seam: the memo's one write path (MOB007-sanctioned).

    ``entry=None`` drops the key.  Writes are idempotent (every thread
    stores equal bytes for one instance) and one dict assignment or
    ``pop`` is atomic under the GIL, so a reader sees no entry or a whole
    one.
    """
    if entry is None:
        _MEMO.pop(key, None)
    else:
        _MEMO[key] = entry


def _forget(ref: weakref.KeyedRef) -> None:
    """Weak-reference callback: the instance died, so its entry goes."""
    _memo_write(ref.key, None)


def _tagged(tag: bytes, payload: bytes = b"") -> bytes:
    return b"%s%d%s%s" % (tag, len(payload), _SEPARATOR, payload)


def _encode(out: bytearray, pending: list | None, value) -> bool:
    """Append ``value``'s canonical bytes to ``out``.

    Returns whether ``value`` is deeply immutable (see the module
    docstring).  ``pending`` collects ``(instance, start, end)`` for every
    memoizable dataclass walked, in post-order; ``None`` means nothing
    under ``value`` may be memoized.
    """
    if value is None:
        out += _tagged(b"N")
    elif isinstance(value, bool):
        out += _tagged(b"B", b"1" if value else b"0")
    elif isinstance(value, int):
        out += _tagged(b"i", str(value).encode("ascii"))
    elif isinstance(value, float):
        # float.hex() is exact and canonical; it keeps nan/inf distinct from
        # every finite value and -0.0 distinct from 0.0.
        encoded = value.hex() if math.isfinite(value) else repr(value)
        out += _tagged(b"f", encoded.encode("ascii"))
    elif isinstance(value, str):
        out += _tagged(b"s", value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        out += _tagged(b"b", bytes(value))
        return isinstance(value, bytes)
    elif isinstance(value, enum.Enum):
        out += _tagged(b"E", _qualname(type(value)).encode("utf-8"))
        _encode(out, pending, value.value)
    elif isinstance(value, np.ndarray):
        out += _tagged(b"A", str(value.dtype).encode("ascii"))
        _encode(out, pending, value.shape)
        out += _tagged(b"a", np.ascontiguousarray(value).tobytes())
        return False
    elif isinstance(value, np.generic):
        _encode(out, pending, value.item())
    elif hasattr(value, "__mobius_fingerprint__"):
        out += _tagged(b"O", _qualname(type(value)).encode("utf-8"))
        _encode(out, None, value.__mobius_fingerprint__())
        return False
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        entry = _MEMO.get(id(value))
        if entry is not None and entry[0]() is value:
            out += entry[1]
            return True
        start = len(out)
        if not _walk_dataclass(out, pending, value):
            return False
        if pending is not None:
            pending.append((value, start, len(out)))
    elif isinstance(value, (tuple, list)):
        out += _tagged(b"(" if isinstance(value, tuple) else b"[")
        immutable = isinstance(value, tuple)
        for item in value:
            immutable = _encode(out, pending, item) and immutable
        out += _tagged(b")")
        return immutable
    elif isinstance(value, (set, frozenset)):
        # Elements are encoded apart for sorting, with no memo writes: a
        # memo slice must point into the one buffer being built.
        items = sorted(_encode_apart(item) for item in value)
        out += _tagged(b"{")
        for encoded, _ in items:
            out += _tagged(b"e", encoded)
        out += _tagged(b"}")
        return isinstance(value, frozenset) and all(immutable for _, immutable in items)
    elif isinstance(value, dict):
        items = sorted(
            (_encode_apart(k)[0], _encode_apart(v)[0]) for k, v in value.items()
        )
        out += _tagged(b"M")
        for key_bytes, value_bytes in items:
            out += _tagged(b"k", key_bytes)
            out += _tagged(b"v", value_bytes)
        out += _tagged(b"m")
        return False
    else:
        raise TypeError(
            f"cannot fingerprint {type(value).__qualname__!r}; add a "
            "__mobius_fingerprint__() method or use a supported type"
        )
    return True


def _walk_dataclass(out: bytearray, pending: list | None, value) -> bool:
    """Encode a frozen dataclass field by field (the walk the memo saves).

    Returns whether every field is deeply immutable.
    """
    header, fields, retired = _layout(type(value))
    out += header
    immutable = True
    for name, key in fields:
        out += key
        immutable = _encode(out, pending, getattr(value, name)) and immutable
    for key, retired_value in retired:
        out += key
        immutable = _encode(out, pending, retired_value) and immutable
    out += _DATACLASS_END
    return immutable


@functools.cache
def _layout(cls: type) -> tuple[bytes, tuple, tuple]:
    """A frozen dataclass's pre-tagged header, field keys and retired fields."""
    if not cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]
        raise TypeError(
            f"cannot fingerprint mutable dataclass {_qualname(cls)!r}; "
            "declare it frozen=True so its content address cannot change"
        )
    fields = tuple(
        (field.name, _tagged(b"k", field.name.encode("utf-8")))
        for field in dataclasses.fields(cls)
    )
    retired = tuple(
        (_tagged(b"k", name.encode("utf-8")), value)
        for name, value in getattr(cls, "__mobius_retired_fields__", ())
    )
    return _tagged(b"D", _qualname(cls).encode("utf-8")), fields, retired


def _encode_apart(value) -> tuple[bytes, bool]:
    """A set element, dict key or dict value on its own, and whether it is
    deeply immutable."""
    out = bytearray()
    immutable = _encode(out, None, value)
    return bytes(out), immutable


def _memoize(encoded: bytes, pending: list) -> None:
    """Store the canonical bytes of every memoizable dataclass just walked.

    ``pending`` is in post-order, so walking it backwards meets each
    outermost memoizable dataclass before the ones nested in it.  The
    outermost gets one ``bytes`` copy (``encoded`` itself when it spans
    the whole encoding); the nested ones get ``memoryview`` slices of it.
    """
    anchor_start, anchor_end, view = 0, -1, memoryview(b"")
    for value, start, end in reversed(pending):
        if anchor_start <= start and end <= anchor_end:
            stored = view[start - anchor_start : end - anchor_start]
        else:
            stored = encoded[start:end]
            anchor_start, anchor_end, view = start, end, memoryview(stored)
        try:
            ref = weakref.KeyedRef(value, _forget, id(value))
        except TypeError:  # not weakly referenceable: never memoized
            continue
        _memo_write(id(value), (ref, stored))


def _qualname(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_bytes(value) -> bytes:
    """Canonical byte encoding of ``value`` (see module docstring)."""
    out = bytearray()
    pending: list = []
    _encode(out, pending, value)
    encoded = bytes(out)
    if pending:
        _memoize(encoded, pending)
    return encoded


def fingerprint(value) -> str:
    """Hex SHA-256 digest of ``value``'s canonical encoding.

    Stable across processes and Python invocations; sensitive to every
    field of the encoded object graph.
    """
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
