"""The snapshot wire format: a compact, self-describing binary container.

A snapshot file is::

    magic   8 bytes   b"RPSNAP" + schema version as two big-endian bytes
    meta    u32 length + packed dict (repro version, spec hash, cycle, ...)
    body    u64 length + packed dict (one entry per captured component)
    digest  32 bytes  SHA-256 of the body bytes

Everything inside ``meta`` and ``body`` is encoded with the tagged value
codec below: one ASCII tag byte per value followed by a fixed ``struct``
layout or a length-prefixed payload.  The codec is **stdlib only**
(``struct`` + ``array``) so snapshots work on the numpy-free install, and
it is closed over exactly the value shapes mid-stream chip state is made
of -- ``None``/bools/ints/floats/strings/bytes, tuples/lists/dicts,
:class:`~repro.arch.address.Address`, :class:`~repro.graph.rpvo.Edge` and
:class:`~repro.graph.rpvo.EdgeSlot`, plus ``array('q')`` buffers.  Those
carry the column-wise state (RPVO block tables, per-cell counters,
per-cycle statistics counts) and encode as they are: one raw int64 block,
with no per-element type scan or tag.  Anything else (a closure, a Task,
an arbitrary object smuggled into message operands) fails the capture
with a :class:`SnapshotError` naming the offending type instead of
silently pickling code.

Integers are encoded little-endian int64 when they fit and as decimal
strings otherwise, floats as IEEE-754 doubles, so every value round-trips
bit-exactly; dict insertion order is preserved.  The body digest makes
corruption detection (and the cheap ``state_hash`` equality check) one
hash away.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import Any, Dict, List, Tuple

from repro.arch.address import Address
from repro.graph.rpvo import Edge, EdgeSlot

#: Bumped whenever the container layout or the codec changes shape.
#: Schema 2 captures RPVO blocks and cell bookkeeping column-wise; schema
#: 3 cuts a message to seven fields and drops per-link busy counters;
#: schema 4 carries the statistics' counts of cycles per value instead of
#: three per-cycle series, and one latency-NoC state layout.
SCHEMA_VERSION = 4

_MAGIC = b"RPSNAP"

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_pack_u32 = struct.Struct("<I").pack
_pack_u64 = struct.Struct("<Q").pack
_pack_i64 = struct.Struct("<q").pack
_pack_f64 = struct.Struct("<d").pack
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_u64 = struct.Struct("<Q").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from
_pack_addr = struct.Struct("<qq").pack
_unpack_addr = struct.Struct("<qq").unpack_from
_pack_edge = struct.Struct("<qqq").pack
_unpack_edge = struct.Struct("<qqq").unpack_from

#: int64 blocks are little-endian on the wire.
_SWAP = sys.byteorder != "little"


class SnapshotError(RuntimeError):
    """Raised when chip state cannot be captured, decoded or restored."""


# ----------------------------------------------------------------------
# Tagged-value encoder
# ----------------------------------------------------------------------
def _encode_value(value: Any, out: List[bytes]) -> None:
    # Checks run in order of how often each type occurs in chip state.
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out += (b"i", _pack_i64(value))
        else:
            text = str(value).encode("ascii")
            out += (b"I", _pack_u32(len(text)), text)
    elif kind is str:
        data = value.encode("utf-8")
        out += (b"s", _pack_u32(len(data)), data)
    elif kind is dict:
        out += (b"d", _pack_u32(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    elif kind is array and value.typecode == "q":
        if _SWAP:
            # Swap a copy: the caller's buffer may be live state.
            value = array("q", value)
            value.byteswap()
        out += (b"q", _pack_u32(len(value)), value.tobytes())
    elif kind is list or kind is tuple:
        out += (b"l" if kind is list else b"t", _pack_u32(len(value)))
        for item in value:
            _encode_value(item, out)
    elif value is None:
        out.append(b"N")
    elif kind is bool:
        out.append(b"T" if value else b"F")
    elif kind is float:
        out += (b"f", _pack_f64(value))
    elif kind is bytes:
        out += (b"b", _pack_u32(len(value)), value)
    elif kind is Address:
        out += (b"A", _pack_addr(value.cc_id, value.obj_id))
    elif kind is Edge:
        out += (b"E", _pack_edge(value.src, value.dst, value.weight))
    elif kind is EdgeSlot:
        out += (b"S", _pack_addr(value.dst_addr.cc_id, value.dst_addr.obj_id),
                _pack_edge(value.dst_vid, value.weight, 0))
    else:
        raise SnapshotError(
            f"cannot serialise {kind.__name__!r} value {value!r}: "
            "snapshots only carry plain data (capture at an increment "
            "boundary, where no closures are in flight)"
        )


def pack_value(value: Any) -> bytes:
    """Encode one value (usually the top-level section dict) to bytes."""
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


# ----------------------------------------------------------------------
# Tagged-value decoder
# ----------------------------------------------------------------------
def _decode_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    try:
        tag = buf[pos:pos + 1]
        pos += 1
        if tag == b"i":
            return _unpack_i64(buf, pos)[0], pos + 8
        if tag == b"N":
            return None, pos
        if tag == b"T":
            return True, pos
        if tag == b"F":
            return False, pos
        if tag == b"f":
            return _unpack_f64(buf, pos)[0], pos + 8
        if tag == b"s":
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            return buf[pos:pos + n].decode("utf-8"), pos + n
        if tag == b"b":
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            return buf[pos:pos + n], pos + n
        if tag == b"I":
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            return int(buf[pos:pos + n].decode("ascii")), pos + n
        if tag == b"q":
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            data = buf[pos:pos + 8 * n]
            if len(data) != 8 * n:
                raise SnapshotError(
                    f"corrupt snapshot payload: int64 array of {n} entries "
                    f"at byte {pos - 5} runs past the end")
            arr = array("q")
            arr.frombytes(data)
            if _SWAP:
                arr.byteswap()
            return arr, pos + 8 * n
        if tag in (b"t", b"l"):
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            items = []
            for _ in range(n):
                item, pos = _decode_value(buf, pos)
                items.append(item)
            return (tuple(items) if tag == b"t" else items), pos
        if tag == b"d":
            n = _unpack_u32(buf, pos)[0]
            pos += 4
            obj: Dict[Any, Any] = {}
            for _ in range(n):
                key, pos = _decode_value(buf, pos)
                val, pos = _decode_value(buf, pos)
                obj[key] = val
            return obj, pos
        if tag == b"A":
            cc, obj_id = _unpack_addr(buf, pos)
            return Address(cc, obj_id), pos + 16
        if tag == b"E":
            src, dst, weight = _unpack_edge(buf, pos)
            return Edge(src, dst, weight), pos + 24
        if tag == b"S":
            cc, obj_id = _unpack_addr(buf, pos)
            pos += 16
            vid, weight, _pad = _unpack_edge(buf, pos)
            return EdgeSlot(Address(cc, obj_id), vid, weight), pos + 24
    except (struct.error, IndexError, UnicodeDecodeError, ValueError,
            TypeError) as exc:  # TypeError: an unhashable dict key
        raise SnapshotError(f"corrupt snapshot payload at byte {pos}: {exc}") from exc
    raise SnapshotError(f"corrupt snapshot payload: unknown tag {tag!r} at byte {pos - 1}")


def unpack_value(buf: bytes) -> Any:
    """Decode bytes produced by :func:`pack_value` back into the value."""
    try:
        value, pos = _decode_value(buf, 0)
    except RecursionError:
        raise SnapshotError(
            "corrupt snapshot payload: values nested too deeply") from None
    if pos != len(buf):
        raise SnapshotError(
            f"corrupt snapshot payload: {len(buf) - pos} trailing bytes")
    return value


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def encode_snapshot(meta: Dict[str, Any], body: Dict[str, Any]) -> bytes:
    """Serialise a snapshot (meta + per-component body) to its file bytes."""
    meta_bytes = pack_value(dict(meta))
    body_bytes = pack_value(dict(body))
    return b"".join([
        _MAGIC,
        struct.pack(">H", SCHEMA_VERSION),
        _pack_u32(len(meta_bytes)),
        meta_bytes,
        _pack_u64(len(body_bytes)),
        body_bytes,
        hashlib.sha256(body_bytes).digest(),
    ])


def decode_snapshot(data: bytes) -> Tuple[Dict[str, Any], Dict[str, Any], str]:
    """Parse snapshot bytes into ``(meta, body, state_hash)``.

    Refuses wrong magic, unknown schema versions, truncation and body
    corruption (digest mismatch) with actionable errors.  The repro
    *version* check lives one layer up (:meth:`Snapshot.require_version`)
    so ``repro snapshot info`` can still describe a stale snapshot.
    """
    if data[:len(_MAGIC)] != _MAGIC:
        raise SnapshotError(
            "not a repro snapshot (bad magic); expected a file written by "
            "snapshot.save / `repro snapshot save`")
    pos = len(_MAGIC)
    try:
        (schema,) = struct.unpack_from(">H", data, pos)
    except struct.error as exc:
        raise SnapshotError(f"truncated snapshot header: {exc}") from exc
    pos += 2
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"unsupported snapshot schema v{schema} (this build reads "
            f"v{SCHEMA_VERSION}); re-create the snapshot with this version")
    try:
        meta_len = _unpack_u32(data, pos)[0]
        pos += 4
        meta = unpack_value(data[pos:pos + meta_len])
        pos += meta_len
        body_len = _unpack_u64(data, pos)[0]
        pos += 8
        body_bytes = data[pos:pos + body_len]
        if len(body_bytes) != body_len:
            raise SnapshotError("truncated snapshot body")
        pos += body_len
        digest = data[pos:pos + 32]
    except struct.error as exc:
        raise SnapshotError(f"truncated snapshot header: {exc}") from exc
    if len(digest) != 32:
        raise SnapshotError("truncated snapshot (missing digest)")
    actual = hashlib.sha256(body_bytes).digest()
    if actual != digest:
        raise SnapshotError(
            "snapshot body digest mismatch: the file is corrupt "
            "(truncated copy or bit rot); re-create it from the source run")
    if not isinstance(meta, dict):
        raise SnapshotError("corrupt snapshot: meta section is not a dict")
    body = unpack_value(body_bytes)
    if not isinstance(body, dict):
        raise SnapshotError("corrupt snapshot: body section is not a dict")
    return meta, body, actual.hex()
