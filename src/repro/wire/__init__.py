"""``repro.wire/v1`` — framed binary array transport for the serving path.

JSON ``tolist()`` payloads turn a 1M-element float64 array into ~20 MB of
decimal text that is re-encoded and re-parsed on every hop.  This module
defines the binary alternative carried over HTTP as
``Content-Type: application/x-repro-wire``:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPW1"
    4       4     header length H (u32, big-endian)
    8       H     header: UTF-8 JSON (no NaN/Inf tokens), see below
    8+H     ...   per array, in header order:
                      8   payload length (u64, big-endian)
                      n   raw C-contiguous array bytes

    header = {"schema": "repro.wire/v1",
              "body":   {...},            # arbitrary JSON side-channel
              "arrays": [{"name": ..., "dtype": "<f8",
                          "shape": [...], "order": "C",
                          "nbytes": ...}, ...]}

Design properties the serving stack relies on:

- **Zero-copy decode** — :func:`decode_frame` returns read-only
  ``np.frombuffer`` views over a frame already in memory.
- **Opaque routability** — :func:`peek_header` parses only the JSON
  header (key/tenant peek); :func:`rewrap_parts` (and its joined form
  :func:`rewrap_frame`) rewrite the header
  while the payload bytes pass through untouched, so a router never
  materializes an ndarray.
- **Streaming** — :func:`frame_parts` is a frame as header bytes plus
  views of the arrays, sent piece by piece; :class:`FrameReader` reads
  a header from a stream and then each payload straight into a
  caller-owned array.  Neither end ever holds the whole frame.
- **Bit-exactness** — array bytes are carried verbatim: NaN payloads,
  signed zeros, and every dtype survive exactly.

The JSON transport has two array forms, both at the bottom of this
module.  A *typed buffer* (:func:`jsonable_buffer` /
:func:`array_from_buffer`) is the same bytes inside JSON::

    {"dtype": "<f8", "shape": [49, 49], "base64": "..."}

its descriptor passes the frame header's checks (a string, non-object
dtype; a non-empty list of non-negative int dims; decoded length =
prod(shape)·itemsize) and its text must be canonical base64, so it is as
bit-exact as a frame.  A *float list* (:func:`jsonable_array` /
:func:`array_from_json`) is nested ``tolist()`` numbers with an
``array_dtypes`` tag and sentinel strings for NaN/Inf; it stays for
clients that write JSON by hand, and pays for decimal float text.

Frames that fail any structural check raise :class:`WireFormatError`,
which the HTTP layer maps to a 400 — a truncated or hostile frame must
never take a replica down.
"""

from __future__ import annotations

import binascii
import json
import struct
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

SCHEMA = "repro.wire/v1"
MAGIC = b"RPW1"
CONTENT_TYPE = "application/x-repro-wire"
JSON_CONTENT_TYPE = "application/json"

#: Structural ceilings — a frame is rejected before any allocation that
#: its header could inflate past these.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_ARRAYS = 1024
#: Frame pieces shorter than this are joined before they are sent.
COALESCE_BYTES = 64 * 1024

_LEN_U32 = struct.Struct(">I")
_LEN_U64 = struct.Struct(">Q")


class WireFormatError(ValueError):
    """A frame violates ``repro.wire/v1`` (maps to HTTP 400, never a crash)."""


@dataclass(frozen=True)
class ArrayDesc:
    """One array's entry in the frame header."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    nbytes: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "order": "C",
            "nbytes": self.nbytes,
        }


def _header_bytes(body: Mapping[str, Any], descs: list[dict]) -> bytes:
    try:
        return json.dumps(
            {"schema": SCHEMA, "body": dict(body), "arrays": descs},
            separators=(",", ":"),
            allow_nan=False,
        ).encode("utf-8")
    except ValueError as exc:
        raise WireFormatError(f"frame body is not finite JSON: {exc}") from exc


def _byte_view(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, as a flat writable-if-the-
    array-is memoryview (no copy; any dtype, any byte order)."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _coalesce(parts: list) -> list:
    """Join runs of pieces shorter than :data:`COALESCE_BYTES`, so a small
    frame leaves in one write and a bulk one as a few large ones."""
    out: list = []
    small: list = []
    for part in parts:
        if len(part) < COALESCE_BYTES:
            small.append(part)
            continue
        if small:
            out.append(b"".join(small))
            small = []
        out.append(part)
    if small:
        out.append(b"".join(small))
    return out


def frame_parts(
    body: Mapping[str, Any], arrays: Mapping[str, np.ndarray] | None = None
) -> list:
    """One frame as a list of buffers, array payloads as zero-copy views.

    Their concatenation is :func:`encode_frame`'s bytes; a sender writes
    them one by one (``sendall`` each) and a frame never exists as one
    buffer.  The views alias ``arrays`` (C-contiguous ones are not
    copied), so the arrays must not change until the parts are sent.
    """
    descs: list[dict] = []
    payloads: list[memoryview] = []
    for name, arr in (arrays or {}).items():
        arr = np.ascontiguousarray(arr)
        descs.append(
            ArrayDesc(name, arr.dtype.str, tuple(arr.shape), arr.nbytes).as_dict()
        )
        payloads.append(_byte_view(arr))
    header = _header_bytes(body, descs)
    parts: list = [MAGIC, _LEN_U32.pack(len(header)), header]
    for blob in payloads:
        parts.append(_LEN_U64.pack(len(blob)))
        parts.append(blob)
    return _coalesce(parts)


def encode_frame(
    body: Mapping[str, Any], arrays: Mapping[str, np.ndarray] | None = None
) -> bytes:
    """Serialize ``body`` + ``arrays`` into one ``repro.wire/v1`` frame.

    Arrays are forced C-contiguous (a copy only when needed); the body
    must be strictly-finite JSON (``allow_nan=False``) — non-finite
    floats belong in array payloads, where they travel bit-exactly.
    Senders that can write piecewise use :func:`frame_parts` instead.
    """
    return b"".join(frame_parts(body, arrays))


def _parse_desc(raw: Any, index: int) -> ArrayDesc:
    if not isinstance(raw, dict):
        raise WireFormatError(f"array desc #{index} is not an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name.isidentifier():
        raise WireFormatError(f"array desc #{index} has a bad name: {name!r}")
    dtype_str = raw.get("dtype")
    try:
        if not isinstance(dtype_str, str):
            raise TypeError("not a string")
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"array {name!r}: bad dtype {dtype_str!r}"
        ) from exc
    if dtype.hasobject:
        raise WireFormatError(f"array {name!r}: object dtypes are not wire-safe")
    shape_raw = raw.get("shape")
    if (
        not isinstance(shape_raw, list)
        or not shape_raw
        or not all(type(d) is int and d >= 0 for d in shape_raw)
    ):
        raise WireFormatError(f"array {name!r}: bad shape {shape_raw!r}")
    if raw.get("order", "C") != "C":
        raise WireFormatError(
            f"array {name!r}: only C order is defined in {SCHEMA}"
        )
    nbytes = raw.get("nbytes")
    count = 1
    for dim in shape_raw:
        count *= dim
    expected = count * dtype.itemsize
    if nbytes != expected:
        raise WireFormatError(
            f"array {name!r}: nbytes {nbytes!r} does not match "
            f"dtype {dtype.str} x shape {tuple(shape_raw)} (= {expected})"
        )
    return ArrayDesc(name, dtype.str, tuple(shape_raw), expected)


def _header_length(prefix: bytes) -> int:
    """Check the 8-byte frame prefix; return the declared header length."""
    if prefix[:4] != MAGIC:
        raise WireFormatError(f"bad magic {bytes(prefix[:4])!r} (want {MAGIC!r})")
    (header_len,) = _LEN_U32.unpack_from(prefix, 4)
    if header_len > MAX_HEADER_BYTES:
        raise WireFormatError(f"header length {header_len} exceeds the ceiling")
    return header_len


def _parse_header(blob: bytes) -> tuple[dict, list[ArrayDesc]]:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise WireFormatError(
            f"unsupported schema {header.get('schema') if isinstance(header, dict) else header!r}"
        )
    body = header.get("body")
    if not isinstance(body, dict):
        raise WireFormatError("header body must be a JSON object")
    raw_descs = header.get("arrays")
    if not isinstance(raw_descs, list) or len(raw_descs) > MAX_ARRAYS:
        raise WireFormatError("header arrays must be a list (bounded)")
    descs = [_parse_desc(raw, i) for i, raw in enumerate(raw_descs)]
    names = [d.name for d in descs]
    if len(set(names)) != len(names):
        raise WireFormatError(f"duplicate array names: {names}")
    return body, descs


def peek_header(data: bytes) -> tuple[dict, list[ArrayDesc], int]:
    """Parse just the header: ``(body, array descs, payload offset)``.

    This is all a router needs — the payload bytes after the offset are
    forwarded opaquely.
    """
    if len(data) < 8:
        raise WireFormatError(f"frame too short for a header ({len(data)} bytes)")
    header_len = _header_length(data[:8])
    if len(data) < 8 + header_len:
        raise WireFormatError("frame truncated inside the header")
    body, descs = _parse_header(data[8 : 8 + header_len])
    return body, descs, 8 + header_len


class FrameReader:
    """Decode one frame *from a stream*, payloads straight into arrays.

    ``stream`` is anything with ``readinto`` (a request handler's
    ``rfile``, an ``http.client`` response); ``length`` is the frame's
    size as the transport announced it (``Content-Length``).  The
    constructor reads and checks the header — and that the header's
    arrays account for exactly ``length`` bytes, so a frame that cannot
    be complete is refused before any payload byte is read.  Then
    :meth:`read_into` reads each payload (``readinto``) directly into
    caller-owned arrays (a worker pool's shm segments, say), so the frame
    never exists as one buffer.  ``remaining`` is what is left unread.
    """

    def __init__(self, stream, length: int) -> None:
        self._stream = stream
        self.remaining = length
        if length < 8:
            raise WireFormatError(f"frame too short for a header ({length} bytes)")
        header_len = _header_length(self._take(bytearray(8), "before the header"))
        if length < 8 + header_len:
            raise WireFormatError("frame truncated inside the header")
        blob = self._take(bytearray(header_len), "inside the header")
        self.body, self.descs = _parse_header(bytes(blob))
        _check_extent(self.descs, self.remaining)

    def _take(self, buf, where: str):
        """Fill ``buf`` (bytes-like or a C-contiguous byte view) from the
        stream; a stream that ends first is a truncated frame."""
        view = memoryview(buf).cast("B")
        if len(view) > self.remaining:
            raise WireFormatError(f"frame truncated {where}")
        while view:
            n = self._stream.readinto(view)
            if not n:
                raise WireFormatError(f"frame truncated {where} (stream ended)")
            self.remaining -= n
            view = view[n:]
        return buf

    def placeholders(self) -> dict[str, np.ndarray]:
        """Zero-byte stand-ins with each array's shape and dtype (what a
        pool registry keys on, or builds a fresh pool from)."""
        return {
            d.name: np.broadcast_to(np.zeros((), d.dtype), d.shape)
            for d in self.descs
        }

    def read_into(self, dest: Mapping[str, np.ndarray]) -> None:
        """Read every payload into ``dest[name]`` (C-contiguous, writable,
        of the declared shape and dtype)."""
        prefix = bytearray(8)
        for desc in self.descs:
            self._take(prefix, f"before array {desc.name!r} length prefix")
            (nbytes,) = _LEN_U64.unpack_from(prefix)
            if nbytes != desc.nbytes:
                raise _bad_length(desc, nbytes)
            arr = dest[desc.name]
            if (
                arr.shape != desc.shape
                or arr.dtype != np.dtype(desc.dtype)
                or not arr.flags["C_CONTIGUOUS"]
            ):
                raise ValueError(
                    f"array {desc.name!r}: destination is not a contiguous "
                    f"{desc.dtype} array of shape {desc.shape}"
                )
            self._take(_byte_view(arr), f"inside array {desc.name!r}")

    def read_arrays(self) -> dict[str, np.ndarray]:
        """Read every payload into a fresh (writable) array of its own."""
        out = {d.name: np.empty(d.shape, d.dtype) for d in self.descs}
        self.read_into(out)
        return out


def _bad_length(desc: ArrayDesc, nbytes: int) -> WireFormatError:
    return WireFormatError(
        f"array {desc.name!r}: payload length {nbytes} does not "
        f"match the declared {desc.nbytes}"
    )


def _no_prefix(desc: ArrayDesc) -> WireFormatError:
    return WireFormatError(
        f"frame truncated before array {desc.name!r} length prefix"
    )


def _short_payload(desc: ArrayDesc, have: int) -> WireFormatError:
    return WireFormatError(
        f"frame truncated inside array {desc.name!r} "
        f"(need {desc.nbytes} bytes, have {have})"
    )


def _trailing(extra: int) -> WireFormatError:
    return WireFormatError(f"{extra} trailing bytes after the last array")


def _check_extent(descs: list[ArrayDesc], available: int) -> None:
    """Refuse a payload section of ``available`` bytes that the header's
    arrays do not fill exactly — in :func:`decode_frame`'s words, so a
    frame cut short is refused alike whether it is streamed or whole."""
    for desc in descs:
        if available < 8:
            raise _no_prefix(desc)
        available -= 8
        if available < desc.nbytes:
            raise _short_payload(desc, available)
        available -= desc.nbytes
    if available:
        raise _trailing(available)


def _payload_views(
    data: bytes, descs: list[ArrayDesc], offset: int
) -> dict[str, np.ndarray]:
    mem = memoryview(data)
    views: dict[str, np.ndarray] = {}
    for desc in descs:
        if len(data) < offset + 8:
            raise _no_prefix(desc)
        (nbytes,) = _LEN_U64.unpack_from(data, offset)
        if nbytes != desc.nbytes:
            raise _bad_length(desc, nbytes)
        offset += 8
        if len(data) < offset + nbytes:
            raise _short_payload(desc, len(data) - offset)
        flat = np.frombuffer(mem[offset : offset + nbytes], dtype=desc.dtype)
        views[desc.name] = flat.reshape(desc.shape)
        offset += nbytes
    if offset != len(data):
        raise _trailing(len(data) - offset)
    return views


def decode_frame(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Fully decode a frame: ``(body, {name: read-only zero-copy view})``.

    The views alias ``data`` (``np.frombuffer``) and are therefore
    read-only; copy (or ``SharedArrayPool.load``) before mutating.
    """
    body, descs, offset = peek_header(data)
    return body, _payload_views(data, descs, offset)


def rewrap_parts(data: bytes, new_body: Mapping[str, Any]) -> list:
    """:func:`rewrap_frame` as parts: a new header, then the payload
    bytes as a view of ``data`` — what a router sends instead of
    assembling a re-headered copy of the frame."""
    _, descs, offset = peek_header(data)
    header = _header_bytes(new_body, [d.as_dict() for d in descs])
    return [
        MAGIC + _LEN_U32.pack(len(header)) + header,
        memoryview(data)[offset:],
    ]


def rewrap_frame(data: bytes, new_body: Mapping[str, Any]) -> bytes:
    """Replace the frame's body entirely, keeping the array payload."""
    return b"".join(rewrap_parts(data, new_body))


# ---------------------------------------------------------------------------
# JSON transport, typed-buffer form: a frame's descriptor and payload as
# one JSON object, the bytes in base64.

#: The keys of a typed buffer, and no others.
_BUFFER_KEYS = frozenset({"dtype", "shape", "base64"})


def jsonable_buffer(arr: np.ndarray) -> dict:
    """``arr`` as a typed buffer: its dtype, shape and C-order bytes in
    base64.  Every dtype and byte order, NaN payloads and signed zeros
    travel exactly; :func:`array_from_buffer` reverses it."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "base64": binascii.b2a_base64(_byte_view(arr), newline=False).decode(
            "ascii"
        ),
    }


def array_from_buffer(name: str, value: Any) -> np.ndarray:
    """A fresh, writable C-contiguous array from a typed buffer.

    ``value`` must be an object with exactly the keys ``dtype``,
    ``shape`` and ``base64``, its text canonical base64 (the re-encoding
    of its own bytes), and its descriptor
    must pass the frame header's own check (:func:`_parse_desc`, the
    decoded length standing in for ``nbytes``); anything else raises
    :class:`WireFormatError`.
    """
    if not isinstance(value, dict) or value.keys() != _BUFFER_KEYS:
        raise WireFormatError(
            f"array {name!r}: a typed buffer is an object with exactly the "
            f"keys {sorted(_BUFFER_KEYS)}"
        )
    text = value["base64"]
    try:
        raw = binascii.a2b_base64(text)
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"array {name!r}: bad base64: {exc}") from exc
    # a2b_base64 skips stray characters; only the canonical text of its
    # bytes (no whitespace, extra padding or loose trailing bits) passes.
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise WireFormatError(f"array {name!r}: bad base64: not canonical")
    desc = _parse_desc(
        {"name": name, "dtype": value["dtype"], "shape": value["shape"],
         "nbytes": len(raw)},
        0,
    )
    return np.frombuffer(raw, desc.dtype).reshape(desc.shape).copy()


# ---------------------------------------------------------------------------
# JSON transport, float-list form: dtype tags + RFC-safe non-finite
# encoding.
#
# ``json.dumps(float("nan"))`` emits the non-RFC token ``NaN`` that only
# some parsers accept; the service refuses to emit it
# (``allow_nan=False``) and instead sentinel-encodes non-finite floats as
# the strings below — but only for arrays that actually contain one, so
# the common all-finite payload stays a plain number list.

_NONFINITE_DECODE = {
    "NaN": float("nan"),
    "Infinity": float("inf"),
    "-Infinity": float("-inf"),
}


def _encode_nonfinite(value: float) -> str:
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def jsonable_array(arr: np.ndarray) -> list:
    """``tolist()`` that never smuggles NaN/Inf tokens into JSON.

    Finite arrays (and every integer/bool array) return the plain nested
    list; arrays with non-finite floats get those entries replaced by the
    sentinel strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"``, which
    :func:`array_from_json` reverses.
    """
    if arr.dtype.kind not in "fc" or bool(np.isfinite(arr).all()):
        return arr.tolist()
    if arr.dtype.kind == "c":
        raise WireFormatError(
            "non-finite complex arrays have no JSON encoding; use the wire transport"
        )

    def convert(item):
        if isinstance(item, list):
            return [convert(x) for x in item]
        if isinstance(item, float) and (item != item or item in (float("inf"), float("-inf"))):
            return _encode_nonfinite(item)
        return item

    return convert(arr.tolist())


def array_from_json(data: Any, dtype: np.dtype | str) -> np.ndarray:
    """Rebuild an array from :func:`jsonable_array` output + a dtype tag.

    Only the three sentinel strings are accepted; anything else
    non-numeric raises ``ValueError`` (surfaced as a 400 by the server).

    A list of plain numbers (the common, all-finite payload) is parsed
    by numpy alone and widened to ``dtype``; only lists holding
    strings, ``None``, ragged rows, integers numpy cannot type, or a
    narrowing ``dtype`` take the per-element walk for the sentinels.
    ``np.asarray(data, dtype)`` straight away would not do: it would
    accept a numeric string such as ``"1.5"``, which is refused here.
    """
    dtype = np.dtype(dtype)
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError, OverflowError):
        arr = None  # ragged rows: the walk raises what numpy raises
    if (
        arr is not None
        and arr.dtype.kind in "biuf"
        and np.can_cast(arr.dtype, dtype)
    ):
        # No strings inside, and a safe cast converts each element as
        # ``np.asarray(data, dtype)`` would.
        return arr.astype(dtype, copy=False)

    def convert(item):
        if isinstance(item, list):
            return [convert(x) for x in item]
        if isinstance(item, str):
            try:
                return _NONFINITE_DECODE[item]
            except KeyError:
                raise ValueError(
                    f"bad array element {item!r} (only NaN/Infinity/-Infinity "
                    "strings are accepted)"
                ) from None
        return item

    return np.asarray(convert(data), dtype=dtype)


def dtype_tags(arrays: Mapping[str, np.ndarray]) -> dict[str, str]:
    """``{name: dtype.str}`` tags for a JSON request/response."""
    return {name: np.asarray(arr).dtype.str for name, arr in arrays.items()}


__all__ = [
    "SCHEMA",
    "MAGIC",
    "CONTENT_TYPE",
    "JSON_CONTENT_TYPE",
    "ArrayDesc",
    "WireFormatError",
    "encode_frame",
    "frame_parts",
    "decode_frame",
    "FrameReader",
    "peek_header",
    "rewrap_frame",
    "rewrap_parts",
    "jsonable_buffer",
    "array_from_buffer",
    "jsonable_array",
    "array_from_json",
    "dtype_tags",
]
