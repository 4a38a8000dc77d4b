"""Unit tests for the ``repro.wire/v1`` frame codec.

No sockets here — these pin down the byte format itself: round trips
across dtypes, bit-exact non-finite payloads, the router's header-only
peek/rewrap path, and the full catalogue of malformed frames (every one
must raise :class:`WireFormatError`, never crash or over-allocate).
"""

import json
import struct
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import wire
from repro.wire import WireFormatError


def build_frame(header: dict, payloads: list[bytes]) -> bytes:
    """Hand-rolled frame builder for crafting hostile/malformed frames."""
    blob = json.dumps(header).encode("utf-8")
    parts = [wire.MAGIC, struct.pack(">I", len(blob)), blob]
    for p in payloads:
        parts.append(struct.pack(">Q", len(p)))
        parts.append(p)
    return b"".join(parts)


def header_for(arrays: dict[str, np.ndarray], body: dict | None = None) -> dict:
    return {
        "schema": wire.SCHEMA,
        "body": body or {},
        "arrays": [
            {
                "name": name,
                "dtype": a.dtype.str,
                "shape": list(a.shape),
                "order": "C",
                "nbytes": a.nbytes,
            }
            for name, a in arrays.items()
        ],
    }


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dtype", ["<f8", "<f4", "<i8", "<i4", "<u2", "?"]
    )
    def test_dtype_preserved(self, dtype):
        rng = np.random.default_rng(3)
        arr = (rng.random(37) * 100).astype(dtype)
        frame = wire.encode_frame({"key": "k"}, {"A": arr})
        body, views = wire.decode_frame(frame)
        assert body == {"key": "k"}
        assert views["A"].dtype == np.dtype(dtype)
        assert np.array_equal(views["A"], arr)

    def test_multidim_c_order(self):
        arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        _, views = wire.decode_frame(wire.encode_frame({}, {"A": arr}))
        assert views["A"].shape == (2, 3, 4)
        assert np.array_equal(views["A"], arr)

    def test_fortran_input_is_made_contiguous(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        _, views = wire.decode_frame(wire.encode_frame({}, {"A": arr}))
        assert np.array_equal(views["A"], arr)

    def test_empty_and_no_arrays(self):
        body, views = wire.decode_frame(wire.encode_frame({"x": 1}))
        assert (body, views) == ({"x": 1}, {})
        arr = np.zeros((0,), dtype=np.int64)
        _, views = wire.decode_frame(wire.encode_frame({}, {"A": arr}))
        assert views["A"].shape == (0,)
        assert views["A"].dtype == np.int64

    def test_views_are_zero_copy_and_read_only(self):
        arr = np.arange(8, dtype=np.float64)
        frame = wire.encode_frame({}, {"A": arr})
        _, views = wire.decode_frame(frame)
        view = views["A"]
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 99.0
        # The view aliases the frame buffer rather than copying it.
        assert view.base is not None

    def test_multiple_arrays_keep_header_order(self):
        a = np.arange(4, dtype=np.float64)
        b = np.arange(6, dtype=np.int32)
        _, views = wire.decode_frame(wire.encode_frame({}, {"b": b, "a": a}))
        assert list(views) == ["b", "a"]
        assert np.array_equal(views["a"], a)
        assert np.array_equal(views["b"], b)

    def test_nonfinite_payloads_bit_exact(self):
        # Includes a non-default NaN payload and signed zero: the frame
        # must carry the exact bit pattern, not a canonicalized value.
        bits = np.array(
            [
                0x7FF8000000000001,  # NaN, custom payload
                0x7FF0000000000000,  # +inf
                0xFFF0000000000000,  # -inf
                0x8000000000000000,  # -0.0
                0x3FF0000000000000,  # 1.0
            ],
            dtype=np.uint64,
        )
        arr = bits.view(np.float64)
        _, views = wire.decode_frame(wire.encode_frame({}, {"A": arr}))
        assert np.array_equal(views["A"].view(np.uint64), bits)

    def test_body_must_be_finite_json(self):
        with pytest.raises(WireFormatError):
            wire.encode_frame({"bad": float("nan")})


class TestHeaderOps:
    def test_peek_header_parses_without_payload_decode(self):
        arr = np.arange(16, dtype=np.float64)
        frame = wire.encode_frame({"key": "k", "tenant": "t"}, {"A": arr})
        body, descs, offset = wire.peek_header(frame)
        assert body == {"key": "k", "tenant": "t"}
        assert [d.name for d in descs] == ["A"]
        assert descs[0].shape == (16,)
        assert descs[0].nbytes == arr.nbytes
        # Payload bytes start right after the header, untouched.
        (nbytes,) = struct.unpack_from(">Q", frame, offset)
        assert nbytes == arr.nbytes
        assert frame[offset + 8 : offset + 8 + nbytes] == arr.tobytes()

    def test_rewrap_frame_replaces_body(self):
        arr = np.arange(5, dtype=np.float32)
        frame = wire.encode_frame({"kind": "run", "body": {"key": "k"}}, {"A": arr})
        rewrapped = wire.rewrap_frame(frame, {"key": "k"})
        body, views = wire.decode_frame(rewrapped)
        assert body == {"key": "k"}
        assert np.array_equal(views["A"], arr)

    def test_patch_with_nonfinite_update_rejected(self):
        frame = wire.encode_frame({"key": "k"})
        with pytest.raises(WireFormatError):
            wire.rewrap_frame(frame, {"bad": float("inf")})


class TestMalformedFrames:
    """Every structurally broken frame maps to WireFormatError."""

    def good(self) -> tuple[bytes, np.ndarray]:
        arr = np.arange(6, dtype=np.float64)
        return wire.encode_frame({"key": "k"}, {"A": arr}), arr

    def test_bad_magic(self):
        frame, _ = self.good()
        with pytest.raises(WireFormatError, match="magic"):
            wire.peek_header(b"XXXX" + frame[4:])

    def test_too_short_for_header(self):
        with pytest.raises(WireFormatError, match="too short"):
            wire.peek_header(b"RPW1\x00")

    def test_truncated_inside_header(self):
        frame, _ = self.good()
        with pytest.raises(WireFormatError, match="truncated"):
            wire.peek_header(frame[:10])

    def test_header_length_ceiling(self):
        data = wire.MAGIC + struct.pack(">I", wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(WireFormatError, match="ceiling"):
            wire.peek_header(data)

    def test_header_not_json(self):
        blob = b"not-json"
        data = wire.MAGIC + struct.pack(">I", len(blob)) + blob
        with pytest.raises(WireFormatError, match="JSON"):
            wire.peek_header(data)

    def test_wrong_schema(self):
        data = build_frame({"schema": "repro.wire/v0", "body": {}, "arrays": []}, [])
        with pytest.raises(WireFormatError, match="schema"):
            wire.peek_header(data)

    def test_body_not_object(self):
        data = build_frame({"schema": wire.SCHEMA, "body": [1], "arrays": []}, [])
        with pytest.raises(WireFormatError, match="body"):
            wire.peek_header(data)

    def test_arrays_not_list(self):
        data = build_frame({"schema": wire.SCHEMA, "body": {}, "arrays": {}}, [])
        with pytest.raises(WireFormatError, match="arrays"):
            wire.peek_header(data)

    def test_too_many_arrays(self):
        desc = {"name": "a", "dtype": "<f8", "shape": [0], "order": "C", "nbytes": 0}
        data = build_frame(
            {
                "schema": wire.SCHEMA,
                "body": {},
                "arrays": [dict(desc, name=f"a{i}") for i in range(wire.MAX_ARRAYS + 1)],
            },
            [],
        )
        with pytest.raises(WireFormatError, match="bounded"):
            wire.peek_header(data)

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda d: d.update(name="not an identifier"), "name"),
            (lambda d: d.update(name=7), "name"),
            (lambda d: d.update(dtype="no-such-dtype"), "dtype"),
            (lambda d: d.update(dtype="|O"), "object"),
            (lambda d: d.update(shape=[]), "shape"),
            (lambda d: d.update(shape=[-1]), "shape"),
            (lambda d: d.update(shape=["x"]), "shape"),
            (lambda d: d.update(order="F"), "order"),
            (lambda d: d.update(nbytes=999), "nbytes"),
        ],
    )
    def test_bad_array_desc(self, mutate, match):
        arr = np.arange(6, dtype=np.float64)
        header = header_for({"A": arr})
        mutate(header["arrays"][0])
        data = build_frame(header, [arr.tobytes()])
        with pytest.raises(WireFormatError, match=match):
            wire.decode_frame(data)

    def test_duplicate_names(self):
        arr = np.arange(3, dtype=np.float64)
        header = header_for({"A": arr})
        header["arrays"].append(dict(header["arrays"][0]))
        data = build_frame(header, [arr.tobytes(), arr.tobytes()])
        with pytest.raises(WireFormatError, match="duplicate"):
            wire.decode_frame(data)

    def test_truncated_before_length_prefix(self):
        arr = np.arange(6, dtype=np.float64)
        data = build_frame(header_for({"A": arr}), [])
        with pytest.raises(WireFormatError, match="length prefix"):
            wire.decode_frame(data)

    def test_payload_length_mismatch(self):
        arr = np.arange(6, dtype=np.float64)
        data = build_frame(header_for({"A": arr}), [arr.tobytes()[:-8]])
        with pytest.raises(WireFormatError, match="payload length"):
            wire.decode_frame(data)

    def test_truncated_inside_payload(self):
        frame, _ = self.good()
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_frame(frame[:-8])

    def test_trailing_bytes(self):
        frame, _ = self.good()
        with pytest.raises(WireFormatError, match="trailing"):
            wire.decode_frame(frame + b"extra")

    def test_peek_tolerates_missing_payload(self):
        # The router forwards on the header alone; a frame whose payload
        # is still in flight must peek fine and only fail a full decode.
        frame, _ = self.good()
        (header_len,) = struct.unpack_from(">I", frame, 4)
        body, descs, _ = wire.peek_header(frame[: 8 + header_len])
        assert body == {"key": "k"}
        assert descs[0].name == "A"


def _walk_array_from_json(data, dtype):
    """The reference decoder: map the sentinels element by element, then
    let numpy convert (``array_from_json`` before its numpy-first path)."""
    nonfinite = {"NaN": np.nan, "Infinity": np.inf, "-Infinity": -np.inf}

    def convert(item):
        if isinstance(item, list):
            return [convert(x) for x in item]
        if isinstance(item, str):
            try:
                return nonfinite[item]
            except KeyError:
                raise ValueError(
                    f"bad array element {item!r} (only NaN/Infinity/-Infinity "
                    "strings are accepted)"
                ) from None
        return item

    return np.asarray(convert(data), dtype=np.dtype(dtype))


def _outcome(decode, data, tag):
    try:
        return decode(data, tag), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


# Every kind of dtype tag ``_decode_arrays`` lets through (any dtype
# without objects), in both byte orders where that exists.
_SERVABLE_TAGS = [
    "<f8", ">f8", "<f4", "<f2", "<i8", ">i8", "<i4", "<i2", "|i1",
    "<u8", "<u4", "|u1", "|b1", "<c16", "<c8", "<U8", "|S4",
    "<M8[s]", "<m8[s]",
]

_json_elements = st.one_of(
    st.floats(width=64),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**64 - 1),
    st.booleans(),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]),
    st.sampled_from(["nan", "1.5", "", "inf"]),
    st.none(),
)


@st.composite
def _rows(draw):
    """A matrix of one element strategy, sometimes with a ragged row."""
    elem = draw(st.sampled_from([
        st.floats(width=64, allow_nan=False, allow_infinity=False),
        st.integers(-(2**53), 2**53),
        _json_elements,
    ]))
    cols = draw(st.integers(0, 4))
    rows = draw(st.lists(
        st.lists(elem, min_size=cols, max_size=cols), min_size=1, max_size=4
    ))
    if draw(st.booleans()):
        rows.append(draw(st.lists(elem, max_size=5)))
    return rows


_json_payloads = st.one_of(
    st.lists(_json_elements, max_size=6),
    _rows(),
    st.recursive(_json_elements, lambda kids: st.lists(kids, max_size=3),
                 max_leaves=8),
)


class TestJsonCompat:
    def test_finite_arrays_stay_plain_lists(self):
        arr = np.array([[1.5, 2.5], [3.5, 4.5]])
        data = wire.jsonable_array(arr)
        assert data == [[1.5, 2.5], [3.5, 4.5]]
        # Strict RFC JSON: no NaN tokens needed, allow_nan=False succeeds.
        json.dumps(data, allow_nan=False)
        back = wire.array_from_json(data, arr.dtype.str)
        assert np.array_equal(back, arr)

    def test_integer_arrays_untouched(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        data = wire.jsonable_array(arr)
        assert data == [1, 2, 3]
        back = wire.array_from_json(data, "<i8")
        assert back.dtype == np.int64

    def test_nonfinite_sentinels_round_trip(self):
        arr = np.array([[np.nan, np.inf], [-np.inf, 0.5]])
        data = wire.jsonable_array(arr)
        assert data == [["NaN", "Infinity"], ["-Infinity", 0.5]]
        json.dumps(data, allow_nan=False)
        back = wire.array_from_json(data, "<f8")
        assert np.isnan(back[0, 0])
        assert back[0, 1] == np.inf
        assert back[1, 0] == -np.inf
        assert back[1, 1] == 0.5

    def test_unknown_string_rejected(self):
        with pytest.raises(ValueError, match="NaN/Infinity"):
            wire.array_from_json(["nan"], "<f8")

    @given(data=_json_payloads, tag=st.sampled_from(_SERVABLE_TAGS))
    @settings(max_examples=400, deadline=None)
    def test_decode_matches_the_element_walk(self, data, tag):
        """The numpy-first decode answers exactly what the walk over
        every element (the decoder before it) answers: the same bytes
        and dtype, or the same exception type and message."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # casts of huge ints to f2
            want, want_exc = _outcome(_walk_array_from_json, data, tag)
            got, got_exc = _outcome(wire.array_from_json, data, tag)
        assert got_exc == want_exc
        if want_exc is None:
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nonfinite_complex_has_no_json_encoding(self):
        arr = np.array([complex(np.nan, 1.0)])
        with pytest.raises(WireFormatError, match="complex"):
            wire.jsonable_array(arr)

    def test_dtype_tags(self):
        tags = wire.dtype_tags(
            {"A": np.zeros(2, dtype=np.int64), "B": np.zeros(2, dtype=np.float32)}
        )
        assert tags == {"A": "<i8", "B": "<f4"}


class TestTypedBuffer:
    @given(
        tag=st.sampled_from(_SERVABLE_TAGS),
        shape=st.lists(st.integers(0, 4), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact(self, tag, shape, data):
        dtype = np.dtype(tag)
        raw = data.draw(st.binary(
            min_size=int(np.prod(shape)) * dtype.itemsize,
            max_size=int(np.prod(shape)) * dtype.itemsize,
        ))
        arr = np.frombuffer(raw, dtype).reshape(shape)
        buf = json.loads(json.dumps(wire.jsonable_buffer(arr), allow_nan=False))
        back = wire.array_from_buffer("A", buf)
        assert back.dtype == dtype and back.shape == arr.shape
        assert back.tobytes() == raw
        assert back.flags.writeable and back.flags.c_contiguous

    def test_fortran_order_travels_as_c_order(self):
        arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        back = wire.array_from_buffer("A", wire.jsonable_buffer(arr))
        assert np.array_equal(back, arr) and back.flags.c_contiguous

    @pytest.mark.parametrize("field, value, match", [
        ("dtype", "<q9", "bad dtype"),
        ("dtype", "|O", "object dtypes"),
        ("dtype", None, "bad dtype"),
        ("dtype", {"names": ["a"], "formats": ["<f8"]}, "bad dtype"),
        ("shape", [], "bad shape"),
        ("shape", [-2, -3], "bad shape"),
        ("shape", [2.0, 3], "bad shape"),
        ("shape", [True, 6], "bad shape"),
        ("shape", [2, 2], "nbytes 48 does not match"),
        ("base64", "AAAA AAAA", "bad base64"),
        ("base64", "AAA", "bad base64"),
        ("base64", "=AAA", "bad base64"),
        ("base64", "AAAA====", "bad base64"),
        ("base64", "AB==", "bad base64"),
        ("base64", 7, "bad base64"),
        ("base64", "ÄAAA", "bad base64"),
    ])
    def test_malformed_is_a_wire_format_error(self, field, value, match):
        buf = wire.jsonable_buffer(np.zeros((2, 3)))
        buf[field] = value
        with pytest.raises(WireFormatError, match=match):
            wire.array_from_buffer("A", buf)

    @pytest.mark.parametrize("buf", [
        [1.0, 2.0],
        {"dtype": "<f8", "shape": [1]},
        {"dtype": "<f8", "shape": [1], "base64": "AAAAAAAAAAA=", "order": "C"},
    ])
    def test_only_the_three_keys(self, buf):
        with pytest.raises(WireFormatError, match="exactly the keys"):
            wire.array_from_buffer("A", buf)

    @pytest.mark.parametrize("dtype, shape", [
        ("<q9", [2]), ("|O", [2]), (None, [2]), ("<f8", [-1]), ("<f8", []),
    ])
    def test_refuses_what_a_frame_header_refuses(self, dtype, shape):
        """The buffer and the frame share one descriptor check."""
        header = {"schema": wire.SCHEMA, "body": {}, "arrays": [
            {"name": "A", "dtype": dtype, "shape": shape, "nbytes": 16},
        ]}
        blob = json.dumps(header).encode()
        with pytest.raises(WireFormatError) as framed:
            wire.peek_header(wire.MAGIC + struct.pack(">I", len(blob)) + blob)
        buf = {"dtype": dtype, "shape": shape, "base64": "A" * 24}
        with pytest.raises(WireFormatError) as buffered:
            wire.array_from_buffer("A", buf)
        assert str(buffered.value) == str(framed.value)


class _Trickle:
    """A stream whose ``readinto`` hands out at most ``step`` bytes."""

    def __init__(self, data: bytes, step: int = 7) -> None:
        self._data = memoryview(data)
        self._step = step

    def readinto(self, buf) -> int:
        n = min(len(buf), self._step, len(self._data))
        memoryview(buf)[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


class TestStreaming:
    """``frame_parts`` out, ``FrameReader`` in: the frame never exists
    as one buffer on either side."""

    def arrays(self) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(5)
        return {
            "A": rng.random((70, 300)),  # 168 000 bytes: its own part
            "k": np.arange(5, dtype=np.int32),
        }

    def test_parts_concatenate_to_the_frame(self):
        arrays = self.arrays()
        parts = wire.frame_parts({"key": "k"}, arrays)
        assert b"".join(parts) == wire.encode_frame({"key": "k"}, arrays)

    def test_bulk_payload_is_a_view_of_the_array(self):
        arrays = self.arrays()
        parts = wire.frame_parts({}, arrays)
        big = [p for p in parts if len(p) == arrays["A"].nbytes]
        assert len(big) == 1
        assert np.shares_memory(np.asarray(big[0]), arrays["A"])
        # The small pieces around it are coalesced: header + A's length
        # prefix, then A, then k's prefix and payload.
        assert len(parts) == 3

    def test_small_frame_is_one_part(self):
        parts = wire.frame_parts({"x": 1}, {"k": np.arange(3)})
        assert len(parts) == 1

    @pytest.mark.parametrize("step", [1, 7, 1 << 20])
    def test_reader_round_trip_any_read_size(self, step):
        arrays = self.arrays()
        frame = wire.encode_frame({"key": "k"}, arrays)
        reader = wire.FrameReader(_Trickle(frame, step), len(frame))
        assert reader.body == {"key": "k"}
        assert [d.name for d in reader.descs] == ["A", "k"]
        got = reader.read_arrays()
        assert reader.remaining == 0
        for name, arr in arrays.items():
            assert got[name].dtype == arr.dtype
            assert np.array_equal(got[name], arr)
            assert got[name].flags.writeable

    def test_read_into_caller_arrays(self):
        arrays = self.arrays()
        frame = wire.encode_frame({}, arrays)
        reader = wire.FrameReader(_Trickle(frame, 4096), len(frame))
        dest = {n: np.zeros_like(a) for n, a in arrays.items()}
        reader.read_into(dest)
        for name, arr in arrays.items():
            assert np.array_equal(dest[name], arr)

    def test_placeholders_cost_no_payload_memory(self):
        arrays = self.arrays()
        frame = wire.encode_frame({}, arrays)
        reader = wire.FrameReader(_Trickle(frame), len(frame))
        held = reader.placeholders()
        assert held["A"].shape == (70, 300)
        assert held["k"].dtype == np.int32
        assert all(s == 0 for s in held["A"].strides)

    def test_read_into_refuses_a_mismatched_destination(self):
        arrays = self.arrays()
        frame = wire.encode_frame({}, arrays)
        reader = wire.FrameReader(_Trickle(frame), len(frame))
        dest = {
            "A": np.zeros((300, 70)),
            "k": np.zeros(5, dtype=np.int32),
        }
        with pytest.raises(ValueError, match="destination"):
            reader.read_into(dest)

    def test_nonfinite_bits_survive_the_stream(self):
        bits = np.array([0x7FF8000000000001, 0x8000000000000000], np.uint64)
        frame = wire.encode_frame({}, {"A": bits.view(np.float64)})
        got = wire.FrameReader(_Trickle(frame), len(frame)).read_arrays()
        assert np.array_equal(got["A"].view(np.uint64), bits)

    def test_header_accounts_for_more_than_the_length(self):
        frame = wire.encode_frame({}, self.arrays())
        cut = frame[:-8]
        with pytest.raises(WireFormatError, match="truncated"):
            wire.FrameReader(_Trickle(cut), len(cut))

    def test_header_accounts_for_less_than_the_length(self):
        frame = wire.encode_frame({}, self.arrays()) + b"extra"
        with pytest.raises(WireFormatError, match="trailing"):
            wire.FrameReader(_Trickle(frame), len(frame))

    def test_stream_ends_before_the_announced_length(self):
        frame = wire.encode_frame({}, self.arrays())
        reader = wire.FrameReader(_Trickle(frame[:-100]), len(frame))
        with pytest.raises(WireFormatError, match="stream ended"):
            reader.read_arrays()

    def test_length_shorter_than_a_header(self):
        with pytest.raises(WireFormatError, match="too short"):
            wire.FrameReader(_Trickle(b"RPW1"), 4)

    @pytest.mark.parametrize("case", ["mixed", "empty", "strided", "nan"])
    def test_parts_are_the_buffered_encoding_byte_for_byte(self, case):
        rng = np.random.default_rng(11)
        arrays = {
            "mixed": {
                "A": rng.random((40, 300)),
                "i": np.arange(7, dtype=">i4"),
                "b": np.array([True, False, True]),
                "h": rng.random(9).astype(np.float16),
            },
            "empty": {"E": np.zeros((0, 3)), "A": rng.random(9000)},
            "strided": {
                "T": rng.random((120, 130)).T,
                "S": np.arange(30000.0)[::3],
            },
            "nan": {
                "N": np.array(
                    [0x7FF8000000000001, 0xFFF0000000000000, 0x8000000000000000],
                    dtype=np.uint64,
                ).view(np.float64),
            },
        }[case]
        body = {"key": "k", "scalars": {"n": 3}}
        # The encoder as it was before frames were sent piecewise.
        descs, payloads = [], []
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            descs.append({
                "name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                "order": "C", "nbytes": arr.nbytes,
            })
            payloads.append(arr.tobytes())
        header = json.dumps(
            {"schema": wire.SCHEMA, "body": body, "arrays": descs},
            separators=(",", ":"), allow_nan=False,
        ).encode()
        reference = b"".join(
            [wire.MAGIC, struct.pack(">I", len(header)), header]
            + [struct.pack(">Q", len(p)) + p for p in payloads]
        )
        assert b"".join(wire.frame_parts(body, arrays)) == reference
        assert wire.encode_frame(body, arrays) == reference

    def test_reader_refuses_every_truncation_as_decode_does(self):
        frame = wire.encode_frame(
            {"key": "k"},
            {"A": np.arange(3.0), "k": np.arange(2, dtype=np.int32)},
        )
        for cut in range(len(frame)):
            data = frame[:cut]
            with pytest.raises(WireFormatError) as whole:
                wire.decode_frame(data)
            with pytest.raises(WireFormatError) as streamed:
                wire.FrameReader(_Trickle(data), cut).read_arrays()
            assert str(streamed.value) == str(whole.value), cut

    def test_bad_magic_and_header_ceiling(self):
        frame = wire.encode_frame({}, self.arrays())
        bad = b"XXXX" + frame[4:]
        with pytest.raises(WireFormatError, match="magic"):
            wire.FrameReader(_Trickle(bad), len(bad))
        huge = wire.MAGIC + struct.pack(">I", wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(WireFormatError, match="ceiling"):
            wire.FrameReader(_Trickle(huge), 1 << 30)

    def test_payload_length_prefix_must_match(self):
        arr = np.arange(6, dtype=np.float64)
        header = header_for({"A": arr})
        # A prefix that lies, with the byte count still adding up.
        data = build_frame(header, [arr.tobytes()])
        data = data.replace(struct.pack(">Q", 48), struct.pack(">Q", 40), 1)
        reader = wire.FrameReader(_Trickle(data), len(data))
        with pytest.raises(WireFormatError, match="payload length"):
            reader.read_arrays()

    def test_rewrap_parts_keep_the_payload_in_place(self):
        arr = np.arange(9000, dtype=np.float64)
        frame = wire.encode_frame({"key": "k"}, {"A": arr})
        parts = wire.rewrap_parts(frame, {"cluster": {"replica": 0}})
        assert parts[1].obj is frame
        body, views = wire.decode_frame(b"".join(parts))
        assert body == {"cluster": {"replica": 0}}
        assert np.array_equal(views["A"], arr)
