"""Unit and property tests for the deterministic serialization format.

Beside the unit and round-trip properties, two oracles hold the flat
codec to the format:

* ``tests/data/serialization_golden.json`` — recorded at commit d906bca,
  before the codec was rewritten: the smallest frame of every kind that an
  N = 5 ERB loopback cluster sends under MODELED and under FULL security
  (plus a digest of every distinct frame it sends), the smallest FULL
  envelope plaintext sealed in that run, and hand-written malformed inputs
  the decoder must reject;
* the recursive decoder below (the code ``src/`` used to run), compared
  by hypothesis on noise and on mutated and truncated golden frames.

``PYTHONPATH=src python tests/test_serialization.py`` rewrites the golden
file from the checked-out code — only for a change that *means* to alter a
wire byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.common.serialization import (
    MAX_DEPTH,
    compose_tuple,
    decode,
    encode,
    encoded_size,
)
from repro.crypto.aead import AEAD
from repro.net.wire import (
    K_ACK,
    K_BYE,
    K_DATA,
    K_EOA,
    K_EOD,
    K_FIN,
    K_HELLO,
    WireNode,
    _LEN,
    cluster_configs,
    run_cluster,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "serialization_golden.json"
KIND_NAMES = {
    K_HELLO: "HELLO", K_DATA: "DATA", K_EOD: "EOD", K_ACK: "ACK",
    K_EOA: "EOA", K_FIN: "FIN", K_BYE: "BYE",
}


class TestEncodeBasics:
    def test_none_roundtrip(self):
        assert decode(encode(None)) is None

    def test_bool_roundtrip(self):
        assert decode(encode(True)) is True
        assert decode(encode(False)) is False

    def test_bool_is_not_int(self):
        # bools must not collide with ints 0/1
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    @pytest.mark.parametrize("value", [0, 1, -1, 255, 256, -256, 2**128, -(2**128)])
    def test_int_roundtrip(self, value):
        assert decode(encode(value)) == value

    @pytest.mark.parametrize("value", [b"", b"\x00", b"hello", bytes(range(256))])
    def test_bytes_roundtrip(self, value):
        assert decode(encode(value)) == value

    @pytest.mark.parametrize("value", ["", "ascii", "ünïcødé", "日本語"])
    def test_str_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_tuple_roundtrip(self):
        value = (1, "two", b"three", None, (4, 5))
        assert decode(encode(value)) == value

    def test_list_decodes_as_tuple(self):
        assert decode(encode([1, 2, 3])) == (1, 2, 3)

    def test_dict_roundtrip(self):
        value = {"b": 2, "a": 1, "c": (3,)}
        assert decode(encode(value)) == value

    def test_dict_encoding_is_order_independent(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_empty_containers(self):
        assert decode(encode(())) == ()
        assert decode(encode({})) == {}

    def test_encoded_size_matches_length(self):
        value = ("x", 42, b"abc")
        assert encoded_size(value) == len(encode(value))

    def test_compose_tuple_matches_encode(self):
        items = (7, "body", b"\x00\x01", (1, 2), None)
        composed = compose_tuple([encode(item) for item in items])
        assert composed == encode(items)
        assert decode(composed) == items

    def test_compose_tuple_empty(self):
        assert compose_tuple([]) == encode(())

    @given(
        st.lists(
            st.one_of(st.integers(), st.binary(max_size=32), st.text(max_size=16)),
            max_size=8,
        )
    )
    @settings(max_examples=50)
    def test_compose_tuple_property(self, items):
        composed = compose_tuple([encode(item) for item in items])
        assert composed == encode(tuple(items))


class TestEncodeErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            encode(3.14)

    def test_frozenset_rejected_with_hint(self):
        with pytest.raises(SerializationError, match="sorted tuples"):
            encode(frozenset({1, 2}))

    def test_unsortable_dict_keys_rejected(self):
        with pytest.raises(SerializationError):
            encode({1: "a", "b": 2})


class TestDecodeErrors:
    def test_empty_input(self):
        with pytest.raises(SerializationError):
            decode(b"")

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode(b"Z")

    def test_trailing_garbage(self):
        with pytest.raises(SerializationError, match="trailing"):
            decode(encode(1) + b"x")

    def test_truncated_length(self):
        with pytest.raises(SerializationError):
            decode(b"i\x00\x00")

    def test_truncated_bytes_body(self):
        with pytest.raises(SerializationError):
            decode(b"b\x00\x00\x00\x05ab")

    def test_truncated_tuple_items(self):
        with pytest.raises(SerializationError):
            decode(b"t\x00\x00\x00\x02" + encode(1))

    def test_bad_int_sign(self):
        with pytest.raises(SerializationError):
            decode(b"i\x00\x00\x00\x02?\x01")

    def test_invalid_utf8(self):
        with pytest.raises(SerializationError):
            decode(b"s\x00\x00\x00\x01\xff")


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.binary(max_size=64),
    st.text(max_size=32),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestSerializationProperties:
    @given(_values)
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    @given(_values)
    @settings(max_examples=100)
    def test_determinism(self, value):
        assert encode(value) == encode(value)

    @given(_values, _values)
    @settings(max_examples=100)
    def test_injectivity(self, a, b):
        # Equal encodings imply equal values (1 == True in Python, but
        # their encodings are deliberately distinct, so test this
        # direction only).
        if encode(a) == encode(b):
            assert a == b

    @given(st.binary(max_size=64))
    @settings(max_examples=200)
    def test_decode_never_crashes_on_noise(self, noise):
        # Decoding attacker-controlled bytes must fail cleanly, not crash.
        try:
            decode(noise)
        except SerializationError:
            pass


# ----------------------------------------------------------------------
# the nesting bound: attacker bytes fail cleanly at any depth
# ----------------------------------------------------------------------

def _nested(depth: int) -> object:
    """``depth`` tuples, each holding the next; the innermost is empty."""
    value: object = ()
    for _ in range(depth - 1):
        value = (value,)
    return value


_ONE_ITEM_TUPLE = b"t\x00\x00\x00\x01"


class TestNestingBound:
    def test_decode_accepts_the_bound(self):
        data = _ONE_ITEM_TUPLE * (MAX_DEPTH - 1) + encode(())
        assert decode(data) == _nested(MAX_DEPTH)

    @pytest.mark.parametrize(
        "inner", [b"N", b"t\x00\x00\x00\x00", b"d\x00\x00\x00\x00"],
        ids=["scalar", "empty-tuple", "empty-dict"],
    )
    def test_decode_rejects_one_level_deeper(self, inner):
        # MAX_DEPTH + 1 containers: one-item tuples down to an empty one,
        # or down to a scalar.
        wrappers = MAX_DEPTH + 1 if inner == b"N" else MAX_DEPTH
        data = _ONE_ITEM_TUPLE * wrappers + inner
        with pytest.raises(SerializationError, match="nest"):
            decode(data)

    def test_dict_values_and_keys_count_as_levels(self):
        value = {"k": _nested(MAX_DEPTH - 1)}
        assert decode(encode(value)) == value
        for deeper in ({"k": _nested(MAX_DEPTH)}, {_nested(MAX_DEPTH): 1}):
            with pytest.raises(SerializationError, match="nest"):
                encode(deeper)
        with pytest.raises(SerializationError, match="nest"):
            decode(b"d\x00\x00\x00\x01" + encode(_nested(MAX_DEPTH)) + b"N")

    def test_attacker_depth_is_a_serialization_error(self):
        with pytest.raises(SerializationError):
            decode(_ONE_ITEM_TUPLE * 3000 + b"N")

    def test_encode_applies_the_same_bound(self):
        assert decode(encode(_nested(MAX_DEPTH))) == _nested(MAX_DEPTH)
        for depth in (MAX_DEPTH + 1, 3000):
            with pytest.raises(SerializationError, match="nest"):
                encode(_nested(depth))


# ----------------------------------------------------------------------
# the differential reference: the recursive decoder src/ used to run
# ----------------------------------------------------------------------

_REF_LEN_BYTES = 4


def ref_decode(data: bytes) -> object:
    value, offset = _ref_decode_at(data, 0)
    if offset != len(data):
        raise SerializationError(
            f"trailing garbage after decoded value ({len(data) - offset} bytes)"
        )
    return value


def _ref_read_length(data: bytes, offset: int) -> Tuple[int, int]:
    end = offset + _REF_LEN_BYTES
    if end > len(data):
        raise SerializationError("truncated length field")
    return int.from_bytes(data[offset:end], "big"), end


def _ref_decode_at(data: bytes, offset: int) -> Tuple[object, int]:
    if offset >= len(data):
        raise SerializationError("unexpected end of input")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        length, offset = _ref_read_length(data, offset)
        end = offset + length
        if end > len(data) or length < 2:
            raise SerializationError("truncated int body")
        sign = data[offset : offset + 1]
        magnitude = int.from_bytes(data[offset + 1 : end], "big")
        if sign == b"-":
            return -magnitude, end
        if sign == b"+":
            return magnitude, end
        raise SerializationError(f"bad int sign byte: {sign!r}")
    if tag == b"b":
        length, offset = _ref_read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise SerializationError("truncated bytes body")
        return data[offset:end], end
    if tag == b"s":
        length, offset = _ref_read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise SerializationError("truncated str body")
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid utf-8 in str body: {exc}") from exc
    if tag == b"t":
        count, offset = _ref_read_length(data, offset)
        items = []
        for _ in range(count):
            item, offset = _ref_decode_at(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == b"d":
        count, offset = _ref_read_length(data, offset)
        result = {}
        for _ in range(count):
            key, offset = _ref_decode_at(data, offset)
            item, offset = _ref_decode_at(data, offset)
            result[key] = item
        return result, offset
    raise SerializationError(f"unknown tag byte: {tag!r}")


# ----------------------------------------------------------------------
# what the golden file pins, computed by the checked-out code
# ----------------------------------------------------------------------

#: Inputs the decoder must reject, each with the reason.
MALFORMED = [
    (b"", "empty input"),
    (b"Z", "unknown tag"),
    (b"\x00", "unknown tag (NUL)"),
    (b"NN", "trailing garbage after a scalar"),
    (b"t\x00\x00\x00\x01TF", "trailing garbage after a tuple"),
    (b"i\x00\x00", "truncated length field"),
    (b"i\x00\x00\x00\x00", "int without sign or magnitude"),
    (b"i\x00\x00\x00\x01+", "int without magnitude"),
    (b"i\x00\x00\x00\x02?\x01", "bad int sign byte"),
    (b"i\x00\x00\x00\x05+\x01", "truncated int body"),
    (b"b\x00\x00\x00\x05ab", "truncated bytes body"),
    (b"b\xff\xff\xff\xff", "bytes length past the input"),
    (b"s\x00\x00\x00\x01\xff", "invalid utf-8"),
    (b"s\x00\x00\x00\x05ab", "truncated str body"),
    (b"t\x00\x00\x00\x02i\x00\x00\x00\x02+\x01", "tuple short of items"),
    (b"t\xff\xff\xff\xff", "tuple count past the input"),
    (b"t\x00\x00", "truncated tuple count"),
    (b"d\x00\x00\x00\x01s\x00\x00\x00\x01k", "dict key without value"),
    (b"d\x00\x00\x00\x01", "dict short of items"),
    (b"t\x00\x00\x00\x03i\x00\x00\x00\x02+\x03i\x00\x00\x00\x02+\x00i",
     "frame cut inside its last field"),
]


def _captured_cluster(security: str):
    """Every frame an N = 5 ERB loopback cluster frames for its sockets,
    recorded at the one framing site (``WireNode._write_frame``) as the
    length-prefixed bytes it puts on the wire, and every envelope
    plaintext it seals."""
    frames, plaintexts = [], []
    write, seal = WireNode._write_frame, AEAD.seal

    def record_write(node, peer, body):
        frames.append(_LEN.pack(len(body)) + bytes(body))
        return write(node, peer, body)

    def record_seal(box, plaintext, *args, **kwargs):
        plaintexts.append(bytes(plaintext))
        return seal(box, plaintext, *args, **kwargs)

    with mock.patch.object(WireNode, "_write_frame", record_write), \
            mock.patch.object(AEAD, "seal", record_seal):
        result = run_cluster(cluster_configs(
            5, "erb", seed=7, message=b"golden", security=security
        ))
    assert sorted(result.outputs) == [0, 1, 2, 3, 4]
    bodies = []
    for frame in frames:
        assert int.from_bytes(frame[:4], "little") == len(frame) - 4
        bodies.append(frame[4:])
    return bodies, plaintexts


def cluster_vectors(security: str) -> dict:
    bodies, plaintexts = _captured_cluster(security)
    by_kind: dict = {}
    for body in bodies:
        by_kind.setdefault(KIND_NAMES[ref_decode(body)[0]], []).append(body)
    distinct = sorted(set(bodies))
    vectors = {
        "frames": {
            name: min(group).hex() for name, group in sorted(by_kind.items())
        },
        "distinct_frames": len(distinct),
        "distinct_sha256": hashlib.sha256(b"".join(
            len(body).to_bytes(4, "little") + body for body in distinct
        )).hexdigest(),
    }
    if plaintexts:
        vectors["envelope_plaintext"] = min(plaintexts).hex()
    return vectors


def golden_vectors() -> dict:
    return {
        "modeled": cluster_vectors("modeled"),
        "full": cluster_vectors("full"),
        "malformed": [
            {"hex": data.hex(), "why": why, "rejected": True}
            for data, why in MALFORMED
        ],
    }


GOLDEN = (
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if GOLDEN_PATH.exists() else {}
)
#: Every recorded frame and plaintext: the seeds of the mutation fuzz.
GOLDEN_BLOBS = [
    bytes.fromhex(blob)
    for section in ("modeled", "full") if section in GOLDEN
    for blob in (
        *GOLDEN[section]["frames"].values(),
        *([GOLDEN[section]["envelope_plaintext"]]
          if "envelope_plaintext" in GOLDEN[section] else []),
    )
]


def _exact(value):
    """``value`` with every type spelled out: ``1 == True`` in Python,
    but not in the format."""
    if isinstance(value, tuple):
        return ("t", tuple(_exact(item) for item in value))
    if isinstance(value, dict):
        return ("d", tuple(
            (_exact(key), _exact(item)) for key, item in value.items()
        ))
    return (type(value).__name__, value)


def _outcome(decoder, data: bytes):
    try:
        return ("value", _exact(decoder(data)))
    except SerializationError:
        return ("rejected",)
    except TypeError:
        # The reference let an unhashable dict key escape as TypeError;
        # the flat decoder rejects it with SerializationError.
        if decoder is ref_decode:
            return ("rejected",)
        raise


class TestGoldenVectors:
    @pytest.mark.parametrize("security", ["modeled", "full"])
    def test_cluster_repeats_the_recorded_frames(self, security):
        assert cluster_vectors(security) == GOLDEN[security]

    def test_every_kind_was_recorded(self):
        for security in ("modeled", "full"):
            assert set(GOLDEN[security]["frames"]) == set(KIND_NAMES.values())
        assert "envelope_plaintext" in GOLDEN["full"]

    def test_recorded_blobs_round_trip(self):
        assert GOLDEN_BLOBS
        for blob in GOLDEN_BLOBS:
            assert _outcome(decode, blob) == _outcome(ref_decode, blob)
            assert encode(decode(blob)) == blob

    def test_envelope_plaintext_holds_framed_members(self):
        plaintext = bytes.fromhex(GOLDEN["full"]["envelope_plaintext"])
        members = decode(plaintext)
        assert members
        for counter, measurement, raw in members:
            assert isinstance(counter, int) and isinstance(measurement, bytes)
            assert isinstance(raw, tuple) and len(raw) == 7

    def test_malformed_inputs_are_rejected(self):
        assert len(GOLDEN["malformed"]) >= 20
        for case in GOLDEN["malformed"]:
            data = bytes.fromhex(case["hex"])
            assert case["rejected"]
            with pytest.raises(SerializationError):
                decode(data)
            with pytest.raises(SerializationError):
                ref_decode(data)


#: Noise drawn mostly from the format's own tag, sign and length bytes,
#: so it parses further than uniform noise does.
_FORMAT_BYTES = st.lists(
    st.sampled_from(list(b"NTFibstd+-") + [0, 1, 2, 3, 0xFF]), max_size=96
).map(bytes)


class TestDifferential:
    """The flat decoder accepts exactly what the recursive one accepted,
    decodes it to the same value, and rejects the rest with
    SerializationError."""

    @given(st.one_of(st.binary(max_size=128), _FORMAT_BYTES))
    @settings(max_examples=400)
    def test_noise(self, data):
        assert _outcome(decode, data) == _outcome(ref_decode, data)

    @given(
        st.sampled_from(GOLDEN_BLOBS or [b"N"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=400)
    def test_single_byte_mutation_of_golden_frames(self, blob, position, xor):
        data = bytearray(blob)
        data[position % len(data)] ^= xor
        data = bytes(data)
        assert _outcome(decode, data) == _outcome(ref_decode, data)

    @given(
        st.sampled_from(GOLDEN_BLOBS or [b"N"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200)
    def test_truncation_of_golden_frames(self, blob, cut):
        data = blob[: cut % len(blob)]
        assert _outcome(decode, data) == _outcome(ref_decode, data)
        assert _outcome(decode, data) == ("rejected",)

    @given(
        st.sampled_from(GOLDEN_BLOBS or [b"N"]),
        st.integers(min_value=0, max_value=10_000),
        _FORMAT_BYTES,
    )
    @settings(max_examples=200)
    def test_insertion_into_golden_frames(self, blob, position, noise):
        at = position % (len(blob) + 1)
        data = blob[:at] + noise + blob[at:]
        assert _outcome(decode, data) == _outcome(ref_decode, data)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(golden_vectors(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
