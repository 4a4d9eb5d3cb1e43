"""Deterministic, self-describing binary serialization.

The blinded channel of the paper (Fig. 4) encrypts and MACs the serialized
protocol value, so the library needs an encoding that is

* **deterministic** — two equal values always produce identical bytes (the
  MAC and the traffic statistics both depend on this), and
* **self-describing** — the receiver can decode without out-of-band schema.

The format is a small tagged length-prefixed encoding covering exactly the
types protocol values are built from: ``None``, ``bool``, ``int``, ``bytes``,
``str``, ``tuple``/``list`` (both decode as ``tuple``), and ``dict`` with
sorted keys.  It is intentionally *not* pickle: decoding attacker-supplied
bytes must never execute code.

Containers nest at most :data:`MAX_DEPTH` deep — a property of the format,
not an option.  Protocol values nest a handful of levels (a wire frame
holds an envelope body, which holds members, which hold their fields), so
the bound never binds an honest value; it makes decoding attacker bytes
fail with :class:`SerializationError` at any depth instead of exhausting
the interpreter stack, and :func:`encode` applies the same bound, so no
decoded value is too deep to be encoded again and compared.

Both directions are one loop over an explicit stack: :func:`encode`
appends every piece to one list and joins once, :func:`decode` reads
lengths in place.  Neither recurses.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from repro.common.errors import SerializationError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_BYTES = b"b"
_TAG_STR = b"s"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"

_LEN_BYTES = 4
_MAX_LEN = 2 ** (8 * _LEN_BYTES) - 1

#: Deepest container nesting the format admits: ``()`` is one level,
#: ``((),)`` two.  Dict keys and values count like tuple items.
MAX_DEPTH = 32

# A tag byte and its big-endian u32 length (or item count), in one pack.
_HEADER = struct.Struct(">cI")
_U32 = struct.Struct(">I")

# Tag bytes as ``data[i]`` reads them.
_N, _T, _F, _I, _B, _S, _TUP, _D = b"NTFibstd"
_PLUS, _MINUS = b"+-"


def _too_deep() -> SerializationError:
    return SerializationError(
        f"containers nest deeper than {MAX_DEPTH} levels"
    )


def _encode_length(n: int) -> bytes:
    if n > _MAX_LEN:
        raise SerializationError(f"value too large to encode: {n} bytes")
    return n.to_bytes(_LEN_BYTES, "big")


#: End-of-container sentinel for :func:`encode`'s item iterators.
_END = object()


def encode(value: object) -> bytes:
    """Encode ``value`` into deterministic bytes.

    Raises :class:`SerializationError` for unsupported types and for
    containers nested deeper than :data:`MAX_DEPTH`.
    """
    parts: List[bytes] = []
    append = parts.append
    header = _HEADER.pack
    small_ints = _SMALL_INTS
    # Iterators over the items of the open containers, innermost last.
    stack: list = []
    try:
        while True:
            cls = value.__class__
            if cls is int:
                piece = small_ints.get(value)
                append(_encode_int(value) if piece is None else piece)
            elif cls is bytes:
                append(header(_TAG_BYTES, len(value)))
                append(value)
            elif cls is str:
                body = value.encode("utf-8")
                append(header(_TAG_STR, len(body)))
                append(body)
            elif cls is tuple:
                if len(stack) >= MAX_DEPTH:
                    raise _too_deep()
                append(header(_TAG_TUPLE, len(value)))
                stack.append(iter(value))
            else:
                _encode_other(value, append, stack)
            # The next value: the innermost open container's next item.
            while stack:
                value = next(stack[-1], _END)
                if value is not _END:
                    break
                stack.pop()
            else:
                return b"".join(parts)
    except struct.error:
        # Only a length past the u32 field fails to pack.
        raise SerializationError("value too large to encode") from None


def _encode_other(value: object, append, stack: list) -> None:
    """:func:`encode`'s step for every value that is not exactly an
    ``int``, ``bytes``, ``str`` or ``tuple``."""
    if value is None:
        append(_TAG_NONE)
    elif value is True:
        append(_TAG_TRUE)
    elif value is False:
        append(_TAG_FALSE)
    elif isinstance(value, int):
        append(_encode_int(value))
    elif isinstance(value, bytes):
        append(_HEADER.pack(_TAG_BYTES, len(value)) + value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        append(_HEADER.pack(_TAG_STR, len(body)) + body)
    elif isinstance(value, (tuple, list, dict)):
        if len(stack) >= MAX_DEPTH:
            raise _too_deep()
        if isinstance(value, dict):
            try:
                items = sorted(value.items())
            except TypeError as exc:
                raise SerializationError(
                    f"dict keys must be sortable: {exc}"
                ) from exc
            append(_HEADER.pack(_TAG_DICT, len(value)))
            stack.append(iter([part for item in items for part in item]))
        else:
            append(_HEADER.pack(_TAG_TUPLE, len(value)))
            stack.append(iter(value))
    elif isinstance(value, frozenset):
        raise SerializationError("encode frozensets as sorted tuples instead")
    else:
        raise SerializationError(
            f"unsupported type for encoding: {type(value).__name__}"
        )


def _encode_int(value: int) -> bytes:
    # Two's-complement-free signed encoding: sign byte + magnitude.
    sign = b"-" if value < 0 else b"+"
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    return _HEADER.pack(_TAG_INT, len(body) + 1) + sign + body


#: Ready-made encodings of the ints frames carry most (kinds, rounds,
#: ids, counts), read only for values of exact type ``int`` — a bool
#: would hash to the same key.
_SMALL_INTS = {i: _encode_int(i) for i in range(-255, 256)}


def encoded_size(value: object) -> int:
    """Length in bytes of ``encode(value)`` (used for traffic accounting).

    Computed arithmetically, without materializing the encoding: message
    sizing runs once per multicast on the engine's hot transmit path,
    where allocating and immediately discarding the full byte string
    (the old implementation) was pure overhead.  Must return exactly
    ``len(encode(value))`` for every value :func:`encode` accepts —
    pinned by the serialization test suite.
    """
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        magnitude = abs(value)
        body = (magnitude.bit_length() + 7) // 8 or 1
        return 1 + _LEN_BYTES + 1 + body
    if isinstance(value, bytes):
        return 1 + _LEN_BYTES + len(value)
    if isinstance(value, str):
        return 1 + _LEN_BYTES + len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return 1 + _LEN_BYTES + sum(encoded_size(item) for item in value)
    if isinstance(value, dict):
        return 1 + _LEN_BYTES + sum(
            encoded_size(key) + encoded_size(item)
            for key, item in value.items()
        )
    # Unsupported types (frozenset included) raise exactly as encode does.
    return len(encode(value))


def compose_tuple(encoded_items: Sequence[bytes]) -> bytes:
    """Compose already-encoded items into the encoding of their tuple.

    ``compose_tuple([encode(a), encode(b)]) == encode((a, b))`` — a tuple
    encodes as its tag, item count and concatenated item encodings, so a
    sub-encoding shared across many values (e.g. one message body sealed
    for every receiver of a multicast) can be reused without
    re-serializing it.
    """
    return _TAG_TUPLE + _encode_length(len(encoded_items)) + b"".join(encoded_items)


def decode(data: bytes) -> object:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`SerializationError` on malformed or trailing input, on
    containers nested deeper than :data:`MAX_DEPTH` and on dict keys no
    encoding can produce (unhashable ones).
    """
    end = len(data)
    pos = 0
    read_u32 = _U32.unpack_from
    # The open container: its items so far, how many it holds (keys and
    # values both count in a dict) and whether it is a dict; the
    # enclosing ones wait on the stack.  ``items is None`` at top level.
    items: Optional[list] = None
    count = 0
    is_dict = False
    stack: list = []
    while True:
        if pos >= end:
            raise SerializationError("unexpected end of input")
        tag = data[pos]
        if tag == _I:
            start = pos + 5
            if start > end:
                raise SerializationError("truncated length field")
            (length,) = read_u32(data, pos + 1)
            pos = start + length
            if pos > end or length < 2:
                raise SerializationError("truncated int body")
            sign = data[start]
            # One magnitude byte is the common case: read it in place.
            value = (
                data[start + 1] if length == 2
                else int.from_bytes(data[start + 1:pos], "big")
            )
            if sign == _MINUS:
                value = -value
            elif sign != _PLUS:
                raise SerializationError(
                    f"bad int sign byte: {data[start:start + 1]!r}"
                )
        elif tag == _B:
            start = pos + 5
            if start > end:
                raise SerializationError("truncated length field")
            (length,) = read_u32(data, pos + 1)
            pos = start + length
            if pos > end:
                raise SerializationError("truncated bytes body")
            value = data[start:pos]
        elif tag == _TUP or tag == _D:
            start = pos + 5
            if start > end:
                raise SerializationError("truncated length field")
            if len(stack) >= MAX_DEPTH:
                raise _too_deep()
            (length,) = read_u32(data, pos + 1)
            pos = start
            if length:
                stack.append((items, count, is_dict))
                items = []
                is_dict = tag == _D
                count = 2 * length if is_dict else length
                continue
            value = () if tag == _TUP else {}
        elif tag == _S:
            start = pos + 5
            if start > end:
                raise SerializationError("truncated length field")
            (length,) = read_u32(data, pos + 1)
            pos = start + length
            if pos > end:
                raise SerializationError("truncated str body")
            try:
                value = data[start:pos].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SerializationError(
                    f"invalid utf-8 in str body: {exc}"
                ) from exc
        elif tag == _N:
            pos += 1
            value = None
        elif tag == _T:
            pos += 1
            value = True
        elif tag == _F:
            pos += 1
            value = False
        else:
            raise SerializationError(
                f"unknown tag byte: {data[pos:pos + 1]!r}"
            )
        # Hand the value to its container, closing every container it
        # completes; a value outside any container is the result.
        while True:
            if items is None:
                if pos != end:
                    raise SerializationError(
                        "trailing garbage after decoded value "
                        f"({end - pos} bytes)"
                    )
                return value
            items.append(value)
            if len(items) < count:
                break
            if is_dict:
                try:
                    value = dict(zip(items[0::2], items[1::2]))
                except TypeError as exc:
                    raise SerializationError(
                        f"unhashable dict key: {exc}"
                    ) from None
            else:
                value = tuple(items)
            items, count, is_dict = stack.pop()
