"""Fuzzing the wire's frame router: whatever a peer's OS writes into a
frame must fail closed — ``SerializationError`` from the decoder or
``ProtocolError`` from :meth:`WireNode._route`, never another exception
— must never allocate an inbox outside the lockstep window, and must
never file a DATA frame whose counter or member count is not a
positive integer.  In front of the router, a link's framer must cut the
same frames out of a byte stream however the reads split it.

The seeds are the real frames pinned in
``tests/data/serialization_golden.json``; the router and the framer run
on a socketless node (no running event loop, and a stand-in transport).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError, SerializationError
from repro.common.serialization import decode, encode
from repro.net.wire import (
    K_ACK,
    K_BYE,
    K_DATA,
    K_EOA,
    K_EOD,
    K_FIN,
    K_HELLO,
    MAX_FRAME_BYTES,
    WireNode,
    _Link,
    _LEN,
    _RECV_BYTES,
    cluster_configs,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "serialization_golden.json")
    .read_text(encoding="utf-8")
)
FRAMES = [
    bytes.fromhex(frame)
    for section in ("modeled", "full")
    for frame in GOLDEN[section]["frames"].values()
]
KINDS = (K_HELLO, K_DATA, K_EOD, K_ACK, K_EOA, K_FIN, K_BYE)

#: The sending peer of every routed frame.
PEER = 1
#: Run 0, round 1 open, nothing closed: an honest peer may be in this
#: round or the next, or in round 1 of the next run.
WINDOW = {(0, 1), (0, 2), (1, 1)}


def _node() -> WireNode:
    node = WireNode(cluster_configs(5, "erb", seed=7, message=b"golden")[0])
    node.current_round = 1
    return node


def _route_fails_closed(data: bytes):
    """Decode ``data`` and route it as a frame from :data:`PEER`; returns
    the node and whether the frame was accepted."""
    node = _node()
    peer = node._peers[PEER]
    try:
        node._route(peer, decode(data))
        accepted = True
    except (ProtocolError, SerializationError):
        accepted = False
    assert set(peer._inboxes) <= WINDOW
    for box in peer._inboxes.values():
        for counter, count, _ in box.data:
            assert type(counter) is int and counter >= 1
            assert type(count) is int and count >= 1
        assert all(
            isinstance(d, bytes) and len(d) == 8 for d in box.acks
        )
    return node, accepted


def test_recorded_frames_route():
    """Unmutated, every recorded frame but HELLO (which only opens a
    link) is accepted."""
    for data in FRAMES:
        _, accepted = _route_fails_closed(data)
        assert accepted == (decode(data)[0] != K_HELLO)


@given(
    st.sampled_from(FRAMES),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=255),
)
@settings(max_examples=400, deadline=None)
def test_single_byte_mutation(frame, position, xor):
    data = bytearray(frame)
    data[position % len(data)] ^= xor
    _route_fails_closed(bytes(data))


@given(
    st.sampled_from(FRAMES),
    st.integers(min_value=0, max_value=10_000),
    st.binary(max_size=24),
)
@settings(max_examples=200, deadline=None)
def test_splice(frame, position, noise):
    at = position % (len(frame) + 1)
    _route_fails_closed(frame[:at] + noise + frame[at + len(noise):])


_fields = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-3, max_value=3),
        st.integers(),
        st.binary(max_size=10),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=2), children, max_size=2),
    ),
    max_leaves=8,
)


@given(
    st.one_of(st.sampled_from(KINDS), _fields),
    st.one_of(st.integers(min_value=-1, max_value=2), _fields),
    st.one_of(st.integers(min_value=-1, max_value=3), _fields),
    st.lists(_fields, max_size=4),
)
@settings(max_examples=400, deadline=None)
def test_well_encoded_frames_of_any_shape(kind, run, rnd, rest):
    """Frames that decode fine but carry any value in any field."""
    _route_fails_closed(encode((kind, run, rnd, *rest)))


# ----------------------------------------------------------------------
# the framer: one byte stream, any split
# ----------------------------------------------------------------------

#: The recorded frames of one section in wire order, HELLO first and BYE
#: last (a BYE ends the peer), each length-prefixed.
ORDER = ("HELLO", "DATA", "EOD", "ACK", "EOA", "FIN", "BYE")
HELLO = bytes.fromhex(GOLDEN["modeled"]["frames"]["HELLO"])
#: Who sent the recorded HELLO; the framer runs on the next node.
SENDER = decode(HELLO)[2]


def _framed(*frames: bytes) -> bytes:
    return b"".join(_LEN.pack(len(f)) + f for f in frames)


def _stream(section: str) -> bytes:
    return _framed(*(bytes.fromhex(GOLDEN[section]["frames"][k]) for k in ORDER))


class _Sink:
    """A transport stand-in: keeps what is written, notes a close."""

    def __init__(self) -> None:
        self.written = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def close(self) -> None:
        self.closed = True


@pytest.fixture(scope="module")
def loop():
    """A loop that never runs: it only holds the links' futures and
    HELLO timers."""
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def _feed(loop, chunks, security="modeled"):
    """Feed ``chunks`` to an accepted link of a fresh node, as reads of
    at most the buffer the link offers; returns the node, the link, every
    routed (peer, frame) and each buffer size the link offered."""
    node = WireNode(cluster_configs(
        5, "erb", seed=7, message=b"golden", security=security
    )[SENDER + 1])
    node.current_round = 1
    routed, sizes = [], set()
    route = node._route

    def record(peer, frame):
        routed.append((peer.node_id, frame))
        route(peer, frame)

    node._route = record
    link = _Link(node, loop)
    link.connection_made(_Sink())
    for chunk in chunks:
        while chunk:
            view = link.get_buffer(-1)
            sizes.add(len(link._buf))
            n = min(len(view), len(chunk))
            view[:n] = chunk[:n]
            link.buffer_updated(n)
            chunk = chunk[n:]
    return node, link, routed, sizes


def _routes_the_stream(section, node, link, routed):
    frames = [bytes.fromhex(GOLDEN[section]["frames"][k]) for k in ORDER]
    assert routed == [(SENDER, decode(f)) for f in frames[1:]]
    assert node.stats.frames_received == {SENDER: len(frames) - 1}
    assert node.stats.bytes_received == {
        SENDER: sum(_LEN.size + len(f) for f in frames[1:])
    }
    # The HELLO was answered on the link, and nobody was ejected.
    assert decode(link.transport.written[0][_LEN.size:])[0] == K_HELLO
    assert node.stats.ejected == [] and not link.transport.closed


@pytest.mark.parametrize("section", ["modeled", "full"])
def test_stream_routes_whole_and_byte_by_byte(loop, section):
    stream = _stream(section)
    for chunks in ([stream], [stream[i:i + 1] for i in range(len(stream))]):
        node, link, routed, _ = _feed(loop, chunks, security=section)
        _routes_the_stream(section, node, link, routed)


@given(st.lists(st.integers(min_value=0, max_value=len(_stream("modeled")))))
@settings(max_examples=150, deadline=None)
def test_stream_routes_at_any_cut_points(loop, cuts):
    stream = _stream("modeled")
    bounds = [0, *sorted(cuts), len(stream)]
    node, link, routed, _ = _feed(
        loop, [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    )
    _routes_the_stream("modeled", node, link, routed)


def test_oversized_prefix_is_link_death_before_any_allocation(loop, caplog):
    with caplog.at_level("INFO", logger="repro.wire"):
        node, link, routed, _ = _feed(
            loop, [_framed(HELLO) + _LEN.pack(MAX_FRAME_BYTES + 1) + bytes(16)]
        )
    assert routed == []
    assert node.stats.ejected == [SENDER]
    assert [r.args[2] for r in caplog.records if "ejected" in r.msg] == [
        "protocol-error"
    ]
    assert link.transport.closed
    assert len(link._buf) == _RECV_BYTES


def test_frame_past_the_buffer_arrives_whole_and_the_buffer_shrinks(loop):
    big = encode((K_DATA, 0, 1, 1, 1, bytes(range(256)) * 1024))
    eod = encode((K_EOD, 0, 1))
    data = _framed(HELLO, big, eod)
    node, link, routed, sizes = _feed(
        loop, [data[i:i + 5000] for i in range(0, len(data), 5000)]
    )
    assert routed == [(SENDER, decode(big)), (SENDER, decode(eod))]
    # It grew as the frame's bytes filled it, doubling up to its size.
    assert sorted(sizes) == [
        _RECV_BYTES, 2 * _RECV_BYTES, 4 * _RECV_BYTES, _LEN.size + len(big)
    ]
    assert len(link._buf) == _RECV_BYTES


def test_a_link_without_hello_sizes_nothing_for_a_large_prefix(loop):
    """Before its HELLO a link takes no frame the base buffer cannot
    hold: a stranger announcing the largest frame is refused at once."""
    node, link, routed, sizes = _feed(
        loop, [_LEN.pack(MAX_FRAME_BYTES) + bytes(16)]
    )
    assert routed == [] and node.stats.ejected == []
    assert link.transport.closed and link.peer is None
    assert sizes == {_RECV_BYTES} and len(link._buf) == _RECV_BYTES


def test_a_large_prefix_after_hello_sizes_only_what_arrived(loop):
    """After the HELLO a frame may be as large as MAX_FRAME_BYTES, but
    the buffer grows only as its bytes come: at most twice them."""
    sent = 300 * 1024
    node, link, routed, sizes = _feed(
        loop, [_framed(HELLO) + _LEN.pack(MAX_FRAME_BYTES) + bytes(sent)]
    )
    assert routed == [] and not link.transport.closed
    assert max(sizes) <= 2 * (_LEN.size + sent)
    assert len(link._buf) <= 2 * (_LEN.size + sent)
