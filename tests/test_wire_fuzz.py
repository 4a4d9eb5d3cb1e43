"""Fuzzing the wire's frame router: whatever a peer's OS writes into a
frame must fail closed — ``SerializationError`` from the decoder or
``ProtocolError`` from :meth:`WireNode._route`, never another exception
— must never allocate an inbox outside the lockstep window, and must
never file a DATA frame whose counter or member count is not a
positive integer.

The seeds are the real frames pinned in
``tests/data/serialization_golden.json``; the router runs on a
socketless node (no event loop, no peers connected).
"""

from __future__ import annotations

import json
from pathlib import Path

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
    WireNode,
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
