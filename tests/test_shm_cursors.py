"""Two-process hammer for the shared-memory ring's cursors.

A ring cursor is the only thing its reader trusts: a load that is half
an old value and half a new one walks the reader into frames the writer
has not finished.  Both checks need a writer and a reader that really
run at the same time, hence the two-core guard; on one core the
processes only ever alternate at scheduler ticks and the race never
opens.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.net.shm import _NOTHING, _WRITE_CURSOR, ShmChannel, ShmRing

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two cores to interleave"
)

_FORK = multiprocessing.get_context("fork")

#: ``k * _LANES`` holds ``k`` in both 32-bit halves of the cursor, so any
#: mix of bytes from two different stores reads back with unequal halves.
_LANES = 0x0000000100000001
_STORES = 400_000


def _store_cursors(ring: ShmRing) -> None:
    for k in range(1, _STORES + 1):
        ring._store(_WRITE_CURSOR, k * _LANES)
    os._exit(0)


def test_cursor_loads_are_whole_monotone_and_never_ahead_of_the_writer():
    ring = ShmRing(capacity=64, create=True)
    writer = _FORK.Process(target=_store_cursors, args=(ring,))
    try:
        writer.start()
        final = _STORES * _LANES
        last = reads = 0
        while last != final:
            value = ring._load(_WRITE_CURSOR)
            assert value >> 32 == value & 0xFFFFFFFF, f"torn load {value:#x}"
            assert last <= value <= final, (last, value)
            last = value
            reads += 1
            if reads % 4096 == 0:
                assert writer.is_alive() or \
                    ring._load(_WRITE_CURSOR) == final
        writer.join(timeout=10)
        assert writer.exitcode == 0
    finally:
        if writer.is_alive():
            writer.kill()
            writer.join(timeout=10)
        ring.close()


def _echo(channel: ShmChannel) -> None:
    channel.bind_worker()
    while True:
        frame = channel.recv()
        if frame is None:
            os._exit(0)
        channel.send(frame)


def test_echo_child_returns_every_small_frame_intact():
    """200k small frames there and back, a window of them in flight, over
    a ring small enough to wrap every few hundred frames."""
    frames = 200_000
    channel = ShmChannel(capacity=16 * 1024)
    child = _FORK.Process(target=_echo, args=(channel,))
    try:
        child.start()
        deadline = time.monotonic() + 120
        sent = received = idle = 0
        while received < frames:
            if sent < frames and sent - received < 128:
                channel.send((sent, b"x" * (sent % 23)))
                sent += 1
            frame = channel.try_recv()
            if frame is _NOTHING:
                idle += 1
                if idle % 65536 == 0:
                    assert child.is_alive(), "echo child died"
                    assert time.monotonic() < deadline, "echo stalled"
                continue
            assert frame == (received, b"x" * (received % 23))
            received += 1
        channel.send(None)
        child.join(timeout=10)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
        channel.close()
