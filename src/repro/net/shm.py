"""Shared-memory data plane for the sharded round engine.

Coordinator↔worker frames (pickles of keyed tuples) travel over
single-producer / single-consumer ring buffers on
:mod:`multiprocessing.shared_memory`:

* :class:`ShmRing` — one direction of one coordinator↔worker channel.
  Frames are length-prefixed: a little-endian ``u32`` header whose low
  31 bits are the payload length and whose high bit marks a
  *continuation* (the payload is one chunk of a logical frame larger
  than the ring, reassembled by the reader); the payload follows,
  padded to 4-byte alignment.  The reader hands contiguous payloads out
  as zero-copy ``memoryview`` slices of the ring (``pickle.loads``
  accepts them directly).

* :class:`ShmChannel` — a ring each way, with ``send`` / ``send_frame``
  / ``try_recv`` / ``recv``.  It is the only carriage: a host where
  :func:`shared_memory_available` is false runs the serial engine.

Publication protocol: the writer copies the header and payload into the
data region first and only then stores the new write cursor; the reader
never looks past the cursor.  That only holds if a cursor load can never
see half of a store.  The two cursors are therefore native, 8-byte
aligned ``uint64`` slots of the 64-byte ring header, read and written
through ``memoryview.cast("Q")`` — one aligned machine load or store
each, which x86-64 and AArch64 perform atomically.  (``struct`` packs
integers a byte at a time: a concurrent reader saw cursors that were
half old, half new, and walked into unwritten frames —
``tests/test_shm_cursors.py`` hammers exactly that.)  Stores stay in
program order on both platforms' Linux builds, so a whole cursor value
never exposes unwritten payload bytes.  Cursors grow monotonically and
wrap modulo the capacity; a header of ``0xFFFFFFFF`` is a wrap marker
(skip to the region start).

Waiting is a bounded spin, then ``os.sched_yield()``, then short sleeps
— the escalation matters on hosts with fewer cores than processes,
where a pure spin would starve the peer off the CPU.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
from typing import Optional

try:  # pragma: no cover - import guard exercised via _probe()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - ancient / stripped pythons
    _shared_memory = None

#: Data-plane identifier (machine stamps, contract-benchmark checks).
DATA_PLANE_SHM = "shm"

_HEADER = struct.Struct("<I")
_WRAP_MARKER = 0xFFFFFFFF
_CONT_FLAG = 0x80000000
_LEN_MASK = 0x7FFFFFFF

#: Ring data capacity per direction.  Large enough that a round's plan
#: or a worker's staged-intent chunk never needs continuation frames at
#: the benchmark scales (ERB N=8192 plans are ~1 MiB); logical frames
#: beyond the capacity still work via chunking.
DEFAULT_CAPACITY = 4 * 1024 * 1024

#: Slots of the two cursors in the 64-byte ring header, viewed as eight
#: native ``uint64`` (see the module docstring for why not ``struct``).
_WRITE_CURSOR = 0
_READ_CURSOR = 1
_HEADER_BYTES = 64

_NOTHING = object()

_shm_probe_result: Optional[str] = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory actually works here (probed once).

    Import success is not enough: containers can mount ``/dev/shm``
    read-only or size-zero, which only surfaces on the first
    ``SharedMemory`` creation.
    """
    global _shm_probe_result
    if _shm_probe_result is None:
        if _shared_memory is None:
            _shm_probe_result = "no multiprocessing.shared_memory"
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=64)
            except OSError as exc:  # pragma: no cover - degraded hosts
                _shm_probe_result = f"shared memory unavailable: {exc}"
            else:
                probe.close()
                probe.unlink()
                _shm_probe_result = ""
    return _shm_probe_result == ""


def shared_memory_unavailable_reason() -> str:
    """The probe's failure description ("" when shm works)."""
    shared_memory_available()
    return _shm_probe_result or ""


def _wait_spin(step: int) -> None:
    """Escalating wait: spin -> yield the core -> short sleeps."""
    if step < 64:
        return
    if step < 256:
        os.sched_yield()
    elif step < 1024:
        time.sleep(0.0001)
    else:
        time.sleep(0.001)


class ShmRing:
    """One SPSC ring: a single writer process, a single reader process.

    Created by the coordinator before the fork; the worker inherits the
    mapping.  ``owner=True`` (coordinator side) unlinks the segment on
    close.
    """

    __slots__ = ("_shm", "_buf", "_cursors", "_data", "capacity", "_owner",
                 "name", "_pending")

    def __init__(
        self,
        name: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
        *,
        create: bool = False,
    ) -> None:
        assert _shared_memory is not None
        if create:
            self._shm = _shared_memory.SharedMemory(
                create=True, size=_HEADER_BYTES + capacity
            )
            # Fresh segments are zero-filled, so both cursors start at 0.
        else:  # pragma: no cover - attach path unused under fork
            self._shm = _shared_memory.SharedMemory(name=name)
        self.name = self._shm.name
        self._buf = self._shm.buf
        self._cursors = self._buf[:_HEADER_BYTES].cast("Q")
        self._data = self._buf[_HEADER_BYTES:_HEADER_BYTES + capacity]
        self.capacity = capacity
        self._owner = create
        self._pending: Optional[int] = None

    # -- cursors -------------------------------------------------------
    def _load(self, slot: int) -> int:
        return self._cursors[slot]

    def _store(self, slot: int, value: int) -> None:
        self._cursors[slot] = value

    # -- writer side ---------------------------------------------------
    def _reserve(self, nbytes: int, write: int) -> int:
        """Block until ``nbytes`` are free past ``write``; returns the
        in-region offset the frame starts at (after any wrap marker)."""
        capacity = self.capacity
        pos = write % capacity
        tail = capacity - pos
        need = nbytes
        if tail < nbytes:
            # Not contiguous: burn the tail with a wrap marker and start
            # over at the region base.
            need = tail + nbytes
        step = 0
        while capacity - (write - self._load(_READ_CURSOR)) < need:
            _wait_spin(step)
            step += 1
        if tail < nbytes:
            if tail >= _HEADER.size:
                _HEADER.pack_into(self._data, pos, _WRAP_MARKER)
            return -1  # signal: wrapped, frame starts at offset 0
        return pos

    def _put_chunk(self, payload, flags: int) -> None:
        n = len(payload)
        frame = _HEADER.size + ((n + 3) & ~3)
        write = self._load(_WRITE_CURSOR)
        pos = self._reserve(frame, write)
        if pos < 0:
            write += self.capacity - (write % self.capacity)
            pos = 0
        data = self._data
        _HEADER.pack_into(data, pos, n | flags)
        data[pos + _HEADER.size:pos + _HEADER.size + n] = payload
        # Publish: the cursor store is the only thing the reader trusts.
        self._store(_WRITE_CURSOR, write + frame)

    def put(self, payload) -> None:
        """Write one logical frame (bytes-like), chunking if oversized.

        Chunks are capped at half the capacity: a wrapping write needs
        the burnt tail *plus* the frame free at once, and the tail is
        only ever burnt when it is smaller than the frame, so half-ring
        chunks can always make progress.
        """
        limit = self.capacity // 2 - _HEADER.size - 4
        n = len(payload)
        if n <= limit:
            self._put_chunk(payload, 0)
            return
        view = memoryview(payload)
        offset = 0
        while n - offset > limit:
            self._put_chunk(view[offset:offset + limit], _CONT_FLAG)
            offset += limit
        self._put_chunk(view[offset:], 0)

    # -- reader side ---------------------------------------------------
    def _get_chunk(self):
        """One physical frame as ``(memoryview, continued)``, or None.

        Stashes the post-frame read cursor in ``_pending``; the caller
        publishes it via :meth:`consume` once the payload is decoded.
        """
        read = self._load(_READ_CURSOR)
        if read == self._load(_WRITE_CURSOR):
            return None
        capacity = self.capacity
        pos = read % capacity
        tail = capacity - pos
        if tail < _HEADER.size:
            # Tail too small even for a wrap marker; the writer skipped
            # it silently (see _reserve), so skip it here too.
            read += tail
            pos = 0
        else:
            header = _HEADER.unpack_from(self._data, pos)[0]
            if header == _WRAP_MARKER:
                read += tail
                pos = 0
        header = _HEADER.unpack_from(self._data, pos)[0]
        n = header & _LEN_MASK
        start = pos + _HEADER.size
        view = self._data[start:start + n]
        self._pending = read + _HEADER.size + ((n + 3) & ~3)
        return view, bool(header & _CONT_FLAG)

    def try_get(self):
        """One logical frame as bytes-like, or ``None``.

        The common (uncontinued, contiguous) case hands the caller a
        zero-copy memoryview into the ring and releases the space only
        at :meth:`consume` — callers must consume before the next
        ``try_get``, which ``ShmChannel`` guarantees by unpickling
        inline.  Continued (oversized) logical frames are reassembled
        into one bytes object.
        """
        first = self._get_chunk()
        if first is None:
            return None
        view, continued = first
        if not continued:
            return view
        parts = [bytes(view)]
        self.consume()
        step = 0
        while continued:
            nxt = self._get_chunk()
            if nxt is None:
                _wait_spin(step)
                step += 1
                continue
            view, continued = nxt
            parts.append(bytes(view))
            if continued:
                self.consume()
            step = 0
        del view
        return b"".join(parts)

    def consume(self) -> None:
        """Release the space of the frame returned by the last
        ``try_get`` (safe to call when nothing is pending)."""
        pending = self._pending
        if pending is None:
            return
        self._store(_READ_CURSOR, pending)
        self._pending = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._pending = None  # type: ignore[attr-defined]
        try:
            self._cursors.release()
            self._data.release()
        except (BufferError, AttributeError):  # pragma: no cover
            pass
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass


class ShmChannel:
    """Bidirectional coordinator↔worker channel over two :class:`ShmRing`s.

    The coordinator constructs it (creating both rings) before forking;
    after the fork each side calls :meth:`bind` with its role so ``send``
    and ``recv`` pick the right directions.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._down = ShmRing(capacity=capacity, create=True)  # coord -> worker
        self._up = ShmRing(capacity=capacity, create=True)    # worker -> coord
        self._is_worker = False

    def bind_worker(self) -> None:
        self._is_worker = True
        # The worker side must not unlink the parent-owned segments.
        self._down._owner = False
        self._up._owner = False

    # -- send ----------------------------------------------------------
    def send(self, obj) -> None:
        self.send_frame(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    def send_frame(self, frame) -> None:
        """Ship pre-pickled bytes (the coordinator pickles a round's plan
        once and writes the same buffer into every worker's ring)."""
        (self._up if self._is_worker else self._down).put(frame)

    # -- receive -------------------------------------------------------
    def try_recv(self):
        ring = self._down if self._is_worker else self._up
        frame = ring.try_get()
        if frame is None:
            return _NOTHING
        obj = pickle.loads(frame)
        del frame
        ring.consume()
        return obj

    def recv(self, alive_check=None):
        step = 0
        while True:
            obj = self.try_recv()
            if obj is not _NOTHING:
                return obj
            if alive_check is not None and step and step % 4096 == 0:
                alive_check()
            _wait_spin(step)
            step += 1

    def close(self) -> None:
        self._down.close()
        self._up.close()
