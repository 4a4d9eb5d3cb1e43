"""Timing spans around each repro layer's public entry points.

Installed from here, at run time, with no edit to the program: class
methods are replaced at the class attribute, module functions at every
binding in a ``repro.*`` or perfbench module that ``is`` the original,
and :meth:`Tracer.uninstall` puts every original back.  Tracing *inside*
the program (``repro.obs.TimingCollector``) is a later change.

A span is ``(id, name, layer, start, end, parent, op)``.  Spans nest on
one stack, so a layer's **self time** is its spans' duration minus the
time their child spans cover; the stack only ever holds synchronous
calls, which cannot interleave.  ``async def`` entry points (the wire
node's server/connect/service coroutines, nine of which interleave on
one event loop) are recorded as spans and counted as calls but kept off
the stack: the wire layer's self time is the ``run_cluster`` span minus
its synchronous children, event-loop time included.

Not seen: forked shard workers and CLI child processes.  They inherit
(or never get) the wrappers, but their spans are never collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))

LAYERS = (
    "crypto", "serialization", "channel", "transport", "simulator",
    "parallel", "shm", "session", "beacon", "wire", "core", "adversary",
    "campaign", "cli",
)

_TRANSPORT_METHODS = (
    "write", "write_fanout", "read", "seal_envelope", "seal_envelope_wave",
    "open_envelope", "open_envelope_wave",
)
_PROGRAM_HOOKS = ("on_round_begin", "on_message", "on_round_end")

#: (layer, module, class, methods)
METHODS = (
    ("crypto", "repro.crypto.aead", "AEAD", ("seal", "open")),
    ("crypto", "repro.crypto.dh", "DiffieHellman",
     ("generate_keypair", "shared_secret")),
    ("crypto", "repro.crypto.schnorr", "SchnorrKeyPair", ("sign",)),
    ("channel", "repro.channel.peer_channel", "SecureChannel",
     ("establish", "write", "read", "write_envelope", "read_envelope")),
    ("transport", "repro.net.transport", "FullTransport", _TRANSPORT_METHODS),
    ("transport", "repro.net.transport", "ModeledTransport",
     _TRANSPORT_METHODS),
    ("transport", "repro.net.transport", "PlainTransport", _TRANSPORT_METHODS),
    ("simulator", "repro.net.simulator", "SynchronousNetwork",
     ("__init__", "run")),
    # The session re-arm is a SynchronousNetwork method, but it is the
    # cost a session pays per run, so it is charged to the session layer.
    ("session", "repro.net.simulator", "SynchronousNetwork",
     ("begin_session_run",)),
    ("session", "repro.net.session", "EngineSession",
     ("__init__", "run", "close")),
    ("shm", "repro.net.shm", "ShmChannel",
     ("send", "send_frame", "recv", "try_recv")),
    ("beacon", "repro.apps.beacon", "RandomBeacon",
     ("next_beacon", "run_pipelined", "verify_chain")),
    ("wire", "repro.net.wire", "WireNode",
     ("__init__", "start_server", "connect_peers", "run_service")),
    ("core", "repro.core.erb", "ErbProgram", _PROGRAM_HOOKS),
    ("core", "repro.core.erng", "ErngProgram", _PROGRAM_HOOKS),
)

#: (layer, defining module, functions)
FUNCTIONS = (
    ("crypto", "repro.crypto.hashing", ("hash_bytes",)),
    ("crypto", "repro.crypto.schnorr", ("schnorr_verify",)),
    ("serialization", "repro.common.serialization",
     ("encode", "decode", "encoded_size", "compose_tuple")),
    ("parallel", "repro.net.parallel", ("run_parallel",)),
    ("wire", "repro.net.wire", ("run_cluster",)),
    ("campaign", "repro.campaign.runner", ("run_case",)),
    ("campaign", "repro.campaign.invariants", ("check_run",)),
    # The benchmark's own child-process launcher stands in for the CLI
    # layer: what runs inside the child is not seen.
    ("cli", "workloads", ("run_cli",)),
)

_ADVERSARY_METHODS = ("filter_send", "filter_receive")


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    """Collects spans and per-layer self time while installed."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.spans = [] if keep_spans else None
        self.op = -1           # op id stamped on spans; -1 is set-up
        self._stack = []       # open synchronous spans: [wrapper, child_s, id]
        self._next_id = 0
        self._patched = []     # (owner, attribute, original) for uninstall
        self.reset()

    def reset(self) -> None:
        """Start a fresh accounting window (spans already kept stay)."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, layer, name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # encode()/encoded_size() recurse through their own module
            # binding: one span for the outermost call is the layer
            # boundary, the inner calls are the layer's own work.
            if stack and stack[-1][0] is wrapper:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][2] if stack else None
            frame = [wrapper, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if self.spans is not None:
                    self.spans.append(
                        (span_id, name, layer, start, end, parent, self.op)
                    )

        return wrapper

    def _wrap_async(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.calls[layer] += 1
                if self.spans is not None:
                    self.spans.append((
                        span_id, name, layer, start, perf_counter(), None,
                        self.op,
                    ))

        return wrapper

    def _patch_method(self, cls, attr: str, layer: str) -> None:
        raw = vars(cls).get(attr)
        if raw is None:        # inherited: the defining class is patched
            return
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer, name))
        else:
            wrapped = self._wrap(raw, layer, name)
        setattr(cls, attr, wrapped)
        self._patched.append((cls, attr, raw))

    def _patch_function(self, modname: str, attr: str, layer: str) -> None:
        original = getattr(importlib.import_module(modname), attr)
        wrapped = self._wrap(original, layer, attr)
        for name, module in list(sys.modules.items()):
            # The program's modules and the benchmark's own (workloads.py
            # imports run_cluster and run_case by name).
            ours = name.startswith("repro") or os.path.dirname(
                getattr(module, "__file__", None) or ""
            ) == _HERE
            if ours and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                self._patched.append((module, attr, original))

    # -- install / uninstall ---------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Wrap the entry points of ``layers``.  Import the modules the
        run will use first: a function is patched only in modules that
        already hold a binding to it."""
        for layer, modname, clsname, attrs in METHODS:
            if layer in layers:
                cls = getattr(importlib.import_module(modname), clsname)
                for attr in attrs:
                    self._patch_method(cls, attr, layer)
        if "adversary" in layers:
            importlib.import_module("repro.campaign.schedule")
            from repro.adversary import OSBehavior

            for cls in set(_all_subclasses(OSBehavior)):
                for attr in _ADVERSARY_METHODS:
                    self._patch_method(cls, attr, "adversary")
        for layer, modname, attrs in FUNCTIONS:
            if layer in layers and (
                modname.startswith("repro") or modname in sys.modules
            ):  # run_cli exists only where workloads.py is loaded
                for attr in attrs:
                    self._patch_function(modname, attr, layer)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------
    def totals(self) -> dict:
        """``{layer: [self seconds, calls]}`` of the current window."""
        return {
            layer: [self.self_s[layer], self.calls[layer]]
            for layer in LAYERS
        }

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans or ():
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
