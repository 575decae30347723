"""Host-time spans around calls into the ``repro`` packages.

The benchmark's traced run installs wrappers from here — nothing under
``src/`` carries instrumentation for it:

* every simulator event callback, attributed by the callback's module
  (the kernel's own loop is what remains of ``Simulator.run``);
* every handler registered through ``Process.register_handler(s)``,
  attributed by the handler's module;
* the public entry points named in ``ENTRY_POINTS``.

A span's *self time* is its duration minus the time its child spans
cover; self times of all spans add up to the time spent inside the root
spans.  Spans are kept in memory (aggregated per layer, plus the first
``KEEP_SPANS`` raw spans for a Chrome trace) and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

from repro.core.replica import SharPerReplica
from repro.ledger.view import ClusterView
from repro.recovery.checkpoint import CheckpointManager
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.storage.base import StateStore
from repro.txn.execution import TransactionExecutor
from repro.txn.workload import WorkloadGenerator

__all__ = ["Tracer", "layer_of", "NAMED_LAYERS", "ROOT_LAYER"]

#: module prefix → layer, most specific first.
MODULE_LAYERS = (
    ("repro.sim.simulator", "sim.kernel"),
    ("repro.sim.events", "sim.kernel"),
    ("repro.sim", "sim.network"),
    ("repro.consensus", "consensus"),
    ("repro.core.cross_shard", "core.cross_shard"),
    ("repro.core.client", "core.client"),
    ("repro.core", "core.replica"),
    ("repro.txn", "txn"),
    ("repro.ledger", "ledger"),
    ("repro.storage", "storage"),
    ("repro.recovery.checkpoint", "recovery.checkpoint"),
    ("repro.recovery", "recovery"),
    ("repro.api", "api"),
    ("repro.adversary", "adversary"),
)

#: layer prefixes that count toward ``trace.coverage``; anything else
#: (the flight recorder's own callbacks, code outside ``repro``) is ``other``.
NAMED_LAYERS = ("sim", "consensus", "core", "txn", "ledger", "storage", "recovery", "api")
#: the layer of the ``Simulator.run`` root span: its self time is the
#: kernel's event loop plus the span bookkeeping charged to it, which is
#: everything the wrappers below it do not cover.
ROOT_LAYER = "sim.loop"

#: raw spans kept in memory for the Chrome trace.
KEEP_SPANS = 100_000

#: (owner, attribute, layer) of the public entry points given their own span.
ENTRY_POINTS = (
    (Simulator, "run", ROOT_LAYER),
    (Network, "send", "sim.network"),
    (Network, "multicast", "sim.network"),
    (Process, "send", "sim.network"),
    (Process, "multicast", "sim.network"),
    (SharPerReplica, "after_decide", "core.apply"),
    (TransactionExecutor, "execute", "txn.execute"),
    (TransactionExecutor, "validate", "txn.validate"),
    (WorkloadGenerator, "next_transaction", "txn.workload"),
    (ClusterView, "append", "ledger.append"),
    (ClusterView, "prune", "ledger.prune"),
    (StateStore, "state_digest", "storage.digest"),
    (StateStore, "snapshot_digest", "storage.digest"),
    (CheckpointManager, "take", "recovery.checkpoint"),
)


def layer_of(fn) -> str:
    """The layer a callable belongs to, from the module that defines it."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    qualname = getattr(fn, "__qualname__", "")
    if qualname.startswith("Process.set_timer"):
        return "sim.kernel"  # the crash guard around a timer callback
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _code_of(fn):
    """A key shared by every closure or bound method of one function."""
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__code__", fn)


class Tracer:
    """A span stack with per-layer self time and per-entry call counts."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: layer → [spans, self seconds]
        self.layers: dict[str, list] = {}
        #: entry point (``Owner.attr``) or ``events`` / ``handlers`` → calls
        self.calls: dict[str, int] = {}
        #: messages put on the wire through the wrapped Network entry points.
        self.messages = 0
        self._stack: list[list[float]] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = self.clock()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, counter: str | None = None):
        """``fn`` inside a span of ``layer`` (counting calls under ``counter``)."""
        record = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = self.clock
        spans = self.spans
        calls = self.calls
        if counter is not None:
            calls.setdefault(counter, 0)

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if counter is not None:
                    calls[counter] += 1
                if len(spans) < KEEP_SPANS:
                    spans.append((layer, start, elapsed, len(stack)))

        return spanned

    def self_times(self) -> dict[str, float]:
        return {layer: record[1] for layer, record in self.layers.items()}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap the program's entry points (undo with :meth:`uninstall`)."""
        tracer = self
        layers: dict = {}

        def wrap_event(callback):
            key = _code_of(callback)
            layer = layers.get(key)
            if layer is None:
                layer = layers[key] = layer_of(callback)
            return tracer.wrap(layer, callback, "events")

        push, push_fast, push_many = EventQueue.push, EventQueue.push_fast, EventQueue.push_many

        def traced_push(queue, time_, callback, *args):
            return push(queue, time_, wrap_event(callback), *args)

        def traced_push_fast(queue, time_, callback, args):
            push_fast(queue, time_, wrap_event(callback), args)

        def traced_push_many(queue, items):
            push_many(queue, [(t, wrap_event(cb), args) for t, cb, args in items])

        self._patch(EventQueue, "push", traced_push)
        self._patch(EventQueue, "push_fast", traced_push_fast)
        self._patch(EventQueue, "push_many", traced_push_many)

        register, set_timer, every = Process.register_handler, Process.set_timer, Simulator.every

        def wrap_handler(handler):
            return tracer.wrap(layer_of(handler), handler, "handlers")

        def traced_register_handler(process, message_type, handler):
            register(process, message_type, wrap_handler(handler))

        def traced_register_handlers(process, handlers):
            for message_type, handler in handlers.items():
                register(process, message_type, wrap_handler(handler))

        def traced_set_timer(process, delay, callback, *args):
            return set_timer(process, delay, tracer.wrap(layer_of(callback), callback), *args)

        def traced_every(sim, interval, callback):
            return every(sim, interval, tracer.wrap(layer_of(callback), callback))

        self._patch(Process, "register_handler", traced_register_handler)
        self._patch(Process, "register_handlers", traced_register_handlers)
        self._patch(Process, "set_timer", traced_set_timer)
        self._patch(Simulator, "every", traced_every)

        for owner, name, layer in ENTRY_POINTS:
            self._patch_entry(owner, name, layer)

    def _patch_entry(self, owner, name: str, layer: str) -> None:
        static = inspect.getattr_static(owner, name)
        counter = f"{owner.__name__}.{name}"
        if isinstance(static, classmethod):
            replacement = classmethod(self.wrap(layer, static.__func__, counter))
        elif isinstance(static, staticmethod):
            replacement = staticmethod(self.wrap(layer, static.__func__, counter))
        else:
            replacement = self.wrap(layer, static, counter)
        if owner is Network:
            replacement = self._count_messages(name, replacement)
        self._patch(owner, name, replacement)

    def _count_messages(self, name: str, fn):
        """Count the sends ``Network.send``/``multicast`` attempt (``messages_sent``)."""
        tracer = self
        if name == "send":

            def send(network, src, dst, message, depart_time=None):
                tracer.messages += 1
                return fn(network, src, dst, message, depart_time)

            return send

        def multicast(network, src, destinations, message, depart_time=None, include_self=False):
            destinations = list(destinations)
            tracer.messages += sum(1 for dst in destinations if dst != src or include_self)
            return fn(network, src, destinations, message, depart_time, include_self)

        return multicast

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """The kept raw spans as Chrome trace-event JSON (``X`` events, µs)."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": elapsed * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"depth": depth},
            }
            for layer, start, elapsed, depth in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
