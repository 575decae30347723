"""Base class for simulated processes (replicas, clients, committees).

A :class:`Process` owns a single CPU.  Incoming messages are served in
arrival order; each message occupies the CPU for the time computed by the
:class:`~repro.sim.costs.CostModel`, and the protocol handler runs
(:meth:`Process._dispatch_message`) when that service completes.
Outgoing messages also charge the CPU and leave the node only once the
CPU has produced them, which is what makes a primary that multicasts to many
replicas an honest bottleneck — the effect behind every saturation knee
in the paper's figures.

Performance model & parallel execution
--------------------------------------
Message dispatch is table-driven: subclasses register one handler per
concrete message type (:meth:`Process.register_handler`), and
:meth:`Process._dispatch_message` — the one dispatch body — resolves the
handler with a single dict lookup on ``type(message)``, with no
``isinstance`` chains on the hot path.  A type with no registered
handler falls back to :meth:`Process.on_message`, which drops it,
mirroring a real node discarding traffic it does not understand
(subclasses may override it instead of registering handlers).  When the
flight recorder's causal layer is armed, the same handler call is
bracketed in a recv context; untraced, dispatch makes no call besides
the handler's.  Multicasts go through :meth:`Network.multicast`, which
shares one immutable payload across all destinations.

Fault injection hooks:

* :meth:`Process.crash` / :meth:`Process.recover` — crash-stop behaviour;
* :attr:`Process.byzantine` — a flag marking the node as adversarial
  (set by :meth:`repro.core.system.BaseSystem.make_byzantine`);
* :meth:`Process.set_interceptor` — attach a
  :class:`~repro.adversary.MessageInterceptor` that filters every
  outbound message per destination (drop, delay, duplicate, rewrite).
  With no interceptor attached, ``send``/``multicast`` take exactly the
  pre-existing fast path — one ``is None`` check and no extra RNG draws
  — so faultless runs stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .costs import CostModel
from .network import Network
from .simulator import Simulator, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..adversary.interceptor import MessageInterceptor
    from ..obs.recorder import FlightRecorder

__all__ = ["Process"]

#: Signature of a registered message handler.
MessageHandler = Callable[[Any, int], None]


class Process:
    """A single simulated machine with one CPU and a network endpoint."""

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        network: Network,
        cost_model: CostModel,
        name: str | None = None,
    ) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.cost_model = cost_model
        self.name = name or f"proc-{pid}"
        self.crashed = False
        self.byzantine = False
        #: outbound message filter; None on the (default) faultless path.
        self.interceptor: "MessageInterceptor | None" = None
        #: flight recorder (repro.obs); None on the (default) untraced
        #: path — every instrumentation hook is one ``is None`` check,
        #: the same lazy-arming contract as the interceptor above.
        self.recorder: "FlightRecorder | None" = None
        self._cpu_free_at = 0.0
        self.messages_received = 0
        self.messages_sent = 0
        self.cpu_busy_time = 0.0
        #: message-type → handler table driving :meth:`_dispatch_message`.
        self._dispatch: dict[type, MessageHandler] = {}
        network.register(self)

    @property
    def now(self) -> float:
        """Current simulated time (ConsensusHost interface)."""
        return self.sim.now

    # ------------------------------------------------------------------
    # CPU accounting
    # ------------------------------------------------------------------
    def charge(self, cpu_seconds: float) -> float:
        """Occupy the CPU for ``cpu_seconds``; returns the completion time."""
        start = self.sim.now
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        self._cpu_free_at = start + cpu_seconds
        self.cpu_busy_time += cpu_seconds
        return self._cpu_free_at

    @property
    def cpu_free_at(self) -> float:
        """Simulated time at which the CPU becomes idle."""
        return self._cpu_free_at

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` simulated seconds the CPU was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.cpu_busy_time / elapsed)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def deliver(self, message: Any, src: int) -> None:
        """Called by the network when a message arrives at the NIC."""
        if self.crashed:
            return
        self.messages_received += 1
        # Inlined charge + handle-free scheduling: this runs once per
        # delivered message, making it the single hottest method in the
        # repo.  completion >= now always holds, so the scheduling-in-the-
        # past check is unnecessary.
        start = self.sim._now
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        cost_model = self.cost_model
        cost = cost_model._receive_cost.get(message.__class__)
        if cost is None:
            cost = cost_model.receive_cost(message)
        completion = start + cost
        self._cpu_free_at = completion
        self.cpu_busy_time += cost
        self.sim._queue.push_fast(completion, self._dispatch_message, (message, src))

    def _dispatch_message(self, message: Any, src: int) -> None:
        if self.crashed:
            return
        handler = self._dispatch.get(message.__class__)
        if handler is None:
            handler = self.on_message
        recorder = self.recorder
        # Untraced, the handler is the only call: this is the hottest
        # method in the repo.
        if recorder is None or not recorder.causal_armed:
            handler(message, src)
            return
        # Causal tracing: bracket the handler in a recv context so every
        # event it records (phases, sends, quorum votes) parents to this
        # arrival.
        recorder.begin_dispatch(self.sim._now, message, src, self.pid)
        try:
            handler(message, src)
        finally:
            recorder.clear_context()

    def register_handler(self, message_type: type, handler: MessageHandler) -> None:
        """Route messages of exactly ``message_type`` to ``handler``.

        Dispatch is by concrete type (``type(message)`` lookup), not by
        ``isinstance`` — register each concrete message class explicitly.
        Registering a type again replaces the previous handler, which is
        how subclasses (e.g. AHL's replicas) intercept message types their
        base class also handles.
        """
        self._dispatch[message_type] = handler

    def register_handlers(self, handlers: dict[type, MessageHandler]) -> None:
        """Bulk variant of :meth:`register_handler`."""
        self._dispatch.update(handlers)

    def on_message(self, message: Any, src: int) -> None:
        """Fallback for message types with no registered handler.

        The message is dropped.  Subclasses either register handlers at
        construction time or override this method to receive every
        unregistered type.  A process with an empty table raises,
        signalling a subclass that forgot to do either.
        """
        if not self._dispatch:
            raise NotImplementedError(
                f"{type(self).__name__} registered no message handlers and "
                "does not override on_message"
            )

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send(self, dst: int, message: Any) -> None:
        """Send one message, charging send-side CPU first."""
        if self.interceptor is not None:
            self._send_intercepted((dst,), message)
            return
        cost = self.cost_model.send_cost(message, destinations=1)
        start = self.sim._now  # inlined charge()
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        departure = start + cost
        self._cpu_free_at = departure
        self.cpu_busy_time += cost
        self.messages_sent += 1
        self.network.send(self.pid, dst, message, depart_time=departure)

    def multicast(self, destinations: list[int] | tuple[int, ...], message: Any) -> None:
        """Send ``message`` to every destination except this process.

        Signing cost is charged once; per-destination serialisation cost is
        charged for each copy, so wide multicasts genuinely cost more.  The
        transport shares one immutable payload object across destinations
        (:meth:`Network.multicast`).
        """
        pid = self.pid
        if self.interceptor is not None:
            self._send_intercepted([dst for dst in destinations if dst != pid], message)
            return
        count = 0
        for dst in destinations:
            if dst != pid:
                count += 1
        cost = self.cost_model.send_cost(message, destinations=count)
        start = self.sim._now  # inlined charge()
        free_at = self._cpu_free_at
        if free_at > start:
            start = free_at
        departure = start + cost
        self._cpu_free_at = departure
        self.cpu_busy_time += cost
        self.messages_sent += count
        self.network.multicast(pid, destinations, message, depart_time=departure)

    def _send_intercepted(self, destinations: Any, message: Any) -> None:
        """Slow path taken only while an interceptor is attached.

        The interceptor is consulted once per destination; CPU is charged
        as if the node had served every *intended* destination (a faulty
        node does the protocol's work, it just lies on the wire), so the
        adversary gains no free CPU by dropping traffic.  Replacement
        copies depart at the same NIC time plus their ``extra_delay``.
        """
        interceptor = self.interceptor
        outbound: list[tuple[int, Any, float]] = []
        for dst in destinations:
            interceptor.seen += 1
            actions = interceptor.outbound(dst, message)
            if actions is None:
                outbound.append((dst, message, 0.0))
            else:
                outbound.extend(
                    (action.dst, action.message, action.extra_delay)
                    for action in actions
                )
        cost = self.cost_model.send_cost(message, destinations=len(destinations))
        departure = self.charge(cost)
        self.messages_sent += len(outbound)
        network = self.network
        pid = self.pid
        for dst, payload, extra in outbound:
            network.send(pid, dst, payload, depart_time=departure + extra)

    def set_interceptor(self, interceptor: "MessageInterceptor | None") -> None:
        """Attach (or, with ``None``, detach) the outbound message filter."""
        previous = self.interceptor
        if previous is not None and previous is not interceptor:
            previous.detach()
        self.interceptor = interceptor
        if interceptor is not None:
            interceptor.attach(self)

    # ------------------------------------------------------------------
    # timers and fault injection
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Arm a timer whose callback is skipped if the process has crashed."""

        def _guarded() -> None:
            if not self.crashed:
                callback(*args)

        return self.sim.set_timer(delay, _guarded)

    def crash(self) -> None:
        """Crash-stop the process: it stops receiving and sending."""
        self.crashed = True

    def recover(self) -> None:
        """Restart a crashed process (state retained, as in Section 2.1)."""
        self.crashed = False
        self._cpu_free_at = max(self._cpu_free_at, self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name} pid={self.pid}>"
