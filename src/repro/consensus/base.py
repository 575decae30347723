"""Shared infrastructure for the consensus engines.

Engines (Paxos, PBFT, and the cross-shard protocols in
:mod:`repro.core`) are plain state machines: they do not own a network
socket or a ledger, they talk to a *host* — the replica process — through
the small :class:`ConsensusHost` interface.  This keeps the protocols
testable without the simulator and lets SharPer plug either intra-shard
protocol into the same replica ("the intra-shard consensus protocol in
SharPer is pluggable", Section 3.1).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, ClassVar, Hashable, Mapping, Protocol, runtime_checkable

from ..common.config import ClusterConfig
from ..common.types import ClusterId, NodeId
from ..sim.simulator import Timer
from .batching import record_member_phase
from .log import OrderingLog

__all__ = ["ConsensusHost", "QuorumTracker", "ConsensusEngine", "HandlerTable"]


@runtime_checkable
class ConsensusHost(Protocol):
    """What a consensus engine needs from the replica hosting it."""

    node_id: NodeId
    cluster: ClusterConfig
    log: OrderingLog
    #: flight recorder (:mod:`repro.obs`); None when untraced.
    recorder: Any

    def multicast_cluster(self, message: Any) -> None:
        """Send ``message`` to every other node of this cluster."""
        ...

    def send_to(self, node_id: NodeId, message: Any) -> None:
        """Send ``message`` to one node."""
        ...

    def after_decide(self) -> None:
        """Notify the host that new slots may be ready to apply."""
        ...

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Arm a timer on the host's clock."""
        ...

    @property
    def now(self) -> float:
        """Current simulated time at the host."""
        ...

    @property
    def view_change_timeout(self) -> float:
        """Timeout after which a backup suspects the primary."""
        ...


class QuorumTracker:
    """Counts distinct votes per key and fires once a threshold is reached.

    Keys are protocol-specific tuples such as ``(view, slot, digest)``.
    A key fires at most once; duplicate votes from the same voter are
    ignored, matching the "matching messages from distinct nodes"
    requirement of every quorum in the paper.

    Built with a ``host``, the tracker is the engines' one deciding-vote
    seam: while the host's flight recorder has its causal layer armed,
    each vote on an open key is recorded as a ``quorum_vote`` of
    ``kind`` (the vote that reaches the threshold is the deciding one).
    Untraced, that costs one ``is None`` check per vote.
    """

    def __init__(
        self, threshold: int, host: ConsensusHost | None = None, kind: str = ""
    ) -> None:
        if threshold <= 0:
            raise ValueError("quorum threshold must be positive")
        self.threshold = threshold
        #: replica whose flight recorder receives each vote as a causal
        #: ``quorum_vote`` of ``kind``; None records nothing.
        self._host = host
        self.kind = kind
        self._votes: dict[Hashable, set[int]] = defaultdict(set)
        self._fired: set[Hashable] = set()

    def vote(self, key: Hashable, voter: int) -> bool:
        """Record a vote; returns ``True`` the first time the key reaches quorum."""
        if key in self._fired:
            return False
        votes = self._votes[key]
        votes.add(voter)
        fired = len(votes) >= self.threshold
        if fired:
            self._fired.add(key)
        host = self._host
        if host is not None:
            recorder = host.recorder
            if recorder is not None and recorder.causal_armed:
                recorder.quorum_vote(
                    host.now, int(host.node_id), self.kind, key, int(voter), fired
                )
        return fired

    def count(self, key: Hashable) -> int:
        """Number of distinct votes recorded for ``key``."""
        return len(self._votes.get(key, ()))

    def reached(self, key: Hashable) -> bool:
        """Whether ``key`` has already reached its quorum."""
        return key in self._fired

    def voters(self, key: Hashable) -> frozenset[int]:
        """The distinct voters recorded for ``key``."""
        return frozenset(self._votes.get(key, ()))

    def clear(self) -> None:
        """Forget all votes (used on view installation)."""
        self._votes.clear()
        self._fired.clear()

    def drop(self, predicate: Callable[[Hashable], bool]) -> None:
        """Forget votes and fired marks for keys matching ``predicate``.

        Used by checkpoint compaction to garbage-collect per-slot vote
        bookkeeping once the slot is covered by a stable checkpoint.
        """
        for key in [key for key in self._votes if predicate(key)]:
            del self._votes[key]
        for key in [key for key in self._fired if predicate(key)]:
            self._fired.discard(key)


class HandlerTable:
    """Table-driven message dispatch shared by every protocol engine.

    Subclasses declare ``HANDLERS``, a class-level mapping from concrete
    message type to the *name* of the handling method.  The constructor
    resolves those names into bound methods once (so subclass overrides —
    e.g. :class:`~repro.baselines.single_group.FastPaxosEngine` replacing
    ``_on_accept`` — are picked up automatically), and :meth:`handle`
    dispatches with a single dict lookup on ``type(message)``.  Hosts
    merge :meth:`handlers` into their own process-level dispatch table so
    a delivered message is routed with one lookup end to end.
    """

    #: message type → handler method name; subclasses override.
    HANDLERS: ClassVar[Mapping[type, str]] = {}

    def _build_handlers(self) -> None:
        self._handlers: dict[type, Callable[[Any, int], None]] = {
            message_type: getattr(self, method_name)
            for message_type, method_name in self.HANDLERS.items()
        }

    def handlers(self) -> dict[type, Callable[[Any, int], None]]:
        """A copy of the bound message-type → handler table."""
        return dict(self._handlers)

    def handle(self, message: Any, src: int) -> bool:
        """Process a protocol message; returns ``True`` if it was consumed."""
        handler = self._handlers.get(type(message))
        if handler is None:
            return False
        handler(message, src)
        return True


class ConsensusEngine(HandlerTable):
    """Common plumbing shared by the intra-shard engines.

    Every intra-shard engine (Paxos, PBFT, and the FPaxos/FaB baselines)
    runs the same slot lifecycle and differs only in its message flow
    and quorum sizes: a slot opens when the replica accepts a proposal
    (:meth:`_open_slot`), votes are counted by :class:`QuorumTracker`,
    and the slot closes through :meth:`_decide`, after which the host
    applies it.  Engines record pending and decided slots, arm and stop
    the view-change timer, and emit slot spans and the ``propose`` /
    ``decided`` milestones only through these two methods.
    """

    def __init__(self, host: ConsensusHost) -> None:
        self.host = host
        self.view = 0
        self._build_handlers()

    # ------------------------------------------------------------------
    # primary/backup roles
    # ------------------------------------------------------------------
    @property
    def primary(self) -> NodeId:
        """The primary of the current view."""
        return self.host.cluster.primary_for_view(self.view)

    @property
    def is_primary(self) -> bool:
        """Whether the hosting replica is the primary of the current view."""
        return self.host.node_id == self.primary

    @property
    def cluster_id(self) -> ClusterId:
        """Identifier of the hosting cluster."""
        return self.host.cluster.cluster_id

    # ------------------------------------------------------------------
    # shared view-change handlers (both intra-shard engines own a
    # ViewChangeManager under ``self.view_change``)
    # ------------------------------------------------------------------
    def _on_view_change_message(self, message: Any, src: int) -> None:
        self.view_change.handle_view_change(message, src)

    def _on_new_view_message(self, message: Any, src: int) -> None:
        self.view_change.handle_new_view(message, src)

    def on_view_installed(self, view: int) -> None:
        """Hook invoked whenever a view is installed (certificate-verified).

        Engines that park traffic for not-yet-installed views (PBFT
        stashes pre-prepares rather than trusting ``message.view``)
        release it here.  The base implementation does nothing.
        """

    # ------------------------------------------------------------------
    # the shared slot lifecycle
    # ------------------------------------------------------------------
    def _open_slot(
        self, slot: int, digest: str, item: object, view: int, propose: bool = False
    ) -> None:
        """Accept ``item`` at ``slot``: log it pending and watch the slot.

        Raises :class:`~repro.common.errors.ConsensusError` when the slot
        already holds a different digest in this view (backups then
        refuse to vote).  ``propose`` marks the primary's own proposal,
        which records the members' ``propose`` milestone.
        """
        host = self.host
        host.log.record_pending(slot, digest, item, view=view, proposer=self.cluster_id)
        self.view_change.monitor_slot(slot)
        recorder = host.recorder
        if recorder is not None:
            now = host.now
            pid = int(host.node_id)
            recorder.slot_open(now, pid, int(self.cluster_id), slot)
            if propose:
                record_member_phase(recorder, now, item, "propose", pid)

    def _decide(
        self, slot: int, digest: str, item: object, view: int, announce: Any = None
    ) -> None:
        """Decide ``slot``, multicast ``announce`` (if any), then let the host apply."""
        host = self.host
        host.log.decide(slot, digest, item, proposer=self.cluster_id, view=view)
        recorder = host.recorder
        if recorder is not None:
            record_member_phase(recorder, host.now, item, "decided", int(host.node_id))
        self.view_change.slot_decided(slot)
        if announce is not None:
            host.multicast_cluster(announce)
        host.after_decide()

    # ------------------------------------------------------------------
    # primary side (concrete engines implement ``propose_at``)
    # ------------------------------------------------------------------
    def submit(self, item: object) -> int | None:
        """Order ``item``; only the primary of the current view may call this."""
        if not self.is_primary:
            return None
        slot = self.host.log.allocate()
        self.propose_at(slot, item)
        return slot
