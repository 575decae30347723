"""Intra-shard consensus for crash-only clusters (Paxos, Figure 3(a)).

The cluster primary receives client requests, assigns the next sequence
number (the role the hash of the previous block plays in the paper),
multicasts an ``accept`` to its backups, waits for ``f`` matching
``accepted`` replies (``f + 1`` votes counting itself — a majority of the
``2f + 1`` cluster), and multicasts a ``commit``.  Backups execute and
append once they receive the commit.

Consensus instances are pipelined over sequence numbers (Multi-Paxos
style); the ledger layer applies decided slots strictly in order, so the
chain every replica materialises is identical to the one the paper's
hash-chained formulation produces.

The engine only supplies the message flow: opening and deciding a slot
(log, view-change timer, trace milestones) is the slot lifecycle shared
by every intra-shard engine (:meth:`ConsensusEngine._open_slot` and
:meth:`ConsensusEngine._decide`), and the ``accepted`` votes are counted
— and traced — by a host-bound :class:`QuorumTracker`.
"""

from __future__ import annotations

from ..common.errors import ConsensusError
from .base import ConsensusEngine, ConsensusHost, QuorumTracker
from .log import item_digest
from .messages import NewView, PaxosAccept, PaxosAccepted, PaxosCommit, ViewChange
from .view_change import ViewChangeManager

__all__ = ["PaxosEngine"]


class PaxosEngine(ConsensusEngine):
    """Multi-Paxos ordering engine for one crash-only cluster."""

    HANDLERS = {
        PaxosAccept: "_on_accept",
        PaxosAccepted: "_on_accepted",
        PaxosCommit: "_on_commit",
        ViewChange: "_on_view_change_message",
        NewView: "_on_new_view_message",
    }

    def __init__(self, host: ConsensusHost) -> None:
        super().__init__(host)
        # f + 1 votes (counting the primary itself) decide a slot.
        self._accepted = QuorumTracker(host.cluster.f + 1, host, "accept")
        self.view_change = ViewChangeManager(self, quorum=host.cluster.f + 1)

    # ------------------------------------------------------------------
    # primary side
    # ------------------------------------------------------------------
    def propose_at(self, slot: int, item: object) -> None:
        """Propose ``item`` at an explicit slot (used by view changes too)."""
        digest = item_digest(item)
        self._open_slot(slot, digest, item, self.view, propose=True)
        self.host.multicast_cluster(
            PaxosAccept(view=self.view, slot=slot, digest=digest, item=item)
        )
        # The primary's own vote counts toward the f + 1 majority.
        self._accepted.vote((self.view, slot, digest), self.host.node_id)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_accept(self, message: PaxosAccept, src: int) -> None:
        if src != self.host.cluster.primary_for_view(message.view):
            return
        if message.view < self.view:
            return
        if message.view > self.view:
            # The cluster moved on without us; adopt the newer view.
            self.view = message.view
        try:
            self._open_slot(message.slot, message.digest, message.item, message.view)
        except ConsensusError:
            # The slot already holds a different digest; do not vote.
            return
        reply = PaxosAccepted(
            view=message.view, slot=message.slot, digest=message.digest, node=self.host.node_id
        )
        self.host.send_to(self.host.cluster.primary_for_view(message.view), reply)

    def _on_accepted(self, message: PaxosAccepted, src: int) -> None:
        if not self.is_primary or message.view != self.view:
            return
        if not self._accepted.vote((message.view, message.slot, message.digest), src):
            return
        entry = self.host.log.entry(message.slot)
        item = entry.item if entry is not None else None
        if item is None:
            return
        self._decide(
            message.slot, message.digest, item, message.view,
            announce=PaxosCommit(
                view=message.view, slot=message.slot, digest=message.digest, item=item
            ),
        )

    def _on_commit(self, message: PaxosCommit, src: int) -> None:
        if src != self.host.cluster.primary_for_view(message.view):
            return
        self._decide(message.slot, message.digest, message.item, message.view)

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop accepted-vote bookkeeping covered by a stable checkpoint."""
        self._accepted.drop(lambda key: key[1] <= slot)
