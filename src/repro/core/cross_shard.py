"""The flattened cross-shard consensus protocols (Algorithms 1 and 2).

Cross-shard transactions are ordered directly among all — and only — the
involved clusters, with no reference committee and no commit protocol
layered on top of intra-shard consensus.  Two variants exist:

* :class:`CrashCrossShardEngine` (Algorithm 1): the initiator primary
  multicasts a ``propose``; every node of every involved cluster replies
  with an ``accept``; the initiator collects ``f + 1`` matching accepts
  per involved cluster and multicasts a ``commit``.
* :class:`ByzantineCrossShardEngine` (Algorithm 2): same three phases, but
  accepts and commits are multicast all-to-all among the involved nodes
  and quorums are ``2f + 1`` per cluster.

Both run the same phases over the same bookkeeping, so everything they
share lives in one private base, :class:`_CrossShardEngine`: the
counters, the per-instance state and slot-assignment tables, the local
slot get-or-allocate, the "already committed" check (ordering log first,
then the ledger's transaction index below the checkpoint low-water
mark), the provisional slot reservation, the retry timer and its abort
budget, the decide tail (decide the local slot, tolerate a slot a view
change already no-op filled, record ``decided``, apply), and checkpoint
compaction.  Each subclass keeps only its own message flow — who
multicasts what to whom, and which quorum fires the commit.

Implementation interpretation (documented in DESIGN.md): consensus
instances are pipelined over per-cluster sequence numbers instead of
being chained on the literal hash of the previous block.  The position a
cluster reserves for a cross-shard transaction is assigned by that
cluster's primary and echoed by its backups; the accept/commit quorums of
the paper are unchanged.  Non-overlapping cross-shard transactions
therefore proceed fully in parallel, and transactions that share clusters
are serialised per cluster by the (single) slot assigner — the role the
super-primary plays in the paper.

With batching armed (``ProtocolTuning.batch_size > 1``) the ordered item
may be a :class:`~repro.consensus.messages.RequestBatch` instead of a
bare request: one propose/accept/commit exchange, one position vector,
and one signature then order many client transactions at once.  The
engines stay item-agnostic — only the duplicate checks and the
Byzantine-client screen iterate batch members (see
:mod:`repro.consensus.batching`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..common.errors import ConsensusError
from ..common.types import ClusterId, NodeId
from ..consensus.base import HandlerTable
from ..consensus.batching import members_all_committed, record_member_phase, screen_members
from ..consensus.log import Noop, item_digest
from ..consensus.messages import (
    ClientRequest,
    CrossAccept,
    CrossAcceptB,
    CrossCommit,
    CrossCommitB,
    CrossPropose,
    CrossProposeB,
)
from ..sim.simulator import Timer
from .guard import ADMIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .replica import SharPerReplica

__all__ = ["CrashCrossShardEngine", "ByzantineCrossShardEngine"]


class _CrossShardEngine(HandlerTable):
    """What Algorithms 1 and 2 share; subclasses add the message flow.

    Subclasses declare ``HANDLERS`` and implement :meth:`_may_retry` and
    :meth:`_resend`, the two places their retry paths differ.  Per-instance
    state objects need ``request``, ``digest``, ``attempt``, ``decided``
    and ``timer`` attributes.
    """

    def __init__(self, host: "SharPerReplica") -> None:
        self.host = host
        self._build_handlers()
        #: per-instance bookkeeping, keyed by item digest.
        self._states: dict = {}
        #: this cluster's slot for each instance it reserved one for.
        self._assigned_slots: dict[str, int] = {}
        self.initiated = 0
        self.committed = 0
        self.retries = 0
        self.aborted = 0
        #: commits dropped because the local slot was resolved otherwise.
        self.late_commits = 0

    # ------------------------------------------------------------------
    # local slots
    # ------------------------------------------------------------------
    def _slot_for(self, digest: str) -> int:
        """This cluster's slot for instance ``digest``, allocated on first use."""
        slot = self._assigned_slots.get(digest)
        if slot is None:
            slot = self.host.log.allocate()
            self._assigned_slots[digest] = slot
        return slot

    def _try_record_pending(self, slot: int, digest: str, request: object) -> None:
        try:
            self.host.log.record_pending(slot, digest, request, proposer=self.host.cluster_id)
        except ConsensusError:
            # The slot is already taken by a different digest; the commit
            # message will resolve the final assignment.
            pass

    def _committed_slot(self, digest: str, request: object) -> int | None:
        """Local position of an already-committed item, if any.

        The log's digest index is truncated below the low-water mark, so
        a (very) stale duplicate of a checkpointed transaction must be
        caught through the ledger's retained transaction index instead —
        re-running the instance would double-commit it.  A batch counts
        as committed only when *every* member did (a partially settled
        batch must stay orderable; apply-time skips handle the rest),
        and answers with the representative member's position.
        """
        host = self.host
        slot = host.log.decided_slot_of(digest)
        if slot is not None:
            return slot
        chain = getattr(host, "chain", None)
        if chain is None or not members_all_committed(chain, request):
            return None
        return chain.position_of_tx(request.transaction.tx_id)

    # ------------------------------------------------------------------
    # retries
    # ------------------------------------------------------------------
    def _arm_retry_timer(self, state) -> None:
        if state.timer is not None:
            state.timer.cancel()
        state.timer = self.host.set_timer(
            self.host.tuning.conflict_retry_delay * (state.attempt + 1),
            self._on_retry_timeout,
            state.digest,
        )

    def _on_retry_timeout(self, digest: str) -> None:
        state = self._states.get(digest)
        if state is None or state.decided or not self._may_retry(state):
            return
        if state.attempt >= self.host.tuning.max_conflict_retries:
            self.aborted += 1
            self.host.on_cross_shard_abort(state.request)
            return
        state.attempt += 1
        self.retries += 1
        self._resend(state)

    def _may_retry(self, state) -> bool:
        """Whether this node drives retries of ``state``'s instance."""
        raise NotImplementedError

    def _resend(self, state) -> None:
        """Re-run ``state``'s instance under its incremented attempt."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # deciding
    # ------------------------------------------------------------------
    def _decide(
        self, slot: int, digest: str, request: object, positions: dict, proposer: ClusterId
    ) -> None:
        """Decide the local ``slot`` of an instance and apply what is ready.

        The one tolerated conflict is a slot a view change no-op filled
        before this late commit arrived: it is dropped (the client's
        retry re-runs the instance at a fresh position) and counted in
        ``late_commits``.  A conflicting *real* decision is a genuine
        fork and keeps raising.
        """
        host = self.host
        try:
            host.log.decide(slot, digest, request, positions=positions, proposer=proposer)
        except ConsensusError:
            entry = host.log.entry(slot)
            if entry is None or not isinstance(entry.item, Noop):
                raise
            self.late_commits += 1
            return
        recorder = host.recorder
        if recorder is not None:
            record_member_phase(recorder, host.now, request, "decided", int(host.node_id))
        host.after_decide()

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop bookkeeping for instances decided at or below ``slot``.

        Decided instances whose local slot fell at or below the
        checkpoint can never be consulted again (stale proposals are
        answered through the ledger's transaction index), so their vote
        sets and slot assignments are dropped.  Undecided instances stay
        — their retry timers are still live.
        """
        states = self._states
        assigned_slots = self._assigned_slots
        for digest in [d for d, s in assigned_slots.items() if s <= slot]:
            del assigned_slots[digest]
            state = states.get(digest)
            if state is not None and state.decided:
                del states[digest]


# ----------------------------------------------------------------------
# crash-only clusters — Algorithm 1
# ----------------------------------------------------------------------
@dataclass
class _CrashState:
    """Initiator-side bookkeeping for one cross-shard transaction."""

    request: ClientRequest
    digest: str
    involved: tuple[ClusterId, ...]
    attempt: int = 0
    votes: dict[ClusterId, set[NodeId]] = field(default_factory=dict)
    slots: dict[ClusterId, int] = field(default_factory=dict)
    decided: bool = False
    timer: Timer | None = None


class CrashCrossShardEngine(_CrossShardEngine):
    """Algorithm 1: flattened cross-shard consensus for crash-only nodes."""

    HANDLERS = {
        CrossPropose: "_on_propose",
        CrossAccept: "_on_accept",
        CrossCommit: "_on_commit",
    }

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------
    def start(self, request: ClientRequest) -> None:
        """Initiate consensus on a cross-shard transaction (primary only)."""
        digest = item_digest(request)
        if self._committed_slot(digest, request) is not None:
            # Duplicate submission of an already-committed transaction.
            return
        involved = self.host.involved_clusters_of(request.transaction)
        state = self._states.get(digest)
        if state is None:
            slot = self._slot_for(digest)
            self.host.log.record_pending(slot, digest, request, proposer=self.host.cluster_id)
            state = _CrashState(request=request, digest=digest, involved=involved)
            state.slots[self.host.cluster_id] = slot
            state.votes[self.host.cluster_id] = {self.host.node_id}
            self._states[digest] = state
            self.initiated += 1
            recorder = self.host.recorder
            if recorder is not None:
                now = self.host.now
                pid = int(self.host.node_id)
                record_member_phase(recorder, now, request, "cross_start", pid)
                if recorder.causal_armed:
                    # The initiator's own vote (counted above) never fires
                    # the quorum by itself: every involved cluster needs a
                    # full cross_quorum, so decided is always False here.
                    recorder.quorum_vote(now, pid, "cross_accept", digest, pid, False)
        self._broadcast_propose(state)
        self._arm_retry_timer(state)

    def _broadcast_propose(self, state: _CrashState) -> None:
        message = CrossPropose(
            digest=state.digest,
            request=state.request,
            involved=state.involved,
            initiator_cluster=self.host.cluster_id,
            initiator_slot=state.slots[self.host.cluster_id],
            attempt=state.attempt,
        )
        self.host.multicast_nodes(self.host.nodes_of_clusters(state.involved), message)

    def _may_retry(self, state: _CrashState) -> bool:
        # Only the initiator holds crash-engine state.
        return True

    def _resend(self, state: _CrashState) -> None:
        self._broadcast_propose(state)
        self._arm_retry_timer(state)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_propose(self, message: CrossPropose, src: int) -> None:
        guard = self.host.request_guard
        if guard is not None and screen_members(guard, message.request) != ADMIT:
            # Byzantine-client defence at every involved cluster: a
            # forged/replayed/ownership-violating request must not
            # gather accept votes anywhere — not even at clusters that
            # never saw the original client submission.
            return
        digest = message.digest
        # Already committed here: answer idempotently with the committed
        # position so a retrying initiator can complete.
        slot = self._committed_slot(digest, message.request)
        if slot is None:
            if message.initiator_cluster == self.host.cluster_id:
                # Backup of the initiator cluster: the initiator already
                # fixed the local position.
                slot = message.initiator_slot
                self._try_record_pending(slot, digest, message.request)
            elif self.host.is_cluster_primary:
                slot = self._slot_for(digest)
                self._try_record_pending(slot, digest, message.request)
            # Otherwise a backup of a remote involved cluster: it agrees
            # with whatever position its own primary reserves (learned
            # at commit time), so it votes with no slot.
        reply = CrossAccept(
            digest=digest,
            cluster=self.host.cluster_id,
            node=self.host.node_id,
            slot=slot,
            attempt=message.attempt,
        )
        self.host.send_to(src, reply)

    def _on_accept(self, message: CrossAccept, src: int) -> None:
        state = self._states.get(message.digest)
        if state is None or state.decided:
            return
        votes = state.votes.setdefault(message.cluster, set())
        votes.add(NodeId(src))
        if message.slot is not None:
            state.slots.setdefault(message.cluster, message.slot)
        self._maybe_commit(state)
        recorder = self.host.recorder
        if recorder is not None and recorder.causal_armed:
            recorder.quorum_vote(
                self.host.now, int(self.host.node_id), "cross_accept",
                message.digest, int(src), state.decided,
            )

    def _maybe_commit(self, state: _CrashState) -> None:
        if state.decided:
            return
        for cluster in state.involved:
            quorum = self.host.config.cluster(cluster).cross_quorum
            if len(state.votes.get(cluster, ())) < quorum:
                return
            if cluster not in state.slots:
                return
        state.decided = True
        if state.timer is not None:
            state.timer.cancel()
        self.committed += 1
        recorder = self.host.recorder
        if recorder is not None:
            record_member_phase(
                recorder, self.host.now, state.request, "cross_prepared", int(self.host.node_id)
            )
        positions = dict(state.slots)
        commit = CrossCommit(
            digest=state.digest,
            request=state.request,
            positions=tuple(sorted(positions.items())),
            proposer=self.host.cluster_id,
            attempt=state.attempt,
        )
        self.host.multicast_nodes(self.host.nodes_of_clusters(state.involved), commit)
        self._decide(
            positions[self.host.cluster_id], state.digest, state.request,
            positions, self.host.cluster_id,
        )

    def _on_commit(self, message: CrossCommit, src: int) -> None:
        positions = dict(message.positions)
        my_slot = positions.get(self.host.cluster_id)
        if my_slot is None:
            return
        self._decide(my_slot, message.digest, message.request, positions, message.proposer)


# ----------------------------------------------------------------------
# Byzantine clusters — Algorithm 2
# ----------------------------------------------------------------------
@dataclass
class _ByzState:
    """Per-node bookkeeping for one cross-shard transaction (Algorithm 2)."""

    digest: str
    request: ClientRequest | None = None
    involved: tuple[ClusterId, ...] = ()
    initiator_cluster: ClusterId | None = None
    attempt: int = 0
    #: accept votes: cluster → slot → voters.
    accept_votes: dict[ClusterId, dict[int, set[NodeId]]] = field(default_factory=dict)
    #: slot confirmed (2f+1 accepts) per cluster.
    confirmed_slots: dict[ClusterId, int] = field(default_factory=dict)
    #: slot announced by each cluster's primary (trusted provisionally).
    announced_slots: dict[ClusterId, int] = field(default_factory=dict)
    #: commit votes: cluster → voters.
    commit_votes: dict[ClusterId, set[NodeId]] = field(default_factory=dict)
    accept_sent: bool = False
    commit_sent: bool = False
    decided: bool = False
    timer: Timer | None = None


class ByzantineCrossShardEngine(_CrossShardEngine):
    """Algorithm 2: flattened cross-shard consensus for Byzantine nodes."""

    HANDLERS = {
        CrossProposeB: "_on_propose",
        CrossAcceptB: "_on_accept",
        CrossCommitB: "_on_commit",
    }

    # ------------------------------------------------------------------
    # initiator side
    # ------------------------------------------------------------------
    def start(self, request: ClientRequest) -> None:
        """Initiate consensus on a cross-shard transaction (primary only)."""
        digest = item_digest(request)
        if self._committed_slot(digest, request) is not None:
            return
        involved = self.host.involved_clusters_of(request.transaction)
        state = self._state(digest)
        if state.request is None:
            slot = self._slot_for(digest)
            state.request = request
            state.involved = involved
            state.initiator_cluster = self.host.cluster_id
            state.announced_slots[self.host.cluster_id] = slot
            self._try_record_pending(slot, digest, request)
            self.initiated += 1
            recorder = self.host.recorder
            if recorder is not None:
                record_member_phase(
                    recorder, self.host.now, request, "cross_start", int(self.host.node_id)
                )
        propose = CrossProposeB(
            digest=digest,
            request=request,
            involved=involved,
            initiator_cluster=self.host.cluster_id,
            initiator_slot=state.announced_slots[self.host.cluster_id],
            attempt=state.attempt,
        )
        self.host.multicast_nodes(self.host.nodes_of_clusters(involved), propose)
        self._send_accept(state)
        self._arm_retry_timer(state)

    def _state(self, digest: str) -> _ByzState:
        state = self._states.get(digest)
        if state is None:
            state = _ByzState(digest=digest)
            self._states[digest] = state
        return state

    def _may_retry(self, state: _ByzState) -> bool:
        # Every involved node holds state; only the initiator primary retries.
        return (
            state.request is not None
            and state.initiator_cluster == self.host.cluster_id
            and self.host.is_cluster_primary
        )

    def _resend(self, state: _ByzState) -> None:
        self.start(state.request)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_propose(self, message: CrossProposeB, src: int) -> None:
        expected = self.host.primary_pid_of(message.initiator_cluster)
        if src != expected:
            # Only the initiator cluster's primary may propose.
            return
        guard = self.host.request_guard
        if guard is not None and screen_members(guard, message.request) != ADMIT:
            # Same Byzantine-client screen the crash engine applies: no
            # correct node of any involved cluster accepts a forged,
            # replayed, or ownership-violating request (nor a batch
            # carrying one), so the quorum can never form.
            return
        state = self._state(message.digest)
        state.request = message.request
        state.involved = message.involved
        state.initiator_cluster = message.initiator_cluster
        state.attempt = max(state.attempt, message.attempt)
        state.announced_slots[message.initiator_cluster] = message.initiator_slot
        if self._committed_slot(message.digest, message.request) is not None:
            return
        my_cluster = self.host.cluster_id
        if my_cluster == message.initiator_cluster:
            state.announced_slots[my_cluster] = message.initiator_slot
            self._try_record_pending(message.initiator_slot, message.digest, message.request)
        elif self.host.is_cluster_primary and my_cluster not in state.announced_slots:
            slot = self._slot_for(message.digest)
            state.announced_slots[my_cluster] = slot
            self._try_record_pending(slot, message.digest, message.request)
        self._send_accept(state)

    def _send_accept(self, state: _ByzState) -> None:
        """Multicast this node's accept once it knows its cluster's slot."""
        if state.accept_sent or state.request is None:
            return
        my_cluster = self.host.cluster_id
        slot = state.announced_slots.get(my_cluster)
        if slot is None:
            # Backups wait until their cluster primary announces the slot
            # (via its own accept message).
            return
        state.accept_sent = True
        self._try_record_pending(slot, state.digest, state.request)
        accept = CrossAcceptB(
            digest=state.digest,
            cluster=my_cluster,
            node=self.host.node_id,
            slot=slot,
            attempt=state.attempt,
        )
        self.host.multicast_nodes(self.host.nodes_of_clusters(state.involved), accept)
        self._register_accept(state, my_cluster, slot, self.host.node_id)

    def _on_accept(self, message: CrossAcceptB, src: int) -> None:
        state = self._state(message.digest)
        if message.slot is None:
            return
        # Backups learn their cluster's slot from their primary's accept.
        if (
            message.cluster == self.host.cluster_id
            and src == self.host.primary_pid_of(message.cluster)
        ):
            state.announced_slots.setdefault(message.cluster, message.slot)
            self._send_accept(state)
        self._register_accept(state, message.cluster, message.slot, NodeId(src))

    def _register_accept(
        self, state: _ByzState, cluster: ClusterId, slot: int, voter: NodeId
    ) -> None:
        per_cluster = state.accept_votes.setdefault(cluster, {})
        voters = per_cluster.setdefault(slot, set())
        voters.add(voter)
        quorum = self.host.config.cluster(cluster).cross_quorum
        if len(voters) >= quorum:
            state.confirmed_slots.setdefault(cluster, slot)
        self._maybe_send_commit(state)
        recorder = self.host.recorder
        if recorder is not None and recorder.causal_armed:
            recorder.quorum_vote(
                self.host.now, int(self.host.node_id), "cross_accept",
                state.digest, int(voter), state.commit_sent,
            )

    def _maybe_send_commit(self, state: _ByzState) -> None:
        if state.commit_sent or state.decided or state.request is None or not state.involved:
            return
        if any(cluster not in state.confirmed_slots for cluster in state.involved):
            return
        state.commit_sent = True
        recorder = self.host.recorder
        if recorder is not None:
            record_member_phase(
                recorder, self.host.now, state.request, "cross_prepared", int(self.host.node_id)
            )
        positions = {cluster: state.confirmed_slots[cluster] for cluster in state.involved}
        commit = CrossCommitB(
            digest=state.digest,
            cluster=self.host.cluster_id,
            node=self.host.node_id,
            positions=tuple(sorted(positions.items())),
            attempt=state.attempt,
        )
        self.host.multicast_nodes(self.host.nodes_of_clusters(state.involved), commit)
        self._register_commit(state, self.host.cluster_id, self.host.node_id)

    def _on_commit(self, message: CrossCommitB, src: int) -> None:
        state = self._state(message.digest)
        for cluster, slot in message.positions:
            state.confirmed_slots.setdefault(cluster, slot)
        if not state.involved:
            state.involved = tuple(cluster for cluster, _ in message.positions)
        self._register_commit(state, message.cluster, NodeId(src))

    def _register_commit(self, state: _ByzState, cluster: ClusterId, voter: NodeId) -> None:
        voters = state.commit_votes.setdefault(cluster, set())
        voters.add(voter)
        self._maybe_decide(state)
        recorder = self.host.recorder
        if recorder is not None and recorder.causal_armed:
            recorder.quorum_vote(
                self.host.now, int(self.host.node_id), "cross_commit",
                state.digest, int(voter), state.decided,
            )

    def _maybe_decide(self, state: _ByzState) -> None:
        if state.decided or state.request is None or not state.involved:
            return
        for cluster in state.involved:
            quorum = self.host.config.cluster(cluster).cross_quorum
            if len(state.commit_votes.get(cluster, ())) < quorum:
                return
            if cluster not in state.confirmed_slots:
                return
        state.decided = True
        if state.timer is not None:
            state.timer.cancel()
        self.committed += 1
        positions = {cluster: state.confirmed_slots[cluster] for cluster in state.involved}
        my_slot = positions.get(self.host.cluster_id)
        if my_slot is None:
            return
        proposer = (
            state.initiator_cluster
            if state.initiator_cluster is not None
            else self.host.cluster_id
        )
        self._decide(my_slot, state.digest, state.request, positions, proposer)
