"""Intra-shard consensus for Byzantine clusters (PBFT, Figure 3(b)).

Normal-case operation over a cluster of ``3f + 1`` nodes:

1. the primary assigns the next sequence number and multicasts a signed
   ``pre-prepare``;
2. every replica that accepts the pre-prepare multicasts a signed
   ``prepare``; a replica is *prepared* once it holds ``2f + 1`` matching
   prepares (its own included);
3. prepared replicas multicast a signed ``commit``; a slot is decided at a
   replica once it holds ``2f + 1`` matching commits.

Replicas execute decided slots in order and reply to the client, which
waits for ``f + 1`` matching replies.  The view-change path is shared
with the Paxos engine (:class:`~repro.consensus.view_change.ViewChangeManager`),
and so is the slot lifecycle: slots open and decide through
:meth:`ConsensusEngine._open_slot` / :meth:`ConsensusEngine._decide`,
and both quorums are host-bound :class:`QuorumTracker` instances that
trace their votes.  Reaching the prepare quorum calls
:meth:`PBFTEngine._on_prepared`, which starts the commit round; FaB
overrides that one step to decide directly.
"""

from __future__ import annotations

from ..common.errors import ConsensusError
from .base import ConsensusEngine, ConsensusHost, QuorumTracker
from .batching import record_member_phase
from .log import item_digest
from .messages import NewView, PBFTCommit, PrePrepare, Prepare, ViewChange
from .view_change import ViewChangeManager

__all__ = ["PBFTEngine"]


class PBFTEngine(ConsensusEngine):
    """PBFT ordering engine for one Byzantine cluster."""

    HANDLERS = {
        PrePrepare: "_on_pre_prepare",
        Prepare: "_on_prepare",
        PBFTCommit: "_on_commit",
        ViewChange: "_on_view_change_message",
        NewView: "_on_new_view_message",
    }

    #: upper bound on pre-prepares parked for not-yet-installed views (a
    #: Byzantine primary inflating views must not grow memory unboundedly).
    MAX_STASHED_PRE_PREPARES = 64

    def __init__(self, host: ConsensusHost) -> None:
        super().__init__(host)
        quorum = 2 * host.cluster.f + 1
        self._prepares = QuorumTracker(quorum, host, "prepare")
        self._commits = QuorumTracker(quorum, host, "commit")
        self._items: dict[tuple[int, int, str], object] = {}
        #: pre-prepares for views this replica has not installed yet,
        #: keyed by view; released by :meth:`on_view_installed`.
        self._stashed_pre_prepares: dict[int, list[tuple[PrePrepare, int]]] = {}
        self._stashed_count = 0
        self.view_change = ViewChangeManager(self, quorum=quorum)

    # ------------------------------------------------------------------
    # primary side
    # ------------------------------------------------------------------
    def propose_at(self, slot: int, item: object) -> None:
        """Send the pre-prepare for ``item`` at an explicit slot."""
        digest = item_digest(item)
        self._open_slot(slot, digest, item, self.view, propose=True)
        key = (self.view, slot, digest)
        self._items[key] = item
        self.host.multicast_cluster(
            PrePrepare(view=self.view, slot=slot, digest=digest, item=item)
        )
        # The primary's pre-prepare counts as its prepare vote.
        self._record_prepare_vote(key, self.host.node_id)

    # ------------------------------------------------------------------
    # message handling (table-driven; see HandlerTable.handle)
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, message: PrePrepare, src: int) -> None:
        if src != self.host.cluster.primary_for_view(message.view):
            return
        if message.view < self.view:
            return
        if message.view > self.view:
            # A pre-prepare alone must never advance the view: that is
            # exactly how a `forged-view` adversary self-elects (inflate
            # `message.view` to a view whose round-robin primary it is).
            # Higher views are only adopted through a certificate-carrying
            # NewView (or a quorum-attested state transfer); park the
            # message and replay it if that view is legitimately installed.
            self._stash_pre_prepare(message, src)
            return
        try:
            self._open_slot(message.slot, message.digest, message.item, message.view)
        except ConsensusError:
            # A different digest already occupies the slot: do not prepare.
            return
        key = (message.view, message.slot, message.digest)
        self._items[key] = message.item
        prepare = Prepare(
            view=message.view, slot=message.slot, digest=message.digest, node=self.host.node_id
        )
        self.host.multicast_cluster(prepare)
        self._record_prepare_vote(key, self.host.node_id)
        # As in PBFT, the pre-prepare doubles as the primary's prepare
        # vote at every backup (the primary never multicasts a separate
        # Prepare).  Without this a cluster of 3f + 1 with one silent
        # replica can never assemble a 2f + 1 prepare quorum at backups.
        self._record_prepare_vote(key, src)

    def _on_prepare(self, message: Prepare, src: int) -> None:
        key = (message.view, message.slot, message.digest)
        self._record_prepare_vote(key, src)

    def _record_prepare_vote(self, key: tuple[int, int, str], voter: int) -> None:
        if not self._prepares.vote(key, voter):
            return
        recorder = self.host.recorder
        if recorder is not None:
            item = self._item_for(key)
            if item is not None:
                record_member_phase(
                    recorder, self.host.now, item, "prepared", int(self.host.node_id)
                )
        self._on_prepared(key)

    def _on_prepared(self, key: tuple[int, int, str]) -> None:
        """Prepared: multicast commit and count our own commit vote."""
        view, slot, digest = key
        commit = PBFTCommit(view=view, slot=slot, digest=digest, node=self.host.node_id)
        self.host.multicast_cluster(commit)
        self._record_commit_vote(key, self.host.node_id)

    def _on_commit(self, message: PBFTCommit, src: int) -> None:
        key = (message.view, message.slot, message.digest)
        self._record_commit_vote(key, src)

    def _record_commit_vote(self, key: tuple[int, int, str], voter: int) -> None:
        if self._commits.vote(key, voter):
            self._decide_key(key)

    def _decide_key(self, key: tuple[int, int, str]) -> None:
        """Decide the slot of a ``(view, slot, digest)`` key whose quorum fired."""
        item = self._item_for(key)
        if item is not None:
            view, slot, digest = key
            self._decide(slot, digest, item, view)

    def _item_for(self, key: tuple[int, int, str]) -> object | None:
        """The item voted on under ``key``: cached from the pre-prepare, or
        the log's entry for the slot when it holds the same digest."""
        item = self._items.get(key)
        if item is None:
            entry = self.host.log.entry(key[1])
            if entry is not None and entry.digest == key[2]:
                item = entry.item
        return item

    def _stash_pre_prepare(self, message: PrePrepare, src: int) -> None:
        """Park a future-view pre-prepare, preferring the nearest views.

        Legitimate out-of-order traffic is for the view about to install
        (a new primary's pre-prepare overtaking its NewView under link
        jitter); a forged-view adversary inflates to *farther* views.
        When the bounded stash is full, an entry of the farthest stashed
        view is evicted in favour of a nearer one, so the attacker can
        fill the budget with junk yet never crowd out the traffic the
        next installed view will actually want.
        """
        if self._stashed_count >= self.MAX_STASHED_PRE_PREPARES:
            farthest = max(self._stashed_pre_prepares)
            if message.view >= farthest:
                return
            batch = self._stashed_pre_prepares[farthest]
            batch.pop()
            if not batch:
                del self._stashed_pre_prepares[farthest]
            self._stashed_count -= 1
        self._stashed_pre_prepares.setdefault(message.view, []).append((message, src))
        self._stashed_count += 1

    # ------------------------------------------------------------------
    # view installation (certificate-verified; see ViewChangeManager)
    # ------------------------------------------------------------------
    def on_view_installed(self, view: int) -> None:
        """Release pre-prepares parked for ``view``; drop stale stashes.

        Stashed messages re-enter :meth:`_on_pre_prepare` with the view
        now current, so the usual primary/digest checks still apply.
        """
        for stashed_view in sorted(
            v for v in self._stashed_pre_prepares if v <= view
        ):
            batch = self._stashed_pre_prepares.pop(stashed_view)
            self._stashed_count -= len(batch)
            if stashed_view == view:
                for message, src in batch:
                    self._on_pre_prepare(message, src)

    # ------------------------------------------------------------------
    # checkpoint compaction (repro.recovery)
    # ------------------------------------------------------------------
    def compact_below(self, slot: int) -> None:
        """Drop per-slot vote/item bookkeeping covered by a stable checkpoint.

        Keys are ``(view, slot, digest)`` tuples, so the vote trackers
        and the item cache are filtered on the slot component; the
        view-change tracker (keyed on views, not slots) is untouched.
        """
        self._prepares.drop(lambda key: key[1] <= slot)
        self._commits.drop(lambda key: key[1] <= slot)
        for key in [key for key in self._items if key[1] <= slot]:
            del self._items[key]
