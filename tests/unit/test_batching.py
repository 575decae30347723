"""Unit tests for the primary-side batching pipeline.

Covers the pieces the integration differential cannot isolate: batch
digest memoisation, the singleton-unwrap rule, window accounting and
member release, retry dedup, and the view-change reset paths — all
against a minimal fake host, no simulator involved — plus the apply
side, where a bare request is applied as a batch of one.
"""

import pytest

from repro.api import DeploymentSpec
from repro.common.config import ProtocolTuning
from repro.common.types import AccountId, ClientId, ClusterId, FaultModel
from repro.consensus.batching import BatchPipeline, member_requests
from repro.consensus.log import item_digest
from repro.consensus.messages import ClientRequest, RequestBatch
from repro.core.system import SharPerSystem
from repro.txn.transaction import Transaction, Transfer
from repro.txn.workload import WorkloadConfig


def make_request(index: int) -> ClientRequest:
    transaction = Transaction(
        tx_id=f"tx-{index}",
        client=ClientId(1),
        transfers=(
            Transfer(
                source=AccountId(2 * index),
                destination=AccountId(2 * index + 1),
                amount=1,
            ),
        ),
    )
    return ClientRequest(
        transaction=transaction, client=ClientId(1), timestamp=float(index)
    )


class FakeIntra:
    def __init__(self):
        self.submitted = []

    def submit(self, item):
        self.submitted.append(item)


class FakeCross:
    def __init__(self):
        self.started = []

    def start(self, item):
        self.started.append(item)


class FakeHost:
    """The slice of SharPerReplica that BatchPipeline touches."""

    def __init__(self, batch_size=4, pipeline_depth=2, primary=True):
        self.tuning = ProtocolTuning(
            batch_size=batch_size, pipeline_depth=pipeline_depth
        )
        self.is_cluster_primary = primary
        self.cluster_id = ClusterId(0)
        self.intra = FakeIntra()
        self.cross = FakeCross()
        self.forwarded = []
        self.monitored = []
        #: flight recorder (ConsensusHost interface); left unarmed here.
        self.recorder = None
        self.now = 0.0
        self.node_id = 0

    def primary_pid_of(self, cluster):
        return 1

    def _monitor_forwarded_request(self, request):
        self.monitored.append(request)

    def _forward(self, request, destination):
        self.forwarded.append((request, destination))


class TestRequestBatchDigest:
    def test_digest_is_memoised_on_the_instance(self):
        batch = RequestBatch(requests=(make_request(0), make_request(1)))
        first = batch.payload_digest()
        assert batch.__dict__["_item_digest"] is first
        assert batch.payload_digest() is first

    def test_digest_depends_on_member_order(self):
        a, b = make_request(0), make_request(1)
        assert (
            RequestBatch(requests=(a, b)).payload_digest()
            != RequestBatch(requests=(b, a)).payload_digest()
        )

    def test_digest_differs_from_any_member(self):
        a, b = make_request(0), make_request(1)
        batch = RequestBatch(requests=(a, b))
        assert batch.payload_digest() not in (a.payload_digest(), b.payload_digest())

    def test_representative_transaction_is_first_member(self):
        a, b = make_request(0), make_request(1)
        assert RequestBatch(requests=(a, b)).transaction is a.transaction


class TestMemberRequests:
    def test_batch_yields_members(self):
        a, b = make_request(0), make_request(1)
        assert member_requests(RequestBatch(requests=(a, b))) == (a, b)

    def test_bare_request_yields_itself(self):
        request = make_request(0)
        assert member_requests(request) == (request,)

    def test_other_items_yield_nothing(self):
        assert member_requests(object()) == ()


class TestPipelineMechanics:
    def test_singleton_proposes_bare_request(self):
        """A queue of one must not wrap: digests match the legacy path."""
        host = FakeHost(batch_size=4)
        pipeline = BatchPipeline(host)
        request = make_request(0)
        pipeline.submit_intra(request)
        assert host.intra.submitted == [request]
        assert pipeline.singletons_proposed == 1
        assert pipeline.batches_proposed == 0

    def test_backlog_drains_in_batches_behind_the_window(self):
        host = FakeHost(batch_size=3, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(5)]
        for request in requests:
            pipeline.submit_intra(request)
        # Window of 1: the first request went out alone; the rest queue.
        assert host.intra.submitted == [requests[0]]
        pipeline.item_applied(item_digest(requests[0]))
        # Slot freed: the backlog drains as one batch of batch_size.
        assert len(host.intra.submitted) == 2
        batch = host.intra.submitted[1]
        assert isinstance(batch, RequestBatch)
        assert batch.requests == tuple(requests[1:4])
        pipeline.item_applied(item_digest(batch))
        # Remaining single request unwraps again.
        assert host.intra.submitted[2] is requests[4]
        assert pipeline.max_batch == 3
        assert pipeline.batched_requests == 3

    def test_window_release_frees_members(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        a, b = make_request(0), make_request(1)
        pipeline.submit_intra(a)
        assert pipeline.knows(item_digest(a))
        pipeline.item_applied(item_digest(a))
        assert not pipeline.knows(item_digest(a))
        assert not pipeline.knows(item_digest(b))

    def test_retry_of_queued_request_is_dropped(self):
        host = FakeHost(batch_size=4, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        request = make_request(0)
        pipeline.submit_intra(request)
        pipeline.submit_intra(request)  # client retry while in flight
        assert host.intra.submitted == [request]
        pipeline.item_applied(item_digest(request))
        assert host.intra.submitted == [request]  # nothing re-queued

    def test_cross_lanes_share_one_window(self):
        """Lanes keep batches homogeneous; the window is global.

        A freed slot must be offered to *every* lane — the applied
        item's own lane may be empty while another is backed up.
        """
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        near = (ClusterId(0), ClusterId(1))
        far = (ClusterId(0), ClusterId(2))
        a, b, c = make_request(0), make_request(1), make_request(2)
        pipeline.submit_cross(a, near)
        pipeline.submit_cross(b, near)  # queues: the shared window is full
        pipeline.submit_cross(c, far)  # different lane, same full window
        assert host.cross.started == [a]
        pipeline.item_applied(item_digest(a))
        assert host.cross.started == [a, b]
        pipeline.item_applied(item_digest(b))
        # b's own lane is drained; the slot still reaches the far lane.
        assert host.cross.started == [a, b, c]

    def test_non_primary_never_proposes(self):
        host = FakeHost(primary=False)
        pipeline = BatchPipeline(host)
        pipeline.submit_intra(make_request(0))
        assert host.intra.submitted == []

    def test_batch_size_floor_is_one(self):
        host = FakeHost(batch_size=0, pipeline_depth=0)
        pipeline = BatchPipeline(host)
        assert pipeline.batch_size == 1
        assert pipeline.pipeline_depth == 1


class TestViewChangeReset:
    def test_new_primary_repumps_its_queues(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(3)]
        for request in requests:
            pipeline.submit_intra(request)
        assert host.intra.submitted == [requests[0]]
        # View change: in-flight slots are the protocol's problem now;
        # the window reopens and the queue drains into it.
        pipeline.on_view_installed()
        assert pipeline.view_resets == 1
        batch = host.intra.submitted[1]
        assert isinstance(batch, RequestBatch)
        assert batch.requests == tuple(requests[1:3])

    def test_demoted_replica_forwards_queued_requests(self):
        host = FakeHost(batch_size=2, pipeline_depth=1)
        pipeline = BatchPipeline(host)
        requests = [make_request(i) for i in range(3)]
        for request in requests:
            pipeline.submit_intra(request)
        host.is_cluster_primary = False
        pipeline.on_view_installed()
        forwarded = [request for request, _ in host.forwarded]
        assert forwarded == requests[1:3]
        assert host.monitored == requests[1:3]
        assert all(destination == 1 for _, destination in host.forwarded)
        # Forwarded members leave the dedup index: the new primary owns
        # them now, and a later retry through this replica must forward
        # again rather than vanish.
        assert not pipeline.knows(item_digest(requests[1]))


class TestApplyDuplicateMember:
    @pytest.mark.parametrize("wrap", [False, True], ids=["bare-request", "batch"])
    def test_duplicate_applies_as_noop_without_guard(self, wrap):
        """A transaction ordered twice commits once, guard or no guard.

        With no :class:`~repro.core.guard.RequestGuard` armed, the ledger
        index alone must catch the duplicate at apply time: the second
        slot fills with a no-op block instead of re-executing the
        transaction (which the ledger would refuse as a fork).
        """
        config = DeploymentSpec(
            system="sharper", fault_model=FaultModel.CRASH, num_clusters=2
        ).resolve(seed=1)
        system = SharPerSystem(config, WorkloadConfig(accounts_per_shard=64), seed=1)
        replica = system.primary_of(ClusterId(0))
        assert replica.request_guard is None
        request = make_request(0)  # accounts 0 -> 1, both on shard 0
        duplicate = RequestBatch(requests=(request,)) if wrap else request
        replica.log.decide(1, item_digest(request), request)
        replica.log.decide(2, item_digest(duplicate), duplicate)
        replica.after_decide()
        assert replica.committed_count == 1
        assert replica.chain.height == 2
        assert replica.chain.block_at(1).tx_ids == (request.transaction.tx_id,)
        assert replica.chain.block_at(2).is_noop
