"""The decide tail both cross-shard engines share.

A cross-shard commit can reach a replica after a view change already
resolved the local slot.  If the slot was no-op filled, the late commit
is dropped and counted; if it holds a *real* decision, two transactions
claim one slot — a fork — and the engine must raise.  Both engines are
driven through their own commit path (Algorithm 1's single commit from
the initiator, Algorithm 2's all-to-all commit quorum).
"""

import pytest

from repro.api import DeploymentSpec
from repro.common.errors import ConsensusError
from repro.common.types import ClusterId, FaultModel
from repro.consensus.log import Noop, item_digest
from repro.consensus.messages import ClientRequest, CrossCommit, CrossCommitB, CrossProposeB
from repro.core.cross_shard import ByzantineCrossShardEngine, CrashCrossShardEngine
from repro.core.system import SharPerSystem
from repro.txn.transaction import Transaction
from repro.txn.workload import WorkloadConfig

ENGINES = [
    pytest.param(FaultModel.CRASH, CrashCrossShardEngine, id="crash-engine"),
    pytest.param(FaultModel.BYZANTINE, ByzantineCrossShardEngine, id="byzantine-engine"),
]
POSITIONS = {ClusterId(0): 1, ClusterId(1): 1}


def build_system(fault_model):
    config = DeploymentSpec(
        system="sharper", fault_model=fault_model, num_clusters=2
    ).resolve(seed=9)
    workload = WorkloadConfig(cross_shard_fraction=0.5, accounts_per_shard=64)
    return SharPerSystem(config, workload, seed=9)


def request_for(system, source: int, destination: int) -> ClientRequest:
    # Accounts 0..63 live on shard 0 and 64..127 on shard 1.
    transaction = Transaction.transfer(
        client=system.owner_of(source), source=source, destination=destination, amount=1
    )
    return ClientRequest(transaction=transaction, client=transaction.client, timestamp=0.0)


def deliver_commit(system, replica, request) -> None:
    """Drive ``replica``'s engine to decide ``request`` at ``POSITIONS``."""
    engine = replica.cross
    digest = item_digest(request)
    positions = tuple(sorted(POSITIONS.items()))
    initiator = system.primary_of(ClusterId(0))
    if isinstance(engine, CrashCrossShardEngine):
        engine.handle(
            CrossCommit(digest=digest, request=request, positions=positions,
                        proposer=ClusterId(0)),
            int(initiator.pid),
        )
        return
    engine.handle(
        CrossProposeB(digest=digest, request=request, involved=tuple(sorted(POSITIONS)),
                      initiator_cluster=ClusterId(0), initiator_slot=1),
        int(initiator.pid),
    )
    for cluster_id in POSITIONS:
        cluster = system.config.cluster(cluster_id)
        for node in cluster.node_ids[: cluster.cross_quorum]:
            engine.handle(
                CrossCommitB(digest=digest, cluster=cluster_id, node=node, positions=positions),
                int(node),
            )


@pytest.mark.parametrize("fault_model, engine_type", ENGINES)
class TestSharedDecideTail:
    def test_commit_on_noop_filled_slot_counts_as_late(self, fault_model, engine_type):
        system = build_system(fault_model)
        replica = system.replicas_of(ClusterId(0))[1]
        assert type(replica.cross) is engine_type
        # A view change resolved slot 1 to a no-op before the commit arrived.
        noop = Noop()
        replica.log.decide(1, item_digest(noop), noop)
        replica.after_decide()

        deliver_commit(system, replica, request_for(system, 0, 64))

        assert replica.cross.late_commits == 1
        assert replica.chain.block_at(1).is_noop
        assert replica.committed_count == 0

    def test_commit_conflicting_with_real_decision_raises(self, fault_model, engine_type):
        system = build_system(fault_model)
        replica = system.replicas_of(ClusterId(0))[1]
        assert type(replica.cross) is engine_type
        intra = request_for(system, 1, 2)
        replica.log.decide(1, item_digest(intra), intra)
        replica.after_decide()

        with pytest.raises(ConsensusError):
            deliver_commit(system, replica, request_for(system, 0, 64))
        assert replica.cross.late_commits == 0
