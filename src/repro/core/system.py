"""System builders: wire replicas, network, and state into a runnable system.

:class:`BaseSystem` owns the simulation scaffolding every evaluated system
shares (simulator, network, cost model, account bootstrap, client
spawning); :class:`SharPerSystem` builds the paper's system — one cluster
per shard, each cluster running intra-shard consensus plus the flattened
cross-shard protocol.  The baselines in :mod:`repro.baselines` subclass
:class:`BaseSystem` the same way.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Mapping

from ..adversary import (
    AdversaryBehavior,
    Coalition,
    SafetyAuditor,
    SafetyReport,
    make_behavior,
)
from ..api.registry import register_system
from ..common.config import SystemConfig
from ..common.errors import ConfigurationError
from ..common.metrics import MetricsCollector
from ..common.types import AccountId, ClientId, ClusterId, FaultModel
from ..ledger.validation import AuditReport, audit_views
from ..ledger.view import ClusterView
from ..sim.costs import CostModel
from ..sim.network import ClusteredLatencyModel, Network
from ..sim.process import Process
from ..sim.simulator import Simulator
from ..storage import SqliteArchive, make_store
from ..storage.base import StateStore
from ..txn.accounts import AccountStore, ShardMapper
from ..txn.transaction import Transaction
from ..txn.workload import WorkloadConfig, WorkloadGenerator
from . import sharding
from .client import CLIENT_PID_BASE, ClosedLoopClient, OpenLoopClient
from .replica import SharPerReplica

__all__ = ["BaseSystem", "SharPerSystem"]


class BaseSystem:
    """Scaffolding shared by SharPer and every baseline system."""

    #: human-readable name used by the benchmark reports.
    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        self.config = config
        self.workload_config = workload_config
        self.seed = config.seed if seed is None else seed
        self.sim = Simulator(seed=self.seed)
        cluster_of = {
            int(node): int(cluster.cluster_id)
            for cluster in config.clusters
            for node in cluster.node_ids
        }
        self.latency_model = ClusteredLatencyModel(
            config.performance, cluster_of, rng=self.sim.rng
        )
        self.network = Network(self.sim, self.latency_model)
        self.cost_model = CostModel(config.performance)
        #: mapper used by the workload (one shard per cluster).
        self.workload_mapper = ShardMapper(
            num_shards=config.num_clusters,
            accounts_per_shard=workload_config.accounts_per_shard,
            strategy=workload_config.partition_strategy,
        )
        #: state-store backend every replica uses ("dict" or "columnar").
        self.store_backend = config.storage.store_backend
        #: bootstrapped store per shard; replicas receive cheap clones.
        self._store_cache: dict[int, StateStore] = {}
        #: archival backend checkpoint GC spills pruned blocks into.
        self.archive: SqliteArchive | None = None
        if config.storage.archive_path is not None:
            self.archive = SqliteArchive(config.storage.archive_path)
            self.archive.record_bootstrap(
                {
                    "num_shards": config.num_clusters,
                    "accounts_per_shard": workload_config.accounts_per_shard,
                    "partition_strategy": workload_config.partition_strategy,
                    "initial_balance": workload_config.initial_balance,
                    "num_clients": workload_config.num_clients,
                }
            )
        self.clients: list[ClosedLoopClient | OpenLoopClient] = []
        #: process ids currently running an adversary behaviour; the
        #: safety auditor excludes these from its cross-replica checks.
        self.byzantine_nodes: set[int] = set()
        #: client process ids currently running a *client* behaviour
        #: (clients hold no chain, so the auditor needs no exclusion —
        #: the set exists for introspection and restore bookkeeping).
        self.byzantine_clients: set[int] = set()
        #: coalitions formed during the run (shared cross-cluster scripts).
        self.coalitions: list[Coalition] = []
        #: armed flight recorder (:mod:`repro.obs`); ``None`` when tracing
        #: is off, which keeps every hook at a single ``is None`` check.
        self.recorder = None

    # ------------------------------------------------------------------
    # account bootstrap
    # ------------------------------------------------------------------
    def owner_of(self, account_id: AccountId) -> ClientId:
        """Application client owning ``account_id`` (matches the workload)."""
        return ClientId(account_id % self.workload_config.num_clients)

    def _bootstrap_store(self, mapper: ShardMapper, shard: int) -> StateStore:
        """Store for one replica of ``shard`` with the configured backend.

        The shard is bootstrapped once and cached; each replica gets an
        independent :meth:`~repro.storage.base.StateStore.clone`, which
        for the columnar backend is an array memcpy instead of a
        million ``create_account`` calls per replica.
        """
        key = int(shard)
        cached = self._store_cache.get(key)
        if cached is None:
            cached = make_store(
                self.store_backend,
                shard=shard,
                mapper=mapper,
                initial_balance=self.workload_config.initial_balance,
                owner_of=self.owner_of,
            )
            self._store_cache[key] = cached
        return cached.clone()

    # ------------------------------------------------------------------
    # interface implemented by concrete systems
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        """Process id the client should submit ``transaction`` to."""
        raise NotImplementedError

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        """Alternative submission target used when a request times out."""
        return self.route(transaction)

    @property
    def required_replies(self) -> int:
        """Matching replies a client must collect before accepting a result."""
        raise NotImplementedError

    def views(self) -> dict[ClusterId, ClusterView]:
        """One representative ledger view per cluster (for audits)."""
        raise NotImplementedError

    def stores(self) -> list[AccountStore]:
        """One representative account store per shard."""
        raise NotImplementedError

    def processes(self) -> list[Process]:
        """Every replica process of the system."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # workload and clients
    # ------------------------------------------------------------------
    def make_workload(self, seed_offset: int = 0) -> WorkloadGenerator:
        """Create a workload generator bound to this system's shard layout."""
        return WorkloadGenerator(
            self.workload_config,
            num_shards=self.config.num_clusters,
            seed=self.seed + 7919 * (seed_offset + 1),
        )

    def spawn_clients(
        self,
        count: int,
        metrics: MetricsCollector,
        retry_timeout: float = 2.0,
    ) -> list[ClosedLoopClient]:
        """Create ``count`` closed-loop clients attached to this system."""
        clients = []
        for index in range(count):
            client = ClosedLoopClient(
                pid=CLIENT_PID_BASE + len(self.clients),
                sim=self.sim,
                network=self.network,
                cost_model=self.cost_model,
                workload=self.make_workload(seed_offset=index),
                router=self.route,
                metrics=metrics,
                required_replies=self.required_replies,
                retry_timeout=retry_timeout,
                fallback_targets=self.fallback_route,
            )
            if self.recorder is not None:
                client.recorder = self.recorder
            self.clients.append(client)
            clients.append(client)
        return clients

    def start_clients(self, clients: Iterable[ClosedLoopClient], spread: float = 1e-3) -> None:
        """Start clients with small staggered offsets to avoid lock-step."""
        for index, client in enumerate(clients):
            client.start(initial_delay=spread * (index % 97) / 97.0)

    def drain(self, grace: float = 2.0) -> float:
        """Stop all clients and let in-flight transactions complete.

        Returns the simulated time at which the system went idle.  Call
        this before auditing so that every committed block has reached
        every involved cluster.
        """
        for client in self.clients:
            stop = getattr(client, "stop", None)
            if stop is not None:
                stop()
        return self.sim.run(until=self.sim.now + grace)

    # ------------------------------------------------------------------
    # fault injection (used directly and by repro.api.FaultSchedule)
    # ------------------------------------------------------------------
    def _process_by_pid(self, node_id: int) -> Process:
        for process in self.processes():
            if int(process.pid) == int(node_id):
                return process
        raise ConfigurationError(f"no replica process with id {node_id}")

    def crash_node(self, node_id: int) -> None:
        """Crash a replica."""
        self._process_by_pid(node_id).crash()

    def recover_node(self, node_id: int) -> None:
        """Restart a crashed replica (state retained, as in Section 2.1).

        SharPer replicas additionally run a state-transfer round on
        recovery (:mod:`repro.recovery`): slots decided — and possibly
        garbage-collected — while the node was down are fetched from its
        cluster peers, so the node catches up and rejoins consensus
        instead of staying alive-but-deaf behind an apply gap.
        """
        self._process_by_pid(node_id).recover()

    def crash_primary(self, cluster_id: ClusterId) -> None:
        """Crash the (initial) primary of a cluster."""
        self.crash_node(int(self.config.cluster(cluster_id).primary))

    def make_byzantine(
        self, node_id: int, behavior: "str | AdversaryBehavior" = "silent-primary"
    ) -> AdversaryBehavior:
        """Turn a replica Byzantine by attaching an adversary behaviour.

        ``behavior`` is a registry name (see
        :func:`repro.adversary.available_behaviors`) or a ready-made
        :class:`~repro.adversary.AdversaryBehavior` instance.  The node
        keeps running — unlike a crash it still receives, executes, and
        proposes — but its outbound traffic is filtered by the behaviour.
        Returns the attached instance for introspection.

        A passed-in instance is deep-copied before attaching: fault
        schedules (and the behaviours inside them) are shared across
        scenario variations and worker-pool pickles, so attaching a
        private copy keeps one run's adversary state (RNG draws,
        equivocation forks, counters) from leaking into the next —
        per-seed results stay bit-identical between serial and pooled
        execution.
        """
        process = self._process_by_pid(node_id)
        instance = copy.deepcopy(make_behavior(behavior, seed=self.seed + int(node_id)))
        process.byzantine = True
        process.set_interceptor(instance)
        self.byzantine_nodes.add(int(node_id))
        self.arm_request_guards()
        return instance

    def make_primary_byzantine(
        self, cluster_id: ClusterId, behavior: "str | AdversaryBehavior" = "silent-primary"
    ) -> AdversaryBehavior:
        """Attach an adversary behaviour to a cluster's initial primary."""
        return self.make_byzantine(int(self.config.cluster(cluster_id).primary), behavior)

    def make_client_byzantine(
        self, client_index: int, behavior: "str | AdversaryBehavior" = "duplicating-client"
    ) -> AdversaryBehavior:
        """Turn one spawned client Byzantine by attaching a client behaviour.

        ``client_index`` indexes :attr:`clients` in spawn order;
        ``behavior`` is a registry name (``duplicating-client``,
        ``forged-signature-client``, ``ownership-violator-client``, …) or
        a ready instance — the same contract as :meth:`make_byzantine`,
        including the defensive deep copy.  Every replica's
        :class:`~repro.core.guard.RequestGuard` is armed in the same
        simulator event, so the forged/duplicated/stolen traffic the
        client is about to emit is screened from its very first message.
        """
        try:
            client = self.clients[client_index]
        except IndexError:
            raise ConfigurationError(
                f"no spawned client with index {client_index} "
                f"({len(self.clients)} clients exist)"
            ) from None
        instance = copy.deepcopy(
            make_behavior(behavior, seed=self.seed + 733 * (client_index + 1))
        )
        client.byzantine = True
        client.set_interceptor(instance)
        self.byzantine_clients.add(int(client.pid))
        self.arm_request_guards()
        return instance

    def form_coalition(
        self, members: "Mapping[int, str | AdversaryBehavior]", seed: int = 0
    ) -> Coalition:
        """Bind Byzantine replicas in different clusters to one shared script.

        ``members`` maps replica node ids to the behaviour each member
        runs once a shared target is spotted (see
        :class:`~repro.adversary.Coalition`).  The coalition object — and
        therefore the target set the members coordinate through — is
        constructed here, at fault-event time, so schedules stay
        picklable and pool workers build their own private instance.
        """
        coalition = Coalition(seed=self.seed + 104729 * (seed + 1))
        for node_id, behavior in sorted(members.items()):
            process = self._process_by_pid(node_id)
            member = coalition.member(behavior)
            process.byzantine = True
            process.set_interceptor(member)
            self.byzantine_nodes.add(int(node_id))
        self.coalitions.append(coalition)
        self.arm_request_guards()
        return coalition

    def restore_node(self, node_id: int) -> None:
        """Restore a Byzantine replica or client to correct behaviour."""
        if int(node_id) in self.byzantine_clients:
            for client in self.clients:
                if int(client.pid) == int(node_id):
                    client.set_interceptor(None)
                    client.byzantine = False
            self.byzantine_clients.discard(int(node_id))
            return
        process = self._process_by_pid(node_id)
        process.set_interceptor(None)
        process.byzantine = False
        self.byzantine_nodes.discard(int(node_id))

    def arm_request_guards(self) -> None:
        """Arm the Byzantine-client request guard on every replica.

        Called whenever any adversary (replica, client, or coalition)
        enters the run; idempotent, and a single simulator event arms the
        whole deployment, so screening decisions are identical
        system-wide.  Faultless runs never arm, keeping the hot path at
        one ``is None`` check per client request.
        """
        for process in self.processes():
            arm = getattr(process, "arm_request_guard", None)
            if arm is not None:
                arm(owner_of=self.owner_of)

    def arm_recorder(self, recorder) -> None:
        """Arm the :mod:`repro.obs` flight recorder on the whole deployment.

        Same lazy-arming contract as :meth:`arm_request_guards` and the
        adversary interceptors: one attribute assignment per replica,
        client, and the network fabric.  Untraced runs never call this,
        so every instrumentation hook stays a single ``is None`` check
        and results are bit-identical with tracing off.  Clients spawned
        after arming inherit the recorder in :meth:`spawn_clients`.
        """
        self.recorder = recorder
        self.network.recorder = recorder
        for process in self.processes():
            process.recorder = recorder
        for client in self.clients:
            client.recorder = recorder

    # ------------------------------------------------------------------
    # correctness checks
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Run the ledger consistency audit over the representative views."""
        return audit_views(self.views())

    def safety_audit(self) -> SafetyReport:
        """Cross-replica safety audit (no fork, conservation, at-most-once).

        Complements :meth:`audit` — which checks one representative view
        per cluster — by comparing **every correct replica**, excluding
        the nodes currently marked Byzantine.  Run after :meth:`drain`.
        """
        return SafetyAuditor(self).audit()

    def total_balance(self) -> int:
        """Sum of balances across all shards (conservation invariant)."""
        return sum(store.total_balance() for store in self.stores())

    def expected_total_balance(self) -> int:
        """Total balance minted at bootstrap."""
        return (
            self.workload_config.initial_balance
            * self.workload_config.accounts_per_shard
            * self.config.num_clusters
        )


@register_system("sharper")
class SharPerSystem(BaseSystem):
    """The paper's system: sharded clusters + flattened cross-shard consensus."""

    name = "SharPer"

    def __init__(
        self,
        config: SystemConfig,
        workload_config: WorkloadConfig,
        seed: int | None = None,
    ) -> None:
        super().__init__(config, workload_config, seed)
        self.replicas: dict[int, SharPerReplica] = {}
        for cluster in config.clusters:
            shard = sharding.cluster_to_shard(cluster.cluster_id)
            for node in cluster.node_ids:
                store = self._bootstrap_store(self.workload_mapper, shard)
                replica = SharPerReplica(
                    node_id=node,
                    cluster=cluster,
                    config=config,
                    mapper=self.workload_mapper,
                    store=store,
                    sim=self.sim,
                    network=self.network,
                    cost_model=self.cost_model,
                )
                if self.archive is not None:
                    replica.chain.archive = self.archive
                self.replicas[int(node)] = replica

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, transaction: Transaction) -> int:
        """Send the request to the primary of the initiating cluster."""
        initiator = sharding.initiator_cluster(
            transaction,
            self.workload_mapper,
            use_super_primary=self.config.tuning.use_super_primary,
        )
        return int(self.config.cluster(initiator).primary)

    def fallback_route(self, transaction: Transaction, attempt: int) -> int:
        """On retry, try the next node of the initiating cluster (view change)."""
        initiator = sharding.initiator_cluster(
            transaction,
            self.workload_mapper,
            use_super_primary=self.config.tuning.use_super_primary,
        )
        nodes = self.config.cluster(initiator).node_ids
        return int(nodes[attempt % len(nodes)])

    @property
    def required_replies(self) -> int:
        """1 reply in the crash model, ``f + 1`` matching replies for Byzantine."""
        if self.config.fault_model is FaultModel.CRASH:
            return 1
        return self.config.clusters[0].f + 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def processes(self) -> list[Process]:
        return list(self.replicas.values())

    def replicas_of(self, cluster_id: ClusterId) -> list[SharPerReplica]:
        """All replicas of one cluster."""
        return [
            self.replicas[int(node)]
            for node in self.config.cluster(cluster_id).node_ids
        ]

    def primary_of(self, cluster_id: ClusterId) -> SharPerReplica:
        """The initial primary replica of a cluster."""
        return self.replicas[int(self.config.cluster(cluster_id).primary)]

    def representative_of(self, cluster_id: ClusterId) -> SharPerReplica:
        """The replica whose chain and store the audits report for a cluster.

        Correct (non-crashed, non-Byzantine) replicas are preferred; ties
        break toward the longest chain.  :meth:`views` and :meth:`stores`
        both use this rule so a post-fault audit compares a chain and
        store from the same replica.
        """
        replicas = self.replicas_of(cluster_id)
        candidates = [
            replica
            for replica in replicas
            if not replica.crashed and not replica.byzantine
        ] or [replica for replica in replicas if not replica.crashed] or replicas
        return max(candidates, key=lambda replica: replica.chain.height)

    def views(self) -> dict[ClusterId, ClusterView]:
        """Longest ledger view per cluster (non-crashed replicas preferred)."""
        return {
            cluster.cluster_id: self.representative_of(cluster.cluster_id).chain
            for cluster in self.config.clusters
        }

    def all_views(self) -> dict[ClusterId, list[ClusterView]]:
        """Every replica's view, grouped by cluster (for agreement checks)."""
        return {
            cluster.cluster_id: [
                replica.chain for replica in self.replicas_of(cluster.cluster_id)
            ]
            for cluster in self.config.clusters
        }

    def stores(self) -> list[AccountStore]:
        return [
            self.representative_of(cluster.cluster_id).store
            for cluster in self.config.clusters
        ]
