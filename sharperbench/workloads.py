"""The benchmark's workloads and the runner for one repetition of one.

Every workload deploys SharPer on 4 clusters with ``f = 1`` under the
default :class:`repro.common.config.PerformanceModel` (0.25 ms intra- and
1.0 ms cross-cluster message delay, 0.5 ms client delay, 10% jitter, and
the default per-message / signature / execution / append CPU costs).

A repetition mirrors :meth:`repro.api.Scenario.run` step by step (build,
spawn clients, start them, arm faults, drive, drain, audit) so that each
stage can be timed on the host, and so that open-loop clients — which
``Scenario`` does not spawn — can drive the system through the public
:mod:`repro.core` surface.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro import FaultModel, WorkloadConfig
from repro.api import DeploymentSpec, FaultSchedule, Scenario
from repro.common.metrics import LatencySample, MetricsCollector
from repro.core.client import CLIENT_PID_BASE, OpenLoopClient
from repro.core.sharding import cluster_to_shard
from repro.obs import FlightRecorder, TraceSpec
from repro.recovery.stats import collect_recovery_stats
from repro.storage.stats import collect_storage_stats

__all__ = ["WORKLOADS", "Workload", "Rep", "run_rep", "scenario_seeds", "setup", "time_setup"]

#: simulated commit-latency limit of ``slo_goodput_tps``.
SLO_LIMIT = 0.050
#: cluster the fault instant refers to (the crashed one on ``failover``).
PROBE_CLUSTER = 0
#: simulated seconds :meth:`repro.api.Scenario`'s drain may run past the drive.
DRAIN_GRACE = 2.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    why: str
    fault_model: FaultModel
    cross_shard: float
    #: closed-loop clients, or open-loop generators when ``rate`` is set.
    clients: int
    #: scenario seeds pooled into the simulated metrics of one run.
    pooled_seeds: int
    #: offered load in tps over all open-loop generators; None = closed loop.
    rate: float | None = None
    duration: float = 0.30
    warmup: float = 0.06
    retry_timeout: float = 2.0
    batch_size: int | None = None
    pipeline_depth: int | None = None
    checkpoint_interval: int | None = None
    store_backend: str = "dict"
    accounts_per_shard: int = 1024
    #: crash the primary of cluster 0 at the fault instant, recover it here.
    crash: bool = False
    recover_at: float | None = None
    #: listed in BENCHMARK.json, so its runs gate later changes.
    gated: bool = True

    @property
    def fault_instant(self) -> float:
        """A third of the way through the run: the crash on ``failover``."""
        return self.duration / 3.0

    @property
    def loop(self) -> str:
        if self.rate is None:
            return f"closed loop, {self.clients} clients"
        return f"open loop, {self.rate:g} tps over {self.clients} generators"

    def scenario(self, seed: int) -> Scenario:
        deployment = DeploymentSpec(
            system="sharper",
            fault_model=self.fault_model,
            num_clusters=4,
            f=1,
            batch_size=self.batch_size,
            pipeline_depth=self.pipeline_depth,
            checkpoint_interval=self.checkpoint_interval,
            store_backend=self.store_backend,
        )
        return Scenario(
            deployment=deployment,
            workload=WorkloadConfig(
                cross_shard_fraction=self.cross_shard,
                accounts_per_shard=self.accounts_per_shard,
            ),
            name=self.name,
            clients=self.clients,
            duration=self.duration,
            warmup=self.warmup,
            drain_grace=DRAIN_GRACE,
            retry_timeout=self.retry_timeout,
            seed=seed,
        )

    def faults(self, primary: int) -> FaultSchedule:
        schedule = FaultSchedule()
        if self.crash:
            schedule.crash_primary(at=self.fault_instant, cluster=PROBE_CLUSTER)
            if self.recover_at is not None:
                schedule.recover_node(at=self.recover_at, node_id=primary)
        return schedule


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="intra",
            why=(
                "headline case: Paxos, 0% cross-shard, closed loop of 64 clients near "
                "the knee; default delay/CPU model, 50 ms SLO, seeds 100n+0..7; "
                "cross-shard path idle"
            ),
            fault_model=FaultModel.CRASH,
            cross_shard=0.0,
            clients=64,
            pooled_seeds=8,
        ),
        Workload(
            name="cross-byz",
            why=(
                "PBFT + flattened cross-shard protocol, 20% cross-shard, closed loop of "
                "32 clients; default delay/CPU model, 50 ms SLO, seeds 100n+0..11; "
                "more msgs/tx and signatures load core.cross_shard"
            ),
            fault_model=FaultModel.BYZANTINE,
            cross_shard=0.2,
            clients=32,
            pooled_seeds=12,
        ),
        Workload(
            name="batched",
            why=(
                "open loop, 10k tps over 64 generators, 10% cross, batch 16, pipeline 4, "
                "checkpoint/64 slots, columnar 25k accounts/shard, no fault; default "
                "delay/CPU model, 50 ms SLO, seeds 100n+0..3"
            ),
            fault_model=FaultModel.CRASH,
            cross_shard=0.1,
            clients=64,
            pooled_seeds=4,
            rate=10_000.0,
            batch_size=16,
            pipeline_depth=4,
            checkpoint_interval=64,
            store_backend="columnar",
            # Storage digests stay the largest layer; with failover's 100k
            # accounts a repetition took 4 CPU s, so only 5 fit in a run.
            accounts_per_shard=25_000,
        ),
        Workload(
            name="failover",
            why=(
                "open loop at 10k tps over 64 generators, 10% cross, batch 16, "
                "columnar 100k accounts/shard; cluster 0's primary crashes at 1/3 "
                "and recovers: view change, checkpoints"
            ),
            fault_model=FaultModel.CRASH,
            cross_shard=0.1,
            clients=64,
            rate=10_000.0,
            duration=1.5,
            # Above the 0.5 s view-change timeout: shorter retries fork
            # (see DESIGN.md, "Known defect").
            retry_timeout=1.0,
            batch_size=16,
            pipeline_depth=4,
            checkpoint_interval=64,
            store_backend="columnar",
            accounts_per_shard=100_000,
            crash=True,
            recover_at=1.2,
            pooled_seeds=2,
            # Not gated: about a quarter of its scenario seeds fork
            # (DESIGN.md, "Known defect"), so its runs cannot pass.
            gated=False,
        ),
    )
}


def scenario_seeds(workload: Workload, seed: int) -> list[int]:
    """The scenario seeds whose runs one benchmark run pools."""
    return [seed * 100 + index for index in range(workload.pooled_seeds)]


class _RecordingWorkload:
    """Pass-through workload generator that remembers what it generated."""

    def __init__(self, inner, log: list) -> None:
        self._inner = inner
        self._log = log

    def next_transaction(self, timestamp: float = 0.0):
        transaction = self._inner.next_transaction(timestamp=timestamp)
        self._log.append((timestamp, transaction))
        return transaction

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class Rep:
    """Everything one repetition measured."""

    seed: int
    error: str | None = None
    audit_ok: bool = False
    conserved: bool = False
    setup_s: float = 0.0
    drive_cpu_s: float = 0.0
    run_cpu_s: float = 0.0
    drive_wall_s: float = 0.0
    #: every committed sample, drain included.
    samples: list[LatencySample] = field(default_factory=list)
    submitted: int = 0
    failed: int = 0
    #: commits whose commit time falls inside the drive.
    drive_commits: int = 0
    #: simulated seconds from the fault instant to the first commit of a
    #: transaction touching cluster 0 submitted at or after it.
    outage: float | None = None
    #: largest |submitted_at - due time| of any open-loop request (s).
    lateness: float = 0.0
    processed_events: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    counters: dict = field(default_factory=dict)
    #: host self time per layer during the drive (traced reps only).
    drive_layers: dict = field(default_factory=dict)
    #: wall seconds of the timed lifecycle stages (``api.build`` ...).
    stages: dict = field(default_factory=dict)
    trace_report: object = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.audit_ok and self.conserved


def _spawn_open_loop(system, workload: Workload, metrics: MetricsCollector) -> list:
    clients = []
    for index in range(workload.clients):
        client = OpenLoopClient(
            pid=CLIENT_PID_BASE + len(system.clients),
            sim=system.sim,
            network=system.network,
            cost_model=system.cost_model,
            workload=system.make_workload(seed_offset=index),
            router=system.route,
            metrics=metrics,
            required_replies=system.required_replies,
            retry_timeout=workload.retry_timeout,
            fallback_targets=system.fallback_route,
            rate=workload.rate / workload.clients,
        )
        system.clients.append(client)
        clients.append(client)
    return clients


def _call(_name: str, fn, *args):
    return fn(*args)


def setup(workload: Workload, seed: int, stage=_call) -> tuple:
    """Build the system and spawn its clients: ``(system, metrics, clients)``.

    ``stage(name, fn, *args)`` calls ``fn(*args)`` as the named stage.
    """
    scenario = workload.scenario(seed)
    system = stage("api.build", scenario.build_system)
    metrics = MetricsCollector(warmup=scenario.warmup, measure_until=scenario.duration)
    if workload.rate is None:
        clients = stage(
            "api.spawn", system.spawn_clients, scenario.clients, metrics, scenario.retry_timeout
        )
    else:
        clients = stage("api.spawn", _spawn_open_loop, system, workload, metrics)
    return system, metrics, clients


def time_setup(workload: Workload, seed: int) -> float:
    """Wall seconds of one :func:`setup` (the system is discarded)."""
    gc.collect()
    start = time.perf_counter()
    setup(workload, seed)
    return time.perf_counter() - start


def run_rep(workload: Workload, seed: int, tracer=None, trace: bool = False) -> Rep:
    """Run one scenario seed of ``workload`` end to end.

    ``tracer`` (a :class:`tracer.Tracer`, already installed) adds host
    spans around the lifecycle stages; ``trace`` arms the program's own
    flight recorder.  Exceptions from the program are caught and
    recorded in ``Rep.error``; nothing is retried.
    """
    rep = Rep(seed=seed)

    def stage(name: str, fn, *args):
        """``fn(*args)``, timed into ``rep.stages`` and spanned when traced."""
        start = time.perf_counter()
        result = (fn if tracer is None else tracer.wrap(name, fn))(*args)
        rep.stages[name] = time.perf_counter() - start
        return result

    duration = workload.duration
    gc.collect()
    start = time.perf_counter()
    system = metrics = None
    try:
        system, metrics, clients = setup(workload, seed, stage)
        rep.setup_s = time.perf_counter() - start
        # Only the outage and lateness probes need the generated requests;
        # the other workloads drive the generators untouched.
        generated: dict[int, list] = {}
        if workload.crash or workload.rate is not None:
            for client in clients:
                client.workload = _RecordingWorkload(
                    client.workload, generated.setdefault(client.pid, [])
                )
        recorder = None
        if trace:
            recorder = FlightRecorder(TraceSpec())
            system.arm_recorder(recorder)
            recorder.start_gauges(system)
        system.start_clients(clients)
        primary = int(system.config.cluster(PROBE_CLUSTER).primary)
        workload.faults(primary).arm(system)

        before = tracer.self_times() if tracer is not None else {}
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        end = system.sim.run(until=duration)
        rep.drive_wall_s = time.perf_counter() - wall0
        rep.drive_cpu_s = time.process_time() - cpu0
        if tracer is not None:
            rep.drive_layers = {
                layer: spent - before.get(layer, 0.0)
                for layer, spent in tracer.self_times().items()
            }
        rep.counters.update(_drive_counters(system, end))
        stage("api.drain", system.drain, DRAIN_GRACE)
        audit = stage("ledger.audit", system.audit)
        rep.audit_ok = audit.ok
        rep.conserved = system.total_balance() == system.expected_total_balance()
        rep.run_cpu_s = time.process_time() - cpu0
        if recorder is not None:
            rep.trace_report = recorder.finalize(system, system.sim.now)
    except Exception as exc:  # the benchmark's boundary: record, never retry
        at = "" if system is None else f" (simulated t={system.sim.now:.4f} s)"
        rep.error = f"{type(exc).__name__}: {exc}{at}"
        if metrics is not None:
            rep.submitted = rep.failed = metrics.submitted
        return rep

    rep.samples = list(metrics.samples)
    rep.submitted = metrics.submitted
    rep.failed = metrics.aborted + sum(c.failed + c.outstanding for c in clients)
    rep.drive_commits = sum(1 for s in rep.samples if s.committed_at <= duration)
    if workload.crash:
        rep.outage = _outage(workload, system, generated, rep.samples)
    if workload.rate is not None:
        rep.lateness = _lateness(system, clients, generated)
    rep.processed_events = system.sim.processed_events
    rep.messages_sent = system.network.messages_sent
    rep.messages_dropped = system.network.messages_dropped
    rep.counters.update(_final_counters(system))
    return rep


def _outage(workload: Workload, system, generated: dict, samples) -> float | None:
    instant = workload.fault_instant
    shard = cluster_to_shard(PROBE_CLUSTER)
    mapper = system.workload_mapper
    probe = {
        tx.tx_id
        for log in generated.values()
        for timestamp, tx in log
        if timestamp >= instant and shard in tx.involved_shards(mapper)
    }
    first = min((s.committed_at for s in samples if s.tx_id in probe), default=None)
    return None if first is None else first - instant


def _lateness(system, clients, generated: dict) -> float:
    """Largest gap between an open-loop request's due time and its submit."""
    worst = 0.0
    for client in clients:
        log = generated[client.pid]
        if not log:
            continue
        first = log[0][0]
        for index, (timestamp, _tx) in enumerate(log):
            worst = max(worst, abs(timestamp - (first + index / client.rate)))
    return worst


def _drive_counters(system, end: float) -> dict:
    """Simulated CPU utilisation per replica over the drive."""
    primaries = {int(cluster.primary) for cluster in system.config.clusters}
    utils = {int(p.pid): p.utilization(end) for p in system.processes()}
    primary = [u for pid, u in utils.items() if pid in primaries]
    backup = [u for pid, u in utils.items() if pid not in primaries]
    return {
        "bottleneck_util": max(utils.values()),
        "primary_util": sum(primary) / len(primary),
        "backup_util": sum(backup) / len(backup),
    }


def _final_counters(system) -> dict:
    clusters = [cluster.cluster_id for cluster in system.config.clusters]
    slots = requests = view_changes = 0
    for cluster_id in clusters:
        replicas = system.replicas_of(cluster_id)
        slots += max(replica.log.next_apply - 1 for replica in replicas)
        requests += system.representative_of(cluster_id).committed_count
        view_changes += max(replica.intra.view for replica in replicas)
    recovery = collect_recovery_stats(system)
    storage = collect_storage_stats(system)
    return {
        "slots_decided": slots,
        "reqs_per_slot": requests / slots if slots else 0.0,
        "view_changes": view_changes,
        "recovery": recovery.as_dict() | {
            "checkpoints_taken": recovery.checkpoints_taken,
            "state_transfers_requested": recovery.state_transfers_requested,
        },
        "resident_accounts": storage.as_dict().get("resident_accounts", 0),
    }
