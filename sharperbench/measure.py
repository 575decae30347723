"""Reduce repetitions to the benchmark's metrics.

*Simulated* metrics pool the samples of a run's scenario seeds; they are
deterministic per seed.  *Host* CPU times are the median over every
repetition of a run, because the host is noisy; ``setup_s`` is the
fastest of the run's set-ups (see DESIGN.md, "Host noise").
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
from dataclasses import dataclass

from workloads import SLO_LIMIT, Rep, Workload

__all__ = [
    "END_TO_END",
    "FAILOVER_END_TO_END",
    "HOST_CPU",
    "PER_LAYER",
    "GATED_PER_LAYER",
    "Percentile",
    "percentile",
    "simulated_metrics",
    "host_metrics",
    "layer_metrics",
    "peak_rss_mb",
]

#: (name, unit, better) of the end-to-end metrics of the gated workloads.
END_TO_END = (
    ("sim_tps", "1/s", "higher"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
    ("slo_goodput_tps", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: ``failover`` adds the service gap after its crash.
FAILOVER_END_TO_END = END_TO_END + (("outage_ms", "ms", "lower"),)
#: host CPU-time metrics: printed with the end-to-end ones, but listed
#: per layer, because their spread across runs on a shared host exceeds
#: any bound the benchmark may set (see DESIGN.md, "Host noise").
HOST_CPU = (
    ("run_cpu_s", "s", "lower"),
    ("host_tx_per_cpu_s", "1/s", "higher"),
)

#: (name, unit, better) of the per-layer metrics of the traced run.
PER_LAYER = HOST_CPU + (
    ("sim.kernel_s", "s", "lower"),
    ("sim.network_s", "s", "lower"),
    ("sim.events_per_tx", "events/tx", "lower"),
    ("sim.network.msgs_per_tx", "msgs/tx", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.process.bottleneck_util", "ratio", "lower"),
    ("sim.process.primary_util", "ratio", "lower"),
    ("sim.process.backup_util", "ratio", "lower"),
    ("consensus.handlers_s", "s", "lower"),
    ("consensus.slots_decided", "count", "higher"),
    ("consensus.reqs_per_slot", "reqs/slot", "higher"),
    ("consensus.view_changes", "count", "lower"),
    ("consensus.phase.propose_ms", "ms", "lower"),
    ("consensus.phase.prepared_ms", "ms", "lower"),
    ("consensus.phase.decided_ms", "ms", "lower"),
    ("core.apply_s", "s", "lower"),
    ("core.cross_shard_s", "s", "lower"),
    ("core.client_s", "s", "lower"),
    ("core.replica_s", "s", "lower"),
    ("core.phase.enqueue_ms", "ms", "lower"),
    ("core.phase.cross_start_ms", "ms", "lower"),
    ("core.phase.cross_prepared_ms", "ms", "lower"),
    ("core.phase.applied_ms", "ms", "lower"),
    ("core.phase.reply_ms", "ms", "lower"),
    ("sim_p50_cross_ms", "ms", "lower"),
    ("sim_p95_cross_ms", "ms", "lower"),
    ("txn.execute_s", "s", "lower"),
    ("txn.execute_calls", "count", "higher"),
    ("txn.validate_s", "s", "lower"),
    ("txn.workload_s", "s", "lower"),
    ("ledger.append_s", "s", "lower"),
    ("ledger.appends", "count", "higher"),
    ("ledger.prune_s", "s", "lower"),
    ("ledger.audit_s", "s", "lower"),
    ("storage.digest_s", "s", "lower"),
    ("storage.digest_calls", "count", "lower"),
    ("storage.resident_accounts", "count", "lower"),
    ("recovery.checkpoint_s", "s", "lower"),
    ("recovery.checkpoints_stable", "count", "higher"),
    ("recovery.state_transfers_completed", "count", "higher"),
    ("recovery.entries_truncated", "count", "higher"),
    ("api.build_s", "s", "lower"),
    ("api.spawn_s", "s", "lower"),
    ("api.drain_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.other_s", "s", "lower"),
)

#: per-layer metrics that read 0 on every run of every gated workload
#: (none injects a fault); ``failover`` reports them.
IDLE_WHEN_GATED = frozenset(
    {
        "sim.network.dropped",
        "consensus.view_changes",
        "recovery.state_transfers_completed",
    }
)
#: the per-layer metrics of the workloads listed in BENCHMARK.json.
GATED_PER_LAYER = tuple(item for item in PER_LAYER if item[0] not in IDLE_WHEN_GATED)

#: percentiles with fewer samples than this beyond them are flagged.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A percentile with the samples behind it.

    ``value`` is the median over scenario seeds of each seed's
    nearest-rank percentile: a seed's tail events are correlated, so
    pooling the samples of several seeds lets the worst seed set the
    tail, while the median over seeds is the tail of a typical run.
    """

    value: float
    #: samples over all seeds.
    count: int
    #: fewest samples any one seed had strictly beyond its percentile.
    beyond: int
    seeds: int = 1

    def describe(self, scale: float = 1e3) -> str:
        if not self.count:
            return "n/a (0 samples)"
        text = (
            f"{self.value * scale:.4f} (median of {self.seeds} seeds; n={self.count}, "
            f">= {self.beyond} beyond in each)"
        )
        if self.beyond < MIN_BEYOND:
            text += f" [fewer than {MIN_BEYOND} samples beyond]"
        return text


def percentile(ordered: list[float], fraction: float) -> Percentile:
    """Nearest-rank percentile of an already-sorted list."""
    if not ordered:
        return Percentile(0.0, 0, 0)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return Percentile(ordered[rank], len(ordered), len(ordered) - rank - 1)


def median_percentile(per_seed: list[list[float]], fraction: float) -> Percentile:
    """Median over seeds of each seed's percentile (seeds without samples skipped)."""
    found = [percentile(ordered, fraction) for ordered in per_seed if ordered]
    if not found:
        return Percentile(0.0, 0, 0, 0)
    return Percentile(
        statistics.median(pct.value for pct in found),
        sum(pct.count for pct in found),
        min(pct.beyond for pct in found),
        len(found),
    )


def simulated_metrics(workload: Workload, reps: list[Rep]) -> tuple[dict, dict]:
    """Simulated metrics over ``reps`` (one per scenario seed).

    Rates are pooled over the seeds; percentiles are medians over seeds.
    Returns ``(values, percentiles)``; the percentiles carry sample counts.
    """
    low, high = workload.warmup, workload.duration
    window = (high - low) * len(reps)
    committed = good = 0
    latencies, cross = [], []
    for rep in reps:
        seed_latencies, seed_cross = [], []
        for sample in rep.samples:
            if low <= sample.committed_at < high:
                committed += 1
            if low <= sample.submitted_at < high:
                latency = sample.latency
                seed_latencies.append(latency)
                if sample.cross_shard:
                    seed_cross.append(latency)
                if latency <= SLO_LIMIT:
                    good += 1
        latencies.append(sorted(seed_latencies))
        cross.append(sorted(seed_cross))
    pcts = {
        "sim_p50_ms": median_percentile(latencies, 0.50),
        "sim_p99_ms": median_percentile(latencies, 0.99),
        "sim_p50_cross_ms": median_percentile(cross, 0.50),
        "sim_p95_cross_ms": median_percentile(cross, 0.95),
    }
    submitted = sum(rep.submitted for rep in reps)
    values = {
        "sim_tps": committed / window,
        "slo_goodput_tps": good / window,
        "failed_frac": sum(rep.failed for rep in reps) / max(1, submitted),
    }
    values.update({name: pct.value * 1e3 for name, pct in pcts.items()})
    outages = [rep.outage for rep in reps if rep.outage is not None]
    if workload.crash and outages:
        values["outage_ms"] = statistics.median(outages) * 1e3
    return values, pcts


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux).

    The figure is process-wide: with ``--workload all`` each workload
    reports the peak of every workload run before it as well.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def host_metrics(reps: list[Rep], setups: list[float]) -> dict:
    """Host metrics over every repetition of a run.

    A set-up is short enough to fall inside one of the host's fast or slow
    spells, so their distribution is bimodal and a median of a few flips
    between the modes; the fastest set-up of the run does not.
    """
    return {
        "setup_s": min(setups),
        "run_cpu_s": statistics.median(rep.run_cpu_s for rep in reps),
        "host_tx_per_cpu_s": statistics.median(
            rep.drive_commits / rep.drive_cpu_s for rep in reps
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def _phase_p50(report, scope: str, phase: str) -> float:
    stats = getattr(report.breakdown, scope)
    for entry in stats:
        if entry.phase == phase:
            return entry.p50_ms
    return 0.0


def layer_metrics(workload: Workload, traced: Rep, tracer, host: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    ``host`` holds the per-layer host times (medians over the traced
    repetitions of the run); everything else is simulated or counted
    and identical for every traced repetition of one scenario seed.
    """
    counters = traced.counters
    recovery = counters["recovery"]
    report = traced.trace_report
    commits = max(1, len(traced.samples))
    _, pcts = simulated_metrics(workload, [traced])
    values = dict(host)
    values.update(
        {
            "sim.events_per_tx": traced.processed_events / commits,
            "sim.network.msgs_per_tx": traced.messages_sent / commits,
            "sim.network.dropped": traced.messages_dropped,
            "sim.process.bottleneck_util": counters["bottleneck_util"],
            "sim.process.primary_util": counters["primary_util"],
            "sim.process.backup_util": counters["backup_util"],
            "consensus.slots_decided": counters["slots_decided"],
            "consensus.reqs_per_slot": counters["reqs_per_slot"],
            "consensus.view_changes": counters["view_changes"],
            "consensus.phase.propose_ms": _phase_p50(report, "intra", "propose"),
            "consensus.phase.prepared_ms": _phase_p50(report, "intra", "prepared"),
            "consensus.phase.decided_ms": _phase_p50(report, "intra", "decided"),
            "core.phase.enqueue_ms": _phase_p50(report, "intra", "enqueue"),
            "core.phase.cross_start_ms": _phase_p50(report, "cross", "cross_start"),
            "core.phase.cross_prepared_ms": _phase_p50(report, "cross", "cross_prepared"),
            "core.phase.applied_ms": _phase_p50(report, "intra", "applied"),
            "core.phase.reply_ms": _phase_p50(report, "intra", "reply"),
            "sim_p50_cross_ms": pcts["sim_p50_cross_ms"].value * 1e3,
            "sim_p95_cross_ms": pcts["sim_p95_cross_ms"].value * 1e3,
            "txn.execute_calls": tracer.calls.get("TransactionExecutor.execute", 0),
            "ledger.appends": tracer.calls.get("ClusterView.append", 0),
            "storage.digest_calls": tracer.calls.get("StateStore.state_digest", 0)
            + tracer.calls.get("StateStore.snapshot_digest", 0),
            "storage.resident_accounts": counters["resident_accounts"],
            "recovery.checkpoints_stable": recovery["checkpoints_stable"],
            "recovery.state_transfers_completed": recovery["state_transfers_completed"],
            "recovery.entries_truncated": recovery["entries_truncated"],
        }
    )
    return values
