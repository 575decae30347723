"""Tests of the benchmark itself: ``python3 -m pytest sharperbench``.

Short variants of the workloads keep each test to a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from measure import (
    END_TO_END,
    GATED_PER_LAYER,
    PER_LAYER,
    host_metrics,
    median_percentile,
    percentile,
)
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from run import _host_layers
from tracer import ROOT_LAYER, Tracer
from workloads import WORKLOADS, Rep, run_rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def short(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], duration=0.1, warmup=0.02, **changes)


def traced_pair(workload, seed: int = 7):
    untraced = run_rep(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rep(workload, seed, tracer=tracer, trace=True)
    finally:
        tracer.uninstall()
    assert untraced.ok and traced.ok, (untraced.error, traced.error)
    return untraced, traced, tracer


def samples(rep):
    return [(s.tx_id, s.submitted_at, s.committed_at, s.cross_shard) for s in rep.samples]


# ----------------------------------------------------------------------
# tracing: counts reconcile with the program's counters, results unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload",
    [short("intra"), short("cross-byz"), short("batched", accounts_per_shard=1024)],
    ids=["intra", "cross-byz", "batched"],
)
def test_wrapper_counts_reconcile_with_program_counters(workload):
    untraced, traced, tracer = traced_pair(workload)
    assert tracer.calls["events"] == traced.processed_events
    assert tracer.messages == traced.messages_sent
    assert (
        tracer.calls["CheckpointManager.take"]
        == traced.counters["recovery"]["checkpoints_taken"]
    )
    assert tracer.calls["ClusterView.append"] > 0
    if workload.checkpoint_interval:
        assert traced.counters["recovery"]["checkpoints_taken"] > 0
        assert traced.counters["recovery"]["entries_truncated"] > 0
        assert tracer.calls["StateStore.state_digest"] > 0
        assert tracer.calls["ClusterView.prune"] > 0
        assert traced.counters["reqs_per_slot"] > 1


@pytest.mark.parametrize("name", ["intra", "cross-byz"])
def test_traced_run_reproduces_untraced_simulation(name):
    untraced, traced, _ = traced_pair(short(name))
    assert samples(untraced) == samples(traced)
    assert untraced.messages_sent == traced.messages_sent


def test_self_times_cover_the_drive():
    _, traced, _ = traced_pair(short("cross-byz"))
    covered = sum(traced.drive_layers.values())
    assert covered == pytest.approx(traced.drive_wall_s, rel=0.02)
    assert traced.drive_layers["core.cross_shard"] > 0


def test_coverage_leaves_out_the_event_loop():
    untraced, traced, tracer = traced_pair(short("intra"))
    host = _host_layers(untraced, traced, tracer)
    loop = traced.drive_layers[ROOT_LAYER]
    assert loop > 0
    assert host["trace.coverage"] <= 1 - loop / traced.drive_wall_s + 1e-9
    assert host["trace.other_s"] >= loop
    assert host["trace.coverage"] + host["trace.other_s"] / traced.drive_wall_s == pytest.approx(1)


def test_uninstall_restores_the_program():
    originals = (Process.register_handler, Process.set_timer, Simulator.run)
    tracer = Tracer()
    tracer.install()
    assert Simulator.run is not originals[2]
    tracer.uninstall()
    assert (Process.register_handler, Process.set_timer, Simulator.run) == originals


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def test_percentile_reports_its_sample_count():
    ordered = [float(value) for value in range(1, 101)]
    p99 = percentile(ordered, 0.99)
    assert (p99.value, p99.count, p99.beyond) == (99.0, 100, 1)
    assert "fewer than 10" in p99.describe()
    p50 = percentile(ordered, 0.50)
    assert (p50.value, p50.beyond) == (50.0, 50)
    assert "fewer than" not in p50.describe()
    assert percentile([], 0.5).count == 0


def test_median_percentile_is_taken_over_seeds():
    pct = median_percentile([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], []], 0.5)
    assert (pct.value, pct.count, pct.beyond, pct.seeds) == (3.5, 6, 1, 2)


def test_host_metrics_take_the_fastest_setup_and_median_cpu():
    reps = [
        Rep(seed=1, run_cpu_s=cpu, drive_cpu_s=cpu, drive_commits=100)
        for cpu in (1.0, 2.0, 4.0)
    ]
    host = host_metrics(reps, [0.03, 0.015, 0.016, 0.031])
    assert host["setup_s"] == 0.015
    assert host["run_cpu_s"] == 2.0
    assert host["host_tx_per_cpu_s"] == 50.0


def test_open_loop_generator_runs_on_time():
    workload = dataclasses.replace(
        WORKLOADS["failover"],
        duration=0.1,
        warmup=0.02,
        rate=2000.0,
        crash=False,
        accounts_per_shard=1024,
    )
    rep = run_rep(workload, 3)
    assert rep.ok, rep.error
    assert rep.submitted > 150
    assert rep.lateness < 1e-9


def test_a_raising_run_is_recorded_as_failed():
    rep = run_rep(short("intra", accounts_per_shard=1), 1)
    assert not rep.ok
    assert rep.error.startswith("ConfigurationError")


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json and the command line
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["intra", "cross-byz", "batched"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(GATED_PER_LAYER)
    assert set(GATED_PER_LAYER) <= set(PER_LAYER)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sharperbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "sharperbench/run.py", "--workload", "intra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
