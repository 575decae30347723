"""SharPer benchmark: simulated and host end-to-end metrics per workload.

Run from the repository root::

    python3 sharperbench/run.py --workload intra --seed 1 --seconds 30 --trace 0
    python3 sharperbench/run.py --workload all --seed 1 --seconds 30

Each run executes the workload's pooled scenario seeds (derived from
``--seed``), then repeats them until ``--seconds`` have passed.  Every
repetition must pass the ledger audit, conserve balance and raise
nothing.  The metrics are printed by name and unit, and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer split of a traced repetition with ``--trace 1``.  The
exit code is 0 only when every repetition was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPAN_DIR = Path(".bench_out")


def _import_program():
    """Put the checkout's ``src`` on the path and import the benchmark."""
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the repro package from src/: {exc}", file=sys.stderr)
        sys.exit(2)


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:36s} {value:14.6f} {unit:10s} {note}".rstrip())


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from measure import END_TO_END, FAILOVER_END_TO_END, HOST_CPU, host_metrics, simulated_metrics
    from workloads import run_rep, scenario_seeds, time_setup

    seeds = scenario_seeds(workload, seed)
    deadline = time.perf_counter() + seconds
    reps: list = []
    # Each repetition's set-up plus one more timed right after it, so the
    # set-ups are spread over the whole run.
    setups: list[float] = []
    while all(rep.ok for rep in reps) and (
        len(reps) < len(seeds) or time.perf_counter() < deadline
    ):
        scenario_seed = seeds[len(reps) % len(seeds)]
        rep = run_rep(workload, scenario_seed)
        if len(reps) >= len(seeds):
            # Only the pooled seeds' samples are read; dropping the repeats'
            # keeps the process's memory from growing with the repetitions.
            rep.samples = []
        reps.append(rep)
        if rep.ok:
            setups += [rep.setup_s, time_setup(workload, scenario_seed)]
    while all(rep.ok for rep in reps) and len(setups) < MIN_SETUPS:
        setups.append(time_setup(workload, seeds[len(setups) % len(seeds)]))

    correct = all(rep.ok for rep in reps)
    values, pcts = simulated_metrics(workload, reps[: len(seeds)])
    if correct:
        values.update(host_metrics(reps, setups))
    names = FAILOVER_END_TO_END if workload.crash else END_TO_END

    print(
        f"workload {workload.name}: {workload.loop}; {workload.fault_model.value} model; "
        f"{workload.cross_shard:.0%} cross-shard; seed {seed} -> scenario seeds {seeds}; "
        f"{len(reps)} repetitions"
    )
    _report_correctness(reps)
    if correct:
        for name, unit, _better in names:
            note = pcts[name].describe() if name in pcts else ""
            _print_metric(name, values[name], unit, note)
        for name, unit, _better in HOST_CPU:
            _print_metric(name, values[name], unit, "(per-layer: not gated)")
        for name in ("sim_p50_cross_ms", "sim_p95_cross_ms"):
            print(f"  {name:36s} {pcts[name].describe()} ms")
    attempted = sum(rep.submitted for rep in reps)
    failed = sum(rep.failed if rep.ok else rep.submitted for rep in reps)
    print(f"  {'failed_frac':36s} {failed / max(1, attempted):14.6f} ratio      ({failed} of {attempted} requests)")
    if workload.rate is not None:
        lateness = max(rep.lateness for rep in reps) * 1e3
        print(f"  {'open-loop generator lateness (max)':36s} {lateness:14.3g} ms")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in names
        if correct and name in values
    }
    return _result(correct, attempted, failed, metrics)


def run_traced(workload, seed: int, seconds: float) -> dict:
    from measure import GATED_PER_LAYER, PER_LAYER, layer_metrics
    from tracer import Tracer
    from workloads import run_rep, scenario_seeds

    seeds = scenario_seeds(workload, seed)
    deadline = time.perf_counter() + seconds
    reps = []
    # The first pair is reported in full; later pairs add only host times.
    first = None
    host: dict[str, list[float]] = {}
    problems: list[str] = []
    while first is None or (
        not problems and all(rep.ok for rep in reps) and time.perf_counter() < deadline
    ):
        scenario_seed = seeds[len(reps) // 2 % len(seeds)]
        untraced = run_rep(workload, scenario_seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rep(workload, scenario_seed, tracer=tracer, trace=True)
        finally:
            tracer.uninstall()
        reps += [untraced, traced]
        problems.extend(_check_pair(untraced, traced, tracer))
        if untraced.ok and traced.ok:
            for name, value in _host_layers(untraced, traced, tracer).items():
                host.setdefault(name, []).append(value)
        if first is None:
            first = (traced, tracer)

    correct = not problems and all(rep.ok for rep in reps)
    print(
        f"workload {workload.name} (traced): {workload.loop}; seed {seed} -> "
        f"scenario seeds {seeds}; {len(reps) // 2} traced/untraced pairs"
    )
    _report_correctness(reps)
    for problem in problems:
        print(f"  FAILED: {problem}")
    attempted = sum(rep.submitted for rep in reps)
    failed = sum(rep.failed if rep.ok else rep.submitted for rep in reps)
    if not correct:
        return _result(False, attempted, failed, {})

    host = {name: statistics.median(values) for name, values in host.items()}
    traced, tracer = first
    values = layer_metrics(workload, traced, tracer, host)
    for name, unit, _better in PER_LAYER:
        _print_metric(name, values[name], unit)
    self_times = tracer.self_times()
    print("  host self time by layer (first traced repetition, s):")
    for layer, spent in sorted(self_times.items(), key=lambda item: -item[1]):
        print(f"    {layer:34s} {spent:10.4f}")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload.name}-seed{seed}.json"
    tracer.write_chrome_trace(str(span_file))
    print(f"  spans: {len(tracer.spans)} kept in memory, written to {span_file}")
    listed = GATED_PER_LAYER if workload.gated else PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _better in listed}
    return _result(True, attempted, failed, metrics)


def _host_layers(untraced, traced, tracer) -> dict:
    """Host per-layer times of one traced repetition.

    ``trace.coverage`` counts only spans below the ``Simulator.run`` root:
    the root's self time (the event loop and the span bookkeeping charged
    to it) is not covered by any wrapper, so it is part of ``other``.
    """
    from tracer import NAMED_LAYERS, ROOT_LAYER

    self_times = tracer.self_times()
    named = sum(
        spent
        for layer, spent in traced.drive_layers.items()
        if layer != ROOT_LAYER and layer.split(".")[0] in NAMED_LAYERS
    )
    drive = traced.drive_wall_s
    return {
        "run_cpu_s": untraced.run_cpu_s,
        "host_tx_per_cpu_s": untraced.drive_commits / untraced.drive_cpu_s,
        "sim.kernel_s": self_times.get("sim.kernel", 0.0) + self_times.get(ROOT_LAYER, 0.0),
        "sim.network_s": self_times.get("sim.network", 0.0),
        "consensus.handlers_s": self_times.get("consensus", 0.0),
        "core.apply_s": self_times.get("core.apply", 0.0),
        "core.cross_shard_s": self_times.get("core.cross_shard", 0.0),
        "core.client_s": self_times.get("core.client", 0.0),
        "core.replica_s": self_times.get("core.replica", 0.0),
        "txn.execute_s": self_times.get("txn.execute", 0.0),
        "txn.validate_s": self_times.get("txn.validate", 0.0),
        "txn.workload_s": self_times.get("txn.workload", 0.0),
        "ledger.append_s": self_times.get("ledger.append", 0.0),
        "ledger.prune_s": self_times.get("ledger.prune", 0.0),
        "ledger.audit_s": traced.stages["ledger.audit"],
        "storage.digest_s": self_times.get("storage.digest", 0.0),
        "recovery.checkpoint_s": self_times.get("recovery.checkpoint", 0.0),
        "api.build_s": traced.stages["api.build"],
        "api.spawn_s": traced.stages["api.spawn"],
        "api.drain_s": traced.stages["api.drain"],
        "trace.overhead": traced.run_cpu_s / untraced.run_cpu_s,
        "trace.coverage": named / drive,
        "trace.other_s": drive - named,
    }


def _check_pair(untraced, traced, tracer) -> list[str]:
    """Tracing must not change the simulation, and its counts must reconcile."""
    if not (untraced.ok and traced.ok):
        return []  # reported by the correctness gate
    problems = []

    def key(rep):
        return [(s.tx_id, s.submitted_at, s.committed_at, s.cross_shard) for s in rep.samples]

    if key(untraced) != key(traced):
        problems.append(f"seed {traced.seed}: traced commit samples differ from untraced")
    checks = (
        ("events", tracer.calls.get("events", 0), traced.processed_events),
        ("messages", tracer.messages, traced.messages_sent),
        (
            "checkpoints",
            tracer.calls.get("CheckpointManager.take", 0),
            traced.counters["recovery"]["checkpoints_taken"],
        ),
    )
    for what, wrapped, counted in checks:
        if wrapped != counted:
            problems.append(
                f"seed {traced.seed}: {what} seen by wrappers {wrapped} != program counter {counted}"
            )
    return problems


def _report_correctness(reps) -> None:
    bad = [rep for rep in reps if not rep.ok]
    if not bad:
        print(f"  correctness: {len(reps)} repetitions audited ok, balance conserved, nothing raised")
        return
    for rep in bad:
        reason = rep.error or (
            "ledger audit failed" if not rep.audit_ok else "total balance not conserved"
        )
        print(f"  FAILED: scenario seed {rep.seed}: {reason}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


#: set-ups timed per run at least (repetitions included) for ``setup_s``.
MIN_SETUPS = 10


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or 'all'")
    run = run_traced if args.trace else run_untraced
    results = {name: run(WORKLOADS[name], args.seed, args.seconds) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = _result(
            all(r["correct"] for r in results.values()),
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
