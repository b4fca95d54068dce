"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fanout-32 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same inputs untraced and then traced and
reports the per-layer metrics.  Either way the correctness checks run,
a human-readable report goes to stdout, and the last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every check passed.

Workload shapes, and why each workload exists, are in
``perfbench/workloads.json``; BENCHMARK.json at the repository root
names the metrics and their regression bounds.  See
``perfbench/README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT_DIR,
    Checks,
    declared_metrics,
    host_calibration_ms,
    load_workloads,
    median,
    metric_block,
    peak_rss_mb,
    percentile,
    report,
    use_source_tree,
)

#: Timed simulator instances per run at least (after the warm-up one):
#: the repeat checks compare instances.
MIN_REPEATS = 2

perf_counter = time.perf_counter

# -- simulator workloads ----------------------------------------------------


def sim_end_to_end(name: str, shape: dict, seed: int, seconds: float) -> dict:
    """Repeat one instance for ``seconds`` and report medians.

    The first instance warms the interpreter and the program's lazy
    state; it is checked like the others but not timed.  Latency
    percentiles are taken per instance and the median reported: a host
    stall that hits one instance then moves one sample, not the pool.
    """
    from simload import run_instance, summarize_ticks

    checks = Checks()
    instances = []
    begin = None
    while (begin is None or len(instances) < MIN_REPEATS + 1
           or perf_counter() - begin < seconds):
        gc.collect()
        instance, db = run_instance(name, shape, seed)
        del db
        instance.snapshot = {}
        instances.append(instance)
        if begin is None:
            begin = perf_counter()
        for failure in instance.checks.failures:
            checks.expect(False, failure)
    first = instances[0]
    ticks = summarize_ticks(first)
    for other in instances[1:]:
        checks.expect(
            other.state_hash == first.state_hash,
            f"{name}: state hash repeats ({other.state_hash[:12]} vs "
            f"{first.state_hash[:12]})",
        )
        checks.expect(other.counts == first.counts,
                      f"{name}: counts repeat ({other.counts} vs {first.counts})")
        checks.expect(summarize_ticks(other) == ticks,
                      f"{name}: tick metrics repeat")
    timed = instances[1:]
    latencies = [inst.wall_latencies_ms() for inst in timed]
    metrics = {
        "setup_s": median([inst.setup_s for inst in timed]),
        "throughput_ops": median([inst.committed / inst.wall_s for inst in timed]),
        "latency_p50_ms": median([percentile(ms, 50) for ms in latencies]),
        "peak_rss_mb": peak_rss_mb(),
    }
    p90_ms = median([percentile(ms, 90) for ms in latencies])
    p99_ms = median([percentile(ms, 99) for ms in latencies])
    samples = sum(len(ms) for ms in latencies)
    attempted = sum(inst.attempted for inst in instances)
    failed = sum(inst.failed for inst in instances)
    per_instance = first.attempted
    report(f"{name} seed={seed}: {len(timed)} timed instances (+1 warm-up) "
            f"of {per_instance} ops, tracing off", [
        ("setup_s", metrics["setup_s"], "s", len(timed)),
        ("throughput_ops", metrics["throughput_ops"], "ops/s", len(timed)),
        ("latency_p50_ms", metrics["latency_p50_ms"], "ms", samples),
        ("latency_p90_ms", p90_ms, "ms", samples),
        ("latency_p99_ms", p99_ms, "ms", samples),
        ("write_p50_ticks", ticks["write_p50_ticks"], "ticks",
         len(first.tick_latencies("w"))),
        ("write_p99_ticks", ticks["write_p99_ticks"], "ticks",
         len(first.tick_latencies("w"))),
        ("read_p99_ticks", ticks["read_p99_ticks"], "ticks",
         len(first.tick_latencies("r"))),
        ("stale_p99_ticks", ticks["stale_p99_ticks"], "ticks",
         len(first.stale_ticks)),
        ("outage_ticks", ticks["outage_ticks"], "ticks", None),
        ("error_rate", failed / attempted, "share", attempted),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", None),
        ("events", first.counts["events"], "count", None),
        ("messages", first.counts["messages"], "count", None),
        ("installs", first.counts["installs"], "count", None),
        ("quorum_reads", first.counts["quorum_reads"], "count", None),
        ("failovers", first.counts["failovers"], "count", None),
        ("state_hash", first.state_hash[:16], "", None),
        ("wall_s per timed instance (min..max)",
         f"{min(i.wall_s for i in timed):.3f}.."
         f"{max(i.wall_s for i in timed):.3f}", "s", None),
    ])
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "metrics": metric_block(metrics, "end_to_end")}


def sim_traced(name: str, shape: dict, seed: int, calib_ms: float) -> dict:
    """Three instances of the same inputs: plain, span-traced, audited.

    The span-traced instance runs with the program's own tracer off,
    as the end-to-end runs do, so its layer self times describe the
    measured configuration; a third instance turns the program's
    tracer on for the audit and the trace tallies.  All three must end
    in the same state with the same counts.
    """
    from layers import install_recorder, program_layer_metrics, reconcile
    from simload import SimClient, audit_program_trace, run_instance, summarize_ticks
    from spans import SpanRecorder

    checks = Checks()
    gc.collect()
    plain, db = run_instance(name, shape, seed)
    del db
    gc.collect()
    recorder = SpanRecorder()
    install_recorder(recorder)
    for attr in ("start", "attempt", "finished", "installed", "crash", "recover"):
        recorder.wrap(SimClient, attr, "bench.client")
    try:
        spanned, db = run_instance(name, shape, seed)
    finally:
        recorder.uninstall()
    del db
    gc.collect()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.jsonl")
    audited, db = run_instance(name, shape, seed, trace_path=trace_path)
    del db
    for failure in (plain.checks.failures + spanned.checks.failures
                    + audited.checks.failures):
        checks.expect(False, failure)
    for label, other in (("span-traced", spanned), ("program-traced", audited)):
        checks.expect(
            other.state_hash == plain.state_hash,
            f"{name}: {label} run keeps the state hash "
            f"({other.state_hash[:12]} vs untraced {plain.state_hash[:12]})",
        )
        checks.expect(other.counts == plain.counts,
                      f"{name}: {label} run keeps every count "
                      f"({other.counts} vs {plain.counts})")
        checks.expect(summarize_ticks(other) == summarize_ticks(plain),
                      f"{name}: {label} run keeps every tick metric")
    clean, violations, tallies = audit_program_trace(trace_path)
    checks.expect(clean, f"{name}: audit of the program trace is clean "
                         f"({violations} violations)")
    counters = spanned.snapshot["counters"]
    reconcile(
        recorder,
        messages_sent=spanned.counts["messages"],
        installs=spanned.counts["installs"],
        quorum_reads=spanned.counts["quorum_reads"],
        failovers=counters.get("avail.failovers", 0),
        failover_events=tallies["types"].get("avail.failover.done", 0),
        checks=checks,
    )
    writes = sum(1 for op in spanned.ops
                 if op.kind == "w" and op.done_tick is not None)
    values = program_layer_metrics(
        recorder,
        spanned.snapshot,
        ops=spanned.attempted,
        writes=writes,
        events=spanned.counts["events"],
        injected_kills=1 if name == "partial-lossy" else 0,
        trace_types=tallies["types"],
        recover_at=tallies["recover_at"],
        catchup_done_at=tallies["catchup_done_at"],
    )
    values.update({
        "runtime.loop_lag_p99_ms": 0.0,
        "runtime.pickle_fallbacks": 0.0,
        "serve.wire_ms_p50": 0.0,
        "serve.attempts_per_write": 0.0,
        "host.calib_ms": calib_ms,
        "bench.trace_overhead_ratio": spanned.wall_s / plain.wall_s,
    })
    spans_written = recorder.span_count()
    index = recorder.write(OUT_DIR, name)
    rows = [(metric, float(values[metric]), unit, None)
            for metric, unit in declared_metrics("per_layer")]
    rows.append(("spans recorded", spans_written, f"-> {index}", None))
    report(f"{name} seed={seed}: per-layer (untraced {plain.wall_s:.3f} s, "
            f"span-traced {spanned.wall_s:.3f} s, program-traced "
            f"{audited.wall_s:.3f} s)", rows)
    runs = (plain, spanned, audited)
    return {"checks": checks,
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "metrics": metric_block(values, "per_layer")}


# -- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    shape = workloads[args.workload]["shape"]
    calib_ms = host_calibration_ms()
    print(f"host.calib_ms {calib_ms:.3f}")
    if args.workload == "http-closed":
        from httpload import http_end_to_end, http_traced

        if args.trace:
            outcome = http_traced(shape, args.seed, args.seconds, calib_ms)
        else:
            outcome = http_end_to_end(shape, args.seed, args.seconds)
    elif args.trace:
        outcome = sim_traced(args.workload, shape, args.seed, calib_ms)
    else:
        outcome = sim_end_to_end(args.workload, shape, args.seed, args.seconds)
    checks: Checks = outcome["checks"]
    print(f"== checks: {checks.passed} passed, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checks.ok,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
