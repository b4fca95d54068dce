"""The gated benchmark records (E17–E22) behind one harness.

Each entry of :data:`BENCHES` names a committed record file at the repo
root, the function that produces a fresh record, its workload options
(``argparse`` flag plus keyword arguments; the option's ``dest`` is the
run function's keyword), a printer for the result table and a gate
function.  Every gate has the signature
``gates(result, committed, tolerance) -> list[str]``: ``committed`` is
the loaded record (or None when there is nothing to compare against),
and an empty list means every gate passed.

``python -m repro bench <name>`` runs one entry; ``--json PATH`` writes
the fresh record, ``--check RECORD`` gates it against a committed one.
The pytest wrappers in ``benchmarks/`` call :meth:`Bench.check`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.analysis import (
    availability_bench,
    partial_bench,
    recovery_bench,
    scale_bench,
    serve_bench,
)
from repro.analysis.report import format_table

#: One workload option: the ``argparse`` flag and its keyword arguments.
Option = tuple[str, dict[str, Any]]


@dataclass(frozen=True)
class Bench:
    """One gated benchmark record."""

    name: str
    help: str
    record: str
    run: Callable[..., dict]
    options: tuple[Option, ...]
    table: Callable[[dict], str]
    gates: Callable[[dict, dict | None, float | None], list[str]]
    claim: str
    #: Default gate slack; None when the gates take no tolerance.
    tolerance: float | None = None
    tolerance_help: str = ""

    def check(self, result: dict) -> list[str]:
        """Gate ``result`` against the committed record."""
        return self.gates(result, load_record(self.record), self.tolerance)


def load_record(path: str) -> dict | None:
    """A benchmark record, or None if the file is absent."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_record(result: dict, path: str) -> None:
    """Write a benchmark record as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- result tables ----------------------------------------------------------


def _scale_table(result: dict) -> str:
    rows = [
        [tag, side["path_cache"], side["events_fired"], side["elapsed_s"],
         side["throughput_eps"], side["mutually_consistent"]]
        for tag, side in (("baseline", result["baseline"]),
                          ("flattened", result["flattened"]))
    ]
    table = format_table(
        ["side", "path cache", "events", "elapsed s", "events/s", "MC"],
        rows,
        title=(
            f"E18 — scale bench: {result['nodes']} nodes, "
            f"{result['updates']} updates, speedup {result['speedup']}x"
        ),
    )
    return (
        f"{table}\nstate hashes match:  {result['state_match']}\n"
        f"event counts match:  {result['events_match']}"
    )


def _partial_table(result: dict) -> str:
    baseline = result["baseline"]
    rows = []
    for point in result["points"] + [baseline]:
        ratio = (
            point["qt_messages"] / baseline["qt_messages"]
            if baseline["qt_messages"]
            else 0.0
        )
        rows.append([
            point["k"],
            point["qt_messages"],
            f"{ratio:.2f}",
            f"{point['k'] / result['nodes']:.2f}",
            point["storage_ratio"],
            f"{point['quorum_served']}/{point['quorum_reads']}",
            point["mutually_consistent"],
            point["audit_ok"],
        ])
    return format_table(
        ["k", "qt msgs", "vs bcast", "k/N", "storage", "quorum", "MC",
         "audit"],
        rows,
        title=(
            f"E19 — partial replication: {result['nodes']} nodes, "
            f"{result['fragments']} fragments, {result['updates']} updates"
        ),
    )


def _availability_table(result: dict) -> str:
    rows = []
    for tag in ("supervised", "unsupervised"):
        mode = result[tag]
        measured = mode["measured"]
        rows.append([
            tag,
            f"{measured['committed']}/{measured['submitted']}",
            measured["blocked"],
            measured["failovers"],
            round(measured["max_unavailability"], 1),
            round(measured["mttr_max"], 1),
            f"{mode['write_availability'] * 100:.2f}%",
            f"{mode['read_availability'] * 100:.2f}%",
            round(mode["worst_window"], 1),
            mode["incidents"],
            mode["timeline_records"],
            measured["audit_ok"],
        ])
    table = format_table(
        ["mode", "committed", "blocked", "failovers", "max-unavail",
         "mttr-max", "write-avail", "read-avail", "worst-win", "incidents",
         "tl-records", "audit"],
        rows,
        title=(
            f"E20/E21 — availability under agent-home crashes: "
            f"{result['nodes']} nodes, {result['fragments']} fragments, "
            f"k={result['replication_factor']}, seed {result['seed']}"
        ),
    )
    deterministic = (
        result["rerun_timeline_hash"] == result["supervised"]["timeline_hash"]
    )
    return f"{table}\ntimeline deterministic across reruns: {deterministic}"


def _recovery_table(result: dict) -> str:
    headers = [
        "mode", "seed", "committed", "wal_replayed", "checkpoints",
        "archive_pruned", "delta_qts_shipped", "checkpoints_shipped",
        "bytes_shipped", "retained_bytes", "rejoin_ticks", "consistent",
        "audit_ok",
    ]
    workload = result["workload"]
    return format_table(
        [header.replace("_", "-") for header in headers],
        [[row[header] for header in headers] for row in result["rows"]],
        title=(
            f"E17 — checkpoint & rejoin cost ({len(workload['seeds'])} "
            f"seeds, {workload['updates']} updates, checkpoint every "
            f"{workload['checkpoint_every']}, grace {workload['grace']:g})"
        ),
    )


def _serve_table(result: dict) -> str:
    return format_table(
        ["committed", "failovers", "http-retries", "throughput", "p50",
         "p99", "audit"],
        [[
            f"{result['committed']}/{result['submitted']}",
            result["failovers"],
            result["retries"],
            f"{result['throughput_ups']}/s",
            f"{result['p50_ms']}ms",
            f"{result['p99_ms']}ms",
            "ok" if result["audit_ok"]
            else f"FAIL:{result['audit_violations']}",
        ]],
        title=(
            f"E22 — HTTP front door on the asyncio backend: "
            f"{result['nodes']} nodes, {result['fragments']} fragments, "
            f"k={result['factor']}, {result['clients']} clients"
            + (", one mid-run hard kill" if result["kill"] else "")
        ),
    )


# -- the registry -------------------------------------------------------------

_SHAPE_HELP = {
    "factor": "replication factor for every fragment",
    "clients": "concurrent HTTP client threads",
}


def _int(flag: str, default: Any, **kwargs: Any) -> Option:
    return flag, dict(type=int, default=default, **kwargs)


def _shape(module: Any, *names: str) -> tuple[Option, ...]:
    """Workload-shape options defaulting to ``module.DEFAULT_<NAME>``."""
    return tuple(
        _int(f"--{name}", getattr(module, f"DEFAULT_{name.upper()}"),
             help=_SHAPE_HELP.get(name))
        for name in names
    )


BENCHES: dict[str, Bench] = {
    bench.name: bench
    for bench in (
        Bench(
            name="scale",
            help="E18 path-cache throughput A/B with determinism check",
            record="BENCH_scale.json",
            run=scale_bench.run_scale_bench,
            options=_shape(scale_bench, "nodes", "updates") + (
                _int("--repeats", 1,
                     help="timing repeats per side; fastest sample wins"),
            ),
            table=_scale_table,
            gates=scale_bench.gates,
            claim="both configurations agree bit for bit, speedup holds",
            tolerance=scale_bench.DEFAULT_TOLERANCE,
            tolerance_help="allowed relative-speedup regression",
        ),
        Bench(
            name="partial",
            help="E19 message volume and storage vs replication factor k",
            record="BENCH_partial.json",
            run=partial_bench.run_partial_bench,
            options=_shape(partial_bench, "nodes", "fragments", "updates") + (
                _int("--seed", 19),
                _int("--factors", list(partial_bench.DEFAULT_FACTORS),
                     nargs="+", metavar="K",
                     help="replication factors to sweep (full replication "
                     "is always run as the baseline)"),
            ),
            table=_partial_table,
            gates=partial_bench.gates,
            claim="multicast volume scales with k, storage tracks k/N, "
            "quorum reads served",
            tolerance=partial_bench.DEFAULT_TOLERANCE,
            tolerance_help="slack on the (k/N)-scaling gates",
        ),
        Bench(
            name="availability",
            help="E20/E21 write availability under agent-home crashes, "
            "with and without the availability supervisor, measured by "
            "the client and by the availability accountant",
            record="BENCH_availability.json",
            run=availability_bench.run_availability_bench,
            options=_shape(
                availability_bench, "nodes", "fragments", "updates", "factor"
            ) + (_int("--seed", 20),),
            table=_availability_table,
            gates=availability_bench.gates,
            claim="supervised outages bounded, every update completed, "
            "audit (incl. epoch fencing) clean, accountant deterministic "
            "and in agreement with the measured windows",
            tolerance=availability_bench.DEFAULT_TOLERANCE,
            tolerance_help="allowed write-availability regression",
        ),
        Bench(
            name="recovery",
            help="E17 checkpoint & rejoin cost: full replay vs "
            "checkpoint+delta vs snapshot shipping",
            record="BENCH_recovery.json",
            run=recovery_bench.run_recovery_bench,
            options=(
                _int("--seeds", list(recovery_bench.DEFAULT_SEEDS),
                     nargs="+", metavar="SEED", help="seeds to sweep"),
                _int("--updates", recovery_bench.DEFAULT_UPDATES,
                     help="update transactions per run"),
                _int("--every", recovery_bench.DEFAULT_EVERY,
                     help="checkpoint every K installs (armed modes)"),
                ("--grace", dict(
                    type=float, default=recovery_bench.DEFAULT_GRACE,
                    help="watermark grace for the snapshot mode")),
            ),
            table=_recovery_table,
            gates=recovery_bench.gates,
            claim="rejoin cost scales with the gap, not run history; "
            "retained state bounded; every mode consistent and audited",
        ),
        Bench(
            name="serve",
            help="E22 HTTP-path throughput/latency on the asyncio "
            "backend, with a mid-run hard kill ridden by supervisor "
            "failover",
            record="BENCH_serve.json",
            run=serve_bench.run_serve_bench,
            options=_shape(
                serve_bench, "nodes", "fragments", "updates", "factor",
                "clients",
            ) + (
                ("--tick", dict(
                    type=float, default=serve_bench.DEFAULT_TICK,
                    metavar="SECONDS",
                    help="real seconds per simulated tick (default 0.01 — "
                    "fast failure detection for benching)")),
                ("--no-kill", dict(
                    action="store_false", dest="kill",
                    help="skip the mid-run hard kill (pure throughput run)")),
                ("--trace", dict(
                    default=None, metavar="PATH", dest="trace_path",
                    help="capture the live trace to this JSONL file")),
            ),
            table=_serve_table,
            gates=serve_bench.gates,
            claim="every update committed, p50 <= p99, audit clean",
        ),
    )
}
