"""Per-layer metrics derived from one traced run.

Counts and self times come from the recorded spans (and the counts
taken at the same wrappers); figures the wrappers cannot see - drops,
duplicates, failovers, histogram tails - come from the program's own
metrics registry or its trace, as each metric below names.  The
metric names and units themselves are listed once, in BENCHMARK.json.
"""

from __future__ import annotations

from typing import Any

from common import percentile
from spans import SpanRecorder


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def lock_wait_counter(recorder: SpanRecorder):
    """``on_result`` hook for ``LockTable.acquire``: count refusals."""

    def hook(_args: tuple, granted: Any, _seconds: float) -> None:
        if not granted:
            recorder.count("cc.lock_waits")

    return hook


def send_kind_counter(recorder: SpanRecorder):
    """``on_result`` hook for ``Network.send``: count sends per kind."""

    def hook(args: tuple, _message: Any, _seconds: float) -> None:
        recorder.count("send.kind." + args[3])

    return hook


def install_recorder(recorder: SpanRecorder, extra_hooks=None) -> None:
    """Wrap the entry points plus the counts the layer metrics need."""
    from repro.net.topology import Topology

    hooks = {
        "cc.acquire": lock_wait_counter(recorder),
        "net.send": send_kind_counter(recorder),
        **(extra_hooks or {}),
    }
    recorder.install(on_result=hooks)
    # A path-cache miss is one uncached shortest-path computation; the
    # hit ratio needs that count beside the path_latency span count.
    recorder.count_calls(Topology, "_path_latency_uncached", "net.path_misses")


def program_layer_metrics(
    recorder: SpanRecorder,
    snapshot: dict[str, Any],
    *,
    ops: int,
    writes: int,
    events: int,
    injected_kills: int,
    trace_types: dict[str, int],
    recover_at: list[float],
    catchup_done_at: list[float],
) -> dict[str, float]:
    """Every per-layer metric the program side of a traced run yields."""
    stats = recorder.layer_stats()
    counters = snapshot["counters"]
    histos = snapshot["histograms"]

    def calls(*names: str) -> int:
        return sum(stats[n]["calls"] for n in names if n in stats)

    def self_us(*names: str) -> float:
        return sum(stats[n]["self_s"] for n in names if n in stats) * 1e6

    counts = recorder.counts
    msgs = calls("net.send", "net.resend")
    installs = calls("cc.submit_quasi")
    txns = calls("cc.submit")
    reads = calls("quorum.begin_read")
    net_spans = ("net.send", "net.resend", "net.multicast", "net.bcast_handle",
                 "net.path_latency")
    failovers = counters.get("avail.failovers", 0)
    mttr = histos.get("avail.mttr", {})
    rejoin = 0.0
    if recover_at:
        done = [t for t in catchup_done_at if t >= recover_at[0]]
        rejoin = (done[0] - recover_at[0]) if done else 0.0
    return {
        "sim.events_per_op": _ratio(events, ops),
        "sim.self_us_per_op": _ratio(self_us("sim.run"), ops),
        "net.msgs_per_write": _ratio(msgs, writes),
        "net.self_us_per_msg": _ratio(self_us(*net_spans), msgs),
        "net.path_cache_hit_ratio": _ratio(
            calls("net.path_latency") - counts.get("net.path_misses", 0),
            calls("net.path_latency"),
        ),
        "net.retransmits_per_msg": _ratio(calls("net.resend"), calls("net.send")),
        "net.dup_ratio": _ratio(
            counters.get("retrans.duplicates_dropped", 0),
            calls("transport.intercept"),
        ),
        "net.useful_ratio": _ratio(calls("core.handle_network"), msgs),
        "net.transport_self_us_per_msg": _ratio(
            self_us("transport.on_send", "transport.intercept"), msgs
        ),
        "replication.installs_per_write": _ratio(installs, writes),
        "replication.self_us_per_install": _ratio(
            self_us("replication.submit", "replication.deliver",
                    "replication.enqueue"),
            installs,
        ),
        "replication.qts_per_batch": _ratio(
            counters.get("replication.qt_submitted", 0),
            counters.get("replication.batches_sent", 0),
        ),
        "replication.apply_wait_p99_ticks": float(
            histos.get("pipeline.apply_wait", {}).get("p99") or 0.0
        ),
        "replication.admission_buffered_per_install": _ratio(
            trace_types.get("lineage.buffer", 0), installs
        ),
        "replication.quorum_msgs_per_read": _ratio(
            counts.get("send.kind.qread-req", 0)
            + counts.get("send.kind.qread-rep", 0),
            reads,
        ),
        "replication.quorum_retries": float(counters.get("quorum.retries", 0)),
        "replication.quorum_timeouts": float(counters.get("quorum.timeouts", 0)),
        "cc.self_us_per_txn": _ratio(
            self_us("cc.submit", "cc.submit_quasi", "cc.acquire",
                    "cc.release_all"),
            txns,
        ),
        "cc.lock_acquires_per_install": _ratio(
            recorder.ancestor_counts("cc.acquire", "cc.submit_quasi"), installs
        ),
        "cc.lock_waits_per_txn": _ratio(counts.get("cc.lock_waits", 0), txns),
        "cc.abort_ratio": _ratio(
            counters.get("txn.aborted", 0), counters.get("txn.submitted", 0)
        ),
        "storage.wal_appends_per_install": _ratio(
            calls("storage.wal_append"), installs
        ),
        "storage.self_us_per_install": _ratio(
            self_us("storage.install", "storage.wal_append"), installs
        ),
        "obs.observes_per_install": _ratio(calls("obs.observe"), installs),
        "obs.emits_per_op": _ratio(calls("obs.emit"), ops),
        "obs.self_us_per_op": _ratio(self_us("obs.observe", "obs.emit"), ops),
        "core.self_us_per_msg": _ratio(
            self_us("core.handle_network", "core.on_broadcast"), msgs
        ),
        "availability.failovers": float(failovers),
        "availability.false_failovers": float(max(0, failovers - injected_kills)),
        "availability.suspicions": float(counters.get("avail.suspicions", 0)),
        "availability.mttr_ticks": float(mttr.get("mean") or 0.0),
        "availability.updates_discarded": float(
            counters.get("avail.updates_discarded", 0)
        ),
        "recovery.demotions": float(counters.get("avail.demotions", 0)),
        "recovery.catchup_entries": float(
            counters.get("recovery.delta_qts_shipped", 0)
        ),
        "recovery.rejoin_ticks": float(rejoin),
        "runtime.hop_ms_p50": percentile(
            stats.get("runtime.call_on_runtime", {}).get("durations", []), 50
        ) * 1000.0,
        "runtime.codec_us_per_frame": _ratio(
            self_us("runtime.encode_frame", "runtime.decode_frame"),
            calls("runtime.encode_frame", "runtime.decode_frame"),
        ),
        "runtime.frames_per_write": _ratio(calls("runtime.encode_frame"), writes),
        "runtime.bytes_per_write": _ratio(counters.get("tcp.bytes_sent", 0), writes),
        "serve.handler_ms_p50": percentile(
            stats.get("serve.submit_write", {}).get("durations", [])
            + stats.get("serve.submit_read", {}).get("durations", []),
            50,
        ) * 1000.0,
    }


def reconcile(recorder: SpanRecorder, *, messages_sent: int, installs: int,
              quorum_reads: int, failovers: int, failover_events: int,
              checks) -> None:
    """Wrapper counts must equal the program's own counters."""
    sends = recorder.calls_of("net.send") + recorder.calls_of("net.resend")
    checks.expect(
        sends == messages_sent,
        f"reconcile: wrapped Network.send+resend {sends} == "
        f"network.messages_sent {messages_sent}",
    )
    quasi = recorder.calls_of("cc.submit_quasi")
    checks.expect(
        quasi == installs,
        f"reconcile: wrapped LocalScheduler.submit_quasi {quasi} == "
        f"qt.installed {installs}",
    )
    begun = recorder.calls_of("quorum.begin_read")
    checks.expect(
        begun == quorum_reads,
        f"reconcile: wrapped QuorumReadManager.begin_read {begun} == "
        f"quorum.reads {quorum_reads}",
    )
    checks.expect(
        failover_events == failovers,
        f"reconcile: traced avail.failover.done events {failover_events} == "
        f"avail.failovers {failovers}",
    )
