"""E22 — HTTP-path throughput and latency over the asyncio backend.

Everything before this experiment measured the protocols inside the
discrete-event simulator.  E22 measures the *served system*: the same
protocol stack running on the asyncio runtime (real TCP between
nodes), fronted by the HTTP :class:`~repro.serve.app.FrontDoor`, and
driven by concurrent HTTP clients.  Recorded per run:

* **throughput** — committed updates per wall-clock second through
  the full client → HTTP → catalog route → submit → replicate path;
* **latency** — per-request wall p50/p99 (milliseconds);
* **availability under a kill** — with ``kill=True`` one agent's home
  node is hard-killed (socket blackhole + crash) mid-workload; every
  client write must still commit via the front door's queue-and-retry
  riding the supervisor's failover;
* **audit** — the §4.4 guarantee checks run over the trace captured
  from the live system, exactly as they run over simulator traces.

Unlike E18/E20 the numbers here come from real clocks and real
sockets, so the committed ``BENCH_serve.json`` is gated on *schema
and sanity* (all commits land, throughput positive, p50 ≤ p99, audit
clean) — never on exact hashes or absolute rates.  Run it directly
with ``python -m repro bench serve``.

:func:`run_live_chaos` is the same machinery pointed at fault
injection: ``repro chaos --backend=asyncio`` arms per-node fault
proxies (seeded drop/delay on real frames), hard-kills agent homes
mid-run, and asserts the guarantees on the captured trace.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any

from repro.analysis.audit import AuditReport, audit_events
from repro.availability import AvailabilityConfig
from repro.core.system import FragmentedDatabase
from repro.serve import FrontDoor

#: Default workload shape (the CI smoke passes smaller values).
DEFAULT_NODES = 5
DEFAULT_FRAGMENTS = 2
DEFAULT_UPDATES = 40
DEFAULT_FACTOR = 3
DEFAULT_CLIENTS = 4
DEFAULT_TICK = 0.01


def build_system(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    factor: int = DEFAULT_FACTOR,
    tick: float = DEFAULT_TICK,
    fault_profile: dict[str, Any] | None = None,
    trace_path: str | None = None,
    trace_append: bool = False,
    trace_run: str | None = None,
) -> FragmentedDatabase:
    """One asyncio-backed database, supervisor armed, tracing on."""
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(
        names,
        runtime="asyncio",
        tick=tick,
        replication_factor=factor,
        availability=AvailabilityConfig(),
        fault_profile=fault_profile,
    )
    for i in range(fragments):
        home = names[i % nodes]
        db.add_agent(f"ag{i}", home_node=home)
        db.add_fragment(f"F{i}", agent=f"ag{i}", objects=[f"x{i}"])
    db.load({f"x{i}": 0 for i in range(fragments)})
    db.finalize()
    db.enable_tracing(
        path=trace_path,
        append=trace_append,
        context={"run": trace_run} if trace_run else None,
    )
    return db


def _post(
    base: str, path: str, payload: dict, timeout: float = 60.0
) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _drive_workload(
    db: FragmentedDatabase,
    door: FrontDoor,
    updates: int,
    fragments: int,
    clients: int,
    kill: bool,
) -> dict[str, Any]:
    """Fire ``updates`` HTTP writes from ``clients`` threads.

    With ``kill`` set, agent 0's home node is hard-killed (socket
    blackhole + crash, topology untouched) once a third of the updates
    have committed, and revived after two thirds — the middle third
    must ride the supervisor's failover via front-door retries.
    """
    base = door.url
    latencies: list[float] = []
    outcomes: list[tuple[int, dict]] = []
    record_lock = threading.Lock()
    committed_so_far = threading.Semaphore(0)

    def client(worker: int) -> None:
        for i in range(worker, updates, clients):
            obj = f"x{i % fragments}"
            start = time.perf_counter()
            code, body = _post(
                base, "/updates", {"object": obj, "delta": 1}
            )
            elapsed = time.perf_counter() - start
            with record_lock:
                latencies.append(elapsed)
                outcomes.append((code, body))
            if code == 200:
                committed_so_far.release()

    def killer() -> None:
        victim = db.agents["ag0"].home_node
        for _ in range(updates // 3):
            committed_so_far.acquire()
        db.call_on_runtime(lambda: db.hard_kill_node(victim))
        # Hold the victim down until the supervisor actually re-homes
        # the agent — reviving earlier would let recovery race the
        # failover and the run would never exercise it.
        deadline = time.monotonic() + 60.0
        while (
            db.agents["ag0"].home_node == victim
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        for _ in range(updates // 3):
            committed_so_far.acquire()
        db.call_on_runtime(lambda: db.hard_revive_node(victim))

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(clients)
    ]
    if kill:
        threads.append(threading.Thread(target=killer, daemon=True))
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    elapsed = time.perf_counter() - wall_start

    committed = sum(1 for code, _ in outcomes if code == 200)
    failures = [
        body for code, body in outcomes if code != 200
    ]
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return round(ordered[index] * 1000.0, 2)

    return {
        "submitted": updates,
        "committed": committed,
        "failures": failures[:5],  # first few, for the report
        "failure_count": len(failures),
        "elapsed_s": round(elapsed, 3),
        "throughput_ups": round(committed / elapsed, 1) if elapsed else 0.0,
        "p50_ms": pct(50.0),
        "p99_ms": pct(99.0),
        "retries": db.metrics.value("http.updates_retried"),
    }


def _serve(
    db: FragmentedDatabase,
    updates: int,
    fragments: int,
    clients: int,
    kill: bool,
    deadline: float,
) -> tuple[dict[str, Any], AuditReport]:
    """Serve the HTTP workload, stop the runtime, then audit the trace.

    ``stop_runtime`` drains in-flight replication before it halts, so
    the audit sees every install; the trace sink closes only after it,
    so the JSONL file keeps them too.
    """
    db.start_runtime()
    try:
        db.call_on_runtime(lambda: db.availability.start(until=10_000_000.0))
        with FrontDoor(db, retry_interval=0.2, deadline=deadline) as door:
            workload = _drive_workload(
                db, door, updates, fragments, clients, kill
            )
    finally:
        db.stop_runtime()
        db.tracer.close()
    db.sim.check()
    return workload, audit_events(e.as_dict() for e in db.tracer.events())


def run_serve_bench(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    clients: int = DEFAULT_CLIENTS,
    tick: float = DEFAULT_TICK,
    kill: bool = True,
    trace_path: str | None = None,
) -> dict:
    """The full E22 run; returns the ``BENCH_serve.json`` dict."""
    db = build_system(
        nodes, fragments, factor, tick=tick, trace_path=trace_path
    )
    workload, report = _serve(
        db, updates, fragments, clients, kill, deadline=60.0
    )
    return {
        "benchmark": "E22-serve-bench",
        "backend": "asyncio",
        "nodes": nodes,
        "fragments": fragments,
        "factor": factor,
        "clients": clients,
        "tick": tick,
        "kill": kill,
        "failovers": db.metrics.value("avail.failovers"),
        "audit_ok": report.ok,
        "audit_violations": report.violation_count,
        **workload,
    }


def run_live_chaos(
    seed: int = 0,
    drop: float = 0.05,
    delay: float = 0.002,
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    clients: int = DEFAULT_CLIENTS,
    tick: float = DEFAULT_TICK,
    trace_path: str | None = None,
    trace_append: bool = False,
) -> dict:
    """Chaos on the real backend: seeded frame drops + a hard kill.

    Every node's traffic flows through a frame-aware fault proxy that
    drops ``drop`` of frames and delays the rest by ``delay`` seconds;
    one agent home is hard-killed and revived mid-run.  The guarantee
    bar is the same as the simulator nemesis: every client update
    commits, and the §4.4 audit over the captured trace is clean.
    """
    db = build_system(
        nodes,
        fragments,
        factor,
        tick=tick,
        fault_profile={"drop": drop, "delay": delay, "seed": seed},
        trace_path=trace_path,
        trace_append=trace_append,
        trace_run=f"live@{seed}",
    )
    workload, report = _serve(
        db, updates, fragments, clients, kill=True, deadline=90.0
    )
    proxies = db.network.proxies.values()
    return {
        "backend": "asyncio",
        "seed": seed,
        "drop": drop,
        "delay": delay,
        "audit_ok": report.ok,
        "audit_violations": report.violation_count,
        "respects_guarantees": (
            workload["committed"] == workload["submitted"] and report.ok
        ),
        "frames_dropped": sum(p.frames_dropped for p in proxies),
        "frames_blackholed": sum(p.frames_blackholed for p in proxies),
        "retransmits": db.metrics.value("retrans.resent"),
        "failovers": db.metrics.value("avail.failovers"),
        **workload,
    }


def gates(
    result: dict, committed: dict | None, tolerance: float | None = None
) -> list[str]:
    """Sanity-and-schema gate for a fresh E22 run.

    Real clocks mean absolute rates are machine-dependent, so the gate
    asserts only what must hold everywhere: the recorded schema is
    stable, every submitted update committed, throughput is positive,
    the latency distribution is ordered, and the audit is clean.  It
    takes no tolerance.
    """
    problems = []
    if result.get("committed") != result.get("submitted"):
        problems.append(
            f"only {result.get('committed')}/{result.get('submitted')} "
            "updates committed"
        )
    if result.get("failure_count"):
        problems.append(f"{result['failure_count']} non-200 responses")
    if not result.get("throughput_ups", 0) > 0:
        problems.append("throughput not positive")
    if result.get("p50_ms", 0) > result.get("p99_ms", 0):
        problems.append(
            f"p50 {result.get('p50_ms')}ms > p99 {result.get('p99_ms')}ms"
        )
    if not result.get("audit_ok"):
        problems.append(
            f"audit failed with {result.get('audit_violations')} violations"
        )
    if committed is not None:
        missing = set(committed) - set(result)
        extra = set(result) - set(committed)
        if missing or extra:
            problems.append(
                f"schema drift vs the committed record: "
                f"missing={sorted(missing)} extra={sorted(extra)} "
                "(regenerate with `python -m repro bench serve --json "
                "BENCH_serve.json`)"
            )
    return problems
