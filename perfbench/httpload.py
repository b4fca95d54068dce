"""The ``http-closed`` workload: a closed loop over persistent HTTP/1.1.

The served system runs in a child process (``httpserve.py``) so its
memory and set-up are its own and the client's threads do not share
its interpreter lock.  Each run is split into rounds; each round
starts a fresh child, warms two keep-alive connections, measures a
closed loop over them, checks that no acknowledged write was lost by
reading every object at every replica, and stops the child.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from common import (
    HERE,
    ROOT,
    Checks,
    declared_metrics,
    median,
    metric_block,
    percentile,
    report,
)

perf_counter = time.perf_counter

#: Seconds to wait for the child to come up, and to report at the end.
READY_TIMEOUT = 60.0
RESULT_TIMEOUT = 90.0
#: How long replicas get to converge on the acknowledged sums.
CONVERGE_TIMEOUT = 15.0


@dataclass
class Sample:
    kind: str  # "w" or "r"
    ms: float
    status: int
    txn: str | None
    attempts: int


@dataclass
class Round:
    """One server process: its set-up, its load window, its report."""

    setup_s: float  # build to ready inside the server, imports excluded
    spawn_s: float  # process spawn to ready, measured by the client
    loop: "LoopResult"
    child: dict
    checks: Checks


class _Child:
    """The served system's process, with line-oriented JSON control."""

    def __init__(self, shape: dict, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "httpserve.py"),
             "--shape", json.dumps(shape), "--trace", "1" if trace else "0"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def next_record(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"child sent nothing for {timeout:.0f} s") from None
            if line is None:
                raise RuntimeError(
                    f"child exited ({self.proc.wait()}) before reporting"
                )
            line = line.strip()
            if line.startswith("{"):
                return json.loads(line)

    def send(self, record: dict) -> None:
        self.proc.stdin.write(json.dumps(record) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Reap the child; kill it if it does not exit on its own.

        Closing its stdin first lets a child still waiting for ``stop``
        (the parent failed mid-round) drain and exit.
        """
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


def _post(conn: http.client.HTTPConnection, path: str, payload: dict
          ) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(payload),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


@dataclass
class LoopResult:
    """One closed-loop window; counts include the warm-up requests."""

    samples: list[Sample]  # measured requests only
    measured_s: float
    acked: dict[str, int]  # object -> sum of acknowledged deltas
    unacked: dict[str, int]  # object -> sum of failed writes' deltas
    made: int
    failed: int
    acked_writes: int


def _closed_loop(host: str, port: int, shape: dict, seed: int, round_no: int,
                 seconds: float) -> LoopResult:
    """Two keep-alive connections, each sending when its last reply lands."""
    connections = shape["connections"]
    warmup = shape["warmup_requests"]
    fragments = shape["fragments"]
    lock = threading.Lock()
    acked: dict[str, int] = {}
    unacked: dict[str, int] = {}
    samples: list[Sample] = []
    made = [0]
    failed = [0]
    acked_writes = [0]
    ready = threading.Barrier(connections + 1)
    window = {"end": float("inf")}  # set once the warm-up barrier opens
    errors: list[BaseException] = []

    def client(conn_no: int) -> None:
        rng = random.Random(f"http-closed/{seed}/{round_no}/{conn_no}")
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            sent = 0
            while True:
                if sent == warmup:
                    ready.wait()
                elif sent > warmup and perf_counter() >= window["end"]:
                    break
                obj = f"x{rng.randrange(fragments)}"
                if rng.random() < shape["write_share"]:
                    kind, path = "w", "/updates"
                    delta = rng.randint(1, shape["max_delta"])
                    payload = {"object": obj, "delta": delta}
                else:
                    kind, path, delta = "r", "/reads", 0
                    payload = {"object": obj}
                start = perf_counter()
                try:
                    status, body = _post(conn, path, payload)
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60.0)
                    status, body = 0, {}
                elapsed = perf_counter() - start
                with lock:
                    made[0] += 1
                    failed[0] += status != 200
                    if kind == "w":
                        sums = acked if status == 200 else unacked
                        sums[obj] = sums.get(obj, 0) + delta
                        acked_writes[0] += status == 200
                    if sent >= warmup:
                        samples.append(Sample(kind, elapsed * 1000.0, status,
                                              body.get("txn"),
                                              int(body.get("attempts", 1))))
                sent += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
            ready.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(n,), name=f"client-{n}")
               for n in range(connections)]
    for thread in threads:
        thread.start()
    try:
        ready.wait(timeout=READY_TIMEOUT)
    except threading.BrokenBarrierError:
        pass
    begin = perf_counter()
    window["end"] = begin + seconds
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    finished = perf_counter()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client connection did not finish")
    return LoopResult(samples, finished - begin, acked, unacked, made[0],
                      failed[0], acked_writes[0])


def _check_replicas(host: str, port: int, acked: dict, unacked: dict,
                    checks: Checks) -> int:
    """Every replica of every object holds the acknowledged sum.

    A write that failed may still have committed, so a replica may be
    ahead by at most the failed writes' deltas; it may never be behind
    the acknowledged sum (that would be a lost acknowledged write).
    Returns the number of reads it sent.
    """
    reads = 0
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", "/fragments")
        catalog = json.loads(conn.getresponse().read())
        deadline = time.monotonic() + CONVERGE_TIMEOUT
        for info in catalog["fragments"].values():
            for obj in info["objects"]:
                low = acked.get(obj, 0)
                high = low + unacked.get(obj, 0)
                for node in info["replicas"]:
                    while True:
                        status, body = _post(conn, "/reads",
                                             {"object": obj, "at": node})
                        reads += 1
                        value = body.get("value")
                        if status == 200 and low <= value <= high:
                            break
                        if time.monotonic() >= deadline:
                            break
                        time.sleep(0.05)
                    checks.expect(
                        status == 200 and low <= value <= high,
                        f"http-closed: {obj} at replica {node} reads {value}, "
                        f"acknowledged sum {low} (+{high - low} unacknowledged)",
                    )
    finally:
        conn.close()
    return reads


def run_round(shape: dict, seed: int, round_no: int, seconds: float,
              trace: bool) -> Round:
    checks = Checks()
    spawned = perf_counter()
    child = _Child(shape, trace)
    try:
        ready = child.next_record(READY_TIMEOUT)
        spawn = perf_counter() - spawned
        url = urlsplit(ready["url"])
        loop = _closed_loop(url.hostname, url.port, shape, seed, round_no,
                            seconds)
        check_reads = _check_replicas(url.hostname, url.port, loop.acked,
                                      loop.unacked, checks)
        # Per-layer denominators count every request the server saw,
        # warm-up and check reads included.
        child.send({"cmd": "stop", "ops": loop.made + check_reads,
                    "writes": loop.acked_writes})
        result = child.next_record(RESULT_TIMEOUT)
    finally:
        child.close()
    checks.expect(child.proc.returncode == 0,
                  f"http-closed: server process exited {child.proc.returncode}")
    for failure in result["failures"]:
        checks.expect(False, failure)
    checks.passed += result["checks_passed"]
    return Round(setup_s=ready["build_s"], spawn_s=spawn, loop=loop,
                 child=result, checks=checks)


def _merge_checks(rounds: list[Round]) -> Checks:
    checks = Checks()
    for rnd in rounds:
        checks.passed += rnd.checks.passed
        checks.failures.extend(rnd.checks.failures)
    return checks


def http_end_to_end(shape: dict, seed: int, seconds: float) -> dict:
    rounds = [
        run_round(shape, seed, n, seconds / shape["rounds"], trace=False)
        for n in range(shape["rounds"])
    ]
    checks = _merge_checks(rounds)
    samples = [s for rnd in rounds for s in rnd.loop.samples]
    ok_ms = [s.ms for s in samples if s.status == 200]
    measured = sum(rnd.loop.measured_s for rnd in rounds)
    completed = sum(1 for s in samples if s.status == 200)
    write_ticks = [t for rnd in rounds for t in rnd.child["write_ticks"]]
    read_ticks = [t for rnd in rounds for t in rnd.child["read_ticks"]]
    stale = [t for rnd in rounds for t in rnd.child["stale_ticks"]]
    failovers = sum(rnd.child["counts"]["failovers"] for rnd in rounds)
    checks.expect(failovers == 0,
                  f"http-closed: no failovers without faults ({failovers})")
    metrics = {
        "setup_s": median([rnd.setup_s for rnd in rounds]),
        "throughput_ops": completed / measured,
        "latency_p50_ms": percentile(ok_ms, 50),
        "peak_rss_mb": median([rnd.child["peak_rss_mb"] for rnd in rounds]),
    }
    attempted = sum(rnd.loop.made for rnd in rounds)
    failed = sum(rnd.loop.failed for rnd in rounds)
    report(f"http-closed seed={seed}: {len(rounds)} rounds, "
            f"{shape['connections']} keep-alive connections, tracing off", [
        ("setup_s", metrics["setup_s"], "s", len(rounds)),
        ("spawn_s (process start to ready, imports included)",
         median([rnd.spawn_s for rnd in rounds]), "s", len(rounds)),
        ("throughput_ops", metrics["throughput_ops"], "ops/s", completed),
        ("latency_p50_ms", metrics["latency_p50_ms"], "ms", len(ok_ms)),
        ("latency_p90_ms", percentile(ok_ms, 90), "ms", len(ok_ms)),
        ("latency_p99_ms", percentile(ok_ms, 99), "ms", len(ok_ms)),
        ("write_p50_ticks", percentile(write_ticks, 50), "ticks", len(write_ticks)),
        ("write_p99_ticks", percentile(write_ticks, 99), "ticks", len(write_ticks)),
        ("read_p99_ticks", percentile(read_ticks, 99), "ticks", len(read_ticks)),
        ("stale_p99_ticks", percentile(stale, 99), "ticks", len(stale)),
        ("outage_ticks", 0.0, "ticks", None),
        ("error_rate", failed / attempted if attempted else 0.0, "share", attempted),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", len(rounds)),
        ("failovers", failovers, "count", None),
        ("teardown callback errors (known defect teardown-race)",
         sum(rnd.child["teardown_errors"] for rnd in rounds), "count", None),
        ("measured_s", measured, "s", None),
    ])
    return {"checks": checks, "attempted": attempted, "failed": failed,
            "metrics": metric_block(metrics, "end_to_end")}


def http_traced(shape: dict, seed: int, seconds: float, calib_ms: float) -> dict:
    """One untraced round, then one traced round with the same inputs."""
    plain = run_round(shape, seed, 0, seconds / 2.0, trace=False)
    traced = run_round(shape, seed, 0, seconds / 2.0, trace=True)
    checks = _merge_checks([plain, traced])
    layer = dict(traced.child["layer"])
    handler = traced.child["handler_ms"]
    wire = [s.ms - handler[s.txn] for s in traced.loop.samples
            if s.status == 200 and s.txn in handler]
    writes = [s for s in traced.loop.samples if s.kind == "w" and s.status == 200]
    checks.expect(
        len(wire) == sum(1 for s in traced.loop.samples if s.status == 200),
        "http-closed: every answered request pairs with its handler span",
    )

    def mean_ms(rnd: Round) -> float:
        ok = [s.ms for s in rnd.loop.samples if s.status == 200]
        return sum(ok) / len(ok) if ok else 0.0

    layer.update({
        "serve.wire_ms_p50": percentile(wire, 50),
        "serve.attempts_per_write": (
            sum(s.attempts for s in writes) / len(writes) if writes else 0.0
        ),
        "host.calib_ms": calib_ms,
        "bench.trace_overhead_ratio": (
            mean_ms(traced) / mean_ms(plain) if mean_ms(plain) else 0.0
        ),
    })
    rows = [(name, float(layer[name]), unit, None)
            for name, unit in declared_metrics("per_layer")]
    rows.append(("spans recorded", traced.child["spans"],
                 f"-> {traced.child['spans_index']}", None))
    rows.append(("loop-lag probe samples", layer["probe_samples"], "", None))
    report(f"http-closed seed={seed}: per-layer (untraced round "
            f"{len(plain.loop.samples)} requests, traced round "
            f"{len(traced.loop.samples)} requests)", rows)
    return {"checks": checks,
            "attempted": plain.loop.made + traced.loop.made,
            "failed": plain.loop.failed + traced.loop.failed,
            "metrics": metric_block(layer, "per_layer")}
