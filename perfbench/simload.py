"""The simulator workloads: ``fanout-32`` and ``partial-lossy``.

Each builds one :class:`FragmentedDatabase`, drives it through public
calls only (``submit_update``/``submit_readonly``/``fail_node``/
``recover_node``/``on_install`` plus the partition manager), runs it
to quiescence and measures one *instance*.  Inputs come from the seed
alone and are generated before the set-up clock starts; the program
only ever sees the generated ops.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any

from common import Checks, percentile
from repro.availability import AvailabilityConfig
from repro.cc.ops import Read, Write
from repro.core.system import FragmentedDatabase
from repro.net.faults import FaultPlan

perf_counter = time.perf_counter

#: Client policy: a rejected or timed-out op is resubmitted this many
#: ticks later, up to the attempt budget; then it counts as failed.
RESUBMIT_AFTER = 5.0
MAX_ATTEMPTS = 40


@dataclass
class LogicalOp:
    """One client operation, across all of its (re)submissions."""

    kind: str  # "w" (read-modify-write) or "r" (read)
    agent: str
    obj: str
    delta: int
    first_tick: float = 0.0
    first_wall: float = 0.0
    done_tick: float | None = None
    done_wall: float | None = None
    attempts: int = 0
    failed: bool = False


@dataclass
class Instance:
    """What one run of a workload instance measured."""

    setup_s: float
    wall_s: float
    ops: list[LogicalOp]
    stale_ticks: list[float]
    outage_ticks: float | None
    state_hash: str
    counts: dict[str, int]
    checks: Checks
    snapshot: dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failed)

    @property
    def committed(self) -> int:
        return sum(1 for op in self.ops if op.done_tick is not None)

    def wall_latencies_ms(self) -> list[float]:
        return [
            (op.done_wall - op.first_wall) * 1000.0
            for op in self.ops
            if op.done_wall is not None
        ]

    def tick_latencies(self, kind: str) -> list[float]:
        return [
            op.done_tick - op.first_tick
            for op in self.ops
            if op.kind == kind and op.done_tick is not None
        ]


def _rmw(obj: str, delta: int):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + delta)

    return body


def _read(obj: str):
    def body(_ctx):
        yield Read(obj)

    return body


def _poisson_times(rng: random.Random, n: int, horizon: float) -> list[float]:
    """``n`` arrival times of a Poisson process scaled onto [0, horizon)."""
    gaps = [rng.expovariate(1.0) for _ in range(n + 1)]
    scale = horizon / sum(gaps)
    times, now = [], 0.0
    for gap in gaps[:-1]:
        now += gap * scale
        times.append(now)
    return times


class SimClient:
    """The open-loop client: submits, resubmits, and times every op.

    Methods are plain so a traced run can wrap them as ``bench.*``
    spans, keeping the client's own time out of the program's layers.
    """

    def __init__(self, db, read_rng: random.Random | None = None) -> None:
        self.db = db
        self.read_rng = read_rng
        self.acked: dict[str, int] = {}
        #: source txn -> (origin node, commit tick).
        self.origins: dict[str, tuple[str, float]] = {}
        #: source txn -> [(node, tick)] of installs at other replicas.
        self.installs: dict[str, list[tuple[str, float]]] = {}
        #: node -> [(down_tick, up_tick)] for the injected crash.
        self.down: dict[str, list[list[float]]] = {}

    def start(self, op: LogicalOp) -> None:
        op.first_tick = self.db.sim.now
        op.first_wall = perf_counter()
        self.attempt(op)

    def attempt(self, op: LogicalOp) -> None:
        op.attempts += 1
        db = self.db
        if op.kind == "w":
            db.submit_update(
                op.agent, _rmw(op.obj, op.delta), writes=[op.obj],
                on_done=lambda tracker: self.finished(op, tracker),
            )
            return
        live = [name for name, node in db.nodes.items() if not node.down]
        db.submit_readonly(
            op.agent, _read(op.obj), at=self.read_rng.choice(live),
            reads=[op.obj],
            on_done=lambda tracker: self.finished(op, tracker),
        )

    def finished(self, op: LogicalOp, tracker) -> None:
        if tracker.succeeded:
            op.done_tick = self.db.sim.now
            op.done_wall = perf_counter()
            if op.kind == "w":
                self.acked[op.obj] = self.acked.get(op.obj, 0) + op.delta
        elif op.attempts < MAX_ATTEMPTS:
            self.db.sim.schedule(RESUBMIT_AFTER, lambda: self.attempt(op))
        else:
            op.failed = True

    def installed(self, node, quasi) -> None:
        if node.name == quasi.origin_node:
            self.origins.setdefault(quasi.source_txn, (node.name, self.db.sim.now))
            return
        self.installs.setdefault(quasi.source_txn, []).append(
            (node.name, self.db.sim.now)
        )

    def crash(self, name: str) -> None:
        self.db.fail_node(name)
        self.down.setdefault(name, []).append([self.db.sim.now, float("inf")])

    def recover(self, name: str) -> None:
        self.db.recover_node(name)
        self.down[name][-1][1] = self.db.sim.now


def stale_ticks(client: SimClient) -> list[float]:
    """Commit-to-last-live-replica install time, one sample per write.

    A replica counts while it stays up from the commit to its install;
    a write installed nowhere but at its origin gives no sample.
    """
    samples = []
    for txn, (origin, committed) in client.origins.items():
        worst = None
        seen: set[str] = set()
        for node, tick in client.installs.get(txn, ()):
            if node == origin or node in seen:
                continue
            seen.add(node)
            if any(down < tick and up > committed
                   for down, up in client.down.get(node, ())):
                continue
            lag = tick - committed
            worst = lag if worst is None or lag > worst else worst
        if worst is not None:
            samples.append(worst)
    return samples


# -- workload definitions ---------------------------------------------------


def _fanout_inputs(shape: dict, seed: int) -> dict:
    rng = random.Random(f"fanout-32/{seed}")
    n = shape["nodes"]
    names = [f"N{i}" for i in range(n)]
    writes = shape["writes"]
    return {
        "names": names,
        "times": _poisson_times(rng, writes, shape["arrival_horizon"]),
        "deltas": [rng.randint(1, shape["max_delta"]) for _ in range(writes)],
        "cut": sorted(rng.sample(names, n // 2)),
    }


def _build_fanout(shape: dict, inputs: dict, trace_path, seed: int):
    names = inputs["names"]
    db = FragmentedDatabase(names, seed=seed)
    if trace_path is not None:
        db.enable_tracing(trace_path)
    db.add_agent("ag", home_node="N0")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    client = SimClient(db)
    db.on_install("F", client.installed)
    ops = [LogicalOp("w", "ag", "x", delta) for delta in inputs["deltas"]]
    for at, op in zip(inputs["times"], ops):
        db.sim.schedule_at(at, lambda op=op: client.start(op))
    cut = inputs["cut"]
    rest = [name for name in names if name not in cut]
    db.sim.schedule_at(
        shape["partition_at"], lambda: db.partitions.partition_now([cut, rest])
    )
    db.sim.schedule_at(shape["heal_at"], db.partitions.heal_now)
    return db, client, ops, None


def _partial_inputs(shape: dict, seed: int) -> dict:
    rng = random.Random(f"partial-lossy/{seed}")
    n = shape["nodes"]
    count = shape["ops"]
    ops = []
    for at in _poisson_times(rng, count, shape["horizon"]):
        agent = rng.randrange(n)
        obj = f"{'xy'[rng.randrange(2)]}{agent}"
        kind = "w" if rng.random() < shape["write_share"] else "r"
        ops.append((at, kind, agent, obj, rng.randint(1, shape["max_delta"])))
    return {
        "names": [f"N{i}" for i in range(n)],
        "ops": ops,
        "victim": rng.randrange(n),
        "read_seed": rng.getrandbits(64),
    }


def _build_partial(shape: dict, inputs: dict, trace_path, seed: int):
    names = inputs["names"]
    db = FragmentedDatabase(
        names,
        seed=seed,
        replication_factor=shape["replication_factor"],
        faults=FaultPlan(loss_rate=shape["loss_rate"]),
        availability=AvailabilityConfig(),
    )
    if trace_path is not None:
        db.enable_tracing(trace_path)
    for i, home in enumerate(names):
        db.add_agent(f"a{i}", home_node=home)
        db.add_fragment(f"F{i}", agent=f"a{i}", objects=[f"x{i}", f"y{i}"])
    db.load({f"{p}{i}": 0 for i in range(len(names)) for p in "xy"})
    db.finalize()
    horizon = shape["horizon"]
    db.availability.start(until=horizon + shape["supervisor_grace"])
    client = SimClient(db, random.Random(inputs["read_seed"]))
    for i in range(len(names)):
        db.on_install(f"F{i}", client.installed)
    ops = []
    for at, kind, agent, obj, delta in inputs["ops"]:
        op = LogicalOp(kind, f"a{agent}", obj, delta)
        ops.append(op)
        db.sim.schedule_at(at, lambda op=op: client.start(op))
    victim_agent = f"a{inputs['victim']}"
    kill_at, recover_at = horizon / 3.0, 2.0 * horizon / 3.0
    victim: dict[str, str] = {}

    def kill() -> None:
        victim["node"] = db.agents[victim_agent].home_node
        client.crash(victim["node"])

    db.sim.schedule_at(kill_at, kill)
    db.sim.schedule_at(recover_at, lambda: client.recover(victim["node"]))
    return db, client, ops, (victim_agent, kill_at)


WORKLOADS = {
    "fanout-32": (_fanout_inputs, _build_fanout),
    "partial-lossy": (_partial_inputs, _build_partial),
}


def run_instance(name: str, shape: dict, seed: int,
                 trace_path: str | None = None) -> tuple[Instance, Any]:
    """Build, run to quiescence, measure and check one instance.

    With ``trace_path`` the program's own tracer streams to that file.
    Returns the instance and the database (for per-layer analysis).
    """
    make_inputs, build = WORKLOADS[name]
    inputs = make_inputs(shape, seed)
    start = perf_counter()
    db, client, ops, outage_probe = build(shape, inputs, trace_path, seed)
    setup = perf_counter() - start
    start = perf_counter()
    db.quiesce()
    wall = perf_counter() - start

    checks = Checks()
    checks.expect(
        all(op.done_tick is not None or op.failed for op in ops),
        f"{name}: every logical op commits or is counted as failed",
    )
    checks.expect(
        db.mutual_consistency().consistent,
        f"{name}: replicas mutually consistent after quiescence",
    )
    if name == "fanout-32":
        expected = client.acked.get("x", 0)
        checks.expect(
            sum(op.delta for op in ops) == expected
            and all(node.store.read("x") == expected
                    for node in db.nodes.values()),
            "fanout-32: every replica holds the sum of all acknowledged deltas",
        )
    outage = None
    if outage_probe is not None:
        agent, kill_at = outage_probe
        after = [op.done_tick for op in ops
                 if op.kind == "w" and op.agent == agent
                 and op.done_tick is not None and op.done_tick >= kill_at]
        outage = (min(after) - kill_at) if after else None
    snapshot = db.snapshot()
    counters = snapshot["counters"]
    counts = {
        "events": db.sim.events_fired,
        "messages": db.network.messages_sent,
        "installs": counters.get("qt.installed", 0),
        "quorum_reads": counters.get("quorum.reads", 0),
        "failovers": counters.get("avail.failovers", 0),
        "committed": sum(1 for op in ops if op.done_tick is not None),
    }
    instance = Instance(
        setup_s=setup,
        wall_s=wall,
        ops=ops,
        stale_ticks=stale_ticks(client),
        outage_ticks=outage,
        state_hash=db.state_hash(),
        counts=counts,
        checks=checks,
        snapshot=snapshot,
    )
    if trace_path is not None:
        db.tracer.close()
    return instance, db


def audit_program_trace(path: str) -> tuple[bool, int, dict[str, Any]]:
    """Audit a JSONL program trace; tally what the layer metrics need.

    Returns (clean, violation count, tallies) and deletes the file: a
    traced E18-sized run writes tens of MB that nothing reads later.
    """
    from repro.analysis.audit import audit_events
    from repro.obs.summary import read_trace

    tallies: dict[str, Any] = {"types": {}, "recover_at": [], "catchup_done_at": []}
    types = tallies["types"]

    def events():
        for record in read_trace(path):
            kind = record.get("type")
            types[kind] = types.get(kind, 0) + 1
            if kind == "node.recover":
                tallies["recover_at"].append(record["t"])
            elif kind == "recovery.catchup.done":
                tallies["catchup_done_at"].append(record["t"])
            yield record

    report = audit_events(events())
    os.remove(path)
    return report.ok, report.violation_count, tallies


def summarize_ticks(instance: Instance) -> dict[str, float]:
    """Every deterministic ``*_ticks`` figure of one instance."""
    writes = instance.tick_latencies("w")
    reads = instance.tick_latencies("r")
    return {
        "write_p50_ticks": percentile(writes, 50),
        "write_p99_ticks": percentile(writes, 99),
        "read_p99_ticks": percentile(reads, 99),
        "stale_p99_ticks": percentile(instance.stale_ticks, 99),
        "outage_ticks": instance.outage_ticks if instance.outage_ticks is not None else 0.0,
    }

