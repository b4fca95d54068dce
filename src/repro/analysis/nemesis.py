"""The chaos harness ("nemesis"): composed fault schedules from one seed.

Generalizes :mod:`repro.analysis.torture` — where the torture harness
scripts its own partitions inline, the nemesis draws a complete
:class:`~repro.net.faults.FaultPlan` (steady message loss, duplication,
latency jitter, loss bursts, link flaps, node crashes, partitions) and
a randomized workload (update traffic + agent moves) from a *single*
integer seed, runs them against any movement protocol and pipeline
configuration, then checks the Section 4.4 guarantee table after
quiescence.

Two deliberate stream splits make the harness useful as an experiment:

* the **workload** stream and the **fault-plan** stream are separate
  forks of the seed, so the same seed produces the *identical* workload
  under different fault configurations — which is what lets E16 compare
  a faulty run's final state hash against the fault-free run of the
  same seed (reliable protocols must converge to the same state);
* episode counts are configuration, not chance: a config with
  ``n_crashes=0`` draws nothing from the crash dimension, leaving the
  other dimensions' draws untouched.

Safety rails mirroring the paper's scope: crashes carry
``unless_agent_home`` (the movement protocols handle home failure via
explicit moves, not by executing on a dead node — E14 covers home-node
failover separately), and scheduled moves are skipped if the
destination is down when the move fires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.audit import audit_events
from repro.analysis.torture import (
    GUARANTEES,
    OBJECTS,
    PROTOCOLS,
    _try_move,
    schedule_updates,
    setup_fragment,
)
from repro.obs.availability import account_events
from repro.availability import AvailabilityConfig
from repro.core.system import FragmentedDatabase
from repro.core.transaction import RequestStatus, scripted_body
from repro.net.faults import CrashEpisode, FaultPlan, LinkFlap, LossBurst
from repro.net.partition import PartitionSpec
from repro.net.reliable import ReliableConfig
from repro.recovery import RecoveryConfig
from repro.replication import PipelineConfig
from repro.sim.rng import SeededRng


@dataclass
class NemesisConfig:
    """Shape of one chaos run: workload size plus fault intensities.

    ``loss_rate``/``dup_rate``/``jitter`` are the steady message
    faults; the ``n_*`` knobs say how many scheduled episodes of each
    kind the plan draws.  Set every fault knob to zero for a fault-free
    baseline run of the same workload.  ``reliable`` forwards to
    :class:`FragmentedDatabase` (``None`` = auto-on when message faults
    are armed).  ``checkpoint_every`` arms the recovery subsystem
    (checkpoint every K installs, log compaction, delta catch-up);
    ``recovery_grace`` sets how long an unreachable replica may hold
    the compaction watermark before being excluded from it.
    """

    n_nodes: int = 4
    n_updates: int = 15
    n_moves: int = 3
    horizon: float = 200.0
    loss_rate: float = 0.1
    dup_rate: float = 0.05
    jitter: float = 2.0
    n_bursts: int = 0
    n_flaps: int = 0
    n_crashes: int = 0
    n_partitions: int = 1
    pipeline: PipelineConfig | None = None
    reliable: ReliableConfig | bool | None = None
    checkpoint_every: int | None = None
    recovery_grace: float | None = 60.0
    #: ``replication_factor`` < n_nodes restricts every fragment to a
    #: rendezvous-placed replica set of that size; ``n_quorum_reads``
    #: schedules that many read-only transactions at nodes *outside*
    #: the fragment's replica set, exercising the version-vote fallback
    #: under whatever faults the plan draws.  Both default off, leaving
    #: existing seeds' schedules untouched.
    replication_factor: int | None = None
    n_quorum_reads: int = 0
    #: ``n_agent_kills`` crash-stops the agent's *current home* (no
    #: ``unless_agent_home`` rail — this knob exists to kill the home)
    #: at drawn times; ``failover`` arms the availability supervisor so
    #: a killed home is detected and the agent fails over to a live
    #: replica.  Kill draws come after every other dimension's, guarded
    #: by the count, so zeroed knobs leave existing seeds' schedules
    #: bit-identical.
    n_agent_kills: int = 0
    failover: bool = False


@dataclass
class NemesisResult:
    """Outcome of one chaos run, guarantee flags plus fault/overhead data."""

    seed: int
    protocol: str
    submitted: int
    committed: int
    moves_requested: int
    mutually_consistent: bool
    fragmentwise: bool
    drops: int
    dups: int
    retransmits: int
    dups_dropped: int
    exhausted: int
    messages_sent: int
    converge_time: float
    state_hash: str
    audit_ok: bool = True
    audit_violations: int = 0
    audit_first: str = ""
    checkpoints: int = 0
    archive_pruned: int = 0
    snapshots_shipped: int = 0
    delta_qts_shipped: int = 0
    quorum_reads: int = 0
    quorum_served: int = 0
    quorum_timeouts: int = 0
    quorum_retries: int = 0
    suspicions: int = 0
    failovers: int = 0
    epoch_cuts: int = 0
    demotions: int = 0
    updates_blocked: int = 0
    #: Accountant-attributed write availability: mean per-fragment
    #: fraction of the run each fragment accepted updates, and the
    #: longest single unavailability window (0.0 when none opened).
    write_availability: float = 1.0
    worst_window: float = 0.0
    unavailability_causes: dict[str, float] | None = None

    def respects_guarantees(self) -> bool:
        """True iff the run satisfied its protocol's promised matrix.

        Includes the offline lineage audit: a run whose final state
        hashes match can still have installed a transaction twice or
        out of stream order along the way, and only the trace knows.
        """
        required = GUARANTEES[self.protocol]
        if required["mc"] and not self.mutually_consistent:
            return False
        if required["fw"] and not self.fragmentwise:
            return False
        return self.audit_ok


def build_fault_plan(
    rng: SeededRng, nodes: list[str], config: NemesisConfig
) -> FaultPlan:
    """Draw one complete fault schedule from the plan stream.

    Dimension order (bursts, flaps, crashes, partitions) is fixed and
    each dimension draws only if its count is non-zero, so zeroing one
    knob leaves the other dimensions' schedules identical.
    """
    horizon = config.horizon
    bursts = []
    for _ in range(config.n_bursts):
        start = rng.uniform(0.0, horizon * 0.6)
        bursts.append(
            LossBurst(start, start + rng.uniform(5.0, 20.0),
                      rng.uniform(0.2, 0.5))
        )
    flaps = []
    for _ in range(config.n_flaps):
        a, b = rng.sample(nodes, 2)
        flaps.append(
            LinkFlap(rng.uniform(0.0, horizon * 0.7), a, b,
                     rng.uniform(2.0, 15.0))
        )
    crashes = []
    for _ in range(config.n_crashes):
        node = rng.choice(nodes)
        at = rng.uniform(0.0, horizon * 0.5)
        crashes.append(
            CrashEpisode(node, at, at + rng.uniform(10.0, 40.0),
                         unless_agent_home=True)
        )
    partitions = []
    for index in range(config.n_partitions):
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        cut_at = rng.randint(1, len(nodes) - 1)
        start = rng.uniform(0.0, horizon * 0.5)
        partitions.append(
            PartitionSpec(
                start,
                rng.uniform(start + 5.0, horizon * 0.9),
                [shuffled[:cut_at], shuffled[cut_at:]],
                label=f"nemesis-{index}",
            )
        )
    return FaultPlan(
        loss_rate=config.loss_rate,
        dup_rate=config.dup_rate,
        jitter=config.jitter,
        bursts=tuple(bursts),
        flaps=tuple(flaps),
        crashes=tuple(crashes),
        partitions=tuple(partitions),
    )


def run_nemesis(
    seed: int,
    protocol_name: str,
    config: NemesisConfig | None = None,
    trace_path: str | None = None,
) -> NemesisResult:
    """One seeded chaos run against one movement protocol.

    ``trace_path`` appends the run's structured trace events (fault
    drops, retransmissions, partitions, …) to that JSONL file with a
    ``run`` context of ``{protocol}@{seed}`` — the chaos CLI and the CI
    smoke job upload this file when a run breaks its guarantees.

    Tracing is always enabled (ring buffer at minimum): after
    quiescence the run's events are replayed through the offline
    lineage auditor (:mod:`repro.analysis.audit`), and the verdict
    lands in ``NemesisResult.audit_ok`` / ``respects_guarantees``.
    """
    config = config or NemesisConfig()
    root = SeededRng(seed)
    workload_rng = root.fork("workload")
    plan_rng = root.fork("plan")
    nodes = [f"N{i}" for i in range(config.n_nodes)]
    plan = build_fault_plan(plan_rng, nodes, config)
    # Agent-kill draws come from the same plan stream, strictly after
    # the FaultPlan's own dimensions and only when the knob is armed, so
    # a config with n_agent_kills=0 replays existing seeds unchanged.
    agent_kills: list[tuple[float, float]] = []
    if config.n_agent_kills:
        for _ in range(config.n_agent_kills):
            at = plan_rng.uniform(
                config.horizon * 0.15, config.horizon * 0.55
            )
            agent_kills.append((at, plan_rng.uniform(25.0, 45.0)))
    empty = not (
        plan.message_faults or plan.flaps or plan.crashes or plan.partitions
    )
    recovery = None
    if config.checkpoint_every is not None:
        recovery = RecoveryConfig(
            checkpoint_every=config.checkpoint_every,
            grace=config.recovery_grace,
        )
    db = FragmentedDatabase(
        nodes,
        movement=PROTOCOLS[protocol_name](),
        seed=seed,
        pipeline=config.pipeline,
        faults=None if empty else plan,
        reliable=config.reliable,
        recovery=recovery,
        replication_factor=config.replication_factor,
        availability=AvailabilityConfig() if config.failover else None,
    )
    db.enable_tracing(
        trace_path,
        append=True,
        context={"run": f"{protocol_name}@{seed}"},
    )
    setup_fragment(db, nodes[0])
    if config.failover:
        db.availability.start(until=config.horizon)

    def kill_home(down_for: float) -> None:
        # Kill whichever node is the agent's home *when the kill fires*
        # (a scheduled move may have relocated it since the draw).
        home = db.agents["ag"].home_node
        if db.nodes[home].down:
            return
        db.fail_node(home)
        db.sim.schedule(
            down_for,
            lambda name=home: (
                db.recover_node(name) if db.nodes[name].down else None
            ),
            label=f"nemesis agent-kill recovery {home}",
        )

    for at, down_for in agent_kills:
        db.sim.schedule_at(
            at, lambda d=down_for: kill_home(d), label="nemesis agent-kill"
        )

    trackers = schedule_updates(
        db, workload_rng, config.n_updates, config.horizon
    )
    for _ in range(config.n_moves):
        destination = workload_rng.choice(nodes)
        db.sim.schedule_at(
            workload_rng.uniform(0.0, config.horizon * 0.7),
            lambda d=destination: _try_move(db, d),
        )

    read_trackers = []

    def submit_read(index: int) -> None:
        # Prefer a reader outside the replica set (the quorum-read
        # path); when the fragment is fully replicated every node is a
        # replica and the read stays local — still a valid probe.
        replicas = set(db.replica_set("F"))
        outside = [name for name in nodes if name not in replicas]
        pool = outside or nodes
        reader = pool[index % len(pool)]
        if db.nodes[reader].down:
            return  # a crashed reader cannot submit (rail, not a draw)
        obj = workload_rng.choice(OBJECTS)
        read_trackers.append(
            db.submit_readonly(
                "ag",
                scripted_body([("r", obj)]),
                at=reader,
                reads=[obj],
                txn_id=f"Q{index}",
            )
        )

    if config.n_quorum_reads:
        for index in range(config.n_quorum_reads):
            db.sim.schedule_at(
                workload_rng.uniform(
                    config.horizon * 0.1, config.horizon * 0.9
                ),
                lambda i=index: submit_read(i),
            )
    db.quiesce()
    events = [event.as_dict() for event in db.tracer]
    audit = audit_events(
        events, protocol=protocol_name, run=f"{protocol_name}@{seed}"
    )
    first = audit.first_violation()
    accountant = account_events(events, end_time=db.sim.now)
    causes: dict[str, float] = {}
    for fragment in accountant.fragment_agent:
        for cause, held in accountant.fragment_summary(fragment, "write")[
            "by_cause"
        ].items():
            causes[cause] = round(causes.get(cause, 0.0) + held, 6)
    if trace_path is not None:
        db.tracer.close()

    injector = db.injector
    transport = db.transport
    return NemesisResult(
        seed=seed,
        protocol=protocol_name,
        submitted=len(trackers),
        committed=sum(1 for t in trackers if t.succeeded),
        moves_requested=config.n_moves,
        mutually_consistent=db.mutual_consistency().consistent,
        fragmentwise=db.fragmentwise_serializability().ok,
        drops=injector.dropped if injector is not None else 0,
        dups=injector.duplicated if injector is not None else 0,
        retransmits=transport.retransmits if transport is not None else 0,
        dups_dropped=(
            transport.duplicates_dropped if transport is not None else 0
        ),
        exhausted=transport.exhausted if transport is not None else 0,
        messages_sent=db.network.messages_sent,
        converge_time=db.sim.now,
        state_hash=db.state_hash(),
        audit_ok=audit.ok,
        audit_violations=audit.violation_count,
        audit_first="" if first is None else first.message,
        checkpoints=int(db.metrics.value("recovery.checkpoints") or 0),
        archive_pruned=int(db.metrics.value("recovery.archive_pruned") or 0),
        snapshots_shipped=int(
            db.metrics.value("recovery.checkpoints_shipped") or 0
        ),
        delta_qts_shipped=int(
            db.metrics.value("recovery.delta_qts_shipped") or 0
        ),
        quorum_reads=len(read_trackers),
        quorum_served=sum(1 for t in read_trackers if t.succeeded),
        quorum_timeouts=sum(
            1 for t in read_trackers if t.status is RequestStatus.TIMED_OUT
        ),
        quorum_retries=int(db.metrics.value("quorum.retries") or 0),
        suspicions=int(db.metrics.value("avail.suspicions") or 0),
        failovers=int(db.metrics.value("avail.failovers") or 0),
        epoch_cuts=int(db.metrics.value("avail.epoch_cuts") or 0),
        demotions=int(db.metrics.value("avail.demotions") or 0),
        updates_blocked=int(db.metrics.value("avail.updates_blocked") or 0),
        write_availability=round(accountant.availability("write"), 6),
        worst_window=round(accountant.worst_window("write"), 6),
        unavailability_causes=causes,
    )
