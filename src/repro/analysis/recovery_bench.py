"""E17: checkpoint-recovery benchmark (full replay vs delta vs snapshot).

One scenario, three recovery configurations: a replica crashes a
quarter of the way through a seeded update workload and rejoins after
the traffic ends.  What differs is how the cluster prepared for the
rejoin:

* ``full`` — recovery subsystem disarmed: no checkpoints, nothing
  pruned.  The rejoiner replays its *entire* WAL and the donor ships
  the whole missed range from an archive that also never shrinks.
* ``checkpoint`` — periodic checkpoints with ``grace=None``: the downed
  replica keeps pinning the compaction watermark, so the donor retains
  exactly the tail the rejoiner is missing and ships only that delta;
  the rejoiner restores checkpoint + WAL suffix locally.
* ``snapshot`` — periodic checkpoints with a finite grace: the downed
  replica stops pinning the watermark, the cluster compacts past its
  cursor, and rejoin needs a shipped checkpoint plus retained tail —
  the §4.4 long-partition case.

:func:`run_recovery_bench` sweeps the three modes over several seeds
into the ``BENCH_recovery.json`` record; run it with ``python -m repro
bench recovery``.

The point of the numbers: bytes shipped and WAL replayed must scale
with the *gap* (or the fragment size, for snapshots), not with run
history — that is the bounded-logs claim the subsystem makes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.audit import audit_events
from repro.analysis.torture import schedule_updates, setup_fragment
from repro.core.system import FragmentedDatabase
from repro.obs import taxonomy
from repro.recovery import RecoveryConfig
from repro.sim.rng import SeededRng

#: Recognized benchmark modes, in report order.
MODES = ("full", "checkpoint", "snapshot")

#: Default sweep: seeds, updates per run, checkpoint interval, grace.
DEFAULT_SEEDS = (3, 7, 19)
DEFAULT_UPDATES = 60
DEFAULT_EVERY = 8
DEFAULT_GRACE = 60.0

# Shipped-size estimate weights — kept identical to the recovery
# manager's retained-bytes gauge weights so "bytes shipped" and "bytes
# retained" are comparable quantities.
_QT_BYTES = 48
_WRITE_BYTES = 32
_CKPT_OBJECT_BYTES = 40


@dataclass(frozen=True)
class RejoinResult:
    """Measured cost of one crash/rejoin under one recovery mode."""

    mode: str
    seed: int
    committed: int
    stream_length: int  # total quasi-transactions in the fragment stream
    wal_replayed: int  # rejoiner's WAL records at the moment of recovery
    checkpoints: int
    archive_pruned: int
    delta_qts_shipped: int
    delta_objects_shipped: int
    checkpoints_shipped: int
    snapshot_objects_shipped: int
    bytes_shipped: int
    retained_bytes: int
    rejoin_ticks: float  # sim time from node.recover to catch-up done
    consistent: bool
    audit_ok: bool

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "committed": self.committed,
            "stream_length": self.stream_length,
            "wal_replayed": self.wal_replayed,
            "checkpoints": self.checkpoints,
            "archive_pruned": self.archive_pruned,
            "delta_qts_shipped": self.delta_qts_shipped,
            "delta_objects_shipped": self.delta_objects_shipped,
            "checkpoints_shipped": self.checkpoints_shipped,
            "snapshot_objects_shipped": self.snapshot_objects_shipped,
            "bytes_shipped": self.bytes_shipped,
            "retained_bytes": self.retained_bytes,
            "rejoin_ticks": round(self.rejoin_ticks, 3),
            "consistent": self.consistent,
            "audit_ok": self.audit_ok,
        }


def _recovery_for(
    mode: str, checkpoint_every: int, grace: float
) -> RecoveryConfig | None:
    if mode == "full":
        return None
    if mode == "checkpoint":
        return RecoveryConfig(checkpoint_every=checkpoint_every, grace=None)
    if mode == "snapshot":
        return RecoveryConfig(checkpoint_every=checkpoint_every, grace=grace)
    raise ValueError(f"unknown rejoin mode {mode!r}; expected one of {MODES}")


def run_rejoin(
    mode: str,
    seed: int = 7,
    n_nodes: int = 3,
    n_updates: int = 60,
    horizon: float = 300.0,
    checkpoint_every: int = 8,
    grace: float = 60.0,
) -> RejoinResult:
    """One crash/rejoin measurement under one recovery mode.

    The workload stream is independent of the mode (same seed → same
    updates), so the three modes of one seed are directly comparable.
    The crashed replica (the last node) is never the agent's home; it
    goes down at ``0.3 * horizon`` and recovers 20 ticks after the
    horizon, when every surviving update has long been installed — the
    measured catch-up is purely the rejoin cost.
    """
    rng = SeededRng(seed)
    nodes = [f"N{i}" for i in range(n_nodes)]
    victim = nodes[-1]
    db = FragmentedDatabase(
        nodes, seed=seed, recovery=_recovery_for(mode, checkpoint_every, grace)
    )
    db.enable_tracing(None)
    setup_fragment(db, nodes[0])
    trackers = schedule_updates(db, rng, n_updates, horizon)

    wal_at_recovery = [0]

    def recover() -> None:
        wal_at_recovery[0] = len(db.nodes[victim].wal)
        db.recover_node(victim)

    db.sim.schedule_at(horizon * 0.3, lambda: db.fail_node(victim))
    db.sim.schedule_at(horizon + 20.0, recover)
    db.quiesce()

    events = [event.as_dict() for event in db.tracer]
    audit = audit_events(events, protocol=None, run=f"{mode}@{seed}")
    recovered_at = done_at = None
    for event in events:
        if event.get("node") != victim:
            continue
        if event["type"] == taxonomy.NODE_RECOVER and recovered_at is None:
            recovered_at = event["t"]
        elif event["type"] == taxonomy.RECOVERY_CATCHUP_DONE:
            done_at = event["t"]
    rejoin_ticks = (
        0.0
        if recovered_at is None or done_at is None
        else max(0.0, done_at - recovered_at)
    )

    value = db.metrics.value
    delta_qts = int(value("recovery.delta_qts_shipped") or 0)
    delta_objects = int(value("recovery.delta_objects_shipped") or 0)
    snapshot_objects = int(value("recovery.snapshot_objects_shipped") or 0)
    return RejoinResult(
        mode=mode,
        seed=seed,
        committed=sum(1 for t in trackers if t.succeeded),
        stream_length=int(db.nodes[nodes[0]].streams.next_expected["F"]),
        wal_replayed=wal_at_recovery[0],
        checkpoints=int(value("recovery.checkpoints") or 0),
        archive_pruned=int(value("recovery.archive_pruned") or 0),
        delta_qts_shipped=delta_qts,
        delta_objects_shipped=delta_objects,
        checkpoints_shipped=int(value("recovery.checkpoints_shipped") or 0),
        snapshot_objects_shipped=snapshot_objects,
        bytes_shipped=(
            delta_qts * _QT_BYTES
            + delta_objects * _WRITE_BYTES
            + snapshot_objects * _CKPT_OBJECT_BYTES
        ),
        retained_bytes=int(value("recovery.retained_bytes") or 0),
        rejoin_ticks=rejoin_ticks,
        consistent=db.mutual_consistency().consistent,
        audit_ok=audit.ok,
    )


def run_recovery_bench(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    updates: int = DEFAULT_UPDATES,
    every: int = DEFAULT_EVERY,
    grace: float = DEFAULT_GRACE,
) -> dict:
    """The full E17 sweep; returns the ``BENCH_recovery.json`` dict.

    One row per seed and mode, seeds in the given order and the modes
    of each seed in :data:`MODES` order.
    """
    rows = [
        run_rejoin(
            mode,
            seed=seed,
            n_updates=updates,
            checkpoint_every=every,
            grace=grace,
        ).as_dict()
        for seed in seeds
        for mode in MODES
    ]
    return {
        "bench": "e17_checkpoint_recovery",
        "workload": {
            "seeds": list(seeds),
            "updates": updates,
            "checkpoint_every": every,
            "grace": grace,
        },
        "rows": rows,
    }


def gates(
    result: dict, committed: dict | None, tolerance: float | None = None
) -> list[str]:
    """Verify the E17 bounded-logs claims on a fresh result.

    Intrinsic gates, per seed: every mode converges with a clean audit;
    checkpoint + WAL-suffix restore replays less of the log than the
    full replay; snapshot shipping beats shipping the rejoiner's whole
    gap and ships at least one checkpoint, while the disarmed mode ships
    none; compaction keeps retained state below the disarmed baseline,
    which prunes nothing.  Against a committed record the whole record
    must match exactly (the run is deterministic).  ``tolerance`` is
    unused: no gate has slack.
    """
    messages: list[str] = []
    rows = result["rows"]
    for row in rows:
        if not (row["consistent"] and row["audit_ok"]):
            messages.append(
                f"{row['mode']}@{row['seed']}: consistent="
                f"{row['consistent']} audit_ok={row['audit_ok']}"
            )
    by_seed: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_seed.setdefault(row["seed"], {})[row["mode"]] = row
    for seed, modes in by_seed.items():
        full, ckpt, snap = (modes[mode] for mode in MODES)
        checks = (
            (ckpt["wal_replayed"] < full["wal_replayed"],
             "checkpoint restore does not replay less WAL than full"),
            (snap["wal_replayed"] < full["wal_replayed"],
             "snapshot restore does not replay less WAL than full"),
            (snap["bytes_shipped"] < full["bytes_shipped"],
             "snapshot ships no fewer bytes than the full gap"),
            (snap["checkpoints_shipped"] >= 1,
             "snapshot mode shipped no checkpoint"),
            (full["checkpoints_shipped"] == 0,
             "disarmed mode shipped a checkpoint"),
            (ckpt["retained_bytes"] < full["retained_bytes"],
             "checkpoint mode retains no less than disarmed"),
            (snap["retained_bytes"] < full["retained_bytes"],
             "snapshot mode retains no less than disarmed"),
            (full["archive_pruned"] == 0, "disarmed mode pruned its archive"),
            (ckpt["archive_pruned"] > 0, "checkpoint mode pruned nothing"),
        )
        messages.extend(
            f"seed {seed}: {message}" for ok, message in checks if not ok
        )
    if committed is not None and committed != result:
        messages.append(
            "deterministic record diverges from the committed "
            "BENCH_recovery.json (regenerate with `python -m repro bench "
            "recovery --json BENCH_recovery.json` if the change is "
            "intentional)"
        )
    return messages
