"""E20 + E21 — write availability under agent-home crashes, measured by
the client and by the availability accountant.

One seeded workload (multi-fragment, restricted replica sets, updates
spread across the run) kills every agent's home node at a known time.
It runs in two modes:

* **supervisor on** — the supervisor detects each crash via
  heartbeats, elects a successor from the fragment's live replica set,
  cuts a new stream epoch, and the recovered ex-home demotes.  Clients
  resubmit rejected updates, so every logical update commits; the
  per-agent *write-unavailability window* (kill to first commit after
  the kill) is bounded by the detection + takeover time.
* **supervisor off** — the same kills, never recovered, no failover.
  Rejected updates stay rejected until the resubmission budget runs
  out, and the unavailability window stretches to the rest of the run.

Every mode runs with the :class:`~repro.obs.timeline.TimelineSampler`
armed, and the :class:`~repro.obs.availability.AvailabilityAccountant`
replays its trace afterwards.  Sampling only reads the registry, so the
client-side numbers (each mode's ``measured`` dict, E20) are the same
as in an unsampled run.  The accountant's books (E21) are proved
against them:

* **determinism** — the supervised mode runs twice; the timeline dump
  and the accountant summary must hash identically (sampling rides the
  simulator's event queue, so both are pure functions of the seed);
* **agreement** — per agent, the accountant's crash window opens at
  the kill instant and closes no later than the measured window (the
  accountant sees the token arrive at the successor; the client's first
  commit necessarily follows it);
* **contrast** — the supervised worst window and availability beat the
  unsupervised run's, from the client and from the accountant alike.

Everything recorded is a deterministic function of the seed, so the
committed ``BENCH_availability.json`` compares exactly in CI.  Run it
with ``python -m repro bench availability``.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.audit import audit_events
from repro.availability import AvailabilityConfig
from repro.cc.ops import Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import RequestStatus
from repro.obs.availability import account_events
from repro.obs.timeline import TimelineSampler
from repro.sim.rng import SeededRng

#: Default workload shape (the CI smoke passes smaller values).
DEFAULT_NODES = 6
DEFAULT_FRAGMENTS = 3
DEFAULT_UPDATES = 36
DEFAULT_FACTOR = 3
DEFAULT_HORIZON = 200.0

#: Client resubmission policy: a rejected update is retried after this
#: delay, up to the attempt budget.  With the supervisor on, failover
#: completes well inside the budget; with it off, the budget runs dry
#: and the update counts as blocked.
RESUBMIT_DELAY = 7.5
MAX_ATTEMPTS = 20

#: Agent ``a{i}``'s home is killed at ``KILL_BASE + KILL_STEP * i``.
KILL_BASE = 60.0
KILL_STEP = 15.0

#: Sampling interval for the armed timeline (coarser than the default:
#: the bench hashes every record, and 5-tick resolution is plenty to
#: catch the kill/failover shape on a 200-tick horizon).
SAMPLE_TICK = 5.0

#: Gate slack on supervised write-availability regression.
DEFAULT_TOLERANCE = 0.05

#: Gate slack on supervised MTTR regression.  The exact-record gate
#: already catches any change; this one names an MTTR regression.
MTTR_TOLERANCE = 0.20

#: Window-boundary comparison slack (floats rounded through dicts).
EPS = 1e-6


def run_mode(
    supervised: bool,
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 20,
) -> dict:
    """One mode of the run: the seeded workload, homes killed.

    Both modes construct the database with an
    :class:`AvailabilityConfig` so the submission gate rejects loudly
    while a home is down (clients can react); only the supervised mode
    *starts* the supervisor, so only it detects crashes and fails over.
    The unsupervised mode also never recovers the killed homes — its
    unavailability window is the rest of the run by construction.

    Returns the client-measured numbers under ``measured`` beside the
    timeline hash and the accountant's books.
    """
    rng = SeededRng(seed).fork("workload")
    names = [f"N{i}" for i in range(nodes)]
    db = FragmentedDatabase(
        names,
        seed=seed,
        replication_factor=factor,
        availability=AvailabilityConfig(),
    )
    TimelineSampler(db.metrics, tick=SAMPLE_TICK).start(db.sim, until=horizon)
    db.enable_tracing(None)
    objects_of: dict[str, list[str]] = {}
    for index in range(fragments):
        agent = f"a{index}"
        fragment = f"F{index}"
        db.add_agent(agent, home_node=names[index % nodes])
        objs = [f"x{index}", f"y{index}"]
        objects_of[fragment] = objs
        db.add_fragment(fragment, agent=agent, objects=objs)
    db.load({obj: 0 for objs in objects_of.values() for obj in objs})
    db.finalize()
    if supervised:
        db.availability.start(until=horizon)

    # -- client: one logical update per slot, resubmitted on rejection --
    committed_at: dict[int, float] = {}
    attempts_made = {"n": 0}

    def write_body(objs, value):
        def body(_ctx):
            for obj in objs:
                yield Write(obj, value)

        return body

    def submit(slot: int, agent: str, objs, value: int, attempt: int) -> None:
        attempts_made["n"] += 1

        def on_done(tracker) -> None:
            if tracker.status is RequestStatus.COMMITTED:
                committed_at.setdefault(slot, db.sim.now)
            elif (
                tracker.status
                in (RequestStatus.REJECTED, RequestStatus.TIMED_OUT)
                and attempt + 1 < MAX_ATTEMPTS
            ):
                db.sim.schedule(
                    RESUBMIT_DELAY,
                    lambda: submit(slot, agent, objs, value, attempt + 1),
                    label=f"resubmit U{slot}",
                )

        db.submit_update(
            agent,
            write_body(objs, value),
            writes=objs,
            txn_id=f"U{slot}a{attempt}",
            on_done=on_done,
        )

    update_agent: dict[int, str] = {}
    for slot in range(updates):
        index = rng.randint(0, fragments - 1)
        agent = f"a{index}"
        update_agent[slot] = agent
        objs = objects_of[f"F{index}"]
        value = rng.randint(1, 10_000)
        db.sim.schedule_at(
            rng.uniform(0.0, horizon * 0.75),
            lambda s=slot, a=agent, o=objs, v=value: submit(s, a, o, v, 0),
        )

    # -- kill every agent's home, staggered; recover only when supervised --
    kill_time: dict[str, float] = {}

    def kill_home(agent: str) -> None:
        home = db.agents[agent].home_node
        kill_time[agent] = db.sim.now
        if db.nodes[home].down:
            return
        db.fail_node(home)
        if supervised:
            db.sim.schedule(
                50.0,
                lambda name=home: (
                    db.recover_node(name) if db.nodes[name].down else None
                ),
                label=f"bench recovery {home}",
            )

    for index in range(fragments):
        db.sim.schedule_at(
            KILL_BASE + KILL_STEP * index,
            lambda a=f"a{index}": kill_home(a),
            label="bench agent-kill",
        )
    db.quiesce()

    events = [event.as_dict() for event in db.tracer]
    audit = audit_events(events, run="availability-bench")
    converge = db.sim.now

    # Write-unavailability window per agent: kill to the first commit of
    # one of the agent's updates after the kill (end of run if none).
    windows: dict[str, float] = {}
    for agent, killed in sorted(kill_time.items()):
        after = [
            at
            for slot, at in committed_at.items()
            if update_agent[slot] == agent and at > killed
        ]
        windows[agent] = round((min(after) if after else converge) - killed, 4)

    mttr = db.metrics.value("avail.mttr")
    measured = {
        "supervised": supervised,
        "submitted": updates,
        "attempts": attempts_made["n"],
        "committed": len(committed_at),
        "blocked": updates - len(committed_at),
        "unavailability": windows,
        "max_unavailability": max(windows.values()) if windows else 0.0,
        "failovers": int(db.metrics.value("avail.failovers")),
        "failovers_aborted": int(
            db.metrics.value("avail.failovers_aborted")
        ),
        "suspicions": int(db.metrics.value("avail.suspicions")),
        "epoch_cuts": int(db.metrics.value("avail.epoch_cuts")),
        "demotions": int(db.metrics.value("avail.demotions")),
        "updates_blocked": int(db.metrics.value("avail.updates_blocked")),
        "updates_discarded": int(
            db.metrics.value("avail.updates_discarded")
        ),
        "mttr_count": mttr["count"],
        "mttr_mean": round(mttr["mean"], 4) if mttr["mean"] else 0.0,
        "mttr_max": round(mttr["max"], 4) if mttr["max"] else 0.0,
        "converge_time": round(converge, 4),
        "audit_ok": audit.ok,
        "audit_violations": audit.violation_count,
        "state_hash": db.state_hash(),
    }

    # -- the accountant's books over the same trace --
    accountant = account_events(events, end_time=converge)
    digest = hashlib.sha256()
    timeline_records = 0
    for record in db.metrics.timeline.records():
        digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
        timeline_records += 1

    agent_windows: dict[str, dict] = {}
    for index in range(fragments):
        agent = f"a{index}"
        fragment_names = accountant.agent_fragments.get(agent, [])
        kill_at = KILL_BASE + KILL_STEP * index
        for window in accountant.windows:
            if (
                window.fragment in fragment_names
                and window.dimension == "write"
                and window.start <= kill_at + EPS
                and (window.end is None or window.end >= kill_at)
            ):
                agent_windows[agent] = {
                    "start": round(window.start, 4),
                    "end": round(
                        window.end if window.end is not None else converge, 4
                    ),
                    "causes": sorted(window.causes),
                    "kill_at": kill_at,
                }
                break

    summary = accountant.summary()
    return {
        "measured": measured,
        "timeline_hash": digest.hexdigest(),
        "timeline_records": timeline_records,
        "timeline_samples": db.metrics.timeline.samples_taken,
        "write_availability": round(accountant.availability("write"), 6),
        "read_availability": round(accountant.availability("read"), 6),
        "worst_window": round(accountant.worst_window("write"), 4),
        "windows": len(accountant.windows),
        "agent_windows": agent_windows,
        "mttd_mean": summary["mttd_mean"],
        "mttr_mean": summary["mttr_mean"],
        "incidents": len(summary["incidents"]),
    }


def run_availability_bench(
    nodes: int = DEFAULT_NODES,
    fragments: int = DEFAULT_FRAGMENTS,
    updates: int = DEFAULT_UPDATES,
    factor: int = DEFAULT_FACTOR,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 20,
) -> dict:
    """The full run; returns the ``BENCH_availability.json`` dict.

    The supervised mode runs twice — the ``rerun_*`` fields carry the
    second pass's hashes so the determinism gate can compare without
    re-executing anything.
    """
    args = (nodes, fragments, updates, factor, horizon, seed)
    on = run_mode(True, *args)
    rerun = run_mode(True, *args)
    off = run_mode(False, *args)
    return {
        "benchmark": "E20-E21-availability",
        "nodes": nodes,
        "fragments": fragments,
        "updates": updates,
        "replication_factor": factor,
        "horizon": horizon,
        "seed": seed,
        "supervised": on,
        "unsupervised": off,
        "rerun_timeline_hash": rerun["timeline_hash"],
        "rerun_worst_window": rerun["worst_window"],
        "rerun_write_availability": rerun["write_availability"],
    }


def gates(
    result: dict, committed: dict | None, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Verify the E20 and E21 claims on a fresh result.

    Client-measured (E20), from each mode's ``measured``: with the
    supervisor on, no logical update is permanently blocked, failovers
    happened, and the lineage audit (including epoch fencing) passes in
    both modes; every supervised window is below the same agent's
    unsupervised window and under 35% of the horizon; without the
    supervisor at least one update stays blocked, which keeps the first
    claim non-vacuous.

    Accountant (E21): the determinism, agreement and contrast claims of
    the module docstring.

    Against a committed record: state hashes must match, supervised
    MTTR must not regress beyond :data:`MTTR_TOLERANCE`, supervised
    write availability must not regress beyond ``tolerance``, and the
    whole record must match exactly.
    """
    messages: list[str] = []
    on = result["supervised"]
    off = result["unsupervised"]

    # -- E20: the client-measured claims --
    on_m, off_m = on["measured"], off["measured"]
    if on_m["blocked"]:
        messages.append(
            f"supervised: {on_m['blocked']} update(s) permanently blocked"
        )
    if not on_m["failovers"]:
        messages.append("supervised: no failover happened")
    for mode, tag in ((on_m, "supervised"), (off_m, "unsupervised")):
        if not mode["audit_ok"]:
            messages.append(
                f"{tag}: lineage audit found "
                f"{mode['audit_violations']} violation(s)"
            )
    if on_m["max_unavailability"] > result["horizon"] * 0.35:
        messages.append(
            f"supervised: max unavailability "
            f"{on_m['max_unavailability']} not bounded (> 35% of horizon)"
        )
    for agent, window in on_m["unavailability"].items():
        other = off_m["unavailability"].get(agent)
        if other is not None and window >= other:
            messages.append(
                f"agent {agent}: supervised window {window} not below "
                f"unsupervised window {other}"
            )
    if not off_m["blocked"]:
        messages.append(
            "unsupervised: every update still committed — the kill "
            "schedule no longer creates an outage"
        )

    # -- E21: determinism, identical seed, identical books --
    if result["rerun_timeline_hash"] != on["timeline_hash"]:
        messages.append(
            "supervised: timeline dump differs between two runs of the "
            "same seed — sampling is not deterministic"
        )
    if result["rerun_worst_window"] != on["worst_window"] or (
        result["rerun_write_availability"] != on["write_availability"]
    ):
        messages.append(
            "supervised: accountant numbers differ between two runs of "
            "the same seed"
        )
    if not on["timeline_records"]:
        messages.append("supervised: the timeline sampler recorded nothing")

    # -- E21: agreement with the client-measured windows --
    for mode, tag in ((on, "supervised"), (off, "unsupervised")):
        measured = mode["measured"]["unavailability"]
        for agent, window in mode["agent_windows"].items():
            kill_at = window["kill_at"]
            if abs(window["start"] - kill_at) > 1e-3:
                messages.append(
                    f"{tag}: accountant window for {agent} opens at "
                    f"{window['start']}, not at the kill ({kill_at})"
                )
            measured_end = kill_at + measured.get(agent, 0.0)
            if window["end"] > measured_end + 1e-3:
                messages.append(
                    f"{tag}: accountant window for {agent} closes at "
                    f"{window['end']}, after the measured first-commit "
                    f"window ({measured_end:.4f})"
                )
        missing = sorted(set(measured) - set(mode["agent_windows"]))
        if missing:
            messages.append(
                f"{tag}: no accountant window covers the kill of "
                f"agent(s) {missing}"
            )

    # -- E21: the supervised/unsupervised contrast, from the accountant --
    if on["worst_window"] >= off["worst_window"]:
        messages.append(
            f"supervised worst window {on['worst_window']} not below "
            f"unsupervised {off['worst_window']}"
        )
    if on["write_availability"] <= off["write_availability"]:
        messages.append(
            f"supervised availability {on['write_availability']} not "
            f"above unsupervised {off['write_availability']}"
        )
    if not on["incidents"]:
        messages.append(
            "supervised: the accountant recorded no MTTD/MTTR incidents"
        )

    if committed is not None:
        for tag in ("supervised", "unsupervised"):
            if (
                result[tag]["measured"]["state_hash"]
                != committed[tag]["measured"]["state_hash"]
            ):
                messages.append(
                    f"{tag}: state hash diverged from the committed record"
                )
        committed_mttr = committed["supervised"]["measured"]["mttr_max"]
        ceiling = committed_mttr * (1.0 + MTTR_TOLERANCE)
        if on_m["mttr_max"] > ceiling:
            messages.append(
                f"supervised: MTTR max {on_m['mttr_max']} regressed beyond "
                f"{ceiling:.2f} (committed {committed_mttr} + "
                f"{MTTR_TOLERANCE:.0%})"
            )
        committed_avail = committed["supervised"]["write_availability"]
        floor = committed_avail * (1.0 - tolerance)
        if on["write_availability"] < floor:
            messages.append(
                f"supervised availability {on['write_availability']} "
                f"regressed below {floor:.4f} (committed "
                f"{committed_avail} - {tolerance:.0%})"
            )
        if committed != result:
            messages.append(
                "deterministic record diverges from the committed "
                "BENCH_availability.json (regenerate with `python -m "
                "repro bench availability --json BENCH_availability.json` "
                "if the change is intentional)"
            )
    return messages
