"""Runtime backend tests: codec, scheduler, TCP mesh, determinism.

The asyncio backend's contract is *indistinguishability*: the protocol
stack schedules and sends through the same surface as the simulator,
so these tests drive real sockets and a real event loop through the
exact entry points the simulated tests use.
"""

import base64
import gc
import json
import logging
import pickle
import threading
import time

import pytest

from repro.availability import AvailabilityConfig
from repro.cc.ops import Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import QuasiTransaction
from repro.errors import DesignError, SimulationError
from repro.net.broadcast import SeqPayload
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.reliable import RPacket
from repro.storage.values import Version
from repro.runtime.codec import CodecError, WireCodec, default_codec
from repro.runtime.scheduler import AsyncioScheduler

# ---------------------------------------------------------------------------
# Wire codec


def roundtrip(message: Message) -> Message:
    codec = default_codec()
    frame = codec.encode_frame(message)
    assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
    return codec.decode_frame(frame[4:])


def test_codec_roundtrips_plain_payload():
    message = Message(
        src="A", dst="B", kind="ping", payload={"n": 1, "s": "x"},
        sent_at=2.5,
    )
    back = roundtrip(message)
    assert back.src == "A" and back.dst == "B"
    assert back.kind == "ping"
    assert back.payload == {"n": 1, "s": "x"}
    assert back.sent_at == 2.5


def test_codec_roundtrips_structured_containers():
    payload = {
        "tuple": (1, 2, ("nested", 3)),
        "set": {3, 1, 2},
        "frozen": frozenset({"a", "b"}),
        "bytes": b"\x00\xff",
        "int_keys": {1: "one", 2: "two"},
    }
    back = roundtrip(Message("A", "B", "mixed", payload)).payload
    assert back["tuple"] == (1, 2, ("nested", 3))
    assert isinstance(back["tuple"], tuple)
    assert back["set"] == {1, 2, 3} and isinstance(back["set"], set)
    assert back["frozen"] == frozenset({"a", "b"})
    assert isinstance(back["frozen"], frozenset)
    assert back["bytes"] == b"\x00\xff"
    assert back["int_keys"] == {1: "one", 2: "two"}


def test_codec_reconstructs_registered_dataclasses():
    quasi = QuasiTransaction(
        source_txn="T1",
        fragment="F",
        agent="ag",
        origin_node="A",
        stream_seq=3,
        epoch=1,
        writes=[("x", Version(7, writer="T1", version_no=3))],
        origin_time=1.25,
    )
    packet = RPacket(
        cseq=9,
        kind="quasi",
        payload=SeqPayload("A", 4, "quasi", quasi, stream="F"),
    )
    back = roundtrip(Message("A", "B", "repl", packet)).payload
    # isinstance dispatch is what the receive path runs on — the codec
    # must hand back real instances, not dicts.
    assert isinstance(back, RPacket)
    assert isinstance(back.payload, SeqPayload)
    assert back.payload.stream == "F"
    inner = back.payload.body
    assert isinstance(inner, QuasiTransaction)
    assert inner.writes[0][0] == "x"
    version = inner.writes[0][1]
    assert isinstance(version, Version)
    assert (version.value, version.writer, version.version_no) == (7, "T1", 3)


class Odd:
    """Unregistered, module-level (picklable) payload type."""

    def __init__(self, v):
        self.v = v


def test_codec_rejects_unregistered_types_and_pickle_frames():
    codec = default_codec()
    with pytest.raises(CodecError, match="unregistered wire type 'Odd'"):
        codec.encode_frame(Message("A", "B", "odd", Odd(5)))
    # A peer-built pickle frame is refused, never unpickled.
    blob = base64.b64encode(pickle.dumps(Odd(5))).decode()
    body = json.dumps({
        "src": "A", "dst": "B", "kind": "odd", "sent_at": 0.0,
        "payload": {"__wire__": "pickle", "b64": blob},
    }).encode()
    with pytest.raises(CodecError, match="unknown wire tag 'pickle'"):
        codec.decode_frame(body)
    assert codec.pickle_fallbacks == 0


def test_codec_rejects_garbage_frames():
    codec = WireCodec()
    with pytest.raises(CodecError):
        codec.decode_frame(b"not json at all")


# ---------------------------------------------------------------------------
# AsyncioScheduler


@pytest.fixture
def sched():
    scheduler = AsyncioScheduler(tick=0.005)
    scheduler.start()
    yield scheduler
    scheduler.stop()


def test_scheduler_requires_start():
    scheduler = AsyncioScheduler()
    with pytest.raises(SimulationError, match="not started"):
        scheduler.schedule(1.0, lambda: None)


def test_scheduler_fires_in_delay_order(sched):
    order = []
    sched.schedule(6.0, lambda: order.append("late"))
    sched.schedule(2.0, lambda: order.append("early"))
    sched.run()
    assert order == ["early", "late"]
    assert sched.events_fired == 2
    assert sched.pending == 0


def test_scheduler_cancel_prevents_firing_and_settles(sched):
    fired = []
    keep = sched.schedule(2.0, lambda: fired.append("keep"))
    drop = sched.schedule(2.0, lambda: fired.append("drop"))
    drop.cancel()
    drop.cancel()  # idempotent
    sched.run()
    assert fired == ["keep"]
    assert drop.cancelled and not keep.cancelled
    assert sched.pending == 0


def test_scheduler_recurring_respects_horizon(sched):
    ticks = []
    sched.schedule_recurring(2.0, lambda: ticks.append(sched.now), until=9.0)
    sched.run()
    assert len(ticks) == 4  # t=2,4,6,8; the next (10) exceeds the horizon
    with pytest.raises(SimulationError, match="horizon"):
        sched.schedule_recurring(5.0, lambda: None, until=sched.now + 1.0)


def test_scheduler_recurring_is_anchored_under_lag():
    # The first callback blocks for 80% of an interval.  Anchored
    # firings stay on t=2,4,6,8; re-arming from the (late) end of the
    # callback would drift to 2, 5.6, 7.6 and miss the fourth slot.
    scheduler = AsyncioScheduler(tick=0.02)
    scheduler.start()
    try:
        ticks = []

        def lagging():
            ticks.append(scheduler.now)
            if len(ticks) == 1:
                time.sleep(0.8 * 2.0 * scheduler.tick)

        scheduler.schedule_recurring(2.0, lagging, until=9.0)
        scheduler.run()
    finally:
        scheduler.stop()
    assert [int(t // 2.0) for t in ticks] == [1, 2, 3, 4], ticks


def test_scheduler_recurring_skips_overrun_slots_instead_of_bursting():
    # A callback that overruns two and a half intervals skips the slots
    # it overran (t=4, 6) and resumes on the anchored grid at t=8.
    scheduler = AsyncioScheduler(tick=0.02)
    scheduler.start()
    try:
        ticks = []

        def lagging():
            ticks.append(scheduler.now)
            if len(ticks) == 1:
                time.sleep(2.5 * 2.0 * scheduler.tick)

        scheduler.schedule_recurring(2.0, lagging, until=9.0)
        scheduler.run()
    finally:
        scheduler.stop()
    assert len(ticks) == 2, ticks
    assert 8.0 <= ticks[1] < 9.0, ticks


def test_scheduler_recurring_cancel_stops_chain(sched):
    count = [0]

    def bump():
        count[0] += 1

    chain = sched.schedule_recurring(1.0, bump, until=10_000.0)
    sched.run(until=3.5)
    chain.cancel()
    seen = count[0]
    time.sleep(0.05)
    assert count[0] == seen
    assert sched.pending == 0


def test_scheduler_cross_thread_invoke_and_errors(sched):
    # invoke marshals onto the loop thread and relays return values...
    loop_thread = sched.invoke(threading.get_ident)
    assert loop_thread != threading.get_ident()
    # ...and exceptions raised by scheduled callbacks surface in check().
    def boom():
        raise ValueError("kaboom")

    sched.schedule(0.5, boom, label="boom-test")
    with pytest.raises(SimulationError, match="boom-test"):
        sched.run()
    sched.errors.clear()


def test_scheduler_clock_advances_in_ticks(sched):
    before = sched.now
    sched.run(until=before + 4.0)
    assert sched.now >= before + 4.0
    # 4 ticks at 5ms/tick is 20ms; a generous upper bound guards
    # against unit confusion (seconds vs ticks), not scheduler jitter.
    assert sched.now < before + 400.0


# ---------------------------------------------------------------------------
# TCP mesh end-to-end


def build_db(runtime="asyncio", **kwargs):
    db = FragmentedDatabase(
        ["A", "B", "C"], runtime=runtime, tick=0.005, **kwargs
    )
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    return db


def setter(value):
    def body(_ctx):
        yield Write("x", value)

    return body


def test_tcp_mesh_commit_replicates_over_real_sockets():
    db = build_db()
    with db:
        def body(_ctx):
            yield Write("x", 41)

        tracker = db.call_on_runtime(
            lambda: db.submit_update("ag", body, writes=["x"])
        )
        assert db.wait_until(lambda: tracker.succeeded, timeout=15.0), (
            tracker.status, tracker.reason,
        )
        assert db.wait_until(
            lambda: all(
                db.nodes[n].store.read_version("x").value == 41
                for n in "ABC"
            ),
            timeout=15.0,
        )
        assert db.metrics.value("tcp.frames_sent") > 0
        assert db.metrics.value("tcp.frames_received") > 0
    db.sim.check()


def test_tcp_mesh_hard_kill_failover_recommits():
    db = FragmentedDatabase(
        ["A", "B", "C", "D", "E"],
        runtime="asyncio",
        tick=0.005,
        replication_factor=3,
        availability=AvailabilityConfig(),
    )
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()

    with db:
        db.call_on_runtime(lambda: db.availability.start(until=1e9))
        first = db.call_on_runtime(
            lambda: db.submit_update("ag", setter(1), writes=["x"])
        )
        assert db.wait_until(lambda: first.succeeded, timeout=15.0)

        db.call_on_runtime(lambda: db.hard_kill_node("A"))
        # Hard kill: socket blackhole + crash, topology untouched.  The
        # supervisor must detect via missed heartbeats and re-home the
        # agent; a client retry loop then lands the write at the new home.
        deadline = time.monotonic() + 30.0
        tracker = None
        while time.monotonic() < deadline:
            tracker = db.call_on_runtime(
                lambda: db.submit_update("ag", setter(2), writes=["x"])
            )
            db.wait_until(
                lambda: tracker.status.value != "pending", timeout=10.0
            )
            if tracker.succeeded:
                break
            time.sleep(0.05)
        assert tracker is not None and tracker.succeeded
        assert db.agents["ag"].home_node != "A"
        assert db.metrics.value("avail.failovers") >= 1
        # The dead node's guard refused delivery before the transport
        # could ack (a dead process never acknowledges).
        assert db.metrics.value("tcp.frames_dropped_down") > 0
    db.sim.check()


def test_teardown_never_runs_timers_against_a_closed_mesh(caplog):
    # Supervisor heartbeats keep falling due while the mesh closes: a
    # timer that fired between mesh close and loop stop used to raise
    # "TCP mesh not started".  The slow close widens that window.
    db = build_db(
        replication_factor=3, availability=AvailabilityConfig()
    )
    db.start_runtime()
    db.call_on_runtime(lambda: db.availability.start(until=1e9))
    db.run(until=db.sim.now + 10.0)
    mesh_stop = db.network.stop

    def slow_stop():
        mesh_stop()
        time.sleep(0.1)  # 20 ticks: several heartbeats fall due

    db.network.stop = slow_stop
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        db.stop_runtime()
        gc.collect()
    assert db.sim.errors == []
    assert not [
        record for record in caplog.records
        if "Task was destroyed but it is pending" in record.getMessage()
    ]


def test_stop_runtime_drains_committed_writes_to_every_replica():
    # A write committed at its home is only safe once every replica has
    # installed it; stop_runtime() must not drop it in flight.
    # All writes commit inside one loop callback, so nothing has
    # reached a socket yet when the teardown starts.
    db = build_db()
    writes = 5
    with db:
        trackers = db.call_on_runtime(
            lambda: [
                db.submit_update("ag", setter(v), writes=["x"])
                for v in range(1, writes + 1)
            ]
        )
        assert all(t.succeeded for t in trackers)
    for name in "ABC":
        version = db.nodes[name].store.read_version("x")
        assert (version.value, version.version_no) == (writes, writes), name
    db.sim.check()


def test_stop_runtime_does_not_wait_on_a_dead_replica():
    # A hard-killed replica never acks, so its channel stays unacked for
    # the whole retransmit budget (25 retries, ~6.6 s at this tick).
    # The drain must skip it and still deliver to the live replica.
    db = build_db()
    db.start_runtime()
    db.call_on_runtime(lambda: db.hard_kill_node("C"))
    tracker = db.call_on_runtime(
        lambda: db.submit_update("ag", setter(7), writes=["x"])
    )
    assert db.wait_until(lambda: tracker.succeeded, timeout=15.0)
    assert db.wait_until(
        lambda: ("A", "C") in db.transport.unacked_channels(), timeout=15.0
    )
    started = time.monotonic()
    db.stop_runtime()
    assert time.monotonic() - started < 2.0
    assert db.nodes["B"].store.read_version("x").value == 7
    db.sim.check()


def test_sim_lifecycle_surface_matches_direct_calls():
    # The simulator implements the same lifecycle surface as a no-op:
    # bracketing, marshalling and waiting change nothing.
    def run(via_runtime):
        db = build_db(runtime="sim")
        submit = [
            lambda v=v: db.submit_update("ag", setter(v), writes=["x"])
            for v in (1, 2, 3)
        ]
        if via_runtime:
            with db:
                trackers = [db.call_on_runtime(fn) for fn in submit]
                assert db.wait_until(
                    lambda: all(t.succeeded for t in trackers)
                )
        else:
            trackers = [fn() for fn in submit]
            db.quiesce()
            assert all(t.succeeded for t in trackers)
        return db.state_hash(), db.sim.events_fired, db.sim.now

    assert run(via_runtime=True) == run(via_runtime=False)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"fault_profile": {"drop": 0.1}}, "fault_profile"),
        ({"runtime": "asyncio", "faults": FaultPlan(loss_rate=0.1)},
         "FaultPlan"),
    ],
    ids=["fault_profile-on-sim", "faultplan-on-asyncio"],
)
def test_fault_profile_requires_asyncio_runtime(kwargs, match):
    # Each backend takes its own kind of fault injection only.
    with pytest.raises(DesignError, match=match):
        FragmentedDatabase(["A", "B"], **kwargs)


# ---------------------------------------------------------------------------
# Determinism: no wall-clock leakage into simulator scheduling


def test_sim_backend_is_still_deterministic():
    # The only real-clock read in simulator-backed analysis code is
    # scale_bench's perf_counter() timing of the run, which never feeds
    # back into scheduling.  Two identical runs must produce identical
    # schedules — same final-state hash, same event count.
    from repro.analysis.scale_bench import run_side

    a = run_side(nodes=8, updates=30)
    b = run_side(nodes=8, updates=30)
    assert a.state == b.state
    assert a.events_fired == b.events_fired
    assert a.committed == b.committed
