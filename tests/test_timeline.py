"""Tests for the telemetry timeline sampler and recurring events."""

import json

import pytest

from repro import FragmentedDatabase
from repro.cc.ops import Read, Write
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler, load_jsonl
from repro.sim.simulator import SimulationError, Simulator


def bump(obj="x"):
    def body(_ctx):
        value = yield Read(obj)
        yield Write(obj, value + 1)

    return body


def make_db(nodes=("A", "B", "C")):
    db = FragmentedDatabase(list(nodes))
    db.add_agent("ag", home_node=nodes[0])
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()
    return db


class TestScheduleRecurring:
    def test_fires_at_every_interval_up_to_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_recurring(5.0, lambda: fired.append(sim.now), until=22.0)
        sim.run()
        assert fired == [5.0, 10.0, 15.0, 20.0]

    def test_horizon_bound_lets_quiesce_drain(self):
        sim = Simulator()
        sim.schedule_recurring(1.0, lambda: None, until=10.0)
        sim.run()  # would hang forever if the chain re-armed unbounded
        assert sim.now == 10.0

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_recurring(0.0, lambda: None, until=10.0)

    def test_rejects_horizon_before_first_firing(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_recurring(5.0, lambda: None, until=3.0)


class TestTimelineSampler:
    def test_registers_itself_on_the_registry(self):
        registry = MetricsRegistry()
        sampler = TimelineSampler(registry)
        assert registry.timeline is sampler

    def test_rejects_nonpositive_tick(self):
        with pytest.raises(ValueError):
            TimelineSampler(MetricsRegistry(), tick=0.0)

    def test_counter_series_carries_value_and_delta(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        sampler = TimelineSampler(registry, tick=1.0)
        counter.inc(3)
        sampler.sample(1.0)
        counter.inc(2)
        sampler.sample(2.0)
        assert sampler.counter_series("c") == [(1.0, 3, 3), (2.0, 5, 2)]
        assert sampler.rate_series("c") == [(1.0, 3.0), (2.0, 2.0)]

    def test_gauge_series_skips_non_numeric_values(self):
        registry = MetricsRegistry()
        registry.gauge("num", lambda: 4)
        registry.gauge("text", lambda: "hello")
        registry.gauge("flag", lambda: True)
        sampler = TimelineSampler(registry, tick=1.0)
        sampler.sample(1.0)
        assert sampler.gauge_series("num") == [(1.0, 4.0)]
        assert sampler.gauge_series("text") == []
        assert sampler.gauge_series("flag") == []

    def test_histogram_series_summaries_and_count_delta(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        sampler = TimelineSampler(registry, tick=1.0)
        hist.observe(10.0)
        hist.observe(20.0)
        sampler.sample(1.0)
        hist.observe(30.0)
        sampler.sample(2.0)
        series = sampler.histogram_series("h")
        assert [record["t"] for record in series] == [1.0, 2.0]
        assert series[0]["count"] == 2
        assert series[0]["count_delta"] == 2
        assert series[1]["count"] == 3
        assert series[1]["count_delta"] == 1
        assert series[1]["max"] == 30.0

    def test_retention_bounds_each_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        sampler = TimelineSampler(registry, tick=1.0, retention=3)
        for tick in range(10):
            counter.inc()
            sampler.sample(float(tick))
        series = sampler.counter_series("c")
        assert len(series) == 3
        assert [t for t, _v, _d in series] == [7.0, 8.0, 9.0]

    def test_driven_by_simulator_events(self):
        db = make_db()
        sampler = TimelineSampler(db.metrics, tick=10.0)
        sampler.start(db.sim, until=100.0)
        for index in range(4):
            db.sim.schedule_at(
                5.0 + index * 10.0,
                lambda: db.submit_update("ag", bump(), writes=["x"]),
            )
        db.quiesce()
        assert sampler.samples_taken == 10
        committed = sampler.counter_series("txn.committed")
        assert committed[-1][1] == 4  # final value
        assert sum(delta for _t, _v, delta in committed) == 4

    def test_dump_and_load_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        registry.gauge("g", lambda: 1.5)
        registry.histogram("h").observe(2.0)
        sampler = TimelineSampler(registry, tick=1.0)
        counter.inc()
        sampler.sample(1.0)
        path = str(tmp_path / "tl.jsonl")
        written = sampler.dump_jsonl(path)
        assert written == 3
        loaded = load_jsonl(path)
        assert loaded["counter"]["c"][0]["value"] == 1
        assert loaded["gauge"]["g"][0]["value"] == 1.5
        assert loaded["histogram"]["h"][0]["count"] == 1
        # Records are stable JSON (sorted keys), so the dump re-reads
        # byte-identically when regenerated.
        with open(path, encoding="utf-8") as handle:
            lines = handle.read()
        assert lines == "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in sampler.records()
        )

    def test_bit_identical_across_runs_of_one_seed(self):
        def run():
            db = make_db()
            sampler = TimelineSampler(db.metrics, tick=5.0)
            sampler.start(db.sim, until=60.0)
            for index in range(5):
                db.sim.schedule_at(
                    3.0 * index,
                    lambda: db.submit_update("ag", bump(), writes=["x"]),
                )
            db.partitions.partition_now([["A"], ["B", "C"]])
            db.sim.schedule_at(30.0, db.partitions.heal_now)
            db.quiesce()
            return list(sampler.records())

        assert run() == run()

    def test_deterministic_under_chaos_via_availability_bench(self):
        from repro.analysis.availability_bench import run_mode

        def run():
            return run_mode(
                True, nodes=4, fragments=2, updates=8, factor=3,
                horizon=120.0, seed=5,
            )

        first = run()
        assert first["timeline_records"] > 0  # the sampler saw the run
        assert first["timeline_hash"] == run()["timeline_hash"]
