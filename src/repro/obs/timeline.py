"""Telemetry timelines: periodic, sim-time-driven metric sampling.

Every metric in the registry is cumulative — counters only grow,
histograms only accumulate — so nothing in the repo can say *when*
message traffic spiked or how commit latency drifted across a
partition.  The :class:`TimelineSampler` fixes that: driven by a
recurring simulator event (:meth:`~repro.sim.simulator.Simulator.
schedule_recurring`), it snapshots the registry every ``tick``
simulated ticks into bounded ring-buffer time series:

* **counters** — value plus the delta since the previous sample (the
  per-tick rate is ``delta / tick``);
* **gauges** — the polled value, kept only when numeric;
* **histograms** — count, mean, p50/p90/p99, max, plus the count delta.

Because sampling rides the simulator's own event queue, the records
are a pure function of simulated time: two runs of the same seed
produce bit-identical timelines, which the E20/E21 availability bench
asserts by hashing the JSONL dump.  The sampler's horizon is bounded (like the
availability supervisor's probe chain) so ``quiesce()`` still drains.

``dump_jsonl``/``load_jsonl`` round-trip the series through the same
JSONL idiom as the tracer; the dashboard renders sparklines from
either a live sampler or a dump.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.simulator import Simulator

#: Default sampling interval in simulated ticks.
DEFAULT_TICK = 5.0

#: Default ring-buffer capacity per series (oldest samples fall off).
DEFAULT_RETENTION = 512

#: Histogram summary fields carried per sample, in record order.
_HIST_FIELDS = ("count", "mean", "p50", "p90", "p99", "max")


class TimelineSampler:
    """Samples a :class:`MetricsRegistry` into bounded time series.

    Parameters
    ----------
    registry:
        The registry to sample.  The sampler registers itself as
        ``registry.timeline`` so consumers (``repro metrics --watch``,
        the dashboard) can find it without extra plumbing.
    tick:
        Simulated ticks between samples.
    retention:
        Ring-buffer capacity per series; ``None`` keeps everything.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        tick: float = DEFAULT_TICK,
        retention: int | None = DEFAULT_RETENTION,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive (got {tick})")
        self.registry = registry
        self.tick = tick
        self.retention = retention
        self.samples_taken = 0
        # series key -> deque of sample tuples; see sample() for shapes.
        self._counters: dict[str, deque[tuple[float, int, int]]] = {}
        self._gauges: dict[str, deque[tuple[float, float]]] = {}
        self._histograms: dict[str, deque[tuple[Any, ...]]] = {}
        self._last_counter: dict[str, int] = {}
        self._last_hist_count: dict[str, int] = {}
        registry.timeline = self

    # -- driving ----------------------------------------------------------

    def start(self, sim: "Simulator", until: float) -> None:
        """Arm the recurring sampling event on ``sim`` up to ``until``.

        The chain is horizon-bounded so the simulator can still drain;
        the determinism contract holds because sampling is itself a
        scheduled event, ordered by ``(time, scheduling-order)`` like
        everything else.
        """
        sim.schedule_recurring(
            self.tick,
            lambda: self.sample(sim.now),
            until=until,
            label="timeline sample",
        )

    def sample(self, now: float) -> None:
        """Take one sample of every registered metric at time ``now``."""
        self.samples_taken += 1
        retention = self.retention
        last_counter = self._last_counter
        for name, counter in self.registry.counters_sorted():
            value = counter.value
            previous = last_counter.get(name, 0)
            series = self._counters.get(name)
            if series is None:
                series = self._counters[name] = deque(maxlen=retention)
            series.append((now, value, value - previous))
            last_counter[name] = value
        for name, gauge in self.registry.gauges_sorted():
            value = gauge.value
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            series = self._gauges.get(name)
            if series is None:
                series = self._gauges[name] = deque(maxlen=retention)
            series.append((now, float(value)))
        last_hist = self._last_hist_count
        for name, histogram in self.registry.histograms_sorted():
            summary = histogram.summary()
            previous = last_hist.get(name, 0)
            series = self._histograms.get(name)
            if series is None:
                series = self._histograms[name] = deque(maxlen=retention)
            series.append(
                (
                    now,
                    *(summary[field] for field in _HIST_FIELDS),
                    summary["count"] - previous,
                )
            )
            last_hist[name] = summary["count"]

    # -- queries ----------------------------------------------------------

    def series_names(self) -> dict[str, list[str]]:
        """Sampled series names by kind."""
        return {
            "counters": sorted(self._counters),
            "gauges": sorted(self._gauges),
            "histograms": sorted(self._histograms),
        }

    def counter_series(self, name: str) -> list[tuple[float, int, int]]:
        """``(t, value, delta)`` samples for one counter."""
        return list(self._counters.get(name, ()))

    def gauge_series(self, name: str) -> list[tuple[float, float]]:
        """``(t, value)`` samples for one gauge."""
        return list(self._gauges.get(name, ()))

    def histogram_series(self, name: str) -> list[dict[str, Any]]:
        """Per-sample histogram summaries (dicts with ``t`` + fields)."""
        out = []
        for sample in self._histograms.get(name, ()):
            record = {"t": sample[0]}
            record.update(zip(_HIST_FIELDS, sample[1:-1]))
            record["count_delta"] = sample[-1]
            out.append(record)
        return out

    def rate_series(self, name: str) -> list[tuple[float, float]]:
        """``(t, per-tick-rate)`` derived from a counter's deltas."""
        return [
            (t, delta / self.tick)
            for t, _value, delta in self._counters.get(name, ())
        ]

    # -- JSONL round-trip --------------------------------------------------

    def records(self) -> Iterable[dict[str, Any]]:
        """Every sample as a flat dict, in (kind, name, time) order."""
        for name in sorted(self._counters):
            for t, value, delta in self._counters[name]:
                yield {
                    "kind": "counter",
                    "name": name,
                    "t": t,
                    "value": value,
                    "delta": delta,
                }
        for name in sorted(self._gauges):
            for t, value in self._gauges[name]:
                yield {"kind": "gauge", "name": name, "t": t, "value": value}
        for name in sorted(self._histograms):
            for record in self.histogram_series(name):
                yield {"kind": "histogram", "name": name, **record}

    def dump_jsonl(self, path: str) -> int:
        """Write every sample as JSON lines; returns the record count."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                written += 1
        return written


def load_jsonl(path: str) -> dict[str, dict[str, list[dict[str, Any]]]]:
    """Load a timeline dump back into ``{kind: {name: [records]}}``.

    The inverse of :meth:`TimelineSampler.dump_jsonl` for post-hoc
    consumers (the dashboard's ``--html`` mode); records keep their
    flat-dict shape.
    """
    out: dict[str, dict[str, list[dict[str, Any]]]] = {
        "counter": {},
        "gauge": {},
        "histogram": {},
    }
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            name = record.get("name")
            if kind in out and name is not None:
                out[kind].setdefault(name, []).append(record)
    return out
