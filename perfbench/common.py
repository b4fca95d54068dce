"""Helpers shared by the workloads: paths, percentiles, host probes."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write spans (inside the checkout, git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``; exit 2 if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program source at {SRC}/repro; run from the "
            "root of a full checkout\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return float(ordered[int(rank) - 1])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: a slow-neighbour probe.

    The loop does the same interpreter work every time, so a high
    reading next to a wall-time outlier points at the host, not at
    the program.  Median of three.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFF
            table[i & 1023] = acc
        samples.append((time.perf_counter() - start) * 1000.0)
    return median(samples)


class Checks:
    """Named pass/fail correctness checks, with a reason per failure."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def declared_metrics(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of each metric BENCHMARK.json declares in a section.

    BENCHMARK.json is the one list of metric names and units: the
    result line reports exactly these (``end_to_end`` or ``per_layer``).
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(entry["name"], entry["unit"]) for entry in json.load(fh)[section]]


def metric_block(values: dict[str, float], section: str) -> dict:
    """The result line's ``metrics``: ``{name: {value, unit}}``.

    Raises ``KeyError`` naming a declared metric the run did not measure.
    """
    block = {}
    for name, unit in declared_metrics(section):
        if name not in values:
            raise KeyError(f"BENCHMARK.json declares {name!r} but the run did "
                           "not measure it")
        block[name] = {"value": values[name], "unit": unit}
    return block


def report(title: str, rows: list[tuple[str, object, str, object]]) -> None:
    """Print one aligned block: name, value, unit and sample count."""
    print(f"== {title}")
    for name, value, unit, samples in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = "" if samples is None else f"  (n={samples})"
        print(f"  {name:<44} {shown:>14} {unit}{extra}")
