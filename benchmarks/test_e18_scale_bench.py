"""E18 — event throughput of the flattened hot path.

The acceptance bar for the flattening PR: the shipping configuration
(versioned path-latency cache on) must push several times the
end-to-end event throughput of the baseline (per-call Dijkstra) on the
same E15-class workload, with **bit-identical** final-state hashes and
event counts — a speedup that changes the schedule is no speedup at
all.  (The original A/B also swapped the scheduler core; since the
binary heap's removal both sides run the event-wheel, so the measured
ratio isolates the path-cache win and the bar is set accordingly.)

The committed record lives in ``BENCH_scale.json`` at the repo root;
regenerate it with ``python -m repro bench scale --json
BENCH_scale.json`` after intentional performance changes.
"""

from conftest import run_once

from repro.analysis.report import format_table
from repro.analysis.scale_bench import run_scale_bench

NODES = 32
UPDATES = 400
MIN_SPEEDUP = 4.0
#: Timing repeats per side; the fastest sample wins, which keeps the
#: ratio stable on noisy CI machines.
REPEATS = 3


def test_e18_scale_bench(benchmark, report):
    result = run_once(
        benchmark,
        lambda: run_scale_bench(NODES, UPDATES, repeats=REPEATS),
    )
    base = result["baseline"]
    flat = result["flattened"]
    report(
        format_table(
            ["side", "path cache", "events", "elapsed s", "events/s"],
            [
                ["baseline", base["path_cache"],
                 base["events_fired"], base["elapsed_s"],
                 base["throughput_eps"]],
                ["flattened", flat["path_cache"],
                 flat["events_fired"], flat["elapsed_s"],
                 flat["throughput_eps"]],
            ],
            title=(
                f"E18 — flattened hot path: {NODES} nodes, {UPDATES} "
                f"updates, speedup {result['speedup']}x"
            ),
        )
    )
    # Determinism is the hard constraint: same hashes, same counts.
    assert result["state_match"], "final-state hashes diverged"
    assert result["events_match"], "event counts diverged"
    assert base["mutually_consistent"] and flat["mutually_consistent"]
    assert base["committed"] == UPDATES
    assert flat["committed"] == UPDATES
    # The tentpole claim.
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"throughput speedup {result['speedup']}x below the "
        f"{MIN_SPEEDUP}x bar"
    )
