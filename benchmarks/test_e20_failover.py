"""E20 — write availability with and without the availability supervisor.

One seeded workload, every agent's home crash-stopped mid-run.  With
the supervisor armed every logical update commits (failover bounds the
outage; clients resubmit through it) and the lineage audit — including
epoch fencing — stays clean; without it, updates against the dead
homes stay blocked for the rest of the run.  The run is deterministic,
so the result is also compared field-for-field against the committed
``BENCH_availability.json``; regenerate with ``python -m repro bench
failover --json BENCH_availability.json`` after intentional changes.
"""

from conftest import run_once

from repro.analysis.bench import BENCHES

BENCH = BENCHES["failover"]


def test_e20_failover_bench(benchmark, report):
    result = run_once(benchmark, BENCH.run)
    report(BENCH.table(result))
    problems = BENCH.check(result)
    assert not problems, "\n".join(problems)
