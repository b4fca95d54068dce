"""E20/E21 — write availability with and without the supervisor, from
the client and from the availability accountant.

One seeded workload, every agent's home crash-stopped mid-run.  With
the supervisor armed every logical update commits (failover bounds the
outage; clients resubmit through it) and the lineage audit — including
epoch fencing — stays clean; without it, updates against the dead
homes stay blocked for the rest of the run.  Each mode runs with the
timeline sampler armed and the accountant replaying the trace: the
timeline dump hashes identically across two runs of the seed, every
accountant crash window opens at the kill and closes no later than the
client's first-commit window, and the supervised/unsupervised contrast
reproduces from the accountant alone.  The record is deterministic and
compared field-for-field against the committed
``BENCH_availability.json``; regenerate with ``python -m repro bench
availability --json BENCH_availability.json`` after intentional
changes.
"""

from conftest import run_once

from repro.analysis.bench import BENCHES

BENCH = BENCHES["availability"]


def test_e20_availability_bench(benchmark, report):
    result = run_once(benchmark, BENCH.run)
    report(BENCH.table(result))
    problems = BENCH.check(result)
    assert not problems, "\n".join(problems)
