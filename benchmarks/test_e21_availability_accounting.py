"""E21 — the availability accountant's books against E20's ground truth.

The E20 workload re-runs with the timeline sampler armed and the
accountant replaying the trace.  The gates prove the observability
layer: the timeline dump hashes identically across two runs of the
seed, every accountant crash window opens at the kill and closes no
later than the behaviorally measured first-commit window, and the
supervised/unsupervised contrast reproduces from the accountant alone.
The record is deterministic and compared field-for-field against the
committed ``BENCH_obs.json``; regenerate with ``python -m repro bench
accounting --json BENCH_obs.json`` after intentional changes.
"""

from conftest import run_once

from repro.analysis.bench import BENCHES

BENCH = BENCHES["accounting"]


def test_e21_availability_accounting_bench(benchmark, report):
    result = run_once(benchmark, BENCH.run)
    report(BENCH.table(result))
    problems = BENCH.check(result)
    assert not problems, "\n".join(problems)
