"""E17 — checkpoint & rejoin cost: full replay vs delta vs snapshot.

E14 established that crash/recover converges; this bench measures what
the convergence *costs* under the three recovery configurations of
:mod:`repro.analysis.recovery_bench` — the same seeded workload, one
replica down from 30% of the horizon until after the traffic ends:

* ``full`` (subsystem disarmed) replays the whole WAL and retains the
  whole archive forever;
* ``checkpoint`` (watermark pinned by the downed replica) restores
  checkpoint + WAL suffix and ships only the missed delta;
* ``snapshot`` (grace elapsed, logs compacted past the rejoiner)
  ships a checkpoint plus the retained tail.

The gates check the subsystem's bounded-logs contract: bytes shipped
scale with the gap (or fragment size), not run history, and retained
state under checkpointing is a fraction of the disarmed baseline.  The
record is deterministic and compared field-for-field against the
committed ``BENCH_recovery.json``; regenerate with ``python -m repro
bench recovery --json BENCH_recovery.json`` after intentional changes.
"""

from conftest import run_once

from repro.analysis.bench import BENCHES

BENCH = BENCHES["recovery"]


def test_e17_checkpoint_recovery(benchmark, report):
    result = run_once(benchmark, BENCH.run)
    report(BENCH.table(result))
    problems = BENCH.check(result)
    assert not problems, "\n".join(problems)
