"""E22 — HTTP-path throughput/latency on the asyncio runtime backend.

A concurrent HTTP workload against the served system, with one agent
home hard-killed (socket blackhole + crash) mid-run: every update must
still commit via front-door queue-and-retry riding the supervisor's
failover, and the §4.4 audit over the live trace must be clean.  Real
clocks and sockets mean absolute rates vary by machine, so the gate
against the committed ``BENCH_serve.json`` checks schema and sanity
(all commits land, throughput positive, p50 <= p99, audit ok), never
exact numbers; regenerate with ``python -m repro bench serve --json
BENCH_serve.json`` after intentional changes.
"""

from conftest import run_once

from repro.analysis.bench import BENCHES

BENCH = BENCHES["serve"]


def test_e22_serve_bench(benchmark, report):
    result = run_once(benchmark, BENCH.run)
    report(BENCH.table(result))
    problems = BENCH.check(result)
    assert not problems, "\n".join(problems)
    assert result["failovers"] >= 1, (
        "the hard kill must be carried by a supervisor failover"
    )
