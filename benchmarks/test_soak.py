"""Soak: deadline-aware scheduling under simulated multi-tenant load.

Unlike the figure benchmarks (simulated FHE ms), the artifact here is
*scheduling* behavior: p50/p99
latency and deadline-miss rate versus offered load, from the
deterministic virtual-clock simulation in `repro.serve.loadgen`.  The
pytest-benchmark wall-clock number measures the simulator's own cost of
replaying thousands of queries — the acceptance bound is that it stays
trivially cheap.
"""

from repro.bench_harness import experiments

from benchmarks.conftest import QUICK_MODE

SOAK_QUERIES = 600 if QUICK_MODE else 2000


def test_soak_width78(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: experiments.soak(
            workload_name="width78", queries=SOAK_QUERIES
        ),
        rounds=1,
        iterations=1,
    )

    loads = table.column("offered_load")
    assert loads == sorted(loads)
    p50 = table.column("p50_ms")
    p99 = table.column("p99_ms")
    miss = table.column("miss_rate")
    assert all(a <= b for a, b in zip(p50, p99))
    assert all(0.0 <= m <= 1.0 for m in miss)
    # Overload must actually engage admission control.
    assert table.column("rejected")[-1] > 0
    # Determinism: the same seed renders the identical table.
    again = experiments.soak(workload_name="width78", queries=SOAK_QUERIES)
    assert again.render() == table.render()

    benchmark.extra_info["p99_ms_at_0.9_load"] = p99[2]
    benchmark.extra_info["miss_rate_at_max_load"] = miss[-1]
    report_sink.append(table.render())
