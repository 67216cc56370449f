"""Shared benchmark configuration.

Each benchmark file regenerates one artifact of the paper's evaluation
(Section 8).  ``benchmark.extra_info`` carries the *simulated* FHE times
(the paper's metric); the pytest-benchmark wall-clock numbers measure the
simulator itself and are not compared to the paper.

Run with::

    pytest benchmarks/ --benchmark-only

The rendered tables are printed once per session at the end (captured by
pytest unless ``-s`` is passed).
"""

from __future__ import annotations

import os

import pytest

from repro.bench_harness.workloads import (
    all_workloads,
    microbenchmark_workloads,
    workload_by_name,
)

#: CI quick mode: set ``REPRO_BENCH_QUICK=1`` to trim the benchmark
#: suite (single query per run, one real-world model) so the tier-1 job
#: stays under the workflow time limit.  "0"/"false"/"no" (and unset)
#: mean full mode.
QUICK_MODE = os.environ.get("REPRO_BENCH_QUICK", "").lower() not in (
    "", "0", "false", "no",
)

#: Query count per benchmark run.  The circuits are input-independent, so
#: simulated times are identical across queries; 2 exercises correctness
#: on distinct inputs while keeping the suite quick.  Set to 27 for the
#: paper's full median protocol.
BENCH_QUERIES = 1 if QUICK_MODE else 2

MICRO_NAMES = [w.name for w in microbenchmark_workloads()]
ALL_NAMES = [w.name for w in all_workloads()]

#: The subset of real-world models exercised per-benchmark (the full set
#: appears in the figure tables, which are computed once per session).
REAL_SUBSET = ["soccer5"] if QUICK_MODE else ["soccer5", "income15"]


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered tables and prints them at the end of the
    session (visible with ``-s``).

    The benchmark suite writes no file: the checked-in record
    (``tests/bench/paper_record.json``) has one writer,
    ``PYTHONPATH=src python -m repro bench report --out`` (see
    ``repro.bench_harness.report_gen``), so its content can never
    depend on which benchmarks ran or in what order."""
    tables = []
    yield tables
    if tables:
        print("\n\n" + "\n\n".join(tables) + "\n")


def workload(name):
    return workload_by_name(name)
