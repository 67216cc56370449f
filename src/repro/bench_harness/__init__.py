"""Benchmark harness regenerating the paper's evaluation (Section 8).

* :mod:`repro.bench_harness.workloads` — the 8 Table 6 microbenchmarks
  and the 4 real-world models (income5/15, soccer5/15);
* :mod:`repro.bench_harness.runner` — the 27-query median protocol with
  per-phase timing, for both COPSE and the baseline, each query through
  its system's end-to-end driver;
* :mod:`repro.bench_harness.experiments` — one entry point per paper
  artifact (``figure6()`` ... ``figure10()``, ``table1()`` ...
  ``table6()``);
* :mod:`repro.bench_harness.report` — plain-text table rendering;
* :mod:`repro.bench_harness.report_gen` — the ``ARTIFACTS`` table and
  the paper record built from it (``repro bench report``).
"""

from repro.bench_harness.workloads import (
    Workload,
    all_workloads,
    microbenchmark_workloads,
    real_world_workloads,
    workload_by_name,
)
from repro.bench_harness.runner import (
    ExperimentRecord,
    InferenceRunner,
    RunnerConfig,
)
from repro.bench_harness import experiments
from repro.bench_harness.report import Table, geometric_mean

__all__ = [
    "Workload",
    "all_workloads",
    "microbenchmark_workloads",
    "real_world_workloads",
    "workload_by_name",
    "InferenceRunner",
    "RunnerConfig",
    "ExperimentRecord",
    "experiments",
    "Table",
    "geometric_mean",
]
