"""Single-entry-point regeneration of the benchmark artifacts.

``repro bench report`` regenerates **both** checked-in / CI-uploaded
artifacts deterministically:

* ``benchmark_report.txt`` — every experiment table, in the fixed
  section order of :data:`SECTION_KEYS`, each under a stable
  ``=== key ===`` banner with a mode annotation in the header.  One
  writer, one ordering: the regeneration drift that used to creep in
  when ``pytest benchmarks/`` rewrote the file in collection order
  cannot recur (the benchmark suite no longer writes it);
* ``BENCH_<n>.json`` (``n`` = :data:`BENCH_INDEX`, overridable with
  ``repro bench report --out``) — the machine-readable perf trajectory:
  per-engine
  op-count/rotation/peak-live profiles for the serve workload plus
  every experiment's rows (ms/query, wall clock, throughput, backend,
  engine), uploaded by CI on every run.

Quick mode (``--quick`` or ``REPRO_BENCH_QUICK=1``) trims workload sets
and query counts exactly like the benchmark suite's quick mode; the
report structure — section banners, table titles of mode-independent
sections, column sets — is identical, which is what
``tests/bench/test_report.py`` locks against the checked-in file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fhe.backend import canonical_backend_name
from repro.bench_harness import experiments
from repro.bench_harness.report import Table

REPORT_PATH = "benchmark_report.txt"
#: Index of the current perf-trajectory artifact.  Bumped whenever a PR
#: changes what the trajectory records (new sections, new profile
#: fields) so successive ``BENCH_<n>.json`` files remain comparable
#: within an index and the trajectory across PRs stays append-only.
BENCH_INDEX = 10
BENCH_JSON_PATH = f"BENCH_{BENCH_INDEX}.json"
BENCH_SCHEMA = 1
#: The consolidated cross-PR trajectory artifact (see
#: :func:`generate_trajectory`).
TRAJECTORY_JSON_PATH = "BENCH_TRAJECTORY.json"

#: Canonical section order.  Append-only by convention: a new experiment
#: gets a new banner at the position that reads best, and the checked-in
#: report is regenerated in the same change.
SECTION_KEYS = (
    "table6",
    "table1",
    "table2",
    "table5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "throughput",
    "plan-speedup",
    "tape-speedup",
    "megakernel-speedup",
    "backend-speedup",
    "soak",
    "trace-overhead",
    "cluster-speedup",
    "autoscale",
    "chaos",
)

#: Sections whose rendered titles do not depend on quick mode — the
#: structure test regenerates these cheaply and compares them verbatim.
MODE_INDEPENDENT_SECTIONS = ("table6", "table5", "plan-speedup")


def quick_mode_default() -> bool:
    """Quick mode as the benchmark suite defines it (env-driven)."""
    return os.environ.get("REPRO_BENCH_QUICK", "").lower() not in (
        "", "0", "false", "no",
    )


def _micro_names() -> List[str]:
    from repro.bench_harness.workloads import microbenchmark_workloads

    return [w.name for w in microbenchmark_workloads()]


def build_section(key: str, quick: bool) -> List[Table]:
    """Compute one section's tables (deterministic given the mode)."""
    fig_names = _micro_names() if quick else None
    if key == "table6":
        return [experiments.table6()]
    if key == "table1":
        return experiments.table1(workload_name="width78", queries=1)
    if key == "table2":
        return [experiments.table2(workload_name="width78")]
    if key == "table5":
        return [experiments.table5()]
    if key == "fig6":
        return [experiments.figure6(queries=1, workload_names=fig_names)]
    if key == "fig7":
        return [experiments.figure7(queries=1, workload_names=fig_names)]
    if key == "fig8":
        return [experiments.figure8(queries=1, workload_names=fig_names)]
    if key == "fig9":
        return [experiments.figure9(queries=1, workload_names=fig_names)]
    if key == "fig10":
        return experiments.figure10(queries=1)
    if key == "throughput":
        return [
            experiments.throughput(
                workload_name="width78", queries=8 if quick else 16
            )
        ]
    if key == "plan-speedup":
        return [experiments.plan_speedup(workload_name="width78", queries=2)]
    if key == "tape-speedup":
        return [
            experiments.tape_speedup(
                workload_name="width78", repeats=3 if quick else 5
            )
        ]
    if key == "megakernel-speedup":
        return [
            experiments.megakernel_speedup(
                workload_name="width78", repeats=3 if quick else 5
            )
        ]
    if key == "backend-speedup":
        return [
            experiments.backend_speedup(
                workload_name="width78", queries=2 if quick else 8
            )
        ]
    if key == "soak":
        return [
            experiments.soak(
                workload_name="width78", queries=600 if quick else 2000
            )
        ]
    if key == "trace-overhead":
        return [
            experiments.tracing_overhead(
                workload_name="width78", repeats=2 if quick else 3
            )
        ]
    if key == "cluster-speedup":
        return [
            experiments.cluster_speedup(
                workload_name="width78",
                workers=(1, 2) if quick else (1, 2, 4),
                batches=2 if quick else 4,
            )
        ]
    if key == "autoscale":
        # Virtual-clock simulation: quick mode needs no trimming (the
        # full three-phase ramp runs in a couple of seconds) and the
        # section stays byte-identical across modes.
        return [experiments.autoscale(workload_name="width78")]
    if key == "chaos":
        # Also virtual-clock: the full 3x-run acceptance soak (chaos,
        # replay, fault-free twin) costs a couple of seconds, so quick
        # mode needs no trimming here either.
        return [experiments.chaos(workload_name="width78")]
    raise KeyError(f"unknown report section {key!r}")


def _json_cell(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, float):
        return round(value, 6)
    return value


def _table_record(key: str, table: Table) -> Dict:
    return {
        "section": key,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_json_cell(c) for c in row] for row in table.rows],
        "notes": list(table.notes),
    }


def engine_profiles(workload_name: str = "width78") -> List[Dict]:
    """Per-engine op-count/rotation profiles of the serve workload.

    One record per (lowering, engine): the single-query and batched
    plan profiles plus the compiled tape's (with its peak-live and
    instruction metrics) — the static half of the perf trajectory.
    """
    from repro.bench_harness.workloads import workload_by_name
    from repro.fhe.costmodel import CostModel
    from repro.fhe.params import EncryptionParams
    from repro.ir.plan import lower_batched_inference, lower_inference
    from repro.serve.packing import plan_layout

    params = EncryptionParams.paper_defaults()
    cost_model = CostModel(params)
    compiled = workload_by_name(workload_name).compiled
    layout = plan_layout(compiled, params)

    records: List[Dict] = []

    def profile_record(shape, engine, profile, extra=None):
        record = {
            "workload": workload_name,
            "shape": shape,
            "engine": engine,
            "op_counts": {
                op.value: n for op, n in sorted(
                    profile.counts.items(), key=lambda kv: kv[0].value
                )
            },
            "rotations": profile.rotations,
            "depth": profile.depth,
            "cost_ms": round(profile.cost_ms(cost_model), 4),
        }
        if extra:
            record.update(extra)
        records.append(record)

    from repro.ir.megakernel import compile_megakernel

    def megakernel_record(shape, tape):
        kernel = compile_megakernel(tape)
        profile_record(
            shape, "megakernel", kernel.profile,
            {
                "peak_live": kernel.peak_live,
                "slots": kernel.num_slots,
                "instructions": kernel.num_instructions,
                "segments": kernel.num_segments,
                "steps": kernel.num_blocks,
                "register_rows": kernel.num_rows,
                "live_rows": kernel.data_rows,
                "resident_rows": kernel.resident_rows,
                "supported": kernel.supported,
            },
        )

    for shape, plan in (
        ("single", lower_inference(compiled)),
        ("batched", lower_batched_inference(compiled, layout)),
    ):
        profile_record(shape, "plan", plan.optimized)
        tape = plan.compile_tape()
        profile_record(
            shape, "tape", tape.profile,
            {
                "peak_live": tape.peak_live,
                "slots": tape.num_slots,
                "instructions": tape.num_instructions,
            },
        )
        megakernel_record(shape, tape)
    return records


def tape_profile(workload_name: str = "width78") -> Dict:
    """One profiled batched-tape run, as the profiler's JSON record.

    Folded into ``BENCH_*.json`` so the trajectory carries per-opcode
    wall/op/noise attribution next to the static engine profiles.  Op
    counts and noise depths are deterministic (the circuits are
    input-independent); wall milliseconds are the run's measurement.
    """
    from repro.fhe.context import FheContext
    from repro.fhe.params import EncryptionParams
    from repro.ir.plan import bind_model_query
    from repro.obs.profiler import TapeProfiler
    from repro.bench_harness.workloads import workload_by_name
    from repro.serve.batched_runtime import encrypt_batch
    from repro.serve.registry import ModelRegistry

    workload = workload_by_name(workload_name)
    params = EncryptionParams.paper_defaults()
    registered = ModelRegistry().register(
        f"profile-{workload_name}", workload.compiled, params=params,
        engine="tape",
    )
    ctx = FheContext(params, backend=registered.backend)
    queries = workload.query_features(registered.layout.capacity)
    query = encrypt_batch(ctx, registered.layout, queries, registered.keys)
    bindings = bind_model_query(
        ctx,
        registered.tape.input_widths,
        registered.tape.encrypted_model,
        registered.tape.model_fingerprint,
        registered.batched_model,
        query,
    )
    profiler = TapeProfiler()
    registered.tape.execute(ctx, bindings, profiler=profiler)
    record = profiler.as_dict()
    record["workload"] = workload_name
    record["shape"] = "batched"
    return record


def render_report(
    sections: Dict[str, List[Table]], quick: bool
) -> str:
    """Render collected sections in canonical order with banners."""
    mode = "quick" if quick else "full"
    lines = [
        "# COPSE benchmark report",
        "# regenerated by: PYTHONPATH=src python -m repro bench report",
        f"# mode: {mode} (quick trims workloads/queries; the section "
        f"structure is identical)",
    ]
    for key in SECTION_KEYS:
        if key not in sections:
            continue
        lines.append("")
        lines.append(f"=== {key} ===")
        for table in sections[key]:
            lines.append("")
            lines.append(table.render())
    return "\n".join(lines) + "\n"


def generate_report(
    quick: Optional[bool] = None,
    sections: Optional[Sequence[str]] = None,
    report_path: Optional[str] = REPORT_PATH,
    json_path: Optional[str] = BENCH_JSON_PATH,
) -> List[str]:
    """Regenerate the benchmark report (and BENCH_<n>.json); returns the
    written paths.  ``sections`` restricts regeneration (used by the
    structure test); the JSON artifact is only written for full-section
    runs, so a partial regeneration can never publish a partial
    trajectory.  Pass ``report_path=None``/``json_path=None`` to skip
    writing and just compute.
    """
    if quick is None:
        quick = quick_mode_default()
    keys = tuple(sections) if sections is not None else SECTION_KEYS
    unknown = set(keys) - set(SECTION_KEYS)
    if unknown:
        raise KeyError(f"unknown report sections: {sorted(unknown)}")

    built: Dict[str, List[Table]] = {}
    for key in SECTION_KEYS:
        if key in keys:
            built[key] = build_section(key, quick)

    written: List[str] = []
    text = render_report(built, quick)
    if report_path is not None:
        with open(report_path, "w") as handle:
            handle.write(text)
        written.append(report_path)

    if json_path is not None and set(keys) == set(SECTION_KEYS):
        artifact = os.path.splitext(os.path.basename(json_path))[0]
        payload = {
            "schema": BENCH_SCHEMA,
            "artifact": artifact,
            "mode": "quick" if quick else "full",
            "default_backend": canonical_backend_name(),
            "engine_profiles": engine_profiles(),
            "tape_profile": tape_profile(),
            "experiments": [
                _table_record(key, table)
                for key in SECTION_KEYS
                for table in built[key]
            ],
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(json_path)
    return written


def _validate_bench_payload(path: str, payload) -> None:
    """Schema check for one ``BENCH_<n>.json`` (fail with the path)."""
    from repro.errors import ValidationError

    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: not a JSON object")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValidationError(
            f"{path}: schema {payload.get('schema')!r} != {BENCH_SCHEMA}"
        )
    for field in ("artifact", "mode", "default_backend", "experiments"):
        if field not in payload:
            raise ValidationError(f"{path}: missing field {field!r}")
    for record in payload["experiments"]:
        for field in ("section", "title", "columns", "rows"):
            if field not in record:
                raise ValidationError(
                    f"{path}: experiment record missing {field!r}"
                )
        width = len(record["columns"])
        for row in record["rows"]:
            if len(row) != width:
                raise ValidationError(
                    f"{path}: section {record['section']!r} row width "
                    f"{len(row)} != {width} columns"
                )


def discover_bench_artifacts(directory: str = ".") -> List[Tuple[int, str]]:
    """``(index, path)`` for every ``BENCH_<n>.json`` present, sorted by
    index.  The consolidated trajectory file itself never matches."""
    import glob
    import re

    found = []
    for path in glob.glob(os.path.join(directory, "BENCH_*.json")):
        match = re.fullmatch(
            r"BENCH_(\d+)\.json", os.path.basename(path)
        )
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def generate_trajectory(
    directory: str = ".",
    json_path: Optional[str] = TRAJECTORY_JSON_PATH,
) -> Tuple[Optional[str], Table]:
    """Consolidate every ``BENCH_<n>.json`` into the cross-PR trajectory.

    Globs ``BENCH_<n>.json`` under ``directory``, validates each payload
    against the bench schema (a malformed artifact fails loudly with its
    path — the trajectory never silently skips), and writes
    ``BENCH_TRAJECTORY.json``: one entry per index carrying the full
    experiment tables plus the headline batched-tape profile, so a
    regression between trajectory indices is diffable from one file.
    Returns ``(written_path_or_None, summary_table)``.
    """
    from repro.errors import ValidationError

    artifacts = discover_bench_artifacts(directory)
    if not artifacts:
        raise ValidationError(
            f"no BENCH_<n>.json artifacts found under {directory!r}"
        )

    entries: List[Dict] = []
    table = Table(
        title=(
            f"Perf trajectory: {len(artifacts)} BENCH_<n>.json "
            f"artifact{'s' if len(artifacts) != 1 else ''} consolidated"
        ),
        columns=[
            "index",
            "mode",
            "backend",
            "sections",
            "tables",
            "tape_instr",
            "tape_peak_live",
            "tape_cost_ms",
        ],
    )
    for index, path in artifacts:
        with open(path) as handle:
            payload = json.load(handle)
        _validate_bench_payload(path, payload)
        sections = sorted({
            record["section"] for record in payload["experiments"]
        })
        tape = next(
            (
                record
                for record in payload.get("engine_profiles", [])
                if record.get("shape") == "batched"
                and record.get("engine") == "tape"
            ),
            None,
        )
        entries.append({
            "index": index,
            "artifact": payload["artifact"],
            "mode": payload["mode"],
            "default_backend": payload["default_backend"],
            "sections": sections,
            "experiments": payload["experiments"],
            "batched_tape_profile": tape,
        })
        table.add_row(
            index,
            payload["mode"],
            payload["default_backend"],
            len(sections),
            len(payload["experiments"]),
            tape["instructions"] if tape else "-",
            tape["peak_live"] if tape else "-",
            tape["cost_ms"] if tape else "-",
        )
    table.add_note(
        "indices are append-only across PRs; within an index the "
        "section set is fixed, so row-level diffs between files of the "
        "same index are real regressions"
    )

    written = None
    if json_path is not None:
        payload = {
            "schema": BENCH_SCHEMA,
            "artifact": "BENCH_TRAJECTORY",
            "entries": entries,
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written = json_path
    return written, table


def report_structure(text: str) -> List[Tuple[str, str]]:
    """(banner, first table title) pairs of a rendered report — the
    shape the structure test compares."""
    structure: List[Tuple[str, str]] = []
    banner = None
    want_title = False
    for line in text.splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            banner = line[4:-4]
            want_title = True
            continue
        if want_title and line and not line.startswith("#"):
            structure.append((banner, line))
            want_title = False
    return structure
