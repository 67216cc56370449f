"""The paper record: every deterministic evaluation table, one reference.

The paper's evaluation (Section 8) is stated in *simulated FHE cost* —
op counts, depth, cost-model milliseconds — which this package computes
deterministically, so the record is compared **exactly**:
``tests/bench/paper_record.json`` is the one checked-in reference and
``tests/bench/test_paper_record.py`` rebuilds every section and compares
it cell for cell.  Host wall-clock questions (engine tiers, tracer
overhead, pool size) are ``perf/``'s, measured there with repeats and
spread; nothing in this package reads a clock.

:data:`ARTIFACTS` is the single table of what the record holds: the
section order, the arguments each section is built with, ``repro
bench``'s artifact names and which of ``--workloads`` / ``--queries``
each accepts are all views of it.  ``repro bench report`` is the only
writer (tables to stdout, then :mod:`~repro.bench_harness.claims`'
table of the paper's claims checked against them; ``--out PATH`` for
the JSON).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import ValidationError
from repro.fhe.backend import BACKEND_ENV_VAR, REFERENCE_BACKEND
from repro.bench_harness import experiments
from repro.bench_harness.claims import claims_table
from repro.bench_harness.report import Table


@dataclass(frozen=True)
class Artifact:
    """One section of the record.

    ``args`` are the fixed keyword arguments the record is built with
    (they are also ``repro bench``'s defaults); ``accepts`` names the
    keywords a caller may override: ``workload_names`` (all of
    ``--workloads``), ``workload_name`` (its first), ``queries``.
    """

    run: Callable
    args: Mapping[str, object]
    accepts: Tuple[str, ...] = ()


_WIDTH78 = {"workload_name": "width78"}
_FIGURE = ({"queries": 1}, ("workload_names", "queries"))

#: The record's sections, in order: the paper's evaluation tables and
#: figures (Section 8), each read by a row of :data:`claims.CLAIMS`.
#: A new section needs such a row; a section that checks no claim has
#: its lock in a test of its own, not here.
ARTIFACTS: Dict[str, Artifact] = {
    "table6": Artifact(experiments.table6, {}),
    "table1": Artifact(experiments.table1, _WIDTH78, ("workload_name",)),
    "table2": Artifact(experiments.table2, _WIDTH78, ("workload_name",)),
    "table5": Artifact(experiments.table5, {}),
    "fig6": Artifact(experiments.figure6, *_FIGURE),
    "fig7": Artifact(experiments.figure7, *_FIGURE),
    "fig8": Artifact(experiments.figure8, *_FIGURE),
    "fig9": Artifact(experiments.figure9, *_FIGURE),
    "fig10": Artifact(experiments.figure10, {"queries": 1}, ("queries",)),
}


def build_section(
    name: str,
    workloads: Optional[Sequence[str]] = None,
    queries: Optional[int] = None,
) -> List[Table]:
    """One section's tables: the record's arguments, overridden by
    ``workloads`` / ``queries``.  A section that does not accept one of
    them refuses it: a flag that would change nothing is a mistake."""
    row = ARTIFACTS.get(name)
    if row is None:
        raise ValidationError(
            f"unknown section {name!r}; expected one of {tuple(ARTIFACTS)}"
        )
    for flag, given, keys in (
        ("--workloads", bool(workloads), ("workload_names", "workload_name")),
        ("--queries", queries is not None, ("queries",)),
    ):
        if given and not set(keys) & set(row.accepts):
            raise ValidationError(
                f"section {name!r} does not take {flag}: its tables do "
                f"not depend on it"
            )
    if workloads and len(workloads) > 1 and "workload_name" in row.accepts:
        raise ValidationError(
            f"section {name!r} takes one workload in --workloads, got "
            f"{len(workloads)}"
        )
    offered = {
        "workload_names": workloads or None,
        "workload_name": workloads[0] if workloads else None,
        "queries": queries,
    }
    kwargs = dict(row.args)
    kwargs.update(
        (key, offered[key]) for key in row.accepts
        if offered[key] is not None
    )
    result = row.run(**kwargs)
    return result if isinstance(result, list) else [result]


@contextlib.contextmanager
def pinned_backend(name: str) -> Iterator[None]:
    """Make ``name`` the process-default FHE backend for the block,
    restoring the previous default after — the experiment pipelines
    build many contexts internally, and the process default is what
    threads a choice through all of them."""
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous


def _json_cell(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, float):
        return round(value, 6)
    return value


def engine_profiles(workload_name: str = "width78") -> List[Dict]:
    """Per-engine op-count/rotation profiles of the serve workload.

    One record per (lowering, engine): the single-query and batched
    plan profiles plus the compiled tape's (with its peak-live and
    instruction metrics) and the megakernel's.
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


def build_sections() -> Dict[str, List[Table]]:
    """Every section, built with the record's arguments.

    Always under the ``reference`` backend, whatever the process
    default: only its tracker keeps the parallel-time estimate Figures
    7 and 8 report, so another default would change the record.
    """
    with pinned_backend(REFERENCE_BACKEND):
        return {name: build_section(name) for name in ARTIFACTS}


def build_record(sections: Dict[str, List[Table]]) -> Dict:
    """``sections`` plus the engine profiles, as the JSON-able record."""
    return {
        "engine_profiles": engine_profiles(),
        "experiments": [
            {
                "section": name,
                "title": table.title,
                "columns": list(table.columns),
                "rows": [[_json_cell(c) for c in row] for row in table.rows],
                "notes": list(table.notes),
            }
            for name, tables in sections.items()
            for table in tables
        ],
    }


def read_sections(record: Mapping) -> Dict[str, List[Table]]:
    """The record's tables by section: :func:`build_record` read back."""
    sections: Dict[str, List[Table]] = {}
    for table in record["experiments"]:
        sections.setdefault(table["section"], []).append(Table(
            table["title"], list(table["columns"]), table["rows"],
            list(table["notes"]),
        ))
    return sections


def render_report(sections: Dict[str, List[Table]]) -> str:
    """Every table as text, one ``=== section ===`` banner per section,
    then the paper's claims checked against them."""
    lines = ["# COPSE paper record (python -m repro bench report)"]
    for name, tables in sections.items():
        lines += ["", f"=== {name} ==="]
        for table in tables:
            lines += ["", table.render()]
    lines += ["", "=== claims ===", "", claims_table(sections).render()]
    return "\n".join(lines) + "\n"


def write_record(record: Dict, path: str) -> None:
    """One cell per line, so a changed cell is a one-line diff."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
