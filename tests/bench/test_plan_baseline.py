"""Regression guard for the optimized inference plans and compiled tapes.

``plan_baseline.json`` pins, per workload, the optimized plan's op
counts, multiplicative depth, and cost-model milliseconds (plus the
unoptimized lowering's, to keep the optimizer's win visible), and the
compiled tape's profile: op counts after rotation scheduling, peak live
ciphertext slots, register count, and instruction count.  A tier-1
failure here means a change made the optimizer *worse* on the live
workloads: any op-count increase, a cost regression beyond 5 %, or a
peak-live/instruction-count increase fails — getting strictly better
requires regenerating the baseline.  The tape guard additionally holds
the scheduler to its claim: tape rotations strictly below the plan's on
the batched serve lowering, and never above it anywhere.

Regenerate after an intentional improvement with::

    PYTHONPATH=src python tests/bench/test_plan_baseline.py

The baselined workloads are Table 6 microbenchmarks (fast to compile),
plus the batched lowering of width78 at the paper parameters' full
capacity — the exact plan the serve registry caches.
"""

import json
from pathlib import Path

import pytest

from repro import lower_batched_inference, lower_inference
from repro.fhe.costmodel import CostModel
from repro.ir.megakernel import compile_megakernel
from repro.fhe.params import EncryptionParams
from repro.serve import plan_layout

BASELINE_PATH = Path(__file__).parent / "plan_baseline.json"

#: Cost regressions beyond this ratio fail (op-count increases always do).
COST_TOLERANCE = 1.05

SINGLE_WORKLOADS = ("depth4", "width78", "prec8")
BATCHED_WORKLOADS = ("width78",)


def _profile_dict(profile, cost_model):
    return {
        "counts": {op.value: n for op, n in sorted(
            profile.counts.items(), key=lambda kv: kv[0].value
        )},
        "num_nodes": profile.num_nodes,
        "depth": profile.depth,
        "cost_ms": round(profile.cost_ms(cost_model), 4),
    }


def _plan_entry(plan, cost_model):
    tape = plan.compile_tape()
    tape_profile = _profile_dict(tape.profile, cost_model)
    tape_profile.update(
        {
            "peak_live": tape.peak_live,
            "slots": tape.num_slots,
            "instructions": tape.num_instructions,
        }
    )
    kernel = compile_megakernel(tape)
    return {
        "optimized": _profile_dict(plan.optimized, cost_model),
        "raw": _profile_dict(plan.raw, cost_model),
        "tape": tape_profile,
        # The megakernel shares the tape's profile by construction, so
        # only its compiled-plane shape needs pinning.
        "megakernel": {
            "supported": kernel.supported,
            "segments": kernel.num_segments,
            "steps": kernel.num_blocks,
            "register_rows": kernel.num_rows,
            "live_rows": kernel.data_rows,
            "resident_rows": kernel.resident_rows,
        },
    }


def current_profiles():
    """Lower and profile every baselined plan (deterministic)."""
    from repro.bench_harness.workloads import workload_by_name

    params = EncryptionParams.paper_defaults()
    cost_model = CostModel(params)
    out = {}
    for name in SINGLE_WORKLOADS:
        compiled = workload_by_name(name).compiled
        out[name] = _plan_entry(lower_inference(compiled), cost_model)
    for name in BATCHED_WORKLOADS:
        compiled = workload_by_name(name).compiled
        layout = plan_layout(compiled, params)
        out[f"{name}@batched"] = _plan_entry(
            lower_batched_inference(compiled, layout), cost_model
        )
    return out


@pytest.fixture(scope="module")
def baseline():
    assert BASELINE_PATH.exists(), (
        f"{BASELINE_PATH} is missing; regenerate with "
        f"`python {Path(__file__).relative_to(Path.cwd())}`"
    )
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return current_profiles()


def test_baseline_covers_all_workloads(baseline, current):
    assert set(baseline) == set(current)


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_no_plan_regression(baseline, current, key):
    """Optimized-plan cost within 5 % of baseline, no op count up."""
    base = baseline[key]["optimized"]
    cur = current[key]["optimized"]
    assert cur["cost_ms"] <= base["cost_ms"] * COST_TOLERANCE, (
        f"{key}: optimized plan cost regressed "
        f"{base['cost_ms']:.2f} -> {cur['cost_ms']:.2f} ms"
    )
    assert cur["depth"] <= base["depth"], f"{key}: depth regressed"
    for op, count in cur["counts"].items():
        assert count <= base["counts"].get(op, 0), (
            f"{key}: op {op} count increased "
            f"{base['counts'].get(op, 0)} -> {count}"
        )


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_optimizer_strictly_wins(current, key):
    """The optimizer must keep beating the naive lowering: strictly
    fewer rotations and strictly lower cost (the ISSUE 2 acceptance
    bar for width78, held for every baselined workload)."""
    raw = current[key]["raw"]
    opt = current[key]["optimized"]

    def rotations(profile):
        return profile["counts"].get("rotate", 0) + profile["counts"].get(
            "extend", 0
        )

    assert rotations(opt) < rotations(raw), key
    assert opt["cost_ms"] < raw["cost_ms"], key
    assert opt["depth"] <= raw["depth"], key


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_no_tape_regression(baseline, current, key):
    """Tape cost within 5 % of baseline; no op-count, peak-live,
    register, or instruction-count increase."""
    base = baseline[key]["tape"]
    cur = current[key]["tape"]
    assert cur["cost_ms"] <= base["cost_ms"] * COST_TOLERANCE, (
        f"{key}: tape cost regressed "
        f"{base['cost_ms']:.2f} -> {cur['cost_ms']:.2f} ms"
    )
    assert cur["depth"] <= base["depth"], f"{key}: tape depth regressed"
    for metric in ("peak_live", "slots", "instructions"):
        assert cur[metric] <= base[metric], (
            f"{key}: tape {metric} regressed "
            f"{base[metric]} -> {cur[metric]}"
        )
    for op, count in cur["counts"].items():
        assert count <= base["counts"].get(op, 0), (
            f"{key}: tape op {op} count increased "
            f"{base['counts'].get(op, 0)} -> {count}"
        )


def _rotations(profile):
    return profile["counts"].get("rotate", 0) + profile["counts"].get(
        "extend", 0
    )


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_tape_never_loses_to_plan(current, key):
    """The rotation scheduler may only remove rotation work, and its
    register allocator must keep peak live ciphertexts below holding
    every intermediate (what the plan executor does)."""
    opt = current[key]["optimized"]
    tape = current[key]["tape"]
    assert _rotations(tape) <= _rotations(opt), key
    assert tape["cost_ms"] <= opt["cost_ms"], key
    assert tape["depth"] <= opt["depth"], key
    assert tape["peak_live"] < tape["num_nodes"], key


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_no_megakernel_regression(baseline, current, key):
    """Every baselined tape must keep compiling into the gather grammar
    (no silent tape-loop fallback), and the compiled plane may only
    shrink: fewer or equal segments, steps, and register rows (live
    per-run rows and resident model rows alike)."""
    base = baseline[key]["megakernel"]
    cur = current[key]["megakernel"]
    assert cur["supported"], f"{key}: megakernel fell back to the tape loop"
    for metric in (
        "segments", "steps", "register_rows", "live_rows", "resident_rows"
    ):
        assert cur[metric] <= base[metric], (
            f"{key}: megakernel {metric} regressed "
            f"{base[metric]} -> {cur[metric]}"
        )


@pytest.mark.parametrize(
    "key",
    list(SINGLE_WORKLOADS) + [f"{n}@batched" for n in BATCHED_WORKLOADS],
)
def test_megakernel_plane_bounded_by_liveness(current, key):
    """The register plane is liveness-sized: live rows (the per-run
    working set) plus the resident model rows bounded by the plane,
    live rows strictly below one-row-per-instruction, and the schedule
    never exceeds one step per instruction."""
    mk = current[key]["megakernel"]
    tape = current[key]["tape"]
    assert mk["live_rows"] + mk["resident_rows"] <= mk["register_rows"]
    assert mk["live_rows"] < tape["instructions"], key
    assert mk["segments"] <= mk["steps"] <= tape["instructions"], key


@pytest.mark.parametrize("key", [f"{n}@batched" for n in BATCHED_WORKLOADS])
def test_tape_strictly_beats_plan_on_batched_serve(current, key):
    """The ISSUE 5 acceptance bar: on the batched serve lowering the
    scheduled tape performs strictly fewer rotations than the plan."""
    assert _rotations(current[key]["tape"]) < _rotations(
        current[key]["optimized"]
    ), key


def regenerate() -> None:
    BASELINE_PATH.write_text(
        json.dumps(current_profiles(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    regenerate()
