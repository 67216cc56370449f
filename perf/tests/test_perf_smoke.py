"""Plumbing check for the repo benchmark (collected by the tier-1 command).

``run.py --smoke`` drives all five workloads, untraced and traced, with
tiny counts; nothing here asserts a speed.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: The pieces of one batch evaluation, each timed on its own by the
#: layer replay; none can take longer than the whole, give or take the
#: noise between two medians of three samples.
PART_SLACK = 1.25
BATCH_PARTS = (
    "serve.packing.pack_encrypt_us_per_batch",
    "ir.execute_us_per_batch.megakernel",
    "fhe.decrypt_us_per_batch",
    "serve.packing.demux_us_per_batch",
)


def _load(module):
    spec = importlib.util.spec_from_file_location(
        f"perf_{module}", os.path.join(PERF, f"{module}.py")
    )
    loaded = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = loaded
    spec.loader.exec_module(loaded)
    return loaded


def test_inputs_follow_the_seed():
    inputs = _load("inputs")
    model = inputs.load_model("width78")
    assert inputs.make_queries(model, 64, 5) == inputs.make_queries(model, 64, 5)
    assert inputs.make_queries(model, 64, 5) != inputs.make_queries(model, 64, 6)
    assert inputs.poisson_due_times(64, 1000.0, 5) == inputs.poisson_due_times(64, 1000.0, 5)
    assert inputs.poisson_due_times(64, 1000.0, 5) != inputs.poisson_due_times(64, 1000.0, 6)
    assert len(inputs.model_names()) == 10


def test_smoke_run_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--smoke", "--trace", "1",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(out) as handle:
        runs = json.load(handle)["runs"]

    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in workloads for t in (0, 1)
    )
    for name in workloads + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]:
        assert NAME.match(name), name
    for run in runs:
        where = (run["workload"], run["trace"])
        declared = spec["per_layer" if run["trace"] else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared], where
        for metric in declared:
            got = run["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (where, metric["name"])
            assert math.isfinite(got["value"]) and got["value"] >= 0, (where, metric["name"])
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, where
        if not run["trace"]:
            assert all(v["value"] > 0 for v in run["metrics"].values()), where
        elif run["workload"] != "stage-suite":
            whole = run["metrics"]["serve.batcher.evaluate_us_per_batch"]["value"]
            for part in BATCH_PARTS:
                part_us = run["metrics"][part]["value"]
                assert 0 < part_us <= whole * PART_SLACK, (where, part)
            assert os.path.exists(os.path.join(PERF, "out", f"trace-{run['workload']}.json"))
