"""One batch-evaluation routine: the batcher and the worker cannot drift.

``QueryBatcher.evaluate`` (in-process serving) and
``repro.serve.worker.evaluate_batch`` (the cluster worker, fed a model
that crossed the pickle boundary) both run
``evaluate_registered_batch``; on the same model and features they must
produce the same bits, the same cost-model numbers and the same
per-phase operation counts — for every engine and SecComp variant.
"""

import pickle

import pytest

from repro.core.engines import ENGINES, engine_row
from repro.core.seccomp import SECCOMP_VARIANTS
from repro.serve.batched_runtime import evaluate_registered_batch
from repro.serve.batcher import CutBatch, QueryBatcher
from repro.serve.registry import ModelRegistry
from repro.serve.transport import ShippedModel
from repro.serve.worker import evaluate_batch

FEATURES = [[40, 200], [0, 255], [130, 7]]  # a partial batch of 3/4


@pytest.mark.parametrize("variant", SECCOMP_VARIANTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_batcher_and_worker_agree(example_forest, engine, variant):
    registered = ModelRegistry().register(
        "m", example_forest, max_batch_size=4, engine=engine,
        seccomp_variant=variant,
    )
    shipped = pickle.loads(
        pickle.dumps(ShippedModel.from_registered(registered))
    ).to_registered()
    assert shipped.seccomp_variant == variant

    batcher = QueryBatcher(registered)
    batch = CutBatch(
        batch_id=1, entries=[batcher.prepare(f) for f in FEATURES]
    )
    record = batcher.evaluate(batch)
    results = [entry.future.result(timeout=0) for entry in batch.entries]

    (bitvectors, phase_ms, inference_ms, data_encrypt_ms,
     oracle_ok) = evaluate_batch(shipped, FEATURES, verify_oracle=True)

    assert [r.bitvector for r in results] == bitvectors
    assert bitvectors == [
        example_forest.label_bitvector(f) for f in FEATURES
    ]
    assert [r.oracle_ok for r in results] == oracle_ok == [True] * 3
    assert record.oracle_failures == 0
    assert record.phase_ms == phase_ms
    assert set(phase_ms) == {"data_encrypt", *engine_row(engine).phases}
    assert record.inference_ms == inference_ms > 0
    assert record.data_encrypt_ms == data_encrypt_ms > 0
    assert all(r.amortized_ms == inference_ms / 3 for r in results)

    twin = evaluate_registered_batch(shipped, FEATURES)
    assert twin.engine == engine and twin.oracle_ok is None
    assert record.tracker.phases == twin.tracker.phases
    for phase in record.tracker.phases:
        assert (
            record.tracker.phase_stats(phase).counts
            == twin.tracker.phase_stats(phase).counts
        )
