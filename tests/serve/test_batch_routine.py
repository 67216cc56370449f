"""One batch-evaluation routine: the batcher and the worker cannot drift.

``QueryBatcher.evaluate`` (the pump thread's path) and
``repro.serve.worker.evaluate_batch`` (fed a model that crossed the
pickle boundary) both run ``evaluate_registered_batch``; on the same
model and features they must produce the same bits, the same
cost-model numbers and the same per-phase operation counts — for every
engine and SecComp variant.
"""

import pickle

import numpy as np
import pytest

from repro.core.engines import ENGINES, engine_row
from repro.core.runtime import InferenceResult
from repro.core.seccomp import SECCOMP_VARIANTS
from repro.errors import ValidationError
from repro.serve.batched_runtime import (
    evaluate_registered_batch,
    evaluate_registered_batches,
)
from repro.serve.batcher import (
    ClassificationResult,
    CutBatch,
    PendingQuery,
    QueryBatcher,
    classification_results,
)
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
    assert record.phase_op_counts == {
        phase: {
            kind.value: n
            for kind, n in twin.tracker.phase_stats(phase).counts.items()
        }
        for phase in twin.tracker.phases
    }
    assert list(record.phase_op_counts) == twin.tracker.phases


@pytest.mark.parametrize("oracle_ok", [None, [True, False, True]])
@pytest.mark.parametrize("wire", [list, tuple])  # the cluster sends tuples
def test_result_fan_out_equals_the_constructor(example_forest, wire,
                                               oracle_ok):
    """``classification_results`` fills the instances directly; each
    must be what the dataclass constructor builds, field for field and
    type for type."""
    registered = ModelRegistry().register(
        "m", example_forest, max_batch_size=4
    )
    spec = registered.spec
    bitvectors = [wire(example_forest.label_bitvector(f)) for f in FEATURES]
    built = classification_results(
        registered, 7, [wire(f) for f in FEATURES], wire(bitvectors), 4.5,
        oracle_ok,
    )
    wanted = [
        ClassificationResult(
            model="m",
            features=list(f),
            result=InferenceResult(
                list(bits), list(spec.codebook), list(spec.label_names)
            ),
            batch_id=7,
            batch_fill=3,
            batch_capacity=4,
            amortized_ms=1.5,
            oracle_ok=None if oracle_ok is None else oracle_ok[k],
        )
        for k, (f, bits) in enumerate(zip(FEATURES, bitvectors))
    ]
    assert built == wanted
    for result in built:
        assert type(result.features) is type(result.bitvector) is list
        assert vars(result).keys() == vars(wanted[0]).keys()
        with pytest.raises(Exception):  # still frozen
            result.batch_id = 8
    assert classification_results(registered, 1, [], [], 0.0, None) == []


def test_result_features_are_not_the_callers_list(example_forest):
    """A result's features are its own list, not the one the caller
    queued (which it may go on to change)."""
    batcher = QueryBatcher(
        ModelRegistry().register("m", example_forest, max_batch_size=4)
    )
    mine = list(FEATURES[0])
    entry = PendingQuery(mine)
    batcher.evaluate(CutBatch(batch_id=1, entries=[entry]))
    result = entry.future.result(timeout=0)
    assert result.features == mine and result.features is not mine


def test_an_oracle_error_fails_only_its_batch(example_forest):
    """The oracle walks all the batches of a call at once; when that
    walk raises, each batch walks alone, so the error fails the batch
    it comes from and the others are answered and verified."""
    registered = ModelRegistry().register(
        "m", example_forest, max_batch_size=4
    )

    class PoisonedOracle:
        def label_bitvectors(self, rows):
            rows = np.asarray(rows, dtype=np.int64)
            if (rows == 13).any():
                raise RuntimeError("oracle broke on 13")
            return example_forest.label_bitvectors(rows)

    registered.forest = PoisonedOracle()
    good, bad = FEATURES[:2], [[13, 7]]
    outcomes = evaluate_registered_batches(
        registered, [good, bad, good], verify_oracle=True
    )
    assert isinstance(outcomes[1], RuntimeError)
    for outcome in (outcomes[0], outcomes[2]):
        assert outcome.oracle_ok == [True, True]
        assert outcome.bitvectors == [
            example_forest.label_bitvector(f) for f in good
        ]


class TestPrepareMany:
    """``prepare_many`` is N ``prepare`` calls: the same validated
    features, the same refusal, worded for the first offender."""

    @pytest.fixture
    def batcher(self, example_forest):
        return QueryBatcher(
            ModelRegistry().register("m", example_forest, max_batch_size=4)
        )

    def test_same_entries_as_n_prepares(self, batcher):
        import numpy as np

        for block in (FEATURES, [tuple(f) for f in FEATURES],
                      np.asarray(FEATURES), FEATURES[:1], []):
            many = batcher.prepare_many(block)
            singles = [batcher.prepare(f) for f in block]
            assert [e.features for e in many] == [
                e.features for e in singles
            ]
            assert all(
                type(v) is int for e in many for v in e.features
            )
            assert len({id(e.future) for e in many}) == len(many)

    def test_an_iterator_is_read_once(self, batcher):
        """Regression: an iterator of queries died in ``len()`` with a
        raw ``TypeError``."""
        wanted = [e.features for e in batcher.prepare_many(FEATURES)]
        for block in (iter(FEATURES), (list(f) for f in FEATURES)):
            assert [e.features for e in batcher.prepare_many(block)] == wanted

    @pytest.mark.parametrize("bad", [
        [1], [0, 999], [-1, 0], [1 << 70, 0], ["x", 1], [None, 1], 5,
        [float("inf"), 1], [[1], 2],
    ])
    def test_refusal_is_the_single_query_refusal(self, batcher, bad):
        with pytest.raises(ValidationError) as single:
            batcher.prepare(bad)
        for block in ([bad], [[1, 2], bad], [[1, 2], bad, [0, 999]]):
            with pytest.raises(ValidationError) as many:
                batcher.prepare_many(block)
            assert str(many.value) == str(single.value)
