"""Group == singles: the bit-sliced megakernel pass (ISSUE 23).

``MegaKernel.run_many`` puts ciphertext *j* of up to eight runs in bit
*j* of every lane of the one plane and runs the step program once.  It
may differ from that many ``MegaKernel.run`` calls in nothing a caller
can observe: decrypted bits, the books each run's own tracker ends
with, multiplicative depth, the output's noise / node id / length, and
the text of a refusal — and a run that fails (a refusal, a noise
failure its book caches) must fail alone.
"""

import dataclasses
import json
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engines import ENGINES
from repro.core.runtime import EncryptedQuery
from repro.errors import NoiseBudgetExceededError, RuntimeProtocolError
from repro.fhe.context import FheContext
from repro.fhe.tracker import OpTracker
from repro.forest.serialize import loads_forest
from repro.forest.synthetic import random_forest
from repro.ir.megakernel import MAX_GROUP
from repro.serve.batched_runtime import (
    build_batched_model,
    encrypt_batch,
    evaluate_registered_batch,
    evaluate_registered_batches,
)
from repro.serve.packing import demux_bitvectors
from repro.serve.registry import ModelRegistry

MODELS_DIR = Path(__file__).resolve().parents[2] / "perf" / "models"
FROZEN = json.loads((MODELS_DIR / "MANIFEST.json").read_text())

_REGISTERED = {}


def frozen(name):
    """The frozen paper model ``name``, staged once per session."""
    if name not in _REGISTERED:
        forest = loads_forest((MODELS_DIR / f"{name}.txt").read_text())
        _REGISTERED[name] = ModelRegistry().register(
            name, forest, precision=int(FROZEN[name]["precision"]),
            engine="megakernel", backend="vector",
        )
    return _REGISTERED[name]


def small(backend="vector", engine="megakernel", name="small", seed=7,
          **kwargs):
    forest = random_forest(
        np.random.default_rng(seed), branches_per_tree=[4, 5], max_depth=3,
        n_features=2, precision=4,
    )
    kwargs.setdefault("max_batch_size", 4)
    return ModelRegistry().register(
        name, forest, precision=4, backend=backend, engine=engine, **kwargs
    )


def feature_chunks(registered, fills, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(
            0, 1 << registered.layout.precision,
            (fill, registered.forest.n_features),
        ).tolist()
        for fill in fills
    ]


def make_runs(registered, chunks, bundle=None, tracker=None):
    """Fresh ``(ctx, adopted model, encrypted query)`` per chunk."""
    runs = []
    for features in chunks:
        ctx = FheContext(
            registered.params, backend=registered.backend,
            **({} if tracker is None else {"tracker": tracker()}),
        )
        query = encrypt_batch(ctx, registered.layout, features, registered.keys)
        model = (bundle or registered.batched_model).adopt_into(ctx)
        runs.append((ctx, model, query))
    return runs


def singles(kernel, runs):
    outcomes = []
    for run in runs:
        try:
            outcomes.append(kernel.run(*run))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def observed(registered, runs, outcomes, chunks):
    """Everything a caller can see of each run, books before bits (a
    decryption is an operation too)."""
    seen = []
    for (ctx, _, _), outcome, features in zip(runs, outcomes, chunks):
        tracker = ctx.tracker
        books = (
            sorted((k.value, n) for k, n in tracker.total_counts().items()),
            tracker.multiplicative_depth(),
            sorted(
                (phase, sorted(
                    (k.value, n)
                    for k, n in tracker.phase_stats(phase).counts.items()
                ))
                for phase in tracker.phases
            ),
        )
        if isinstance(outcome, Exception):
            seen.append((books, type(outcome).__name__, str(outcome)))
            continue
        bits = demux_bitvectors(
            registered.layout,
            ctx.decrypt_bits(outcome, registered.keys.secret),
            len(features),
        )
        seen.append((
            books, bits, outcome.noise.level, outcome.noise.slack,
            outcome.node_id, outcome.length,
        ))
    return seen


def assert_group_equals_singles(registered, chunks, kernel=None, **how):
    kernel = kernel or registered.megakernel
    grouped = make_runs(registered, chunks, **how)
    alone = make_runs(registered, chunks, **how)
    group = observed(registered, grouped, kernel.run_many(grouped), chunks)
    assert group == observed(registered, alone, singles(kernel, alone), chunks)
    return group


class TestDifferential:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_ten_models_every_k_partial_fills(self, data):
        registered = frozen(data.draw(st.sampled_from(sorted(FROZEN))))
        capacity = registered.layout.capacity
        fills = data.draw(st.lists(
            st.integers(1, capacity), min_size=1, max_size=MAX_GROUP,
        ))
        chunks = feature_chunks(
            registered, fills, data.draw(st.integers(0, 2**16))
        )
        seen = assert_group_equals_singles(registered, chunks)
        for features, run in zip(chunks, seen):
            assert run[1] == [
                registered.forest.label_bitvector(f) for f in features
            ]

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_full_group_of_each_model(self, name):
        registered = frozen(name)
        capacity = registered.layout.capacity
        fills = [capacity] * (MAX_GROUP - 1) + [max(1, capacity // 2)]
        assert_group_equals_singles(
            registered, feature_chunks(registered, fills, seed=11)
        )

    @pytest.mark.parametrize("backend", ["reference", "plaintext"])
    def test_other_backends_by_fallback(self, backend):
        """No ``megakernel_ops``: the group is that many tape-loop runs."""
        registered = small(backend=backend)
        assert registered.megakernel.group_limit(
            FheContext(registered.params, backend=backend)
        ) == 1
        assert_group_equals_singles(
            registered, feature_chunks(registered, [4, 2, 4], seed=5)
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_the_routine_on_every_engine(self, engine):
        """``evaluate_registered_batches`` of k batches is k
        ``evaluate_registered_batch`` calls: bits, cost-model numbers,
        oracle verdicts and per-phase counts."""
        registered = small(engine=engine)
        chunks = feature_chunks(registered, [4, 4, 1, 3, 4], seed=9)

        def view(evaluation):
            tracker = evaluation.tracker
            return (
                evaluation.engine, evaluation.bitvectors,
                evaluation.phase_ms, evaluation.inference_ms,
                evaluation.oracle_ok,
                {p: tracker.phase_stats(p).counts for p in tracker.phases},
            )

        together = evaluate_registered_batches(
            registered, chunks, verify_oracle=True
        )
        apart = [
            evaluate_registered_batch(registered, features, verify_oracle=True)
            for features in chunks
        ]
        assert [view(e) for e in together] == [view(e) for e in apart]
        assert all(e.oracle_ok == [True] * len(c)
                   for e, c in zip(together, chunks))


class TestAGroupIsPaidOnce:
    """What a group pays once — one packed plane block, one price and
    count per book, one demux — must hand each batch exactly the
    :class:`~repro.serve.transport.BatchPart` it gets evaluated alone:
    bits, verdicts, cost-model figures and counts, float for float."""

    CASES = [("megakernel", "vector"), ("megakernel", "reference"),
             ("tape", "vector")]

    @staticmethod
    def fills_for(k, capacity):
        """``k`` batches, full and partial by turns."""
        return [capacity if j % 2 == 0 else 1 + (j + k) % capacity
                for j in range(k)]

    @staticmethod
    def reduce(registered, chunks):
        from repro.serve.transport import BatchRequest
        from repro.serve.worker import _eval_result

        request = BatchRequest(
            1, registered.name, 0,
            np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks]),
            True, tuple(len(c) for c in chunks),
        )
        return _eval_result(0, request, {registered.name: registered})

    @classmethod
    def seen(cls, result, fills):
        """Each batch's part, with its share of the flat bits and
        verdicts."""
        seen, at = [], 0
        for fill, part in zip(fills, result.parts()):
            answered = part.error is None
            span = slice(at, at + fill if answered else at)
            at = span.stop
            seen.append((
                part,
                list(result.bitvectors[span]) if answered else None,
                list(result.oracle_ok[span]) if answered else None,
            ))
        return seen

    @pytest.mark.parametrize("engine,backend", CASES)
    def test_each_part_of_a_group_is_the_part_alone(self, engine, backend):
        registered = small(engine=engine, backend=backend)
        capacity = registered.layout.capacity
        for k in range(1, MAX_GROUP + 1):
            fills = self.fills_for(k, capacity)
            chunks = feature_chunks(registered, fills, seed=k)
            group = self.seen(self.reduce(registered, chunks), fills)
            alone = [
                self.seen(self.reduce(registered, [chunk]), [len(chunk)])[0]
                for chunk in chunks
            ]
            assert group == alone
            assert all(ok == [True] * fill
                       for (_, _, ok), fill in zip(group, fills))
            # The pass was priced once: the parts share one book.
            assert all(part.phase_op_counts is group[0][0].phase_op_counts
                       and part.phase_ms is group[0][0].phase_ms
                       for part, _, _ in group)

    @pytest.mark.parametrize("engine,backend", CASES)
    def test_an_out_of_range_row_fails_its_batch_alone(self, engine,
                                                       backend):
        registered = small(engine=engine, backend=backend)
        chunks = feature_chunks(registered, [4, 3, 4, 2], seed=3)
        chunks[2][1] = [1 << registered.layout.precision, 0]
        group = self.seen(self.reduce(registered, chunks), [4, 3, 4, 2])
        alone = [self.seen(self.reduce(registered, [chunk]),
                           [len(chunk)])[0] for chunk in chunks]
        assert group == alone
        assert [part.error for part, _, _ in group] == [
            None, None,
            "ValidationError: feature value 16 does not fit in 4 "
            "unsigned bits",
            None,
        ]

    def test_a_batch_with_another_book_is_priced_on_its_own(
        self, monkeypatch
    ):
        """Books are reused only when equal: a ciphertext that booked
        one more encryption gets its own figures, and the batch after
        it is priced again."""
        from repro.core.engines import PHASE_DATA_ENCRYPT
        from repro.serve import batched_runtime

        registered = small()
        encrypt = batched_runtime.encrypt_planes
        seen = []

        def one_more_for_the_second(ctx, planes, keys):
            seen.append(ctx)
            if len(seen) == 2:
                with ctx.tracker.phase(PHASE_DATA_ENCRYPT):
                    ctx.encrypt(planes[0], keys.public)
            return encrypt(ctx, planes, keys)

        monkeypatch.setattr(
            batched_runtime, "encrypt_planes", one_more_for_the_second
        )
        first, second, third = evaluate_registered_batches(
            registered, feature_chunks(registered, [4, 4, 4], seed=1),
        )
        counts = [e.phase_op_counts[PHASE_DATA_ENCRYPT]["encrypt"]
                  for e in (first, second, third)]
        assert counts == [registered.layout.precision,
                          registered.layout.precision + 1,
                          registered.layout.precision]
        assert second.data_encrypt_ms > first.data_encrypt_ms
        assert second.phase_ms is not first.phase_ms
        assert (third.phase_ms, third.phase_op_counts) == (
            first.phase_ms, first.phase_op_counts
        )

    @pytest.mark.parametrize("name", ["small", "income5"])
    def test_the_group_block_is_each_batchs_planes(self, name):
        from repro.serve.packing import pack_group_planes, pack_query_planes

        registered = small() if name == "small" else frozen(name)
        layout = registered.layout
        for k in range(1, MAX_GROUP + 1):
            fills = self.fills_for(k, layout.capacity)
            chunks = feature_chunks(registered, fills, seed=20 + k)
            for batches in (
                chunks,  # lists, as a caller hands them
                [np.asarray(c, dtype=np.int64) for c in chunks],
            ):
                block = pack_group_planes(layout, batches)
                assert block.shape == (
                    k, layout.precision, layout.batched_width
                )
                assert [planes.tobytes() for planes in block] == [
                    pack_query_planes(layout, c).tobytes() for c in chunks
                ]


class TestARunFailsAlone:
    def test_refusals_word_for_word(self):
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 3, 4, 2], seed=3)

        def spoil(runs):
            ctx, model, query = runs[1]
            narrow = ctx.encrypt(
                query.planes[0]._slots[:-1], registered.keys.public
            )
            runs[1] = (ctx, model, EncryptedQuery(
                planes=[narrow] + list(query.planes[1:]),
                public_key=query.public_key,
            ))
            ctx, model, query = runs[3]
            runs[3] = (ctx, model, EncryptedQuery(
                planes=list(query.planes), public_key=None,
            ))
            return runs

        grouped = spoil(make_runs(registered, chunks))
        alone = spoil(make_runs(registered, chunks))
        group = observed(registered, grouped, kernel.run_many(grouped), chunks)
        assert group == observed(
            registered, alone, singles(kernel, alone), chunks
        )
        assert group[1][1:] == (
            "RuntimeProtocolError",
            f"input 'feat_plane_0' has width "
            f"{registered.layout.batched_width - 1}, declared "
            f"{registered.layout.batched_width}",
        )
        assert group[3][1] == "RuntimeProtocolError"
        assert "public" in group[3][2]
        for position in (0, 2):
            assert group[position][1] == [
                registered.forest.label_bitvector(f)
                for f in chunks[position]
            ]

    def test_a_cached_noise_failure_raises_for_its_ciphertext_alone(self):
        """A run whose inputs arrive with their noise budget spent hits
        a book that caches the tape's overflow: its tracker gets the
        partial counts and the exception, the other runs of the pass
        are answered, and all trackers end as the singles'."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 4, 4], seed=8)

        def exhaust(runs, squarings):
            ctx, model, query = runs[1]
            planes = list(query.planes)
            for _ in range(squarings):
                planes = [ctx.multiply(p, p) for p in planes]
            runs[1] = (ctx, model, EncryptedQuery(
                planes=planes, public_key=query.public_key,
            ))
            return runs

        for squarings in range(1, 64):
            probe = exhaust(make_runs(registered, chunks), squarings)
            try:
                kernel.run(*probe[1])
            except NoiseBudgetExceededError:
                break
        else:
            pytest.fail("no amount of squaring exhausted the budget")

        grouped = exhaust(make_runs(registered, chunks), squarings)
        alone = exhaust(make_runs(registered, chunks), squarings)
        outcomes = kernel.run_many(grouped)
        assert isinstance(outcomes[1], NoiseBudgetExceededError)
        group = observed(registered, grouped, outcomes, chunks)
        assert group == observed(
            registered, alone, singles(kernel, alone), chunks
        )
        for position in (0, 2):
            assert group[position][1] == [
                registered.forest.label_bitvector(f)
                for f in chunks[position]
            ]

    def test_an_impostor_bundle_is_refused_for_every_run(self):
        registered = small()
        other = small(name="other", seed=8)
        assert other.layout == registered.layout
        chunks = feature_chunks(registered, [4, 4], seed=2)
        runs = make_runs(registered, chunks, bundle=other.batched_model)
        outcomes = registered.megakernel.run_many(runs)
        assert [str(o) for o in outcomes] == [
            str(o) for o in singles(registered.megakernel, runs)
        ]
        assert all(isinstance(o, RuntimeProtocolError) for o in outcomes)
        assert "but received model" in str(outcomes[0])


class TestTheFullSeat:
    """Whoever finds the plane without this bundle seats all of it,
    inside the group, and the answers do not change."""

    def test_a_pickled_kernel(self):
        registered = small()
        chunks = feature_chunks(registered, [4, 4, 2], seed=4)
        clone = pickle.loads(pickle.dumps(registered.megakernel))
        assert getattr(clone._local, "state", None) is None
        assert_group_equals_singles(registered, chunks, kernel=clone)
        resident = clone._local.state.resident
        adopted = registered.batched_model.adopt_into(
            FheContext(registered.params, backend="vector")
        )
        assert resident.containers[0] is adopted.threshold_planes

    def test_a_second_thread(self):
        registered = small()
        chunks = feature_chunks(registered, [4, 1, 4], seed=6)
        assert_group_equals_singles(registered, chunks)
        here = registered.megakernel._local.state
        seen = {}

        def work():
            assert getattr(registered.megakernel._local, "state", None) is None
            seen["group"] = assert_group_equals_singles(registered, chunks)
            seen["state"] = registered.megakernel._local.state

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen["state"].plane is not here.plane
        assert seen["state"].resident is not None
        assert seen["group"] == assert_group_equals_singles(registered, chunks)

    def test_a_bundle_swap(self):
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 3], seed=1)
        other = build_batched_model(
            FheContext(registered.params, backend="vector"),
            registered.compiled, registered.layout,
            public_key=registered.keys.public,
        )
        first = assert_group_equals_singles(registered, chunks)
        before = kernel._local.state.resident
        swapped = assert_group_equals_singles(registered, chunks, bundle=other)
        assert kernel._local.state.resident is not before
        assert [run[1] for run in swapped] == [run[1] for run in first]
        assert assert_group_equals_singles(registered, chunks) == first


class TestFallBackToSingles:
    def test_mixed_bundles(self):
        """Two bundle objects in one call cannot share the model rows:
        each run goes alone, each against its own bundle."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 4, 4], seed=12)
        other = build_batched_model(
            FheContext(registered.params, backend="vector"),
            registered.compiled, registered.layout,
            public_key=registered.keys.public,
        )

        def mixed():
            runs = make_runs(registered, chunks)
            runs[1] = make_runs(registered, chunks[1:2], bundle=other)[0]
            return runs

        runs = mixed()
        assert not kernel._shares_pass(runs)
        alone = mixed()
        assert observed(
            registered, runs, kernel.run_many(runs), chunks
        ) == observed(registered, alone, singles(kernel, alone), chunks)

    def test_a_foreign_tracker(self):
        """A caller-supplied DAG tracker has no ``megakernel_ops``: the
        tape loop answers, run by run, with the full books."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 2], seed=14)
        runs = make_runs(registered, chunks, tracker=OpTracker)
        assert not kernel._shares_pass(runs)
        assert_group_equals_singles(registered, chunks, tracker=OpTracker)

    def test_unadopted_planes_and_oversize_groups(self):
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4] * (MAX_GROUP + 1), seed=15)
        too_many = make_runs(registered, chunks)
        assert not kernel._shares_pass(too_many)
        assert len(kernel.run_many(too_many)) == MAX_GROUP + 1
        # Lists can change under the same identity: nothing is held
        # resident from them, so two such runs cannot share a seat.
        loose = dataclasses.replace(
            registered.batched_model.adopt_into(
                FheContext(registered.params, backend="vector")
            ),
            level_masks=list(registered.batched_model.level_masks),
        )
        runs = [
            (ctx, loose, query)
            for ctx, _, query in make_runs(registered, chunks[:2])
        ]
        assert not kernel._shares_pass(runs)
        assert kernel._shares_pass(runs[:1])
        outcomes = kernel.run_many(runs)
        assert [
            demux_bitvectors(
                registered.layout,
                ctx.decrypt_bits(result, registered.keys.secret), 4,
            )
            for (ctx, _, _), result in zip(runs, outcomes)
        ] == [
            [registered.forest.label_bitvector(f) for f in features]
            for features in chunks[:2]
        ]
