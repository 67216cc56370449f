"""Group == singles: the bit-sliced megakernel pass (ISSUE 23).

A grouped query — ``encrypt_planes`` of a ``(k, precision, width)``
block from ``pack_group_planes``, its planes ``CiphertextGroup``s of
``k`` ciphertexts — is one ``MegaKernel.run``: ciphertext *j* in bit *j*
of every lane of the one plane, the step program once.  It may differ
from ``k`` runs of one ciphertext each in nothing a caller can observe:
decrypted bits, the book each of them ends with, multiplicative depth,
the output's noise / node id / length, and the text of a refusal.
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
from repro.fhe.ciphertext import CiphertextGroup
from repro.fhe.context import FheContext
from repro.fhe.tracker import OpTracker
from repro.forest.serialize import loads_forest
from repro.forest.synthetic import random_forest
from repro.ir.megakernel import MAX_GROUP
from repro.serve.batched_runtime import (
    build_batched_model,
    encrypt_planes,
    evaluate_registered_batch,
    evaluate_registered_batches,
)
from repro.serve.packing import demux_group, pack_group_planes
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


def make_group(registered, chunks, bundle=None, tracker=None):
    """One ``(ctx, adopted model, query)`` run whose query holds every
    chunk: a ciphertext per plane for one chunk, a group for more."""
    ctx = FheContext(
        registered.params, backend=registered.backend,
        **({} if tracker is None else {"tracker": tracker()}),
    )
    query = encrypt_planes(
        ctx, pack_group_planes(registered.layout, chunks), registered.keys
    )
    model = (bundle or registered.batched_model).adopt_into(ctx)
    return ctx, model, query


def make_runs(registered, chunks, **how):
    """One run per chunk, each on its own context."""
    return [make_group(registered, [chunk], **how) for chunk in chunks]


def outcome(kernel, run):
    try:
        return kernel.run(*run)
    except Exception as exc:
        return exc


def books(tracker):
    """Counts by phase in recording order, totals, depth."""
    return (
        [(phase, list(tracker.phase_stats(phase).counts.items()))
         for phase in tracker.phases],
        sorted((k.value, n) for k, n in tracker.total_counts().items()),
        tracker.multiplicative_depth(),
    )


def observed(registered, run, result, chunks):
    """Everything a caller can see of each chunk of one run, books
    before bits (a decryption is an operation too)."""
    ctx = run[0]
    booked = books(ctx.tracker)
    if isinstance(result, Exception):
        return [(booked, type(result).__name__, str(result))] * len(chunks)
    secret = registered.keys.secret
    if isinstance(result, CiphertextGroup):
        bits, head = ctx.decrypt_group(result, secret), result.head
    else:
        bits, head = [ctx.decrypt(result, secret)], result
    return [
        (booked, bitvectors, head.noise.level, head.noise.slack,
         head.node_id, head.length)
        for bitvectors in demux_group(
            registered.layout, bits, [len(c) for c in chunks]
        )
    ]


def singles(registered, kernel, runs, chunks):
    """What each chunk's run of one shows, in order."""
    return [
        observed(registered, run, outcome(kernel, run), [chunk])[0]
        for run, chunk in zip(runs, chunks)
    ]


def assert_group_equals_singles(registered, chunks, kernel=None,
                                spoil=lambda run: run, **how):
    """The group of ``chunks`` reads, chunk by chunk, as each chunk run
    alone (``spoil`` applied to every run first)."""
    kernel = kernel or registered.megakernel
    group = spoil(make_group(registered, chunks, **how))
    seen = observed(registered, group, outcome(kernel, group), chunks)
    alone = [spoil(run) for run in make_runs(registered, chunks, **how)]
    assert seen == singles(registered, kernel, alone, chunks)
    return seen


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
        """No ``megakernel_ops``: the tape loop runs a query of one
        ciphertext, and refuses a group."""
        registered = small(backend=backend)
        assert registered.megakernel.group_limit(
            FheContext(registered.params, backend=backend)
        ) == 1
        chunks = feature_chunks(registered, [4, 2, 4], seed=5)
        for chunk in chunks:
            assert_group_equals_singles(registered, [chunk])
        run = make_group(registered, chunks)
        with pytest.raises(RuntimeProtocolError, match=(
            "a group of 3 ciphertexts runs only in one megakernel pass, "
            "at most 8 on a backend with megakernel_ops"
        )):
            registered.megakernel.run(*run)

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
    def test_each_batch_books_what_it_books_alone(self, engine, backend,
                                                  monkeypatch):
        """A group books once, for each of its batches: every batch's
        tracker — counts by phase in recording order, depth — and its
        result's noise and length read as the batch's alone."""
        noise_of = {}  # tracker -> its decrypted result's noise, length
        decrypt = FheContext.decrypt

        def spy(self, ct, secret_key):
            noise_of[id(self.tracker)] = (ct.noise, ct.length)
            return decrypt(self, ct, secret_key)

        monkeypatch.setattr(FheContext, "decrypt", spy)
        registered = small(engine=engine, backend=backend)

        def books(evaluation):
            tracker = evaluation.tracker
            return (
                [(phase, list(tracker.phase_stats(phase).counts.items()))
                 for phase in tracker.phases],
                tracker.multiplicative_depth(),
                noise_of[id(tracker)],
            )

        for k in range(1, MAX_GROUP + 1):
            chunks = feature_chunks(
                registered, self.fills_for(k, registered.layout.capacity),
                seed=40 + k,
            )
            group = [books(e) for e in evaluate_registered_batches(
                registered, chunks
            )]
            alone = [books(evaluate_registered_batch(registered, chunk))
                     for chunk in chunks]
            assert group == alone

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
        it is priced again.  (On the tape engine every batch is a group
        of its own, with its own book; a group's batches share one.)"""
        from repro.core.engines import PHASE_DATA_ENCRYPT
        from repro.serve import batched_runtime

        registered = small(engine="tape")
        encrypt = batched_runtime.encrypt_planes
        seen = []

        def one_more_for_the_second(ctx, block, keys):
            seen.append(ctx)
            if len(seen) == 2:
                with ctx.tracker.phase(PHASE_DATA_ENCRYPT):
                    ctx.encrypt(block[0, 0], keys.public)
            return encrypt(ctx, block, keys)

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
                    pack_group_planes(layout, [c])[0].tobytes()
                    for c in chunks
                ]


class TestTheGroupIsBookedOnce:
    """What is the same for every ciphertext of a megakernel group is
    done once per ``_eval_result``, however many ciphertexts it holds:
    one context, one data encryption and one helper encryption, one
    signature."""

    def test_bookkeeping_calls_do_not_grow_with_k(self, monkeypatch):
        from repro.ir.megakernel import MegaKernel

        registered = frozen("income5")
        calls = {"contexts": 0, "encrypt_many": 0, "signatures": 0}

        def counting(name, method):
            def spy(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return spy

        monkeypatch.setattr(FheContext, "__init__", counting(
            "contexts", FheContext.__init__))
        monkeypatch.setattr(FheContext, "encrypt_many", counting(
            "encrypt_many", FheContext.encrypt_many))
        monkeypatch.setattr(MegaKernel, "_signature", counting(
            "signatures", MegaKernel._signature))
        capacity = registered.layout.capacity
        seen = []
        for k in range(1, MAX_GROUP + 1):
            chunks = feature_chunks(registered, [capacity] * k, seed=k)
            TestAGroupIsPaidOnce.reduce(registered, chunks)  # warm
            for name in calls:
                calls[name] = 0
            result = TestAGroupIsPaidOnce.reduce(registered, chunks)
            assert all(result.oracle_ok) and len(result.parts()) == k
            seen.append(dict(calls))
        assert seen == [
            {"contexts": 1, "encrypt_many": 2, "signatures": 1}
        ] * MAX_GROUP


class TestARunFailsAlone:
    """A group is one run: a refusal, or a noise failure its book
    caches, fails the whole group exactly as it fails each of its
    ciphertexts alone — the same text, the same books — and leaves the
    plane fit for the next run.  (The serve routine then retries the
    group batch by batch: ``TestAGroupIsPaidOnce``.)"""

    def test_refusals_word_for_word(self):
        registered = small()
        chunks = feature_chunks(registered, [4, 3, 4, 2], seed=3)

        def narrow(run):
            ctx, model, query = run
            block = pack_group_planes(
                registered.layout, chunks[: query.group_size]
            )
            (plane,) = ctx.encrypt_many(
                block[:, :1, :-1], registered.keys.public
            )
            return ctx, model, EncryptedQuery(
                planes=[plane] + list(query.planes[1:]),
                public_key=query.public_key,
            )

        def keyless(run):
            ctx, model, query = run
            return ctx, model, EncryptedQuery(
                planes=list(query.planes), public_key=None,
            )

        seen = assert_group_equals_singles(registered, chunks, spoil=narrow)
        assert seen[0][1:] == (
            "RuntimeProtocolError",
            f"input 'feat_plane_0' has width "
            f"{registered.layout.batched_width - 1}, declared "
            f"{registered.layout.batched_width}",
        )
        seen = assert_group_equals_singles(registered, chunks, spoil=keyless)
        assert seen[0][1] == "RuntimeProtocolError"
        assert "public" in seen[0][2]
        assert [run[1] for run in assert_group_equals_singles(
            registered, chunks
        )] == [
            [registered.forest.label_bitvector(f) for f in chunk]
            for chunk in chunks
        ]

    def test_a_cached_noise_failure_raises_for_its_ciphertext_alone(self):
        """A group whose inputs arrive with their noise budget spent
        hits a book that caches the tape's overflow: its tracker gets
        the partial counts and the exception, as each of its
        ciphertexts' would alone, and the next group is answered."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 4, 4], seed=8)

        def square(ctx, plane):
            if isinstance(plane, CiphertextGroup):
                # x * x = x over GF(2): the rows stay, the noise grows
                return CiphertextGroup(
                    ctx.multiply(plane.head, plane.head), plane._rows
                )
            return ctx.multiply(plane, plane)

        def exhaust(squarings):
            def spoil(run):
                ctx, model, query = run
                planes = list(query.planes)
                for _ in range(squarings):
                    planes = [square(ctx, p) for p in planes]
                return ctx, model, EncryptedQuery(
                    planes=planes, public_key=query.public_key,
                )
            return spoil

        for squarings in range(1, 64):
            probe = exhaust(squarings)(make_group(registered, chunks[:1]))
            if isinstance(outcome(kernel, probe), NoiseBudgetExceededError):
                break
        else:
            pytest.fail("no amount of squaring exhausted the budget")

        seen = assert_group_equals_singles(
            registered, chunks, spoil=exhaust(squarings)
        )
        assert seen[0][1] == "NoiseBudgetExceededError"
        assert [run[1] for run in assert_group_equals_singles(
            registered, chunks
        )] == [
            [registered.forest.label_bitvector(f) for f in chunk]
            for chunk in chunks
        ]

    def test_an_impostor_bundle_is_refused_for_every_run(self):
        registered = small()
        other = small(name="other", seed=8)
        assert other.layout == registered.layout
        chunks = feature_chunks(registered, [4, 4], seed=2)
        seen = assert_group_equals_singles(
            registered, chunks, bundle=other.batched_model
        )
        assert seen[0][1] == "RuntimeProtocolError"
        assert "but received model" in seen[0][2]


class TestTheFullSeat:
    """Whoever finds the plane without this bundle seats all of it,
    group or not, and the answers do not change."""

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
        """Groups over two bundle objects by turns: each takes the full
        seat against its own bundle, and answers as its singles do."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 4, 4], seed=12)
        other = build_batched_model(
            FheContext(registered.params, backend="vector"),
            registered.compiled, registered.layout,
            public_key=registered.keys.public,
        )
        seen = []
        for bundle in (None, other, None, other):
            group = make_group(registered, chunks, bundle=bundle)
            seen.append(observed(
                registered, group, outcome(kernel, group), chunks
            ))
            held = kernel._local.state.resident.containers[0]
            assert held is group[1].threshold_planes
        assert seen[0] == seen[2] and seen[1] == seen[3]
        assert [run[1] for run in seen[0]] == [run[1] for run in seen[1]]
        assert seen[0] == singles(
            registered, kernel, make_runs(registered, chunks), chunks
        )

    def test_a_foreign_tracker(self):
        """A caller-supplied DAG tracker has no ``megakernel_ops``: the
        tape loop answers a query of one ciphertext with the full books,
        and refuses a group."""
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4, 2], seed=14)
        run = make_group(registered, chunks, tracker=OpTracker)
        assert kernel.group_limit(run[0]) == 1
        with pytest.raises(RuntimeProtocolError, match="a group of 2 "):
            kernel.run(*run)
        for chunk in chunks:
            assert_group_equals_singles(
                registered, [chunk], tracker=OpTracker
            )

    def test_unadopted_planes_and_oversize_groups(self):
        registered = small()
        kernel = registered.megakernel
        chunks = feature_chunks(registered, [4] * (MAX_GROUP + 1), seed=15)
        too_many = make_group(registered, chunks)
        with pytest.raises(RuntimeProtocolError, match=(
            f"a group of {MAX_GROUP + 1} ciphertexts runs only in one "
            f"megakernel pass, at most {MAX_GROUP}"
        )):
            kernel.run(*too_many)
        assert assert_group_equals_singles(registered, chunks[:MAX_GROUP])
        # Lists can change under the same identity: nothing is held
        # resident from them, and every group takes the full seat.
        loose = dataclasses.replace(
            registered.batched_model.adopt_into(
                FheContext(registered.params, backend="vector")
            ),
            level_masks=list(registered.batched_model.level_masks),
        )
        for _ in range(2):
            ctx, _, query = make_group(registered, chunks[:2])
            seen = observed(
                registered, (ctx, loose, query),
                kernel.run(ctx, loose, query), chunks[:2],
            )
            assert kernel._local.state.resident is None
            assert [run[1] for run in seen] == [
                [registered.forest.label_bitvector(f) for f in features]
                for features in chunks[:2]
            ]
