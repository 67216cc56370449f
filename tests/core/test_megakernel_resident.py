"""Locks for model residency in the megakernel and the adoption memo.

A batch must bind only its query: the adopted model bundle is built
once per (backend class, params) and the megakernel seats its planes
once per (thread, bundle).  These tests hold the two rules that make
that safe — residency is decided by the *identity of immutable
containers*, and **no refusal or check is ever cached** — plus the
books: every batch, first or fiftieth, leaves the tracker exactly as
the tape engine does.
"""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bench_harness.workloads import workload_by_name
from repro.core.engines import artifacts_of
from repro.errors import RuntimeProtocolError, SlotCapacityError
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.forest.synthetic import random_forest
from repro.serve.batched_runtime import (
    PHASE_MODEL_CACHE,
    BatchedCopseServer,
    build_batched_model,
    encrypt_batch,
)
from repro.serve.packing import demux_bitvectors, plan_layout
from repro.serve.registry import ModelRegistry

PRECISION = 4


def small_forest(seed=7):
    return random_forest(
        np.random.default_rng(seed),
        branches_per_tree=[4, 5],
        max_depth=3,
        n_features=2,
        precision=PRECISION,
    )


def register(forest=None, name="resident", **kwargs):
    kwargs.setdefault("precision", PRECISION)
    kwargs.setdefault("max_batch_size", 4)
    return ModelRegistry().register(
        name, forest if forest is not None else small_forest(),
        backend="vector", engine="megakernel", **kwargs,
    )


@pytest.fixture
def registered():
    return register()


def queries(registered, count=None, seed=3):
    rng = np.random.default_rng(seed)
    count = registered.layout.capacity if count is None else count
    return rng.integers(
        0, 1 << registered.layout.precision,
        (count, registered.forest.n_features),
    ).tolist()


def classify(registered, features, engine="megakernel", bundle=None):
    """One batch through ``BatchedCopseServer``: (bits, books)."""
    ctx = FheContext(registered.params, backend=registered.backend)
    server = BatchedCopseServer(
        ctx, seccomp_variant=registered.seccomp_variant, engine=engine,
        **artifacts_of(registered),
    )
    query = encrypt_batch(ctx, registered.layout, features, registered.keys)
    if bundle is None:
        bundle = registered.batched_model
    result = server.classify_batch(bundle, query)
    bits = demux_bitvectors(
        registered.layout,
        ctx.decrypt_bits(result, registered.keys.secret),
        len(features),
    )
    tracker = ctx.tracker
    books = {
        # The engines differ only in the name of their inference phase.
        "phases": sorted(
            (
                "inference" if phase.endswith("_inference") else phase,
                tuple(sorted(
                    (kind.value, n)
                    for kind, n in tracker.phase_stats(phase).counts.items()
                )),
            )
            for phase in tracker.phases
        ),
        "depth": tracker.multiplicative_depth(),
        "noise": (result.noise.level, result.noise.slack),
        "node_id": result.node_id,
    }
    return bits, books


def oracle(registered, features):
    return [registered.forest.label_bitvector(f) for f in features]


def resident_record(registered):
    """This thread's residency record of the registered kernel."""
    return registered.megakernel._local.state.resident


class TestSteadyState:
    def test_second_batch_binds_only_the_query(self, registered):
        """The adopted bundle is one object from the second batch on,
        and the kernel keeps the record it seated it under."""
        source = registered.batched_model
        first, again = (
            source.adopt_into(FheContext(registered.params, backend="vector"))
            for _ in range(2)
        )
        assert again is first
        assert type(first.threshold_planes) is tuple
        assert all(type(level) is tuple for level in first.level_diagonals)

        feats = queries(registered)
        bits, _ = classify(registered, feats)
        record = resident_record(registered)
        assert record is not None
        assert record.containers[0] is first.threshold_planes
        bits2, _ = classify(registered, list(reversed(feats)))
        assert resident_record(registered) is record
        assert bits == oracle(registered, feats)
        assert bits2 == oracle(registered, list(reversed(feats)))

    def test_books_of_batch_1_2_and_50_equal_the_tape(self, registered):
        """Counts per phase (the ``model_cache`` LOADs included), depth,
        output noise and node id — replayed or resident, always the
        tape's."""
        feats = queries(registered)
        expected_bits, tape_books = classify(registered, feats, "tape")
        assert dict(tape_books["phases"])[PHASE_MODEL_CACHE]
        seen = {}
        for batch in range(1, 51):
            bits, books = classify(registered, feats)
            assert bits == expected_bits
            if batch in (1, 2, 50):
                seen[batch] = books
        assert seen[1] == seen[2] == seen[50] == tape_books
        # ... and the memo serves the tape engine the same books.
        assert classify(registered, feats, "tape")[1] == tape_books
        assert len(registered.megakernel._book) == 1

    def test_memo_is_neither_pickled_nor_compared(self, registered):
        source = registered.batched_model
        cold = pickle.dumps(source)
        twin = pickle.loads(cold)
        classify(registered, queries(registered))
        assert source._adopted
        assert pickle.dumps(source) == cold
        assert pickle.loads(pickle.dumps(source))._adopted == {}
        assert twin.fingerprint == source.fingerprint
        assert dataclasses.replace(source)._adopted == {}


class TestReseat:
    def test_alternating_bundles_of_one_model_stay_bit_exact(
        self, registered
    ):
        """Two bundles of the same model (one re-encrypted) taking
        turns on one thread: every switch re-seats, every answer is
        right."""
        ctx = FheContext(registered.params, backend="vector")
        other = build_batched_model(
            ctx, registered.compiled, registered.layout,
            public_key=registered.keys.public,
        )
        assert other.fingerprint == registered.batched_model.fingerprint
        records = []
        for turn in range(6):
            feats = queries(registered, seed=turn)
            bundle = other if turn % 2 else None
            bits, _ = classify(registered, feats, bundle=bundle)
            assert bits == oracle(registered, feats)
            records.append(resident_record(registered))
        for before, after in zip(records, records[1:]):
            assert after is not before
        assert records[2].containers[0] is records[0].containers[0]

    def test_replaced_plane_reseats_and_equals_the_tape(self, registered):
        """``dataclasses.replace`` keeps the fingerprint, so nothing
        refuses — the kernel must notice the new container itself."""
        feats = queries(registered)
        classify(registered, feats)
        adopted = registered.batched_model.adopt_into(
            FheContext(registered.params, backend="vector")
        )
        flipped = FheContext(registered.params, backend="vector").encrypt(
            1 - adopted.level_masks[0]._slots, registered.keys.public
        )
        tampered = dataclasses.replace(
            adopted, level_masks=(flipped,) + adopted.level_masks[1:]
        )
        # Seated from the memoised view, then handed the tampered one:
        # adoption passes it through (exact-length, node id 0 planes).
        before = resident_record(registered)
        kernel_bits, kernel_books = classify(
            registered, feats, bundle=tampered
        )
        assert resident_record(registered) is not before
        tape_bits, tape_books = classify(
            registered, feats, "tape", bundle=tampered
        )
        assert kernel_bits == tape_bits != oracle(registered, feats)
        assert kernel_books == tape_books
        # ... and back: the original bundle re-seats its own mask.
        bits, _ = classify(registered, feats)
        assert bits == oracle(registered, feats)

    def test_engine_and_bundle_changes_mid_stream(self):
        """Another engine between two kernel batches keeps the memoised
        bundle (and the books); a second registration's bundle (other
        keys) under the same kernel re-seats it, and so does the first
        bundle when it comes back.  A reference-backend registration
        never adopts: its tracker is foreign."""
        first, second = register(name="first"), register(name="second")
        reference = ModelRegistry().register(
            "reference", small_forest(), precision=PRECISION,
            max_batch_size=4, backend="reference", engine="megakernel",
        )
        feats = queries(first)
        expected = oracle(first, feats)
        bits, books = classify(first, feats)
        record = resident_record(first)
        assert classify(first, feats, "tape") == (bits, books)
        assert classify(first, feats) == (expected, books)
        assert resident_record(first) is record

        # The first registration's kernel over the second's keys and
        # bundle: one kernel, two registered bundles.
        crossed = dataclasses.replace(second, megakernel=first.megakernel)
        assert classify(crossed, feats) == (expected, books)
        crossed_record = resident_record(first)
        assert crossed_record is not record
        assert classify(first, feats) == (expected, books)
        back = resident_record(first)
        assert back is not record and back is not crossed_record

        assert reference.batched_model._adopted == {}
        reference_bits, reference_books = classify(reference, feats)
        assert reference_bits == expected
        assert reference.batched_model._adopted == {}  # foreign tracker
        assert reference_books["depth"] == books["depth"]

    def test_two_threads_get_two_planes(self, registered):
        feats = queries(registered)
        expected = oracle(registered, feats)
        seen = {}

        def work(tag):
            for _ in range(3):
                bits, _ = classify(registered, feats)
                assert bits == expected
            state = registered.megakernel._local.state
            seen[tag] = (state.plane, state.resident)

        threads = [
            threading.Thread(target=work, args=(tag,)) for tag in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        (plane_a, resident_a), (plane_b, resident_b) = seen["a"], seen["b"]
        assert plane_a is not plane_b
        assert resident_a is not resident_b
        # One adopted bundle, seated once per thread.
        assert resident_a.containers[0] is resident_b.containers[0]
        assert getattr(registered.megakernel._local, "state", None) is None

    def test_pickled_kernel_reseats_lazily(self, registered):
        feats = queries(registered)
        classify(registered, feats)
        clone = pickle.loads(pickle.dumps(registered.megakernel))
        assert clone._plan is None and clone._fragments == {}
        assert getattr(clone._local, "state", None) is None
        shipped = dataclasses.replace(registered, megakernel=clone)
        bits, books = classify(shipped, feats)
        assert bits == oracle(registered, feats)
        assert books == classify(registered, feats)[1]
        assert clone._local.state.resident is not None


class TestNothingRefusedIsCached:
    def impostors(self, registered):
        """(bundle, exact refusal text) pairs for ``registered``'s kernel."""
        other = register(small_forest(seed=8), name="other")
        assert other.layout == registered.layout
        wrong_model = other.batched_model
        ctx = FheContext(registered.params, backend="vector")
        plaintext = build_batched_model(
            ctx, registered.compiled, registered.layout, public_key=None
        )
        kernel_fp = registered.megakernel.model_fingerprint
        return [
            (
                wrong_model,
                f"plan was lowered for model {kernel_fp} but received "
                f"model {wrong_model.fingerprint}; lower a plan for this "
                f"model (or register it, which does)",
            ),
            (
                dataclasses.replace(
                    registered.batched_model, fingerprint=None
                ),
                f"plan was lowered for model {kernel_fp} but received "
                f"model None; lower a plan for this model (or register "
                f"it, which does)",
            ),
            (
                plaintext,
                "plan was lowered for an encrypted model but received "
                "the opposite",
            ),
        ]

    def test_impostor_refused_on_the_first_and_the_100th_bind(
        self, registered
    ):
        feats = queries(registered)
        expected = oracle(registered, feats)
        impostors = self.impostors(registered)

        def refusals():
            for bundle, message in impostors:
                with pytest.raises(RuntimeProtocolError) as err:
                    classify(registered, feats, bundle=bundle)
                assert str(err.value) == message
                with pytest.raises(RuntimeProtocolError) as tape_err:
                    classify(registered, feats, "tape", bundle=bundle)
                assert str(tape_err.value) == message

        refusals()  # cold kernel: nothing seated yet
        for _ in range(100):
            bits, _ = classify(registered, feats)
            assert bits == expected
        record = resident_record(registered)
        refusals()  # warm kernel, warm memo
        refusals()  # ... and a refusal did not get itself cached
        bits, _ = classify(registered, feats)
        assert bits == expected
        assert resident_record(registered) is record

    def test_stolen_containers_do_not_skip_the_fingerprint_check(
        self, registered
    ):
        """Residency looks only at the containers; the refusals look
        only at the bundle.  A bundle that *is* resident but claims
        another fingerprint is still refused."""
        feats = queries(registered)
        classify(registered, feats)
        adopted = registered.batched_model.adopt_into(
            FheContext(registered.params, backend="vector")
        )
        liar = dataclasses.replace(adopted, fingerprint="0" * 64)
        with pytest.raises(RuntimeProtocolError) as err:
            classify(registered, feats, bundle=liar)
        assert "but received model " + "0" * 64 in str(err.value)

    def test_too_wide_plane_refused_every_time_with_the_same_loads(self):
        """A width refusal lands the LOADs adopted before it, raises,
        and memoises nothing — three times running."""
        tiny = EncryptionParams(columns=1)  # 320 slots
        forest = small_forest()
        registered = register(forest, name="narrow")
        layout = plan_layout(registered.compiled, tiny, max_batch_size=4)
        ctx = FheContext(tiny, backend="vector")
        keys = ctx.keygen()
        model = build_batched_model(
            ctx, registered.compiled, layout, keys.public
        )
        roomy = FheContext(EncryptionParams.paper_defaults(), backend="vector")
        wide = roomy.encrypt(np.ones(400, dtype=np.uint8), keys.public)
        bad = dataclasses.replace(
            model, level_masks=model.level_masks[:-1] + [wide]
        )
        outcomes = []
        for _ in range(3):
            fresh = FheContext(tiny, backend="vector")
            with pytest.raises(SlotCapacityError) as err:
                bad.adopt_into(fresh)
            outcomes.append((
                str(err.value),
                fresh.tracker.phase_stats(PHASE_MODEL_CACHE).as_dict(),
            ))
            assert bad._adopted == {}
        assert outcomes[0] == outcomes[1] == outcomes[2]
        loads = sum(outcomes[0][1].values())
        assert 0 < loads < sum(
            len(planes) for planes in (
                model.threshold_planes, model.reshuffle_diagonals,
                *model.level_diagonals, model.level_masks,
            )
        )
        # The sound twin memoises on its first adoption.
        model.adopt_into(FheContext(tiny, backend="vector"))
        assert len(model._adopted) == 1


class TestPerBatchWorkDoesNotScaleWithTheModel:
    def python_calls(self, registered, features):
        """Python-level calls inside one steady-state ``classify_batch``."""
        ctx = FheContext(registered.params, backend=registered.backend)
        server = BatchedCopseServer(
            ctx, engine="megakernel", **artifacts_of(registered)
        )
        query = encrypt_batch(
            ctx, registered.layout, features, registered.keys
        )
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            server.classify_batch(registered.batched_model, query)
        finally:
            sys.setprofile(None)
        return calls

    def test_income5_costs_about_what_width78_does(self):
        """income5 binds 1498 model planes, width78 a hundred; both
        kernels run 32 steps.  With the model resident, the Python work
        of a batch is the same to within half again (it was 9x: 4684 calls to 496)."""
        calls = {}
        sizes = {}
        for name in ("income5", "width78"):
            workload = workload_by_name(name)
            registered = register(
                workload.forest, name=name, precision=workload.precision,
                max_batch_size=None,
            )
            kernel = registered.megakernel
            assert kernel.num_blocks == 32
            sizes[name] = kernel.resident_rows
            feats = queries(registered)
            for _ in range(3):  # compile, capture, seat
                classify(registered, feats)
            calls[name] = self.python_calls(registered, feats)
        assert sizes["income5"] > 10 * sizes["width78"]
        assert calls["income5"] <= 1.5 * calls["width78"], calls
