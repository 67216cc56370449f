"""Locks for the megakernel's window-read rotations and broadcast operands.

A rotation is read as one contiguous window of its source tiled
periodically, and a block operand that repeats under every instruction
is held once.  Neither may change a bit or a book entry, neither may
read a byte past a value's width, and the plan must not grow back the
per-element index matrices the windows replaced.  Clock-free.
"""

import numpy as np
import pytest

from repro.bench_harness.workloads import workload_by_name
from repro.core.compiler import CopseCompiler
from repro.core.engines import artifacts_of
from repro.core.runtime import DataOwner, ModelOwner
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.forest.synthetic import random_forest
from repro.ir import IrBuilder, lower_inference
from repro.ir.megakernel import _bind_step, _operand, compile_megakernel
from repro.ir.tape import compile_tape
from repro.serve.batched_runtime import BatchedCopseServer, encrypt_batch
from repro.serve.packing import demux_bitvectors
from repro.serve.registry import ModelRegistry

PARAMS = EncryptionParams.paper_defaults()


def small_forest(seed=7):
    return random_forest(
        np.random.default_rng(seed), branches_per_tree=[4, 5], max_depth=3,
        n_features=2, precision=4,
    )


def books(ctx):
    tracker = ctx.tracker
    return (
        sorted(
            (
                "inference" if phase.endswith("_inference") else phase,
                sorted(
                    (kind.value, n)
                    for kind, n in tracker.phase_stats(phase).counts.items()
                ),
            )
            for phase in tracker.phases
        ),
        tracker.multiplicative_depth(),
    )


def poison(kernel):
    """Fill this thread's plane with 0xFF, keeping only what is seated
    once per thread (constants within their width, the ones row); the
    next run must re-seat the model and may trust no other byte."""
    state, plan = kernel._local.state, kernel._plan
    state.plane[:] = 0xFF
    for row, arr in plan.const_seats:
        state.plane[row, : arr.size] = arr
    if plan.ones_row is not None:
        state.plane[plan.ones_row] = 1
    state.resident = None


# -- batched serve shape: the frozen paper models --------------------------


@pytest.fixture(scope="module", params=["income5", "width78"])
def registered(request):
    workload = workload_by_name(request.param)
    return ModelRegistry().register(
        request.param, workload.forest, backend="vector",
        engine="megakernel", precision=workload.precision,
    )


def classify_batch(registered, features, engine):
    ctx = FheContext(registered.params, backend="vector")
    server = BatchedCopseServer(
        ctx, seccomp_variant=registered.seccomp_variant, engine=engine,
        **artifacts_of(registered),
    )
    query = encrypt_batch(ctx, registered.layout, features, registered.keys)
    result = server.classify_batch(registered.batched_model, query)
    bits = demux_bitvectors(
        registered.layout,
        ctx.decrypt_bits(result, registered.keys.secret),
        len(features),
    )
    return bits, books(ctx), (result.noise.level, result.node_id)


def batch_of(registered, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 1 << registered.layout.precision,
        (registered.layout.capacity, registered.forest.n_features),
    ).tolist()


class TestPaperShapes:
    def test_bits_and_books_equal_the_tape(self, registered):
        features = batch_of(registered)
        taped = classify_batch(registered, features, "tape")
        for _ in range(2):  # the captured run, then a replayed one
            assert classify_batch(registered, features, "megakernel") == taped
        assert taped[0] == [
            registered.forest.label_bitvector(f) for f in features
        ]

    def test_poisoned_plane_changes_nothing(self, registered):
        features = batch_of(registered, seed=5)
        taped = classify_batch(registered, features, "tape")
        classify_batch(registered, features, "megakernel")  # builds the plane
        poison(registered.megakernel)
        assert classify_batch(registered, features, "megakernel") == taped

    def test_plan_holds_no_per_element_index(self, registered):
        """Every integer array of a gather step is one entry per
        destination or per distinct source — nothing scales with the
        lane count, which is what an index matrix does."""
        kernel = registered.megakernel
        assert kernel.ensure_compiled()
        gathers = [s for s in kernel._plan.steps if s[0] == "gather"]
        assert any(len(spec[3]) > 1 for spec in gathers)
        for _, fills, starts, dests, width, size in gathers:
            assert starts.shape == dests.shape == (len(dests),)
            sources = 0
            for rows, source_width, _ in fills:
                assert rows.ndim == 1
                sources += len(rows)
                assert size >= len(rows) * (source_width - 1 + width)
            assert sources <= len(dests)
            # the windows never leave the buffer
            assert 0 <= starts.min() and starts.max() + width <= size

    def test_repeated_operands_are_held_once(self, registered):
        """A side whose k rows are the same under all n instructions is
        k rows, broadcast — income5's level block ANDs 8 matrices
        against the same 153 rotations and buffers 153 rows, not 1224."""
        kernel = registered.megakernel
        assert kernel.ensure_compiled()
        plane = np.zeros((kernel.num_rows, kernel.lanes), dtype=np.uint8)
        held_once = []
        for spec in kernel._plan.steps:
            if spec[0] != "block" or spec[3] == 1:
                continue
            _, s1, s2, n, k, _ = spec
            for side in (s for s in (s1, s2) if s is not None):
                grid = side.reshape(n, k)
                repeats = bool((grid == grid[0]).all())
                shape = _operand(plane, side, n, k)[0].shape
                assert shape == (1 if repeats else n, k, kernel.lanes)
                if repeats:
                    held_once.append((n, k))
        assert held_once
        if registered.name == "income5":
            assert (8, 153) in held_once


    def plane(self):
        return np.arange(20 * 6, dtype=np.uint8).reshape(20, 6)

    def test_run_is_viewed_in_place(self):
        R = self.plane()
        view, rows = _operand(R, np.arange(4, 10), 3, 2)
        assert rows is None and view.shape == (3, 2, 6)
        assert np.shares_memory(view, R)
        assert (view.reshape(6, 6) == R[4:10]).all()

    def test_repeat_is_held_once(self):
        R = self.plane()
        view, rows = _operand(R, np.tile([7, 3], 4), 4, 2)
        assert view.shape == (1, 2, 6) and rows.tolist() == [7, 3]
        run, rows = _operand(R, np.tile([7, 8], 4), 4, 2)
        assert rows is None and np.shares_memory(run, R)
        assert run.shape == (1, 2, 6)

    def test_anything_else_is_gathered_whole(self):
        R = self.plane()
        scratch = np.empty((2, 2, 6), dtype=np.uint8)
        view, rows = _operand(R, np.array([1, 5, 9, 2]), 2, 2, scratch)
        assert view is scratch and rows.tolist() == [1, 5, 9, 2]

    def test_a_repeated_side_never_takes_the_lent_scratch(self):
        """The scratch is (n, k, lanes) and receives the AND; a side
        held once must not alias it."""
        R = self.plane()
        scratch = np.empty((3, 2, 6), dtype=np.uint8)
        view, _ = _operand(R, np.tile([9, 2], 3), 3, 2, scratch)
        assert not np.shares_memory(view, scratch)


# -- unbatched shape: cyclic extends, source narrower than the read --------


def unbatched(encrypted_model):
    forest = small_forest()
    compiled = CopseCompiler(precision=4).compile(forest)
    tape = lower_inference(
        compiled, encrypted_model=encrypted_model
    ).compile_tape()
    ctx = FheContext(PARAMS, backend="vector")
    keys = ctx.keygen()
    owner = ModelOwner(compiled)
    query = DataOwner(owner.query_spec(), keys).prepare_query(ctx, [1, 2])
    model = (
        owner.encrypt_model(ctx, keys.public) if encrypted_model
        else owner.plaintext_model(ctx)
    )
    return tape, keys, model, query, forest.label_bitvector([1, 2])


@pytest.mark.parametrize("encrypted_model", [True, False])
def test_narrow_sources_tile_like_the_tape(encrypted_model):
    tape, keys, model, query, expected = unbatched(encrypted_model)
    kernel = compile_megakernel(tape)
    assert kernel.ensure_compiled()
    narrow = [
        (source_width, spec[4], len(spec[3]))
        for spec in kernel._plan.steps if spec[0] == "gather"
        for _, source_width, _ in spec[1] if source_width < spec[4]
    ]
    # both forms: one destination (direct copies) and many (windows)
    assert {count == 1 for _, _, count in narrow} == {True, False}

    ctx_t = FheContext(PARAMS, backend="vector")
    taped = tape.run(ctx_t, model, query, phase="p")
    assert ctx_t.decrypt_bits(taped, keys.secret) == expected
    for poisoned in (False, True):
        ctx_k = FheContext(PARAMS, backend="vector")
        if poisoned:
            poison(kernel)
        result = kernel.run(ctx_k, model, query, phase="p")
        assert ctx_k.decrypt_bits(result, keys.secret) == expected
        assert books(ctx_k) == books(ctx_t)
        assert result.noise == taped.noise


def test_mixed_source_widths_share_one_step():
    """Two source widths feeding one level: each gets its own tiling
    in the step's buffer, and every amount wraps modulo its *source*."""
    b = IrBuilder()
    x = b.input_ct("x", 5)
    y = b.input_ct("y", 12)
    wide = b.extend(x, 12)
    parts = [wide] + [b.rotate(y, amount) for amount in (3, 7, 11, 12 + 5)]
    parts.append(b.rotate(b.extend(b.rotate(x, 2), 12), 9))
    b.output("out", b.xor_all(parts))
    tape = compile_tape(b.build())
    kernel = compile_megakernel(tape)
    assert kernel.ensure_compiled()
    assert any(
        spec[0] == "gather" and len(spec[1]) == 2
        for spec in kernel._plan.steps
    )

    rng = np.random.default_rng(11)
    setup = FheContext(PARAMS, backend="vector")
    keys = setup.keygen()
    xs, ys = (rng.integers(0, 2, n).astype(np.uint8) for n in (5, 12))
    bindings = {
        "x": setup.encrypt(xs, keys.public),
        "y": setup.encrypt(ys, keys.public),
    }
    tiled = np.tile(xs, 3)[:12]
    expected = tiled.copy()
    for amount in (3, 7, 11, 5):
        expected ^= np.roll(ys, -amount)
    expected ^= np.roll(np.tile(np.roll(xs, -2), 3)[:12], -9)

    ctx_t = FheContext(PARAMS, backend="vector")
    taped = tape.execute(ctx_t, bindings, phase="p")["out"]
    assert ctx_t.decrypt_bits(taped, keys.secret) == expected.tolist()
    for poisoned in (False, True):
        ctx_k = FheContext(PARAMS, backend="vector")
        if poisoned:
            poison(kernel)
        out = kernel.execute(ctx_k, bindings, phase="p")["out"]
        assert ctx_k.decrypt_bits(out, keys.secret) == expected.tolist()
        assert books(ctx_k) == books(ctx_t)


@pytest.mark.parametrize("source_width,width,amount", [
    (12, 12, 0), (12, 12, 5), (12, 12, 11), (5, 12, 0), (5, 12, 3),
    (5, 5, 4), (1, 7, 0), (3, 20, 2),
])
def test_single_destination_window(source_width, width, amount):
    """The direct form: two pieces of the period, then doubling."""
    R = np.full((3, 24), 0xFF, dtype=np.uint8)
    source = np.arange(1, source_width + 1, dtype=np.uint8)
    R[0, :source_width] = source
    fills = ((np.array([0]), source_width, 0),)
    spec = ("gather", fills, np.array([amount]), np.array([2]), width,
            source_width - 1 + width)
    _bind_step(R, spec)()
    wanted = source[(np.arange(width) + amount) % source_width]
    assert R[2, :width].tolist() == wanted.tolist()
    assert (R[2, width:] == 0xFF).all() and (R[1] == 0xFF).all()
