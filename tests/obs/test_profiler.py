"""Tests for the opt-in tape profiler.

The acceptance bar: per-instruction op-count deltas must reconcile
**exactly** with the tracker's own totals over the profiled execution
window, a run's sample walls must add up to the loop's wall, and
profiling must not change results (the profiler rides the tape's one
dispatch loop, so there is no second walk to drift).
"""

from unittest import mock

import numpy as np
import pytest

from repro.fhe.backend import available_backends
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.tracker import OpKind
from repro.ir.plan import bind_model_query
from repro.ir.tape import OP_FUSED
from repro.obs.profiler import TapeProfiler
from repro.serve.simclock import VirtualClock


def random_features(rng, n, precision=8):
    return [int(v) for v in rng.integers(0, 1 << precision, n)]


def _counts_delta(before, after):
    return {
        kind: after[kind] - before.get(kind, 0)
        for kind in after
        if after[kind] != before.get(kind, 0)
    }


@pytest.fixture(scope="module", params=available_backends())
def batched_setup(request):
    """A registered batched tape plus live bindings, built once per
    backend."""
    from repro.core.compiler import CopseCompiler
    from repro.fhe.context import FheContext
    from repro.forest.synthetic import random_forest
    from repro.serve.batched_runtime import encrypt_batch
    from repro.serve.registry import ModelRegistry

    forest = random_forest(
        np.random.default_rng(7), branches_per_tree=[7, 8], max_depth=5
    )
    compiled = CopseCompiler(precision=8).compile(forest)
    registered = ModelRegistry().register(
        "prof", compiled, engine="tape", backend=request.param
    )
    tape = registered.tape
    ctx = FheContext(registered.params, backend=registered.backend)
    rng = np.random.default_rng(3)
    queries = [
        random_features(rng, compiled.n_features)
        for _ in range(registered.layout.capacity)
    ]
    query = encrypt_batch(
        ctx, registered.layout, queries, registered.keys
    )
    bindings = bind_model_query(
        ctx,
        tape.input_widths,
        tape.encrypted_model,
        tape.model_fingerprint,
        registered.batched_model,
        query,
    )
    return ctx, tape, bindings, registered.keys


class SteppingClock(VirtualClock):
    """A virtual clock that advances by ``step`` on every read."""

    def __init__(self, step: float):
        super().__init__()
        self.step = step
        self.reads = []

    def now(self) -> float:
        self.reads.append(self.advance(self.step))
        return self.reads[-1]


class TestTapeReconciliation:
    def test_fused_instructions_take_the_backends_path(self, batched_setup):
        """``vector`` executes fused instructions through ``fused_ops``;
        every other backend through the de-fused op sequence."""
        ctx, tape, bindings, keys = batched_setup
        assert any(ins[0] == OP_FUSED for ins in tape.instructions)
        has_fused = getattr(ctx, "fused_ops", None) is not None
        assert has_fused == (ctx.backend_name == "vector")

    def test_samples_reconcile_exactly_with_tracker(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup
        profiler = TapeProfiler()
        before = ctx.tracker.counts_snapshot()
        tape.execute(ctx, bindings, profiler=profiler)
        after = ctx.tracker.counts_snapshot()
        assert profiler.op_totals() == _counts_delta(before, after)
        assert len(profiler.samples) == tape.num_instructions
        assert profiler.runs == 1

    def test_profiled_and_unprofiled_results_match(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup
        plain = tape.execute(ctx, bindings)
        profiled = tape.execute(ctx, bindings, profiler=TapeProfiler())
        assert set(plain) == set(profiled)
        for name in plain:
            np.testing.assert_array_equal(
                ctx.decrypt(plain[name], keys.secret),
                ctx.decrypt(profiled[name], keys.secret),
            )

    def test_profiling_adds_no_backend_ops(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup

        def delta(profiler):
            before = ctx.tracker.counts_snapshot()
            tape.execute(ctx, bindings, profiler=profiler)
            return _counts_delta(before, ctx.tracker.counts_snapshot())

        assert delta(None) == delta(TapeProfiler())

    def test_noise_depth_readout(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup
        profiler = TapeProfiler()
        tape.execute(ctx, bindings, profiler=profiler)
        assert profiler.max_depth == tape.profile.depth
        depths = [s.depth for s in profiler.samples if s.depth is not None]
        assert depths and max(depths) == profiler.max_depth

    def test_samples_accumulate_across_runs(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup
        profiler = TapeProfiler()
        tape.execute(ctx, bindings, profiler=profiler)
        tape.execute(ctx, bindings, profiler=profiler)
        assert profiler.runs == 2
        assert len(profiler.samples) == 2 * tape.num_instructions

    def test_phase_scoped_profiling(self, batched_setup):
        ctx, tape, bindings, keys = batched_setup
        profiler = TapeProfiler()
        tape.execute(ctx, bindings, phase="probe", profiler=profiler)
        phase = ctx.tracker.phase_stats("probe")
        assert profiler.op_totals() == {
            kind: n for kind, n in phase.counts.items() if n
        }

    def test_sample_walls_add_up_to_the_loop_wall(self, batched_setup):
        """One clock read per instruction: every step the clock takes
        between ``begin_run`` and the last instruction lands in exactly
        one sample."""
        ctx, tape, bindings, keys = batched_setup
        clock = SteppingClock(step=0.25)
        profiler = TapeProfiler(clock=clock)
        tape.execute(ctx, bindings, profiler=profiler)
        assert len(clock.reads) == tape.num_instructions + 1
        assert profiler.total_wall_s == clock.reads[-1] - clock.reads[0]
        assert {s.wall_s for s in profiler.samples} == {0.25}


class FakeTracker:
    """Hands out cumulative op counts, one snapshot per read."""

    def __init__(self, *snapshots):
        self._snapshots = iter(snapshots)

    def counts_snapshot(self):
        return dict(next(self._snapshots))


def ciphertext_of_depth(depth: int):
    result = mock.Mock(spec=Ciphertext)
    result.noise.effective_depth = depth
    return result


class TestAggregation:
    def _fake(self):
        samples = [
            (0, "mul", 0.002, {OpKind.MULTIPLY: 1}),
            (1, "mul", 0.004, {OpKind.MULTIPLY: 1}),
            (2, "rotate", 0.001, {OpKind.ROTATE: 1}),
            (3, "fused", 0.010, {OpKind.MULTIPLY: 2, OpKind.ADD: 3}),
        ]
        cumulative, snapshots = {}, [{}]
        for _, _, _, counts in samples:
            for kind, n in counts.items():
                cumulative[kind] = cumulative.get(kind, 0) + n
            snapshots.append(dict(cumulative))
        clock = VirtualClock()
        profiler = TapeProfiler(clock=clock)
        profiler.begin_run(FakeTracker(*snapshots))
        for index, opcode, wall, _ in samples:
            clock.advance(wall)
            profiler.instruction(
                index, opcode, ciphertext_of_depth(index + 1)
            )
        return profiler

    def test_by_opcode_sorted_by_wall(self):
        by_op = self._fake().by_opcode()
        assert list(by_op) == ["fused", "mul", "rotate"]
        assert by_op["mul"].instructions == 2
        assert by_op["mul"].wall_s == pytest.approx(0.006)
        assert by_op["fused"].ops == 5
        assert by_op["fused"].max_depth == 4

    def test_range_totals_half_open(self):
        totals = self._fake().range_totals(1, 3)
        assert totals.instructions == 2
        assert totals.ops == 2
        assert totals.wall_s == pytest.approx(0.005)

    def test_totals_and_max_depth(self):
        profiler = self._fake()
        assert profiler.total_wall_s == pytest.approx(0.017)
        assert profiler.max_depth == 4
        assert profiler.op_totals() == {
            OpKind.MULTIPLY: 4, OpKind.ROTATE: 1, OpKind.ADD: 3,
        }

    def test_report_renders(self):
        text = self._fake().report(ranges=2)
        assert "profiled runs: 1, samples: 4" in text
        assert "fused" in text
        assert "[0:2)" in text and "[2:4)" in text

    def test_as_dict_shape(self):
        record = self._fake().as_dict()
        assert record["runs"] == 1
        assert record["samples"] == 4
        assert record["max_depth"] == 4
        assert record["op_totals"] == {"add": 3, "multiply": 4, "rotate": 1}
        assert record["opcodes"]["fused"]["op_counts"] == {
            "add": 3, "multiply": 2,
        }
        import json

        json.dumps(record)

    def test_instruction_delta_and_depth_capture(self, ctx, keys):
        profiler = TapeProfiler()
        ct = ctx.encrypt([1, 0, 1], keys.public)
        profiler.begin_run(FakeTracker(
            {OpKind.MULTIPLY: 3}, {OpKind.MULTIPLY: 5, OpKind.ADD: 0},
        ))
        squared = ctx.multiply(ct, ct)
        profiler.instruction(0, "mul", squared)
        (sample,) = profiler.samples
        assert sample.op_counts == {OpKind.MULTIPLY: 2}
        assert sample.depth == squared.noise.effective_depth
        assert sample.ops == 2

    def test_plaintext_result_has_no_depth(self):
        profiler = TapeProfiler()
        profiler.begin_run(FakeTracker({}, {OpKind.ADD: 1}))
        profiler.instruction(0, "const_add", "not-a-ciphertext")
        assert profiler.samples[0].depth is None
