"""Opt-in tape profiling: wall time, ops, and noise per opcode.

A :class:`TapeProfiler` is handed to
:meth:`repro.ir.tape.CompiledTape.execute`, whose one dispatch loop
calls :meth:`TapeProfiler.begin_run` before the first instruction and
:meth:`TapeProfiler.instruction` after each one, with the instruction
index, the opcode name and the produced value.  On each call the
profiler reads its clock and the tracker's primitive-op counts once and
stores what elapsed since the previous read:

* the wall time — the instruction, its dispatch and its register frees,
  so a run's samples add up exactly to the loop's wall;
* the op-count *delta*, so summing every sample reconciles **exactly**
  with the tracker's own totals (the acceptance check in
  ``tests/obs/test_profiler.py``);
* the noise read-out of the produced value
  (:attr:`~repro.fhe.noise.NoiseState.effective_depth` of the result
  ciphertext).

Profiling is opt-in: the tape takes ``profiler=None``, and without one
its loop pays one ``is not None`` test per instruction — no callback, no
snapshot, no clock read.  Samples accumulate across runs (a serve
worker can profile every batch of a soak); aggregation is per opcode
(:meth:`TapeProfiler.by_opcode`) and per instruction range
(:meth:`TapeProfiler.range_totals`), surfaced by ``repro trace tape``
(:meth:`TapeProfiler.report`; ``--json`` writes
:meth:`TapeProfiler.as_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fhe.ciphertext import Ciphertext
from repro.fhe.tracker import OpKind

__all__ = ["InstructionSample", "OpcodeTotals", "TapeProfiler"]


@dataclass
class InstructionSample:
    """One executed instruction's measurements."""

    index: int
    opcode: str
    wall_s: float
    #: Primitive-op delta recorded by the tracker for this instruction.
    op_counts: Dict[OpKind, int]
    #: Noise read-out: the result ciphertext's effective multiplicative
    #: depth (None for plaintext results).
    depth: Optional[int]

    @property
    def ops(self) -> int:
        return sum(self.op_counts.values())


@dataclass
class OpcodeTotals:
    """Aggregate over every sample of one opcode."""

    opcode: str
    instructions: int = 0
    wall_s: float = 0.0
    op_counts: Dict[OpKind, int] = field(default_factory=dict)
    max_depth: int = 0

    def add(self, sample: InstructionSample) -> None:
        self.instructions += 1
        self.wall_s += sample.wall_s
        for kind, n in sample.op_counts.items():
            self.op_counts[kind] = self.op_counts.get(kind, 0) + n
        if sample.depth is not None and sample.depth > self.max_depth:
            self.max_depth = sample.depth

    @property
    def ops(self) -> int:
        return sum(self.op_counts.values())


class TapeProfiler:
    """Accumulates per-instruction samples across profiled executions.

    ``clock`` (a :class:`~repro.serve.simclock.Clock`, default
    :class:`~repro.serve.simclock.RealClock`) is the one time source: a
    run driven by a ``VirtualClock`` profiles in virtual time, so its
    samples (and the ``as_dict()`` record folded into trace/bench
    artifacts) are byte-identical per seed instead of mixing
    nondeterministic wall time into an otherwise deterministic export.
    """

    def __init__(self, clock=None):
        if clock is None:
            from repro.serve.simclock import RealClock

            clock = RealClock()
        self.clock = clock
        self.samples: List[InstructionSample] = []
        self.runs = 0
        self._tracker = None
        self._last_s = 0.0
        self._last_counts: Dict[OpKind, int] = {}

    # ------------------------------------------------------------------
    # Recording (called by the tape's dispatch loop)
    # ------------------------------------------------------------------

    def begin_run(self, tracker) -> None:
        """Start a run on ``tracker``: the first sample's reference."""
        self.runs += 1
        self._tracker = tracker
        self._last_counts = tracker.counts_snapshot()
        self._last_s = self.clock.now()

    def instruction(self, index: int, opcode: str, result) -> None:
        """Record everything since the previous call as one instruction."""
        now = self.clock.now()
        after = self._tracker.counts_snapshot()
        before = self._last_counts
        wall_s = now - self._last_s
        self._last_s, self._last_counts = now, after
        delta = {
            kind: after[kind] - before.get(kind, 0)
            for kind in after
            if after[kind] != before.get(kind, 0)
        }
        depth: Optional[int] = None
        if isinstance(result, Ciphertext):
            depth = result.noise.effective_depth
        self.samples.append(
            InstructionSample(index, opcode, wall_s, delta, depth)
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def op_totals(self) -> Dict[OpKind, int]:
        """Primitive-op counts summed over every sample.

        Built from per-instruction tracker deltas, so for a profiled
        execution this reconciles exactly with the tracker's own totals
        for that phase.
        """
        totals: Dict[OpKind, int] = {}
        for sample in self.samples:
            for kind, n in sample.op_counts.items():
                totals[kind] = totals.get(kind, 0) + n
        return totals

    def by_opcode(self) -> Dict[str, OpcodeTotals]:
        """Per-opcode aggregates, sorted by descending wall time."""
        out: Dict[str, OpcodeTotals] = {}
        for sample in self.samples:
            totals = out.get(sample.opcode)
            if totals is None:
                totals = out[sample.opcode] = OpcodeTotals(sample.opcode)
            totals.add(sample)
        return dict(
            sorted(out.items(), key=lambda kv: -kv[1].wall_s)
        )

    def range_totals(self, start: int, stop: int) -> OpcodeTotals:
        """Aggregate over instruction indices in ``[start, stop)``."""
        totals = OpcodeTotals(f"[{start}:{stop})")
        for sample in self.samples:
            if start <= sample.index < stop:
                totals.add(sample)
        return totals

    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)

    @property
    def max_depth(self) -> int:
        return max(
            (s.depth for s in self.samples if s.depth is not None),
            default=0,
        )

    # ------------------------------------------------------------------
    # Surfacing
    # ------------------------------------------------------------------

    def report(self, ranges: int = 4) -> str:
        """The ``repro trace tape`` text report.

        Per-opcode table (wall ms, instruction count, primitive ops,
        max noise depth) followed by a coarse instruction-range
        breakdown locating *where* on the tape the time goes.
        """
        lines = [
            f"profiled runs: {self.runs}, samples: {len(self.samples)}, "
            f"wall {self.total_wall_s * 1e3:.3f} ms, "
            f"max noise depth {self.max_depth}",
            "",
            f"{'opcode':<10} {'instrs':>8} {'wall ms':>10} "
            f"{'ops':>8} {'depth':>6}  op breakdown",
        ]
        for name, totals in self.by_opcode().items():
            breakdown = ", ".join(
                f"{kind.value}={n}"
                for kind, n in sorted(
                    totals.op_counts.items(), key=lambda kv: kv[0].value
                )
            )
            lines.append(
                f"{name:<10} {totals.instructions:>8} "
                f"{totals.wall_s * 1e3:>10.3f} {totals.ops:>8} "
                f"{totals.max_depth:>6}  {breakdown}"
            )
        if self.samples and ranges > 0:
            length = max(s.index for s in self.samples) + 1
            step = -(-length // ranges)
            lines.append("")
            lines.append(
                f"{'range':<14} {'instrs':>8} {'wall ms':>10} {'ops':>8}"
            )
            for start in range(0, length, step):
                stop = min(start + step, length)
                totals = self.range_totals(start, stop)
                lines.append(
                    f"{totals.opcode:<14} {totals.instructions:>8} "
                    f"{totals.wall_s * 1e3:>10.3f} {totals.ops:>8}"
                )
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        """JSON-able record (``repro trace tape --json``)."""
        opcodes = {}
        for name, totals in self.by_opcode().items():
            opcodes[name] = {
                "instructions": totals.instructions,
                "wall_ms": round(totals.wall_s * 1e3, 6),
                "ops": totals.ops,
                "op_counts": {
                    kind.value: n
                    for kind, n in sorted(
                        totals.op_counts.items(),
                        key=lambda kv: kv[0].value,
                    )
                },
                "max_depth": totals.max_depth,
            }
        return {
            "runs": self.runs,
            "samples": len(self.samples),
            "wall_ms": round(self.total_wall_s * 1e3, 6),
            "max_depth": self.max_depth,
            "op_totals": {
                kind.value: n
                for kind, n in sorted(
                    self.op_totals().items(), key=lambda kv: kv[0].value
                )
            },
            "opcodes": opcodes,
        }
