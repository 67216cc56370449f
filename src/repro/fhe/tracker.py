"""Operation tracking: counts, dependency DAG, and work/span analysis.

The paper characterizes circuits two ways (Section 6): by the *number of
each kind of primitive FHE operation* (the "work") and by the
*multiplicative depth* (the critical path of multiplies).  Its evaluation
additionally reports wall-clock times, single- and multi-threaded.

The tracker records every primitive operation the
:class:`~repro.fhe.context.FheContext` executes:

* per-kind counters, scoped by *phase* (comparison / reshuffle / levels /
  accumulate — the four stages of the COPSE algorithm), which reproduce
  Tables 1 and 2 and the Figure 10 breakdowns;
* a dependency DAG (each produced ciphertext is a node whose parents are
  its operand ciphertexts), from which the cost model derives the *span*
  (critical-path cost) used to simulate multithreaded execution, and the
  multiplicative depth used to validate Table 2's depth formula.

Phases nest via the :meth:`OpTracker.phase` context manager; operations
recorded outside any phase land in the ``"unscoped"`` phase.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class OpKind(enum.Enum):
    """Primitive FHE operations, matching Section 6 of the paper.

    ``CONST_MULT`` (plaintext-ciphertext multiply) is not listed in the
    paper's Table 1 because the offloading configuration it evaluates most
    encrypts the model; it appears in the Maurice-equals-Sally configuration
    of Section 8.3, where model matrices stay in plaintext.
    """

    ENCRYPT = "encrypt"
    DECRYPT = "decrypt"
    # Re-registration of an already-encrypted ciphertext in a new tracker
    # (the batched service reuses a once-encrypted model across many batch
    # evaluations; loading cached ciphertext is free — no FHE work happens).
    LOAD = "load"
    ADD = "add"
    CONST_ADD = "const_add"
    MULTIPLY = "multiply"
    CONST_MULT = "const_mult"
    ROTATE = "rotate"
    BOOTSTRAP = "bootstrap"
    # Additively-homomorphic (Paillier-style) operations, used by the Wu
    # et al. OT-based protocol (Section 2.3.1).
    AHE_ENCRYPT = "ahe_encrypt"
    AHE_DECRYPT = "ahe_decrypt"
    AHE_ADD = "ahe_add"
    AHE_MUL_PLAIN = "ahe_mul_plain"

    #: Members are singletons compared by identity, so identity hashing
    #: is consistent with equality.  It replaces ``Enum``'s Python-level
    #: ``__hash__`` on every count-dict update.
    __hash__ = object.__hash__


@dataclass
class OpNode:
    """One recorded operation in the dependency DAG."""

    node_id: int
    kind: OpKind
    phase: str
    parents: Tuple[int, ...]
    mult_depth: int


@dataclass
class PhaseStats:
    """Aggregated operation counts for one phase."""

    phase: str
    counts: Dict[OpKind, int] = field(default_factory=dict)

    def count(self, kind: OpKind) -> int:
        return self.counts.get(kind, 0)

    @property
    def total_ops(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        """Counts keyed by operation name (for reports)."""
        return {kind.value: n for kind, n in sorted(
            self.counts.items(), key=lambda kv: kv[0].value)}


UNSCOPED_PHASE = "unscoped"


class OpTracker:
    """Records primitive operations and exposes count / DAG analyses."""

    def __init__(self) -> None:
        self._nodes: List[OpNode] = []
        self._phase_stack: List[str] = []
        self._phase_counts: Dict[str, PhaseStats] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else UNSCOPED_PHASE

    @contextmanager
    def phase(self, name: str):
        """Scope subsequent operations under ``name`` (nestable)."""
        self._phase_stack.append(name)
        try:
            yield self
        finally:
            self._phase_stack.pop()

    def record(self, kind: OpKind, parents: Iterable[int] = ()) -> int:
        """Record one operation; returns the new DAG node id.

        ``parents`` are the node ids of the operand ciphertexts.  Leaf
        operations (encryptions) have no parents.
        """
        parent_ids = tuple(parents)
        depth = 0
        for pid in parent_ids:
            depth = max(depth, self._nodes[pid].mult_depth)
        if kind is OpKind.MULTIPLY:
            depth += 1
        node_id = len(self._nodes)
        phase = self.current_phase
        self._nodes.append(OpNode(node_id, kind, phase, parent_ids, depth))
        stats = self._phase_counts.setdefault(phase, PhaseStats(phase))
        stats.counts[kind] = stats.counts.get(kind, 0) + 1
        return node_id

    # ------------------------------------------------------------------
    # Count queries
    # ------------------------------------------------------------------

    @property
    def phases(self) -> List[str]:
        """Phases in the order they first recorded an operation."""
        return list(self._phase_counts)

    def phase_stats(self, phase: str) -> PhaseStats:
        stats = self._phase_counts.get(phase)
        return stats if stats is not None else PhaseStats(phase)

    def total_counts(self) -> Dict[OpKind, int]:
        """Operation counts across all phases."""
        totals: Dict[OpKind, int] = {}
        for stats in self._phase_counts.values():
            for kind, n in stats.counts.items():
                totals[kind] = totals.get(kind, 0) + n
        return totals

    def counts_snapshot(self) -> Dict[OpKind, int]:
        """A point-in-time copy of the total counts, safe to diff later.

        The tape profiler (:mod:`repro.obs.profiler`) takes one snapshot
        per instruction and stores the delta from the previous one, so
        summing its samples reconciles exactly with :meth:`total_counts`.
        """
        return self.total_counts()

    def count(self, kind: OpKind, phase: Optional[str] = None) -> int:
        if phase is None:
            return self.total_counts().get(kind, 0)
        return self.phase_stats(phase).count(kind)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> OpNode:
        return self._nodes[node_id]

    def nodes(self) -> List[OpNode]:
        """All recorded nodes (copy of the internal list)."""
        return list(self._nodes)

    # ------------------------------------------------------------------
    # DAG analyses
    # ------------------------------------------------------------------

    def multiplicative_depth(self) -> int:
        """Longest chain of MULTIPLY operations in the recorded circuit."""
        return max((n.mult_depth for n in self._nodes), default=0)

    def work_and_span(self, cost_of, phases=None) -> Tuple[float, float]:
        """Total work and critical-path span under a cost function.

        ``cost_of`` maps an :class:`OpKind` to a cost (e.g. milliseconds).
        Work is the sum of all operation costs (sequential execution time);
        span is the cost of the most expensive dependency chain (the lower
        bound on parallel execution time with unlimited workers).

        ``phases`` optionally restricts the analysis to a set of phases
        (e.g. the four inference stages, excluding one-time encryption):
        excluded operations contribute no work and their outputs are
        treated as available at time zero.
        """
        include = None if phases is None else set(phases)
        work = 0.0
        span = 0.0
        finish: List[float] = [0.0] * len(self._nodes)
        for node in self._nodes:
            if include is not None and node.phase not in include:
                finish[node.node_id] = 0.0
                continue
            cost = cost_of(node.kind)
            work += cost
            start = 0.0
            for pid in node.parents:
                start = max(start, finish[pid])
            finish[node.node_id] = start + cost
            span = max(span, finish[node.node_id])
        return work, span

    def dag_level_count(self, phases=None) -> int:
        """Number of topological levels in the (phase-restricted) DAG.

        Used by the cost model as the count of synchronization barriers a
        thread-pool executor (NTL-style) would pass through: all operations
        at one level can run concurrently, but each level joins before the
        next begins.
        """
        if not self._nodes:
            return 0
        include = None if phases is None else set(phases)
        level: List[int] = [0] * len(self._nodes)
        deepest = -1
        for node in self._nodes:
            if include is not None and node.phase not in include:
                level[node.node_id] = -1
                continue
            lvl = 0
            for pid in node.parents:
                lvl = max(lvl, level[pid] + 1)
            level[node.node_id] = lvl
            deepest = max(deepest, lvl)
        return deepest + 1

    # ------------------------------------------------------------------
    # Trace extraction (used by the noninterference checker)
    # ------------------------------------------------------------------

    def trace(self) -> List[Tuple[str, str, Tuple[int, ...]]]:
        """The publicly observable execution trace.

        Each entry is ``(op kind, phase, parent ids)`` — everything an
        adversary timing the evaluator could observe.  Noninterference
        demands this trace be identical for all feature inputs of the same
        shape; ``tests/security`` verify that property.
        """
        return [(n.kind.value, n.phase, n.parents) for n in self._nodes]

    def reset(self) -> None:
        """Clear all recorded state (counts, DAG, phases)."""
        self._nodes.clear()
        self._phase_stack.clear()
        self._phase_counts.clear()


class CountingTracker(OpTracker):
    """An :class:`OpTracker` that keeps counts and depth but no DAG.

    The vector backend's tracker: per-phase operation counts (everything
    the cost model's sequential estimates and the serve stats consume)
    and the exact multiplicative depth, without allocating an
    :class:`OpNode` per operation.  The trick making depth exact with no
    node storage: the "node id" returned by :meth:`record` *is* the
    node's multiplicative depth, so a later operation's depth is just
    ``max(parent ids)`` (+1 for a multiply) — the same recurrence the
    full tracker runs over stored nodes.  Node ids only ever flow back
    into the tracker that issued them, so redefining their meaning is
    invisible to callers.

    DAG-shaped analyses degrade explicitly: :meth:`trace` is empty (no
    noninterference checking), and :meth:`work_and_span` reports
    ``span == work`` (no parallelism estimate) since the critical path
    is unknown without the DAG.
    """

    def __init__(self) -> None:
        super().__init__()
        self._max_depth = 0
        self._total = 0
        #: Count dict of the phase currently recording; bound lazily on
        #: the first record of each phase scope, so a phase with no
        #: operations never appears in the stats (matching OpTracker).
        self._active_counts: Optional[Dict[OpKind, int]] = None

    def _counts_for(self, phase: str) -> Dict[OpKind, int]:
        stats = self._phase_counts.get(phase)
        if stats is None:
            stats = PhaseStats(phase)
            self._phase_counts[phase] = stats
        return stats.counts

    @contextmanager
    def phase(self, name: str):
        """Scope subsequent operations under ``name`` (nestable).

        Overridden to keep the active phase's count dict cached, so
        :meth:`record` touches one dict instead of resolving the phase
        stack on every operation.
        """
        self._phase_stack.append(name)
        previous = self._active_counts
        self._active_counts = None
        try:
            yield self
        finally:
            self._phase_stack.pop()
            self._active_counts = previous

    def record(self, kind: OpKind, parents: Iterable[int] = ()) -> int:
        if type(parents) is not tuple:
            parents = tuple(parents)
        depth = max(parents) if parents else 0
        if kind is OpKind.MULTIPLY:
            depth += 1
            if depth > self._max_depth:
                self._max_depth = depth
        counts = self._active_counts
        if counts is None:
            phase = (
                self._phase_stack[-1] if self._phase_stack else UNSCOPED_PHASE
            )
            counts = self._active_counts = self._counts_for(phase)
        counts[kind] = counts.get(kind, 0) + 1
        self._total += 1
        return depth

    def record_fused(self, kinds: Dict[OpKind, int], depth: int = 0) -> int:
        """Record a fused kernel's constituent operations in one call.

        ``kinds`` are the counts of the primitive operations the kernel
        replaces (so count parity with the de-fused sequence is exact);
        ``depth`` is the result's multiplicative depth, which — since
        this tracker's node ids *are* depths — is also the returned node
        id, exactly what the equivalent op sequence would have produced.
        """
        counts = self._active_counts
        if counts is None:
            phase = (
                self._phase_stack[-1] if self._phase_stack else UNSCOPED_PHASE
            )
            counts = self._active_counts = self._counts_for(phase)
        if counts:
            for kind, n in kinds.items():
                counts[kind] = counts.get(kind, 0) + n
        else:  # the phase's first record: a copy, in the kernel's order
            counts.update(kinds)
        self._total += sum(kinds.values())
        if depth > self._max_depth:
            self._max_depth = depth
        return depth

    @property
    def num_nodes(self) -> int:
        return self._total

    def multiplicative_depth(self) -> int:
        return self._max_depth

    def work_and_span(self, cost_of, phases=None) -> Tuple[float, float]:
        """Work from counts; span degrades to work (no DAG to walk)."""
        include = None if phases is None else set(phases)
        work = 0.0
        for phase, stats in self._phase_counts.items():
            if include is not None and phase not in include:
                continue
            for kind, n in stats.counts.items():
                work += cost_of(kind) * n
        return work, work

    def dag_level_count(self, phases=None) -> int:
        """No DAG, no barrier structure: report zero levels.  Combined
        with ``span == work`` this makes the cost model's multithreaded
        estimate degrade to the sequential time, never below it."""
        return 0

    def trace(self) -> List[Tuple[str, str, Tuple[int, ...]]]:
        return []

    def reset(self) -> None:
        super().reset()
        self._max_depth = 0
        self._total = 0
        self._active_counts = None
