"""repro.serve: batched secure-inference service over the COPSE stack.

The single-query runtime leaves most BGV SIMD slots idle and re-encrypts
the model on every call.  This subsystem amortizes both across a query
stream:

* :mod:`repro.serve.packing` — batch geometry (:class:`BatchLayout`):
  ``B = slot_count // padded_width`` queries per ciphertext, slot packing
  and result demultiplexing;
* :mod:`repro.serve.batched_runtime` — Algorithm 1 over a packed batch:
  block-local gathers replace cyclic rotations so one comparison /
  reshuffle / levels / accumulate pipeline serves every packed query;
  and ``evaluate_registered_batches``, the one pack → execute →
  decrypt → demux → attribute → verify routine both transports
  run (the batches of one call share each stage, so the megakernel
  executes them in one pass);
* :mod:`repro.serve.registry` — :class:`ModelRegistry`: compile,
  parameter-select, and encrypt each model exactly once — and, with the
  default ``engine="tape"``, lower + optimize its batched pipeline into
  a cached :class:`~repro.ir.plan.InferencePlan` and compile that into
  a :class:`~repro.ir.tape.CompiledTape` (linearized, register-reused,
  rotation-scheduled) that every batch executes (``engine="plan"``
  keeps the graph-walking executor, ``engine="eager"`` the
  hand-scheduled interpreter);
* :mod:`repro.serve.batcher` — query validation, what a batch answers
  and books, and :class:`QueryBatcher` (batches outside a service);
* :mod:`repro.serve.scheduler` — the event-driven, deadline-aware,
  multi-tenant scheduling core (:class:`SchedulerCore`, pure: no
  threads, no clock): per-model bounded queues with admission control,
  adaptive batch cutting (full *or* out of deadline slack), weighted
  fair sharing, the worker pool and the one in-flight map;
* :mod:`repro.serve.simclock` — the :class:`Clock` seam (real vs
  :class:`VirtualClock`) that makes scheduling decisions simulable;
* :mod:`repro.serve.loadgen` — seeded open-loop load generation
  (Poisson + bursts, heterogeneous tenants), the :class:`FaultPlan`
  chaos matrix, and :class:`SimRunner`, the one deterministic
  discrete-event simulator (it drives :class:`RouterCore`);
* :mod:`repro.serve.cluster` — :class:`RouterCore`: the decision core
  every engine drives, a :class:`SchedulerCore` that also places and
  fails over (ship-once model distribution keyed by compiled-model
  fingerprints, worker epochs, heartbeats, and the one crash policy:
  park -> backoff -> quarantine -> dead-letter);
* :mod:`repro.serve.transport` — the ``Transport`` seam, *where* a cut
  batch is evaluated: ``InThreadTransport`` (on the service's own pump
  thread) or ``ProcessTransport`` (real
  ``multiprocessing`` workers behind pipes, each running
  :func:`repro.serve.worker.worker_main`), plus the wire types;
* :mod:`repro.serve.service` — :class:`CopseService`: the one facade
  (``register_model`` / ``submit_many`` / ``stats``; ``submit`` is the
  block of one; a request is validated, admitted, booked and answered
  per block, not per query) over router, pump and transport.
  :class:`ClusterService` is the same facade opened over worker
  processes;
* :mod:`repro.serve.faults` — fault-domain hardening policies:
  :class:`RetryPolicy` (deterministic exponential backoff + hedged
  re-execution), :class:`CircuitBreaker` (per (model, worker)
  closed/open/half-open placement vetoes), the bounded
  :class:`DeadLetterQueue` fed by poison-batch quarantine bisection,
  the engine/backend degradation ladders, and the test-only
  :class:`TransportFaultPlan` chaos shim for real worker processes.

Quickstart::

    from repro.serve import CopseService

    with CopseService(threads=4) as service:   # or ClusterService(workers=4)
        service.register_model("credit", forest)
        results = service.classify_many("credit", queries)
        # or keep the futures: one admission for the whole block
        futures = service.submit_many("credit", queries, tenant="acme")
        service.flush("credit")
        print(service.stats().render())

See DESIGN.md (serve subsystem inventory) for the architecture and trust
model, and EXPERIMENTS.md for the throughput measurements.
"""

from repro.serve.packing import BatchLayout, plan_layout
from repro.serve.batched_runtime import (
    BATCH_INFERENCE_PHASES,
    BatchedCopseServer,
    BatchedEncryptedModel,
    build_batched_model,
    encrypt_batch,
)
from repro.serve.registry import ModelRegistry, RegisteredModel
from repro.serve.batcher import (
    BatchRecord,
    ClassificationResult,
    QueryBatcher,
)
from repro.serve.simclock import Clock, RealClock, VirtualClock
from repro.serve.scheduler import (
    Assignment,
    QueryRun,
    SchedulerCore,
    SchedulerStats,
)
from repro.serve.loadgen import (
    Arrival,
    FaultPlan,
    ModelProfile,
    SimReport,
    SimRunner,
    TenantSpec,
    generate_arrivals,
    offered_load,
)
from repro.serve.service import CopseService, ServiceStats
from repro.serve.transport import BatchRequest, BatchResult, ShippedModel
from repro.serve.cluster import ClusterService, RouterCore
from repro.serve.faults import (
    ENGINE_LADDER,
    CircuitBreaker,
    DeadLetter,
    DeadLetterQueue,
    RetryPolicy,
    TransportFaultPlan,
    chaos_worker_main,
    degrade_engine,
)

__all__ = [
    "BatchLayout",
    "plan_layout",
    "BATCH_INFERENCE_PHASES",
    "BatchedCopseServer",
    "BatchedEncryptedModel",
    "build_batched_model",
    "encrypt_batch",
    "ModelRegistry",
    "RegisteredModel",
    "QueryBatcher",
    "BatchRecord",
    "ClassificationResult",
    "Clock",
    "RealClock",
    "VirtualClock",
    "Assignment",
    "QueryRun",
    "SchedulerCore",
    "SchedulerStats",
    "Arrival",
    "FaultPlan",
    "ModelProfile",
    "SimReport",
    "SimRunner",
    "TenantSpec",
    "generate_arrivals",
    "offered_load",
    "CopseService",
    "ServiceStats",
    "ShippedModel",
    "BatchRequest",
    "BatchResult",
    "RouterCore",
    "ClusterService",
    "RetryPolicy",
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "ENGINE_LADDER",
    "degrade_engine",
    "TransportFaultPlan",
    "chaos_worker_main",
]
