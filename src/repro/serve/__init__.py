"""repro.serve: batched secure-inference service over the COPSE stack.

The single-query runtime leaves most BGV SIMD slots idle and re-encrypts
the model on every call.  This subsystem amortizes both across a query
stream:

* :mod:`repro.serve.packing` — batch geometry (:class:`BatchLayout`):
  ``B = slot_count // padded_width`` queries per ciphertext;
* :mod:`repro.serve.batched_runtime` — Algorithm 1 over a packed batch,
  and ``evaluate_registered_batches``, the one pack → execute → decrypt
  → demux → verify routine both transports run;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`: compile,
  parameter-select, encrypt and stage (plan, tape, megakernel) each
  model exactly once;
* :mod:`repro.serve.batcher` — query validation, what a batch answers
  and books, and :class:`QueryBatcher` (batches outside a service);
* :mod:`repro.serve.scheduler` — :class:`SchedulerCore`, the pure
  scheduling core: bounded queues with admission control, cuts when
  full or out of deadline slack, weighted fair sharing, the worker pool;
* :mod:`repro.serve.cluster` — :class:`RouterCore`, the core that also
  places and fails over (ship-once, worker epochs, heartbeats, the one
  crash policy: park -> backoff -> quarantine -> dead-letter);
* :mod:`repro.serve.service` — :class:`CopseService`: the one facade
  (``register_model`` / ``submit_many`` / ``stats``) over router,
  transport and one pump step, which a pump thread runs live.
  :class:`ClusterService` is the same facade over worker processes;
* :mod:`repro.serve.transport` — *where* a cut batch is evaluated:
  ``InThreadTransport`` (the pump thread) or ``ProcessTransport``
  (``multiprocessing`` workers behind pipes), plus the wire types;
* :mod:`repro.serve.loadgen` — seeded open-loop load (Poisson + bursts,
  heterogeneous tenants) and :class:`SimRunner`, the one deterministic
  simulator: it steps the same facade's pump over a
  :class:`VirtualTransport` under a :class:`VirtualClock`
  (:mod:`repro.serve.simclock`);
* :mod:`repro.serve.faults` — fault-domain policies
  (:class:`RetryPolicy`, :class:`CircuitBreaker`,
  :class:`DeadLetterQueue`, the engine degradation ladder) and
  :class:`FaultPlan`, the one chaos matrix: the virtual transport
  injects it, and so does the test-only ``chaos_worker_main`` shim in
  real worker processes.

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
    "chaos_worker_main",
]
