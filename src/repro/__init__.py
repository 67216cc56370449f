"""COPSE: vectorized secure evaluation of decision forests.

A complete Python reproduction of *"Vectorized Secure Evaluation of
Decision Forests"* (Malik, Singhal, Gottfried, Kulkarni — PLDI 2021):
the COPSE compiler and runtime, a BGV-style FHE simulator substrate with
ciphertext packing and cost-accurate operation tracking, the Aloufi et
al. polynomial baseline it is evaluated against, the security/leakage
analysis of Section 7, and a benchmark harness regenerating every table
and figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import CopseCompiler, secure_inference
    from repro.forest import random_forest

    forest = random_forest(np.random.default_rng(0), [7, 8], max_depth=5)
    compiled = CopseCompiler(precision=8).compile(forest)
    outcome = secure_inference(compiled, features=[40, 200])
    print(outcome.result.chosen_labels, outcome.result.plurality_name())

At service scale, :class:`repro.serve.CopseService` amortizes one
compiled+encrypted model across a query stream via cross-query SIMD
packing::

    from repro import CopseService

    with CopseService(threads=4) as service:
        service.register_model("demo", forest)
        results = service.classify_many("demo", [[40, 200], [17, 3]])

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.errors import (
    CompileError,
    CopseError,
    FheError,
    KeyMismatchError,
    ModelError,
    NoiseBudgetExceededError,
    RuntimeProtocolError,
)
from repro.fhe import (
    CostModel,
    EncryptionParams,
    FheBackend,
    FheContext,
    OpTracker,
    available_backends,
    backend_description,
    default_backend,
    get_backend,
    register_backend,
)
from repro.forest import DecisionForest, DecisionTree
from repro.core import (
    CompiledModel,
    CopseCompiler,
    CopseServer,
    DataOwner,
    ModelOwner,
    secure_inference,
)
from repro.ir import (
    CompiledTape,
    InferencePlan,
    IrBuilder,
    IrGraph,
    IrNode,
    IrOp,
    analyze_cost,
    analyze_counts,
    analyze_depth,
    build_inference_graph,
    common_subexpression_elimination,
    dead_code_elimination,
    execute,
    fuse_rotations,
    lower_batched_inference,
    lower_inference,
    optimize,
    schedule_rotations,
)
from repro.serve import (
    BatchLayout,
    ClassificationResult,
    CopseService,
    FaultPlan,
    ModelProfile,
    ModelRegistry,
    QueryBatcher,
    SchedulerStats,
    ServiceStats,
    SimRunner,
    TenantSpec,
    VirtualClock,
    generate_arrivals,
)

__version__ = "1.2.0"

__all__ = [
    "CopseError",
    "FheError",
    "ModelError",
    "CompileError",
    "RuntimeProtocolError",
    "KeyMismatchError",
    "NoiseBudgetExceededError",
    "EncryptionParams",
    "FheContext",
    "FheBackend",
    "available_backends",
    "backend_description",
    "default_backend",
    "get_backend",
    "register_backend",
    "OpTracker",
    "CostModel",
    "DecisionForest",
    "DecisionTree",
    "CompiledModel",
    "CopseCompiler",
    "ModelOwner",
    "DataOwner",
    "CopseServer",
    "secure_inference",
    "InferencePlan",
    "CompiledTape",
    "IrBuilder",
    "IrGraph",
    "IrNode",
    "IrOp",
    "analyze_cost",
    "analyze_counts",
    "analyze_depth",
    "build_inference_graph",
    "common_subexpression_elimination",
    "dead_code_elimination",
    "execute",
    "fuse_rotations",
    "lower_batched_inference",
    "lower_inference",
    "optimize",
    "schedule_rotations",
    "BatchLayout",
    "ClassificationResult",
    "CopseService",
    "FaultPlan",
    "ModelProfile",
    "ModelRegistry",
    "QueryBatcher",
    "SchedulerStats",
    "ServiceStats",
    "SimRunner",
    "TenantSpec",
    "VirtualClock",
    "generate_arrivals",
    "__version__",
]
