"""COPSE core: the paper's primary contribution.

* :mod:`repro.core.analysis` — model analysis (Section 4.1.1): preorder
  enumerations, levels, downstream sets, multiplicities, the per-level
  branch selection that drives level matrices and masks;
* :mod:`repro.core.fixedpoint` — fixed-point codec (Section 4.1.2);
* :mod:`repro.core.structures` — the four vectorizable structures
  (Section 4.2): padded threshold vector, reshuffling matrix, level
  matrices, level masks, all with generalized-diagonal representations;
* :mod:`repro.core.seccomp` — the SecComp comparison circuit;
* :mod:`repro.core.matmul` — Halevi-Shoup diagonal matrix-vector product;
* :mod:`repro.core.compiler` — the COPSE compiler: forest -> CompiledModel;
* :mod:`repro.core.codegen` — staging back end emitting specialized source;
* :mod:`repro.core.engines` — the engine table: what each execution
  engine runs, where its work is booked, and the one checked path;
* :mod:`repro.core.runtime` — Maurice / Diane / Sally and Algorithm 1;
* :mod:`repro.core.complexity` — the analytic op counts of Tables 1 and 2;
* :mod:`repro.core.extensions` — the Section 7.2 privacy/performance knobs.
"""

from repro.core.analysis import ModelAnalysis
from repro.core.fixedpoint import FixedPointCodec
from repro.core.compiler import CompiledModel, CopseCompiler
from repro.core.runtime import (
    CopseServer,
    DataOwner,
    EncryptedModel,
    EncryptedQuery,
    InferenceResult,
    ModelOwner,
    secure_inference,
)
from repro.core.complexity import CopseComplexity
from repro.core.threeparty import ThreePartyOutcome, three_party_inference

__all__ = [
    "ModelAnalysis",
    "FixedPointCodec",
    "CompiledModel",
    "CopseCompiler",
    "ModelOwner",
    "DataOwner",
    "CopseServer",
    "EncryptedModel",
    "EncryptedQuery",
    "InferenceResult",
    "secure_inference",
    "CopseComplexity",
    "ThreePartyOutcome",
    "three_party_inference",
]
