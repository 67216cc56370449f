"""Frozen inputs: the ten paper models as text, and seeded query features.

The models were dumped once with ``repro.forest.serialize.dumps_forest``
from ``repro.bench_harness.workloads`` and are never regenerated here,
so a later change to the trainer, the synthesiser or ``bench_harness``
cannot move the benchmark.  ``MANIFEST.json`` pins each file's sha256
and the fixed-point precision it is staged at; a file that does not
match is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

MODELS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")


@dataclass(frozen=True)
class FrozenModel:
    name: str
    text: str
    precision: int
    n_features: int


def _manifest() -> Dict[str, Dict[str, object]]:
    with open(os.path.join(MODELS_DIR, "MANIFEST.json")) as handle:
        return json.load(handle)


def model_names() -> List[str]:
    """The frozen models, in the order of the paper's figures."""
    return list(_manifest())


def load_model(name: str) -> FrozenModel:
    entry = _manifest()[name]
    with open(os.path.join(MODELS_DIR, f"{name}.txt")) as handle:
        text = handle.read()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != entry["sha256"]:
        raise ValueError(
            f"frozen model {name!r} has sha256 {digest}, "
            f"but the manifest pins {entry['sha256']}"
        )
    n_features = int(text.splitlines()[1].split(":")[1])
    return FrozenModel(name, text, int(entry["precision"]), n_features)


def make_queries(model: FrozenModel, count: int, seed: int) -> List[List[int]]:
    """``count`` uniform feature vectors; the same seed gives the same list."""
    rng = np.random.default_rng([seed, zlib.crc32(model.name.encode())])
    limit = 1 << model.precision
    return rng.integers(0, limit, (count, model.n_features)).tolist()


def poisson_due_times(count: int, rate_qps: float, seed: int) -> List[float]:
    """Arrival offsets (s) of a Poisson process at ``rate_qps``."""
    rng = np.random.default_rng([seed, zlib.crc32(b"arrivals")])
    return np.cumsum(rng.exponential(1.0 / rate_qps, count)).tolist()
