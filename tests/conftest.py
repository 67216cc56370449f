"""Shared fixtures, the CI hypothesis profile, and the suite timeout cap.

Besides the model fixtures and the naive IR emission the lowering tests
compare against (:class:`BareBuilder`, :func:`bare_emission`), this
file centralizes three pieces of suite infrastructure:

* the ``repro-plan-ci`` hypothesis profile (derandomized, scaled by
  ``$REPRO_DIFF_EXAMPLES``) — registered once here so every
  property-based suite shares the same fixed CI case set;
* :func:`bench_quick`, the one reading of CI's ``$REPRO_BENCH_QUICK``,
  and :func:`digest`, the pinned hash of a seeded simulator output;
* a suite-wide per-test timeout.  With the ``pytest-timeout`` plugin
  installed (CI does) the ``timeout`` ini option applies; without it, a
  SIGALRM fallback below enforces the same cap, so a hung scheduler
  test can never wedge a local run either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.compiler import CopseCompiler
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf
from repro.forest.synthetic import random_forest
from repro.forest.tree import DecisionTree
from repro.ir import copse_ir, plan as ir_plan
from repro.ir.builder import IrBuilder


# ---------------------------------------------------------------------------
# Hypothesis: the fixed CI profile (registered once, used suite-wide)
# ---------------------------------------------------------------------------

settings.register_profile(
    "repro-plan-ci",
    max_examples=int(os.environ.get("REPRO_DIFF_EXAMPLES", "200")),
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Suite-wide timeout: pytest-timeout when available, SIGALRM fallback
# ---------------------------------------------------------------------------

#: Cap applied when neither pytest.ini's ``timeout`` nor the plugin is
#: in play.  Generous: the slowest legitimate test is a fraction of it.
DEFAULT_TIMEOUT_S = 300.0

_HAVE_TIMEOUT_PLUGIN = importlib.util.find_spec("pytest_timeout") is not None


class SuiteTimeout(Exception):
    """A test exceeded the suite-wide per-test cap (fallback enforcer)."""


if not _HAVE_TIMEOUT_PLUGIN and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        seconds = float(
            item.config.inicfg.get("timeout", DEFAULT_TIMEOUT_S)
        )
        if seconds <= 0 or threading.current_thread() is not (
            threading.main_thread()
        ):
            yield
            return

        def on_alarm(signum, frame):
            raise SuiteTimeout(
                f"{item.nodeid} exceeded the suite-wide "
                f"{seconds:.0f}s timeout (install pytest-timeout for "
                f"richer diagnostics)"
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser):
    """Without pytest-timeout, declare its ``timeout`` ini key, which the
    fallback above reads, so pytest does not warn it is unknown."""
    if not _HAVE_TIMEOUT_PLUGIN:
        parser.addini(
            "timeout", "per-test timeout in seconds (SIGALRM fallback)"
        )


def pytest_configure(config):
    """Refuse to run with pytest.ini's timeout silently unenforced.

    ``timeout = 300`` in pytest.ini is only honored by the
    pytest-timeout plugin; a run without the plugin *and* without the
    SIGALRM fallback above (e.g. a platform with no SIGALRM) would
    quietly drop the cap — the exact misconfiguration this guard turns
    into a hard error instead of a hung CI job.
    """
    if config.inicfg.get("timeout") is None:
        return
    if not _HAVE_TIMEOUT_PLUGIN and not hasattr(signal, "SIGALRM"):
        raise pytest.UsageError(
            "pytest.ini sets a timeout, but neither the pytest-timeout "
            "plugin nor the SIGALRM fallback is available on this "
            "platform; install pytest-timeout (the 'test' extra "
            "includes it)"
        )


class BareBuilder(IrBuilder):
    """:class:`IrBuilder`'s combinators with one node per call: every
    emission goes through bare ``IrGraph.add`` and a replay always
    re-emits.  Its graph is the naive build whose profile the shared
    builder tallies."""

    def _emit(self, op, args, attr, width, is_cipher, like=None):
        return self.graph.add(
            op, args, attr=attr, width=width, is_cipher=is_cipher
        )

    def replay(self, key, emit):
        return emit()


@contextlib.contextmanager
def bare_emission():
    """Lowerings made inside the block build through :class:`BareBuilder`:
    the naive graph, with nothing shared at emission."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(copse_ir, "IrBuilder", BareBuilder)
        patch.setattr(ir_plan, "IrBuilder", BareBuilder)
        yield


def digest(text: str) -> str:
    """The first 16 hex digits of ``text``'s sha256: one pinned line
    locks a whole seeded simulator output (decision log, stats repr)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bench_quick() -> bool:
    """CI's quick mode: ``REPRO_BENCH_QUICK`` set to anything but empty,
    "0", "false" or "no" trims the big simulated soaks."""
    return os.environ.get("REPRO_BENCH_QUICK", "").lower() not in (
        "", "0", "false", "no",
    )


@pytest.fixture
def params() -> EncryptionParams:
    return EncryptionParams.paper_defaults()


@pytest.fixture
def ctx(params) -> FheContext:
    return FheContext(params)


@pytest.fixture
def keys(ctx):
    return ctx.keygen()


def build_example_tree() -> DecisionTree:
    """A small fixed tree used across tests (in the spirit of Figure 1).

    Structure (decision = feature < threshold; true child listed first)::

        d0: x1 < 120
          d1: x0 < 60
            L0
            d2: x1 < 40 -> L1 / L2
          d3: x0 < 200 -> L1 / L0
    """
    return DecisionTree(
        root=Branch(
            feature=1,
            threshold=120,
            true_child=Branch(
                feature=0,
                threshold=60,
                true_child=Leaf(0),
                false_child=Branch(
                    feature=1,
                    threshold=40,
                    true_child=Leaf(1),
                    false_child=Leaf(2),
                ),
            ),
            false_child=Branch(
                feature=0,
                threshold=200,
                true_child=Leaf(1),
                false_child=Leaf(0),
            ),
        )
    )


@pytest.fixture
def example_tree() -> DecisionTree:
    return build_example_tree()


@pytest.fixture
def example_forest(example_tree) -> DecisionForest:
    second = DecisionTree(
        root=Branch(
            feature=0,
            threshold=100,
            true_child=Leaf(2),
            false_child=Branch(
                feature=1,
                threshold=220,
                true_child=Leaf(0),
                false_child=Leaf(1),
            ),
        )
    )
    return DecisionForest(
        trees=[example_tree, second],
        label_names=["L0", "L1", "L2"],
        n_features=2,
    )


@pytest.fixture
def small_random_forest() -> DecisionForest:
    return random_forest(
        np.random.default_rng(7), branches_per_tree=[7, 8], max_depth=5
    )


@pytest.fixture
def compiled_example(example_forest):
    return CopseCompiler(precision=8).compile(example_forest)


def random_features(rng: np.random.Generator, n: int, precision: int = 8):
    return [int(v) for v in rng.integers(0, 1 << precision, n)]
