"""The engine table is the only place that knows the engines by name.

Locks: every list of engines in the program is the table's view; the
one checked "run the cached artifact" path keeps all four refusals for
every artifact engine on both servers; and no module outside the table
(and the three artifact modules) compares, enumerates or special-cases
an artifact engine.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser
from repro.core.engines import (
    ARTIFACTS,
    ENGINE_TABLE,
    ENGINES,
    engine_row,
    ensure_artifacts,
)
from repro.core.runtime import CopseServer, DataOwner, ModelOwner
from repro.core.seccomp import VARIANT_ALOUFI, VARIANT_OPTIMIZED
from repro.errors import RuntimeProtocolError, ValidationError
from repro.fhe.context import FheContext
from repro.forest.synthetic import random_forest
from repro.ir.plan import lower_batched_inference, lower_inference
from repro.serve.batched_runtime import BatchedCopseServer, encrypt_batch
from repro.serve.faults import ENGINE_LADDER
from repro.serve.packing import demux_bitvectors
from repro.serve.registry import ModelRegistry

ARTIFACT_ENGINES = [row for row in ENGINE_TABLE if row.artifact is not None]
QUERY = [1, 2]


def small_forest():
    return random_forest(
        np.random.default_rng(7), branches_per_tree=[4, 5], max_depth=3,
        n_features=2, precision=4,
    )


class TestTableViews:
    def test_rows(self):
        assert ENGINES == ("eager", "plan", "tape", "megakernel")
        assert ARTIFACTS == ("plan", "tape", "megakernel")
        assert engine_row("eager").artifact is None
        assert engine_row("eager").phases == (
            "comparison", "reshuffle", "levels", "accumulate",
        )
        for row in ARTIFACT_ENGINES:
            assert row.phases == (f"{row.name}_inference",)
            assert row.artifact == row.name
        # Each artifact compiles from the row above it.
        assert [row.source for row in ARTIFACT_ENGINES] == [
            None, "plan", "tape",
        ]

    def test_every_engine_list_is_the_tables(self):
        assert ENGINE_LADDER == tuple(reversed(ENGINES))
        (engine_opt,) = [
            action
            for action in build_parser()._subparsers._group_actions[0]
            .choices["serve"]._actions
            if action.dest == "engine"
        ]
        assert tuple(engine_opt.choices) == ENGINES
        assert "megakernel" in engine_opt.help

    def test_unknown_engine_refused_everywhere(self, example_forest):
        with pytest.raises(RuntimeProtocolError, match="warp"):
            engine_row("warp")
        with pytest.raises(RuntimeProtocolError, match="warp"):
            CopseServer(None, engine="warp")
        with pytest.raises(RuntimeProtocolError, match="warp"):
            BatchedCopseServer(None, engine="warp")
        with pytest.raises(ValidationError, match="warp"):
            ModelRegistry().register("m", example_forest, engine="warp")

    def test_ensure_artifacts_compiles_only_the_missing_links(
        self, example_forest
    ):
        compiled = repro.CopseCompiler(precision=8).compile(example_forest)
        lowered = []

        def lower():
            lowered.append(1)
            return lower_inference(compiled)

        assert ensure_artifacts("eager", lower, {}) == dict.fromkeys(
            ARTIFACTS
        )
        built = ensure_artifacts("megakernel", lower, {})
        assert lowered == [1] and all(built.values())
        # A supplied tape is compiled from; no plan is lowered for it.
        again = ensure_artifacts("megakernel", lower, {"tape": built["tape"]})
        assert lowered == [1]
        assert again["plan"] is None and again["tape"] is built["tape"]
        assert again["megakernel"] is not None


@pytest.fixture(scope="module")
def single():
    """A single-query model + query, and per-variant artifact chains."""
    forest = small_forest()
    compiled = repro.CopseCompiler(precision=4).compile(forest)
    ctx = FheContext(repro.EncryptionParams.paper_defaults())
    keys = ctx.keygen()
    maurice = ModelOwner(compiled)
    model = maurice.encrypt_model(ctx, keys.public)
    query = DataOwner(maurice.query_spec(), keys).prepare_query(ctx, QUERY)
    chains = {
        variant: ensure_artifacts(
            "megakernel",
            lambda: lower_inference(compiled, variant=variant),
            {},
        )
        for variant in (VARIANT_ALOUFI, VARIANT_OPTIMIZED)
    }
    return forest, compiled, ctx, keys, model, query, chains


@pytest.fixture(scope="module")
def batched(single):
    """A registered (batched) model + batch, and per-variant chains."""
    forest, compiled = single[0], single[1]
    registry = ModelRegistry()
    registered = registry.register(
        "m", compiled, max_batch_size=4, engine="eager"
    )
    other_layout = registry.register(
        "other", compiled, max_batch_size=2, engine="eager"
    ).layout

    def chain(layout, variant=VARIANT_ALOUFI):
        return ensure_artifacts(
            "megakernel",
            lambda: lower_batched_inference(
                compiled, layout, variant=variant
            ),
            {},
        )

    chains = {
        VARIANT_ALOUFI: chain(registered.layout),
        VARIANT_OPTIMIZED: chain(registered.layout, VARIANT_OPTIMIZED),
        "other-layout": chain(other_layout),
    }
    return registered, chains


@pytest.mark.parametrize(
    "row", ARTIFACT_ENGINES, ids=[row.name for row in ARTIFACT_ENGINES]
)
class TestRefusals:
    """All four refusals, for every artifact engine, on both servers."""

    def _single(self, single, row, artifact):
        _, _, ctx, _, model, query, _ = single
        server = CopseServer(ctx, engine=row.name, **{row.artifact: artifact})
        return server.classify(model, query)

    def _batched(self, batched, row, artifact):
        registered, _ = batched
        ctx = FheContext(registered.params, backend=registered.backend)
        server = BatchedCopseServer(
            ctx, engine=row.name, **{row.artifact: artifact}
        )
        query = encrypt_batch(
            ctx, registered.layout, [QUERY], registered.keys
        )
        return ctx, server.classify_batch(registered.batched_model, query)

    def test_accepts_the_matching_artifact(self, single, batched, row):
        forest, _, ctx, keys, _, _, chains = single
        result = self._single(
            single, row, chains[VARIANT_ALOUFI][row.artifact]
        )
        expected = forest.label_bitvector(QUERY)
        assert ctx.decrypt_bits(result, keys.secret) == expected
        registered, bchains = batched
        bctx, result = self._batched(
            batched, row, bchains[VARIANT_ALOUFI][row.artifact]
        )
        bits = bctx.decrypt_bits(result, registered.keys.secret)
        assert demux_bitvectors(registered.layout, bits, 1) == [expected]

    def test_missing_artifact(self, single, batched, row):
        with pytest.raises(RuntimeProtocolError, match=row.noun):
            self._single(single, row, None)
        with pytest.raises(RuntimeProtocolError,
                           match=f"batched {row.noun}"):
            self._batched(batched, row, None)

    def test_wrong_batchedness(self, single, batched, row):
        chains, bchains = single[6], batched[1]
        with pytest.raises(RuntimeProtocolError,
                           match=f"batched {row.artifact} cannot serve"):
            self._single(
                single, row, bchains[VARIANT_ALOUFI][row.artifact]
            )
        with pytest.raises(
            RuntimeProtocolError,
            match=f"single-query {row.artifact} cannot serve",
        ):
            self._batched(
                batched, row, chains[VARIANT_ALOUFI][row.artifact]
            )

    def test_wrong_batch_shape(self, batched, row):
        # (The single-query server has no layout: handing it any
        # batched shape is the batched-ness refusal above.)
        with pytest.raises(RuntimeProtocolError,
                           match=f"{row.artifact} batch shape"):
            self._batched(
                batched, row, batched[1]["other-layout"][row.artifact]
            )

    def test_wrong_variant(self, single, batched, row):
        pattern = f"{row.artifact} was compiled with SecComp variant"
        with pytest.raises(RuntimeProtocolError, match=pattern):
            self._single(
                single, row, single[6][VARIANT_OPTIMIZED][row.artifact]
            )
        with pytest.raises(RuntimeProtocolError, match=pattern):
            self._batched(
                batched, row, batched[1][VARIANT_OPTIMIZED][row.artifact]
            )


class TestSourceScan:
    """ISSUE 13's grep criterion, enforced."""

    NAMES = re.compile(
        r"ENGINE_(PLAN|TAPE|MEGAKERNEL)\b|PHASE_(PLAN|TAPE|MEGAKERNEL)\b"
    )
    #: Outside the table and the artifact modules, a name may appear
    #: only in an import list or as a default-argument value.
    ALLOWED_LINE = re.compile(
        r"^\s*(from \S+ import .*|[A-Z_]+,|\w+: str = ENGINE_[A-Z]+,?)$"
    )
    OWNERS = {
        "core/engines.py", "ir/plan.py", "ir/tape.py", "ir/megakernel.py",
    }

    def test_artifact_engines_are_named_only_by_their_owners(self):
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).as_posix() in self.OWNERS:
                continue
            for number, line in enumerate(
                path.read_text().splitlines(), 1
            ):
                if self.NAMES.search(line) and not (
                    self.ALLOWED_LINE.match(line)
                ):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert offenders == []

    def test_no_per_engine_methods_and_one_pipeline(self):
        root = Path(repro.__file__).parent
        source = {
            path: path.read_text() for path in sorted(root.rglob("*.py"))
        }
        per_engine = re.compile(
            r"_classify_(plan|tape|megakernel)|_classify_batch_"
        )
        assert [p for p, text in source.items()
                if per_engine.search(text)] == []

        def call_sites(pattern):
            return sorted(
                path.relative_to(root).as_posix()
                for path, text in source.items()
                for line in text.splitlines()
                if re.search(pattern, line)
                and not line.lstrip().startswith(("def ", "class "))
            )

        # The routine demultiplexes; packing's batch of one is its own
        # group of one.
        assert call_sites(r"\bdemux_(bitvectors|group)\(") == [
            "serve/batched_runtime.py", "serve/packing.py",
        ]
        assert call_sites(r"\bClassificationResult\(") == [
            "serve/batcher.py"
        ]
