"""Staging lock: the ten frozen paper models stage to pinned programs.

``staging_baseline.json`` pins, for every model under ``perf/models``
lowered for the serve registry's batched layout (paper parameters) with
the model both encrypted and in plaintext:

* the raw, optimized and tape :class:`~repro.ir.plan.GraphProfile`s
  (node count, multiplicative depth, ciphertext op counts);
* the tape's register count, peak live ciphertexts and instruction
  count, and the megakernel's compiled shape;
* a sha256 of the tape's canonical instruction stream;
* the compiled model's fingerprint;
* a sha256 of the batched model :func:`build_batched_model` makes of
  it — every plane's bits, length and noise, in bundle order, leaving
  out the key ids (a fresh key pair is minted per build);
* the megakernel's captured book for one fixed full batch: op counts,
  multiplicative depth and the noise of every ciphertext output.

The canonical stream is the tape up to commutative operand order: the
two operand slots of a binary ADD or MULTIPLY are sorted, and so is the
``(src, operand)`` pair of a fused term whose rotation amount is 0 and
whose operand is a register slot (``rot(src, 0) & operand`` is an AND
of two ciphertexts).  Everything else — opcodes, destinations, the
order of a fused instruction's terms (it fixes the pairing of the
balanced XOR, hence noise growth), amounts, inline constants, frees,
the binding and output tables — is hashed as compiled.  A change to how staging works must
leave every entry identical; a change to what it produces regenerates
the file with::

    PYTHONPATH=src python tests/bench/test_staging_baseline.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiler import CopseCompiler
from repro.fhe.ciphertext import Ciphertext, PlainVector
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.forest.serialize import loads_forest
from repro.ir.megakernel import compile_megakernel
from repro.ir.plan import lower_batched_inference
from repro.ir.tape import OP_ADD, OP_FUSED, OP_MUL
from repro.serve import plan_layout
from repro.serve.batched_runtime import build_batched_model, encrypt_batch

BASELINE_PATH = Path(__file__).parent / "staging_baseline.json"
MODELS_DIR = Path(__file__).resolve().parents[2] / "perf" / "models"
MANIFEST = json.loads((MODELS_DIR / "MANIFEST.json").read_text())

CASES = [
    f"{name}@{'encrypted' if encrypted else 'plaintext'}"
    for name in sorted(MANIFEST)
    for encrypted in (True, False)
]


def _profile(profile):
    return {
        "num_nodes": profile.num_nodes,
        "depth": profile.depth,
        "counts": {
            op.value: n
            for op, n in sorted(profile.counts.items(), key=lambda kv: kv[0].value)
        },
    }


def _ref(value):
    """A register slot as is; an inline plaintext as its bits."""
    if isinstance(value, PlainVector):
        return ["plain", value.to_array().tobytes().hex()]
    return value


def _canonical_term(term):
    amount, src, operand = term
    if amount == 0 and isinstance(operand, int):
        src, operand = sorted((src, operand))
    return [amount, src, _ref(operand)]


def _canonical_instruction(ins):
    opcode, dest, a, b, frees = ins
    if opcode in (OP_ADD, OP_MUL):
        a, b = sorted((a, b))
    elif opcode == OP_FUSED:
        a = [a.width, [_canonical_term(t) for t in a.terms]]
    elif not isinstance(a, int):  # OP_ANY: (IrOp, resolved args)
        a = a.value
        b = [_ref(x) for x in b]
    return [opcode, dest, a, _ref(b), list(frees)]


def canonical_stream_sha256(tape) -> str:
    """sha256 of ``tape``'s instructions up to commutative operand order,
    plus its binding and output tables."""
    stream = {
        "instructions": [_canonical_instruction(i) for i in tape.instructions],
        "inputs": sorted(tape.input_slots.items()),
        "outputs": sorted(
            (name, _ref(ref)) for name, ref in tape.output_refs.items()
        ),
    }
    blob = json.dumps(stream, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _noise(noise):
    return [noise.level, noise.slack]


def batched_model_sha256(ctx, batched, secret_key) -> str:
    """sha256 of every plane of ``batched`` in bundle order: its bits,
    length and (for a ciphertext) noise — not its key id."""
    planes = [
        *batched.threshold_planes,
        *batched.reshuffle_diagonals,
        *(plane for level in batched.level_diagonals for plane in level),
        *batched.level_masks,
    ]
    digest = hashlib.sha256()
    for plane in planes:
        if isinstance(plane, Ciphertext):
            bits = ctx.decrypt(plane, secret_key)
            meta = ["c", plane.length, _noise(plane.noise)]
        else:
            bits = plane.to_array()
            meta = ["p", plane.length]
        digest.update(json.dumps(meta).encode())
        digest.update(np.ascontiguousarray(bits, dtype=np.uint8).tobytes())
    return digest.hexdigest()


def megakernel_book(kernel, forest, layout, params, batched, keys):
    """The book ``kernel`` captures for one fixed full batch."""
    rng = np.random.default_rng(0)
    features = rng.integers(
        0, 1 << layout.precision, (layout.capacity, forest.n_features)
    ).tolist()
    ctx = FheContext(params, backend="vector")
    query = encrypt_batch(ctx, layout, features, keys)
    kernel.run(ctx, batched.adopt_into(ctx), query)
    (book,) = kernel._book.values()
    return {
        "counts": {
            kind.value: n
            for kind, n in sorted(book.counts.items(), key=lambda kv: kv[0].value)
        },
        "depth": book.depth,
        "output_noise": {
            name: _noise(meta[2])
            for name, meta in sorted(book.outputs.items())
            if meta[0] == "c"
        },
    }


def stage_entry(name: str, encrypted: bool):
    """Stage one frozen model the way ``ModelRegistry.register`` does
    and describe everything the lock pins."""
    forest = loads_forest((MODELS_DIR / f"{name}.txt").read_text())
    compiled = CopseCompiler(precision=int(MANIFEST[name]["precision"])).compile(
        forest
    )
    params = EncryptionParams.paper_defaults()
    layout = plan_layout(compiled, params)
    plan = lower_batched_inference(compiled, layout, encrypted_model=encrypted)
    tape = plan.compile_tape()
    kernel = compile_megakernel(tape)
    ctx = FheContext(params, backend="vector")
    keys = ctx.keygen()
    batched = build_batched_model(
        ctx, compiled, layout, public_key=keys.public if encrypted else None
    )
    return {
        "fingerprint": compiled.fingerprint(),
        "batched_model_sha256": batched_model_sha256(ctx, batched, keys.secret),
        "megakernel_book": megakernel_book(
            kernel, forest, layout, params, batched, keys
        ),
        "raw": _profile(plan.raw),
        "optimized": _profile(plan.optimized),
        "tape": _profile(tape.profile),
        "num_slots": tape.num_slots,
        "peak_live": tape.peak_live,
        "num_instructions": tape.num_instructions,
        "megakernel": {
            "supported": kernel.supported,
            "segments": kernel.num_segments,
            "steps": kernel.num_blocks,
            "register_rows": kernel.num_rows,
            "live_rows": kernel.data_rows,
            "resident_rows": kernel.resident_rows,
        },
        "stream_sha256": canonical_stream_sha256(tape),
    }


def current_entries():
    return {
        case: stage_entry(case.split("@")[0], case.endswith("@encrypted"))
        for case in CASES
    }


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE_PATH.read_text())


def test_baseline_covers_every_frozen_model(baseline):
    assert sorted(baseline) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_staging_is_pinned(baseline, case):
    name, kind = case.split("@")
    assert stage_entry(name, kind == "encrypted") == baseline[case]


def test_canonical_stream_ignores_commutative_order_only():
    """Swapping a commutative pair keeps the hash; any other edit,
    reordering a fused XOR's terms included, moves it."""
    from types import SimpleNamespace

    from repro.ir.tape import OP_ROT, FusedSpec

    def tape(instructions):
        return SimpleNamespace(
            instructions=instructions, input_slots={"x": 0, "y": 1},
            output_refs={"labels": 4},
        )

    def fused(*terms):
        return FusedSpec(tuple(terms), 8)

    base = canonical_stream_sha256(tape([
        (OP_MUL, 2, 0, 1, ()),
        (OP_FUSED, 3, fused((0, 0, 1), (3, 2, 1)), None, (2,)),
        (OP_ROT, 4, 3, 1, (0, 1, 3)),
    ]))
    swapped = canonical_stream_sha256(tape([
        (OP_MUL, 2, 1, 0, ()),
        (OP_FUSED, 3, fused((0, 1, 0), (3, 2, 1)), None, (2,)),
        (OP_ROT, 4, 3, 1, (0, 1, 3)),
    ]))
    rotated_term_swapped = canonical_stream_sha256(tape([
        (OP_MUL, 2, 0, 1, ()),
        (OP_FUSED, 3, fused((0, 0, 1), (3, 1, 2)), None, (2,)),
        (OP_ROT, 4, 3, 1, (0, 1, 3)),
    ]))
    terms_reordered = canonical_stream_sha256(tape([
        (OP_MUL, 2, 0, 1, ()),
        (OP_FUSED, 3, fused((3, 2, 1), (0, 0, 1)), None, (2,)),
        (OP_ROT, 4, 3, 1, (0, 1, 3)),
    ]))
    amount_moved = canonical_stream_sha256(tape([
        (OP_MUL, 2, 0, 1, ()),
        (OP_FUSED, 3, fused((0, 0, 1), (3, 2, 1)), None, (2,)),
        (OP_ROT, 4, 3, 2, (0, 1, 3)),
    ]))
    assert swapped == base
    assert terms_reordered != base
    assert rotated_term_swapped != base
    assert amount_moved != base


def regenerate() -> None:
    BASELINE_PATH.write_text(
        json.dumps(current_entries(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    regenerate()
