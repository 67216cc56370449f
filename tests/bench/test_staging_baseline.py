"""Staging lock: the ten frozen paper models stage to pinned programs.

``staging_baseline.json`` pins, for every model under ``perf/models``
lowered for the serve registry's batched layout (paper parameters) with
the model both encrypted and in plaintext:

* the raw, optimized and tape :class:`~repro.ir.plan.GraphProfile`s
  (node count, multiplicative depth, ciphertext op counts);
* the tape's register count, peak live ciphertexts and instruction
  count, and the megakernel's compiled shape;
* a sha256 of the tape's canonical instruction stream.

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

import pytest

from repro.core.compiler import CopseCompiler
from repro.fhe.ciphertext import PlainVector
from repro.fhe.params import EncryptionParams
from repro.forest.serialize import loads_forest
from repro.ir.megakernel import compile_megakernel
from repro.ir.plan import lower_batched_inference
from repro.ir.tape import OP_ADD, OP_FUSED, OP_MUL
from repro.serve import plan_layout

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


def stage_entry(name: str, encrypted: bool):
    """Stage one frozen model the way ``ModelRegistry.register`` does
    and describe everything the lock pins."""
    forest = loads_forest((MODELS_DIR / f"{name}.txt").read_text())
    compiled = CopseCompiler(precision=int(MANIFEST[name]["precision"])).compile(
        forest
    )
    layout = plan_layout(compiled, EncryptionParams.paper_defaults())
    plan = lower_batched_inference(compiled, layout, encrypted_model=encrypted)
    tape = plan.compile_tape()
    kernel = compile_megakernel(tape)
    return {
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
