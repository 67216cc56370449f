"""Tests for key material and ciphertext/plaintext value types."""

import numpy as np
import pytest

from repro.errors import DomainError, SlotCapacityError
from repro.fhe.ciphertext import Ciphertext, PlainVector, coerce_bits
from repro.fhe.keys import KeyPair
from repro.fhe.noise import NoiseState


class TestKeys:
    def test_generate_matching_pair(self):
        pair = KeyPair.generate(128)
        assert pair.secret.matches(pair.public)
        assert pair.key_id == pair.public.key_id

    def test_distinct_pairs_do_not_match(self):
        a = KeyPair.generate(128)
        b = KeyPair.generate(128)
        assert a.key_id != b.key_id
        assert not a.secret.matches(b.public)

    def test_secret_repr_redacted(self):
        pair = KeyPair.generate(128)
        assert "redacted" in repr(pair.secret)

    def test_keypair_repr_hides_secret(self):
        pair = KeyPair.generate(128)
        assert "secret" not in repr(pair).lower() or "redacted" in repr(pair)


class TestCoerceBits:
    def test_list_and_array(self):
        assert coerce_bits([1, 0, 1]).tolist() == [1, 0, 1]
        assert coerce_bits(np.array([True, False])).tolist() == [1, 0]

    def test_rejects_non_bits(self):
        with pytest.raises(DomainError):
            coerce_bits([0, 1, 2])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, bool])
    @pytest.mark.parametrize("value", [2, -1, 256, 0, 1])
    @pytest.mark.parametrize("at", [0, 2])
    def test_bit_check_matches_the_slotwise_test(self, dtype, value, at):
        """The max/min check refuses exactly what testing every slot
        against 0 and 1 refused, in the same words: a value the dtype
        holds (2, -1, 256 as its wrapped image) anywhere in the vector."""
        values = np.array([1, 0, 1], dtype=np.int64)
        values[at] = value
        arr = values.astype(dtype)
        if np.any((arr != 0) & (arr != 1)):
            with pytest.raises(DomainError, match=r"^plaintext slots must be bits \(0 or 1\)$"):
                coerce_bits(arr)
        else:
            out = coerce_bits(arr)
            assert out.dtype == np.uint8
            assert out.tolist() == arr.astype(np.uint8).tolist()

    @pytest.mark.parametrize("values", [[0, 1, 2], [0, -1], [256], [1, 1 << 40]])
    def test_rejects_non_bit_ints(self, values):
        with pytest.raises(DomainError, match="must be bits"):
            coerce_bits(values)

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            coerce_bits(np.array([0.5, 1.0]))

    def test_rejects_matrix(self):
        with pytest.raises(DomainError):
            coerce_bits(np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            coerce_bits([])


class TestPlainVector:
    def test_length_and_bits(self):
        v = PlainVector([1, 0, 1, 1])
        assert len(v) == 4
        assert v.bits() == [1, 0, 1, 1]

    def test_rotated(self):
        v = PlainVector([1, 0, 0])
        assert v.rotated(1).bits() == [0, 0, 1]

    def test_equality(self):
        assert PlainVector([1, 0]) == PlainVector([1, 0])
        assert PlainVector([1, 0]) != PlainVector([0, 1])

    def test_immutable(self):
        v = PlainVector([1, 0])
        arr = v.to_array()
        arr[0] = 0
        assert v.bits() == [1, 0]

    def test_repr_preview(self):
        v = PlainVector([1] * 20)
        assert "..." in repr(v)


class TestCiphertextType:
    def _make(self, bits, length=None):
        arr = np.array(bits, dtype=np.uint8)
        return Ciphertext(
            slots=arr,
            length=arr.size if length is None else length,
            key_id=1,
            noise=NoiseState(),
            node_id=0,
        )

    def test_invalid_length_rejected(self):
        with pytest.raises(SlotCapacityError):
            self._make([1, 0], length=5)
        with pytest.raises(SlotCapacityError):
            self._make([1, 0], length=0)

    def test_unique_ids(self):
        a = self._make([1])
        b = self._make([1])
        assert a.ciphertext_id != b.ciphertext_id

    def test_metadata_visible(self):
        ct = self._make([1, 0, 1])
        assert ct.length == 3
        assert ct.key_id == 1
        assert ct.noise.level == 0
