"""``group_precisions`` against a per-element oracle.

The production function counts bits only on one value per group (the
group's bitwise OR of magnitudes).  The oracle here is the definition it
replaced: the two's-complement or magnitude width of *every* element,
then the maximum per zero-padded group.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.precision import MAX_PRECISION, group_precisions
from repro.utils.bits import bits_for_magnitude, bits_for_signed

INT64 = np.iinfo(np.int64)


def oracle_group_widths(values, group_size: int, signed: bool):
    """(per-group widths, encoded value count) from per-element widths."""
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.int64), 0
    if signed:
        bits = bits_for_signed(flat)
    else:
        if flat.min() < 0:
            raise ValueError("unsigned precision requested for values with negatives")
        bits = np.maximum(bits_for_magnitude(flat), 1)
    pad = (-flat.size) % group_size
    bits = np.concatenate([bits, np.ones(pad, dtype=np.int64)])  # a padding zero is 1 bit
    widths = np.minimum(bits.reshape(-1, group_size).max(axis=1), MAX_PRECISION)
    return widths, bits.size


def assert_matches_oracle(values, group_size: int, signed: bool) -> None:
    enc = group_precisions(values, group_size, signed=signed)
    widths, count = oracle_group_widths(values, group_size, signed)
    assert enc.precisions.dtype == np.int64
    np.testing.assert_array_equal(enc.precisions, widths)
    assert enc.values == count
    assert enc.group_size == group_size
    assert enc.signed == signed


#: Values around every width boundary up to the 16-bit clamp and beyond.
EDGES = sorted(
    {0, INT64.max, INT64.min, 2**53, 2**53 + 1, -(2**53), -(2**53) - 1}
    | {s * ((1 << k) + d) for k in range(18) for d in (-1, 0) for s in (1, -1)}
)

signed_values = st.lists(
    st.one_of(
        st.integers(min_value=-40000, max_value=40000),
        st.integers(min_value=INT64.min, max_value=INT64.max),
        st.sampled_from(EDGES),
    ),
    max_size=130,
)
group_sizes = st.integers(min_value=1, max_value=40)


class TestAgainstOracle:
    @given(signed_values, group_sizes)
    @settings(max_examples=300, deadline=None)
    def test_signed(self, values, group_size):
        assert_matches_oracle(np.array(values, dtype=np.int64), group_size, True)

    @given(signed_values, group_sizes)
    @settings(max_examples=300, deadline=None)
    def test_unsigned(self, values, group_size):
        arr = np.array(values, dtype=np.int64)
        assert_matches_oracle(np.where(arr < 0, ~arr, arr), group_size, False)

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("group_size", [1, 7, 16, 40])
    def test_int64_extremes(self, group_size, signed):
        edges = np.array(EDGES, dtype=np.int64)
        values = edges if signed else edges[edges >= 0]
        assert_matches_oracle(values, group_size, signed)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 47])
    def test_tail_padding(self, n):
        # A wide tail group must stay wide; a narrow one must not pick up
        # the previous group's width, and the count includes the padding.
        values = np.full(n, 1000, dtype=np.int64)
        values[: n - n % 16] = 3
        assert_matches_oracle(values, 16, False)
        assert group_precisions(values, 16).values == -(-n // 16) * 16

    def test_multidimensional_input_is_flattened_in_storage_order(self):
        values = np.arange(-60, 60, dtype=np.int64).reshape(2, 3, 20)
        assert_matches_oracle(values, 16, True)

    def test_unsigned_rejects_negatives(self):
        with pytest.raises(ValueError, match="negatives"):
            group_precisions(np.array([3, -1, 5]), 2, signed=False)

    def test_empty(self):
        enc = group_precisions(np.array([], dtype=np.int64), 16, signed=True)
        assert enc.values == 0
        assert enc.precisions.size == 0
