import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invdiam.gf2 import (
    affine_solutions_bits,
    dot_bits,
    rank_bits,
    solve_bits,
    text_to_word,
    word_to_text,
)


def v(s: str) -> int:
    """The word of a vector given coordinate 0 first, e.g. "110" -> 0b011."""
    return text_to_word(s)


def brute_solutions(rows, rhs, dim):
    """Independent oracle: all x in F2^dim with row.x = rhs, by enumeration."""
    out = []
    for x in range(1 << dim):
        if all((r & x).bit_count() & 1 == b for r, b in zip(rows, rhs)):
            out.append(x)
    return out


class TestVector:
    def test_string_round_trip(self):
        assert word_to_text(text_to_word("110"), 3) == "110"
        assert v("110") == 0b011  # coordinate 0 first
        assert text_to_word("") == 0 and word_to_text(0, 0) == ""

    @pytest.mark.parametrize("dim", [0, 1, 3, 32])
    def test_round_trip_widths(self, dim):
        rng = random.Random(dim)
        words = {0, (1 << dim) - 1, 1 if dim else 0} | {rng.getrandbits(dim) for _ in range(20)}
        for word in words:
            text = word_to_text(word, dim)
            assert len(text) == dim and set(text) <= {"0", "1"}
            assert text_to_word(text) == word
            assert all(text[i] == str((word >> i) & 1) for i in range(dim))

    def test_validation(self):
        # int(text, 2) alone would accept "1_0", "+1" and " 1".
        for text in ["_", " ", "2", "1 0", "1_0", "01x", "+1", " 1"]:
            with pytest.raises(ValueError):
                text_to_word(text)


class TestDot:
    def test_examples(self):
        assert dot_bits(v("101"), v("111")) == 0
        assert dot_bits(v("1"), v("1")) == 1
        assert dot_bits(v("110"), v("011")) == 1

    def test_bilinearity_exhaustive(self):
        for dim in range(5):
            for a, b, c in product(range(1 << dim), repeat=3):
                assert dot_bits(a, b) == dot_bits(b, a)
                assert dot_bits(a ^ b, c) == dot_bits(a, c) ^ dot_bits(b, c)


class TestParity:
    def test_examples(self):
        # A vector's weight is odd iff its product with the all-ones vector is 1.
        all_ones = v("111")
        assert dot_bits(v("000"), all_ones) == 0
        assert dot_bits(v("111"), all_ones) == 1
        assert dot_bits(v("110"), all_ones) == 0


@st.composite
def dim_and_rows(draw):
    """dim <= 6 and up to 8 rows, which may carry bits at dim and dim + 1:
    coordinates rank_bits ignores."""
    dim = draw(st.integers(0, 6))
    return dim, draw(st.lists(st.integers(0, (1 << (dim + 2)) - 1), max_size=8))


class TestRank:
    def test_identity(self):
        assert rank_bits([v("100"), v("010"), v("001")], 3) == 3

    def test_dependent_rows(self):
        # 110 + 011 = 101, so the rows span a plane.
        assert rank_bits([v("110"), v("011"), v("101")], 3) == 2

    def test_empty(self):
        assert rank_bits([], 3) == 0

    def test_input_unchanged(self):
        rows = [v("110"), v("011")]
        rank_bits(rows, 3)
        assert rows == [v("110"), v("011")]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(dim_and_rows())
    def test_log_of_span_size(self, case):
        dim, rows = case
        span = {0}
        for row in rows:
            span |= {w ^ (row & ((1 << dim) - 1)) for w in span}
        assert rank_bits(rows, dim) == len(span).bit_length() - 1

    def test_bounds_and_span_stability(self):
        rng = random.Random(7)
        for _ in range(50):
            dim = rng.randrange(1, 9)
            rows = [rng.getrandbits(dim) for _ in range(rng.randrange(6))]
            r = rank_bits(rows, dim)
            assert r <= min(len(rows), dim)
            if rows:
                # XOR of a random subset lies in the span.
                combo = 0
                for row in rows:
                    if rng.random() < 0.5:
                        combo ^= row
                assert rank_bits(rows + [combo], dim) == r


class TestSolveLinear:
    def test_identity_system(self):
        sol = solve_bits([v("100"), v("010"), v("001")], [1, 0, 1], 3)
        assert sol == (v("101"), [])

    def test_single_row(self):
        sol = solve_bits([v("11")], [0], 2)
        assert sol is not None
        got = affine_solutions_bits(*sol)
        assert got == brute_solutions([0b11], [0], 2) == [0b00, 0b11]

    def test_inconsistent(self):
        assert solve_bits([v("10"), v("10")], [0, 1], 2) is None

    def test_affine_set_exactness(self):
        rng = random.Random(20240101)
        for _ in range(200):
            dim = rng.randrange(0, 9)
            nrows = rng.randrange(0, 6)
            rows = [rng.getrandbits(dim) for _ in range(nrows)]
            rhs = [rng.getrandbits(1) for _ in range(nrows)]
            expected = brute_solutions(rows, rhs, dim)
            sol = solve_bits(rows, rhs, dim)
            if not expected:
                assert sol is None
            else:
                assert sol is not None
                particular, basis = sol
                got = affine_solutions_bits(particular, basis)
                assert got == expected


class TestIndependence:
    # Vectors are independent iff rank_bits equals their count.
    def test_examples(self):
        assert rank_bits([v("100"), v("010")], 3) == 2
        assert rank_bits([v("110"), v("011"), v("101")], 3) < 3
        assert rank_bits([], 3) == 0

    def test_zero_vector_dependent(self):
        assert rank_bits([v("000")], 3) == 0
