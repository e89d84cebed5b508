"""Betti numbers: combinatorial rule vs exact series expansion."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bottiter import (
    BettiTable,
    average_euler_number,
    betti_number,
    betti_table,
    poincare_coefficients,
)


class TestBettiRule:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (4, 3, 1),
            (4, 9, 2),
            (3, 4, 2),
            (5, 2, 0),
            (4, 15, 2),
            (4, 21, 2),
            (3, 2, 1),
            (5, 8, 2),
            (6, 5, 1),
            (6, 25, 2),
            (7, 12, 2),
        ],
    )
    def test_values(self, n, k, expected):
        assert betti_number(n, k) == expected

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=400))
    def test_parity_vanishing(self, n, k):
        if (k - n) % 2 == 0:
            assert betti_number(n, k) == 0

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=400))
    def test_range(self, n, k):
        assert betti_number(n, k) in (0, 1, 2)

    def test_below_first_degree(self):
        for n in range(3, 9):
            assert all(betti_number(n, k) == 0 for k in range(n - 1))
            assert betti_number(n, n - 1) == 1


class TestSeries:
    def test_n4_to_degree_10(self):
        assert poincare_coefficients(4, 10).ranks == (0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0)

    def test_n3_to_degree_6(self):
        assert poincare_coefficients(3, 6).ranks == (0, 0, 1, 0, 2, 0, 2)

    def test_leading_zeros(self):
        for n in range(3, 9):
            table = poincare_coefficients(n, n - 2)
            assert table.ranks == (0,) * (n - 1)

    def test_rule_equals_series(self):
        for n in range(3, 11):
            series = poincare_coefficients(n, 100).ranks
            rule = betti_table(n, 100).ranks
            assert series == rule, f"mismatch at n={n}"


    @pytest.mark.parametrize("n", range(3, 13))
    def test_table_equals_rule_and_series(self, n):
        # The table fills two arithmetic progressions; betti_number applies
        # the rule degree by degree, and the series divides polynomials.
        for max_degree in (0, 1, n - 2, n - 1, 4 * n, 5000):
            table = betti_table(n, max_degree)
            assert table.max_degree == max_degree
            assert table.ranks == tuple(betti_number(n, k) for k in range(max_degree + 1))
            assert table.ranks == poincare_coefficients(n, max_degree).ranks

    def test_table_edges(self):
        # An empty range asks for no degree, so it is an empty table for any
        # n; any degree at n < 3 raises the rule's error.
        for n in (1, 2, 3, 4):
            assert betti_table(n, -1) == BettiTable(n=n, max_degree=-1, ranks=())
        for n in (0, 1, 2):
            for max_degree in (0, 5):
                with pytest.raises(ValueError, match=f"n = {n} must be >= 3"):
                    betti_table(n, max_degree)


class TestAverageEulerNumber:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (3, Fraction(1)),
            (4, Fraction(-2, 3)),
            (5, Fraction(3, 4)),
            (6, Fraction(-3, 5)),
            (7, Fraction(2, 3)),
            (8, Fraction(-4, 7)),
            (9, Fraction(5, 8)),
            (10, Fraction(-5, 9)),
        ],
    )
    def test_closed_form(self, n, expected):
        assert average_euler_number(n) == expected

    def test_matches_formula(self):
        for n in range(3, 16):
            if n % 2 == 0:
                assert average_euler_number(n) == Fraction(-n, 2 * n - 2)
            else:
                assert average_euler_number(n) == Fraction(n + 1, 2 * n - 2)

    def test_periodic_slope(self):
        # One full period of the alternating sum, anywhere in the periodic
        # regime, reproduces the normalized limit.
        for n in range(3, 9):
            period = 2 * (n - 1)
            for start in (3 * period, 5 * period + 1):
                start -= start % 2  # align to an even degree for sign stability
                signed = sum(
                    (-1) ** k * betti_number(n, k) for k in range(start, start + period)
                )
                assert Fraction(signed, period) == average_euler_number(n)


def test_input_validation():
    with pytest.raises(ValueError):
        betti_number(2, 5)
    with pytest.raises(ValueError):
        betti_number(4, -1)
    with pytest.raises(ValueError):
        poincare_coefficients(4, -1)
    with pytest.raises(ValueError):
        average_euler_number(2)
