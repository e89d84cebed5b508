"""Critical-group counts, aggregation cutoff, q-recursion feasibility."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bottiter import (
    IndexProfile,
    MorseReport,
    PrecondViolation,
    aggregate_w,
    average_index,
    betti_number,
    bott_index,
    bott_index_sequence,
    critical_group_dim,
    gamma_invariant,
    morse_q_recursion,
)
from bottiter.morse import count_w, iterate_cutoff


class TestCriticalGroupDim:
    def test_gamma_one_counts_odd_m(self, running_profile):
        # gamma = -1, so m = 3 contributes at its index degree 7.
        assert critical_group_dim(running_profile, 3, 7) == 1
        assert critical_group_dim(running_profile, 3, 6) == 0

    def test_half_gamma_skips_odd_m(self):
        p = IndexProfile(4, (2, 3), ("10/97",), (1,))
        assert gamma_invariant(p) == Fraction(1, 2)
        assert critical_group_dim(p, 1, bott_index(p, 1)) == 0

    def test_half_gamma_counts_even_m(self):
        p = IndexProfile(4, (2, 3), ("10/97",), (1,))
        assert critical_group_dim(p, 2, bott_index(p, 2)) == 1

    def test_negative_degree_refused(self, running_profile):
        with pytest.raises(PrecondViolation) as info:
            critical_group_dim(running_profile, 1, -1)
        assert str(info.value) == "k = -1 must be >= 0"


class TestAggregateW:
    def test_negative_max_degree_refused(self, running_profile):
        with pytest.raises(PrecondViolation) as info:
            aggregate_w(running_profile, -2)
        assert str(info.value) == "max_degree = -2 must be >= 0"

    def test_running_profile_window_7(self, running_profile):
        w = aggregate_w(running_profile, 7)
        assert w == [0, 0, 0, 1, 0, 1, 0, 2]

    def test_constant_profile(self, constant_profile):
        assert aggregate_w(constant_profile, 6) == [0, 0, 1, 0, 1, 0, 1]

    def test_below_first_index_all_zero(self, running_profile):
        assert aggregate_w(running_profile, 2) == [0, 0, 0]

    def test_cutoff_soundness(self, running_profile):
        # Raising the enumeration cutoff never changes counts in-window.
        max_degree = 9
        w = aggregate_w(running_profile, max_degree)
        cutoff = iterate_cutoff(running_profile, max_degree)
        for extra in (5, 20, 60):
            seq = bott_index_sequence(running_profile, cutoff + extra)
            inflated = [0] * (max_degree + 1)
            for index in seq:
                if index <= max_degree:
                    inflated[index] += 1
            assert inflated == w

    def test_requires_positive_alpha(self):
        with pytest.raises(PrecondViolation):
            aggregate_w(IndexProfile(3, (0,)), 4)

    def test_negative_index_is_not_counted(self):
        # ind(c) = -2 lies below degree 0; it must not wrap around to the
        # top of the window through Python's negative indexing.
        p = IndexProfile(3, (-2, 2), ("1/101",), (4,))
        assert bott_index(p, 1) == -2
        assert aggregate_w(p, 3) == [1, 0, 1, 0]


@pytest.mark.parametrize("gamma", [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)])
def test_count_w_matches_per_iterate_oracle(gamma):
    rng = random.Random(11)
    for _ in range(200):
        max_degree = rng.randint(0, 12)
        sequence = [rng.randint(-3, max_degree + 4) for _ in range(rng.randint(0, 30))]
        expected = [0] * (max_degree + 1)
        for m, index in enumerate(sequence, start=1):
            counted = m % 2 == 0 or abs(gamma) == 1
            if counted and 0 <= index <= max_degree:
                expected[index] += 1
        assert count_w(sequence, gamma, max_degree) == expected
        assert count_w(tuple(sequence), gamma, max_degree) == expected


class TestQRecursion:
    def test_w_equals_b_is_identity(self):
        b = [betti_number(4, k) for k in range(20)]
        report = morse_q_recursion(b, b)
        assert report.feasible and set(report.q) == {0}

    def test_running_profile_infeasible_at_8(self, running_profile):
        w = aggregate_w(running_profile, 8)
        b = [betti_number(4, k) for k in range(9)]
        report = morse_q_recursion(w, b)
        assert report.q[7] == 1
        assert report.q[8] == -1
        assert not report.feasible
        assert report.first_violation == 8

    def test_underfilled_degree_is_infeasible(self):
        report = morse_q_recursion([0, 0], [0, 1])
        assert not report.feasible and report.first_violation == 1

    def test_length_mismatch(self):
        with pytest.raises(PrecondViolation):
            morse_q_recursion([1, 2], [1])

    def test_empty_columns(self):
        report = morse_q_recursion([], [])
        assert report == MorseReport(
            max_degree=-1, w=(), q=(), feasible=True, first_violation=None
        )

    def test_violation_at_degree_zero(self):
        report = morse_q_recursion([0, 3, 0], [1, 0, 0])
        assert report.q == (-1, 4, -4)
        assert not report.feasible and report.first_violation == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
    )
    def test_telescoping(self, w, b):
        size = min(len(w), len(b))
        w, b = w[:size], b[:size]
        report = morse_q_recursion(w, b)
        # q_k is the alternating partial sum of (w - b).
        expected = [
            sum((-1) ** (k - j) * (w[j] - b[j]) for j in range(k + 1)) for k in range(size)
        ]
        assert report.q == tuple(expected)
        violations = [k for k, qk in enumerate(expected) if qk < 0]
        assert report.first_violation == (violations[0] if violations else None)
        assert report.feasible == (not violations)

    def test_reconstruction_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            size = rng.randint(1, 30)
            w = [rng.randint(0, 3) for _ in range(size)]
            b = [rng.randint(0, 3) for _ in range(size)]
            report = morse_q_recursion(w, b)
            prev = 0
            for k in range(size):
                assert w[k] == b[k] + report.q[k] + prev
                prev = report.q[k]


def test_single_orbit_parity_consequence(running_profile):
    # If w is supported on k = n-1 (mod 2) and matches b degree by degree,
    # the recursion vanishes identically.
    n = 4
    b = [betti_number(n, k) for k in range(30)]
    report = morse_q_recursion(b, b)
    assert report.feasible and all(q == 0 for q in report.q)


def test_cutoff_formula(running_profile):
    alpha = average_index(running_profile)
    for k in (0, 5, 9, 30):
        cutoff = iterate_cutoff(running_profile, k)
        assert cutoff >= (k + 3) / alpha
        assert cutoff == max(1, math.ceil((k + 3) / alpha))
