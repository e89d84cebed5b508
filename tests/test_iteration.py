"""Bott sums, gap decomposition, jump search; oracle cross-checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bottiter import (
    IndexProfile,
    PhaseCollision,
    PrecondViolation,
    average_index,
    bott_index,
    bott_index_sequence,
    gap_decomposition,
    iterate_index,
    jump_search,
)
from bottiter import _purekernel
from bottiter.reference import naive_index

from conftest import make_random_profile


class TestIterate:
    def test_constant_profile_is_linear(self, constant_profile):
        for m in (1, 2, 3, 10, 137):
            assert bott_index(constant_profile, m) == 2 * m

    def test_running_first_values(self, running_profile):
        assert bott_index_sequence(running_profile, 5) == [3, 5, 7, 7, 9]
        # Denominators far beyond 64 bits stay exact.
        huge = 10**20
        p = IndexProfile(
            4,
            (3, 2, 1, 2),
            (Fraction(1, huge), Fraction(2, huge), Fraction(1, 4) + Fraction(3, huge)),
            (1, 1, 1),
        )
        assert bott_index_sequence(p, 40)[:6] == [3, 5, 7, 7, 9, 11]

    def test_against_naive_oracle(self, running_profile):
        for m in range(1, 60):
            assert bott_index(running_profile, m) == naive_index(running_profile, m)
        assert bott_index_sequence(running_profile, 96) == [
            naive_index(running_profile, m) for m in range(1, 97)
        ]

    def test_collision_at_denominator(self, running_profile):
        with pytest.raises(PhaseCollision):
            bott_index(running_profile, 97)
        with pytest.raises(PhaseCollision) as info:
            bott_index_sequence(running_profile, 120)
        assert info.value.m == 97

    def test_report_consistency(self, running_profile):
        report = iterate_index(running_profile, 5)
        assert report.index == 9
        assert report.even_contribution == 0
        recomputed = (
            running_profile.index_at_one
            + report.even_contribution
            + 2 * sum(running_profile.arc_values[arc - 1] for _, arc in report.arc_hits)
        )
        assert recomputed == report.index
        assert [arc for _, arc in report.arc_hits] == [3, 4]

    def test_report_even_term(self, running_profile):
        report = iterate_index(running_profile, 2)
        assert report.index == 5
        assert report.even_contribution == 2
        assert report.arc_hits == ()

    def test_lower_bound(self):
        rng = random.Random(5)
        for _ in range(100):
            p = make_random_profile(rng)
            base = bott_index(p, 1)
            for m in (2, 3, 5, 8):
                try:
                    assert bott_index(p, m) >= base
                except PhaseCollision:
                    pass

    def test_bott_bound_large_horizon(self):
        # |ind(c^m) - m*alpha| <= n - 1 for every collision-free m <= 10^4.
        p = IndexProfile(
            4, (3, 2, 1, 2),
            (Fraction(2063, 20011), Fraction(2682, 20011), Fraction(6395, 20011)),
            (1, 1, 1),
        )
        alpha = average_index(p)
        seq = bott_index_sequence(p, 10_000)
        for m, ind in enumerate(seq, start=1):
            assert abs(ind - m * alpha) <= 3

    def test_quotient_convergence(self, running_profile):
        alpha = average_index(running_profile)
        for m in (10, 96, 1000, 9699):
            ind = bott_index(running_profile, m)
            assert abs(Fraction(ind, m) - alpha) <= Fraction(3, m)


class TestGapDecomposition:
    def test_m1(self, running_profile):
        a, b, j_set = gap_decomposition(running_profile, 1)
        assert (a, b, j_set) == (2, 0, set())
        assert a + b == bott_index(running_profile, 2) - bott_index(running_profile, 1)

    def test_m3(self, running_profile):
        a, b, j_set = gap_decomposition(running_profile, 3)
        assert a + b == 0 == bott_index(running_profile, 4) - bott_index(running_profile, 3)
        assert j_set == {1}

    def test_odd_m_endpoint_term(self, running_profile):
        for m in range(1, 60, 2):
            a, _, _ = gap_decomposition(running_profile, m)
            assert a == 2

    def test_identity_exact_up_to_95(self, running_profile):
        for m in range(1, 96):
            a, b, j_set = gap_decomposition(running_profile, m)
            assert a + b == bott_index(running_profile, m + 1) - bott_index(running_profile, m)
            assert len(j_set) <= 1

    def test_requires_endpoint_two(self):
        p = IndexProfile(4, (3, 2, 1), ("10/97", "13/97"), (1, 1))
        with pytest.raises(PrecondViolation, match="I_c\\(-1\\) = 2"):
            gap_decomposition(p, 3)

    def test_constant_two_profile(self):
        p = IndexProfile(3, (2,))
        for m in (1, 2, 3, 8):
            a, b, j_set = gap_decomposition(p, m)
            assert a + b == 2 and b == 0 and j_set == set()


class TestJumpSearch:
    def test_constant_profile_every_k(self, constant_profile):
        assert jump_search(constant_profile, 12) == list(range(1, 13))

    def test_flat_profile(self):
        p = IndexProfile(3, (2, 2, 2), ("10/97", "31/97"), (1, 1))
        assert jump_search(p, 10) == list(range(1, 11))

    def test_running_profile_regression(self, running_profile):
        ks = jump_search(running_profile, 40)
        assert ks, "expected jumps within horizon 40"
        assert ks[0] == 4
        assert ks == [4, 7, 10, 19, 24, 26, 29, 34, 37]

    def test_against_naive_oracle(self, running_profile):
        target = 2 * running_profile.index_at_one
        expected = [
            k
            for k in range(1, 41)
            if naive_index(running_profile, 2 * k + 1) - naive_index(running_profile, 2 * k - 1)
            == target
        ]
        assert jump_search(running_profile, 40) == expected

    def test_denominator_precondition(self, running_profile):
        with pytest.raises(PrecondViolation, match="denominator"):
            jump_search(running_profile, 60)  # 2*60 + 1 > 97

    def test_alpha_precondition(self):
        p = IndexProfile(3, (0,))
        with pytest.raises(PrecondViolation, match="positive average index"):
            jump_search(p, 10)


def _kernel_sequence_vs_per_m(arcs: list[int], phases: list[Fraction], m_max: int):
    pnum = [t.numerator for t in phases]
    pden = [t.denominator for t in phases]
    outcomes = []
    for run in (
        lambda: _purekernel.index_sequence(arcs, pnum, pden, m_max),
        lambda: [_purekernel.index_at(arcs, pnum, pden, m) for m in range(1, m_max + 1)],
    ):
        try:
            outcomes.append(("ok", run()))
        except PhaseCollision as exc:
            outcomes.append(("collision", exc.m, exc.phase_index, str(exc)))
    return outcomes


def test_sequence_matches_per_m_kernel():
    # The event-driven sequence equals index_at term by term, and raises
    # the same collision (m, phase index, message) as the per-m loop.
    rng = random.Random(2006)
    for _ in range(300):
        p = make_random_profile(rng)
        sequence, per_m = _kernel_sequence_vs_per_m(
            list(p.arc_values), list(p.phases), rng.randint(1, 700)
        )
        assert sequence == per_m
        assert _kernel_sequence_vs_per_m(list(p.arc_values), list(p.phases), 0) == [("ok", [])] * 2
    # Mixed denominators (the collision is not always at phase 0), and
    # phases outside [0, 1), which whole turns shift by a linear term.
    for _ in range(300):
        l = rng.randint(1, 4)
        phases = [Fraction(rng.randint(-90, 180), rng.randint(2, 120)) for _ in range(l)]
        arcs = [rng.randint(-4, 12) for _ in range(l + 1)]
        sequence, per_m = _kernel_sequence_vs_per_m(arcs, phases, rng.randint(1, 60))
        assert sequence == per_m


def test_collision_semantics_match_preconditions():
    # iterate collides exactly when some phase denominator divides m.
    rng = random.Random(31)
    for _ in range(200):
        p = make_random_profile(rng)
        if not p.phases:
            continue
        denominators = {t.denominator for t in p.phases}
        for m in (1, 2, 7, 11, 22, 23, 46, 97, 194):
            should_collide = any(m % q == 0 for q in denominators)
            try:
                bott_index(p, m)
                assert not should_collide
            except PhaseCollision:
                assert should_collide
