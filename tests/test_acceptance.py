"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
All comparisons are exact (integers and Fractions); the only tolerances
are the stated runtime budgets.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bottiter import (
    IndexProfile,
    PhaseCollision,
    average_euler_number,
    average_index,
    betti_number,
    betti_table,
    bott_index,
    bott_index_sequence,
    extremal_profile,
    gap_decomposition,
    morse_q_recursion,
    poincare_coefficients,
    verify_theorem,
)
from bottiter.morse import aggregate_w
from bottiter.reference import naive_index

from conftest import make_random_profile


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


_VERIFY_CACHE: dict = {}


def _verify_all():
    if not _VERIFY_CACHE:
        start = time.perf_counter()
        for n in (3, 4, 5, 6):
            _VERIFY_CACHE[n] = verify_theorem(n, horizon=200, q=499)
        _VERIFY_CACHE["elapsed"] = time.perf_counter() - start
    return _VERIFY_CACHE


FIXTURE_PHASES = ("10/97", "13/97", "31/97", "40/97", "45/97")


def _staircase_fixtures():
    return {n: extremal_profile(n, FIXTURE_PHASES[: n - 1]) for n in (3, 4, 5, 6)}


def test_criterion_1_betti_tables():
    with criterion(1, "betti tables, series vs rule, n=3..10, k<=100"):
        start = time.perf_counter()
        for n in range(3, 11):
            assert poincare_coefficients(n, 100).ranks == betti_table(n, 100).ranks
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_average_euler_numbers():
    with criterion(2, "B(n,1) exact values, n=3..10"):
        assert average_euler_number(3) == 1
        assert average_euler_number(4) == Fraction(-2, 3)
        assert average_euler_number(5) == Fraction(3, 4)
        for n in range(3, 11):
            expected = Fraction(-n, 2 * n - 2) if n % 2 == 0 else Fraction(n + 1, 2 * n - 2)
            assert average_euler_number(n) == expected


def test_criterion_3_bott_engine():
    with criterion(3, "Bott engine on the running n=4 profile, m=1..96"):
        p = IndexProfile(4, (3, 2, 1, 2), ("10/97", "13/97", "31/97"), (1, 1, 1))
        alpha = average_index(p)
        assert alpha == Fraction(178, 97)
        seq = bott_index_sequence(p, 96)
        for m, ind in enumerate(seq, start=1):
            assert abs(ind - m * alpha) <= 3  # exact rational comparison
        assert all(seq[i] <= seq[i + 1] for i in range(95))
        assert seq[:5] == [3, 5, 7, 7, 9]
        assert [naive_index(p, m) for m in range(1, 6)] == [3, 5, 7, 7, 9]


def test_criterion_4_gap_identity():
    with criterion(4, "A_m + B_m equals the Bott-sum difference, m<=95"):
        for n, fixture in _staircase_fixtures().items():
            seq = bott_index_sequence(fixture, 96)
            for m in range(1, 96):
                a_m, b_m, _ = gap_decomposition(fixture, m)
                assert a_m + b_m == seq[m] - seq[m - 1], (n, m)


def test_criterion_5_prop33_reverification():
    with criterion(5, "staircase proposition holds on the full search space, n=3..6"):
        summaries = _verify_all()
        checked = 0
        for n in (3, 4, 5, 6):
            summary = summaries[n]
            assert summary.prop33_failures == [], f"n={n}: conclusions failed"
            checked += summary.prop33_checked
        assert checked == 14  # regression: hypothesis-satisfying candidates seen


def test_criterion_6_theorem_desk_scale():
    with criterion(6, "two-geodesic theorem, n=3..6, horizon 200, Q=499"):
        summaries = _verify_all()
        for n in (3, 4, 5, 6):
            summary = summaries[n]
            assert summary.survivors == [], f"n={n} has survivors"
            assert summary.candidates == summary.contradicted
            assert summary.candidates > 0
        assert summaries[4].by_step["jump-clash"] >= 1
        assert summaries["elapsed"] < 600.0, "desk-scale budget is minutes"


def test_criterion_7_morse_recursion():
    with criterion(7, "Morse recursion: identity case and the extremal fixture"):
        for n in (3, 4, 5):
            b = [betti_number(n, k) for k in range(40)]
            report = morse_q_recursion(b, b)
            assert report.feasible and set(report.q) == {0}
        p = IndexProfile(4, (3, 2, 1, 2), ("10/97", "13/97", "31/97"), (1, 1, 1))
        w = aggregate_w(p, 8)
        b = [betti_number(4, k) for k in range(9)]
        report = morse_q_recursion(w, b)
        assert not report.feasible
        assert report.first_violation == 8
        assert report.q[8] == -1


def _compare_engines(p: IndexProfile, m: int) -> tuple[int | None, tuple[int, int] | None]:
    """Check bott_index against the oracle at m; return the oracle's value or collision."""
    try:
        fast = bott_index(p, m)
        fast_collision = None
    except PhaseCollision as exc:
        fast, fast_collision = None, (exc.m, exc.phase_index)
    try:
        slow = naive_index(p, m)
        slow_collision = None
    except PhaseCollision as exc:
        slow, slow_collision = None, (m, exc.phase_index)
    assert fast == slow
    assert (fast_collision is None) == (slow_collision is None)
    return slow, slow_collision


def _compare_sequence(p: IndexProfile, oracle: list) -> None:
    """bott_index_sequence(p, len(oracle)) matches the oracle m by m up to its
    first collision, and raises at that m with the same phase index."""
    m_max = len(oracle)
    values = [value for value, _ in oracle]
    collisions = [collision for _, collision in oracle if collision is not None]
    if not collisions:
        assert bott_index_sequence(p, m_max) == values
        return
    m, phase_index = collisions[0]
    try:
        bott_index_sequence(p, m_max)
    except PhaseCollision as exc:
        assert (exc.m, exc.phase_index) == (m, phase_index)
    else:
        raise AssertionError(f"no collision up to {m_max}; the oracle collides at m = {m}")
    if m > 1:
        assert bott_index_sequence(p, m - 1) == values[: m - 1]


def test_criterion_8_oracle_equivalence():
    with criterion(8, "naive oracle vs optimized engine, 1000 random profiles"):
        rng = random.Random(20240810)
        for _ in range(1000):
            p = make_random_profile(rng)
            probes = {1, 2, *(rng.randint(3, 500) for _ in range(4))}
            for m in sorted(probes):
                _compare_engines(p, m)
        # Denser tier: every m up to 500 on a small sample, and the whole
        # sequence in one call.
        for _ in range(10):
            p = make_random_profile(rng)
            _compare_sequence(p, [_compare_engines(p, m) for m in range(1, 501)])
