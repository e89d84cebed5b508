"""Phase crossings: the two facts the pipeline reads the index sequence
through, and the scans built on them, against per-m scans of the sequence.

A phase t_k in (0, 1/2) crosses, that is floor(m * t_k) grows, at the
iterates m = ceil(j / t_k).  With d_k = I_k - I_{k+1}:

    ind(c^{m+1}) - ind(c^m) >= I_{l+1} + 2 * sum_{d_k < 0} d_k,
    ind(c^{m+2}) - ind(c^m) = 2 * I_{l+1} + sum_k 2 * d_k * chi_k(m),

where chi_k(m) = 1 when t_k crosses at m + 1 or m + 2, and 0 otherwise.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from bottiter import (
    CONSISTENT,
    IndexProfile,
    PhaseCollision,
    Signature,
    average_index,
    bott_index_sequence,
    jump_search,
    phase_instantiate,
    single_geodesic_pipeline,
)
from bottiter.reference import naive_index
from bottiter.verifier import (
    _first_decrease,
    _first_gap_kill,
    _is_prime,
    _jump_costs,
    _jumps,
    average_relation_value,
)

from conftest import make_random_profile

M_MAX = 2000


def _crossings(t: Fraction, m_max: int) -> list[int]:
    """The iterates m = ceil(j / t) <= m_max at which floor(m * t) grows."""
    p, q = t.numerator, t.denominator
    return [-(-j * q // p) for j in range(1, m_max * p // q + 1)]


def _two_step_terms(p: IndexProfile, m_max: int) -> tuple[list[int], set[int]]:
    """2 * I_{l+1} + sum_k 2 * d_k * (crossings of t_k at m + 1 or m + 2)
    at m = 1..m_max - 2 (entry m - 1), and the m whose window holds a
    crossing of a phase with d_k > 0.  Asserts that no phase crosses twice
    in one window."""
    arcs = p.arc_values
    terms = [2 * arcs[-1]] * (m_max - 2)
    rising: set[int] = set()
    for a, b, t in zip(arcs, arcs[1:], p.phases):
        crossings = _crossings(t, m_max)
        assert all(y - x >= 2 for x, y in zip(crossings, crossings[1:]))
        for c in crossings:
            for m in (c - 2, c - 1):
                if 1 <= m <= m_max - 2:
                    terms[m - 1] += 2 * (a - b)
                    if a > b:
                        rising.add(m)
    return terms, rising


def _check_facts(p: IndexProfile, first: int, values: list[int], terms, rising) -> None:
    """Both facts on values = [ind(c^first), ind(c^{first+1}), ...], with
    (terms, rising) = _two_step_terms(p, M_MAX)."""
    arcs = p.arc_values
    floor = arcs[-1] + 2 * sum(min(0, a - b) for a, b in zip(arcs, arcs[1:]))
    assert min(b - a for a, b in zip(values, values[1:])) >= floor, p
    gaps = [c - a for a, c in zip(values, values[2:])]
    assert gaps == terms[first - 1 : first - 1 + len(gaps)], p
    quiet = [g for m, g in enumerate(gaps, first) if m not in rising]
    assert all(g <= 2 * arcs[-1] for g in quiet), p


def test_crossing_facts_against_the_oracle():
    # Denominators above M_MAX + 2, so that no iterate read collides.  Every
    # m up to M_MAX on the kernel's sequence, and sampled windows on the
    # brute-force sums, where they are cheap: at a crossing of a phase with
    # I_k > I_{k+1} below 150 where there is one, and at a random m.
    rng = random.Random(33)
    for i in range(300):
        p = make_random_profile(rng, denominators=(2003, 2011, 4001, 9973))
        seq = bott_index_sequence(p, M_MAX)
        terms, rising = _two_step_terms(p, M_MAX)
        _check_facts(p, 1, seq, terms, rising)
        if i % 3 == 0:
            ms = [rng.randint(1, 150)]
            early = sorted(m for m in rising if m <= 150)
            if early:
                ms.append(rng.choice(early))
            for m in ms:
                naive = [naive_index(p, m + j) for j in range(3)]
                assert naive == seq[m - 1 : m + 2], (p, m)
                _check_facts(p, m, naive, terms, rising)


def _scans(p: IndexProfile, horizon: int):
    """First gap kill and first decrease, by per-m scans of the sequence up
    to the horizon."""
    seq = bott_index_sequence(p, horizon)
    kill = next(
        ((m, seq[m - 1], seq[m + 1]) for m in range(1, horizon - 1) if seq[m + 1] - seq[m - 1] > 4),
        None,
    )
    decrease = next((m for m in range(1, horizon) if seq[m] < seq[m - 1]), None)
    return kill, decrease


def _outcome(fn):
    try:
        return fn()
    except PhaseCollision as exc:
        return ("collision", exc.m, exc.phase_index, str(exc))


def _compare(p: IndexProfile, horizon: int) -> None:
    expected = _outcome(lambda: _scans(p, horizon))
    if expected[0] == "collision":
        assert _outcome(lambda: _first_gap_kill(p, horizon)) == expected
        assert _outcome(lambda: _first_decrease(p, horizon)) == expected
        return
    kill, decrease = expected
    assert _first_gap_kill(p, horizon) == kill, (p, horizon)
    assert _first_decrease(p, horizon) == decrease, (p, horizon)
    if all(t.denominator > 2 * horizon + 1 for t in p.phases) and average_index(p) > 0:
        assert _jumps(p, horizon) == jump_search(p, horizon), (p, horizon)


def _random_profile(rng: random.Random, horizon: int) -> IndexProfile:
    """Arcs in 0..8 with no nullity budget, so that I_{l+1} >= 3 and several
    I_k < I_{k+1} are common; phases over a prime above 2*horizon + 1, one
    draw in three packed just below 1/2.  The scans need only phases in
    (0, 1/2), so the profile need not be valid."""
    q = 2 * horizon + 2 + rng.randint(0, 60)
    while not _is_prime(q):
        q += 1
    half = (q - 1) // 2
    l = rng.randint(1, min(6, half))
    low = max(1, half - 4 * l) if rng.random() < 1 / 3 else 1
    numerators = sorted(rng.sample(range(low, half + 1), l))
    arcs = [rng.randint(0, 8) for _ in range(l + 1)]
    return IndexProfile(rng.randint(2, 8), arcs, [Fraction(a, q) for a in numerators], [1] * l)


@pytest.mark.parametrize("horizon, count", [(3, 200), (4, 200), (5, 200), (200, 200), (10000, 6)])
def test_window_walk_matches_per_m_scans(horizon, count):
    rng = random.Random(horizon)
    fallback = rising_only = 0
    for i in range(count):
        p = _random_profile(rng, horizon) if i % 2 else make_random_profile(rng)
        _compare(p, horizon)
        if 2 * p.arc_values[-1] > 4:
            fallback += 1
        elif len(p.arc_values) > 1:
            rising_only += 1
    assert fallback and rising_only


def _staircases(n: int):
    """I = (n-1, v_2, ..., 1, 2) with n - 1 > v_2 > ... > 1."""
    for size in range(n - 2):
        for middle in itertools.combinations(range(n - 2, 1, -1), size):
            yield (n - 1, *middle, 1, 2)


@pytest.mark.parametrize("q", [20011, 32083])
def test_window_walk_on_desk_staircases(q):
    # The profiles verify(n, 10000, q) instantiates on the staircases, for
    # n = 4..8: they include gap-bound and (at 32083) jump-clash kills and
    # consistent survivors.
    horizon = 10000
    verdicts = set()
    for n in range(4, 9):
        for arcs in _staircases(n):
            s = Signature(n, arcs, _jump_costs(arcs))
            for magnitude in (Fraction(1), Fraction(1, 2)):
                p = phase_instantiate(s, average_relation_value(n) * magnitude, q, horizon=horizon)
                if not isinstance(p, IndexProfile):
                    continue
                assert _first_decrease(p, horizon) is None
                _compare(p, horizon)
                verdict = single_geodesic_pipeline(n, p, horizon)
                verdicts.add(verdict if verdict == CONSISTENT else verdict.failed_step)
    assert "gap-bound" in verdicts
    if q == 32083:
        assert {"jump-clash", CONSISTENT} <= verdicts
