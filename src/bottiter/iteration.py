"""Index iteration: Bott sums over roots of unity and derived quantities.

The index of the m-fold cover is the sum of the index function over the
m-th roots of unity.  By conjugation symmetry this collapses to

    ind(c^m) = I_1 + [m even] * I_{l+1} + 2 * sum_{1 <= j < m/2} I(e(j/m)),

Summing by parts over the arcs gives Bott's iteration formula

    ind(c^m) = I_1 + (m - 1) * I_{l+1} + 2 * sum_k (I_k - I_{k+1}) * floor(m * t_k),

which `bott_index` evaluates in exact integers through `bottiter.kernel`.
`bott_index_sequence` is event-driven: floor(m * t_k) grows by one at
m = ceil(j / t_k) only, so the sequence is a running sum with one jump per
crossing.  `iterate_index` additionally materializes the per-point arc
hits for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .errors import PhaseCollision, PrecondViolation
from .profile import (
    IndexProfile,
    arc_position,
    average_index,
    evaluate_index_function,
    reduces_above,
)


@dataclass(frozen=True)
class IterateIndexReport:
    """ind(c^m) together with the arc bookkeeping that produced it."""

    m: int
    index: int
    arc_hits: tuple[tuple[Fraction, int], ...]  # (j/m, 1-based arc id)
    even_contribution: int


def bott_index(p: IndexProfile, m: int) -> int:
    """ind(c^m) as a bare integer (fast path, no report)."""
    if m < 1:
        raise PrecondViolation(f"m = {m} must be positive")
    return kernel.index_at(p.arc_values, p.phases, m)


def bott_index_sequence(p: IndexProfile, m_max: int) -> list[int]:
    """[ind(c^1), ..., ind(c^m_max)] in one pass."""
    if m_max < 1:
        raise PrecondViolation(f"m_max = {m_max} must be positive")
    return kernel.index_sequence(p.arc_values, p.phases, m_max)


def check_sequence_range(p: IndexProfile, m_max: int) -> None:
    """Raise what bott_index_sequence(p, m_max) raises, computing nothing."""
    if m_max < 1:
        raise PrecondViolation(f"m_max = {m_max} must be positive")
    kernel.check_range(p.phases, m_max)


def iterate_index(p: IndexProfile, m: int) -> IterateIndexReport:
    """Full report for ind(c^m): index, arc hits at j/m, even term."""
    if m < 1:
        raise PrecondViolation(f"m = {m} must be positive")
    hits = []
    total = 0
    for j in range(1, (m + 1) // 2):
        t = Fraction(j, m)
        try:
            arc = arc_position(p, t)
        except PhaseCollision as exc:
            raise PhaseCollision(t, exc.phase_index, m) from None
        hits.append((t, arc + 1))
        total += p.arc_values[arc]
    even = p.index_at_minus_one if m % 2 == 0 else 0
    index = p.index_at_one + even + 2 * total
    return IterateIndexReport(m=m, index=index, arc_hits=tuple(hits), even_contribution=even)


def gap_decomposition(p: IndexProfile, m: int) -> tuple[int, int, set[int]]:
    """Split ind(c^{m+1}) - ind(c^m) into the endpoint term A_m and the
    interior resummation term B_m, for profiles with I_c(-1) = 2.

        A_m = 2                              for odd m,
        A_m = 2 * I(e(m / (2m+2))) - 2       for even m,
        B_m = 2 * sum_{1 <= j < m/2} [ I(e(j/(m+1))) - I(e(j/m)) ].

    By Bott's formula the gap is A_m + B_m, so B_m is read as
    ind(c^{m+1}) - ind(c^m) - A_m from two O(l) kernel calls;
    `reference.naive_gap_decomposition` keeps the per-point sum.

    A point that hits a phase raises PhaseCollision for the first such
    point of a point-by-point scan: the A_m point, then smallest j,
    j/(m+1) before j/m.  Phases must be those of a valid profile
    (strictly increasing in (0, 1/2)).

    Also returns J_m = { p : p/(m+1) < t_l < p/m, p < m/2 }, the only
    positions where a term of B_m can be negative (there is at most one).
    """
    if m < 1:
        raise PrecondViolation(f"m = {m} must be positive")
    if p.index_at_minus_one != 2:
        raise PrecondViolation(
            f"gap decomposition requires I_c(-1) = 2, profile has {p.index_at_minus_one}"
        )
    if m % 2 == 1:
        a_m = 2
    else:
        a_m = 2 * evaluate_index_function(p, Fraction(m, 2 * m + 2)) - 2
    j_max = (m - 1) // 2
    # The scan meets j/(m+1) < j/m < (j+1)/(m+1) in increasing order, so its
    # first collision is at the smallest phase some point hits; j/M equals
    # t = a/q (lowest terms) iff q divides M*a, at j = M*a/q.  With the A_m
    # point it catches every q dividing m or m+1, so neither index collides.
    for idx, t in enumerate(p.phases):
        for big_m in (m + 1, m):
            j, rem = divmod(big_m * t.numerator, t.denominator)
            if rem == 0 and 1 <= j <= j_max:
                raise PhaseCollision(t, idx)
    arcs, phases = p.arc_values, p.phases
    b_m = kernel.index_at(arcs, phases, m + 1) - kernel.index_at(arcs, phases, m) - a_m
    j_set: set[int] = set()
    if p.phases:
        t_last = p.phases[-1]
        # p/(m+1) < t_l < p/m and p < m/2: at most one integer qualifies.
        lo = t_last * m  # p > lo
        hi = t_last * (m + 1)  # p < hi
        for candidate in range(int(lo) + 1, int(hi) + 1):
            if lo < candidate < hi and 2 * candidate < m:
                j_set.add(candidate)
    return a_m, b_m, j_set


def check_jump_range(phases: tuple[Fraction, ...], horizon: int) -> None:
    """The jump scan reads iterates up to 2*horizon + 1: raise
    PrecondViolation, naming the first phase whose denominator is at most
    that, since the scan would collide there."""
    threshold = 2 * horizon + 1
    for j, t in enumerate(phases):
        if not reduces_above(t.numerator, t.denominator, threshold):
            raise PrecondViolation(
                f"phase t_{j + 1} = {t} has denominator <= 2*horizon + 1 = {threshold}; "
                "the scan would collide"
            )


def jump_search(p: IndexProfile, horizon: int) -> list[int]:
    """All k <= horizon with ind(c^{2k+1}) - ind(c^{2k-1}) = 2 * ind(c).

    The scan is horizon-bounded: an empty result never asserts that no
    jump exists beyond it.
    """
    if horizon < 1:
        raise PrecondViolation(f"horizon = {horizon} must be positive")
    if average_index(p) <= 0:
        raise PrecondViolation("jump search requires a positive average index")
    check_jump_range(p.phases, horizon)
    seq = bott_index_sequence(p, 2 * horizon + 1)
    jump = 2 * p.index_at_one
    return [k for k in range(1, horizon + 1) if seq[2 * k] - seq[2 * k - 2] == jump]
