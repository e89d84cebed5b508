"""The Bott-sum kernel, in exact integer arithmetic.

Phases come split into numerators and denominators, t_k = pnum[k] / pden[k].
Summation by parts turns Bott's iteration formula (Bott 1956) into

    ind(c^m) = I_1 + (m - 1) * I_{l+1} + sum_k 2 * d_k * floor(m * t_k),

with d_k = I_k - I_{k+1}.  `index_at` evaluates it for one m.
`index_sequence` walks m upwards and only acts where a floor moves:
floor(m * t_k) grows by one at the crossings m = ceil(j / t_k) and
nowhere else, so the sequence is a running sum of I_{l+1} per step plus
one jump per crossing, at cost O(m_max + crossings).

For the phases of a valid profile, every t_k lies in (0, 1/2), so a phase
crosses at most once per step and at most once per two steps.  Hence

    ind(c^{m+1}) - ind(c^m) >= I_{l+1} + 2 * sum_{d_k < 0} d_k,
    ind(c^{m+2}) - ind(c^m) = 2 * I_{l+1} + sum_k 2 * d_k * chi_k(m),

where chi_k(m) is 1 when t_k crosses at m + 1 or m + 2, and 0 otherwise.
So a two-step gap above 2 * I_{l+1} needs a crossing of a phase with
d_k > 0 at m + 1 or m + 2; `two_step_windows` walks only those m.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import merge
from itertools import accumulate

from .errors import PhaseCollision


def _check_collision(pnum: list[int], pden: list[int], m: int) -> None:
    # j/m == p/q (lowest terms) has a solution 1 <= j < m/2 iff q | m.
    for idx, q in enumerate(pden):
        if m % q == 0:
            raise PhaseCollision(Fraction(pnum[idx], q), idx, m)


def check_range(pnum: list[int], pden: list[int], m_max: int) -> None:
    """Raise the PhaseCollision of the first iterate up to m_max that
    collides.  That m is the smallest denominator: no smaller m is a
    multiple of one."""
    first = min(pden, default=m_max + 1)
    if first <= m_max:
        idx = pden.index(first)
        raise PhaseCollision(Fraction(pnum[idx], first), idx, first)


def _index(arcs: list[int], pnum: list[int], pden: list[int], m: int) -> int:
    half_count = (m - 1) // 2
    total = 0
    prev_floor = 0
    for k in range(len(pnum)):
        f = (m * pnum[k]) // pden[k]
        total += arcs[k] * (f - prev_floor)
        prev_floor = f
    total += arcs[-1] * (half_count - prev_floor)
    index = arcs[0] + 2 * total
    if m % 2 == 0:
        index += arcs[-1]
    return index


def index_at(arcs: list[int], pnum: list[int], pden: list[int], m: int) -> int:
    """ind(c^m) for the profile with the given arcs and phases."""
    _check_collision(pnum, pden, m)
    return _index(arcs, pnum, pden, m)


def index_sequence(arcs: list[int], pnum: list[int], pden: list[int], m_max: int) -> list[int]:
    """[ind(c^1), ..., ind(c^m_max)]; raises PhaseCollision at the first bad m."""
    if m_max < 1:
        return []
    check_range(pnum, pden, m_max)
    jumps = [2 * (a - b) for a, b in zip(arcs, arcs[1:])]
    # Whole turns of a phase (t outside [0, 1), never in a valid profile)
    # add the same amount to every step.
    slope = sum(jump * (p // q) for jump, p, q in zip(jumps, pnum, pden))
    steps = [arcs[-1] + slope] * m_max
    steps[0] = arcs[0] + slope
    for jump, p, q in zip(jumps, pnum, pden):
        r = p % q
        if jump and r:
            # Crossing j of t = r/q lands at m = ceil(j*q/r), index (j*q - 1) // r.
            for x in range(q - 1, m_max * r // q * q, q):
                steps[x // r] += jump
    return list(accumulate(steps))


def _crossings(p: int, q: int, m_max: int):
    """The crossings ceil(j*q/p) <= m_max of t = p/q in (0, 1), in order."""
    return (x // p + 1 for x in range(q - 1, m_max * p // q * q, q))


def _rising_windows(arcs: list[int], pnum: list[int], pden: list[int], m_max: int):
    """Increasing m <= m_max - 2 with a crossing of a phase with
    I_k > I_{k+1} at m + 1 or m + 2."""
    rising = [
        _crossings(p, q, m_max)
        for a, b, p, q in zip(arcs, arcs[1:], pnum, pden)
        if a > b
    ]
    last = 0
    for c in merge(*rising):
        for m in (c - 2, c - 1):
            if last < m <= m_max - 2:
                last = m
                yield m


def two_step_windows(arcs: list[int], pnum: list[int], pden: list[int], m_max: int, above: int):
    """(m, ind(c^m), ind(c^{m+2})) for increasing m with m + 2 <= m_max,
    at every m whose gap ind(c^{m+2}) - ind(c^m) exceeds `above`, and
    possibly at others.  Phases must be those of a valid profile.

    When 2 * I_{l+1} <= above, only the windows of crossings of phases with
    I_k > I_{k+1} are visited; otherwise every m is.  Raises the collision
    that index_sequence(..., m_max) would raise before yielding anything.
    """
    check_range(pnum, pden, m_max)
    if 2 * arcs[-1] > above:
        ms = range(1, m_max - 1)
    else:
        ms = _rising_windows(arcs, pnum, pden, m_max)
    return ((m, _index(arcs, pnum, pden, m), _index(arcs, pnum, pden, m + 2)) for m in ms)
