"""The Bott-sum kernel, in exact integer arithmetic.

Phases come split into numerators and denominators, t_k = pnum[k] / pden[k].
Summation by parts turns Bott's iteration formula (Bott 1956) into

    ind(c^m) = I_1 + (m - 1) * I_{l+1} + sum_k 2 * (I_k - I_{k+1}) * floor(m * t_k).

`index_at` evaluates it for one m.  `index_sequence` walks m upwards and
only acts where a floor moves: floor(m * t_k) grows by one at
m = ceil(j / t_k) and nowhere else, so the sequence is a running sum of
I_{l+1} per step plus one jump per crossing, at cost O(m_max + crossings).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .errors import PhaseCollision


def _check_collision(pnum: list[int], pden: list[int], m: int) -> None:
    # j/m == p/q (lowest terms) has a solution 1 <= j < m/2 iff q | m.
    for idx, q in enumerate(pden):
        if m % q == 0:
            raise PhaseCollision(Fraction(pnum[idx], q), idx, m)


def index_at(arcs: list[int], pnum: list[int], pden: list[int], m: int) -> int:
    """ind(c^m) for the profile with the given arcs and phases."""
    _check_collision(pnum, pden, m)
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


def index_sequence(arcs: list[int], pnum: list[int], pden: list[int], m_max: int) -> list[int]:
    """[ind(c^1), ..., ind(c^m_max)]; raises PhaseCollision at the first bad m.

    That m is the smallest denominator: no smaller m is a multiple of one.
    """
    if m_max < 1:
        return []
    first = min(pden, default=m_max + 1)
    if first <= m_max:
        idx = pden.index(first)
        raise PhaseCollision(Fraction(pnum[idx], first), idx, first)
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
