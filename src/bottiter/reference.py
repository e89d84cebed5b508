"""Brute-force reference engine, kept independent of the optimized path.

`naive_index` walks every m-th root of unity, folds it onto [0, 1/2] by
conjugation, and finds the arc by linear scan over Fractions.  No lattice
counting, no symmetry shortcut, no shared code with `bottiter.kernel`;
this is the oracle the fast engines are checked against.
`naive_gap_decomposition` sums the gap terms the same way, point by point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PhaseCollision
from .profile import IndexProfile


def naive_value_at(p: IndexProfile, t: Fraction) -> int:
    """Index function at e(t) for any t in [0, 1), by linear arc scan."""
    if t > Fraction(1, 2):
        t = 1 - t
    for j, phase in enumerate(p.phases):
        if t == phase:
            raise PhaseCollision(t, j)
        if t < phase:
            return p.arc_values[j]
    return p.arc_values[-1]


def naive_index(p: IndexProfile, m: int) -> int:
    """ind(c^m) summed point by point over all m-th roots of unity."""
    total = 0
    for j in range(m):
        total += naive_value_at(p, Fraction(j, m))
    return total


def naive_gap_decomposition(p: IndexProfile, m: int) -> tuple[int, int, set[int]]:
    """(A_m, B_m, J_m) of `iteration.gap_decomposition`, point by point.

    Evaluates I at the A_m point, then at j/(m+1) and j/m for each
    j < m/2 in turn, so a collision is raised at the first point of that
    scan; J_m is read off its definition one j at a time.
    """
    if m % 2 == 1:
        a_m = 2
    else:
        a_m = 2 * naive_value_at(p, Fraction(m, 2 * m + 2)) - 2
    b_m = 0
    for j in range(1, (m + 1) // 2):
        b_m += naive_value_at(p, Fraction(j, m + 1)) - naive_value_at(p, Fraction(j, m))
    j_set = set()
    if p.phases:
        t_last = p.phases[-1]
        j_set = {j for j in range(1, (m + 1) // 2) if Fraction(j, m + 1) < t_last < Fraction(j, m)}
    return a_m, 2 * b_m, j_set
