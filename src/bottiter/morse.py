"""Critical-group bookkeeping and the Morse-inequality recursion.

For a non-degenerate iterate c^m the equivariant critical group is one-
dimensional in degree ind(c^m) when m is even or the parity invariant has
magnitude 1, and trivial otherwise.  Aggregating over m gives the counts
w_k, which the Morse inequalities tie to the Betti numbers through

    w_k = b_k + q_k + q_{k-1},   q_{-1} = 0,   q_k >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import lt, neg, sub
from typing import Sequence

from .errors import PrecondViolation
from .iteration import bott_index, bott_index_sequence
from .profile import IndexProfile, average_index, gamma_invariant


@dataclass(frozen=True)
class MorseReport:
    max_degree: int
    w: tuple[int, ...]
    q: tuple[int, ...]
    feasible: bool
    first_violation: int | None


def critical_group_dim(p: IndexProfile, m: int, k: int) -> int:
    """dim of the degree-k equivariant critical group of c^m (0 or 1)."""
    if k < 0:
        raise PrecondViolation(f"k = {k} must be >= 0")
    if m % 2 == 1 and abs(gamma_invariant(p)) != 1:
        return 0
    return 1 if bott_index(p, m) == k else 0


def iterate_cutoff(p: IndexProfile, max_degree: int) -> int:
    """Smallest m-range guaranteed to contain every contributor <= max_degree.

    Since |ind(c^m) - m*alpha| <= n - 1, any m beyond (K + n - 1)/alpha has
    index above K; the ceiling is taken so the bound is safe for
    non-monotone profiles as well.
    """
    alpha = average_index(p)
    if alpha <= 0:
        raise PrecondViolation("aggregation requires a positive average index")
    return cutoff_for(p.n, alpha, max_degree)


def cutoff_for(n: int, alpha: Fraction, max_degree: int) -> int:
    """`iterate_cutoff` for dimension n and average index alpha > 0."""
    return max(1, math.ceil((max_degree + n - 1) / alpha))


def count_w(sequence: Sequence[int], gamma: Fraction, max_degree: int) -> list[int]:
    """w_k for k = 0..max_degree from [ind(c^1), ..., ind(c^cutoff)] and the
    parity invariant gamma: odd iterates count only when |gamma| = 1.
    Indices outside 0..max_degree are not counted."""
    counted = sequence if abs(gamma) == 1 else sequence[1::2]
    w = [0] * (max_degree + 1)
    for index in counted:
        if 0 <= index <= max_degree:
            w[index] += 1
    return w


def aggregate_w(p: IndexProfile, max_degree: int) -> list[int]:
    """w_k = number of iterates whose critical group lives in degree k,
    for k = 0..max_degree."""
    if max_degree < 0:
        raise PrecondViolation(f"max_degree = {max_degree} must be >= 0")
    cutoff = iterate_cutoff(p, max_degree)
    return count_w(bott_index_sequence(p, cutoff), gamma_invariant(p), max_degree)


def morse_q_recursion(w: Sequence[int], b: Sequence[int]) -> MorseReport:
    """Solve w_k = b_k + q_k + q_{k-1} for q and report feasibility.

    The recursion telescopes into an alternating prefix sum,

        q_k = (-1)^k * sum_{i <= k} (-1)^i (w_i - b_i),

    so q is built in whole-column passes: the differences, their signs
    flipped on odd i by slice assignment, `accumulate`, and the odd signs
    flipped back.  The first violation is the first k with q_k < 0, found
    by a lazy scan that stops there.
    """
    if len(w) != len(b):
        raise PrecondViolation(f"length mismatch: {len(w)} counts vs {len(b)} Betti numbers")
    q = list(map(sub, w, b))
    q[1::2] = map(neg, q[1::2])
    q = list(accumulate(q))
    q[1::2] = map(neg, q[1::2])
    first_violation = next(compress(count(), map(lt, q, repeat(0))), None)
    return MorseReport(
        max_degree=len(w) - 1,
        w=tuple(w),
        q=tuple(q),
        feasible=first_violation is None,
        first_violation=first_violation,
    )
