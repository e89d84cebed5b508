"""Rational equivariant loop-space homology of a rational n-sphere.

Two independent routes to the same Betti numbers b_k of the quotient pair
(free loops mod rotation, point curves mod rotation):

* `betti_number` applies the combinatorial rule: b_k is nonzero iff
  k = n - 1 (mod 2) and k >= n - 1, with b_k = 2 exactly at
  k = (2j+1)(n-1), j >= 1 for even n and k = j(n-1), j >= 2 for odd n.

* `poincare_coefficients` expands the closed-form generating function

      t^{n-1} * [ 1/(1-t^2) + t^{2n-2}/(1-t^{2n-2}) ]   (n even)
      t^{n-1} * [ 1/(1-t^2) + t^{n-1}/(1-t^{n-1})   ]   (n odd)

  by exact integer power-series division.

The CLI prints the rule table (`betti_table`), which fills its two
arithmetic progressions by slice assignment, and raises the series' input
errors through `check_table_request`.  The series stays the independent
cross-check: `test_table_equals_rule_and_series` compares the two routes
degree by degree, and `test_betti_csv_matches_series` pins the printed
column to the series' coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class BettiTable:
    n: int
    max_degree: int
    ranks: tuple[int, ...]


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"n = {n} must be >= 3")


def check_table_request(n: int, max_degree: int) -> None:
    """Raise the ValueError the series route raises for (n, max_degree):
    the n error first, then the degree error."""
    _check_n(n)
    if max_degree < 0:
        raise ValueError(f"max_degree = {max_degree} must be >= 0")


@functools.cache  # betti_number reads it on every call
def _doubled(n: int) -> tuple[int, int]:
    """(start, step) of the degrees k = start + i*step, i >= 0, where b_k = 2."""
    return (3 * (n - 1), 2 * (n - 1)) if n % 2 == 0 else (2 * (n - 1), n - 1)


def betti_number(n: int, k: int) -> int:
    """b_k of the equivariant loop-space pair for the rational n-sphere."""
    _check_n(n)
    if k < 0:
        raise ValueError(f"k = {k} must be >= 0")
    if k < n - 1 or (k - (n - 1)) % 2 != 0:
        return 0
    start, step = _doubled(n)
    return 2 if k >= start and (k - start) % step == 0 else 1


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] += bi
    return out


def _series_div(num: list[int], den: list[int], max_degree: int) -> list[int]:
    """Coefficients of num/den up to max_degree; den must be monic at t^0.

    The recurrence visits only the nonzero coefficients of den, at most
    four for (1 - t^2)(1 - t^s) whatever s is.
    """
    assert den[0] == 1
    terms = [(i, d) for i, d in enumerate(den) if i and d]
    coeffs = [0] * (max_degree + 1)
    for k in range(max_degree + 1):
        c = num[k] if k < len(num) else 0
        for i, d in terms:
            if i > k:
                break
            c -= d * coeffs[k - i]
        coeffs[k] = c
    return coeffs


def _monomial(degree: int, coefficient: int = 1) -> list[int]:
    poly = [0] * (degree + 1)
    poly[degree] = coefficient
    return poly


def poincare_coefficients(n: int, max_degree: int) -> BettiTable:
    """Expand the closed-form Poincare series to the requested degree."""
    check_table_request(n, max_degree)
    s = 2 * n - 2 if n % 2 == 0 else n - 1
    one_minus_t2 = [1, 0, -1]
    one_minus_ts = _poly_add(_monomial(0), _monomial(s, -1))
    # 1/(1-t^2) + t^s/(1-t^s) over the common denominator (1-t^2)(1-t^s).
    numerator = _poly_add(one_minus_ts, _poly_mul(_monomial(s), one_minus_t2))
    numerator = _poly_mul(_monomial(n - 1), numerator)
    denominator = _poly_mul(one_minus_t2, one_minus_ts)
    ranks = _series_div(numerator, denominator, max_degree)
    return BettiTable(n=n, max_degree=max_degree, ranks=tuple(ranks))


def betti_table(n: int, max_degree: int) -> BettiTable:
    """Rule-based table over 0..max_degree (same shape as the series route):
    b_k = 1 on k = n-1, n+1, ..., raised to 2 on k = 3(n-1), 5(n-1), ...
    for even n and on k = 2(n-1), 3(n-1), ... for odd n."""
    ranks = [0] * (max_degree + 1)
    if ranks:
        _check_n(n)
        start, step = _doubled(n)
        ranks[n - 1 :: 2] = [1] * len(range(n - 1, max_degree + 1, 2))
        ranks[start::step] = [2] * len(range(start, max_degree + 1, step))
    return BettiTable(n=n, max_degree=max_degree, ranks=tuple(ranks))


def average_euler_number(n: int) -> Fraction:
    """Normalized limit of the alternating Betti sums, lim S_N / N.

    The b_k pattern is periodic with period 2(n-1) once k is past the
    small degrees, so the limit is one period's alternating sum divided
    by the period length.  Equals -n/(2n-2) for even n and (n+1)/(2n-2)
    for odd n.
    """
    _check_n(n)
    period = 2 * (n - 1)
    start = 2 * period  # safely inside the periodic regime, and even
    ranks = betti_table(n, start + period - 1).ranks
    return Fraction(sum(ranks[start::2]) - sum(ranks[start + 1 :: 2]), period)
