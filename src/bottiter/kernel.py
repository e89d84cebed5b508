"""Entry point for the Bott-sum kernel.

Splits each phase into numerator and denominator and hands the exact
integer arithmetic to `_purekernel`, the one kernel implementation.
"""

from __future__ import annotations

from fractions import Fraction

from . import _purekernel

# Kept for the benchmark harness: it reads KERNEL_BACKEND, and its self-test
# sets the hook below to a call-counting module that index_at and
# index_sequence then go through.
BACKEND = "python"
_fastkernel = None


def _split_phases(phases: tuple[Fraction, ...]) -> tuple[list[int], list[int]]:
    return [t.numerator for t in phases], [t.denominator for t in phases]


def index_at(arcs, phases: tuple[Fraction, ...], m: int) -> int:
    """ind(c^m)."""
    pnum, pden = _split_phases(phases)
    return (_fastkernel or _purekernel).index_at(list(arcs), pnum, pden, m)


def index_sequence(arcs, phases: tuple[Fraction, ...], m_max: int) -> list[int]:
    """[ind(c^1), ..., ind(c^m_max)]."""
    pnum, pden = _split_phases(phases)
    return (_fastkernel or _purekernel).index_sequence(list(arcs), pnum, pden, m_max)


def check_range(phases: tuple[Fraction, ...], m_max: int) -> None:
    """Raise what index_sequence(..., m_max) raises, computing nothing."""
    _purekernel.check_range(*_split_phases(phases), m_max)


def two_step_windows(arcs, phases: tuple[Fraction, ...], m_max: int, above: int):
    """(m, ind(c^m), ind(c^{m+2})) at least at every m + 2 <= m_max whose
    gap exceeds `above`, in increasing m (see `_purekernel`)."""
    pnum, pden = _split_phases(phases)
    return _purekernel.two_step_windows(list(arcs), pnum, pden, m_max, above)
