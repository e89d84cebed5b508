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

Step 5 is the weak Morse inequality w_k >= b_k.  b_k > 0 at every degree
k >= n - 1 with k = n - 1 (mod 2) (`homology`).  In a non-decreasing
sequence, which every staircase is (below), ind(c^m) >= ind(c) = n - 1, and
only c^{m+1} can have its index strictly between ind(c^m) and
ind(c^{m+2}).  A gap of 5 or more puts the four degrees ind(c^m) + 1..4 in
that range; two of them have the parity of n - 1, and one iterate fills
one degree, so the other has w_k = 0 < b_k.

`verify_theorem` accounts for every phase-free candidate skeleton, and
walks only those that can survive step 3.  Skeletons with the wrong prime
index are counted in closed form.  So are those whose arc values all stay
>= 2: their average index lies in the open hull (min I, max I), or equals
I_1 = n - 1 when the arcs are constant, so it is >= 2.  Both targets the
relation allows, relation and relation/2, are < 2, so these skeletons get
the class certificate and two phase-infeasible certificates.  The rest
have their average-index range covered by exact certificates, and
representative phase vectors for the allowed targets go through the
pipeline.  Every candidate must be contradicted; a
"consistent-up-to-horizon" outcome is an explicit, reportable verdict,
never silent.

Steps 1-3 need ind(c) and ind(c^2) alone.  The later steps read the
index sequence through Bott's formula,

  ind(c^m) = I_1 + (m - 1) I_{l+1} + sum_k 2 d_k floor(m t_k),  d_k = I_k - I_{k+1},

in which a phase t_k < 1/2 crosses (floor(m t_k) grows) at most once per
step and at most once per two steps.  Two exact facts follow:

  - ind(c^{m+1}) - ind(c^m) >= I_{l+1} + 2 sum_{d_k < 0} d_k.  When that
    floor is >= 0 (on every staircase it is 2 - 2 = 0), the sequence never
    decreases, and step 3' certifies monotonicity without a scan.
  - ind(c^{m+2}) - ind(c^m) = 2 I_{l+1} + sum_k 2 d_k chi_k(m), where
    chi_k(m) = 1 when t_k crosses at m + 1 or m + 2.  When 2 I_{l+1} <= 4,
    step 5 can fire only at such an m for a phase with d_k > 0, and so can
    step 6 when 2 ind(c) > 2 I_{l+1}.  Those windows are walked in
    increasing order and each is evaluated in O(l) integers.

Otherwise the step checks every m.  The Morse step reads the one
Bott sequence a candidate still needs, up to its iterate cutoff.
`verify_theorem` runs every instantiated candidate through
`single_geodesic_pipeline` and reads its tallies from the verdict: each
candidate past the relation was checked against the proposition once,
inside the pipeline, and the report is rebuilt only for a candidate that
fails it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from . import kernel
from .errors import HypothesesNotMet, PrecondViolation
from .homology import average_euler_number, betti_number, betti_table
from .iteration import (
    bott_index,
    bott_index_sequence,
    check_jump_range,
    check_sequence_range,
)
from .morse import count_w, cutoff_for, morse_q_recursion
from .profile import (
    HALF,
    IndexProfile,
    average_index,
    gamma_invariant,
    nullity_violations,
    phase_order_violations,
    phases_in_order,
    reduces_above,
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

# The steps that need only ind(c), ind(c^2) and the average index.
_EARLY_STEPS = STEP_IDS[:3]

# Canonical instantiation places the free phases at consecutive grid points
# starting at 3/Q.  Measured over n = 3..8 at (H, Q) = (200, 499) and
# (10000, 20011):
#   - offsets 1 and 2 leave survivors at n = 4, 6, 7 and 8 at both scales
#     (offset 1: 2, 5, 6, 5; offset 2: 1, 1, 2, 1), and at offset 1
#     jump-clash fires once, at n = 8;
#   - offset 3 leaves none, and jump-clash fires only at n = 4 at CI scale;
#   - offsets 4 and 5 leave none, and jump-clash never fires.
# So the verdict and the jump-clash tally depend on this constant.
_GRID_OFFSET = 3


@dataclass(frozen=True)
class Signature:
    """Phase-free skeleton of a profile: arc values and nullities only."""

    n: int
    arc_values: tuple[int, ...]
    nullities: tuple[int, ...]


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
    """The enumeration bound 0 <= I_j <= 2(n-1), then `nullity_violations`."""
    arcs, nulls = s.arc_values, s.nullities
    if not arcs:
        return ["empty arc_values"]
    if len(nulls) != len(arcs) - 1:
        return [f"{len(nulls)} nullities for {len(arcs)} arc values"]
    return [
        f"arc value I_{j + 1} = {v} outside 0..2(n - 1) = 0..{2 * (s.n - 1)}"
        for j, v in enumerate(arcs)
        if not 0 <= v <= 2 * (s.n - 1)
    ] + nullity_violations(s.n, arcs, nulls)


def _arc_sequences(
    n: int, first: int | None = None, dip: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Arc sequences in enumeration order: by length 1..n, then
    lexicographically.

    Values lie in 0..2(n-1) and each consecutive jump |dI_j| costs
    max(1, |dI_j|) of the shared nullity budget n - 1.  With `first`, only
    the sequences with I_1 = first.  With `dip`, only the sequences with
    some value <= dip: a prefix that has not dipped is walked only while it
    still can, that is while last - room <= dip.
    """
    vmax = 2 * (n - 1)
    budget = n - 1
    low = vmax if dip is None else dip
    starts = range(vmax + 1) if first is None else (first,)
    seq: list[int] = []

    def extend(length: int, spent: int, dipped: bool) -> Iterator[tuple[int, ...]]:
        if len(seq) == length:
            if dipped:
                yield tuple(seq)
            return
        last, room = seq[-1], budget - spent
        if room < 1:
            return
        for v in range(max(0, last - room), min(vmax, last + room) + 1):
            cost = max(1, abs(v - last))
            if dipped or v - (room - cost) <= low:
                seq.append(v)
                yield from extend(length, spent + cost, dipped or v <= low)
                seq.pop()

    for length in range(1, n + 1):
        for v in starts:
            seq.append(v)
            yield from extend(length, 0, v <= low)
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


def _count_signatures(n: int, starts, floor: int = 0) -> int:
    """Number of signatures enumerate_signatures(n) yields whose arc
    sequence starts at a value in `starts` and never drops below `floor`.

    A DP over arc prefixes: ways[(v, s)] counts the prefixes of the current
    length that end at value v and have spent s of the budget; each
    complete sequence stands for its nullity splits.
    """
    vmax, budget = 2 * (n - 1), n - 1
    ways = {(v, 0): 1 for v in starts if v >= floor}
    total = 0
    for l in range(n):
        total += sum(c * _split_count(l, s, budget) for (_, s), c in ways.items())
        longer: dict[tuple[int, int], int] = {}
        for (v, s), c in ways.items():
            room = budget - s
            if room < 1:
                continue
            for w in range(max(floor, v - room), min(vmax, v + room) + 1):
                key = (w, s + max(1, abs(w - v)))
                longer[key] = longer.get(key, 0) + c
        ways = longer
    return total


def _count_wrong_prime_index(n: int) -> int:
    """Number of signatures enumerate_signatures(n) yields with I_1 != n - 1."""
    return _count_signatures(n, (v for v in range(2 * n - 1) if v != n - 1))


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
    if bad := phase_order_violations(phases):
        raise PrecondViolation(bad[0])
    arcs = tuple(range(n - 1, 0, -1)) + (2,)
    return IndexProfile(n, arcs, phases, (1,) * (n - 1))


def _collision_free_length(p: IndexProfile, cap: int) -> int:
    """min(cap, smallest phase denominator - 1): no iterate up to it collides."""
    return min([cap] + [t.denominator - 1 for t in p.phases])


def _first_decrease(p: IndexProfile, horizon: int) -> int | None:
    """The first m < horizon with ind(c^{m+1}) < ind(c^m), or None.  Raises
    what bott_index_sequence(p, horizon) raises.

    Each t_k < 1/2 crosses at most once per step, so every step is at least
    I_{l+1} + 2 * sum_{d_k < 0} d_k; when that is >= 0, nothing is scanned.
    """
    arcs = p.arc_values
    if arcs[-1] + 2 * sum(min(0, a - b) for a, b in zip(arcs, arcs[1:])) >= 0:
        check_sequence_range(p, horizon)
        return None
    seq = bott_index_sequence(p, horizon)
    return next((m for m in range(1, horizon) if seq[m] < seq[m - 1]), None)


def _first_gap_kill(p: IndexProfile, horizon: int) -> tuple[int, int, int] | None:
    """The first m <= horizon - 2 with ind(c^{m+2}) - ind(c^m) > 4, as
    (m, ind(c^m), ind(c^{m+2})), or None.  Raises what
    bott_index_sequence(p, horizon) raises.  When 2 * I_{l+1} <= 4, only
    the windows of crossings of phases with I_k > I_{k+1} are read.
    """
    windows = kernel.two_step_windows(p.arc_values, p.phases, horizon, 4)
    return next(((m, a, b) for m, a, b in windows if b - a > 4), None)


def _jumps(p: IndexProfile, horizon: int) -> list[int]:
    """jump_search(p, horizon) for phases with denominators above
    2*horizon + 1.  When 2 * ind(c) > 2 * I_{l+1}, only the windows of
    crossings of phases with I_k > I_{k+1} are read.

    The two stay apart because each is the faster on its own inputs: at
    perfbench's reference speed, reading the full sequence of 2*horizon + 1
    iterates here made a verify-desk sweep 35% slower (83-86 ms to
    114-117 ms), while on the 150 jumps queries of profile-queries seed 101
    jump_search took 36 ms against 466 ms for these windows.
    """
    jump = 2 * p.index_at_one
    windows = kernel.two_step_windows(p.arc_values, p.phases, 2 * horizon + 1, jump - 1)
    return [(m + 1) // 2 for m, a, b in windows if m % 2 and b - a == jump]


def _staircase_report(
    p: IndexProfile, alpha: Fraction, gamma: Fraction, ind1: int, ind2: int, horizon: int
) -> Prop33Report:
    """The staircase proposition on a valid profile with this average
    index, parity invariant, ind(c) and ind(c^2).  The index sequence is
    read up to the horizon only once the hypotheses hold, and
    HypothesesNotMet is raised when they do not.
    """
    n, arcs = p.n, p.arc_values
    met = {
        "ind_c_is_n_minus_1": ind1 == n - 1,
        "ind_c2_at_least_n": ind2 >= n,
        "alpha_below_twice_gamma": alpha < 2 * abs(gamma),
    }
    if not all(met.values()):
        raise HypothesesNotMet(
            f"hypotheses not met: ind(c)={ind1}, ind(c^2)={ind2}, "
            f"alpha={alpha}, gamma={gamma}"
        )
    hypotheses = {"ind_c": ind1, "ind_c2": ind2, "alpha": alpha, "gamma": gamma, **met}
    conclusion_a = (
        gamma == Fraction((-1) ** (n - 1)) and alpha > 1 and ind2 == n + 1
    )
    l = len(arcs) - 1
    conclusion_b = (
        l >= 1
        and arcs[0] == n - 1
        and all(arcs[j] > arcs[j + 1] for j in range(l - 1))
        and arcs[l - 1] == 1
        and arcs[l] == 2
    )
    first_decrease = _first_decrease(p, horizon)
    return Prop33Report(
        hypotheses=hypotheses,
        conclusion_a=conclusion_a,
        conclusion_b=conclusion_b,
        conclusion_c=first_decrease is None,
        horizon=horizon,
        details={"first_decrease_at": first_decrease},
    )


def check_prop33(p: IndexProfile, horizon: int | None = None) -> Prop33Report:
    """Re-derive the staircase proposition's conclusions on one profile.

    Hypotheses (checked exactly): ind(c) = n - 1, ind(c^2) >= n, and
    alpha < 2|gamma|.  When they fail, HypothesesNotMet is raised: the
    profile is outside the proposition's scope, which is not a failure.

    Conclusions reported: (a) gamma = (-1)^{n-1}, alpha > 1 and
    ind(c^2) = n + 1; (b) arc values descend strictly from n - 1 to 1 and
    finish with I_c(-1) = 2; (c) the index sequence is non-decreasing up
    to the horizon (default: largest collision-free range, capped at 1000).
    A horizon below 1 raises PrecondViolation before the hypotheses are
    checked.
    """
    bad = validate_profile(p)
    if bad:
        raise PrecondViolation(f"invalid profile: {bad[0]}")
    if horizon is None:
        horizon = _collision_free_length(p, 1000)
    elif horizon < 1:
        raise PrecondViolation(f"horizon = {horizon} must be positive")
    return _staircase_report(
        p, average_index(p), gamma_invariant(p), bott_index(p, 1), bott_index(p, 2), horizon
    )


# Every average-relation kill reads it, and the table sum is slow beside a lookup.
@functools.cache
def average_relation_value(n: int) -> Fraction:
    """Right-hand side of the average-index relation: (2n-2)/n for even n,
    (2n-2)/(n+1) for odd n.

    For a single prime geodesic Rademacher's resonance identity reads
    gamma/alpha = B, the average Euler number, so alpha/|gamma| = 1/|B|.
    """
    return 1 / abs(average_euler_number(n))


def single_geodesic_pipeline(
    n: int, p: IndexProfile, horizon: int
) -> Union[ContradictionReport, str]:
    """Run the contradiction pipeline; return the first failing step with
    exact witnesses, or the explicit consistent-up-to-horizon verdict."""
    if horizon < 3:
        raise PrecondViolation(f"horizon = {horizon} must be >= 3")
    if n != p.n:
        raise PrecondViolation(f"n = {n} does not match the profile's n = {p.n}")
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

    bad = validate_profile(p)
    if bad:
        raise PrecondViolation(f"invalid profile: {bad[0]}")
    # The staircase hypotheses hold here: ind(c) = n - 1; ind(c^2) =
    # n - 1 + I_{l+1} >= n, as I_{l+1} >= 0 and ind(c^2) != n - 1; and
    # alpha < 2|gamma| by the relation.
    prop33 = _staircase_report(p, alpha, gamma, ind1, ind2, _collision_free_length(p, horizon))
    if not prop33.passed:
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

    # Degrees the first few iterates can reach; wide enough to expose the
    # early double hits without outrunning slowly-growing candidates.
    window = max(1, math.ceil(4 * alpha))
    w = count_w(bott_index_sequence(p, cutoff_for(n, alpha, window)), gamma, window)
    b = betti_table(n, window).ranks
    # w = b at every degree makes q vanish, so the step fails exactly on a
    # mismatch, and the recursion only fills the witness.
    mismatch = next((k for k in range(window + 1) if w[k] != b[k]), None)
    if mismatch is not None:
        report = morse_q_recursion(w, b)
        return ContradictionReport(
            candidate=p,
            failed_step="morse-feasibility",
            witness={
                "max_degree": window,
                "first_mismatch_degree": mismatch,
                "w_at_mismatch": w[mismatch],
                "b_at_mismatch": b[mismatch],
                "q_first_violation": report.first_violation,
                "q_at_violation": None
                if report.first_violation is None
                else report.q[report.first_violation],
            },
        )

    kill = _first_gap_kill(p, horizon)
    if kill is not None:
        m, ind_m, ind_m_plus_2 = kill
        return ContradictionReport(
            candidate=p,
            failed_step="gap-bound",
            witness={
                "m": m,
                "ind_m": ind_m,
                "ind_m_plus_2": ind_m_plus_2,
                "gap": ind_m_plus_2 - ind_m,
            },
        )

    check_jump_range(p.phases, horizon)
    # A jump of 2 * ind(c) = 4 (n = 3) clashes with nothing, so none is looked for.
    jumps = _jumps(p, horizon) if 2 * ind1 >= 6 else []
    if jumps:
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


def _placements(
    arcs: tuple[int, ...], r: int, alpha_target: Fraction, q: int, threshold: int
) -> Iterator[tuple[dict[int, int], int]]:
    """Candidate placements of the free phases j != r (there is at least
    one), in the order they are tried, as (numerator of each t_j, common
    denominator).

    First the offset grid: the consecutive numerators j >= _GRID_OFFSET
    for which j / q `reduces_above` the threshold.  Then an
    interior weight solution (the target as a convex combination of the
    arc values, every weight positive) whose phases are snapped to a grid
    fine enough to keep them apart, shifted by 0..5 grid steps; a snapped
    numerator that is a multiple of q or does not reduce above the
    threshold is bumped up until it is neither.  At a prime q above
    the threshold only the multiples of q are bumped, once each.
    """
    l = len(arcs) - 1
    free = [j for j in range(l) if j != r]
    offsets = (j for j in itertools.count(_GRID_OFFSET) if reduces_above(j, q, threshold))
    yield dict(zip(free, offsets)), q

    a = next(k for k, v in enumerate(arcs) if v < alpha_target)
    b = next(k for k, v in enumerate(arcs) if v > alpha_target)
    others = [k for k in range(l + 1) if k not in (a, b)]
    beta = Fraction(1, 4 * (l + 1) * (1 + max(arcs)))
    for _ in range(200):
        mass = 1 - beta * len(others)
        dot = alpha_target - beta * sum(arcs[k] for k in others)
        mu_b = (dot - mass * arcs[a]) / (arcs[b] - arcs[a])
        mu_a = mass - mu_b
        if mu_a > 0 and mu_b > 0:
            break
        beta /= 2
    else:
        return
    mu = [beta] * (l + 1)
    mu[a], mu[b] = mu_a, mu_b
    base: list[Fraction] = []
    acc = Fraction(0)
    for k in range(l):
        acc += mu[k]
        base.append(acc / 2)
    widths = [base[0]] + [base[k] - base[k - 1] for k in range(1, l)] + [HALF - base[-1]]
    fineness = Fraction(4 * (l + 2), q) / min(widths)
    grid = q * max(1, math.ceil(fineness))
    half_limit = (grid - 1) // 2
    for shift in range(6):
        numerators = {}
        prev = 0
        for j in free:
            pj = int(base[j] * grid + Fraction(1, 2)) + shift
            pj = max(prev + 1, min(pj, half_limit))
            while pj % q == 0 or not reduces_above(pj, grid, threshold):
                pj += 1
            if pj <= prev or pj > half_limit:
                break
            numerators[j] = pj
            prev = pj
        else:
            yield numerators, grid


def phase_instantiate(
    s: Signature,
    alpha_target: Fraction,
    q: int,
    horizon: int,
) -> Union[IndexProfile, PhaseInfeasible]:
    """Find phases realizing the target average index exactly, or certify
    that none exist within the admissible family.

    Admissible phases are strictly increasing interior rationals
    (`phases_in_order`) whose reduced denominators exceed 2*horizon + 1
    (`reduces_above`), so that no Bott sum up to the horizon can collide.
    A horizon below 1, or Q at most 2*horizon + 1, raises PrecondViolation:
    no placement on the grid 1/Q could then pass.  The average index
    is an all-positive-weight convex combination of the arc values, so a
    target is realizable iff it lies strictly inside the arc-value hull
    (or equals the forced value when the arcs are constant).  When a single
    arc jump carries the whole relation, it forces its phase to a rational
    value, which no bumpy metric realizes; that is certified infeasible.

    Otherwise the phase t_r of the last nonzero jump is solved exactly from
    the target, for each placement of the other phases in turn: the offset
    grid from _GRID_OFFSET / q, then a snapped interior weight solution
    shifted by 0..5.  Constant arcs leave every phase free; their
    candidates are l evenly spread multiples of 1/q, then, when there are
    l of them, the first l fractions j/q with j < q/2 whose reduced
    denominator exceeds the threshold.  Every candidate goes through the
    same admissibility check: the first admissible one is returned, and
    RuntimeError is raised when none is, so constant arcs raise it only
    when fewer than l such j/q exist.
    """
    if horizon < 1:
        raise PrecondViolation(f"horizon = {horizon} must be positive")
    threshold = 2 * horizon + 1
    if q <= threshold:
        raise PrecondViolation(f"Q = {q} must exceed 2*horizon + 1 = {threshold}")
    alpha_target = Fraction(alpha_target)
    arcs = s.arc_values
    l = len(arcs) - 1

    def infeasible(reason: str) -> PhaseInfeasible:
        return PhaseInfeasible(signature=s, alpha_target=alpha_target, reason=reason)

    diffs = [arcs[j] - arcs[j + 1] for j in range(l)]
    residual = (alpha_target - arcs[-1]) / 2  # = sum_j diffs[j] * t_j

    if all(d == 0 for d in diffs):
        if alpha_target != arcs[0]:
            return infeasible(f"average index is forced to I_1 = {arcs[0]}")
        low = tuple(itertools.islice(
            (Fraction(j, q) for j in range(1, (q + 1) // 2) if reduces_above(j, q, threshold)), l
        ))
        candidates = [_spread_phases(l, q)] + ([low] if len(low) == l else [])
    else:
        lo, hi = min(arcs), max(arcs)
        if not (lo < alpha_target < hi):
            return infeasible(
                f"target {alpha_target} outside the open hull ({lo}, {hi}) of the arc values"
            )

        nonzero = [j for j in range(l) if diffs[j] != 0]
        if len(nonzero) == 1:
            # alpha = I_{l+1} + 2 d_r t_r, so a target inside the hull puts t_r
            # in (0, 1/2).  A rational t_r makes e(t_r) a root of unity: some
            # iterate is degenerate, so no bumpy metric has this profile, at any
            # horizon.
            r = nonzero[0]
            t_r = residual / diffs[r]
            return infeasible(
                f"forced phase t_{r + 1} = {t_r} is rational, so e(t_{r + 1}) is a "
                "root of unity and some iterate is degenerate"
            )

        r = nonzero[-1]

        def solved():
            for numerators, grid in _placements(arcs, r, alpha_target, q, threshold):
                fixed_sum = sum(Fraction(diffs[j] * numerators[j], grid) for j in numerators)
                t_r = (residual - fixed_sum) / diffs[r]
                yield [Fraction(numerators[j], grid) if j != r else t_r for j in range(l)]

        candidates = solved()

    for phases in candidates:
        if phases_in_order(phases) and all(
            reduces_above(t.numerator, t.denominator, threshold) for t in phases
        ):
            profile = IndexProfile(s.n, arcs, phases, s.nullities)
            assert average_index(profile) == alpha_target
            return profile
    raise RuntimeError(
        f"no admissible phases were constructed for target {alpha_target}; "
        "not an infeasibility certificate"
    )


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
    counts for all of the sequence's nullity splits.  Two classes are
    counted in closed form, without walking their sequences: signatures
    with the wrong prime index, and those with I_1 = n - 1 whose arc values
    all stay >= 2.  Such a signature's average index lies in the open hull
    (min I, max I), or is forced to n - 1 when the arcs are constant, so it
    is >= 2; both allowed targets, relation and relation/2, are < 2.  So it
    gets the class certificate and two phase-infeasible certificates, just
    as phase_instantiate would find.  Of the walked sequences, which dip to
    a value <= 1, skeletons whose second iterate lands back on degree n-1
    die outright; every other one gets one exact certificate for every
    profile whose average index differs from the value the relation forces
    for its parity invariant, and then representative instantiations at
    the allowed targets (both parity magnitudes; the mismatched one dies
    in-pipeline) run through the full pipeline.
    """
    if not 3 <= n <= 8:
        raise PrecondViolation(f"3 <= n <= 8 required, got n = {n}")
    if not _is_prime(q):
        raise PrecondViolation(f"Q = {q} must be prime")
    if q <= 2 * horizon + 1:
        raise PrecondViolation(
            f"Q = {q} must exceed 2*horizon + 1 = {2 * horizon + 1}"
        )
    if horizon < 3:
        raise PrecondViolation(f"horizon = {horizon} must be >= 3")
    relation = average_relation_value(n)
    budget = n - 1
    by_step = {step: 0 for step in STEP_IDS}
    by_step["index-of-prime"] = _count_wrong_prime_index(n)
    # The hull certificate above: sequences that never dip below 2 reach
    # neither target.
    above_one = _count_signatures(n, (n - 1,), floor=2)
    by_step["average-relation"] += above_one
    by_step["phase-infeasible"] += 2 * above_one
    survivors: list = []
    prop33_checked = 0
    prop33_failures: list = []

    for arcs in _arc_sequences(n, first=n - 1, dip=1):
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
            verdict = single_geodesic_pipeline(n, outcome, horizon)
            survived = verdict == CONSISTENT
            step = CONSISTENT if survived else verdict.failed_step
            failed33 = None
            if step not in _EARLY_STEPS:
                # Past the relation the pipeline has checked the staircase
                # proposition; it fails only at its own step.
                prop33_checked += splits
                if step == "prop33-hypotheses":
                    failed33 = check_prop33(outcome, _collision_free_length(outcome, horizon))
            if not survived:
                by_step[step] += splits
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
