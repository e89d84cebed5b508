"""Frozen references for `bottiter.verifier`, kept for the tests.

`single_geodesic_pipeline` and `check_prop33` below are the pipeline and
the staircase check as they stood before the pipeline read one shared Bott
sequence: every step asks the library for what it needs on its own, the
Morse step through `aggregate_w` and the jump step through `jump_search`.

`naive_verify` walks every signature of `enumerate_signatures(n)` one by
one and runs each through the search on its own: no closed-form counts,
no sharing between the nullity splits of one arc sequence, and its own
check_prop33 call beside the pipeline's.  This is the oracle the
per-arc-sequence search in `bottiter.verifier` is checked against.  It
takes the average-index relation from its closed form, and it checks every
profile `phase_instantiate` hands back with its own sum before using it,
so a wrong relation or a bad instantiation cannot shift it together with
the code it checks.  Its `check_prop33` refuses a horizon below 1 up front,
as the library does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from bottiter import (
    CONSISTENT,
    ContradictionReport,
    HypothesesNotMet,
    IndexProfile,
    PhaseInfeasible,
    PrecondViolation,
    Prop33Report,
    VerificationSummary,
    aggregate_w,
    average_index,
    betti_number,
    bott_index,
    bott_index_sequence,
    enumerate_signatures,
    gamma_invariant,
    jump_search,
    morse_q_recursion,
    phase_instantiate,
    validate_profile,
)
from bottiter.verifier import STEP_IDS


def relation_value(n: int) -> Fraction:
    """alpha/|gamma| required of a single geodesic: (2n-2)/n for even n,
    (2n-2)/(n+1) for odd n.  Like the Betti numbers, it needs n >= 3."""
    if n < 3:
        raise ValueError(f"n = {n} must be >= 3")
    return Fraction(2 * n - 2, n if n % 2 == 0 else n + 1)


def checked_instantiate(s, target: Fraction, q: int, horizon: int):
    """`phase_instantiate`'s answer, after checking a profile against the
    target: valid, average index I_{l+1} + 2 sum_j (I_j - I_{j+1}) t_j equal
    to the target, and every phase denominator above 2H+1."""
    profile = phase_instantiate(s, target, q, horizon=horizon)
    if isinstance(profile, PhaseInfeasible):
        return profile
    arcs, phases = profile.arc_values, profile.phases
    assert validate_profile(profile) == [], profile
    average = arcs[-1] + 2 * sum((arcs[j] - arcs[j + 1]) * t for j, t in enumerate(phases))
    assert average == target, (profile, target)
    assert all(t.denominator > 2 * horizon + 1 for t in phases), profile
    return profile


def _safe_prop33_horizon(p: IndexProfile, cap: int) -> int:
    if not p.phases:
        return cap
    return min(cap, min(t.denominator for t in p.phases) - 1)


def check_prop33(p: IndexProfile, horizon: int | None = None) -> Prop33Report:
    bad = validate_profile(p)
    if bad:
        raise PrecondViolation(f"invalid profile: {bad[0]}")
    if horizon is not None and horizon < 1:
        raise PrecondViolation(f"horizon = {horizon} must be positive")
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


def prop33_report(p: IndexProfile, horizon: int) -> Prop33Report | None:
    """check_prop33 at the pipeline's horizon; None when out of scope."""
    try:
        return check_prop33(p, horizon=_safe_prop33_horizon(p, horizon))
    except HypothesesNotMet:
        return None


def single_geodesic_pipeline(
    n: int, p: IndexProfile, horizon: int
) -> Union[ContradictionReport, str]:
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
                "required_value": str(relation_value(n)),
            },
        )

    prop33 = prop33_report(p, horizon)
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

    window = max(1, math.ceil(4 * alpha))
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


def naive_verify(n: int, horizon: int, q: int) -> VerificationSummary:
    """The summary of `verify_theorem(n, horizon, q)`, one signature at a time."""
    relation = relation_value(n)
    by_step = {step: 0 for step in STEP_IDS}
    survivors: list = []
    prop33_checked = 0
    prop33_failures: list = []

    for s in enumerate_signatures(n):
        if s.arc_values[0] != n - 1:
            by_step["index-of-prime"] += 1
            continue
        if s.arc_values[-1] == 0:
            by_step["second-iterate"] += 1
            continue
        by_step["average-relation"] += 1  # the class certificate
        for magnitude in (Fraction(1), Fraction(1, 2)):
            profile = checked_instantiate(s, relation * magnitude, q, horizon)
            if isinstance(profile, PhaseInfeasible):
                by_step["phase-infeasible"] += 1
                continue
            try:
                rep33 = check_prop33(profile, horizon=horizon)
                prop33_checked += 1
                if not rep33.passed:
                    prop33_failures.append((profile, rep33))
            except HypothesesNotMet:
                pass
            verdict = single_geodesic_pipeline(n, profile, horizon)
            if verdict == CONSISTENT:
                survivors.append(profile.to_document())
            else:
                by_step[verdict.failed_step] += 1

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
