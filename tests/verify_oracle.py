"""Per-signature reference for `verify_theorem`, kept for the tests.

`naive_verify` walks every signature of `enumerate_signatures(n)` one by
one and runs each through the search on its own: no closed-form counts,
no sharing between the nullity splits of one arc sequence, and its own
check_prop33 call beside the pipeline's.  This is the oracle the
per-arc-sequence search in `bottiter.verifier` is checked against.
"""

from __future__ import annotations

from fractions import Fraction

from bottiter import (
    CONSISTENT,
    HypothesesNotMet,
    PhaseInfeasible,
    VerificationSummary,
    check_prop33,
    enumerate_signatures,
    phase_instantiate,
    single_geodesic_pipeline,
)
from bottiter.verifier import STEP_IDS, average_relation_value


def naive_verify(n: int, horizon: int, q: int) -> VerificationSummary:
    """The summary of `verify_theorem(n, horizon, q)`, one signature at a time."""
    relation = average_relation_value(n)
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
            profile = phase_instantiate(s, relation * magnitude, q, horizon=horizon)
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
