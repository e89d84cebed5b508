"""Signature enumeration, phase instantiation, pipeline, theorem search."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from bottiter import (
    CONSISTENT,
    ContradictionReport,
    HypothesesNotMet,
    IndexProfile,
    PhaseInfeasible,
    PrecondViolation,
    Signature,
    average_index,
    bott_index,
    bott_index_sequence,
    betti_number,
    check_prop33,
    enumerate_signatures,
    extremal_profile,
    gamma_invariant,
    phase_instantiate,
    profile_from_document,
    single_geodesic_pipeline,
    validate_profile,
    validate_signature,
    verify_theorem,
)
from bottiter.morse import aggregate_w, morse_q_recursion
from bottiter.verifier import (
    _arc_sequences,
    _count_wrong_prime_index,
    _jump_costs,
    _null_splits,
    _split_count,
    average_relation_value,
)

import bottiter.verifier
import verify_oracle
from verify_oracle import naive_verify


class TestExtremalProfile:
    def test_running_shape(self, running_profile):
        p = extremal_profile(4, ("10/97", "13/97", "31/97"))
        assert p == running_profile

    def test_n3(self):
        p = extremal_profile(3, ("10/97", "31/97"))
        assert p.arc_values == (2, 1, 2)
        assert p.nullities == (1, 1)

    def test_rejects_unordered_phases(self):
        with pytest.raises(PrecondViolation):
            extremal_profile(3, ("31/97", "10/97"))

    def test_rejects_wrong_length(self):
        with pytest.raises(PrecondViolation):
            extremal_profile(5, ("10/97", "13/97"))

    def test_always_valid(self):
        for n in range(3, 9):
            phases = [Fraction(3 + 2 * j, 997) for j in range(n - 1)]
            assert validate_profile(extremal_profile(n, phases)) == []


class TestCheckProp33:
    def test_running_profile_all_conclusions(self, running_profile):
        report = check_prop33(running_profile)
        assert report.horizon == 96
        assert report.passed
        assert report.conclusion_a and report.conclusion_b and report.conclusion_c

    def test_constant_profile_out_of_scope(self):
        for n in (3, 4, 5):
            with pytest.raises(HypothesesNotMet):
                check_prop33(IndexProfile(n, (n - 1,)))

    def test_flat_profile_out_of_scope(self, flat_profile):
        # alpha = 2 equals 2|gamma|; the strict inequality fails.
        with pytest.raises(HypothesesNotMet):
            check_prop33(flat_profile)

    def test_monotonicity_on_random_staircases(self):
        # Any profile satisfying the hypotheses must have a non-decreasing
        # index sequence up to every collision-free horizon.
        rng = random.Random(17)
        seen = 0
        while seen < 25:
            n = rng.randint(3, 6)
            numerators = sorted(rng.sample(range(1, 498), n - 1))
            p = extremal_profile(n, [Fraction(a, 997) for a in numerators])
            try:
                report = check_prop33(p, horizon=500)
            except HypothesesNotMet:
                continue
            seen += 1
            assert report.conclusion_c, report.details
            seq = bott_index_sequence(p, 500)
            assert all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))


class TestEnumerateSignatures:
    def test_bounds(self):
        with pytest.raises(PrecondViolation):
            list(enumerate_signatures(2))
        with pytest.raises(PrecondViolation):
            list(enumerate_signatures(9))

    def test_n3_regression_count(self):
        assert len(list(enumerate_signatures(3))) == 72

    def test_contains_expected(self):
        sigs = set(
            (s.arc_values, s.nullities) for s in enumerate_signatures(3)
        )
        assert ((2, 1, 2), (1, 1)) in sigs
        assert ((2,), ()) in sigs
        assert ((2, 0, 2), (1, 1)) not in sigs
        assert ((2, 0), (2,)) in sigs

    def test_all_pass_phase_free_validation(self):
        for n in (3, 4):
            for s in enumerate_signatures(n):
                assert validate_signature(s) == []

    def test_deterministic_and_duplicate_free(self):
        first = list(enumerate_signatures(4))
        second = list(enumerate_signatures(4))
        assert first == second
        assert len(set(first)) == len(first)

    def test_brute_force_equivalence_n3(self):
        # Independent regeneration: unfiltered product + explicit filters.
        n, vmax, budget = 3, 4, 2
        expected = set()
        for l in range(n):
            for arcs in itertools.product(range(vmax + 1), repeat=l + 1):
                for nulls in itertools.product(range(1, budget + 1), repeat=l):
                    if sum(nulls) > budget:
                        continue
                    if any(abs(arcs[j] - arcs[j + 1]) > nulls[j] for j in range(l)):
                        continue
                    expected.add((arcs, nulls))
        produced = set((s.arc_values, s.nullities) for s in enumerate_signatures(3))
        assert produced == expected

    @pytest.mark.parametrize("n", range(3, 8))
    def test_closed_form_counts(self, n):
        # verify_theorem generates only arc sequences with I_1 = n - 1 and
        # counts the rest; together they must cover the enumeration.
        signatures = list(enumerate_signatures(n))
        wrong = sum(1 for s in signatures if s.arc_values[0] != n - 1)
        assert _count_wrong_prime_index(n) == wrong
        generated = 0
        for arcs in _arc_sequences(n, first=n - 1):
            mins = _jump_costs(arcs)
            count = _split_count(len(mins), sum(mins), n - 1)
            assert count == len(list(_null_splits(mins, n - 1)))
            generated += count
        assert generated + wrong == len(signatures)


class TestPhaseInstantiate:
    def test_extremal_target_hit_exactly(self):
        s = Signature(4, (3, 2, 1, 2), (1, 1, 1))
        profile = phase_instantiate(s, Fraction(178, 97), 9973)
        assert isinstance(profile, IndexProfile)
        assert average_index(profile) == Fraction(178, 97)
        assert validate_profile(profile) == []
        assert all(t.denominator >= 9973 for t in profile.phases)

    def test_constant_forced(self):
        s = Signature(3, (2,), ())
        outcome = phase_instantiate(s, Fraction(1), 499)
        assert isinstance(outcome, PhaseInfeasible)
        assert "forced" in outcome.reason
        profile = phase_instantiate(s, Fraction(2), 499)
        assert isinstance(profile, IndexProfile)

    def test_negative_target(self):
        s = Signature(4, (3, 2, 1, 2), (1, 1, 1))
        outcome = phase_instantiate(s, Fraction(-1), 499)
        assert isinstance(outcome, PhaseInfeasible)
        assert "hull" in outcome.reason

    def test_hull_boundary_infeasible(self):
        s = Signature(3, (2, 1, 2), (1, 1))
        # min arc value is 1; on the open simplex the average never reaches it.
        outcome = phase_instantiate(s, Fraction(1), 499)
        assert isinstance(outcome, PhaseInfeasible)

    def test_flat_spread(self):
        s = Signature(4, (3, 3, 3), (1, 1))
        profile = phase_instantiate(s, Fraction(3), 499)
        assert isinstance(profile, IndexProfile)
        assert average_index(profile) == 3
        assert validate_profile(profile) == []

    def test_forced_single_phase_unsafe_denominator(self):
        s = Signature(3, (2, 0), (2,))
        outcome = phase_instantiate(s, Fraction(1), 499, horizon=200)
        assert isinstance(outcome, PhaseInfeasible)
        assert "collision-safe" in outcome.reason

    def test_instantiated_targets_across_space(self):
        # Every successful instantiation is valid, hits the target exactly,
        # and carries only collision-safe denominators.
        for n in (3, 4, 5):
            relation = average_relation_value(n)
            for s in enumerate_signatures(n):
                for magnitude in (Fraction(1), Fraction(1, 2)):
                    outcome = phase_instantiate(s, relation * magnitude, 499, horizon=200)
                    if isinstance(outcome, IndexProfile):
                        assert validate_profile(outcome) == []
                        assert average_index(outcome) == relation * magnitude
                        assert all(t.denominator > 401 for t in outcome.phases)


class TestPipeline:
    def test_running_profile_dies_at_morse(self, running_profile):
        verdict = single_geodesic_pipeline(4, running_profile, 96)
        assert verdict.failed_step == "morse-feasibility"
        assert verdict.witness["first_mismatch_degree"] == 7
        assert verdict.witness["w_at_mismatch"] == 2
        assert verdict.witness["b_at_mismatch"] == 1
        assert verdict.witness["q_first_violation"] == 8
        assert verdict.witness["q_at_violation"] == -1

    def test_constant_profile_dies_at_average_relation(self):
        verdict = single_geodesic_pipeline(3, IndexProfile(3, (2,)), 200)
        assert verdict.failed_step == "average-relation"
        assert verdict.witness["alpha_over_abs_gamma"] == "2"

    def test_wrong_prime_index(self):
        p = IndexProfile(4, (2, 1, 2), ("10/97", "31/97"), (1, 1))
        verdict = single_geodesic_pipeline(4, p, 96)
        assert verdict.failed_step == "index-of-prime"
        assert verdict.witness == {"ind_c": 2, "required": 3}

    def test_second_iterate_kill(self):
        p = IndexProfile(3, (2, 1, 0), ("10/97", "31/97"), (1, 1))
        verdict = single_geodesic_pipeline(3, p, 96)
        assert verdict.failed_step == "second-iterate"

    def test_deterministic(self, running_profile):
        a = single_geodesic_pipeline(4, running_profile, 96)
        b = single_geodesic_pipeline(4, running_profile, 96)
        assert a == b


def _recheck_witness(report, n: int, horizon: int) -> None:
    """Independent recomputation of every reported violation."""
    candidate = report.candidate
    step = report.failed_step
    witness = report.witness
    if step == "index-of-prime":
        assert candidate.arc_values[0] != n - 1
    elif step == "second-iterate":
        if isinstance(candidate, IndexProfile):
            assert bott_index(candidate, 2) == n - 1
        else:
            assert candidate.arc_values[0] + candidate.arc_values[-1] == n - 1
        assert witness["betti_at_n_minus_1"] == betti_number(n, n - 1)
    elif step == "average-relation":
        if isinstance(candidate, IndexProfile):
            ratio = average_index(candidate) / abs(gamma_invariant(candidate))
            ok = ratio == 1 if n == 3 else 1 < ratio < 2
            assert not ok
        else:
            required = Fraction(witness["required_alpha"])
            assert required == average_relation_value(n) * abs(candidate.gamma())
    elif step == "morse-feasibility":
        assert isinstance(candidate, IndexProfile)
        window = witness["max_degree"]
        w = aggregate_w(candidate, window)
        b = [betti_number(n, k) for k in range(window + 1)]
        rep = morse_q_recursion(w, b)
        k = witness["first_mismatch_degree"]
        if k is not None:
            assert w[k] != b[k]
            assert (witness["w_at_mismatch"], witness["b_at_mismatch"]) == (w[k], b[k])
        if witness["q_first_violation"] is not None:
            assert rep.q[witness["q_first_violation"]] == witness["q_at_violation"] < 0
    elif step == "gap-bound":
        m = witness["m"]
        assert bott_index(candidate, m + 2) - bott_index(candidate, m) == witness["gap"] > 4
    elif step == "jump-clash":
        k = witness["k"]
        jump = bott_index(candidate, 2 * k + 1) - bott_index(candidate, 2 * k - 1)
        assert jump == witness["jump"] == 2 * bott_index(candidate, 1) >= 6
    elif step == "phase-infeasible":
        outcome = phase_instantiate(
            candidate, Fraction(witness["alpha_target"]), 499, horizon=horizon
        )
        assert isinstance(outcome, PhaseInfeasible)
    else:
        raise AssertionError(f"unexpected step {step}")


class TestVerifyTheorem:
    def test_n3_histogram_regression(self):
        summary = verify_theorem(3, 200, 499)
        assert summary.survivors == []
        assert summary.candidates == summary.contradicted == 104
        assert summary.by_step == {
            "index-of-prime": 54,
            "second-iterate": 2,
            "average-relation": 16,
            "prop33-hypotheses": 0,
            "morse-feasibility": 0,
            "gap-bound": 0,
            "jump-clash": 0,
            "phase-infeasible": 32,
        }

    def test_n4_exercises_jump_clash(self):
        summary = verify_theorem(4, 200, 499)
        assert summary.survivors == []
        assert summary.by_step["jump-clash"] >= 1
        assert summary.by_step["gap-bound"] >= 1
        assert summary.prop33_failures == []
        assert summary.prop33_checked == 2

    @pytest.mark.parametrize(
        "n, horizon, q, survivors",
        [
            (3, 200, 499, 0),
            (4, 200, 499, 0),
            (5, 200, 499, 0),
            (6, 200, 499, 0),
            (6, 200, 601, 1),
            (6, 200, 1009, 5),
            (4, 10000, 32083, 2),
        ],
    )
    def test_matches_per_signature_oracle(self, n, horizon, q, survivors):
        # The survivor cases pin the order in which survivors are listed.
        fast = verify_theorem(n, horizon, q)
        slow = naive_verify(n, horizon, q)
        assert fast.to_dict() == slow.to_dict()
        assert fast.prop33_checked == slow.prop33_checked
        assert fast.prop33_failures == slow.prop33_failures
        assert len(fast.survivors) == survivors

    def test_listing_order_over_nullity_splits(self, monkeypatch):
        # Real survivors use the whole nullity budget, so each has a single
        # split.  Let every instantiated profile survive and fail the
        # staircase proposition, so that sequences with several splits are
        # listed too, and compare both lists with the oracle.
        real = bottiter.verifier.check_prop33

        def failing(p, horizon=None):
            return dataclasses.replace(real(p, horizon), conclusion_c=False)

        def consistent(n, p, horizon, morse_window=None, **unused):
            return CONSISTENT

        for module in (bottiter.verifier, verify_oracle):
            monkeypatch.setattr(module, "check_prop33", failing)
            monkeypatch.setattr(module, "single_geodesic_pipeline", consistent)
        fast = verify_theorem(5, 200, 499)
        slow = naive_verify(5, 200, 499)
        assert fast.to_dict() == slow.to_dict()
        assert fast.prop33_failures == slow.prop33_failures
        listed = {profile_from_document(doc).arc_values for doc in fast.survivors}
        assert len(fast.survivors) > len(listed)
        assert fast.prop33_failures

    def test_preconditions(self):
        with pytest.raises(PrecondViolation):
            verify_theorem(4, 200, 400)  # Q <= 2*horizon + 1
        with pytest.raises(PrecondViolation):
            verify_theorem(4, 200, 501)  # not prime
        with pytest.raises(PrecondViolation):
            verify_theorem(9, 200, 499)

    def test_deterministic_summary(self):
        a = verify_theorem(3, 100, 499)
        b = verify_theorem(3, 100, 499)
        assert a.to_dict() == b.to_dict()

    def test_witness_soundness(self):
        # Every report the n=4 run emits must recheck from scratch.
        relation = average_relation_value(4)
        for s in enumerate_signatures(4):
            if s.arc_values[0] != 3 or s.arc_values[-1] == 0:
                continue
            for magnitude in (Fraction(1), Fraction(1, 2)):
                outcome = phase_instantiate(s, relation * magnitude, 499, horizon=200)
                if isinstance(outcome, IndexProfile):
                    verdict = single_geodesic_pipeline(4, outcome, 200)
                    assert verdict != CONSISTENT
                    _recheck_witness(verdict, 4, 200)
                else:
                    report = ContradictionReport(
                        candidate=s,
                        failed_step="phase-infeasible",
                        witness={
                            "alpha_target": str(relation * magnitude),
                            "reason": outcome.reason,
                        },
                    )
                    _recheck_witness(report, 4, 200)
