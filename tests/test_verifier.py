"""Signature enumeration, phase instantiation, pipeline, theorem search."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bottiter import (
    CONSISTENT,
    ContradictionReport,
    HypothesesNotMet,
    IndexProfile,
    PhaseInfeasible,
    PrecondViolation,
    Prop33Report,
    Signature,
    average_euler_number,
    average_index,
    bott_index,
    bott_index_sequence,
    betti_number,
    check_prop33,
    enumerate_signatures,
    extremal_profile,
    gamma_invariant,
    phase_instantiate,
    poincare_coefficients,
    profile_from_document,
    single_geodesic_pipeline,
    validate_profile,
    validate_signature,
    verify_theorem,
)
from bottiter.morse import aggregate_w, cutoff_for, morse_q_recursion
from bottiter.verifier import (
    _arc_sequences,
    _count_signatures,
    _count_wrong_prime_index,
    _jump_costs,
    _null_splits,
    _split_count,
    STEP_IDS,
    average_relation_value,
)

import bottiter.kernel
import bottiter.verifier
import verify_oracle
from conftest import make_random_profile
from verify_oracle import naive_verify

EXPECTED_SUMMARIES = Path(__file__).resolve().parents[1] / "perfbench" / "expected_default.json"


class TestExtremalProfile:
    def test_running_shape(self, running_profile):
        p = extremal_profile(4, ("10/97", "13/97", "31/97"))
        assert p == running_profile

    def test_n3(self):
        p = extremal_profile(3, ("10/97", "31/97"))
        assert p.arc_values == (2, 1, 2)
        assert p.nullities == (1, 1)

    def test_rejects_unordered_phases(self):
        with pytest.raises(PrecondViolation) as info:
            extremal_profile(3, ("31/97", "10/97"))
        assert str(info.value) == "phases not strictly increasing at t_1=31/97, t_2=10/97"

    def test_rejects_low_dimension(self):
        with pytest.raises(PrecondViolation) as info:
            extremal_profile(2, ("1/5",))
        assert str(info.value) == "n = 2 must be >= 3"

    def test_raises_the_first_phase_rule_violation(self):
        # The range of every phase is checked before their order.
        for phases, message in (
            (("10/97", "1/2"), "phase t_2 = 1/2 outside the open interval (0, 1/2)"),
            (("31/97", "10/97", "0"), "phase t_3 = 0 outside the open interval (0, 1/2)"),
        ):
            with pytest.raises(PrecondViolation) as info:
                extremal_profile(len(phases) + 1, phases)
            assert str(info.value) == message

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

    @pytest.mark.parametrize(
        "signature, violations",
        [
            (Signature(3, (), ()), ["empty arc_values"]),
            (Signature(3, (2, 1), ()), ["0 nullities for 2 arc values"]),
            (Signature(3, (-1,), ()), ["arc value I_1 = -1 outside 0..2(n - 1) = 0..4"]),
            (Signature(3, (4, 5), (1,)), ["arc value I_2 = 5 outside 0..2(n - 1) = 0..4"]),
            (Signature(3, (2, 2), (0,)), ["nullity N_1 = 0 is not positive"]),
            (
                Signature(3, (1, 1, 1, 1), (1, 1, 1)),
                ["l = 3 exceeds n - 1 = 2", "sum of nullities 3 exceeds n - 1 = 2"],
            ),
            (Signature(3, (2, 2), (3,)), ["sum of nullities 3 exceeds n - 1 = 2"]),
            (Signature(3, (2, 0), (1,)), ["|I_1 - I_2| = 2 exceeds N_1 = 1"]),
            (
                Signature(3, (-1, 2), (2,)),
                ["arc value I_1 = -1 outside 0..2(n - 1) = 0..4", "|I_1 - I_2| = 3 exceeds N_1 = 2"],
            ),
        ],
        ids=["empty", "nullity-count", "negative-arc", "arc-above-bound", "nullity", "l",
             "nullity-sum", "jump", "arc-then-jump"],
    )
    def test_each_violation_message(self, signature, violations):
        assert validate_signature(signature) == violations

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

    @pytest.mark.parametrize("n", range(3, 9))
    def test_closed_form_counts(self, n):
        # verify_theorem walks only the arc sequences with I_1 = n - 1 that
        # dip to a value <= 1, and counts the rest; the three parts must
        # cover the enumeration.
        total = wrong = 0
        for s in enumerate_signatures(n):
            total += 1
            wrong += s.arc_values[0] != n - 1
        assert _count_wrong_prime_index(n) == wrong
        above_one = _count_signatures(n, (n - 1,), floor=2)
        walked = list(_arc_sequences(n, first=n - 1, dip=1))
        assert walked == [a for a in _arc_sequences(n, first=n - 1) if min(a) <= 1]
        generated = 0
        for arcs in walked:
            mins = _jump_costs(arcs)
            count = _split_count(len(mins), sum(mins), n - 1)
            assert count == len(list(_null_splits(mins, n - 1)))
            generated += count
        assert wrong + above_one + generated == total

    @pytest.mark.parametrize("n", range(3, 9))
    def test_skipped_sequences_are_phase_infeasible(self, n):
        # The sequences the walk skips are counted as infeasible at both
        # magnitudes; phase_instantiate must agree, at both scales.
        walked = set(_arc_sequences(n, first=n - 1, dip=1))
        skipped = [a for a in _arc_sequences(n, first=n - 1) if a not in walked]
        assert skipped
        relation = average_relation_value(n)
        for arcs in skipped:
            s = Signature(n, arcs, _jump_costs(arcs))
            for horizon, q in ((200, 499), (10000, 20011)):
                for magnitude in (Fraction(1), Fraction(1, 2)):
                    outcome = phase_instantiate(s, relation * magnitude, q, horizon=horizon)
                    assert isinstance(outcome, PhaseInfeasible), (arcs, horizon, magnitude)


class TestPhaseInstantiate:
    # A test with no scale of its own passes horizon (q - 2) // 2, written
    # None in a parametrized case: the largest with 2*horizon + 1 < q, so
    # the threshold nearest to q - 1.

    def test_extremal_target_hit_exactly(self):
        s = Signature(4, (3, 2, 1, 2), (1, 1, 1))
        profile = phase_instantiate(s, Fraction(178, 97), 9973, 4985)
        assert isinstance(profile, IndexProfile)
        assert average_index(profile) == Fraction(178, 97)
        assert validate_profile(profile) == []
        assert all(t.denominator >= 9973 for t in profile.phases)

    def test_constant_forced(self):
        s = Signature(3, (2,), ())
        outcome = phase_instantiate(s, Fraction(1), 499, 248)
        assert isinstance(outcome, PhaseInfeasible)
        assert "forced" in outcome.reason
        profile = phase_instantiate(s, Fraction(2), 499, 248)
        assert isinstance(profile, IndexProfile)

    def test_negative_target(self):
        s = Signature(4, (3, 2, 1, 2), (1, 1, 1))
        outcome = phase_instantiate(s, Fraction(-1), 499, 248)
        assert isinstance(outcome, PhaseInfeasible)
        assert "hull" in outcome.reason

    def test_hull_boundary_infeasible(self):
        s = Signature(3, (2, 1, 2), (1, 1))
        # min arc value is 1; on the open simplex the average never reaches it.
        outcome = phase_instantiate(s, Fraction(1), 499, 248)
        assert isinstance(outcome, PhaseInfeasible)

    def test_flat_spread(self):
        s = Signature(4, (3, 3, 3), (1, 1))
        profile = phase_instantiate(s, Fraction(3), 499, 248)
        assert isinstance(profile, IndexProfile)
        assert average_index(profile) == 3
        assert validate_profile(profile) == []

    @pytest.mark.parametrize(
        "arcs,q,horizon",
        [((2, 2, 2), 35, None), ((2, 2, 2), 35, 10), ((3, 3, 3, 3), 45, None),
         ((2, 2, 2), 6, None)],
    )
    def test_flat_spread_at_composite_q(self, arcs, q, horizon):
        # The evenly spread multiples of 1/q reduce (5/35 = 1/7, 15/45 = 1/3),
        # so the first multiples j/q < 1/2 that keep the denominator q are
        # used.  At q = 6 only 1/6 does, and two phases are needed.
        numerators = {35: (1, 2), 45: (1, 2, 4), 6: None}[q]
        if horizon is None:
            horizon = (q - 2) // 2
        s = Signature(len(arcs), arcs, (1,) * (len(arcs) - 1))
        if numerators is None:
            with pytest.raises(RuntimeError, match="no admissible phases") as refused:
                phase_instantiate(s, Fraction(arcs[0]), q, horizon=horizon)
            assert "hull" not in str(refused.value)
            return
        profile = phase_instantiate(s, Fraction(arcs[0]), q, horizon=horizon)
        assert profile.phases == tuple(Fraction(j, q) for j in numerators)
        assert validate_profile(profile) == []

    def test_flat_spread_at_prime_q(self):
        s = Signature(4, (3, 3, 3, 3), (1, 1, 1))
        for horizon in (22, 20):
            profile = phase_instantiate(s, Fraction(3), 47, horizon=horizon)
            assert profile.phases == (Fraction(5, 47), Fraction(10, 47), Fraction(15, 47))

    def test_forced_single_phase_unsafe_denominator(self):
        # The relation forces t_1 = 1/4, a rational phase: infeasible at
        # every horizon, not only where 4 <= 2*horizon + 1.
        s = Signature(3, (2, 0), (2,))
        for horizon in (1, 3, 200, 248):
            outcome = phase_instantiate(s, Fraction(1), 499, horizon=horizon)
            assert isinstance(outcome, PhaseInfeasible)
            assert "forced phase t_1 = 1/4 is rational" in outcome.reason
        # With one nonzero jump d_r, alpha = I_{l+1} + 2 d_r t_r, so every
        # target strictly inside the hull forces an interior rational t_r.
        checked = 0
        for n in range(3, 7):
            for arcs in _arc_sequences(n):
                diffs = [a - b for a, b in zip(arcs, arcs[1:])]
                nonzero = [j for j, d in enumerate(diffs) if d]
                if len(nonzero) != 1:
                    continue
                (r,) = nonzero
                s = Signature(n, arcs, _jump_costs(arcs))
                lo, hi = min(arcs), max(arcs)
                for i in range(1, 8):
                    target = lo + Fraction(i * (hi - lo), 8)
                    t_r = (target - arcs[-1]) / (2 * diffs[r])
                    assert 0 < t_r < Fraction(1, 2)
                    outcome = phase_instantiate(s, target, 499, horizon=200)
                    assert isinstance(outcome, PhaseInfeasible), (arcs, target)
                    assert f"forced phase t_{r + 1} = {t_r} is rational" in outcome.reason
                    checked += 1
        assert checked

    def test_composite_grid_keeps_every_denominator_above_threshold(self):
        # On Q = 441 = 3^2 * 7^2 the grid points 3/441 and 6/441 reduce to
        # 1/147 and 2/147: every phase is checked, not only the solved one.
        relation = average_relation_value(5)
        instantiated = 0
        for s in enumerate_signatures(5):
            if s.arc_values[0] != 4:
                continue
            for magnitude in (Fraction(1), Fraction(1, 2)):
                outcome = phase_instantiate(s, relation * magnitude, 441, horizon=200)
                if isinstance(outcome, IndexProfile):
                    instantiated += 1
                    assert all(t.denominator > 401 for t in outcome.phases), outcome
        assert instantiated

    def test_composite_snapped_placement_keeps_denominators_above_threshold(self):
        # At Q = 405 = 3^4 * 5 the offset grid fails, and the snapped
        # numerators are bumped past those reducing to a denominator <= 401.
        s = Signature(5, (4, 3, 1, 1), (1, 2, 1))
        profile = phase_instantiate(s, Fraction(4, 3), 405, horizon=200)
        assert profile.phases == (Fraction(167, 3240), Fraction(373, 6480), Fraction(1601, 3240))
        assert validate_profile(profile) == []
        assert average_index(profile) == Fraction(4, 3)
        assert all(t.denominator > 401 for t in profile.phases)

    @pytest.mark.parametrize(
        "q,horizon,message",
        [(97, 200, "Q = 97 must exceed 2*horizon + 1 = 401"),
         (401, 200, "Q = 401 must exceed 2*horizon + 1 = 401"),
         (1, -5, "horizon = -5 must be positive"),
         (499, 0, "horizon = 0 must be positive")],
        ids=["q-below", "q-at-threshold", "negative-horizon", "zero-horizon"],
    )
    def test_threshold_must_stay_below_q(self, q, horizon, message):
        # With Q <= 2*horizon + 1 no numerator over Q reduces above the
        # threshold, so the placement search would never end.
        s = Signature(4, (3, 2, 1, 2), (1, 1, 1))
        with pytest.raises(PrecondViolation) as info:
            phase_instantiate(s, Fraction(178, 97), q, horizon)
        assert str(info.value) == message

    def test_no_placement_is_no_certificate(self):
        # At Q = 495 every placement of t_1 for (4, 1, 0) at 4/3 leaves the
        # solved t_2 out of order or at a denominator <= 401.
        s = Signature(5, (4, 1, 0), (3, 1))
        with pytest.raises(RuntimeError) as info:
            phase_instantiate(s, Fraction(4, 3), 495, horizon=200)
        assert str(info.value) == (
            "no admissible phases were constructed for target 4/3; "
            "not an infeasibility certificate"
        )

    def test_instantiated_targets_across_space(self):
        # Every successful instantiation is valid, hits the target exactly,
        # and carries only collision-safe denominators.  At the small Q the
        # snapped interior solution is the placement that succeeds for most
        # signatures, and the offset grid for the rest.
        for q, horizon in ((499, 200), (29, 10), (13, 5)):
            for n in (3, 4, 5):
                relation = average_relation_value(n)
                for s in enumerate_signatures(n):
                    for magnitude in (Fraction(1), Fraction(1, 2)):
                        target = relation * magnitude
                        outcome = phase_instantiate(s, target, q, horizon=horizon)
                        if isinstance(outcome, IndexProfile):
                            assert validate_profile(outcome) == []
                            assert average_index(outcome) == target
                            assert all(t.denominator > 2 * horizon + 1 for t in outcome.phases)


def test_average_relation_is_inverse_average_euler_number():
    # Rademacher's resonance identity for one prime geodesic, gamma/alpha = B,
    # and the closed forms of the relation.
    for n in range(3, 61):
        value = average_relation_value(n)
        assert value == 1 / abs(average_euler_number(n))
        assert value == (Fraction(2 * n - 2, n) if n % 2 == 0 else Fraction(2 * n - 2, n + 1))


def test_gap_bound_degrees_have_positive_betti_numbers():
    # The gap bound (step 5) rests on b_k > 0 at every k >= n - 1 with
    # k = n - 1 (mod 2): a monotone gap of 5 or more leaves two such degrees
    # that only one iterate could fill.  Checked over several periods of
    # the doubled degrees.
    for n in range(3, 61):
        max_degree = 8 * (n - 1)
        ranks = poincare_coefficients(n, max_degree).ranks
        assert all(ranks[k] > 0 for k in range(n - 1, max_degree + 1, 2)), n


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

    @pytest.mark.parametrize("horizon", [2, 0, -4])
    def test_short_horizon_refused(self, running_profile, horizon):
        with pytest.raises(PrecondViolation) as info:
            single_geodesic_pipeline(4, running_profile, horizon)
        assert str(info.value) == f"horizon = {horizon} must be >= 3"

    def test_deterministic(self, running_profile):
        a = single_geodesic_pipeline(4, running_profile, 96)
        b = single_geodesic_pipeline(4, running_profile, 96)
        assert a == b


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the type and message must match too
        return (type(exc), str(exc))


class TestAgainstFrozenPipeline:
    """The pipeline and the staircase check against their frozen copies in
    verify_oracle, on random profiles: verdict and witness, or exception
    type and message."""

    @staticmethod
    def _profiles(rng, count):
        walked = {n: list(_arc_sequences(n, first=n - 1, dip=1)) for n in range(3, 9)}
        for i in range(count):
            if i % 3 == 0:
                yield make_random_profile(rng)
                continue
            # A sequence verify walks, with phases over one denominator,
            # log-uniform in 23..4001 (reduced, so they differ); every other
            # one is redrawn a few times to meet the average relation, so
            # that the later steps are reached.
            n = rng.randint(3, 8)
            arcs = rng.choice(walked[n])
            for _ in range(1 if i % 3 == 1 else 20):
                q = round(math.exp(rng.uniform(math.log(23), math.log(4001))))
                numerators = sorted(rng.sample(range(1, (q - 1) // 2 + 1), len(arcs) - 1))
                p = IndexProfile(n, arcs, [Fraction(a, q) for a in numerators], _jump_costs(arcs))
                if 1 < average_index(p) / abs(gamma_invariant(p)) < 2:
                    break
            yield p
        # The representatives verify instantiates, where jump-clash and
        # survivors occur.
        for n, q in ((4, 499), (6, 601), (7, 1009)):
            relation = average_relation_value(n)
            for arcs in walked[n]:
                s = Signature(n, arcs, _jump_costs(arcs))
                for magnitude in (Fraction(1), Fraction(1, 2)):
                    p = phase_instantiate(s, relation * magnitude, q, horizon=200)
                    if isinstance(p, IndexProfile):
                        yield p

    @staticmethod
    def _same(n, p, horizon, h33):
        new = _outcome(lambda: single_geodesic_pipeline(n, p, horizon))
        if n != p.n and horizon >= 3:
            # The pipeline runs a profile in its own dimension only.
            assert new == (
                PrecondViolation, f"n = {n} does not match the profile's n = {p.n}"
            ), (n, p, horizon)
        else:
            old = _outcome(lambda: verify_oracle.single_geodesic_pipeline(n, p, horizon))
            assert new == old, (n, p, horizon)
        if not isinstance(new, tuple) and (
            new == CONSISTENT
            or new.failed_step not in ("index-of-prime", "second-iterate", "average-relation")
        ):
            # Past the relation the staircase hypotheses hold, and the
            # report verify_theorem rebuilds is the oracle's.
            h = min([horizon] + [t.denominator - 1 for t in p.phases])
            assert check_prop33(p, h) == verify_oracle.prop33_report(p, horizon), p
        assert _outcome(lambda: check_prop33(p, h33)) == _outcome(
            lambda: verify_oracle.check_prop33(p, h33)
        ), (p, h33)
        if isinstance(new, tuple):
            return new[0].__name__
        return new if new == CONSISTENT else new.failed_step

    def test_pipeline_and_prop33_match(self):
        rng = random.Random(2024)
        ends = set()
        # Every profile (3000 and the representatives) is compared in its
        # own dimension; about one in five is also run in another one.
        for p in self._profiles(rng, 3000):
            horizon = rng.choice((3, 10, 48, 96, 200, 200, 1000))
            h33 = rng.choice((None, 0, 1, 2, 50, 500))
            ends.add(self._same(p.n, p, horizon, h33))
            if rng.random() < 0.2:
                other = rng.choice([n for n in range(2, 9) if n != p.n])
                assert self._same(other, p, horizon, h33) == "PrecondViolation"
        # Every step the pipeline can fail at (jump-clash is rare here, and
        # test_edges_match reaches it), and each kind of exception.
        assert ends >= set(STEP_IDS[:-1]) - {"prop33-hypotheses", "jump-clash"} | {
            CONSISTENT, "PhaseCollision", "PrecondViolation", "ValueError"
        }, ends

    @pytest.mark.parametrize("horizon", [3, 200, 249, 250, 498, 499, 1000])
    def test_edges_match(self, horizon):
        # The jump-clash fixture dies at jump-clash (200), at the jump scan's
        # PrecondViolation (249, 250), at gap-bound (498), and at the gap
        # step's PhaseCollision (499, 1000); the second profile is invalid;
        # the third forces t = 1/4, where the Morse step collides at H = 3;
        # the last, an n = 7 profile run as n = 4, is rejected before any step.
        for n, p in (
            (4, IndexProfile(4, (3, 2, 1, 2), ("3/499", "4/499", "527/1996"), (1, 1, 1))),
            (4, IndexProfile(4, (3, 2, 1, 2), ("13/97", "10/97", "31/97"), (1, 1, 1))),
            (3, IndexProfile(3, (2, 0), ("1/4",), (2,))),
            (4, IndexProfile(7, (3, 0, 1), ("1/11", "5/11"), (3, 1))),
        ):
            for h33 in (None, 0, 1, 2, 50, 500):
                self._same(n, p, horizon, h33)


def _recheck_witness(report, n: int, horizon: int) -> None:
    """Independent recomputation of every reported violation."""
    candidate = report.candidate
    step = report.failed_step
    witness = report.witness
    if step == "index-of-prime":
        assert candidate.arc_values[0] != n - 1
    elif step == "second-iterate":
        assert bott_index(candidate, 2) == n - 1
        assert witness["betti_at_n_minus_1"] == betti_number(n, n - 1)
    elif step == "average-relation":
        ratio = average_index(candidate) / abs(gamma_invariant(candidate))
        ok = ratio == 1 if n == 3 else 1 < ratio < 2
        assert not ok
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
        # No n = 3 candidate passes the relation, so the tallies, and the
        # verdict, do not depend on the horizon or on Q.
        for horizon, q in [(3, 13), (5, 17), (10, 23), (200, 461), (200, 499), (200, 601),
                           (200, 1009), (10000, 20011), (10000, 32083)]:
            summary = verify_theorem(3, horizon, q)
            assert summary.survivors == [], (horizon, q)
            assert summary.candidates == summary.contradicted == 104, (horizon, q)
            assert summary.prop33_checked == 0, (horizon, q)
            assert summary.by_step == {
                "index-of-prime": 54,
                "second-iterate": 2,
                "average-relation": 16,
                "prop33-hypotheses": 0,
                "morse-feasibility": 0,
                "gap-bound": 0,
                "jump-clash": 0,
                "phase-infeasible": 32,
            }, (horizon, q)

    def test_jump_clash_fixture(self):
        # The n = 4 profile that verify_theorem(4, 200, 499) kills at
        # jump-clash, written out so the step is pinned without the search.
        p = IndexProfile(4, (3, 2, 1, 2), ("3/499", "4/499", "527/1996"), (1, 1, 1))
        verdict = single_geodesic_pipeline(4, p, 200)
        assert verdict != CONSISTENT
        assert verdict.failed_step == "jump-clash"
        assert verdict.witness["k"] == 166
        _recheck_witness(verdict, 4, 200)

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
            (7, 200, 499, 0),
            (7, 200, 1009, 10),
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
        # Real survivors and staircase failures are strict staircases, so
        # each has a single split and one feasible target.  Instantiate both
        # targets of every walked sequence, let every profile with an odd
        # number of arcs survive and every other one fail the staircase
        # proposition, so that both lists hold sequences with several splits
        # and two magnitudes, and compare them with the oracle.
        real_instantiate = bottiter.verifier.phase_instantiate

        def instantiate(s, alpha_target, q, horizon):
            if min(s.arc_values) > 1:  # counted in closed form by verify_theorem
                return real_instantiate(s, alpha_target, q, horizon)
            # Distinct per target, with denominators above the horizon.
            a, b = alpha_target.numerator, alpha_target.denominator
            phases = [Fraction(j * a, 1009 * b) for j in range(1, len(s.arc_values))]
            return IndexProfile(s.n, s.arc_values, phases, s.nullities)

        def report(p, horizon=None):
            return Prop33Report({}, True, True, len(p.arc_values) % 2 == 1, horizon, {})

        def pipeline(n, p, horizon):
            if report(p).passed:
                return CONSISTENT
            return ContradictionReport(p, "prop33-hypotheses", {})

        # The stand-in phases miss the target, so the oracle takes them in
        # place of its checked instantiation.
        monkeypatch.setattr(bottiter.verifier, "phase_instantiate", instantiate)
        monkeypatch.setattr(verify_oracle, "checked_instantiate", instantiate)
        for module in (bottiter.verifier, verify_oracle):
            monkeypatch.setattr(module, "check_prop33", report)
            monkeypatch.setattr(module, "single_geodesic_pipeline", pipeline)
        fast = verify_theorem(5, 200, 499)
        slow = naive_verify(5, 200, 499)
        assert fast.to_dict() == slow.to_dict()
        assert fast.prop33_checked == slow.prop33_checked
        assert fast.prop33_failures == slow.prop33_failures
        for listed in (
            [profile_from_document(doc) for doc in fast.survivors],
            [p for p, _ in fast.prop33_failures],
        ):
            assert len(listed) > len({p.arc_values for p in listed}) > 1

    def test_documented_summaries(self):
        # perfbench/expected_default.json pins the summaries the benchmark
        # checks its verify runs against.
        for entry in json.loads(EXPECTED_SUMMARIES.read_text()):
            summary = verify_theorem(entry["n"], entry["horizon"], entry["Q"])
            assert json.dumps(summary.to_dict()) == json.dumps(entry)

    def test_one_sequence_per_candidate(self, monkeypatch):
        # A candidate killed before the staircase step costs no Bott
        # sequence; every other candidate costs exactly one, no longer than
        # the Morse step's iterate cutoff: the later steps read crossings.
        calls = []
        real_sequence = bottiter.kernel.index_sequence
        real_pipeline = bottiter.verifier.single_geodesic_pipeline

        def counted_sequence(*args):
            calls.append(args)
            return real_sequence(*args)

        per_candidate = []

        def counted_pipeline(n, p, horizon):
            before = len(calls)
            verdict = real_pipeline(n, p, horizon)
            step = verdict if verdict == CONSISTENT else verdict.failed_step
            per_candidate.append((step, len(calls) - before))
            alpha = average_index(p)
            cutoff = cutoff_for(n, alpha, math.ceil(4 * alpha))
            assert all(m_max <= cutoff for _, _, m_max in calls[before:]), (p, cutoff)
            return verdict

        monkeypatch.setattr(bottiter.kernel, "index_sequence", counted_sequence)
        monkeypatch.setattr(bottiter.verifier, "single_geodesic_pipeline", counted_pipeline)
        for n in range(3, 8):
            verify_theorem(n, 200, 499)
        verify_theorem(6, 200, 601)  # with a survivor
        early = ("index-of-prime", "second-iterate", "average-relation")
        assert {count for step, count in per_candidate if step in early} == {0}
        assert {count for step, count in per_candidate if step not in early} == {1}
        assert len(calls) == sum(count for _, count in per_candidate)
        assert {step for step, _ in per_candidate} >= {
            "average-relation", "morse-feasibility", "gap-bound", "jump-clash", CONSISTENT
        }
        for p in (
            IndexProfile(4, (2, 1, 2), ("10/97", "31/97"), (1, 1)),
            IndexProfile(3, (2, 1, 0), ("10/97", "31/97"), (1, 1)),
            IndexProfile(3, (2,)),
        ):
            before = len(calls)
            verdict = real_pipeline(p.n, p, 96)
            assert verdict.failed_step in early
            assert len(calls) == before

    def test_preconditions(self):
        with pytest.raises(PrecondViolation):
            verify_theorem(4, 200, 400)  # Q <= 2*horizon + 1
        with pytest.raises(PrecondViolation):
            verify_theorem(4, 200, 501)  # not prime
        with pytest.raises(PrecondViolation):
            verify_theorem(9, 200, 499)
        # A horizon below 3 is refused up front, after the checks above.
        for n, horizon, q in ((3, -5, 3), (3, 0, 3), (4, 2, 7)):
            with pytest.raises(PrecondViolation, match=f"horizon = {horizon} must be >= 3"):
                verify_theorem(n, horizon, q)
        with pytest.raises(PrecondViolation, match="must be prime"):
            verify_theorem(3, 0, 4)
        # A prime Q at or below 2*horizon + 1.
        for q in (397, 401):
            with pytest.raises(PrecondViolation) as info:
                verify_theorem(4, 200, q)
            assert str(info.value) == f"Q = {q} must exceed 2*horizon + 1 = 401"

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
