"""Profile validation, evaluation, exact invariants, document round-trip."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bottiter import (
    IndexProfile,
    PhaseCollision,
    ProfileFormatError,
    average_index,
    classify_elliptic_extremal,
    evaluate_index_function,
    gamma_invariant,
    profile_from_document,
    validate_profile,
)
from bottiter.profile import reduces_above
from bottiter.reference import naive_index

from conftest import make_random_profile


class TestValidate:
    def test_running_profile_valid(self, running_profile):
        assert validate_profile(running_profile) == []

    def test_flat_profile_valid(self, flat_profile):
        assert validate_profile(flat_profile) == []

    def test_jump_exceeding_nullity(self):
        p = IndexProfile(3, (2, 0, 2), ("1/5", "2/5"), (1, 1))
        assert validate_profile(p) == [
            "|I_1 - I_2| = 2 exceeds N_1 = 1", "|I_2 - I_3| = 2 exceeds N_2 = 1"
        ]

    def test_nullity_budget(self):
        p = IndexProfile(3, (2, 2, 2), ("1/5", "2/5"), (2, 2))
        assert validate_profile(p) == ["sum of nullities 4 exceeds n - 1 = 2"]

    def test_phase_ordering(self):
        p = IndexProfile(3, (2, 2, 2), ("2/5", "1/5"), (1, 1))
        assert validate_profile(p) == ["phases not strictly increasing at t_1=2/5, t_2=1/5"]

    def test_too_many_phases(self):
        p = IndexProfile(3, (1, 1, 1, 1), ("1/7", "2/7", "3/7"), (1, 1, 1))
        assert validate_profile(p) == [
            "l = 3 exceeds n - 1 = 2", "sum of nullities 3 exceeds n - 1 = 2"
        ]

    @pytest.mark.parametrize(
        "profile, violations",
        [
            (IndexProfile(1, (0,)), ["dimension n = 1 < 2"]),
            (IndexProfile(3, ()), ["empty arc_values"]),
            (IndexProfile(1, ()), ["dimension n = 1 < 2", "empty arc_values"]),
            (
                IndexProfile(3, (2, 1), (), ()),
                ["length mismatch: 2 arc values, 0 phases, 0 nullities (need l+1 / l / l)"],
            ),
            (
                IndexProfile(3, (2, 1), ("1/5",), ()),
                ["length mismatch: 2 arc values, 1 phases, 0 nullities (need l+1 / l / l)"],
            ),
            (IndexProfile(3, (-1,)), ["arc value I_1 = -1 is negative"]),
            (
                IndexProfile(3, (2, 2), ("1/2",), (1,)),
                ["phase t_1 = 1/2 outside the open interval (0, 1/2)"],
            ),
            (
                IndexProfile(3, (2, 2, 2), ("0", "1/5"), (1, 1)),
                ["phase t_1 = 0 outside the open interval (0, 1/2)"],
            ),
            (IndexProfile(3, (2, 2), ("1/5",), (0,)), ["nullity N_1 = 0 is not positive"]),
            (
                IndexProfile(4, (3, 2), ("1/5",), (1,), splitting_pairs=()),
                ["0 splitting pairs for 1 phases"],
            ),
            (
                IndexProfile(4, (3, 2), ("1/5",), (1,), splitting_pairs=((2, 3),)),
                ["splitting pair (S+_1, S-_1) = (2, 3) outside [0, N_1 = 1]"],
            ),
        ],
        ids=[
            "n", "empty", "n-and-empty", "lengths", "nullity-length", "negative-arc",
            "phase-at-half", "phase-at-zero", "nullity", "pair-count", "pair-range",
        ],
    )
    def test_each_violation_message(self, profile, violations):
        assert validate_profile(profile) == violations

    def test_violations_in_rule_order(self):
        # Arc signs, the phase range and then order, the nullities, then
        # the jumps; the CLI reports the first.
        p = IndexProfile(3, (-1, 0, 0), ("1/2", "1/5"), (0, 1))
        assert validate_profile(p) == [
            "arc value I_1 = -1 is negative",
            "phase t_1 = 1/2 outside the open interval (0, 1/2)",
            "phases not strictly increasing at t_1=1/2, t_2=1/5",
            "nullity N_1 = 0 is not positive",
            "|I_1 - I_2| = 1 exceeds N_1 = 0",
        ]

    def test_splitting_pairs_checked(self, running_profile):
        good = IndexProfile(4, (3, 2, 1, 2), running_profile.phases, (1, 1, 1),
                            splitting_pairs=((0, 1), (0, 1), (1, 0)))
        assert validate_profile(good) == []
        bad = IndexProfile(4, (3, 2, 1, 2), running_profile.phases, (1, 1, 1),
                           splitting_pairs=((1, 0), (0, 1), (1, 0)))
        assert validate_profile(bad) == ["S-_1 - S+_1 = -1 does not equal I_1 - I_2 = 1"]


@pytest.mark.parametrize(
    "numerator,denominator,expected",
    [(1, 402, True), (4, 441, True), (3, 441, False), (6, 441, False), (402, 402, False),
     (401, 402, True)],
)
def test_collision_rule_reads_the_reduced_denominator(numerator, denominator, expected):
    # 3/441 = 1/147 and 6/441 = 2/147 fall to 147 <= 401; 4/441 keeps 441.
    assert reduces_above(numerator, denominator, 401) is expected


def test_inexact_phase_refused():
    with pytest.raises(TypeError, match=r"^cannot interpret 0\.1 as an exact rational$"):
        IndexProfile(3, (2, 2), (0.1,), (1,))


class TestEvaluate:
    def test_at_zero(self, running_profile):
        assert evaluate_index_function(running_profile, 0) == 3

    def test_arc_lookup(self, running_profile):
        assert evaluate_index_function(running_profile, Fraction(1, 3)) == 2

    def test_at_half(self, running_profile):
        assert evaluate_index_function(running_profile, Fraction(1, 2)) == 2

    def test_phase_collision(self, running_profile):
        with pytest.raises(PhaseCollision):
            evaluate_index_function(running_profile, Fraction(13, 97))

    def test_outside_domain(self, running_profile):
        with pytest.raises(ValueError):
            evaluate_index_function(running_profile, Fraction(3, 5))

    def test_constant_on_arcs(self, running_profile):
        # Changing t inside one open arc never changes the value.
        rng = random.Random(11)
        boundaries = [Fraction(0)] + list(running_profile.phases) + [Fraction(1, 2)]
        for lo, hi in zip(boundaries, boundaries[1:]):
            samples = [lo + (hi - lo) * Fraction(k, 17) for k in range(1, 17)]
            values = {evaluate_index_function(running_profile, t) for t in samples}
            assert len(values) == 1


class TestAverageIndex:
    def test_constant(self, constant_profile):
        assert average_index(constant_profile) == 2

    def test_running_profile_exact(self, running_profile):
        assert average_index(running_profile) == Fraction(178, 97)

    def test_flat(self, flat_profile):
        assert average_index(flat_profile) == 2

    def test_matches_iteration_limit(self, running_profile):
        # Independent route: ind(c^m)/m converges to alpha with error <= (n-1)/m.
        alpha = average_index(running_profile)
        m = 1900  # not a multiple of 97
        assert abs(Fraction(naive_index(running_profile, m), m) - alpha) <= Fraction(3, m)


class TestGamma:
    def test_running_profile(self, running_profile):
        assert gamma_invariant(running_profile) == -1

    def test_constant_even(self):
        assert gamma_invariant(IndexProfile(3, (2,))) == 1

    def test_half_magnitude(self):
        # ind(c) = 2 even, ind(c^2) - ind(c) = 3 odd.
        p = IndexProfile(4, (2, 3), ("10/97",), (1,))
        assert gamma_invariant(p) == Fraction(1, 2)

    def test_negative_half(self):
        p = IndexProfile(4, (3, 2, 1), ("10/97", "13/97"), (1, 1))
        assert gamma_invariant(p) == Fraction(-1, 2)


class TestElliptic:
    def test_running_profile_extremal(self, running_profile):
        assert classify_elliptic_extremal(running_profile) is True

    def test_flat_not_extremal(self, flat_profile):
        assert classify_elliptic_extremal(flat_profile) is False

    def test_two_step(self):
        p = IndexProfile(4, (3, 1, 2), ("10/97", "13/97"), (2, 1))
        assert classify_elliptic_extremal(p) is True


class TestDocuments:
    RUNNING = '{ "n": 4, "I": [3,2,1,2], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }'

    def test_round_trip(self, running_profile):
        parsed = profile_from_document(self.RUNNING)
        assert parsed == running_profile
        assert profile_from_document(parsed.to_document()) == parsed

    def test_splitting_pairs_round_trip(self, running_profile):
        p = IndexProfile(4, (3, 2, 1, 2), running_profile.phases, (1, 1, 1),
                         splitting_pairs=((0, 1), (0, 1), (1, 0)))
        document = p.to_document()
        assert document == (
            '{"n": 4, "I": [3, 2, 1, 2], "t": ["10/97", "13/97", "31/97"], '
            '"N": [1, 1, 1], "S": [[0, 1], [0, 1], [1, 0]]}'
        )
        assert profile_from_document(document) == p

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{ "n": 3, ', r"^not a valid profile document: Expecting property name"),
            ("[1, 2]", r"^profile document must be a single object$"),
            ('{ "n": 3, "I": [2], "t": "1/5", "N": [] }', r"^t must be a list of rational strings$"),
            (
                '{ "n": 3, "I": [2, 1], "t": ["1/5"], "N": [1, 1] }',
                r"^nullity/phase length mismatch: 2 nullities for 1 phases$",
            ),
        ],
        ids=["json", "not-object", "t-not-list", "nullity-length"],
    )
    def test_document_shape_errors(self, doc, message):
        with pytest.raises(ProfileFormatError, match=message):
            profile_from_document(doc)

    def test_phase_order_diagnostic(self):
        doc = '{ "n": 4, "I": [3,2,1,2], "t": ["13/97","10/97","31/97"], "N": [1,1,1] }'
        with pytest.raises(ProfileFormatError, match="strictly increasing"):
            profile_from_document(doc)

    def test_length_mismatch_diagnostic(self):
        doc = '{ "n": 4, "I": [3,2,1], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }'
        with pytest.raises(ProfileFormatError, match="arc/phase length mismatch"):
            profile_from_document(doc)

    def test_malformed_rational(self):
        doc = '{ "n": 4, "I": [3,2], "t": ["ten/97"], "N": [1] }'
        with pytest.raises(ProfileFormatError, match="malformed rational"):
            profile_from_document(doc)

    def test_invariant_diagnostic(self):
        doc = '{ "n": 3, "I": [2,0,2], "t": ["1/5","2/5"], "N": [1,1] }'
        with pytest.raises(ProfileFormatError, match="exceeds N_1"):
            profile_from_document(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # A JSON number is no exact rational: 0.1 would load as a float.
            ('{ "n": 3, "I": [2,1], "t": [0.1], "N": [1] }', r"malformed rational string at t\[0\]: 0\.1"),
            ('{ "n": 3, "I": [2,1], "t": [1], "N": [1] }', r"malformed rational string at t\[0\]: 1"),
            ('{ "n": 3, "I": [2,1], "t": [true], "N": [1] }', r"malformed rational string at t\[0\]: True"),
            # JSON true and false are not integers.
            ('{ "n": true, "I": [2], "t": [], "N": [] }', "n must be an integer >= 2, got True"),
            ('{ "n": 3.0, "I": [2], "t": [], "N": [] }', "n must be an integer >= 2, got 3.0"),
            ('{ "n": 3, "I": [true, false], "t": ["1/5"], "N": [1] }', "I must be a list of integers"),
            ('{ "n": 3, "I": [2.0], "t": [], "N": [] }', "I must be a list of integers"),
            ('{ "n": 3, "I": [2,1], "t": ["1/5"], "N": [true] }', "N must be a list of integers"),
            (
                '{ "n": 3, "I": [2,1], "t": ["1/5"], "N": [1], "S": [[false, true]] }',
                "S must be a list of",
            ),
        ],
        ids=["t-float", "t-int", "t-bool", "n-bool", "n-float", "I-bool", "I-float", "N-bool", "S-bool"],
    )
    def test_non_integers_and_numbers_rejected(self, doc, message):
        with pytest.raises(ProfileFormatError, match=message):
            profile_from_document(doc)

    def test_missing_field(self):
        with pytest.raises(ProfileFormatError, match="missing field"):
            profile_from_document('{ "n": 3, "I": [2], "t": [] }')


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_profiles_validate(seed):
    rng = random.Random(seed)
    p = make_random_profile(rng)
    assert validate_profile(p) == []


def test_average_index_in_arc_hull():
    rng = random.Random(23)
    for _ in range(200):
        p = make_random_profile(rng)
        alpha = average_index(p)
        assert min(p.arc_values) <= alpha <= max(p.arc_values)
