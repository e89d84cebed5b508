"""Index profiles: the spectral fingerprint of a closed geodesic.

A profile on an n-manifold stores the piecewise-constant index function on
the upper unit semicircle: arc values I_1, ..., I_{l+1} separated by
rotation phases 0 < t_1 < ... < t_l < 1/2 (arguments of the unit-circle
eigenvalues of the linearized return map, divided by 2*pi), together with
the eigenvalue nullities N_1, ..., N_l.  The function takes the value I_1
on [0, t_1), I_{j+1} on (t_j, t_{j+1}), and I_{l+1} on (t_l, 1/2]; values
on the lower semicircle follow by conjugation symmetry.

Structural constraints (n is the ambient dimension):

    l <= n - 1,              sum_j N_j <= n - 1,
    |I_j - I_{j+1}| <= N_j   (one-sided jumps are bounded by the nullity),

and, when the optional splitting pairs (S+_j, S-_j) are present,
0 <= S+-_j <= N_j with S-_j - S+_j = I_j - I_{j+1}.

Everything here is exact: phases are `fractions.Fraction`, arc values and
nullities are integers, and no operation ever rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PhaseCollision, ProfileFormatError

HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class IndexProfile:
    """Arc values, phases and nullities of one closed-geodesic index function."""

    n: int
    arc_values: tuple[int, ...]
    phases: tuple[Fraction, ...] = ()
    nullities: tuple[int, ...] = ()
    splitting_pairs: tuple[tuple[int, int], ...] | None = None

    def __init__(
        self,
        n: int,
        arc_values: Iterable[int],
        phases: Iterable[Fraction | str | int] = (),
        nullities: Iterable[int] = (),
        splitting_pairs: Iterable[tuple[int, int]] | None = None,
    ):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "arc_values", tuple(int(v) for v in arc_values))
        object.__setattr__(self, "phases", tuple(_as_fraction(t) for t in phases))
        object.__setattr__(self, "nullities", tuple(int(v) for v in nullities))
        sp = None
        if splitting_pairs is not None:
            sp = tuple((int(a), int(b)) for a, b in splitting_pairs)
        object.__setattr__(self, "splitting_pairs", sp)

    @property
    def l(self) -> int:
        """Number of phases (unit-circle eigenvalue pairs)."""
        return len(self.phases)

    @property
    def index_at_one(self) -> int:
        """ind(c): the value of the index function at z = 1."""
        return self.arc_values[0]

    @property
    def index_at_minus_one(self) -> int:
        """I_c(-1): the value on the arc ending at 1/2."""
        return self.arc_values[-1]

    def to_document(self) -> str:
        """Serialize to the one-object text format used by the CLI."""
        doc = {
            "n": self.n,
            "I": list(self.arc_values),
            "t": [f"{t.numerator}/{t.denominator}" for t in self.phases],
            "N": list(self.nullities),
        }
        if self.splitting_pairs is not None:
            doc["S"] = [list(pair) for pair in self.splitting_pairs]
        return json.dumps(doc)


def phases_in_order(phases: Sequence[Fraction]) -> bool:
    """The phase-order rule 0 < t_1 < ... < t_l < 1/2."""
    bounds = (0, *phases, HALF)
    return all(a < b for a, b in zip(bounds, bounds[1:]))


def phase_order_violations(phases: Sequence[Fraction]) -> list[str]:
    """How the phases break `phases_in_order`: each outside (0, 1/2), then each pair."""
    if phases_in_order(phases):
        return []
    violations = [
        f"phase t_{j + 1} = {t} outside the open interval (0, 1/2)"
        for j, t in enumerate(phases)
        if not 0 < t < HALF
    ]
    return violations + [
        f"phases not strictly increasing at t_{j}={a}, t_{j + 1}={b}"
        for j, (a, b) in enumerate(zip(phases, phases[1:]), start=1)
        if b <= a
    ]


def reduces_above(numerator: int, denominator: int, threshold: int) -> bool:
    """The collision rule: numerator / denominator in lowest terms has a
    denominator above the threshold (2*horizon + 1 for a scan to horizon)."""
    return denominator // math.gcd(numerator, denominator) > threshold


def nullity_violations(n: int, arcs: Sequence[int], nulls: Sequence[int]) -> list[str]:
    """The nullity rules N_j >= 1, l <= n - 1, sum_j N_j <= n - 1, |I_j - I_{j+1}| <= N_j."""
    violations = [f"nullity N_{j + 1} = {nv} is not positive" for j, nv in enumerate(nulls) if nv < 1]
    if len(nulls) > n - 1:
        violations.append(f"l = {len(nulls)} exceeds n - 1 = {n - 1}")
    if sum(nulls) > n - 1:
        violations.append(f"sum of nullities {sum(nulls)} exceeds n - 1 = {n - 1}")
    for j, nv in enumerate(nulls):
        jump = abs(arcs[j] - arcs[j + 1])
        if jump > nv:
            violations.append(f"|I_{j + 1} - I_{j + 2}| = {jump} exceeds N_{j + 1} = {nv}")
    return violations


def validate_profile(p: IndexProfile) -> list[str]:
    """Check every structural invariant; return the violations (empty = valid).

    Violations are data, not errors: enumeration and search code inspects
    them to discard candidates.
    """
    violations: list[str] = []
    if p.n < 2:
        violations.append(f"dimension n = {p.n} < 2")
    arcs, phases, nulls = p.arc_values, p.phases, p.nullities
    if not arcs:
        violations.append("empty arc_values")
        return violations
    l = len(phases)
    if len(arcs) != l + 1 or len(nulls) != l:
        violations.append(
            f"length mismatch: {len(arcs)} arc values, {l} phases, "
            f"{len(nulls)} nullities (need l+1 / l / l)"
        )
        return violations
    for j, v in enumerate(arcs):
        if v < 0:
            violations.append(f"arc value I_{j + 1} = {v} is negative")
    violations += phase_order_violations(phases) + nullity_violations(p.n, arcs, nulls)
    if p.splitting_pairs is not None:
        if len(p.splitting_pairs) != l:
            violations.append(
                f"{len(p.splitting_pairs)} splitting pairs for {l} phases"
            )
        else:
            for j, (sp, sm) in enumerate(p.splitting_pairs):
                if not (0 <= sp <= nulls[j]) or not (0 <= sm <= nulls[j]):
                    violations.append(
                        f"splitting pair (S+_{j + 1}, S-_{j + 1}) = ({sp}, {sm}) "
                        f"outside [0, N_{j + 1} = {nulls[j]}]"
                    )
                elif sm - sp != arcs[j] - arcs[j + 1]:
                    violations.append(
                        f"S-_{j + 1} - S+_{j + 1} = {sm - sp} does not equal "
                        f"I_{j + 1} - I_{j + 2} = {arcs[j] - arcs[j + 1]}"
                    )
    return violations


def arc_position(p: IndexProfile, t: Fraction) -> int:
    """0-based position of the arc holding e(t), t in [0, 1/2].

    Raises PhaseCollision if t hits a stored phase exactly, since the
    profile then cannot decide which neighbouring arc applies.
    """
    # Binary search would also do; l <= n - 1 keeps the scan short.
    for j, phase in enumerate(p.phases):
        if t == phase:
            raise PhaseCollision(t, j)
        if t < phase:
            return j
    return len(p.arc_values) - 1


def evaluate_index_function(p: IndexProfile, t: Fraction | int | str) -> int:
    """Value of the index function at the point e(t), t in [0, 1/2]; raises
    what `arc_position` raises."""
    t = _as_fraction(t)
    if not (0 <= t <= HALF):
        raise ValueError(f"t = {t} outside [0, 1/2]")
    return p.arc_values[arc_position(p, t)]


def average_index(p: IndexProfile) -> Fraction:
    """Circle average of the index function, as an exact rational.

    Computed as the integral over [0, 1] via conjugation symmetry
    (twice the integral over [0, 1/2]), i.e.
    2 * sum_j I_j * (t_j - t_{j-1}) with t_0 = 0 and t_{l+1} = 1/2.
    """
    total = Fraction(0)
    prev = Fraction(0)
    for value, phase in zip(p.arc_values, p.phases):
        total += value * (phase - prev)
        prev = phase
    total += p.arc_values[-1] * (HALF - prev)
    return 2 * total


def gamma_invariant(p: IndexProfile) -> Fraction:
    """The parity invariant in {+1, +1/2, -1/2, -1}.

    Positive iff ind(c) is even; magnitude 1 iff ind(c^2) - ind(c) is even.
    Both parities are read off the profile: ind(c) = I_1 and
    ind(c^2) - ind(c) = I_{l+1}.
    """
    magnitude = Fraction(1) if p.index_at_minus_one % 2 == 0 else HALF
    return magnitude if p.index_at_one % 2 == 0 else -magnitude


def classify_elliptic_extremal(p: IndexProfile) -> bool:
    """True iff the total arc variation attains its maximum n - 1.

    Maximal variation forces every unit-circle eigenvalue block of the
    return map to be a plane rotation, i.e. the geodesic is of elliptic
    type.
    """
    arcs = p.arc_values
    variation = sum(abs(arcs[j + 1] - arcs[j]) for j in range(len(arcs) - 1))
    return variation == p.n - 1


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def profile_from_document(document: str) -> IndexProfile:
    """Parse the one-object text format; raise ProfileFormatError with the
    first violated constraint otherwise.

    Expected shape:
        { "n": 4, "I": [3,2,1,2], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }
    with rationals serialized as "numerator/denominator" strings and
    len(I) = len(t) + 1 = len(N) + 1.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"not a valid profile document: {exc}") from None
    if not isinstance(doc, dict):
        raise ProfileFormatError("profile document must be a single object")
    for key in ("n", "I", "t", "N"):
        if key not in doc:
            raise ProfileFormatError(f"missing field {key!r}")
    n = doc["n"]
    if not _is_int(n) or n < 2:
        raise ProfileFormatError(f"n must be an integer >= 2, got {n!r}")
    arcs = doc["I"]
    if not isinstance(arcs, list) or not all(map(_is_int, arcs)):
        raise ProfileFormatError("I must be a list of integers")
    raw_phases = doc["t"]
    if not isinstance(raw_phases, list):
        raise ProfileFormatError("t must be a list of rational strings")
    nulls = doc["N"]
    if not isinstance(nulls, list) or not all(map(_is_int, nulls)):
        raise ProfileFormatError("N must be a list of integers")
    if len(arcs) != len(raw_phases) + 1:
        raise ProfileFormatError(
            f"arc/phase length mismatch: {len(arcs)} arc values need "
            f"{len(arcs) - 1} phases, got {len(raw_phases)}"
        )
    if len(nulls) != len(raw_phases):
        raise ProfileFormatError(
            f"nullity/phase length mismatch: {len(nulls)} nullities for "
            f"{len(raw_phases)} phases"
        )
    phases = []
    for j, text in enumerate(raw_phases):
        try:
            if not isinstance(text, str):
                raise TypeError  # a JSON number would be read inexactly
            phases.append(Fraction(text))
        except (ValueError, ZeroDivisionError, TypeError):
            raise ProfileFormatError(f"malformed rational string at t[{j}]: {text!r}") from None
    for j in range(1, len(phases)):
        if phases[j] <= phases[j - 1]:
            raise ProfileFormatError("phases not strictly increasing")
    splitting = None
    if "S" in doc:
        raw = doc["S"]
        ok = isinstance(raw, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            for pair in raw
        )
        if not ok:
            raise ProfileFormatError("S must be a list of [S+, S-] integer pairs")
        splitting = [tuple(pair) for pair in raw]
    profile = IndexProfile(n, arcs, phases, nulls, splitting)
    violations = validate_profile(profile)
    if violations:
        raise ProfileFormatError(violations[0])
    return profile
