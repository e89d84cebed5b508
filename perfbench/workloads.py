"""Seeded workloads of the bottiter benchmark and the checks on their outputs.

Every workload is a closed loop: one process, one thread, one caller that
waits for each result before it sends the next operation.  A run repeats
the workload's sweep, a fixed list of operations, each one call into a
public entry point (`bottiter.verify_theorem` or `bottiter.cli.main`).
The seed produces the inputs and bottiter receives only those inputs.

Checks run after a sweep, outside the timed region.  Each returns None
for a correct output or a one-line reason, which counts as a failure.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_default.json"

HALF = Fraction(1, 2)


class SourceMissing(RuntimeError):
    """The checkout has no bottiter sources to benchmark."""


def import_bottiter():
    """Import bottiter afresh from the checkout's src/ and return it.

    Earlier imports are dropped first, so that the import is part of each
    timed set-up and a copy installed elsewhere is never measured.
    """
    src = ROOT / "src"
    if not (src / "bottiter" / "__init__.py").is_file():
        raise SourceMissing(f"no bottiter package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "bottiter" or m.startswith("bottiter.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bt = importlib.import_module("bottiter")
    for sub in ("cli", "reference"):
        importlib.import_module(f"bottiter.{sub}")
    if Path(bt.__file__).resolve().parent != (src / "bottiter").resolve():
        raise SourceMissing(f"bottiter was imported from {bt.__file__}, not from {src}")
    return bt


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(hi) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, hi + 1, f)))
    return [p for p in range(lo + 1, hi + 1) if sieve[p]]


def log_scale(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) log-uniformly onto the integers lo..hi (lo >= 1)."""
    value = int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo))))
    return min(hi, max(lo, value))


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return log_scale(rng.random(), lo, hi)


def stratified(rng: random.Random, count: int) -> list[float]:
    """count uniforms in [0, 1), one in each of count equal strata, shuffled.

    Drawing sizes this way keeps their spread nearly the same from seed to
    seed, so that runs with different seeds measure comparable work.
    """
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


@dataclass
class Op:
    """One operation: a call into bottiter and the check of its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    survivors: Callable[[object], int] = lambda result: 0


# -- verify workloads ---------------------------------------------------------


def load_expected() -> list[dict]:
    """The pinned `verify` summaries for the documented (H, Q) pairs."""
    return json.loads(EXPECTED_FILE.read_text())


class VerifyWorkload:
    """`verify_theorem(n, H, Q)` for each n in a range and each Q of a set.

    The interval (2H+1, 4H] is cut into `strata` equal parts and Q is one
    prime drawn from each, because the cost of a sweep depends on where Q
    lies (the gap-bound kill sits near m = Q/3).  The default seed uses
    the documented Q in its part.  Q > 3H can leave survivors (Q = 601 at
    n = 6): they are reported, never filtered out.  Every sweep runs the
    same calls, so a run's sweeps differ only by measurement noise.
    """

    def __init__(self, bt, seed: int, horizon: int, ns, strata: int,
                 documented_q: int, expected: list[dict]):
        self.bt = bt
        self.horizon = horizon
        self.ns = tuple(ns)
        rng = random.Random(seed)
        lo, hi = 2 * horizon + 1, 4 * horizon
        primes = primes_between(lo, hi)
        cuts = [lo + (hi - lo) * i // strata for i in range(strata + 1)]
        self.qs = []
        for a, b in zip(cuts, cuts[1:]):
            if seed == DEFAULT_SEED and a < documented_q <= b:
                self.qs.append(documented_q)
            else:
                self.qs.append(rng.choice([q for q in primes if a < q <= b]))
        self.expected = {(s["n"], s["horizon"], s["Q"]): json.dumps(s) for s in expected}

    def sizes(self) -> dict:
        return {"horizon": self.horizon, "n": list(self.ns), "Q": self.qs}

    def sweep(self) -> list[Op]:
        return [
            Op(
                label=f"verify n={n} H={self.horizon} Q={q}",
                call=lambda n=n, q=q: self.bt.verify_theorem(n, self.horizon, q),
                check=lambda summary, n=n, q=q: self.check(n, q, summary),
                survivors=lambda summary: len(summary.survivors),
            )
            for q in self.qs
            for n in self.ns
        ]

    def warm_up(self) -> None:
        self.bt.verify_theorem(self.ns[0], self.horizon, self.qs[0])

    def check(self, n: int, q: int, summary) -> str | None:
        d = summary.to_dict()
        if (d["n"], d["horizon"], d["Q"]) != (n, self.horizon, q):
            return f"summary is for {(d['n'], d['horizon'], d['Q'])}"
        if d["candidates"] != d["contradicted"] + len(d["survivors"]):
            return "candidates != contradicted + len(survivors)"
        if sum(d["by_step"].values()) != d["contradicted"]:
            return "sum of by_step != contradicted"
        pinned = self.expected.get((n, self.horizon, q))
        if pinned is not None and json.dumps(d) != pinned:
            return "summary differs from the pinned expected summary"
        return None


# -- profile-queries workload -------------------------------------------------

KINDS = ("iterate", "jumps", "morse", "prop33", "gaps", "alpha", "gamma", "betti")
MAX_SIZE = 10_000  # largest m or horizon a query asks for
# Phase denominators: primes above every m a query can reach (<= MAX_SIZE + 1).
PHASE_PRIMES = primes_between(MAX_SIZE + 1, 3 * MAX_SIZE)


def average(arcs, phases) -> Fraction:
    """Circle average of the index function: 2 * sum_j I_j * (t_j - t_{j-1})."""
    bounds = [Fraction(0), *phases, HALF]
    return 2 * sum(v * (bounds[j + 1] - bounds[j]) for j, v in enumerate(arcs))


def parity_gamma(arcs) -> Fraction:
    magnitude = Fraction(1) if arcs[-1] % 2 == 0 else HALF
    return magnitude if arcs[0] % 2 == 0 else -magnitude


def random_profile(rng: random.Random, n: int, last_arc: int | None = None) -> dict:
    """A valid profile document with average index >= 1/2.

    Arc values lie in 0..2(n-1); phases are p/q with q prime above
    MAX_SIZE + 1, so no query reaches a phase collision.
    """
    vmax = 2 * (n - 1)
    while True:
        l = rng.randint(0, n - 1)
        nulls = [1] * l
        for _ in range(rng.randint(0, n - 1 - l) if l else 0):
            nulls[rng.randrange(l)] += 1
        arcs = [rng.randint(0, vmax)]
        for nv in nulls:
            arcs.append(rng.randint(max(0, arcs[-1] - nv), min(vmax, arcs[-1] + nv)))
        if last_arc is not None and arcs[-1] != last_arc:
            continue
        dens = [rng.choice(PHASE_PRIMES) for _ in range(l)]
        phases = sorted({Fraction(rng.randint(1, (q - 1) // 2), q) for q in dens})
        if len(phases) != l or average(arcs, phases) < HALF:
            continue
        return {
            "n": n,
            "I": arcs,
            "t": [f"{t.numerator}/{t.denominator}" for t in phases],
            "N": nulls,
        }


@dataclass
class Query:
    kind: str
    argv: list[str]
    doc: dict
    params: dict
    check_seed: int
    verified: tuple | None = None  # (digest of the first answer, its check result)


class QueryWorkload:
    """A seeded stream of single-profile CLI queries, answered in process.

    The stream holds `blocks` blocks of one query per subcommand in KINDS,
    shuffled, each on its own random profile, written to `workdir`.  m, the
    horizon and the degree are log-uniform up to MAX_SIZE (stratified per
    subcommand), so most queries are short and the tail is long.  Every
    sweep is one pass over the whole stream.
    """

    def __init__(self, bt, seed: int, workdir: Path, blocks: int = 150):
        self.bt = bt
        self.naive_index = sys.modules["bottiter.reference"].naive_index
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        sizes = {kind: stratified(rng, blocks) for kind in KINDS}
        self.queries: list[Query] = []
        for block in range(blocks):
            for kind in KINDS:
                query = self._make(rng, kind, sizes[kind][block], block % 2, workdir,
                                   len(self.queries))
                self.queries.append(query)
        rng.shuffle(self.queries)

    @staticmethod
    def _make(rng: random.Random, kind: str, u: float, odd: int, workdir: Path,
              idx: int) -> Query:
        """One query of `kind`; u in [0, 1) sets its size."""
        n = rng.randint(3, 8)
        doc = random_profile(rng, n, last_arc=2 if kind == "gaps" else None)
        path = workdir / f"profile{idx}.json"
        if kind != "betti":  # betti takes only n
            path.write_text(json.dumps(doc))
        arcs = doc["I"]
        phases = [Fraction(t) for t in doc["t"]]
        params: dict = {}
        argv = [kind, "--profile", str(path)]
        if kind == "iterate":
            params["max_m"] = log_scale(u, 1, MAX_SIZE)
            argv += ["--max-m", str(params["max_m"])]
        elif kind == "jumps":
            params["horizon"] = log_scale(u, 1, MAX_SIZE // 2)
            argv += ["--horizon", str(params["horizon"])]
        elif kind == "morse":
            # Keep K and the iterate cutoff ceil((K + n - 1) / alpha) <= MAX_SIZE.
            alpha = average(arcs, phases)
            reach = log_scale(u, 1, MAX_SIZE)
            params["max_k"] = min(MAX_SIZE, max(0, math.floor(reach * alpha) - (n - 1)))
            argv += ["--max-k", str(params["max_k"])]
        elif kind == "prop33":
            if odd:  # every other prop33 query uses the default horizon
                params["horizon"] = log_scale(u, 1, MAX_SIZE)
                argv += ["--horizon", str(params["horizon"])]
        elif kind == "gaps":
            params["m"] = log_scale(u, 1, MAX_SIZE)
            argv += ["--m", str(params["m"])]
        elif kind == "betti":
            params["max_k"] = log_scale(u, 1, MAX_SIZE + 1) - 1
            argv = ["betti", "--n", str(n), "--max-k", str(params["max_k"])]
        return Query(kind, argv, doc, params, rng.getrandbits(32))

    def sizes(self) -> dict:
        return {
            "queries": len(self.queries),
            "profiles": sum(q.kind != "betti" for q in self.queries),
            "mix": {kind: sum(q.kind == kind for q in self.queries) for kind in KINDS},
            "max_size": MAX_SIZE,
        }

    def _call(self, query: Query):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.bt.cli.main(query.argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def sweep(self) -> list[Op]:
        return [
            Op(
                label=" ".join(q.argv),
                call=lambda q=q: self._call(q),
                check=lambda result, q=q: self.check(q, result),
            )
            for q in self.queries
        ]

    def warm_up(self) -> None:
        """Run the smallest query of each subcommand once."""
        for kind in KINDS:
            of_kind = [q for q in self.queries if q.kind == kind]
            self._call(min(of_kind, key=lambda q: sum(q.params.values())))

    def check(self, query: Query, result) -> str | None:
        """Full check the first time a query is answered; later answers
        must be byte-identical to the first."""
        code, text, err = result
        digest = hashlib.sha256(f"{code}\0{text}".encode()).hexdigest()
        if query.verified is not None:
            first, reason = query.verified
            return reason if digest == first else "output differs from the first answer"
        if code != 0:
            reason = f"exit code {code}: {err.strip()[:200]}"
        else:
            try:
                reason = getattr(self, f"_check_{query.kind}")(query, json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"malformed output: {exc!r}"
        query.verified = (digest, reason)
        return reason

    # Each _check_<kind> returns None or the reason the output is wrong.

    def _profile(self, query: Query):
        d = query.doc
        return self.bt.IndexProfile(d["n"], d["I"], d["t"], d["N"])

    def _check_iterate(self, query: Query, out: dict) -> str | None:
        max_m = query.params["max_m"]
        if out["max_m"] != max_m or len(out["ind"]) != max_m:
            return "wrong length"
        rng = random.Random(query.check_seed)
        p = self._profile(query)
        for m in {1, min(2, max_m), log_uniform(rng, 1, max_m), log_uniform(rng, 1, max_m)}:
            if out["ind"][m - 1] != self.naive_index(p, m):
                return f"ind(c^{m}) differs from naive_index"
        return None

    def _check_jumps(self, query: Query, out: dict) -> str | None:
        horizon = query.params["horizon"]
        ks = out["k"]
        jump = 2 * query.doc["I"][0]
        if out["horizon"] != horizon or out["jump_size"] != jump:
            return "wrong horizon or jump size"
        if ks != sorted(set(ks)) or any(not 1 <= k <= horizon for k in ks):
            return "k list not increasing within [1, horizon]"
        rng = random.Random(query.check_seed)
        p = self._profile(query)
        for k in set(ks[:1] + [log_uniform(rng, 1, horizon)]):
            is_jump = self.naive_index(p, 2 * k + 1) - self.naive_index(p, 2 * k - 1) == jump
            if is_jump != (k in ks):
                return f"k = {k} disagrees with naive_index"
        return None

    def _check_morse(self, query: Query, out: dict) -> str | None:
        n, arcs = query.doc["n"], query.doc["I"]
        max_k = query.params["max_k"]
        w, b, q = out["w"], out["b"], out["q"]
        if out["max_degree"] != max_k or not len(w) == len(q) == max_k + 1:
            return "wrong table size"
        if b != [self.bt.betti_number(n, k) for k in range(max_k + 1)]:
            return "b differs from betti_number"
        if any(q[k] != w[k] - b[k] - (q[k - 1] if k else 0) for k in range(max_k + 1)):
            return "q does not solve w_k = b_k + q_k + q_{k-1}"
        violation = next((k for k, qk in enumerate(q) if qk < 0), None)
        if out["feasible"] != (violation is None) or out["first_violation"] != violation:
            return "feasibility verdict inconsistent with q"
        alpha = average(arcs, [Fraction(t) for t in query.doc["t"]])
        cutoff = max(1, math.ceil((max_k + n - 1) / alpha))
        m = log_uniform(random.Random(query.check_seed), 1, cutoff)
        if m % 2 == 0 or abs(parity_gamma(arcs)) == 1:
            k = self.naive_index(self._profile(query), m)
            if k <= max_k and w[k] < 1:
                return f"iterate m = {m} (degree {k}) missing from w"
        return None

    def _check_prop33(self, query: Query, out: dict) -> str | None:
        d = query.doc
        n, arcs = d["n"], d["I"]
        phases = [Fraction(t) for t in d["t"]]
        p = self._profile(query)
        ind1, ind2 = self.naive_index(p, 1), self.naive_index(p, 2)
        alpha, gamma = average(arcs, phases), parity_gamma(arcs)
        met = ind1 == n - 1 and ind2 >= n and alpha < 2 * abs(gamma)
        if out["hypotheses_met"] != met:
            return "hypotheses verdict differs"
        if not met:
            return None
        horizon = query.params.get("horizon", min(1000, min(t.denominator for t in phases) - 1))
        l = len(phases)
        conclusion_a = gamma == (-1) ** (n - 1) and alpha > 1 and ind2 == n + 1
        conclusion_b = (
            l >= 1 and arcs[0] == n - 1 and arcs[l - 1] == 1 and arcs[l] == 2
            and all(arcs[j] > arcs[j + 1] for j in range(l - 1))
        )
        expected = {
            "alpha": str(alpha), "gamma": str(gamma), "ind_c": ind1, "ind_c2": ind2,
            "conclusion_a": conclusion_a, "conclusion_b": conclusion_b, "horizon": horizon,
        }
        wrong = [key for key, value in expected.items() if out[key] != value]
        return f"prop33 fields differ: {wrong}" if wrong else None

    def _check_gaps(self, query: Query, out: dict) -> str | None:
        m = query.params["m"]
        p = self._profile(query)
        gap = self.naive_index(p, m + 1) - self.naive_index(p, m)
        if out["m"] != m or out["gap"] != gap or out["A_m"] + out["B_m"] != gap:
            return "gap differs from naive_index or from A_m + B_m"
        j_set = []
        if query.doc["t"]:
            # j/(m+1) < t_l < j/m  <=>  t_l * m < j < t_l * (m+1)
            t_last = Fraction(query.doc["t"][-1])
            lo, hi = t_last * m, t_last * (m + 1)
            j_set = [j for j in range(math.floor(lo) + 1, math.ceil(hi)) if 2 * j < m]
        return None if out["J_m"] == j_set else "J_m differs"

    def _check_alpha(self, query: Query, out: dict) -> str | None:
        alpha = average(query.doc["I"], [Fraction(t) for t in query.doc["t"]])
        return None if Fraction(out["alpha"]) == alpha else "alpha differs"

    def _check_gamma(self, query: Query, out: dict) -> str | None:
        return None if Fraction(out["gamma"]) == parity_gamma(query.doc["I"]) else "gamma differs"

    def _check_betti(self, query: Query, out: dict) -> str | None:
        n, max_k = int(query.argv[2]), query.params["max_k"]
        expected = {"n": n, "max_degree": max_k,
                    "b": [self.bt.betti_number(n, k) for k in range(max_k + 1)]}
        return None if out == expected else "b differs from betti_number"


# -- the named workloads ------------------------------------------------------

WORKLOADS = ("verify-ci", "verify-desk", "profile-queries")


def make_workload(name: str, bt, seed: int, workdir: Path, tiny: bool = False):
    """Build a named workload; `tiny` shrinks it for the self-tests."""
    if name == "verify-ci":
        # n = 8 alone takes about 8 s, too few repeats per run to be steady.
        ns = range(3, 6) if tiny else range(3, 8)
        return VerifyWorkload(bt, seed, 200, ns, 1, 499, load_expected())
    if name == "verify-desk":
        ns = range(3, 5) if tiny else range(3, 7)
        return VerifyWorkload(bt, seed, 10_000, ns, 1 if tiny else 4, 20011, load_expected())
    if name == "profile-queries":
        return QueryWorkload(bt, seed, workdir, blocks=2 if tiny else 150)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
