"""Command-line front end.

One subcommand per library operation, text profile documents in, CSV or
structured JSON out.  Data sections are byte-identical across runs with
identical inputs; diagnostics go to stderr.  Exit status: 0 on success,
2 on any input error, 1 for a verify run that reports survivors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HypothesesNotMet, PhaseCollision, PrecondViolation, ProfileFormatError
from .homology import betti_number, poincare_coefficients
from .iteration import bott_index, bott_index_sequence, gap_decomposition, jump_search
from .morse import aggregate_w, morse_q_recursion
from .profile import IndexProfile, average_index, gamma_invariant, profile_from_document
from .verifier import check_prop33, verify_theorem


def _load_profile(path: str) -> IndexProfile:
    with open(path, "r", encoding="utf-8") as handle:
        return profile_from_document(handle.read())


def _emit_csv(header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_structured(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _cmd_betti(args) -> int:
    table = poincare_coefficients(args.n, args.max_k)
    if args.format == "csv":
        _emit_csv("k,b_k", list(enumerate(table.ranks)))
    else:
        _emit_structured({"n": args.n, "max_degree": args.max_k, "b": list(table.ranks)})
    return 0


def _cmd_iterate(args) -> int:
    p = _load_profile(args.profile)
    seq = bott_index_sequence(p, args.max_m)
    if args.format == "csv":
        _emit_csv("m,ind", list(enumerate(seq, start=1)))
    else:
        _emit_structured({"max_m": args.max_m, "ind": seq})
    return 0


def _cmd_alpha(args) -> int:
    p = _load_profile(args.profile)
    alpha = average_index(p)
    if args.format == "csv":
        _emit_csv("field,value", [("alpha", alpha)])
    else:
        _emit_structured({"alpha": str(alpha)})
    return 0


def _cmd_gamma(args) -> int:
    p = _load_profile(args.profile)
    gamma = gamma_invariant(p)
    if args.format == "csv":
        _emit_csv("field,value", [("gamma", gamma)])
    else:
        _emit_structured({"gamma": str(gamma)})
    return 0


def _cmd_gaps(args) -> int:
    p = _load_profile(args.profile)
    a_m, b_m, j_set = gap_decomposition(p, args.m)
    gap = bott_index(p, args.m + 1) - bott_index(p, args.m)
    if args.format == "csv":
        _emit_csv(
            "field,value",
            [("m", args.m), ("A_m", a_m), ("B_m", b_m), ("gap", gap),
             ("J_m", ";".join(str(j) for j in sorted(j_set)))],
        )
    else:
        _emit_structured(
            {"m": args.m, "A_m": a_m, "B_m": b_m, "J_m": sorted(j_set), "gap": gap}
        )
    return 0


def _cmd_jumps(args) -> int:
    p = _load_profile(args.profile)
    ks = jump_search(p, args.horizon)
    if args.format == "csv":
        _emit_csv("k", [(k,) for k in ks])
    else:
        _emit_structured(
            {"horizon": args.horizon, "jump_size": 2 * p.index_at_one, "k": ks}
        )
    return 0


def _cmd_morse(args) -> int:
    p = _load_profile(args.profile)
    if p.n < 3:
        raise PrecondViolation(f"Betti numbers need n >= 3, profile has n = {p.n}")
    w = aggregate_w(p, args.max_k)
    b = [betti_number(p.n, k) for k in range(args.max_k + 1)]
    report = morse_q_recursion(w, b)
    if args.format == "csv":
        _emit_csv(
            "k,w_k,b_k,q_k",
            [(k, w[k], b[k], report.q[k]) for k in range(args.max_k + 1)],
        )
    else:
        _emit_structured(
            {
                "max_degree": args.max_k,
                "w": list(report.w),
                "b": b,
                "q": list(report.q),
                "feasible": report.feasible,
                "first_violation": report.first_violation,
            }
        )
    return 0


def _cmd_prop33(args) -> int:
    p = _load_profile(args.profile)
    try:
        report = check_prop33(p, horizon=args.horizon)
    except HypothesesNotMet as exc:
        payload = {"hypotheses_met": False, "detail": str(exc)}
        if args.format == "csv":
            _emit_csv("field,value", [("hypotheses_met", False), ("detail", str(exc))])
        else:
            _emit_structured(payload)
        return 0
    rows = [
        ("hypotheses_met", True),
        ("conclusion_a", report.conclusion_a),
        ("conclusion_b", report.conclusion_b),
        ("conclusion_c", report.conclusion_c),
        ("horizon", report.horizon),
    ]
    if args.format == "csv":
        _emit_csv("field,value", rows)
    else:
        _emit_structured(
            {
                "hypotheses_met": True,
                "alpha": str(report.hypotheses["alpha"]),
                "gamma": str(report.hypotheses["gamma"]),
                "ind_c": report.hypotheses["ind_c"],
                "ind_c2": report.hypotheses["ind_c2"],
                "conclusion_a": report.conclusion_a,
                "conclusion_b": report.conclusion_b,
                "conclusion_c": report.conclusion_c,
                "horizon": report.horizon,
            }
        )
    return 0


def _cmd_verify(args) -> int:
    summary = verify_theorem(args.n, args.horizon, args.q)
    if args.format == "csv":
        rows = [
            ("n", summary.n),
            ("horizon", summary.horizon),
            ("Q", summary.q),
            ("candidates", summary.candidates),
            ("contradicted", summary.contradicted),
            ("survivors", len(summary.survivors)),
        ]
        rows.extend((f"step:{step}", count) for step, count in summary.by_step.items())
        _emit_csv("field,value", rows)
    else:
        _emit_structured(summary.to_dict())
    if summary.survivors:
        print(
            f"verify: {len(summary.survivors)} candidate(s) consistent up to the "
            "horizon; see the survivors list",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottiter",
        description="Exact index-iteration calculus for closed-geodesic profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format",
            choices=("csv", "structured"),
            default="structured",
            help="output format (default: structured JSON)",
        )

    sp = sub.add_parser("betti", help="Betti numbers of the equivariant loop-space pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-k", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_betti)

    sp = sub.add_parser("iterate", help="ind(c^m) for m = 1..max-m")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--max-m", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_iterate)

    sp = sub.add_parser("alpha", help="exact average index")
    sp.add_argument("--profile", required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_alpha)

    sp = sub.add_parser("gamma", help="parity invariant in {+-1, +-1/2}")
    sp.add_argument("--profile", required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("gaps", help="endpoint/interior split of one index gap")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--m", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_gaps)

    sp = sub.add_parser("jumps", help="k with ind(c^{2k+1}) - ind(c^{2k-1}) = 2 ind(c)")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--horizon", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_jumps)

    sp = sub.add_parser("morse", help="w/b/q table up to max-k")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--max-k", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_morse)

    sp = sub.add_parser("prop33", help="staircase proposition re-verification")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--horizon", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_prop33)

    sp = sub.add_parser("verify", help="single-geodesic contradiction search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProfileFormatError, PrecondViolation, PhaseCollision, ValueError, OSError) as exc:
        print(f"bottiter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
