"""Command-line front end.

One subcommand per library operation, text profile documents in, CSV or
structured JSON out.  A subcommand computes one answer, and `main` writes
it in the requested format.  Data sections are byte-identical across runs
with identical inputs; diagnostics go to stderr.  Exit status: 0 on
success, 2 on any input error, 1 for a verify run that reports survivors.

Structured output is exactly the bytes of `json.dumps(obj, indent=2)`
plus a newline.  `_json_indent2` writes them through the C encoder, which
CPython uses only without `indent`, so a long list costs one C call.  The
printed columns are built in whole-column passes of C-level operations,
not one Python step per degree; only `morse`'s b column still asks
`betti_number` degree by degree (ROADMAP item 5).  Every subcommand is
declared once, as one entry of `_SUBCOMMANDS`, and every subcommand takes
`--format`.  `main` reads a plain argv, `name --flag value ...` with each
flag exact, once, and each value valid, straight from that table;
argparse handles help, errors and every other spelling, with a parser
built from the same table at most once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, NamedTuple

from .errors import HypothesesNotMet, PhaseCollision, PrecondViolation
from .homology import betti_number, betti_table, check_table_request
from .iteration import bott_index_sequence, gap_decomposition, jump_search
from .morse import aggregate_w, morse_q_recursion
from .profile import IndexProfile, average_index, gamma_invariant, profile_from_document
from .verifier import check_prop33, verify_theorem


def _load_profile(path: str) -> IndexProfile:
    with open(path, "r", encoding="utf-8") as handle:
        return profile_from_document(handle.read())


class _Answer(NamedTuple):
    """What a subcommand computed, in both output formats.

    `rows` may be a lazy iterator over values already computed; `notice`
    goes to stderr after the output.
    """

    header: str
    rows: Iterable
    document: object
    status: int = 0
    notice: str = ""


def _emit_csv(header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")


def _json_indent2(obj, pad: str = "") -> str:
    """`json.dumps(obj, indent=2)` for str-keyed dicts, lists and scalars.

    A list is first encoded flat in one C call: with ",\n" and the next
    indent as the item separator, its items come out one per line.  That
    is the indented text unless an item is itself a container, which shows
    as a `[` or `{` in the body; only then (or when a string item holds
    one of them) are the items encoded one by one.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        body = ",\n".join(
            f"{inner}{json.dumps(key)}: {_json_indent2(value, inner)}"
            for key, value in obj.items()
        )
        return f"{{\n{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        if "[" in body or "{" in body:
            body = ",\n".join(inner + _json_indent2(item, inner) for item in obj)
        else:
            body = inner + body
        return f"[\n{body}\n{pad}]"
    return json.dumps(obj)


def _emit_structured(obj) -> None:
    sys.stdout.write(_json_indent2(obj) + "\n")


def _cmd_betti(args) -> _Answer:
    check_table_request(args.n, args.max_k)
    ranks = betti_table(args.n, args.max_k).ranks
    return _Answer("k,b_k", enumerate(ranks), {"n": args.n, "max_degree": args.max_k, "b": ranks})


def _cmd_iterate(args) -> _Answer:
    seq = bott_index_sequence(_load_profile(args.profile), args.max_m)
    return _Answer("m,ind", enumerate(seq, start=1), {"max_m": args.max_m, "ind": seq})


def _cmd_alpha(args) -> _Answer:
    alpha = average_index(_load_profile(args.profile))
    return _Answer("field,value", [("alpha", alpha)], {"alpha": str(alpha)})


def _cmd_gamma(args) -> _Answer:
    gamma = gamma_invariant(_load_profile(args.profile))
    return _Answer("field,value", [("gamma", gamma)], {"gamma": str(gamma)})


def _cmd_gaps(args) -> _Answer:
    a_m, b_m, j_set = gap_decomposition(_load_profile(args.profile), args.m)
    j_m = sorted(j_set)
    gap = a_m + b_m
    return _Answer(
        "field,value",
        [("m", args.m), ("A_m", a_m), ("B_m", b_m), ("gap", gap),
         ("J_m", ";".join(map(str, j_m)))],
        {"m": args.m, "A_m": a_m, "B_m": b_m, "J_m": j_m, "gap": gap},
    )


def _cmd_jumps(args) -> _Answer:
    p = _load_profile(args.profile)
    ks = jump_search(p, args.horizon)
    return _Answer(
        "k", zip(ks), {"horizon": args.horizon, "jump_size": 2 * p.index_at_one, "k": ks}
    )


def _cmd_morse(args) -> _Answer:
    p = _load_profile(args.profile)
    if p.n < 3:
        raise PrecondViolation(f"Betti numbers need n >= 3, profile has n = {p.n}")
    w = aggregate_w(p, args.max_k)
    b = [betti_number(p.n, k) for k in range(args.max_k + 1)]
    report = morse_q_recursion(w, b)
    return _Answer(
        "k,w_k,b_k,q_k",
        zip(range(args.max_k + 1), w, b, report.q),
        {
            "max_degree": args.max_k,
            "w": report.w,
            "b": b,
            "q": report.q,
            "feasible": report.feasible,
            "first_violation": report.first_violation,
        },
    )


def _cmd_prop33(args) -> _Answer:
    p = _load_profile(args.profile)
    try:
        report = check_prop33(p, horizon=args.horizon)
    except HypothesesNotMet as exc:
        rows = [("hypotheses_met", False), ("detail", str(exc))]
        return _Answer("field,value", rows, dict(rows))
    conclusions = {
        "conclusion_a": report.conclusion_a,
        "conclusion_b": report.conclusion_b,
        "conclusion_c": report.conclusion_c,
        "horizon": report.horizon,
    }
    return _Answer(
        "field,value",
        [("hypotheses_met", True), *conclusions.items()],
        {
            "hypotheses_met": True,
            "alpha": str(report.hypotheses["alpha"]),
            "gamma": str(report.hypotheses["gamma"]),
            "ind_c": report.hypotheses["ind_c"],
            "ind_c2": report.hypotheses["ind_c2"],
            **conclusions,
        },
    )


def _cmd_verify(args) -> _Answer:
    summary = verify_theorem(args.n, args.horizon, args.q)
    survivors = len(summary.survivors)
    rows = [
        ("n", summary.n),
        ("horizon", summary.horizon),
        ("Q", summary.q),
        ("candidates", summary.candidates),
        ("contradicted", summary.contradicted),
        ("survivors", survivors),
        *((f"step:{step}", count) for step, count in summary.by_step.items()),
    ]
    if not survivors:
        return _Answer("field,value", rows, summary.to_dict())
    notice = (
        f"verify: {survivors} candidate(s) consistent up to the horizon; see the survivors list"
    )
    return _Answer("field,value", rows, summary.to_dict(), 1, notice)


# name, help, handler, options as (flag, type, required)
_SUBCOMMANDS = (
    ("betti", "Betti numbers of the equivariant loop-space pair", _cmd_betti,
     (("--n", int, True), ("--max-k", int, True))),
    ("iterate", "ind(c^m) for m = 1..max-m", _cmd_iterate,
     (("--profile", str, True), ("--max-m", int, True))),
    ("alpha", "exact average index", _cmd_alpha, (("--profile", str, True),)),
    ("gamma", "parity invariant in {+-1, +-1/2}", _cmd_gamma, (("--profile", str, True),)),
    ("gaps", "endpoint/interior split of one index gap", _cmd_gaps,
     (("--profile", str, True), ("--m", int, True))),
    ("jumps", "k with ind(c^{2k+1}) - ind(c^{2k-1}) = 2 ind(c)", _cmd_jumps,
     (("--profile", str, True), ("--horizon", int, True))),
    ("morse", "w/b/q table up to max-k", _cmd_morse,
     (("--profile", str, True), ("--max-k", int, True))),
    ("prop33", "staircase proposition re-verification", _cmd_prop33,
     (("--profile", str, True), ("--horizon", int, False))),
    ("verify", "single-geodesic contradiction search", _cmd_verify,
     (("--n", int, True), ("--horizon", int, True), ("--q", int, True))),
)


_FORMATS = ("csv", "structured")


def _format_choice(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(f"invalid format {value!r}")
    return value


def _plain_entry(handler, options):
    """(handler, {flag: (dest, type)}, required flags, argparse's defaults)."""
    flags = {flag: (flag[2:].replace("-", "_"), kind) for flag, kind, _ in options}
    required = {flag for flag, _, needed in options if needed}
    defaults = {dest: None for dest, _ in flags.values()}
    flags["--format"] = ("format", _format_choice)
    return handler, flags, required, {**defaults, "format": "structured"}


_PLAIN = {name: _plain_entry(handler, options) for name, _, handler, options in _SUBCOMMANDS}


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The Namespace `_build_parser().parse_args(argv)` returns, for an argv
    in plain form; None for any other argv.

    Plain is `[name, flag, value, ...]`: each flag exactly one of the
    subcommand's or `--format`, at most once, every required flag present,
    and each value a string not starting with "-" that converts with the
    flag's type.  Help, every error, abbreviations, `--flag=value`,
    negative values and repeated flags are left to argparse.
    """
    entry = _PLAIN.get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    handler, options, required, defaults = entry
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2 or not required <= given.keys():
        return None
    fields = dict(defaults)
    for flag, value in given.items():
        option = options.get(flag)
        if option is None or not isinstance(value, str) or value.startswith("-"):
            return None
        dest, kind = option
        try:
            fields[dest] = kind(value)
        except ValueError:
            return None
    return argparse.Namespace(command=argv[0], **fields, func=handler)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottiter",
        description="Exact index-iteration calculus for closed-geodesic profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, kind, required in options:
            sp.add_argument(flag, type=kind, required=required)
        sp.add_argument(
            "--format",
            choices=_FORMATS,
            default="structured",
            help="output format (default: structured JSON)",
        )
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        answer = args.func(args)
        if args.format == "csv":
            _emit_csv(answer.header, answer.rows)
        else:
            _emit_structured(answer.document)
        if answer.notice:
            print(answer.notice, file=sys.stderr)
        return answer.status
    except (PhaseCollision, ValueError, OSError) as exc:
        print(f"bottiter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
