"""End-to-end CLI checks: formats, exit codes, reproducibility."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import bottiter
from bottiter import cli, profile_from_document, validate_profile

RUNNING = '{ "n": 4, "I": [3,2,1,2], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }'


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(RUNNING)
    return str(path)


# The child process imports the same bottiter as the tests, installed or not.
_SRC = os.path.dirname(os.path.dirname(bottiter.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "bottiter.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_iterate_table(profile_path):
    result = run_cli("iterate", "--profile", profile_path, "--max-m", "10", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "m,ind"
    assert lines[1:6] == ["1,3", "2,5", "3,7", "4,7", "5,9"]


def test_betti_csv_matches_series():
    result = run_cli("betti", "--n", "4", "--max-k", "10", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "k,b_k"
    ranks = [int(line.split(",")[1]) for line in lines[1:]]
    assert ranks == [0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0]
    assert ranks == list(bottiter.poincare_coefficients(4, 10).ranks)


def test_alpha_gamma_structured(profile_path):
    alpha = run_cli("alpha", "--profile", profile_path)
    assert json.loads(alpha.stdout) == {"alpha": "178/97"}
    gamma = run_cli("gamma", "--profile", profile_path)
    assert json.loads(gamma.stdout) == {"gamma": "-1"}


def test_gaps(profile_path):
    result = run_cli("gaps", "--profile", profile_path, "--m", "3")
    payload = json.loads(result.stdout)
    assert payload == {"m": 3, "A_m": 2, "B_m": -2, "J_m": [1], "gap": 0}


def test_jumps(profile_path):
    result = run_cli("jumps", "--profile", profile_path, "--horizon", "40")
    payload = json.loads(result.stdout)
    assert payload["k"][0] == 4
    assert payload["jump_size"] == 6


def test_morse_csv(profile_path):
    result = run_cli("morse", "--profile", profile_path, "--max-k", "8", "--format", "csv")
    lines = result.stdout.splitlines()
    assert lines[0] == "k,w_k,b_k,q_k"
    assert lines[8] == "7,2,1,1"
    assert lines[9] == "8,0,0,-1"


def test_prop33(profile_path):
    result = run_cli("prop33", "--profile", profile_path)
    payload = json.loads(result.stdout)
    assert payload["hypotheses_met"] is True
    assert payload["conclusion_a"] and payload["conclusion_b"] and payload["conclusion_c"]
    assert payload["horizon"] == 96


def test_verify_status_zero():
    result = run_cli("verify", "--n", "3", "--horizon", "200", "--q", "499")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["survivors"] == []
    assert payload["candidates"] == payload["contradicted"]
    assert set(payload) == {"n", "horizon", "Q", "candidates", "contradicted", "by_step", "survivors"}


def test_verify_status_one_with_survivor():
    # With Q > 3H the gap-bound witness (near m = Q/3) lies beyond the
    # horizon, and one n = 6 candidate is consistent up to it.
    result = run_cli("verify", "--n", "6", "--horizon", "200", "--q", "601")
    assert result.returncode == 1
    assert "verify: 1 candidate(s) consistent up to the horizon" in result.stderr
    payload = json.loads(result.stdout)
    assert payload["candidates"] == payload["contradicted"] + 1
    [survivor] = payload["survivors"]
    assert validate_profile(profile_from_document(survivor)) == []


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{ "n": 4, "I": [3,2,1,2], "t": ["13/97","10/97","31/97"], "N": [1,1,1] }')
    result = run_cli("alpha", "--profile", str(bad))
    assert result.returncode == 2
    assert "strictly increasing" in result.stderr
    assert result.stdout == ""

    missing = run_cli("alpha", "--profile", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text('{ "n": 4, "I": [3,2,1], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }')
    result = run_cli("alpha", "--profile", str(mismatch))
    assert result.returncode == 2
    assert "length mismatch" in result.stderr


@pytest.mark.parametrize("n,horizon,q", [("3", "0", "3"), ("3", "-5", "3"), ("4", "2", "7")])
def test_verify_short_horizon_exit_2(n, horizon, q):
    code, out, err = run_in_process("verify", "--n", n, "--horizon", horizon, "--q", q)
    assert (code, out, err) == (2, "", f"bottiter: horizon = {horizon} must be >= 3\n")


@pytest.mark.parametrize("fmt", [(), ("--format", "csv")], ids=["structured", "csv"])
def test_morse_needs_n_at_least_3(fmt, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text('{ "n": 2, "I": [1, 2], "t": ["1/5"], "N": [1] }')
    code, out, err = run_in_process("morse", "--profile", str(path), "--max-k", "4", *fmt)
    assert (code, out, err) == (
        2, "", "bottiter: Betti numbers need n >= 3, profile has n = 2\n"
    )


def test_invalid_profile_reports_its_first_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{ "n": 3, "I": [-1, 0, 0], "t": ["1/5", "1/2"], "N": [0, 1] }')
    code, out, err = run_in_process("alpha", "--profile", str(path))
    assert (code, out, err) == (2, "", "bottiter: arc value I_1 = -1 is negative\n")


@pytest.mark.parametrize("horizon", ["0", "-3"])
@pytest.mark.parametrize(
    "document", [RUNNING, '{ "n": 3, "I": [2], "t": [], "N": [] }'], ids=["met", "unmet"]
)
def test_prop33_horizon_must_be_positive(horizon, document, tmp_path):
    # Refused before the hypotheses are checked, so an out-of-scope
    # profile is refused too.
    path = tmp_path / "p.json"
    path.write_text(document)
    code, out, err = run_in_process("prop33", "--profile", str(path), "--horizon", horizon)
    assert (code, out, err) == (2, "", f"bottiter: horizon = {horizon} must be positive\n")


def test_unknown_flag_rejected(profile_path):
    result = run_cli("alpha", "--profile", profile_path, "--frobnicate")
    assert result.returncode == 2


def test_collision_is_input_error(profile_path):
    result = run_cli("iterate", "--profile", profile_path, "--max-m", "100")
    assert result.returncode == 2
    assert "collides" in result.stderr


def test_byte_identical_reruns(profile_path):
    for args in (
        ("betti", "--n", "5", "--max-k", "30", "--format", "csv"),
        ("iterate", "--profile", profile_path, "--max-m", "20"),
        ("verify", "--n", "3", "--horizon", "100", "--q", "499"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def run_in_process(*args):
    """(exit code, stdout, stderr) of one `cli.main` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse errors and --help exit this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cases(profile_path, tmp_path):
    """Calls that reach every subcommand and the output shapes each has."""
    unmet = tmp_path / "unmet.json"
    unmet.write_text('{ "n": 3, "I": [2], "t": [], "N": [] }')
    return [
        ("betti", "--n", "4", "--max-k", "10"),
        ("betti", "--n", "4", "--max-k", "0"),
        ("iterate", "--profile", profile_path, "--max-m", "10"),
        ("alpha", "--profile", profile_path),
        ("gamma", "--profile", profile_path),
        ("gaps", "--profile", profile_path, "--m", "3"),
        ("gaps", "--profile", profile_path, "--m", "1"),
        ("jumps", "--profile", profile_path, "--horizon", "40"),
        ("jumps", "--profile", profile_path, "--horizon", "3"),
        ("morse", "--profile", profile_path, "--max-k", "8"),
        ("morse", "--profile", profile_path, "--max-k", "2"),
        ("prop33", "--profile", profile_path),
        ("prop33", "--profile", str(unmet)),
        ("verify", "--n", "3", "--horizon", "200", "--q", "499"),
        ("verify", "--n", "6", "--horizon", "200", "--q", "601"),
    ]


def test_structured_output_is_indent2_json(cases):
    # Flat lists go through the C encoder one call each; the bytes must
    # still be those of json.dumps(payload, indent=2).
    payloads = {}
    for args in cases:
        code, out, _ = run_in_process(*args)
        assert code in (0, 1), args
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n", args
        payloads[args] = payload
    # The cases reach the shapes the writer treats apart.
    assert payloads[cases[6]]["J_m"] == [] and payloads[cases[8]]["k"] == []
    assert payloads[cases[10]]["first_violation"] is None
    assert payloads[cases[9]]["feasible"] is False
    assert payloads[cases[12]]["hypotheses_met"] is False
    assert payloads[cases[13]]["survivors"] == []
    assert isinstance(payloads[cases[14]]["by_step"], dict)
    [survivor] = payloads[cases[14]]["survivors"]
    assert validate_profile(profile_from_document(survivor)) == []


def test_csv_output_bytes(cases):
    # Field order (gap before J_m, J_m joined by ";"), the True/False
    # spellings, the bare header of an empty jumps list, and verify's
    # step: rows with exit 1 when a candidate survives.
    steps = ("index-of-prime", "second-iterate", "average-relation", "prop33-hypotheses",
             "morse-feasibility", "gap-bound", "jump-clash", "phase-infeasible")
    expected = [
        (0, "k,b_k\n0,0\n1,0\n2,0\n3,1\n4,0\n5,1\n6,0\n7,1\n8,0\n9,2\n10,0\n"),
        (0, "k,b_k\n0,0\n"),
        (0, "m,ind\n1,3\n2,5\n3,7\n4,7\n5,9\n6,11\n7,11\n8,15\n9,17\n10,19\n"),
        (0, "field,value\nalpha,178/97\n"),
        (0, "field,value\ngamma,-1\n"),
        (0, "field,value\nm,3\nA_m,2\nB_m,-2\ngap,0\nJ_m,1\n"),
        (0, "field,value\nm,1\nA_m,2\nB_m,0\ngap,2\nJ_m,\n"),
        (0, "k\n4\n7\n10\n19\n24\n26\n29\n34\n37\n"),
        (0, "k\n"),
        (0, "k,w_k,b_k,q_k\n0,0,0,0\n1,0,0,0\n2,0,0,0\n3,1,1,0\n4,0,0,0\n5,1,1,0\n"
            "6,0,0,0\n7,2,1,1\n8,0,0,-1\n"),
        (0, "k,w_k,b_k,q_k\n0,0,0,0\n1,0,0,0\n2,0,0,0\n"),
        (0, "field,value\nhypotheses_met,True\nconclusion_a,True\nconclusion_b,True\n"
            "conclusion_c,True\nhorizon,96\n"),
        (0, "field,value\nhypotheses_met,False\n"
            "detail,hypotheses not met: ind(c)=2, ind(c^2)=4, alpha=2, gamma=1\n"),
        (0, "field,value\nn,3\nhorizon,200\nQ,499\ncandidates,104\ncontradicted,104\n"
            "survivors,0\n"
            + "".join(f"step:{step},{count}\n"
                      for step, count in zip(steps, (54, 2, 16, 0, 0, 0, 0, 32), strict=True))),
        (1, "field,value\nn,6\nhorizon,200\nQ,601\ncandidates,18444\ncontradicted,18443\n"
            "survivors,1\n"
            + "".join(f"step:{step},{count}\n"
                      for step, count in zip(steps, (13358, 16, 1742, 0, 0, 7, 0, 3320),
                                             strict=True))),
    ]
    for args, want in zip(cases, expected, strict=True):
        code, out, _ = run_in_process(*args, "--format", "csv")
        assert (code, out) == want, args


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        None,
        {"a": [], "b": {}, "c": [[1, [2, []]], {"d": None}],
         "e": [True, False, 1.5, "x\"\n\u00e9"]},
        [[1, 2], [3], ["s"]],
        {"t": (1, (2, 3))},
        # A `[` or `{` in a string sends a flat list down the per-item path,
        # as a nested container does; both give json.dumps's bytes.
        ["[", "{", "]", "}", '"', '"[', "a{b}", "\\["],
        [1, "[1, 2]", None, '{"k": 1}', True, 2.5],
        {"s": ["x[", "y{"], "t": ('"', "[]")},
        [[], ()],
        [{"k": 1}, {}],
        [[[]], [(), [()]]],
        {"e": [[], {}], "f": ([],)},
        (("[",), "{"),
        list(range(-5000, 5001)),
    ],
)
def test_indent2_writer_on_nested_values(obj):
    assert cli._json_indent2(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("fmt", [(), ("--format", "csv")])
@pytest.mark.parametrize(
    "n,max_k,message",
    [
        ("2", "5", "n = 2 must be >= 3"),
        ("-1", "0", "n = -1 must be >= 3"),
        ("4", "-1", "max_degree = -1 must be >= 0"),
        ("3", "-7", "max_degree = -7 must be >= 0"),
        ("2", "-1", "n = 2 must be >= 3"),
        ("0", "-5", "n = 0 must be >= 3"),
    ],
)
def test_betti_input_errors(n, max_k, message, fmt):
    # The n check comes first, then the degree check, in both formats.
    code, out, err = run_in_process("betti", "--n", n, "--max-k", max_k, *fmt)
    assert (code, out, err) == (2, "", f"bottiter: {message}\n")


def test_repeated_main_calls_match_fresh_processes(profile_path, tmp_path, monkeypatch):
    # One process answering many calls, with argparse errors and bad
    # profiles in between, prints what a fresh process prints for each.
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at this width
    bad = tmp_path / "bad.json"
    bad.write_text('{ "n": 4, "I": [3,2,1,2], "t": ["13/97","10/97","31/97"], "N": [1,1,1] }')
    calls = [
        ("gaps", "--profile", profile_path, "--m", "4"),
        ("alpha", "--profile", profile_path, "--frobnicate"),
        ("morse", "--profile", profile_path, "--max-k", "8", "--format", "csv"),
        ("alpha", "--profile", str(bad)),
        ("iterate", "--profile", profile_path, "--max-m", "100"),
        ("--help",),
        ("iterate", "--help"),
        ("betti", "--n", "5", "--max-k", "12"),
        ("verify", "--n", "6", "--horizon", "200", "--q", "601", "--format", "csv"),
        ("gaps", "--profile", profile_path),
        ("gaps", "--profile", profile_path, "--m", "4"),
    ]
    builds = cli._build_parser.cache_info().misses
    codes = []
    for args in calls:
        fresh = run_cli(*args)
        code, out, err = run_in_process(*args)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), args
        codes.append(code)
    assert codes == [0, 2, 0, 2, 2, 0, 0, 0, 1, 2, 0]
    assert cli._build_parser.cache_info().misses <= max(builds, 1)


# The usage lines each subcommand prints at COLUMNS=80, and the options it
# requires.
USAGE = {
    "betti": "usage: bottiter betti [-h] --n N --max-k MAX_K [--format {csv,structured}]\n",
    "iterate": "usage: bottiter iterate [-h] --profile PROFILE --max-m MAX_M\n"
               "                        [--format {csv,structured}]\n",
    "alpha": "usage: bottiter alpha [-h] --profile PROFILE [--format {csv,structured}]\n",
    "gamma": "usage: bottiter gamma [-h] --profile PROFILE [--format {csv,structured}]\n",
    "gaps": "usage: bottiter gaps [-h] --profile PROFILE --m M [--format {csv,structured}]\n",
    "jumps": "usage: bottiter jumps [-h] --profile PROFILE --horizon HORIZON\n"
             "                      [--format {csv,structured}]\n",
    "morse": "usage: bottiter morse [-h] --profile PROFILE --max-k MAX_K\n"
             "                      [--format {csv,structured}]\n",
    "prop33": "usage: bottiter prop33 [-h] --profile PROFILE [--horizon HORIZON]\n"
              "                       [--format {csv,structured}]\n",
    "verify": "usage: bottiter verify [-h] --n N --horizon HORIZON --q Q\n"
              "                       [--format {csv,structured}]\n",
}
REQUIRED = {
    "betti": "--n, --max-k",
    "iterate": "--profile, --max-m",
    "alpha": "--profile",
    "gamma": "--profile",
    "gaps": "--profile, --m",
    "jumps": "--profile, --horizon",
    "morse": "--profile, --max-k",
    "prop33": "--profile",
    "verify": "--n, --horizon, --q",
}


@pytest.mark.parametrize("command", list(USAGE))
def test_usage_and_missing_options_bytes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_in_process(command, "--help")
    assert (code, out.split("\n\n")[0] + "\n", err) == (0, USAGE[command], "")
    assert run_in_process(command) == (
        2,
        "",
        USAGE[command]
        + f"bottiter {command}: error: the following arguments are required: {REQUIRED[command]}\n",
    )


# Tokens for argv the plain reader must either read as argparse does or
# leave to argparse: exact, abbreviated and `--flag=value` flags, and values
# that int() accepts in odd spellings, negative numbers and option-like text.
_NAMES = [name for name, *_ in cli._SUBCOMMANDS] + ["bogus", "--help", ""]
_FLAGS = sorted({flag for *_, options in cli._SUBCOMMANDS for flag, _, _ in options}
                | {"--format", "-h", "--help"})
_FLAGS += ["--max", "--prof", "--hor", "--form", "--n=3", "--profile=x", "--format=csv"]
_VALUES = ["3", "-3", " 5", "\u0663", "1_000", "x", "", "csv", "bogus", "--", "-x"]
_READABLE = {int: ["3", " 5", "\u0663", "1_000"], str: ["x", "", "csv"]}


@st.composite
def _near_plain_argv(draw):
    """A subcommand's own flags in any order, each kept with odds 3:1, maybe
    one more flag; each value readable for its flag with odds 3:1, else
    drawn from every value."""
    odds = st.integers(0, 3)
    name, _, _, options = draw(st.sampled_from(cli._SUBCOMMANDS))
    readable = {flag: _READABLE[kind] for flag, kind, _ in options}
    readable["--format"] = ["csv", "structured"]
    flags = [flag for flag in draw(st.permutations(list(readable))) if draw(odds)]
    if not draw(odds):
        flags.append(draw(st.sampled_from(_FLAGS)))
    argv = [name if draw(odds) else draw(st.sampled_from(_NAMES))]
    for flag in flags:
        values = readable.get(flag, _VALUES) if draw(odds) else _VALUES
        argv += [flag, draw(st.sampled_from(values))]
    return argv


_ARGV = _near_plain_argv() | st.lists(st.sampled_from(_NAMES + _FLAGS + _VALUES), max_size=7)


@settings(max_examples=1500, deadline=None)
@given(_ARGV)
def test_plain_reader_declines_or_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = cli._build_parser().parse_args(argv)
        except SystemExit:
            parsed = None
    assert plain is None or plain == parsed
    if plain is not None:
        assert list(vars(plain)) == list(vars(parsed))


def test_plain_calls_never_build_the_parser(cases, profile_path, monkeypatch):
    # Every call reaching a subcommand, and each argv shape profile-queries
    # sends (prop33 with and without --horizon), answers without argparse
    # with the bytes argparse's path gives.
    calls = [*cases, ("prop33", "--profile", profile_path, "--horizon", "40")]
    calls += [(*args, "--format", "csv") for args in calls]

    def no_parser():
        raise AssertionError("argparse parser built for a plain argv")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_plain_args", lambda argv: None)
        expected = [run_in_process(*args) for args in calls]
    monkeypatch.setattr(cli, "_build_parser", no_parser)
    for args, want in zip(calls, expected, strict=True):
        assert run_in_process(*args) == want, args
