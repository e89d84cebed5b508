"""End-to-end CLI checks: formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bottiter import profile_from_document, validate_profile

RUNNING = '{ "n": 4, "I": [3,2,1,2], "t": ["10/97","13/97","31/97"], "N": [1,1,1] }'


@pytest.fixture
def profile_path(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(RUNNING)
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bottiter.cli", *args],
        capture_output=True,
        text=True,
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
