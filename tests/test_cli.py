"""End-to-end checks of the ``pivot`` command line."""

import json
import subprocess
import sys

import pytest

from irvpivot import BallotProfile


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "irvpivot.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def profile_path(tmp_path):
    prof = BallotProfile(
        3,
        {(0, 1, 2): 12.0, (1, 2, 0): 10.0, (2, 0, 1): 9.0, (0, 2, 1): 8.0,
         (1, 0, 2): 6.0, (2, 1, 0): 5.0},
    )
    path = tmp_path / "profile.json"
    prof.dump(path)
    return str(path)


def test_compute(profile_path):
    res = run_cli("compute", "--profile", profile_path, "--ballot", "0,2,1")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["ballot"] == [0, 2, 1]
    assert payload["p_total"] == payload["p_direct"] + payload["p_indirect"]
    assert payload["expected_utility"] is None


def test_compute_with_events_and_utilities(profile_path):
    res = run_cli(
        "compute", "--profile", profile_path, "--ballot", "0",
        "--utilities", "1,0.5,0", "--events",
    )
    payload = json.loads(res.stdout)
    assert payload["expected_utility"] is not None
    assert payload["events"], "expected an event dump"


def test_sweep(profile_path):
    res = run_cli("sweep", "--profile", profile_path, "--full-length-only")
    payload = json.loads(res.stdout)
    assert len(payload) == 6
    res_all = run_cli("sweep", "--profile", profile_path)
    assert len(json.loads(res_all.stdout)) == 15


def test_smdp(profile_path):
    res = run_cli("smdp", "--profile", profile_path)
    payload = json.loads(res.stdout)
    assert len(payload) == 3
    assert all(p["p_indirect"] == 0.0 for p in payload)
    res2 = run_cli("smdp", "--profile", profile_path, "--pairwise-approx")
    assert json.loads(res2.stdout) != payload


def test_oracle(profile_path):
    res = run_cli(
        "oracle", "--profile", profile_path, "--ballot", "0",
        "--draws", "20000", "--seed", "3",
    )
    payload = json.loads(res.stdout)
    assert payload["draws_used"] == 20000
    assert payload["p_total_hat"] == payload["p_direct_hat"] + payload["p_indirect_hat"]
    res2 = run_cli(
        "oracle", "--profile", profile_path, "--ballot", "0",
        "--draws", "20000", "--seed", "3",
    )
    assert res2.stdout == res.stdout


def test_experiment_reproducible_csv(tmp_path):
    args = (
        "experiment", "--dist", "powerlaw", "--kappas", "2,3", "--voters", "40",
        "--runs", "2", "--base-seed", "9",
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "run_id,kappa,system,distribution,total_pivot,seconds"


def test_experiment_dat_output(tmp_path):
    out = tmp_path / "r.csv"
    dat = tmp_path / "r.dat"
    res = run_cli(
        "experiment", "--dist", "uniform", "--kappas", "2", "--voters", "30",
        "--runs", "1", "--out", str(out), "--dat", str(dat),
    )
    assert res.returncode == 0, res.stderr
    assert dat.read_text().startswith("# run_id kappa system distribution total_pivot")


def test_tail_eps_env_override(profile_path):
    import os

    env = dict(os.environ, PIVOT_TAIL_EPS="not-a-number")
    res = run_cli("compute", "--profile", profile_path, "--ballot", "0", env=env)
    assert res.returncode != 0
    env = dict(os.environ, PIVOT_TAIL_EPS="1e-9")
    res = run_cli("compute", "--profile", profile_path, "--ballot", "0", env=env)
    assert res.returncode == 0


@pytest.mark.parametrize("flag, env_value, message", [
    (("--tail-eps", "-1"), None, "pivot: tail_eps must be in (0, 1), got -1.0"),
    ((), "bogus", "pivot: could not convert string to float: 'bogus'"),
], ids=["flag", "env"])
def test_oracle_validates_tail_eps(profile_path, flag, env_value, message):
    import os

    env = dict(os.environ)
    env.pop("PIVOT_TAIL_EPS", None)
    if env_value is not None:
        env["PIVOT_TAIL_EPS"] = env_value
    res = run_cli(
        "oracle", "--profile", profile_path, "--ballot", "0", "--draws", "10", *flag, env=env
    )
    assert res.returncode == 1
    assert res.stderr == message + "\n" and res.stdout == ""


@pytest.mark.parametrize("command", ["compute", "sweep", "smdp", "oracle", "experiment"])
def test_tail_eps_help(command):
    res = run_cli(command, "--help")
    assert res.returncode == 0, res.stderr
    text = " ".join(res.stdout.split())
    assert "--tail-eps TAIL_EPS series truncation bound (default PIVOT_TAIL_EPS or 1e-12)" in text


def test_overflowing_utilities_message(profile_path):
    res = run_cli(
        "compute", "--profile", profile_path, "--ballot", "2,1,0",
        "--utilities", "1e308,-1e308,0",
    )
    assert res.returncode == 1
    assert res.stderr.startswith("pivot: utility differences overflow")
    assert "Traceback" not in res.stderr


def test_bad_ballot_message(profile_path):
    res = run_cli("compute", "--profile", profile_path, "--ballot", "zero")
    assert res.returncode != 0
    assert "cannot parse ballot" in res.stderr


def test_malformed_profile_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kappa": 3}')
    res = run_cli("compute", "--profile", str(path), "--ballot", "0")
    assert res.returncode != 0
    assert res.stderr.strip() == "pivot: profile lacks the 'rates' field"


def test_malformed_profile_entry_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kappa": 3, "rates": [{"ranking": 0, "rate": 1.0}]}')
    res = run_cli("compute", "--profile", str(path), "--ballot", "0")
    assert res.returncode == 1
    assert res.stderr.startswith("pivot: malformed profile")
    assert "Traceback" not in res.stderr


def test_non_integral_candidate_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kappa": 3, "rates": [{"ranking": [1.7], "rate": 1.0}]}')
    res = run_cli("compute", "--profile", str(path), "--ballot", "0")
    assert res.returncode == 1
    assert res.stderr.strip() == "pivot: candidate id must be an integer, got 1.7"


def test_string_rate_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kappa": 3, "rates": [{"ranking": [1], "rate": "1.5"}]}')
    res = run_cli("compute", "--profile", str(path), "--ballot", "0")
    assert res.returncode == 1
    assert res.stderr.strip() == "pivot: malformed profile: 'rate' must be a number, got '1.5'"


def test_experiment_refuses_kappa_beyond_the_engine(tmp_path):
    out = tmp_path / "r.csv"
    res = run_cli("experiment", "--kappas", "3,8", "--runs", "1", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("pivot: pivot events are enumerated for at most 7")
    assert "kappa=8" in res.stderr and not out.exists()


@pytest.mark.parametrize("command, args", [
    ("compute", ("--ballot", "0")),
    ("sweep", ()),
    ("smdp", ()),
    ("oracle", ("--ballot", "0", "--draws", "10")),
])
def test_unreadable_profile_message(tmp_path, command, args):
    path = tmp_path / "missing.json"
    res = run_cli(command, "--profile", str(path), *args)
    assert res.returncode == 1
    assert res.stderr.startswith("pivot: [Errno 2] No such file or directory")
    assert str(path) in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("flag", ["--out", "--dat"])
def test_unwritable_output_message(tmp_path, flag):
    bad = tmp_path / "no-such-dir" / "r.txt"
    paths = {"--out": str(tmp_path / "r.csv"), "--dat": str(tmp_path / "r.dat")}
    paths[flag] = str(bad)
    res = run_cli(
        "experiment", "--dist", "uniform", "--kappas", "2", "--voters", "30",
        "--runs", "1", "--out", paths["--out"], "--dat", paths["--dat"],
    )
    assert res.returncode == 1
    assert res.stderr.startswith("pivot: [Errno 2] No such file or directory")
    assert str(bad) in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("voters", ["nan", "inf", "0"])
def test_experiment_refuses_a_voter_count_before_writing(tmp_path, voters):
    out = tmp_path / "r.csv"
    res = run_cli("experiment", "--voters", voters, "--runs", "1", "--out", str(out))
    assert res.returncode == 1
    value = repr(float(voters))
    assert res.stderr.strip() == f"pivot: n_voters must be finite and positive, got {value}"
    assert not out.exists()
