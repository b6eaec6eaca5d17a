"""Profile generators and the batch comparison harness."""

import hashlib
import math

import numpy as np
import pytest

from irvpivot import (
    BallotProfile,
    ExperimentConfig,
    admissible_rankings,
    experiment,
    gen_powerlaw_profile,
    gen_uniform_profile,
    run_experiment,
    smdp_pivot_prob,
    sweep_reports,
    write_csv,
    write_gnuplot,
)
from irvpivot.experiment import _profile_key

from conftest import dirichlet_profile


def test_uniform_profile_shapes():
    prof = gen_uniform_profile(3, 600.0)
    assert len(prof.rates) == 6
    assert all(v == 100.0 for v in prof.rates.values())
    assert prof.total_expected == pytest.approx(600.0, abs=1e-9)
    prof2 = gen_uniform_profile(2, 100.0)
    assert sorted(prof2.rates.values()) == [50.0, 50.0]
    prof4 = gen_uniform_profile(4, 1000.0)
    assert len(prof4.rates) == 24
    assert prof4.total_expected == pytest.approx(1000.0, abs=1e-9)


def test_powerlaw_profile_shapes():
    prof = gen_powerlaw_profile(3, 600.0, seed=4)
    assert len(prof.rates) == 6
    top = max(prof.rates.values())
    rest = sorted(prof.rates.values())[:-1]
    assert top == pytest.approx(350.0)
    assert all(v == pytest.approx(50.0) for v in rest)
    assert prof.total_expected == pytest.approx(600.0, abs=1e-9)


def test_powerlaw_seeds_move_only_the_focal_ranking():
    a = gen_powerlaw_profile(3, 600.0, seed=1)
    b = gen_powerlaw_profile(3, 600.0, seed=3)
    assert sorted(a.rates.values()) == sorted(b.rates.values())
    focal_a = max(a.rates, key=a.rates.get)
    focal_b = max(b.rates, key=b.rates.get)
    assert focal_a != focal_b
    assert gen_powerlaw_profile(3, 600.0, seed=1).rates == a.rates


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_voters=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kappas=(1, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(distribution="zipf")


def test_config_refuses_kappa_beyond_the_engine():
    # Checked up front, so a batch does not spend time on kappa=3 first.
    with pytest.raises(ValueError, match="kappa=8"):
        ExperimentConfig(kappas=(3, 8))


def test_run_experiment_rows_and_pairing():
    cfg = ExperimentConfig(
        kappas=(2, 3), n_voters=60.0, runs=3, distribution="uniform", base_seed=5
    )
    results = run_experiment(cfg)
    assert len(results) == 3 * 2 * 2
    keys = [(r.run_id, r.kappa, r.system) for r in results]
    assert keys == sorted(keys)
    for r in results:
        assert r.total_pivot > 0.0
        assert r.distribution == "uniform"
    # uniform profiles repeat across runs, so totals must repeat too
    irv = {r.run_id: r.total_pivot for r in results if r.system == "IRV" and r.kappa == 3}
    assert len(set(irv.values())) == 1


def test_run_experiment_flushes_partial_results():
    # max_length=3 is valid for kappa=3 but not kappa=2, so the second
    # contest raises after the first has produced its rows.
    cfg = ExperimentConfig(
        kappas=(3, 2), n_voters=30.0, runs=1, distribution="uniform",
        base_seed=0, max_length=3,
    )
    sink = []
    with pytest.raises(ValueError):
        run_experiment(cfg, partial=sink)
    assert [(r.kappa, r.system) for r in sink] == [(3, "IRV"), (3, "SMDP")]


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(
        kappas=(3,), n_voters=45.0, runs=2, distribution="powerlaw", base_seed=11
    )
    a = [(r.run_id, r.kappa, r.system, r.total_pivot) for r in run_experiment(cfg)]
    b = [(r.run_id, r.kappa, r.system, r.total_pivot) for r in run_experiment(cfg)]
    assert a == b


def test_csv_and_dat_output(tmp_path):
    cfg = ExperimentConfig(
        kappas=(2,), n_voters=30.0, runs=2, distribution="powerlaw", base_seed=1
    )
    results = run_experiment(cfg)
    out = tmp_path / "results.csv"
    write_csv(results, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "run_id,kappa,system,distribution,total_pivot,seconds"
    assert len(lines) == 1 + len(results)
    assert all(line.endswith(",") for line in lines[1:])  # seconds empty by default

    timed = tmp_path / "timed.csv"
    write_csv(results, timed, timing=True)
    assert not timed.read_text().splitlines()[1].endswith(",")

    dat = tmp_path / "results.dat"
    write_gnuplot(results, dat)
    dat_lines = dat.read_text().splitlines()
    assert dat_lines[0].startswith("#")
    assert len(dat_lines) == 1 + len(results)


def test_three_candidate_uniform_irv_slightly_above_smdp():
    import irvpivot

    prof = gen_uniform_profile(3, 1000.0)
    irv = math.fsum(
        r.p_total for r in irvpivot.sweep_reports(prof, full_length_only=True)
    )
    smdp = math.fsum(irvpivot.smdp_pivot_prob(prof, c) for c in range(3))
    assert smdp < irv < 10 * smdp


def test_csv_byte_identical_across_invocations(tmp_path):
    cfg = ExperimentConfig(
        kappas=(2, 3), n_voters=40.0, runs=2, distribution="powerlaw", base_seed=3
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(cfg), p1)
    write_csv(run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_bytes_pinned(tmp_path):
    # Recorded from the engine that summed each ballot's event arrays with
    # one math.fsum.  The byte check above compares a run only with itself.
    rows = run_experiment(ExperimentConfig(kappas=(3, 4, 5), runs=4))
    rows += run_experiment(ExperimentConfig(kappas=(3, 4, 5), runs=1, distribution="uniform"))
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5b8afa93df34ff0aa72b5b6ed1b7d38815db8c99d4c15bdb92c07cbc800343ea"


@pytest.mark.parametrize(
    "cfg, pairwise",
    [
        (ExperimentConfig(kappas=(2, 3, 4, 5), n_voters=60.0, runs=6), False),
        (ExperimentConfig(kappas=(3, 4), n_voters=1000.0, runs=4, base_seed=7), False),
        (ExperimentConfig(kappas=(3, 4), n_voters=60.0, runs=6, max_length=2), False),
        (ExperimentConfig(kappas=(2, 3, 4), n_voters=60.0, runs=2, distribution="uniform"), False),
        (ExperimentConfig(kappas=(2, 3, 4), n_voters=60.0, runs=4, base_seed=3), True),
    ],
)
def test_rows_equal_fresh_contests(cfg, pairwise):
    # Reused IRV totals must have the bits of a fresh sweep of the contest's
    # own profile; the kappa=4, n=60 runs include relabelings whose SMDP
    # totals differ in the last bit.
    rows = run_experiment(cfg, pairwise_approx=pairwise)
    assert len(rows) == 2 * cfg.runs * len(cfg.kappas)
    for r in rows:
        if cfg.distribution == "uniform":
            prof = gen_uniform_profile(r.kappa, cfg.n_voters, cfg.max_length)
        else:
            prof = gen_powerlaw_profile(
                r.kappa, cfg.n_voters, cfg.base_seed + r.run_id, cfg.max_length
            )
        if r.system == "IRV":
            reports = sweep_reports(prof, full_length_only=True)
            fresh = math.fsum(rep.p_total for rep in reports)
        else:
            fresh = math.fsum(smdp_pivot_prob(prof, c, pairwise_approx=pairwise)
                              for c in range(r.kappa))
        assert r.total_pivot == fresh, (r.run_id, r.kappa, r.system)


def test_full_length_powerlaw_sweeps_once_per_kappa(monkeypatch):
    kappas = []

    def counting(profile, *args, **kwargs):
        kappas.append(profile.kappa)
        return sweep_reports(profile, *args, **kwargs)

    monkeypatch.setattr(experiment, "sweep_reports", counting)
    cfg = ExperimentConfig(kappas=(2, 3, 4, 5), n_voters=60.0, runs=20, base_seed=4)
    rows = run_experiment(cfg)
    assert sorted(kappas) == [2, 3, 4, 5]
    for kappa in cfg.kappas:
        irv = {r.total_pivot for r in rows if r.system == "IRV" and r.kappa == kappa}
        assert len(irv) == 1


@pytest.mark.parametrize("kappa, max_length", [(3, None), (4, None), (5, None), (4, 2)])
def test_profile_key_is_shared_by_relabelings(kappa, max_length):
    rng = np.random.default_rng(kappa * 10 + (max_length or 0))
    rankings = admissible_rankings(kappa, max_length)
    prof = BallotProfile(
        kappa, dict(zip(rankings, rng.dirichlet(np.ones(len(rankings))) * 100.0)), max_length
    )
    key = _profile_key(prof)
    for _ in range(5):
        assert _profile_key(prof.relabeled(rng.permutation(kappa).tolist())) == key
    assert _profile_key(dirichlet_profile(kappa, 100.0, seed=1)) != _profile_key(
        dirichlet_profile(kappa, 100.0, seed=2)
    )
