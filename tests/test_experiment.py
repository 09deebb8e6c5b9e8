import math

import numpy as np
import pytest

from rieszlab import (InputError, PointSet, RateExperimentConfig, discrete_energy,
                      estimate_discrepancy, farthest_point_sample, fit_loglog, flat_torus,
                      geometric_schedule, min_geodesic_distance, run_rate_experiment, sphere)
from rieszlab import experiment
from rieszlab.cli import cli_dispatch
from rieszlab.experiment import CSV_COLUMNS, LOWER_BOUND_CAVEAT


# ----------------------------------------------------------------------
# log-log fitting
# ----------------------------------------------------------------------

def test_fit_exact_square_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog(xs, xs ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_series():
    xs = np.array([1.0, 2.0, 4.0])
    fit = fit_loglog(xs, np.full(3, 5.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_synthetic_roundtrip():
    xs = np.geomspace(1.0, 100.0, 9)
    fit = fit_loglog(xs, 3.7 * xs ** -0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(InputError):
        fit_loglog([1.0], [2.0])
    with pytest.raises(InputError):
        fit_loglog([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(InputError):
        fit_loglog([-1.0, 2.0], [1.0, 1.0])


def test_geometric_schedule():
    assert geometric_schedule(32, 256) == [32, 64, 128, 256]
    assert geometric_schedule(32, 300) == [32, 64, 128, 256]
    with pytest.raises(InputError):
        geometric_schedule(1, 8)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

def small_config(**kw):
    base = dict(manifold=sphere(2), s=1.0, generator="fibonacci",
                ns=[32, 64, 128, 256], extra_centers=0, seed=1)
    base.update(kw)
    return RateExperimentConfig(**base)


def test_sweep_rows_and_fits():
    report = run_rate_experiment(small_config())
    assert [r.n for r in report.rows] == [32, 64, 128, 256]
    assert all(r.gap >= 0 for r in report.rows)
    assert all(r.energy_continuous == report.rows[0].energy_continuous for r in report.rows)
    assert report.fit_gap_vs_n is not None
    assert report.fit_gap_vs_n.slope < 0
    assert report.rows[-1].disc_estimate < report.rows[0].disc_estimate
    assert math.isfinite(report.c_hat)
    assert report.rate_exponent == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert report.caveat == LOWER_BOUND_CAVEAT


def test_sweep_deterministic():
    a = run_rate_experiment(small_config()).to_dict()
    b = run_rate_experiment(small_config()).to_dict()
    assert a == b


def test_sweep_thread_count_invariant(monkeypatch):
    monkeypatch.setenv("RIESZ_THREADS", "1")
    a = run_rate_experiment(small_config()).to_dict()
    monkeypatch.setenv("RIESZ_THREADS", "4")
    b = run_rate_experiment(small_config()).to_dict()
    assert a == b


def test_sweep_csv_shape():
    report = run_rate_experiment(small_config())
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)
    first = lines[1].split(",")
    assert int(first[0]) == 32
    assert float(first[3]) == report.rows[0].gap
    # the CSV and the JSON report carry the same row mapping
    json_rows = report.to_dict()["rows"]
    assert all(list(row) == CSV_COLUMNS for row in json_rows)
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == \
        [list(row.values()) for row in json_rows]


def test_sweep_serialization_excludes_runtimes():
    report = run_rate_experiment(small_config())
    payload = report.to_dict()
    assert "runtime" not in str(payload)
    assert payload["rows"][0]["N"] == 32


def test_single_row_schedule_has_no_fits():
    report = run_rate_experiment(small_config(ns=[64]))
    assert report.fit_gap_vs_n is None
    assert report.second_half_max_ratio is None
    assert report.gamma_band is None


def test_generator_manifold_mismatch():
    with pytest.raises(InputError):
        run_rate_experiment(small_config(manifold=flat_torus(2)))
    with pytest.raises(InputError):
        run_rate_experiment(small_config(manifold=flat_torus(2), generator="nonsense"))


def test_coincident_generator_output_is_an_input_error(monkeypatch, tmp_path, capsys):
    real = experiment.generate_pointset

    def duplicated_at_64(m, generator, n, seed, candidate_pool=None):
        X = real(m, generator, n, seed, candidate_pool=candidate_pool)
        if n != 64:
            return X
        coords = X.coords.copy()
        coords[40] = coords[10]
        return PointSet(m, coords, X.provenance)

    monkeypatch.setattr(experiment, "generate_pointset", duplicated_at_64)
    cfg = RateExperimentConfig(manifold=flat_torus(2), s=1.0, generator="kronecker",
                               ns=[32, 64, 128])
    with pytest.raises(InputError, match=r"generator produced coincident points at N=64$"):
        run_rate_experiment(cfg)
    path = tmp_path / "cfg.txt"
    path.write_text("manifold=torus\ndim=2\ns=1.0\ngenerator=kronecker\nns=32,64,128\n")
    code = cli_dispatch(["rate", "--config", str(path), "--out-csv", str(tmp_path / "o.csv"),
                         "--out-json", str(tmp_path / "o.json")])
    assert code == 1
    assert "coincident points at N=64" in capsys.readouterr().err


def test_schedule_validation():
    with pytest.raises(InputError):
        run_rate_experiment(small_config(ns=[64, 64]))
    with pytest.raises(InputError):
        run_rate_experiment(small_config(ns=[]))
    with pytest.raises(InputError):
        run_rate_experiment(small_config(ns=[1, 2]))


def test_fibonacci_sweep_gap_monotone():
    cfg = small_config(ns=[2 ** p for p in range(5, 13)])
    report = run_rate_experiment(cfg)
    gaps = [r.gap for r in report.rows]
    violations = sum(b >= a for a, b in zip(gaps, gaps[1:]))
    assert violations <= 1
    assert report.gamma_band <= 2.0


def test_kronecker_sweep_gap_shrinks():
    cfg = RateExperimentConfig(manifold=flat_torus(1), s=0.5, generator="kronecker",
                               ns=[32, 64, 128, 256, 512], extra_centers=0, seed=0)
    report = run_rate_experiment(cfg)
    gaps = [r.gap for r in report.rows]
    assert gaps[-1] < gaps[0]
    assert report.rate_exponent == pytest.approx(0.2, abs=1e-15)


def test_farthest_point_sweep_runs():
    cfg = RateExperimentConfig(manifold=flat_torus(2), s=1.0, generator="farthest-point",
                               ns=[16, 32], extra_centers=0, seed=5)
    report = run_rate_experiment(cfg)
    assert report.rows[0].gamma_hat > 0
    assert report.config["generator"] == "farthest-point"


def test_farthest_point_row_takes_the_generator_default_pool():
    # no candidate_pool in the config: the row's set is farthest_point_sample's
    # own, with its default pool of max(10 N, 1024) candidates
    m = sphere(2)
    cfg = RateExperimentConfig(manifold=m, s=1.0, generator="farthest-point",
                               ns=[16, 32], extra_centers=0, seed=3)
    row = run_rate_experiment(cfg).rows[1]
    row_seed = 3 * 100003 + 1
    X = farthest_point_sample(m, 32, seed=row_seed)
    assert X.provenance["candidate_pool"] == 1024
    assert row.energy_discrete == discrete_energy(X, 1.0)
    assert row.separation == min_geodesic_distance(X).min_distance
    assert row.disc_estimate == estimate_discrepancy(X, 0, seed=row_seed).value
