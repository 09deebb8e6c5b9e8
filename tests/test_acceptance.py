"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

from rieszlab import (PointSet, RateExperimentConfig, ball_volume,
                      center_discrepancy, continuous_energy, discrete_energy,
                      energy_gradient, energy_via_distance_cdf,
                      estimate_discrepancy, euclidean_ball_volume,
                      fibonacci_sphere, flat_torus, kronecker_torus,
                      min_geodesic_distance, minimize_riesz_energy,
                      run_rate_experiment, sample_uniform, sphere)
from rieszlab.cli import save_pointset
from rieszlab.rng import stream
from rieszlab.verify import check_ball_volume_flatness, check_large_ball_bounds, geometric_grid
from rieszlab import packing_number

from cli_env import cli_env
from oracles import scan_center_discrepancy
from test_energy import well_separated_cases


def report(criterion, elapsed, budget, detail=""):
    print(f"PASS criterion {criterion}: {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget


# ----------------------------------------------------------------------

def test_criterion_1_closed_form_geometry():
    t0 = time.perf_counter()
    radii = np.linspace(0.0, math.pi, 1000)
    v = ball_volume(sphere(2), radii)
    worst = float(np.max(np.abs(v - (1 - np.cos(radii)) / 2)))
    assert worst <= 1e-10
    for d in (1, 2, 3):
        r = np.linspace(1e-3, 0.5, 64)
        assert np.array_equal(ball_volume(flat_torus(d), r), euclidean_ball_volume(d, r))
    report(1, time.perf_counter() - t0, 1.0, f"max S2 deviation {worst:.2e}")


def test_criterion_2_continuous_energy_oracles():
    t0 = time.perf_counter()
    # independent high-order quadrature oracles, computed before the radial
    # implementations were written (endpoint-weighted quadrature / sine integral)
    oracle_s1 = integrate.quad(lambda t: 1 / math.pi, 0, math.pi,
                               weight="alg", wvar=(-0.5, 0))[0]
    oracle_t1 = integrate.quad(lambda t: 2.0, 0, 0.5, weight="alg", wvar=(-0.5, 0))[0]
    oracle_s2 = special.sici(math.pi)[0] / 2.0
    cases = [
        (sphere(1), 0.5, oracle_s1, 2.0 / math.sqrt(math.pi)),
        (flat_torus(1), 0.5, oracle_t1, 2.0 * math.sqrt(2.0)),
        (sphere(2), 1.0, oracle_s2, 0.9259685259912329),
    ]
    for m, s, oracle, closed in cases:
        got = continuous_energy(m, s)
        assert abs(got - oracle) <= 1e-9
        assert abs(got - closed) <= 1e-9
    report(2, time.perf_counter() - t0, 1.0)


def test_criterion_3_discrete_cdf_identity():
    t0 = time.perf_counter()
    rng = stream(300, "acceptance-sizes")
    for seed in range(50):
        m = [sphere(2), flat_torus(2)][seed % 2]
        n = int(rng.integers(8, 257))
        X = sample_uniform(m, seed, n)
        s = 1.0
        a = discrete_energy(X, s)
        b = energy_via_distance_cdf(X, s)
        assert abs(a - b) <= 1e-10 * abs(a)
    report(3, time.perf_counter() - t0, 5.0)


def test_criterion_4_discrepancy_exactness():
    t0 = time.perf_counter()
    for n in (5, 10, 50):
        ang = 2 * math.pi * np.arange(n) / n
        X = PointSet(sphere(1), np.column_stack([np.cos(ang), np.sin(ang)]))
        est = estimate_discrepancy(X, extra_centers=0)
        assert abs(est.value - 1.0 / n) <= 1e-9
    rng = stream(400, "acceptance-disc")
    makers = [lambda k: sample_uniform(sphere(2), k, 96),
              lambda k: sample_uniform(flat_torus(2), k, 96),
              lambda k: sample_uniform(sphere(1), k, 128),
              lambda k: sample_uniform(flat_torus(1), k, 128)]
    for case in range(50):
        X = makers[case % 4](case)
        center = X.coords[int(rng.integers(X.n))] if case % 2 else \
            X.manifold._sample(stream(case, "acceptance-center"), 1)[0]
        exact, _, _ = center_discrepancy(X, X.manifold.point(center))
        scan = scan_center_discrepancy(X, center, radii_count=100_000)
        assert exact >= scan - 1e-12
        assert abs(exact - scan) <= 1e-6
    report(4, time.perf_counter() - t0, 10.0)


def test_criterion_5_flatness_ratio():
    t0 = time.perf_counter()
    radii = geometric_grid(1e-4, 0.1, 64)
    rep = check_ball_volume_flatness(sphere(2), radii)
    assert rep.passed
    assert abs(rep.constants["c0"] - 1.0 / 12.0) <= 0.05 / 12.0
    for m in (sphere(1), flat_torus(1), flat_torus(2), flat_torus(3)):
        flat_rep = check_ball_volume_flatness(
            m, geometric_grid(m.injectivity_radius * 1e-3, m.injectivity_radius * 0.9, 32))
        assert flat_rep.constants["c0"] == 0.0
    report(5, time.perf_counter() - t0, 1.0, f"S2 ratio {rep.constants['c0']:.6f}")


def test_criterion_6_packing_bound():
    t0 = time.perf_counter()
    for m in (sphere(2), flat_torus(2)):
        large = check_large_ball_bounds(m)
        c2 = 3.0 ** m.dim * large.constants["c_top"] / large.constants["c_bot"]
        rng = stream(600, "acceptance-packing")
        for k in range(50):
            u1, u2 = rng.random(2)
            r = m.diameter * (0.15 + 0.75 * u1)
            q = r * (0.15 + 0.7 * u2)
            x = m.point(m._sample(rng, 1)[0])
            count = packing_number(m, x, r, q, pool_seed=k, pool_size=1024)
            assert count <= c2 * (r / q) ** m.dim
    report(6, time.perf_counter() - t0, 10.0)


def test_criterion_7_rate_sweeps():
    t0 = time.perf_counter()
    ns = [2 ** p for p in range(5, 14)]
    configs = [
        ("S2 fibonacci s=1", RateExperimentConfig(
            manifold=sphere(2), s=1.0, generator="fibonacci", ns=ns,
            extra_centers=0, seed=1), True),
        ("T1 kronecker s=0.5", RateExperimentConfig(
            manifold=flat_torus(1), s=0.5, generator="kronecker", ns=ns,
            extra_centers=0, seed=1), False),
        ("T2 kronecker s=1", RateExperimentConfig(
            manifold=flat_torus(2), s=1.0, generator="kronecker", ns=ns,
            extra_centers=0, seed=1), False),
    ]
    details = []
    for name, cfg, gate_gamma in configs:
        rep = run_rate_experiment(cfg)
        gaps = [r.gap for r in rep.rows]
        assert gaps[-1] < gaps[0] / 4.0, name
        assert rep.second_half_max_ratio is not None
        assert rep.second_half_max_ratio <= 2.0, name
        if gate_gamma:
            # separation-band property: claimed for the spiral generator
            assert rep.gamma_band <= 2.0, name
        details.append(f"{name}: gap x{gaps[0]/gaps[-1]:.0f}, "
                       f"C-ratio {rep.second_half_max_ratio:.2f}, "
                       f"gamma band {rep.gamma_band:.2f}{'' if gate_gamma else ' (reported)'}")
    report(7, time.perf_counter() - t0, 120.0, "; ".join(details))


def test_rate_sweeps_d3():
    """The rate sweeps at d = 3, beside criterion 7: S^3 farthest-point and
    T^3 Kronecker, s = 1, N = 32..4096.  The gap falls and the second half
    stays under the first half's bound; the S^3 separation band is gated,
    the T^3 Kronecker one reported.

    The last gate is an observed regularity, not the paper's theorem: on
    S^3, (E_N - I) N^(2/3) stays within 5 % of its median over
    N = 256..4096 (measured -0.946 to -0.960).  It catches a d = 3 error in
    the continuous energy or the kernel of about 2e-4 relative at N = 4096,
    which the rate fit cannot see."""
    t0 = time.perf_counter()
    ns = [2 ** p for p in range(5, 13)]
    configs = [
        ("S3 farthest-point s=1", RateExperimentConfig(
            manifold=sphere(3), s=1.0, generator="farthest-point", ns=ns,
            extra_centers=0, seed=1), True),
        ("T3 kronecker s=1", RateExperimentConfig(
            manifold=flat_torus(3), s=1.0, generator="kronecker", ns=ns,
            extra_centers=0, seed=1), False),
    ]
    details = []
    for name, cfg, sphere_gates in configs:
        rep = run_rate_experiment(cfg)
        gaps = [r.gap for r in rep.rows]
        assert gaps[-1] < gaps[0] / 4.0, name
        assert rep.second_half_max_ratio is not None
        assert rep.second_half_max_ratio <= 2.0, name
        if sphere_gates:
            assert rep.gamma_band <= 2.0, name
            band = np.array([(r.energy_discrete - r.energy_continuous) * r.n ** (2.0 / 3.0)
                             for r in rep.rows if r.n >= 256])
            assert np.all(np.abs(band / np.median(band) - 1.0) <= 0.05), band
        details.append(f"{name}: gap x{gaps[0]/gaps[-1]:.0f}, "
                       f"C-ratio {rep.second_half_max_ratio:.2f}, "
                       f"gamma band {rep.gamma_band:.2f}{'' if sphere_gates else ' (reported)'}")
    report("7 (d = 3)", time.perf_counter() - t0, 60.0, "; ".join(details))


def test_criterion_8_gradient_and_descent():
    t0 = time.perf_counter()
    h = 1e-5
    rng = stream(800, "acceptance-fd")
    for m, s in ((sphere(2), 1.0), (flat_torus(2), 1.0),
                 (sphere(1), 0.5), (flat_torus(1), 0.5)):
        for X in well_separated_cases(m, 5):
            grad = energy_gradient(X, s)
            i = int(rng.integers(X.n))
            v = m._project_tangent(X.coords[i], rng.standard_normal(m.ambient_dim))
            v /= np.linalg.norm(v)
            analytic = float(grad[i] @ v)

            def shifted(t):
                coords = np.array(X.coords)
                coords[i] = m.exp_array(X.coords[i][None, :], (t * v)[None, :])[0]
                return discrete_energy(PointSet(m, coords), s)

            fd = (shifted(h) - shifted(-h)) / (2 * h)
            assert abs(fd - analytic) <= 1e-6 * max(abs(fd), abs(analytic))
    # descent targets
    m = sphere(1)
    X0 = PointSet(m, [[1.0, 0.0], [math.cos(1.0), math.sin(1.0)]])
    out = minimize_riesz_energy(X0, 0.5, max_iters=2000, tol=1e-14)
    assert abs(min_geodesic_distance(out).min_distance - math.pi) <= 1e-6
    rng2 = np.random.default_rng(3)
    X0 = PointSet(flat_torus(1), np.sort(rng2.random(4))[:, None])
    out = minimize_riesz_energy(X0, 0.5, max_iters=2000, tol=1e-14)
    xs = np.sort(out.coords[:, 0])
    gaps = np.diff(np.concatenate([xs, [xs[0] + 1.0]]))
    assert np.max(np.abs(gaps - 0.25)) <= 1e-4
    report(8, time.perf_counter() - t0, 10.0)


def test_criterion_9_cli_thread_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(args, threads):
        proc = subprocess.run([sys.executable, "-m", "rieszlab.cli"] + args,
                              capture_output=True, env=cli_env(threads), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    pts = str(tmp_path / "pts.txt")
    save_pointset(fibonacci_sphere(200), pts)
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("manifold=torus\ndim=1\ns=0.5\ngenerator=kronecker\n"
                   "ns=32,64\nextra_centers=10\nseed=2\n")
    commands = [
        ["generate", "--manifold", "sphere", "--dim", "2", "--gen", "uniform",
         "--n", "50", "--seed", "7", "--out", "-"],
        ["energy", "--in", pts, "--s", "1"],
        ["discrepancy", "--in", pts, "--extra-centers", "100", "--seed", "3"],
        ["separation", "--in", pts],
        ["verify-lemmas", "--manifold", "sphere", "--dim", "2", "--s", "1", "--seed", "1"],
    ]
    for args in commands:
        outputs = {run(args, t) for t in (1, 2, 8)}
        assert len(outputs) == 1, args
    # rate writes files; compare bytes of both artifacts
    blobs = set()
    for t in (1, 2, 8):
        run(["rate", "--config", str(cfg), "--out-csv", "r.csv", "--out-json", "r.json"], t)
        blobs.add((tmp_path / "r.csv").read_bytes() + (tmp_path / "r.json").read_bytes())
    assert len(blobs) == 1
    report(9, time.perf_counter() - t0, 60.0)
