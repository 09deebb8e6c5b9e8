import math

import numpy as np
import pytest

from rieszlab import (InputError, Point, PointSet, ball_count, center_discrepancy,
                      estimate_discrepancy, farthest_point_sample, fibonacci_sphere,
                      flat_torus, kronecker_torus, sample_uniform, sphere)
from rieszlab import energy
from rieszlab.rng import stream
from oracles import best_center, scan_center_discrepancy


def circle_points(n):
    ang = 2 * math.pi * np.arange(n) / n
    return PointSet(sphere(1), np.column_stack([np.cos(ang), np.sin(ang)]))


# ----------------------------------------------------------------------
# ball counting
# ----------------------------------------------------------------------

def test_ball_count_whole_manifold():
    X = sample_uniform(sphere(2), 0, 37)
    assert ball_count(X, X.manifold.origin(), X.manifold.diameter) == 37


def test_center_of_wrong_length_rejected():
    # a T^2 point against an S^2 set: the center needs 3 coordinates
    X = fibonacci_sphere(50)
    center = flat_torus(2).point([0.25, 0.5])
    with pytest.raises(InputError, match=r"center must have shape \(3,\)"):
        ball_count(X, center, 0.5)
    with pytest.raises(InputError, match=r"center must have shape \(3,\)"):
        center_discrepancy(X, center)


def test_center_off_the_sphere_rejected():
    # a center must lie on the manifold, by the rule of Manifold.point
    X = fibonacci_sphere(200)
    center = Point(np.array([3.0, 0.0, 0.0]))
    with pytest.raises(InputError, match="too far from 1"):
        ball_count(X, center, 0.5)
    with pytest.raises(InputError, match="too far from 1"):
        center_discrepancy(X, center)


def test_center_coordinates_used_as_given():
    # the shape check does not renormalize: the radius of a center off the
    # sphere by 1e-9 is a distance from its raw coordinates
    X = fibonacci_sphere(50)
    raw = np.array([0.6, 0.8, 0.0]) * (1.0 + 1e-9)
    value, radius, side = center_discrepancy(X, Point(raw))
    Q = X.manifold.sq_dist(raw[None, None, :], X.coords[None, :, :])
    assert radius in X.manifold.dist_from_sq(Q[0])


def test_ball_count_zero_radius_missing_center():
    m = flat_torus(2)
    X = sample_uniform(m, 1, 20)
    assert ball_count(X, m.point([0.123456, 0.654321]), 0.0) == 0


def test_ball_count_equally_spaced_closed_ball():
    # exact coordinates so the two neighbors sit at exactly pi/2
    X = PointSet(sphere(1), [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    y = X.point(0)
    assert ball_count(X, y, math.pi / 2) == 3
    assert ball_count(X, y, math.pi / 2 - 1e-12) == 1
    assert ball_count(X, y, math.pi) == 4


def test_ball_count_monotone_in_radius():
    m = flat_torus(2)
    X = sample_uniform(m, 2, 50)
    y = m.point([0.4, 0.9])
    counts = [ball_count(X, y, r) for r in np.linspace(0, m.diameter, 40)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == X.n


# ----------------------------------------------------------------------
# per-center discrepancy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 10, 25])
def test_equally_spaced_center_value(n):
    X = circle_points(n)
    value, _, _ = center_discrepancy(X, X.point(0))
    assert value == pytest.approx(1.0 / n, abs=1e-12)


def test_single_point_self_center():
    X = fibonacci_sphere(1)
    value, radius, side = center_discrepancy(X, X.point(0))
    assert value == 1.0
    assert radius == 0.0
    assert side == "above"


def test_single_point_antipodal_center():
    m = sphere(2)
    X = PointSet(m, [[0.0, 0.0, 1.0]])
    value, radius, side = center_discrepancy(X, m.point([0.0, 0.0, -1.0]))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert radius == pytest.approx(math.pi, abs=1e-12)
    assert side == "below"


@pytest.mark.parametrize("maker", [
    lambda seed: sample_uniform(sphere(2), seed, 64),
    lambda seed: sample_uniform(flat_torus(2), seed, 64),
    lambda seed: sample_uniform(sphere(1), seed, 48),
    lambda seed: sample_uniform(flat_torus(1), seed, 48),
])
def test_center_value_matches_radius_scan(maker):
    for seed in range(4):
        X = maker(seed)
        extra = X.manifold._sample(stream(seed, "scan-center"), 1)[0]
        for center in (X.coords[0], extra):
            exact, _, _ = center_discrepancy(X, X.manifold.point(center))
            scan = scan_center_discrepancy(X, center, radii_count=20_000)
            assert exact >= scan - 1e-12
            assert abs(exact - scan) <= 1e-6


# ----------------------------------------------------------------------
# estimator
# ----------------------------------------------------------------------

def test_equally_spaced_estimate_is_one_over_n():
    X = circle_points(10)
    est = estimate_discrepancy(X, extra_centers=0)
    assert est.value == pytest.approx(0.1, abs=1e-12)


def test_estimate_lower_bound_one_over_n():
    for seed in range(5):
        X = sample_uniform(flat_torus(2), seed, 32)
        est = estimate_discrepancy(X, extra_centers=0)
        assert est.value >= 1.0 / X.n - 1e-12
        assert est.value <= 1.0


def test_estimate_monotone_in_centers():
    X = sample_uniform(sphere(2), 7, 48)
    base = estimate_discrepancy(X, extra_centers=0, seed=1)
    more = estimate_discrepancy(X, extra_centers=1000, seed=1)
    assert more.value >= base.value


def test_equidistribution_trend():
    small = estimate_discrepancy(kronecker_torus(2, 256), extra_centers=0)
    large = estimate_discrepancy(kronecker_torus(2, 4096), extra_centers=0)
    assert large.value < small.value
    small = estimate_discrepancy(fibonacci_sphere(256), extra_centers=0)
    large = estimate_discrepancy(fibonacci_sphere(4096), extra_centers=0)
    assert large.value < small.value


def test_estimate_thread_determinism(monkeypatch):
    X = sample_uniform(flat_torus(2), 3, 200)
    results = []
    for t in ("1", "2", "8"):
        monkeypatch.setenv("RIESZ_THREADS", t)
        results.append(estimate_discrepancy(X, extra_centers=100, seed=2))
    assert len({r.value for r in results}) == 1
    assert len({r.center_index for r in results}) == 1
    assert len({r.radius for r in results}) == 1


def test_estimate_records_center_set():
    X = fibonacci_sphere(25)
    est = estimate_discrepancy(X, extra_centers=50, seed=9)
    assert est.center_set == {"code_points": 25, "extra_centers": 50, "seed": 9}
    assert est.n == 25
    assert est.side in ("above", "below")


def test_estimate_default_extras_is_4n():
    X = fibonacci_sphere(25)
    est = estimate_discrepancy(X)
    assert est.center_set["extra_centers"] == 100


# ----------------------------------------------------------------------
# the comparison check: rows priced only where the maximum can be
# ----------------------------------------------------------------------

def _mirror_t1():
    """Eight points of T^1 on the grid k/64, symmetric under x -> -x: the
    centers 63/64 (index 1) and 1/64 (index 3) see the same distances, bit
    for bit, and both attain the maximum."""
    grid = [4, 63, 60, 1, 5, 59, 16, 48]
    return PointSet(flat_torus(1), np.array(grid, dtype=float)[:, None] / 64)


def _cluster():
    """300 uniform points of S^2 and a dense cluster of 60 more within
    about 1e-3 of one of them."""
    X = sample_uniform(sphere(2), 12, 300)
    rng = np.random.default_rng(5)
    cluster = X.coords[0] + 1e-3 * rng.standard_normal((60, 3))
    cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
    return PointSet(sphere(2), np.concatenate([X.coords, cluster]))


ADVERSARIAL = {
    # equally spaced circles: every row has the same value up to rounding
    **{f"S1-{n}": (lambda n=n: circle_points(n)) for n in (5, 10, 50, 512)},
    "T1-mirror": _mirror_t1,
    "S2-cluster": _cluster,
}


def _estimate(est):
    return est.value, est.center_index, est.radius, est.side


def _estimate_bytes(est):
    return (np.float64(est.value).tobytes(), est.center_index,
            np.float64(est.radius).tobytes(), est.side)


@pytest.mark.parametrize("extra", [0, 40])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_estimate_is_first_best_center_on_adversarial_sets(name, extra):
    X = ADVERSARIAL[name]()
    est = estimate_discrepancy(X, extra_centers=extra, seed=6)
    assert _estimate(est) == best_center(X, extra, 6)


@pytest.mark.parametrize("chunk", [256, 3, 1])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_tie_goes_to_first_center_for_any_chunk_seed(monkeypatch, chunk, threads):
    # with 3-row chunks the seed is row 3, the first row of the second
    # chunk, and row 1 of the first chunk ties with it: row 1 is kept
    X = _mirror_t1()
    first, mirror = (center_discrepancy(X, X.point(k)) for k in (1, 3))
    assert np.float64(first[0]).tobytes() == np.float64(mirror[0]).tobytes()
    monkeypatch.setattr(energy, "CHUNK_ROWS", chunk)
    monkeypatch.setenv("RIESZ_THREADS", threads)
    est = estimate_discrepancy(X, extra_centers=0)
    assert _estimate(est) == best_center(X, 0, 0) == (first[0], 1, first[1], first[2])


def test_check_prices_few_rows(monkeypatch):
    # the pass prices the chunks' first rows and the rows the check leaves
    X = farthest_point_sample(sphere(3), 2048, 1)
    priced = []
    jump_values = energy._jump_values

    def counting(m, Q):
        priced.append(len(Q))
        return jump_values(m, Q)

    monkeypatch.setattr(energy, "_jump_values", counting)
    est = estimate_discrepancy(X, extra_centers=0)
    assert 0 < sum(priced) < X.n / 4
    monkeypatch.setattr(energy, "_jump_values", jump_values)
    assert _estimate(est) == _estimate(estimate_discrepancy(X, extra_centers=0))


THREAD_SETS = {
    **ADVERSARIAL,
    "S3-uniform": lambda: sample_uniform(sphere(3), 8, 600),
    "T2-kronecker": lambda: kronecker_torus(2, 700),
}


@pytest.mark.parametrize("name", sorted(THREAD_SETS))
def test_estimate_bytes_identical_for_any_thread_count(monkeypatch, name):
    X = THREAD_SETS[name]()
    results = []
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("RIESZ_THREADS", threads)
        # 400 extras: at least three chunks, each seeded from every chunk's first row
        results.append(_estimate_bytes(estimate_discrepancy(X, extra_centers=400, seed=3)))
    assert results[1:] == results[:-1]
