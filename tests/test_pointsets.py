import math

import numpy as np
import pytest

from rieszlab import (FlatTorus, InputError, PointSet, discrete_energy, energy_gradient,
                      farthest_point_sample, fibonacci_sphere, flat_torus,
                      kronecker_torus, min_geodesic_distance,
                      minimize_riesz_energy, sample_uniform, sphere)
from rieszlab.discrepancy import center_discrepancy

from oracles import greedy_farthest_point, two_pass_descent

GAMMA_HAT_FIBONACCI_1000 = 3.0931212909505437  # frozen from the brute-force scan


def circle_points(n):
    ang = 2 * math.pi * np.arange(n) / n
    return PointSet(sphere(1), np.column_stack([np.cos(ang), np.sin(ang)]),
                    provenance={"generator": "equally-spaced", "n": n})


# ----------------------------------------------------------------------
# separation
# ----------------------------------------------------------------------

def test_equally_spaced_circle_separation():
    rep = min_geodesic_distance(circle_points(8))
    assert rep.min_distance == pytest.approx(2 * math.pi / 8, abs=1e-12)
    assert rep.gamma_hat == pytest.approx(8 * 2 * math.pi / 8, abs=1e-10)
    assert not rep.has_duplicates


def test_antipodal_pair_separation():
    m = sphere(2)
    X = PointSet(m, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    rep = min_geodesic_distance(X)
    assert rep.min_distance == pytest.approx(math.pi, abs=1e-12)
    assert rep.pair == (0, 1)


def test_duplicate_points_flagged():
    X = PointSet(flat_torus(1), [[0.2], [0.7], [0.2]])
    rep = min_geodesic_distance(X)
    assert rep.min_distance == 0.0
    assert rep.has_duplicates
    assert rep.pair == (0, 2)


def test_brute_separation_pair_past_first_block():
    m = flat_torus(2)
    base = sample_uniform(m, 5, 400).coords
    near = base.copy()
    near[350] = near[300] + 1e-7        # closest pair, both in the second 256-row block
    tied = base.copy()
    tied[350], tied[100] = tied[300], tied[3]  # zero-distance pairs in both blocks
    for coords, pair in ((near, (300, 350)), (tied, (3, 100))):
        X = PointSet(m, coords)
        full = m.pairwise_block(X.coords, X.coords)
        masked = np.where(np.triu(np.ones((400, 400), dtype=bool), 1), full, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        rep = min_geodesic_distance(X)
        assert rep.pair == pair == (i, j)
        assert rep.min_distance == masked[i, j]  # bitwise


def test_separation_needs_two_points():
    with pytest.raises(InputError):
        min_geodesic_distance(fibonacci_sphere(1))


def _all_pairs_min(X):
    """The first smallest sq_dist over np.triu_indices, row-major: (q, (i, j))."""
    i, j = np.triu_indices(X.n, 1)
    q = X.manifold.sq_dist(X.coords[i], X.coords[j])
    k = int(np.argmin(q))
    return q[k], (int(i[k]), int(j[k]))


def _formula_min(X):
    """The smallest distance by a formula of its own: the arccos of the dot
    products on S^d, the wrapped axis deltas on T^d."""
    c = X.coords
    if isinstance(X.manifold, FlatTorus):
        delta = np.abs(c[:, None, :] - c[None, :, :])
        dist = np.sqrt(np.sum(np.minimum(delta, 1.0 - delta) ** 2, axis=2))
    else:
        dist = np.arccos(np.clip(np.einsum("ik,jk->ij", c, c), -1.0, 1.0))
    return dist[np.triu_indices(X.n, 1)].min()


def _separation_sets(m, n):
    """Ten seeded uniform sets and the edge sets of the scan, by name."""
    base = sample_uniform(m, 0, n).coords
    edge = {
        "dup": np.vstack([base, base[n // 2], base[0]]),  # two duplicates: tied pairs
        "two": base[:2],                                  # N = 2
    }
    if isinstance(m, FlatTorus):
        edge["wrapped"] = np.vstack([base[1:], np.full((2, m.dim), -1e-17)])  # wrap to 0.0
        # every point shares axis 0, the scan's worst case
        edge["shared"] = np.hstack([np.full((n, 1), 0.3), base[:, 1:]])
        # the closest pair straddles the axis-0 wrap
        edge["across"] = np.vstack([base, np.full((2, m.dim), 0.5)])
        edge["across"][n:, 0] = 1.0 - 1e-7, 1e-7
        if m.dim == 2:
            # equal q at many offsets of the sorted order, in a shuffled lattice
            g = np.stack(np.meshgrid(np.arange(32), np.arange(32)), axis=-1).reshape(-1, 2) / 32
            edge["lattice"] = g[np.random.default_rng(3).permutation(len(g))]
    elif m.dim > 1:
        # every point on the great circle x_0 = 0, the scan's worst case
        t = 2 * math.pi * sample_uniform(flat_torus(1), 1, n).coords
        edge["shared"] = np.hstack([np.zeros((n, m.dim - 1)), np.cos(t), np.sin(t)])
    sets = {seed: sample_uniform(m, seed, n) for seed in range(10)}
    return {**sets, **{name: PointSet(m, c) for name, c in edge.items()}}


@pytest.mark.parametrize("m", [sphere(d) for d in range(1, 6)] + [flat_torus(d) for d in (1, 2, 3)],
                         ids=repr)
def test_separation_matches_references(m):
    n = 200
    sets = _separation_sets(m, n)
    for X in sets.values():
        rep = min_geodesic_distance(X)
        q, pair = _all_pairs_min(X)
        assert rep.pair == pair
        assert rep.min_distance == m.dist_from_sq(q)  # bitwise
        if not rep.has_duplicates:
            # arccos has condition number 1 / sin of the angle
            slack = 0.0 if isinstance(m, FlatTorus) else 1e-15 / math.sin(rep.min_distance)
            assert abs(rep.min_distance - _formula_min(X)) <= 1e-14 + slack
    dup = min_geodesic_distance(sets["dup"])
    assert dup.min_distance == 0.0 and dup.pair == (0, n + 1)
    if isinstance(m, FlatTorus):
        wrapped = min_geodesic_distance(sets["wrapped"])
        assert wrapped.min_distance == 0.0 and wrapped.pair == (n - 1, n)
        across = min_geodesic_distance(sets["across"])
        assert across.pair == (n, n + 1)
        assert across.min_distance == pytest.approx(2e-7, rel=1e-6)


def test_unknown_method_rejected():
    with pytest.raises(InputError):
        min_geodesic_distance(fibonacci_sphere(16), "fancy")


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_fibonacci_two_points():
    X = fibonacci_sphere(2)
    assert np.allclose(sorted(X.coords[:, 2]), [-0.5, 0.5], atol=1e-15)


def test_fibonacci_gamma_hat_regression():
    rep = min_geodesic_distance(fibonacci_sphere(1000))
    assert 2.0 <= rep.gamma_hat <= 4.0
    assert rep.gamma_hat == pytest.approx(GAMMA_HAT_FIBONACCI_1000, abs=1e-9)


def test_fibonacci_rejects_zero():
    with pytest.raises(InputError):
        fibonacci_sphere(0)


def test_kronecker_first_points():
    X = kronecker_torus(1, 4)
    alpha = math.sqrt(2.0) % 1.0
    expected = [(k * alpha) % 1.0 for k in range(4)]
    assert np.allclose(X.coords[:, 0], expected, atol=1e-15)
    assert X.coords[0, 0] == 0.0


def test_kronecker_origin_discrepancy():
    X = kronecker_torus(1, 100)
    value, _, _ = center_discrepancy(X, X.manifold.origin())
    assert value <= 0.05


def test_farthest_point_near_antipode():
    m = sphere(2)
    for seed in (0, 1, 2):
        X = farthest_point_sample(m, 2, seed=seed, candidate_pool=10_000)
        d = min_geodesic_distance(X).min_distance
        assert d >= math.pi - 0.2


def test_farthest_point_single_is_seeded_start():
    m = flat_torus(2)
    X = farthest_point_sample(m, 1, seed=3, candidate_pool=100)
    from rieszlab.rng import stream
    start = m._sample(stream(3, "farthest-point-sample"), 1)
    assert np.array_equal(X.coords, start)


def test_farthest_point_deterministic():
    m = flat_torus(2)
    a = farthest_point_sample(m, 20, seed=5)
    b = farthest_point_sample(m, 20, seed=5)
    assert np.array_equal(a.coords, b.coords)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m", [sphere(1), sphere(2), sphere(3),
                               flat_torus(1), flat_torus(2), flat_torus(3)], ids=repr)
def test_farthest_point_matches_full_rescan(m, seed):
    expected, radii = greedy_farthest_point(m, 60, seed, 600)
    got = farthest_point_sample(m, 60, seed, candidate_pool=600).coords
    assert got.tobytes() == PointSet(m, expected).coords.tobytes()
    if m == flat_torus(1):
        # slabs narrower than the circle that wrap past 0, and past 1
        x0, narrow = expected[1:, 0], radii < 0.5
        assert np.any(narrow & (x0 - radii < 0.0)) and np.any(narrow & (x0 + radii > 1.0))
    elif isinstance(m, FlatTorus):
        assert radii[0] >= 0.5  # the first slab is the whole pool


def test_farthest_point_pool_too_small():
    with pytest.raises(InputError):
        farthest_point_sample(sphere(2), 10, seed=0, candidate_pool=50)


def test_farthest_point_separation_band():
    ghs = []
    for n in (64, 256, 1024):
        X = farthest_point_sample(sphere(2), n, seed=11)
        ghs.append(min_geodesic_distance(X).gamma_hat)
    assert max(ghs) / min(ghs) < 2.0


@pytest.mark.parametrize("make,n", [
    (lambda: fibonacci_sphere(137), 137),
    (lambda: kronecker_torus(2, 137), 137),
    (lambda: farthest_point_sample(sphere(2), 37, seed=1), 37),
    (lambda: sample_uniform(flat_torus(3), 1, 137), 137),
])
def test_generator_cardinality_and_validity(make, n):
    X = make()
    assert X.n == n
    m = X.manifold
    if m.kind.value == "sphere":
        assert np.allclose(np.linalg.norm(X.coords, axis=1), 1.0, atol=1e-12)
    else:
        assert np.all((X.coords >= 0.0) & (X.coords < 1.0))


# ----------------------------------------------------------------------
# energy descent
# ----------------------------------------------------------------------

def test_descent_two_points_circle_to_antipodal():
    m = sphere(1)
    for theta in (0.3, 1.0, 2.5):
        X0 = PointSet(m, [[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        out = minimize_riesz_energy(X0, 0.5, max_iters=2000, tol=1e-14)
        d = min_geodesic_distance(out).min_distance
        assert abs(d - math.pi) <= 1e-6


def brute_scan_equal_spacing_oracle():
    """Exhaustive scan over 4-point torus configurations (first point
    pinned at 0 by translation invariance): the minimizer has equal gaps."""
    k = 48
    g = np.arange(1, k) / k
    a, b, c = np.meshgrid(g, g, g, indexing="ij")
    keep = (a < b) & (b < c)
    a, b, c = a[keep], b[keep], c[keep]
    zero = np.zeros_like(a)
    pts = np.stack([zero, a, b, c], axis=1)
    energy = np.zeros(len(a))
    s = 0.5
    for i in range(4):
        for j in range(i + 1, 4):
            d = np.abs(pts[:, i] - pts[:, j])
            d = np.minimum(d, 1 - d)
            energy += 2 * d ** (-s)
    energy /= 16.0
    best = pts[np.argmin(energy)]
    gaps = np.sort(np.diff(np.concatenate([best, [1.0]])))
    return gaps


def test_descent_four_points_torus_equal_spacing():
    oracle_gaps = brute_scan_equal_spacing_oracle()
    assert np.allclose(oracle_gaps, 0.25, atol=1.0 / 48)
    rng = np.random.default_rng(3)
    for _ in range(3):
        X0 = PointSet(flat_torus(1), np.sort(rng.random(4))[:, None])
        out = minimize_riesz_energy(X0, 0.5, max_iters=2000, tol=1e-14)
        xs = np.sort(out.coords[:, 0])
        gaps = np.sort(np.diff(np.concatenate([xs, [xs[0] + 1.0]])))
        assert np.max(np.abs(gaps - 0.25)) <= 1e-4


@pytest.mark.parametrize("X0", [fibonacci_sphere(1), kronecker_torus(3, 1)], ids=["S2", "T3"])
def test_one_point_set_takes_the_general_pass(X0):
    # no pair: energy 0, a zero gradient, and the descent stops on it at once
    assert energy_gradient(X0, 1.0).tolist() == [[0.0] * X0.manifold.ambient_dim]
    out = minimize_riesz_energy(X0, 1.0, max_iters=5)
    assert np.array_equal(out.coords, X0.coords)
    assert out.provenance["iterations"] == 0
    assert out.provenance["converged"] and not out.provenance["line_search_failed"]
    assert out.provenance["energy_trace"] == [0.0]


def test_descent_zero_iterations_unchanged():
    X0 = sample_uniform(sphere(2), 4, 10)
    out = minimize_riesz_energy(X0, 1.0, max_iters=0)
    assert np.array_equal(out.coords, X0.coords)
    assert out.provenance["iterations"] == 0


def test_descent_energy_trace_nonincreasing():
    for seed in (0, 1):
        X0 = sample_uniform(sphere(2), seed, 16)
        out = minimize_riesz_energy(X0, 1.0, max_iters=60, tol=1e-13)
        trace = out.provenance["energy_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]
        assert discrete_energy(out, 1.0) == trace[-1]


def test_descent_rejects_coincident_start():
    X0 = PointSet(flat_torus(1), [[0.1], [0.1], [0.6]])
    with pytest.raises(InputError):
        minimize_riesz_energy(X0, 0.5)


def test_descent_distinct_output():
    X0 = sample_uniform(flat_torus(2), 9, 12)
    out = minimize_riesz_energy(X0, 1.0, max_iters=40)
    assert min_geodesic_distance(out).min_distance > 0


def _s1_pair():
    return PointSet(sphere(1), [[1.0, 0.0], [math.cos(2.5), math.sin(2.5)]])


def _t1_triple():
    return PointSet(flat_torus(1), [[0.1], [0.45], [0.7]])


@pytest.mark.parametrize("make,s,kwargs,stop", [
    (lambda: PointSet(sphere(1), [[1.0, 0.0], [-1.0, 0.0]]), 0.5, {}, (0, True, False)),
    (_s1_pair, 0.5, {"max_iters": 2000, "tol": 1e-14}, (125, True, False)),
    (_t1_triple, 0.5, {"max_iters": 5000, "tol": 0.0}, (54, False, True)),
    (lambda: sample_uniform(sphere(2), 0, 64), 1.0, {"max_iters": 3, "tol": 0.0},
     (3, False, False)),
], ids=["zero-gradient", "tol", "line-search-failed", "max-iters"])
def test_descent_stop_reasons(make, s, kwargs, stop):
    prov = minimize_riesz_energy(make(), s, **kwargs).provenance
    trace = prov["energy_trace"]
    assert (prov["iterations"], prov["converged"], prov["line_search_failed"]) == stop
    assert prov["iterations"] == len(trace) - 1
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("make,s,kwargs,stop", [
    (lambda: sample_uniform(sphere(2), 6, 300), 1.0, {"max_iters": 4, "tol": 0.0}, "max-iters"),
    (lambda: sample_uniform(flat_torus(2), 7, 300), 1.0, {"max_iters": 4, "tol": 0.0},
     "max-iters"),
    (_s1_pair, 0.5, {"max_iters": 2000, "tol": 1e-14}, "fallback"),
    (_t1_triple, 0.5, {"max_iters": 5000, "tol": 0.0}, "line-search-failed"),
], ids=["S2", "T2", "S1-pair", "T1-triple"])
def test_descent_one_gradient_pass_per_iteration(monkeypatch, make, s, kwargs, stop):
    from rieszlab import energy, pointsets
    X0 = make()
    # (trial number within its line search or None outside one, gradient
    # margin or None, whether the energy is reduced), one entry a pass
    passes, trial = [], [None]
    chunked_pass, line_search = energy._chunked_pass, pointsets._line_search

    def counting(X, **kwargs):
        margin = None if kwargs.get("gradient") is None else kwargs["gradient"][1]
        passes.append((trial[0], margin, kwargs.get("s") is not None))
        if trial[0] is not None:
            trial[0] += 1
        return chunked_pass(X, **kwargs)

    def searching(*args):
        trial[0] = 0
        try:
            return line_search(*args)
        finally:
            trial[0] = None

    monkeypatch.setattr(energy, "_chunked_pass", counting)
    monkeypatch.setattr(pointsets, "_line_search", searching)
    out = minimize_riesz_energy(X0, s, **kwargs)
    gradients = [margin for _, margin, _ in passes if margin is not None]
    energies = [k for k, _, reduced in passes if reduced]
    # halved trials reduce the energy alone
    assert all(margin is None for k, margin, _ in passes if k)
    if stop == "max-iters":
        # each smoothed search succeeds at its first trial, whose pass also
        # gives the next iteration's gradient: one pass per iteration after
        # the starting set's, the last iteration's without the gradient
        assert out.provenance["iterations"] == 4
        assert gradients == [1e-2] * 4
        assert len(energies) == 1 + 4
        assert len(passes) == 5
    elif stop == "fallback":
        # the pair nears the cut locus, where the smoothed step is blocked:
        # the full gradient's pass runs
        assert 1e-12 in gradients
    else:
        assert out.provenance["line_search_failed"]
        assert any(k for k, _, _ in passes)  # searches halved their step


@pytest.mark.parametrize("make,s,kwargs", [
    (lambda: sample_uniform(sphere(2), 6, 300), 1.0, {"max_iters": 4, "tol": 0.0}),
    (lambda: sample_uniform(flat_torus(2), 7, 300), 1.0, {"max_iters": 4, "tol": 0.0}),
    (lambda: farthest_point_sample(sphere(3), 200, 1), 1.0, {"max_iters": 20, "tol": 0.0}),
    (lambda: farthest_point_sample(flat_torus(3), 200, 1), 1.0, {"max_iters": 20, "tol": 0.0}),
    (_s1_pair, 0.5, {"max_iters": 2000, "tol": 1e-14}),
    (_t1_triple, 0.5, {"max_iters": 5000, "tol": 0.0}),
], ids=["S2-uniform", "T2-uniform", "S3-farthest", "T3-farthest", "S1-pair", "T1-triple"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_descent_matches_two_pass_oracle(monkeypatch, make, s, kwargs, threads):
    monkeypatch.setenv("RIESZ_THREADS", threads)
    X0 = make()
    coords, trace = two_pass_descent(X0, s, **kwargs)
    out = minimize_riesz_energy(X0, s, **kwargs)
    assert out.coords.tobytes() == coords.tobytes()
    assert out.provenance["energy_trace"] == trace


@pytest.mark.parametrize("make", [lambda: farthest_point_sample(sphere(2), 600, 2),
                                  lambda: farthest_point_sample(flat_torus(2), 600, 3)],
                         ids=["S2", "T2"])
def test_descent_byte_identical_across_threads(monkeypatch, make):
    X0 = make()
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RIESZ_THREADS", threads)
        out = minimize_riesz_energy(X0, 1.0, max_iters=3, tol=0.0)
        runs.append((out.coords.tobytes(), np.array(out.provenance["energy_trace"]).tobytes()))
    assert runs[0] == runs[1]
