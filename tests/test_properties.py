"""Property tests of the ball volume (on T^3, the one torus volume that
needs a quadrature, the edge overlaps beyond r = sqrt(2)/2, and on S^1-S^3,
T^1 and T^2), of the energy gradient, the energy and the separation under a
permutation of the points, of the energy, the separation and the discrepancy
under an isometry, of the symmetry of the axis deltas and the squared
distances, of the small-ball energy on S^1-S^5, T^2 and T^3, of the
packing pool on S^1-S^5 and T^1-T^3, of the discrepancy estimate against
a center-by-center maximum on S^1-S^5 and T^1-T^3, and of wrapping a point
set on S^1-S^9 and T^1-T^3."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszlab import (PointSet, ball_volume, discrete_energy, energy_gradient,
                      estimate_discrepancy, farthest_point_sample, fibonacci_sphere, flat_torus,
                      geodesic_distance, kronecker_torus, min_geodesic_distance,
                      minimize_riesz_energy, sample_uniform, sphere)
from rieszlab.energy import small_ball_energy
from rieszlab.manifold import SQRT2_2, SQRT3_2
from rieszlab.pointsets import generate_pointset
from rieszlab.verify import _packing_pool
from oracles import best_center
from test_tiles import _cut_band_sets
from test_verify import _independent_distances

T3 = flat_torus(3)
# the closed form adds terms up to 4 pi / 3 (sqrt(3)/2)^3 ~ 2.7 to reach a
# volume near 1, so neighbouring radii may swap by a few ulps; 4e-15 is
# twice the largest swap measured on consecutive floats near sqrt(2)/2 and
# the diameter
ROUNDING = 4e-15

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

radii = st.one_of(
    st.floats(min_value=1e-300, max_value=SQRT3_2),
    # where the edge overlaps start
    st.floats(min_value=SQRT2_2 - 1e-6, max_value=SQRT2_2 + 1e-6),
)
coords = st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                  min_size=3, max_size=3)


@PROPERTY
@given(st.lists(radii, min_size=1, max_size=40))
@example([SQRT2_2 * (1 - 1e-15), SQRT2_2, SQRT2_2 * (1 + 1e-15), SQRT3_2])
@example([0.5 - 1e-16, 0.5, 0.5 + 1e-16])
def test_torus3_ball_volume_nondecreasing_in_unit_interval(rs):
    rs = np.sort(np.array(rs))
    v = ball_volume(T3, rs)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) >= -ROUNDING)
    # one radius at a time gives the same bits as the batch
    assert np.array([ball_volume(T3, r) for r in rs]).tobytes() == v.tobytes()


VOLUME_MANIFOLDS = {f"{name}{d}": make(d) for name, make, dims in
                    (("S", sphere, (1, 2, 3)), ("T", flat_torus, (1, 2))) for d in dims}


@PROPERTY
@given(st.sampled_from(sorted(VOLUME_MANIFOLDS)),
       st.lists(st.floats(min_value=0.0, max_value=1.25), min_size=1, max_size=40))
@example("T2", [0.5 / SQRT2_2 * (1 - 1e-15), 0.5 / SQRT2_2, 0.5 / SQRT2_2 * (1 + 1e-15), 1.0])
@example("S3", [1.0 - 1e-15, 1.0, 1.0 + 1e-15])
def test_ball_volume_nondecreasing_in_unit_interval(name, fractions):
    # radii as fractions of the diameter, past it too, where the volume is 1
    m = VOLUME_MANIFOLDS[name]
    v = ball_volume(m, np.sort(np.array(fractions)) * m.diameter)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) >= -ROUNDING)


@PROPERTY
@given(coords, coords)
@example([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
@example([0.1, 0.2, 0.3], [0.6, 0.7, 0.3])
def test_torus3_volume_from_sq_is_ball_volume_of_distance(x, y):
    q = T3.sq_dist(np.array(x), np.array(y))
    expected = ball_volume(T3, geodesic_distance(T3, T3.point(x), T3.point(y)))
    # the distance is sqrt(q), and squaring it back may move q by an ulp,
    # which moves c_3 q^(3/2) by about 1.5 ulps
    assert T3.volume_from_sq(q) == pytest.approx(expected, rel=1e-15, abs=0.0)


MANIFOLDS = {f"{name}{d}": make(d) for name, make in (("S", sphere), ("T", flat_torus))
             for d in (1, 2, 3)}
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def point_pairs(draw):
    """A manifold and two (n, ambient_dim) point arrays on it."""
    name = draw(st.sampled_from(sorted(MANIFOLDS)))
    m = MANIFOLDS[name]
    n = draw(st.integers(min_value=1, max_value=6))
    if name.startswith("T"):
        size = 2 * n * m.ambient_dim
        x, y = np.array(draw(st.lists(unit, min_size=size, max_size=size))).reshape(2, n, -1)
        return m, x, y
    # uniform directions: normalized rows of a seeded standard normal draw
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x, y = rng.standard_normal((2, n, m.ambient_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return m, x, y


@PROPERTY
@given(point_pairs())
@example((flat_torus(2), np.array([[0.0, 0.25]]), np.array([[0.5, 0.75]])))
@example((flat_torus(1), np.array([[0.2]]), np.array([[0.7]])))
def test_sq_dist_symmetric_and_axis_deltas_antisymmetric(case):
    # packing_number relies on the first, the gradient's column sums on the
    # second; the wrap keeps both at half a period
    m, x, y = case
    assert m.sq_dist(x, y).tobytes() == m.sq_dist(y, x).tobytes()
    for forward, backward in zip(m._axis_deltas(x, y), m._axis_deltas(y, x)):
        assert np.array_equal(-forward, backward)


# more than one 256-row chunk, so a permutation moves pairs between chunks,
# tiles and the row and column sums
GRADIENT_SETS = {
    "S2": sample_uniform(sphere(2), 81, 300),
    "S3": sample_uniform(sphere(3), 82, 300),
    "T2": sample_uniform(flat_torus(2), 83, 300),
    "T3": kronecker_torus(3, 300),
    **{f"band-{name}": X for name, X in _cut_band_sets().items()},
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(GRADIENT_SETS)), st.permutations(range(300)))
def test_gradient_rows_follow_a_permutation_of_the_points(name, order):
    X = GRADIENT_SETS[name]
    order = np.array(order)
    grad = energy_gradient(X, 0.5)
    permuted = energy_gradient(PointSet(X.manifold, X.coords[order]), 0.5)
    # the sums run in another order, so only the rounding may differ
    scale = np.linalg.norm(grad, axis=1).max()
    assert np.abs(permuted - grad[order]).max() <= 1e-13 * scale


# uniform sets, so the closest pair is unique; more than one chunk
SEPARATION_SETS = {f"{name}{d}": sample_uniform(make(d), 90 + d, 300)
                   for name, make in (("S", sphere), ("T", flat_torus)) for d in (1, 2, 3)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SEPARATION_SETS)), st.permutations(range(300)))
def test_separation_and_energy_follow_a_permutation_of_the_points(name, order):
    X = SEPARATION_SETS[name]
    order = np.array(order)
    Y = PointSet(X.manifold, X.coords[order])
    sep, permuted = min_geodesic_distance(X), min_geodesic_distance(Y)
    # sq_dist is bitwise symmetric, so the pair's distance keeps its bits
    assert permuted.min_distance.hex() == sep.min_distance.hex()
    assert tuple(sorted(int(order[k]) for k in permuted.pair)) == sep.pair
    # the pairs fall into other chunks, so only the rounding may differ
    assert discrete_energy(Y, 0.5) == pytest.approx(discrete_energy(X, 0.5), rel=1e-14, abs=0.0)


def _invariants(X):
    return np.array([discrete_energy(X, 1.0), min_geodesic_distance(X).min_distance,
                     estimate_discrepancy(X, extra_centers=0).value])


# lattices with many tied distances, and uniform sets
ISOMETRY_SETS = {"S2": fibonacci_sphere(300), "S3": sample_uniform(sphere(3), 7, 200),
                 "T2": kronecker_torus(2, 300), "T3": sample_uniform(flat_torus(3), 8, 200)}
ISOMETRY_VALUES = {name: _invariants(X) for name, X in ISOMETRY_SETS.items()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(ISOMETRY_SETS)), st.integers(min_value=0, max_value=2**32 - 1))
def test_energy_separation_and_discrepancy_invariant_under_an_isometry(name, seed):
    # a random rotation of the sphere (Q of a Gaussian's QR, its columns'
    # signs fixed by R's diagonal) or a random translation of the torus; with
    # no extra centers the discrepancy's centers are the points and move too
    X, rng = ISOMETRY_SETS[name], np.random.default_rng(seed)
    if name.startswith("S"):
        q, r = np.linalg.qr(rng.standard_normal((X.manifold.ambient_dim,) * 2))
        moved = X.coords @ (q * np.sign(np.diag(r))).T
    else:
        moved = X.coords + rng.random(X.manifold.dim)
    got = _invariants(PointSet(X.manifold, moved))
    np.testing.assert_allclose(got, ISOMETRY_VALUES[name], rtol=1e-12, atol=0.0)


SMALL_BALL_SPHERES = {d: sphere(d) for d in (1, 2, 3, 4, 5)}


@PROPERTY
@given(st.sampled_from(sorted(SMALL_BALL_SPHERES)), st.floats(min_value=0.02, max_value=0.98),
       st.lists(st.floats(min_value=1e-12, max_value=np.pi), min_size=1, max_size=40))
@example(5, 0.95, [np.pi * (1 - 1e-15), np.pi])
@example(2, 0.5, [1e-12, 1e-3, 1e-3 * (1 + 1e-15), 1.0])
def test_sphere_small_ball_energy_nondecreasing_in_radius(d, fraction, rs):
    # the integrand t^-s sin^(d-1) t is positive below pi; near pi it
    # vanishes, so neighbouring radii may swap by the rule's rounding, which
    # is below 2e-15 relative (test_energy's mpmath cases)
    m, s, rs = SMALL_BALL_SPHERES[d], fraction * d, np.sort(np.array(rs))
    e = np.array([small_ball_energy(m, s, r) for r in rs])
    assert np.all(np.diff(e) >= -4e-15 * e[1:])
    # one radius at a time gives the same bits as the batch
    assert m._small_ball_energy(s, rs).tobytes() == e.tobytes()


@PROPERTY
@given(st.sampled_from([2, 3]), st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=1e-12, max_value=0.5))
@example(2, 0.5, 0.5)
@example(3, 0.98, 1e-12)
def test_torus_small_ball_energy_is_closed_form(d, fraction, r):
    # below r = 1/2 the density is Euclidean, d c_d t^(d-1)
    s = fraction * d
    c_d = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    exact = d * c_d * r ** (d - s) / (d - s)
    assert small_ball_energy(flat_torus(d), s, r) == pytest.approx(exact, rel=1e-15, abs=0.0)


POOL_MANIFOLDS = {**{f"S{d}": sphere(d) for d in range(1, 6)},
                  **{f"T{d}": flat_torus(d) for d in range(1, 4)}}


@PROPERTY
@given(st.sampled_from(sorted(POOL_MANIFOLDS)), st.integers(0, 2 ** 32 - 1),
       st.floats(min_value=0.01, max_value=1.0))
@example("T2", 0, 1.0)
@example("T3", 1, 0.7)
@example("S5", 2, 1.0)
def test_packing_pool_lies_in_the_ball(name, seed, fraction):
    # radii from 1% of the diameter, torus radii past 1/2 among them: the
    # coordinates round by about 1e-16, more than 1e-12 r below r = 1e-4
    m = POOL_MANIFOLDS[name]
    rng = np.random.default_rng(seed)
    x, r = m._sample(rng, 1)[0], fraction * m.diameter
    pool = _packing_pool(m, x, r, 64, rng)
    assert np.all(_independent_distances(m, x, pool) <= r * (1.0 + 1e-12))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(POOL_MANIFOLDS)), st.sampled_from(["uniform", "farthest-point"]),
       st.integers(1, 300), st.one_of(st.just(0), st.integers(1, 300)), st.integers(0, 2 ** 16))
@example("S1", "farthest-point", 300, 0, 0)
@example("T3", "farthest-point", 300, 300, 1)
@example("S5", "uniform", 1, 5, 2)
def test_estimate_is_the_first_best_center(name, generator, n, extra, seed):
    # the pass certifies rows by comparisons and prices the rest; the
    # oracle prices every center, one at a time
    m = POOL_MANIFOLDS[name]
    X = generate_pointset(m, generator, n, seed)
    est = estimate_discrepancy(X, extra_centers=extra, seed=seed)
    assert (est.value, est.center_index, est.radius, est.side) == best_center(X, extra, seed)


WRAP_MANIFOLDS = {**{f"S{d}": sphere(d) for d in range(1, 10)},
                  **{f"T{d}": flat_torus(d) for d in range(1, 4)}}


@PROPERTY
@given(st.sampled_from(sorted(WRAP_MANIFOLDS)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 64), st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
@example("S2", 0, 64, 1.0 + 1e-9)
@example("T1", 0, 64, 1.0 + 1e-9)
def test_wrapping_a_point_set_is_idempotent(name, seed, n, scale):
    # rows on the manifold keep their bits; rows 1e-9 off the sphere are
    # rescaled onto it, to within the 4 eps band that wrapping keeps
    m = WRAP_MANIFOLDS[name]
    raw = m.sample(seed, n) * scale
    X = PointSet(m, raw)
    assert PointSet(m, X.coords).coords.tobytes() == X.coords.tobytes()
    if scale == 1.0:
        assert X.coords.tobytes() == raw.tobytes()
    if name.startswith("S"):
        assert np.all(np.abs(np.linalg.norm(X.coords, axis=1) - 1.0) <= 2.0 ** -50)


@pytest.mark.parametrize("name", sorted(WRAP_MANIFOLDS))
def test_generator_and_descent_outputs_are_fixed_points_of_wrapping(name):
    m = WRAP_MANIFOLDS[name]
    X = farthest_point_sample(m, 24, seed=3)
    for Y in (X, minimize_riesz_energy(X, m.dim / 2.0, max_iters=3)):
        assert PointSet(m, Y.coords).coords.tobytes() == Y.coords.tobytes()
