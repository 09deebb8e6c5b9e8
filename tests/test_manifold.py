import math

import numpy as np
import pytest

from rieszlab import (DomainError, InputError, PointSet, ball_count, ball_volume,
                      discrete_energy, euclidean_ball_volume, exp_map,
                      flat_torus, geodesic_distance, log_map, make_manifold,
                      riesz_kernel, sample_uniform, sphere)
from rieszlab.energy import pairwise_distances
from rieszlab.rng import stream
from oracles import grid_torus_ball_volume, torus_ball_volume_mp

ALL_MANIFOLDS = [sphere(1), sphere(2), sphere(3), flat_torus(1), flat_torus(2), flat_torus(3)]


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def test_sphere_orthogonal_distance():
    m = sphere(2)
    x = m.point([1.0, 0.0, 0.0])
    y = m.point([0.0, 1.0, 0.0])
    assert geodesic_distance(m, x, y) == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_distance_zero_on_identical(m):
    x = m.point(m._sample(stream(3, "t"), 1)[0])
    assert geodesic_distance(m, x, x) == 0.0


def test_torus_wraparound_distance():
    m = flat_torus(1)
    assert geodesic_distance(m, m.point([0.1]), m.point([0.9])) == pytest.approx(0.2, abs=1e-15)
    assert m.point(0.3).coords.tolist() == [0.3]  # a bare number is a point of T^1


def test_distance_rejects_bad_points():
    m = sphere(2)
    with pytest.raises(InputError):
        m.point([1.0, 0.0])
    with pytest.raises(InputError):
        m.point([math.nan, 0.0, 0.0])
    with pytest.raises(InputError):
        m.point([5.0, 0.0, 0.0])


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_triangle_inequality(m):
    rng = stream(11, "triangle")
    pts = m._sample(rng, 3000)
    for k in range(1000):
        x, y, z = pts[3 * k], pts[3 * k + 1], pts[3 * k + 2]
        dxz = m.distances_from(x, z[None, :])[0]
        dxy = m.distances_from(x, y[None, :])[0]
        dyz = m.distances_from(y, z[None, :])[0]
        assert dxz <= dxy + dyz + 1e-12


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_distance_symmetry_and_range(m):
    rng = stream(12, "symmetry")
    a = m._sample(rng, 64)
    b = m._sample(rng, 64)
    dab = m.pairwise_block(a, b)
    dba = m.pairwise_block(b, a)
    assert np.allclose(dab, dba.T, atol=1e-14)
    assert np.all(dab >= 0.0)
    assert np.all(dab <= m.diameter + 1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("angle", [1e-5, 1e-7, 1e-9])
def test_sphere_small_angle_distance_matches_mpmath(d, angle):
    # independent reference: 2 atan2(|x - y|, |x + y|) of the rounded
    # coordinates at 50 digits; arccos(<x, y>) is off by 4e-8, 4e-4 and 1.0
    import mpmath
    m = sphere(d)
    rng = stream(21, "small-angle")
    x = m.point(m._sample(rng, 1)[0])
    v = m._project_tangent(x.coords, rng.standard_normal(m.ambient_dim))
    y = exp_map(m, m.tangent(x, angle * v / np.linalg.norm(v)))
    X = PointSet(m, [x.coords, y.coords])
    with mpmath.workdps(50):
        xs, ys = ([mpmath.mpf(c) for c in row] for row in X.coords)
        chord = mpmath.sqrt(sum((b - a) ** 2 for a, b in zip(xs, ys)))
        wide = mpmath.sqrt(sum((b + a) ** 2 for a, b in zip(xs, ys)))
        exact = float(2 * mpmath.atan2(chord, wide))
    for got in (geodesic_distance(m, X.point(0), X.point(1)), pairwise_distances(X)[0],
                m.pairwise_block(X.coords, X.coords)[0, 1]):
        assert got == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert math.isfinite(discrete_energy(X, 1.0))


def test_sphere_dist_from_sq_matches_mpmath():
    # independent reference: 2 asin(sqrt(q) / 2) of the rounded q at 40
    # digits, on small chords, near-antipodal chords and uniform ones
    import mpmath
    m = sphere(2)
    rng = stream(23, "dist-from-sq")
    q = np.concatenate([np.geomspace(1e-30, 4.0, 2500), 4.0 - np.geomspace(1e-15, 2.0, 1000),
                        4.0 * (1.0 - rng.random(2500))])
    with mpmath.workdps(40):
        exact = np.array([float(2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(v)) / 2)) for v in q])
    assert np.all(np.abs(m.dist_from_sq(q) - exact) <= 2 * np.spacing(exact))
    assert m.dist_from_sq(2.0) == math.pi / 2
    assert m.dist_from_sq(4.0) == math.pi
    assert np.all(m.dist_from_sq(np.array([4.0, 4.0 + 8e-16])) == math.pi)


# ----------------------------------------------------------------------
# ball volumes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [1e-9, 1e-4, 0.3, 1.5, 3.0, math.pi - 1e-4, math.pi - 1e-7])
def test_sphere_ball_volume_matches_mpmath(d, r):
    # 40-digit integral of sin^(d-1) over (0, r), over its value on (0, pi);
    # (1 - cos r) / 2 cancels to 0.0 on S^2 at r = 1e-9
    import mpmath
    with mpmath.workdps(40):
        rr = mpmath.mpf(r)
        num = mpmath.quad(lambda t: mpmath.sin(t) ** (d - 1), [0, rr])
        den = mpmath.quad(lambda t: mpmath.sin(t) ** (d - 1), [0, mpmath.pi])
        exact = float(num / den)
    assert ball_volume(sphere(d), r) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_sphere2_whole_manifold():
    assert ball_volume(sphere(2), math.pi) == 1.0


def test_sphere2_cap_third():
    assert ball_volume(sphere(2), math.pi / 3) == pytest.approx(0.25, abs=1e-12)


def test_torus2_small_disc():
    assert ball_volume(flat_torus(2), 0.25) == math.pi * 0.0625


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_ball_volume_one_at_diameter(m):
    assert ball_volume(m, m.diameter) == 1.0
    assert ball_volume(m, m.diameter * 2) == 1.0
    assert ball_volume(m, math.inf) == 1.0
    assert ball_volume(m, [0.0, math.inf]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_ball_volume_monotone(m):
    radii = np.linspace(1e-6, m.diameter, 1000)
    v = ball_volume(m, radii)
    assert np.all(np.diff(v) >= -1e-15)
    assert np.all((v >= 0) & (v <= 1))


def test_sphere2_closed_form_grid():
    m = sphere(2)
    radii = np.linspace(0.0, math.pi, 1000)
    v = ball_volume(m, radii)
    assert np.max(np.abs(v - (1 - np.cos(radii)) / 2)) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_torus_flat_volume_exact_below_half(d):
    m = flat_torus(d)
    radii = np.linspace(0.01, 0.5, 50)
    assert np.array_equal(ball_volume(m, radii), euclidean_ball_volume(d, radii))


@pytest.mark.parametrize("d", [2, 3])
def test_torus_large_radius_against_grid_oracle(d):
    m = flat_torus(d)
    vol = grid_torus_ball_volume(d, cells=256 if d == 2 else 96)
    for r in np.linspace(0.51, m.diameter - 0.01, 7):
        assert ball_volume(m, r) == pytest.approx(vol(r), abs=2e-3)


@pytest.mark.parametrize("d, qs", [
    (1, [0.0, 0.01, 0.2, 0.25 - 1e-12]),
    (2, [0.0, 0.2, 0.25 - 1e-12, 0.25, 0.25 + 1e-12, 0.3, 0.45]),
    # d = 3: the edge overlaps start at q = 1/2 and end at the squared
    # diameter 3/4
    (3, [0.0, 0.2, 0.25 - 1e-12, 0.25 + 1e-12, 0.45, 0.5 - 1e-12, 0.5 + 1e-12, 0.55,
         0.6, 0.7, 0.75 - 1e-9]),
])
def test_torus_volume_from_sq_matches_mpmath(d, qs):
    # independent reference: nested mpmath quadrature of the ball's slices
    # across the unit cube, on both sides of q = 1/4 (the injectivity radius)
    import mpmath
    m = flat_torus(d)
    with mpmath.workdps(20):
        exact = [float(torus_ball_volume_mp(d, q)) for q in qs]
    assert m.volume_from_sq(np.array(qs)) == pytest.approx(exact, rel=1e-15, abs=0.0)
    # the squared diameter (every axis delta 1/2), and anything rounded past
    # it, is the whole torus
    top = d / 4.0
    assert np.all(m.volume_from_sq(np.array([top, top * (1 + 2e-16)])) == 1.0)
    assert m.volume_from_sq(top) == 1.0


@pytest.mark.parametrize("m", [sphere(2), sphere(3), flat_torus(2), flat_torus(3)], ids=repr)
def test_sq_maps_give_the_same_bytes_on_strided_views(m):
    # numpy's transcendental ufuncs may round a strided view differently
    # from the same values contiguous; T^3 volumes once moved in 2 of these
    q = np.linspace(0.2, 0.75, 61) * (4.0 if m.kind.value == "sphere" else 1.0)
    for f in (m.volume_from_sq, m.dist_from_sq):
        whole = f(q)
        assert f(q[::-1])[::-1].tobytes() == whole.tobytes()
        assert f(q[::2]).tobytes() == whole[::2].tobytes()


def test_torus_large_radius_unsupported_dimension():
    with pytest.raises(InputError):
        ball_volume(flat_torus(4), 0.75)


def test_sphere3_zonal_quadrature_matches_reference():
    # independent reference: 30-digit quadrature of sin^(d-1) on (0, r)
    # over its value on (0, pi)
    import mpmath
    with mpmath.workdps(30):
        for d in (3, 4, 5, 7):
            m = sphere(d)
            den = mpmath.quad(lambda t: mpmath.sin(t) ** (d - 1), [0, mpmath.pi])
            for r in (0.3, 1.0, 2.0, 3.0):
                num = mpmath.quad(lambda t: mpmath.sin(t) ** (d - 1), [0, r])
                assert ball_volume(m, r) == pytest.approx(float(num / den), abs=1e-14)


def test_negative_radius_rejected():
    with pytest.raises(InputError):
        ball_volume(sphere(2), -0.1)


@pytest.mark.parametrize("error,run", [
    pytest.param(InputError, lambda: sphere(2).ball_volume(math.nan), id="ball_volume"),
    pytest.param(InputError, lambda: flat_torus(2).ball_volume(np.array([0.1, math.nan])),
                 id="ball_volume-array"),
    pytest.param(InputError, lambda: ball_count(sample_uniform(flat_torus(2), 1, 10),
                                                flat_torus(2).origin(), math.nan), id="ball_count"),
    pytest.param(InputError, lambda: euclidean_ball_volume(2, math.nan),
                 id="euclidean_ball_volume"),
    pytest.param(DomainError, lambda: riesz_kernel(1.0, math.nan), id="riesz_kernel"),
    pytest.param(DomainError, lambda: riesz_kernel(math.nan, 1.0), id="riesz_kernel-distance"),
])
def test_nan_fails_range_checks(error, run):
    # checks written as x < 0 let NaN through: ball_volume gave 1.0,
    # ball_count 0, euclidean_ball_volume nan, riesz_kernel 1.0 and nan
    with pytest.raises(error):
        run()


def test_euclidean_ball_volumes():
    assert euclidean_ball_volume(1, 3.0) == pytest.approx(6.0, abs=1e-14)
    assert euclidean_ball_volume(2, 1.0) == pytest.approx(math.pi, abs=1e-14)
    assert euclidean_ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-12)
    with pytest.raises(InputError):
        euclidean_ball_volume(0, 1.0)
    with pytest.raises(InputError):
        euclidean_ball_volume(2, -1.0)


@pytest.mark.parametrize("d", range(1, 13))
def test_unit_ball_volume_is_correctly_rounded(d):
    # c_d sets every torus volume below radius 1/2; math.gamma would give
    # c_1 = 1.9999999999999998 and c_3 one ulp low, scipy's gamma one ulp off
    # for d = 5..12
    import mpmath
    from rieszlab.manifold import _unit_ball_volume
    with mpmath.workdps(30):
        exact = float(mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1))
    assert _unit_ball_volume(d) == exact


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_sampling_deterministic():
    m = sphere(2)
    a = sample_uniform(m, 7, 3)
    b = sample_uniform(m, 7, 3)
    assert np.array_equal(a.coords, b.coords)
    c = sample_uniform(m, 8, 3)
    assert not np.array_equal(a.coords, c.coords)


def test_sampling_rejects_zero():
    with pytest.raises(InputError):
        sample_uniform(sphere(2), 1, 0)


def test_sphere_sample_mean_near_zero():
    X = sample_uniform(sphere(2), 1, 10_000)
    mean = X.coords.mean(axis=0)
    # component std is ~ 1/sqrt(3n)
    assert np.all(np.abs(mean) <= 3.0 / math.sqrt(3 * 10_000))


def test_torus_sample_ball_fraction():
    m = flat_torus(2)
    X = sample_uniform(m, 1, 10_000)
    o = m.origin()
    r = 0.25
    frac = np.count_nonzero(m.distances_from(o.coords, X.coords) <= r) / X.n
    v = ball_volume(m, r)
    assert abs(frac - v) <= 3.0 * math.sqrt(v * (1 - v) / X.n)


@pytest.mark.parametrize("m,r", [
    (sphere(1), 1.0),
    (sphere(2), 1.0),
    (flat_torus(2), 0.6),   # wrapped-ball branch
    (flat_torus(3), 0.8),   # edge-overlap branch
])
def test_monte_carlo_volume_consistency(m, r):
    n = 100_000
    X = sample_uniform(m, 5, n)
    frac = np.count_nonzero(m.distances_from(m.origin().coords, X.coords) <= r) / n
    v = ball_volume(m, r)
    assert abs(frac - v) <= 4.0 * math.sqrt(v * (1 - v) / n)


# ----------------------------------------------------------------------
# exp / log maps
# ----------------------------------------------------------------------

def test_exp_quarter_great_circle():
    m = sphere(2)
    base = m.point([1.0, 0.0, 0.0])
    v = m.tangent(base, [0.0, math.pi / 2, 0.0])
    out = exp_map(m, v)
    assert np.allclose(out.coords, [0.0, 1.0, 0.0], atol=1e-15)


def test_exp_torus_wrap():
    m = flat_torus(1)
    base = m.point([0.9])
    out = exp_map(m, m.tangent(base, [0.3]))
    assert out.coords[0] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_exp_zero_vector_is_identity(m):
    x = m.point(m._sample(stream(4, "exp0"), 1)[0])
    out = exp_map(m, m.tangent(x, np.zeros(m.ambient_dim)))
    assert np.allclose(out.coords, x.coords, atol=1e-15)


def test_exp_rejects_nonfinite():
    m = sphere(2)
    base = m.point([1.0, 0.0, 0.0])
    with pytest.raises(InputError):
        m.tangent(base, [math.inf, 0.0, 0.0])


def test_log_shorter_arc_torus():
    m = flat_torus(1)
    v = log_map(m, m.point([0.2]), m.point([0.1]))
    assert v.components[0] == pytest.approx(-0.1, abs=1e-15)


def test_log_inverse_of_exp_example():
    m = sphere(2)
    v = log_map(m, m.point([1.0, 0.0, 0.0]), m.point([0.0, 1.0, 0.0]))
    assert np.allclose(v.components, [0.0, math.pi / 2, 0.0], atol=1e-12)


@pytest.mark.parametrize("m", ALL_MANIFOLDS)
def test_log_exp_roundtrip(m):
    rng = stream(9, "roundtrip")
    for _ in range(50):
        x = m.point(m._sample(rng, 1)[0])
        raw = rng.standard_normal(m.ambient_dim)
        v = m._project_tangent(x.coords, raw)
        norm = np.linalg.norm(v)
        if norm == 0:
            continue
        v = v / norm * (0.3 * m.injectivity_radius * rng.random())
        tv = m.tangent(x, v)
        y = exp_map(m, tv)
        back = log_map(m, x, y)
        assert np.allclose(back.components, tv.components, atol=1e-10)
        assert back.norm() == pytest.approx(geodesic_distance(m, x, y), abs=1e-12)


def test_log_identical_points_zero_vector():
    m = sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    assert log_map(m, x, x).norm() == 0.0


def test_log_cut_locus_errors():
    m = sphere(2)
    with pytest.raises(DomainError):
        log_map(m, m.point([1.0, 0.0, 0.0]), m.point([-1.0, 0.0, 0.0]))
    t = flat_torus(1)
    with pytest.raises(DomainError):
        log_map(t, t.point([0.0]), t.point([0.5]))


# ----------------------------------------------------------------------
# construction / metadata
# ----------------------------------------------------------------------

def test_manifold_metadata():
    s2, t3 = sphere(2), flat_torus(3)
    assert s2.diameter == math.pi and s2.injectivity_radius == math.pi
    assert t3.diameter == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert t3.injectivity_radius == 0.5
    for m in ALL_MANIFOLDS:
        assert m.injectivity_radius <= m.diameter + 1e-15
        assert m.dim >= 1


def test_make_manifold_names():
    assert make_manifold("sphere", 2) == sphere(2)
    assert make_manifold("torus", 2) == flat_torus(2)
    assert make_manifold("flat-torus", 1) == flat_torus(1)
    with pytest.raises(InputError):
        make_manifold("klein", 2)
    with pytest.raises(InputError):
        make_manifold("sphere", 0)


def test_torus_wrap_folds_tiny_negatives_to_zero():
    # np.mod(-1e-17, 1.0) is 1.0, outside [0, 1); every wrap must fold it to 0.0
    m = flat_torus(2)
    assert m.point([-1e-17, 0.5]).coords.tolist() == [0.0, 0.5]
    assert PointSet(m, [[-1e-17, 0.5], [0.25, -1e-17]]).coords.tolist() == [[0.0, 0.5], [0.25, 0.0]]
    moved = m.exp_array(np.array([[0.0, 0.5]]), np.array([[-1e-17, 0.0]]))
    assert moved.tolist() == [[0.0, 0.5]]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_point_normalizes_like_pointset_rows(d):
    m = sphere(d)
    raw = m.sample(4, 500) * (1.0 + 1e-9)
    rows = PointSet(m, raw).coords
    assert np.array_equal(np.array([m.point(v).coords for v in raw]), rows)  # bitwise


def test_point_wrapping_and_renormalization():
    t = flat_torus(2)
    p = t.point([1.25, -0.5])
    assert np.allclose(p.coords, [0.25, 0.5], atol=1e-15)
    s = sphere(2)
    p = s.point(np.array([1.0 + 1e-13, 0.0, 0.0]))
    assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-12)
