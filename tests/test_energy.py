import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from rieszlab import (DomainError, InputError, PointSet, continuous_energy,
                      discrete_energy, energy_gradient, energy_report,
                      energy_via_distance_cdf, flat_torus, mean_potential,
                      minimize_riesz_energy, punctured_mean_potential,
                      riesz_kernel, sample_uniform, sphere)
from rieszlab.energy import pairwise_distances, small_ball_energy
from rieszlab.rng import stream
from cli_env import cli_env
from oracles import dense_riesz_gradient
from test_tiles import _cut_band_sets


def naive_energy(X, s):
    """Direct double loop over ordered pairs; the reference implementation."""
    n = X.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                d = X.manifold.distances_from(X.coords[i], X.coords[j][None, :])[0]
                total += d ** (-s)
    return total / (n * n)


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

def test_kernel_values():
    assert riesz_kernel(1.0, 0.7) == 1.0
    assert riesz_kernel(2.0, 1.0) == 0.5
    assert riesz_kernel(4.0, 0.5) == 0.5


def test_kernel_rejects_nonpositive():
    with pytest.raises(DomainError):
        riesz_kernel(0.0, 1.0)
    with pytest.raises(DomainError):
        riesz_kernel(-1.0, 1.0)


# ----------------------------------------------------------------------
# discrete energy
# ----------------------------------------------------------------------

def test_single_point_energy_zero():
    X = sample_uniform(sphere(2), 0, 1)
    assert discrete_energy(X, 1.0) == 0.0


def test_antipodal_pair_on_circle():
    # (1/4) * 2 * pi^-s evaluated by hand
    m = sphere(1)
    X = PointSet(m, [[1.0, 0.0], [-1.0, 0.0]])
    assert discrete_energy(X, 0.5) == pytest.approx(0.5 * math.pi ** -0.5, abs=1e-15)


def test_half_spaced_torus_pair():
    X = PointSet(flat_torus(1), [[0.0], [0.5]])
    assert discrete_energy(X, 0.5) == pytest.approx(0.5 ** 0.5, abs=1e-15)


@pytest.mark.parametrize("maker,s", [
    (lambda k: sample_uniform(sphere(2), k, 24), 1.0),
    (lambda k: sample_uniform(flat_torus(2), k, 24), 1.0),
    (lambda k: sample_uniform(sphere(1), k, 16), 0.5),
    (lambda k: sample_uniform(flat_torus(1), k, 16), 0.5),
])
def test_matches_naive_double_loop(maker, s):
    for seed in range(25):
        X = maker(seed)
        fast = discrete_energy(X, s)
        ref = naive_energy(X, s)
        assert abs(fast - ref) <= 1e-13 * abs(ref)


def test_thread_count_bit_identical(monkeypatch):
    X = sample_uniform(sphere(2), 42, 700)  # spans several 256-row chunks
    Y = sample_uniform(flat_torus(2), 43, 700)
    vals_x, vals_y = set(), set()
    for t in ("1", "2", "8"):
        monkeypatch.setenv("RIESZ_THREADS", t)
        vals_x.add(discrete_energy(X, 1.0))
        vals_y.add(discrete_energy(Y, 1.0))
    assert len(vals_x) == 1
    assert len(vals_y) == 1


def test_coincident_points_error_names_indices():
    m = flat_torus(1)
    X = PointSet(m, [[0.1], [0.4], [0.1]])
    with pytest.raises(DomainError, match="0 and 2"):
        discrete_energy(X, 0.5)
    with pytest.raises(DomainError, match="indices 0 and 2"):
        energy_via_distance_cdf(X, 0.5)
    with pytest.raises(DomainError, match="indices 2 and 0"):
        punctured_mean_potential(X, 2, 0.5)
    # both points of the pair lie in the second 256-row block
    coords = sample_uniform(flat_torus(2), 3, 300).coords.copy()
    coords[290] = coords[270]
    Y = PointSet(flat_torus(2), coords)
    with pytest.raises(DomainError, match="indices 270 and 290"):
        discrete_energy(Y, 1.0)
    with pytest.raises(InputError, match="indices 270 and 290"):
        minimize_riesz_energy(Y, 1.0, max_iters=1)


def test_pairwise_distances_match_full_block_upper_triangle():
    X = sample_uniform(flat_torus(2), 11, 600)  # three 256-row blocks
    full = X.manifold.pairwise_block(X.coords, X.coords)[np.triu_indices(600, 1)]
    assert pairwise_distances(X).tobytes() == full.tobytes()


def test_exponent_range_enforced():
    X = sample_uniform(sphere(2), 0, 8)
    for bad in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(DomainError):
            discrete_energy(X, bad)


# ----------------------------------------------------------------------
# continuous energy oracles
# ----------------------------------------------------------------------

def test_circle_energy_closed_form():
    # (1/pi) * integral of t^-s over (0, pi) = pi^-s / (1-s)
    got = continuous_energy(sphere(1), 0.5)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-9)
    oracle = integrate.quad(lambda t: 1 / math.pi, 0, math.pi, weight="alg", wvar=(-0.5, 0))[0]
    assert got == pytest.approx(oracle, abs=1e-9)


def test_torus1_energy_closed_form():
    got = continuous_energy(flat_torus(1), 0.5)
    assert got == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
    oracle = integrate.quad(lambda t: 2.0, 0, 0.5, weight="alg", wvar=(-0.5, 0))[0]
    assert got == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("d,s", [(1, 0.25), (1, 0.5), (2, 0.5), (2, 1.0), (2, 1.5),
                                 (3, 0.5), (3, 1.0), (3, 1.5), (3, 2.0), (3, 2.5)])
def test_torus_energy_matches_mpmath(d, s):
    # independent reference: on T^1, 2 * the integral of x^-s over (0, 1/2);
    # on T^2, the square [-1/2, 1/2]^2 is 8 copies of 0 <= y <= x <= 1/2, and
    # y = x u splits off the singular radial factor x^(1-s); on T^3, the cube
    # is 48 copies of 0 <= z <= y <= x <= 1/2, and y = x u, z = x u v split
    # off x^(2-s)
    import mpmath
    with mpmath.workdps(30):
        s_, half = mpmath.mpf(s), mpmath.mpf(1) / 2
        if d == 1:
            exact = 2 * mpmath.quad(lambda x: x ** -s_, [0, half])
        elif d == 2:
            exact = 8 * half ** (2 - s_) / (2 - s_) * mpmath.quad(
                lambda u: (1 + u * u) ** (-s_ / 2), [0, 1])
        else:
            exact = 48 * half ** (3 - s_) / (3 - s_) * mpmath.quad(
                lambda u, v: u * (1 + u * u + u * u * v * v) ** (-s_ / 2), [0, 1], [0, 1])
    # T^1 is a closed form (c_1 = 2 exactly): within one ulp
    rel = 2e-16 if d == 1 else 2e-15
    assert continuous_energy(flat_torus(d), s) == pytest.approx(float(exact), rel=rel, abs=0)


SMALL_BALL_CASES = [(kind, d, r, s)
                    for kind, dims, radii in (("sphere", (1, 2, 3, 4), (1e-3, 0.05, 0.5, 2.0)),
                                              ("torus", (2, 3), (1e-3, 0.05, 0.5)))
                    for d in dims for r in radii
                    for s in sorted({0.5, 1.0, 1.5, d - 0.25}) if s < d]


@pytest.mark.parametrize("kind,d,r,s", SMALL_BALL_CASES)
def test_small_ball_energy_matches_mpmath(kind, d, r, s):
    # independent reference: 30-digit quadrature of t^-s against the radial
    # density below the injectivity radius, sin^(d-1) t over its integral on
    # (0, pi) on S^d, and d c_d t^(d-1) on T^d.  The substitution u = t^(d-s)
    # takes t^(d-1-s) out of the integrand: for s near d, plain mpmath.quad
    # of t^-s sin^(d-1) t is 3e-9 off at r = pi.
    import mpmath
    with mpmath.workdps(30):
        s_, r_ = mpmath.mpf(s), mpmath.mpf(r)
        p = 1 / (d - s_)
        if kind == "sphere":
            m = sphere(d)
            scale = 1 / mpmath.quad(lambda t: mpmath.sin(t) ** (d - 1), [0, mpmath.pi])
            ratio = lambda t: (mpmath.sin(t) / t) ** (d - 1) if t > 0 else 1  # noqa: E731
        else:
            m = flat_torus(d)
            scale = d * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
            ratio = lambda t: 1  # noqa: E731
        exact = scale * p * mpmath.quad(lambda u: ratio(u ** p), [0, r_ ** (d - s_)])
    assert small_ball_energy(m, s, r) == pytest.approx(float(exact), rel=1e-13, abs=0)


def test_sphere2_energy_sine_integral():
    # I_1(S^2) = Si(pi) / 2, from 30-digit mpmath: scipy's sici(pi) is 2 ulps low
    import mpmath
    with mpmath.workdps(30):
        exact = float(mpmath.si(mpmath.pi) / 2)
    assert abs(continuous_energy(sphere(2), 1.0) - exact) <= math.ulp(exact)


def test_sphere_energy_matches_mpmath():
    # independent reference: with t = pi v and beta = d - 1 - s, I_s(S^d) is
    # pi^(d-s) / Z_d times the integral of v^beta sinc(pi v)^(d-1) over
    # (0, 1), Z_d the integral of sin^(d-1) on (0, pi); v = w^(1 / (beta + 1))
    # takes v^beta out of the integrand, where plain mpmath.quad of it is
    # 3e-9 off at beta = -3/4
    import mpmath
    sinc = lambda v: mpmath.sin(mpmath.pi * v) / (mpmath.pi * v) if v > 0 else 1  # noqa: E731
    worst = 0.0
    for d in range(1, 6):
        for s in (k / 4 for k in range(1, 4 * d)):
            with mpmath.workdps(30):
                beta = d - 1 - mpmath.mpf(s)
                integral = mpmath.quad(lambda w: sinc(w ** (1 / (beta + 1))) ** (d - 1), [0, 1])
                scale = mpmath.gamma(mpmath.mpf(d + 1) / 2) / (
                    mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(d) / 2))
                exact = float(scale * mpmath.pi ** (d - s) * integral / (beta + 1))
            worst = max(worst, abs(continuous_energy(sphere(d), s) - exact) / math.ulp(exact))
    # the worst case on S^1-S^7 is 9 ulps
    assert worst <= 10


def test_torus2_energy_double_integral_oracle():
    got = continuous_energy(flat_torus(2), 1.0)
    oracle = 4.0 * integrate.dblquad(
        lambda y, x: (x * x + y * y) ** -0.5, 0, 0.5, 0, 0.5,
        epsabs=1e-12, epsrel=1e-12)[0]
    assert got == pytest.approx(oracle, abs=1e-8)


def test_torus3_energy_monte_carlo_oracle():
    s = 1.5
    got = continuous_energy(flat_torus(3), s)
    # exact inside the inscribed ball, Monte Carlo outside (integrand bounded)
    inner = 4 * math.pi * 0.5 ** (3 - s) / (3 - s)
    rng = np.random.default_rng(0)
    pts = rng.random((400_000, 3)) - 0.5
    r = np.linalg.norm(pts, axis=1)
    vals = np.where(r > 0.5, r ** -s, 0.0)
    outer = vals.mean()
    sigma = vals.std() / math.sqrt(len(vals))
    assert abs(got - (inner + outer)) <= 4.0 * sigma


def test_divergent_exponent_rejected():
    with pytest.raises(DomainError):
        continuous_energy(sphere(2), 2.0)
    with pytest.raises(InputError):
        continuous_energy(flat_torus(4), 2.0)


# ----------------------------------------------------------------------
# mean potentials
# ----------------------------------------------------------------------

def test_mean_potential_equals_continuous_energy():
    for m, s in ((sphere(2), 1.0), (sphere(1), 0.5), (flat_torus(2), 1.0)):
        e = continuous_energy(m, s)
        rng = stream(5, "holder-x")
        for x in m._sample(rng, 20):
            u = mean_potential(m, m.point(x), s)
            assert abs(u - e) <= 2e-10


def test_punctured_mean_hand_value():
    m = sphere(1)
    X = PointSet(m, [[1.0, 0.0], [-1.0, 0.0]])
    assert punctured_mean_potential(X, 0, 1.0 - 1e-12) == pytest.approx(
        0.5 / math.pi, rel=1e-9)


def test_punctured_mean_single_point():
    X = sample_uniform(flat_torus(2), 0, 1)
    assert punctured_mean_potential(X, 0, 1.0) == 0.0


def test_punctured_average_identity():
    for seed in range(5):
        X = sample_uniform(flat_torus(2), seed, 40)
        s = 1.0
        avg = sum(punctured_mean_potential(X, i, s) for i in range(X.n)) / X.n
        assert abs(avg - discrete_energy(X, s)) <= 1e-12


# ----------------------------------------------------------------------
# distance-distribution representation
# ----------------------------------------------------------------------

def test_cdf_energy_antipodal_pair():
    m = sphere(1)
    X = PointSet(m, [[1.0, 0.0], [-1.0, 0.0]])
    s = 0.5
    assert energy_via_distance_cdf(X, s) == pytest.approx(discrete_energy(X, s), rel=1e-15)


def test_cdf_energy_single_point():
    X = sample_uniform(sphere(2), 0, 1)
    assert energy_via_distance_cdf(X, 1.0) == 0.0


def test_cdf_matches_discrete_on_seeded_sets():
    for seed in range(10):
        for m, s in ((sphere(2), 1.0), (flat_torus(2), 1.0)):
            X = sample_uniform(m, seed, 64)
            a = discrete_energy(X, s)
            b = energy_via_distance_cdf(X, s)
            assert abs(a - b) <= 1e-10 * abs(a)


# ----------------------------------------------------------------------
# gradient
# ----------------------------------------------------------------------

def well_separated_cases(m, count, n=None, floor=0.03):
    """Seeded uniform sets with min distance above a floor.

    The central-difference step is pinned at 1e-5, so sets with very close
    pairs exceed the comparison tolerance from truncation alone
    (~ h^2 (s+1)(s+2) / (6 d_min^2)); seeds are scanned in order and sets
    below the floor skipped, deterministically.  One-dimensional manifolds
    get fewer points so the floor stays reachable.
    """
    from rieszlab import min_geodesic_distance
    if n is None:
        n = 8 if m.dim == 1 else 12
    out = []
    seed = 0
    while len(out) < count:
        X = sample_uniform(m, 1000 + seed, n)
        seed += 1
        if min_geodesic_distance(X).min_distance >= floor:
            out.append(X)
    return out


@pytest.mark.parametrize("m,s", [
    (sphere(2), 1.0),
    (flat_torus(2), 1.0),
    (sphere(1), 0.5),
    (flat_torus(1), 0.5),
])
def test_gradient_matches_finite_differences(m, s):
    rng = stream(77, "fd")
    h = 1e-5
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_gradient_is_tangent(d):
    # the pair terms are summed along y - x, whose radial part the final
    # projection must remove; finite differences only see tangent directions
    X = sample_uniform(sphere(d), 5, 300)
    grad = energy_gradient(X, 0.5)
    radial = np.abs(np.sum(grad * X.coords, axis=1))
    assert radial.max() <= 1e-13 * np.abs(grad).max()


def _gradient_sets():
    out = {f"S{d}": sample_uniform(sphere(d), 60 + d, 300) for d in (1, 2, 3)}
    out.update({f"T{d}": sample_uniform(flat_torus(d), 70 + d, 300) for d in (1, 2, 3)})
    out.update({f"band-{name}": X for name, X in _cut_band_sets().items()})
    out.update({f"antipode-{name}": X for name, X in _rounded_antipode_sets().items()})
    return out


def _rounded_antipode_sets():
    """Sets whose points 0 and 1 are x and -x exactly, with |x|^2 rounded
    below 1, so that their squared chord rounds below 4."""
    out = {}
    for d, v in ((1, [1.19, -0.35]), (2, [0.3, 0.5, 0.7])):
        x = np.array(v) / np.linalg.norm(v)
        rest = sample_uniform(sphere(d), 80 + d, 20).coords
        out[f"S{d}"] = PointSet(sphere(d), np.vstack([x, -x, rest]))
    return out


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "T1", "T2", "T3",
                                  "band-S1", "band-S2", "band-T1", "band-T2",
                                  "antipode-S1", "antipode-S2"])
def test_gradient_matches_dense_oracle(name):
    # the band sets hold pairs between the descent's two cuts; on the sphere
    # they are almost antipodal, where |u| must not come from 4 - q.  The
    # antipode sets hold a pair at distance pi whose q rounds below 4
    X = _gradient_sets()[name]
    for margin in (1e-12, 1e-2):
        grad = energy_gradient(X, 0.5, cut_margin=margin)
        oracle = dense_riesz_gradient(X, 0.5, margin)
        scale = np.linalg.norm(oracle, axis=1).max()
        assert np.abs(grad - oracle).max() <= 1e-12 * scale


def test_sphere_gradient_drops_antipodal_pairs():
    # points 0 and 1 sit at the cut locus of each other; each is pulled only
    # by point 2, a quarter circle away, which the two pull equally
    X = PointSet(sphere(1), [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    s = 0.5
    pull = 2.0 / 9.0 * s * (math.pi / 2) ** (-s - 1.0)
    grad = energy_gradient(X, s)
    assert np.allclose(grad, [[0.0, pull], [0.0, pull], [0.0, 0.0]], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_gradient_drops_rounded_antipodes(name):
    # |y + x|^2 is 0 from the coordinates: the pair is at distance pi and
    # counts for no margin, however q rounds
    X = _rounded_antipode_sets()[name]
    assert np.array_equal(X.coords[1], -X.coords[0])
    assert X.manifold.sq_dist(X.coords[0], X.coords[1]) < 4.0
    for margin in (1e-12, 1e-2):
        assert np.all(np.isfinite(energy_gradient(X, 0.5, cut_margin=margin)))
    Y = minimize_riesz_energy(X, 0.5, max_iters=2)
    assert np.all(np.isfinite(Y.coords))
    assert Y.provenance["energy_trace"][-1] < Y.provenance["energy_trace"][0]


@pytest.mark.parametrize("margin", [math.nan, -0.5, 1.0, 2.0])
def test_gradient_rejects_cut_margin_outside_unit_interval(margin):
    # -0.5 used to give NaN rows for an antipodal pair, the others all zeros
    X = PointSet(sphere(1), [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="cut_margin"):
        energy_gradient(X, 0.5, cut_margin=margin)
    assert np.all(np.isfinite(energy_gradient(X, 0.5, cut_margin=0.0)))


def test_energy_report_fields():
    X = sample_uniform(sphere(2), 3, 32)
    rep = energy_report(X, 1.0)
    assert rep.n == 32
    assert rep.gap == abs(rep.energy_discrete - rep.energy_continuous)
    assert rep.provenance["generator"] == "uniform"


_BLAS_HASH = """
import hashlib
from rieszlab import energy_gradient, sample_uniform, sphere
from rieszlab.energy import pairwise_distances
h = hashlib.sha256()
for d in (1, 2, 3):
    X = sample_uniform(sphere(d), d, 1100)
    h.update(pairwise_distances(X).tobytes())
    h.update(energy_gradient(X, 0.5).tobytes())
print(h.hexdigest())
"""


def test_sphere_results_byte_identical_across_blas_threads():
    # the BLAS thread count fixes the rounding order of a Gram product, so
    # a result that depends on one changes bytes between 1 and 2 threads
    digests = []
    for threads in (1, 2):
        env = dict(cli_env(1), OPENBLAS_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-c", _BLAS_HASH], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
