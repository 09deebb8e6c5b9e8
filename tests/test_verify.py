import math
import re
import subprocess
import sys

import numpy as np
import pytest

from rieszlab import (DomainError, InputError, Sphere, check_ball_volume_flatness,
                      check_large_ball_bounds, check_mean_potential_holder,
                      check_packing_bound, check_small_ball_bounds,
                      check_small_ball_energy, energy_rate_exponent,
                      flat_torus, holder_exponent, packing_number, sphere)
from rieszlab.rng import stream
from rieszlab.verify import _packing_pool, geometric_grid

from cli_env import cli_env


# ----------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------

def test_rate_exponent_values():
    assert energy_rate_exponent(2, 1.0) == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert energy_rate_exponent(1, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert energy_rate_exponent(2, 1e-12) == pytest.approx(0.25, abs=1e-9)


def test_holder_exponent_values():
    assert holder_exponent(2, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert holder_exponent(3, 1.5) == pytest.approx(1.5 / 4.0, abs=1e-15)


def test_exponents_reject_bad_s():
    for fn in (energy_rate_exponent, holder_exponent):
        with pytest.raises(DomainError):
            fn(2, 0.0)
        with pytest.raises(DomainError):
            fn(2, 2.0)


# ----------------------------------------------------------------------
# flatness of small-ball volumes
# ----------------------------------------------------------------------

def test_sphere2_flatness_limit():
    radii = geometric_grid(1e-4, 0.1, 48)
    rep = check_ball_volume_flatness(sphere(2), radii)
    defects = rep.constants["c0"]
    assert rep.passed
    # all grid values within 5% of the curvature-defect limit 1/12
    assert abs(defects - 1.0 / 12.0) <= 0.05 / 12.0


@pytest.mark.parametrize("m", [sphere(1), flat_torus(1), flat_torus(2), flat_torus(3)])
def test_flat_manifolds_zero_defect(m):
    radii = geometric_grid(m.injectivity_radius * 1e-3, m.injectivity_radius * 0.9, 32)
    rep = check_ball_volume_flatness(m, radii)
    assert rep.constants["c0"] == 0.0
    assert rep.passed


def test_sphere3_flatness_bounded():
    rep = check_ball_volume_flatness(sphere(3), geometric_grid(1e-3, 0.5, 24))
    assert rep.passed
    # defect limit for S^d is d(d-1)/(6(d+2)): 1/5 for S^3
    assert rep.constants["c0"] == pytest.approx(0.2, rel=0.05)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sphere_flatness_defect_matches_mpmath(d):
    # independent reference: 30-digit quadrature of the scaled difference
    # (sin(r v) / r)^(d-1) - v^(d-1) over v in (0, 1), whose integral times
    # d / r^2 is |vol(B(r)) / V_d(r) - 1| / r^2
    import mpmath
    radii = geometric_grid(1e-6, math.pi / 2, 24)
    with mpmath.workdps(30):
        exact = []
        for r in radii:
            r = mpmath.mpf(float(r))
            diff = mpmath.quad(lambda v: (mpmath.sin(r * v) / r) ** (d - 1) - v ** (d - 1), [0, 1])
            exact.append(float(d * abs(diff) / r ** 2))
    assert sphere(d)._flatness_defect(radii) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_sphere_flatness_defect_independent_of_batch():
    radii = geometric_grid(1e-5, 3.0, 37)
    batch = sphere(3)._flatness_defect(radii)
    alone = np.concatenate([sphere(3)._flatness_defect(radii[i:i + 1])
                            for i in range(len(radii))])
    assert batch.tobytes() == alone.tobytes()


def test_flatness_grid_validation():
    with pytest.raises(InputError):
        check_ball_volume_flatness(flat_torus(2), np.array([0.2, 0.6]))


@pytest.mark.parametrize("check,message", [
    (lambda m, radii: check_ball_volume_flatness(m, radii),
     f"radii must be > 0 and < {math.pi}"),
    (lambda m, radii: check_small_ball_bounds(m, 0.5, radii), "radii must be > 0 and <= 0.5"),
    (lambda m, radii: check_large_ball_bounds(m, radii), f"radii must be > 0 and <= {math.pi}"),
    (lambda m, radii: check_small_ball_energy(m, 1.0, radii, r_max=0.5),
     "radii must be > 0 and <= 0.5"),
], ids=["flatness", "small-ball", "large-ball", "small-ball-energy"])
def test_nan_radius_fails_grid_check(check, message):
    with pytest.raises(InputError, match=re.escape(message)):
        check(sphere(2), [0.1, math.nan, 0.2])


# ----------------------------------------------------------------------
# small/large ball bounds
# ----------------------------------------------------------------------

def test_torus2_small_ball_constants_exact():
    rep = check_small_ball_bounds(flat_torus(2), 0.4)
    assert rep.constants["c_low"] == pytest.approx(math.pi, abs=1e-12)
    assert rep.constants["c_high"] == pytest.approx(math.pi, abs=1e-12)
    assert rep.constants["spread"] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_sphere2_small_ball_ratio_shrinks():
    rep_half = check_small_ball_bounds(sphere(2), 0.5)
    assert rep_half.constants["spread"] <= 1.03
    rep_eighth = check_small_ball_bounds(sphere(2), 0.125)
    assert rep_eighth.constants["spread"] <= 1.002
    assert rep_half.constants["spread_quarter"] <= rep_half.constants["spread"]
    assert rep_half.passed and rep_eighth.passed


def test_small_ball_degenerate_grid():
    rep = check_small_ball_bounds(sphere(2), 0.4, radii=np.array([0.3, 0.3]))
    assert rep.constants["c_low"] == rep.constants["c_high"]


@pytest.mark.parametrize("check,r_top", [
    (lambda m, radii: check_ball_volume_flatness(m, radii), 3.0),
    (lambda m, radii: check_small_ball_bounds(m, 3.0, radii), 3.0),
    (lambda m, radii: check_large_ball_bounds(m, radii), math.pi),
    (lambda m, radii: check_small_ball_energy(m, 1.0, radii, r_max=3.0), 3.0),
], ids=["flatness", "small-ball", "large-ball", "small-ball-energy"])
def test_grid_spacing_is_geometric_only_for_the_default_grid(check, r_top):
    m = sphere(2)
    default = check(m, None).grid
    assert default["spacing"] == "geometric" and default["count"] > 3
    given = check(m, [r_top, 0.1, 0.2]).grid
    assert given == {"min": 0.1, "max": r_top, "count": 3, "spacing": "given"}


def test_small_ball_grid_validation():
    with pytest.raises(InputError):
        check_small_ball_bounds(sphere(2), 4.0)
    with pytest.raises(InputError):
        check_small_ball_bounds(sphere(2), 0.5, radii=np.array([0.1, 0.7]))


def test_circle_large_ball_constant():
    rep = check_large_ball_bounds(sphere(1))
    assert rep.constants["c_bot"] == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert rep.constants["c_top"] == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert rep.passed


def test_sphere2_large_ball_at_diameter():
    radii = np.array([0.5, 1.0, math.pi])
    rep = check_large_ball_bounds(sphere(2), radii)
    assert rep.constants["c_bot"] == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)
    assert rep.constants["c_bot"] <= rep.constants["c_top"]


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------

def test_packing_interval_pinned():
    # true maximum is 5 (floor((2r+q)/q)); the greedy pool construction is
    # a lower bound and lands on 4 for random pools
    m = flat_torus(1)
    count = packing_number(m, m.point([0.37]), 0.2, 0.1, pool_seed=0)
    assert count == 4
    assert count <= 5


def test_packing_near_degenerate_q():
    m = flat_torus(1)
    assert packing_number(m, m.point([0.5]), 0.2, 0.19, pool_seed=2) >= 1


def test_packing_rejects_bad_q():
    m = flat_torus(1)
    with pytest.raises(InputError):
        packing_number(m, m.point([0.5]), 0.1, 0.2, pool_seed=0)
    with pytest.raises(InputError):
        packing_number(m, m.point([0.5]), 0.1, 0.1, pool_seed=0)


@pytest.mark.parametrize("pool_size", [0, -5, 1.5, 2048.0, True, "64", None])
def test_packing_rejects_empty_pool(pool_size):
    m = sphere(2)
    with pytest.raises(InputError, match="pool_size must be >= 1"):
        packing_number(m, m.origin(), 1.0, 0.5, pool_seed=0, pool_size=pool_size)
    with pytest.raises(InputError, match="pool_size must be >= 1"):
        check_packing_bound(m, cases=3, pool_size=pool_size)


@pytest.mark.parametrize("cases", [0, 1.5, 3.0, True, "3", None])
def test_packing_bound_rejects_non_integer_cases(cases):
    with pytest.raises(InputError, match="cases must be >= 1 and an int"):
        check_packing_bound(sphere(2), cases=cases, pool_size=64)


def test_packing_accepts_numpy_integer_sizes():
    m = sphere(2)
    count = packing_number(m, m.origin(), 1.0, 0.5, pool_seed=0, pool_size=np.int64(256))
    assert count == packing_number(m, m.origin(), 1.0, 0.5, pool_seed=0, pool_size=256)
    rep = check_packing_bound(m, cases=np.int32(2), pool_size=256)
    assert rep.grid == {"cases": 2, "pool_size": 256}


def test_packing_fills_pool_on_small_high_dimensional_cap():
    # a 0.15*pi cap holds 0.35% of S^5; the pool is drawn inside it, so all
    # 4,096 draws are candidates however small the cap
    m = sphere(5)
    count = packing_number(m, m.origin(), 0.15 * math.pi, 0.05 * math.pi, pool_seed=0)
    assert count >= 1


def test_sphere_packing_under_volume_bound():
    m = sphere(2)
    count = packing_number(m, m.origin(), 0.5, 0.05, pool_seed=0)
    large = check_large_ball_bounds(m)
    c2 = 9.0 * large.constants["c_top"] / large.constants["c_bot"]
    assert count <= c2 * (0.5 / 0.05) ** 2
    assert count == 257  # frozen greedy regression


def _reference_packing(m, x, r, q, pool_seed, pool_size):
    """The per-candidate greedy on packing_number's seeded pool: each
    candidate, by decreasing distance from x, is tested against every
    earlier acceptance."""
    pool = _packing_pool(m, x.coords, r, pool_size, stream(pool_seed, "packing-pool"))
    accepted = []
    for idx in np.argsort(-m.distances_from(x.coords, pool), kind="stable"):
        c = pool[idx]
        if not accepted or np.all(m.distances_from(c, np.array(accepted)) >= q):
            accepted.append(c)
    return len(accepted)


@pytest.mark.parametrize("m,cases", [
    (sphere(3), [(1.0, 0.3, 0), (2.0, 0.6, 1), (0.6, 0.15, 2), (3.0, 1.0, 3)]),
    (flat_torus(3), [(0.3, 0.1, 0), (0.5, 0.2, 1), (0.8, 0.15, 2), (0.2, 0.05, 3)]),
], ids=["S3", "T3"])
def test_packing_matches_per_candidate_greedy(m, cases):
    x = m.point(m._sample(stream(9, "packing-test"), 1)[0])
    for r, q, pool_seed in cases:
        count = packing_number(m, x, r, q, pool_seed=pool_seed, pool_size=1024)
        assert count > 1
        assert count == _reference_packing(m, x, r, q, pool_seed, 1024)


def test_packing_on_a_tiny_cap_returns_at_once():
    # a rejection draw from the whole sphere would need about 6e13 draws
    # to find 16 points of this cap; a child process, so that a draw that
    # never ends fails the test instead of hanging the suite
    code = ("import time\nimport rieszlab as rl\nm = rl.sphere(2)\nt = time.perf_counter()\n"
            "n = rl.packing_number(m, m.origin(), 1e-6, 1e-7, 0, 16)\n"
            "print(n, time.perf_counter() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(1), timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, seconds = proc.stdout.split()
    assert 1 <= int(count) <= 16
    assert float(seconds) < 1.0


def _independent_distances(m, x, pool):
    """Geodesic distances from x to the rows of pool, not through sq_dist:
    2 atan(|y - x| / |y + x|) on S^d, the wrapped Euclidean length on T^d."""
    if isinstance(m, Sphere):
        return 2.0 * np.arctan2(np.linalg.norm(pool - x, axis=1), np.linalg.norm(pool + x, axis=1))
    delta = pool - x
    return np.linalg.norm(delta - np.round(delta), axis=1)


@pytest.mark.parametrize("m,r", [(sphere(2), 1.0), (sphere(2), 2.5), (sphere(5), 1.0),
                                 (sphere(5), 2.5), (flat_torus(2), 0.3), (flat_torus(3), 0.45)],
                         ids=["S2-1.0", "S2-2.5", "S5-1.0", "S5-2.5", "T2-0.3", "T3-0.45"])
def test_packing_pool_lengths_follow_the_tangent_ball_law(m, r):
    # lengths r U^(1/d) put 2^-d of the pool within r/2, where the distance
    # is the length (on T^d while r <= 1/2: past it wrapping shortens some)
    n, p = 20000, 2.0 ** -m.dim
    x = m._sample(stream(5, "packing-law"), 1)[0]
    pool = _packing_pool(m, x, r, n, stream(6, "packing-law"))
    inner = int(np.count_nonzero(_independent_distances(m, x, pool) <= r / 2))
    assert abs(inner - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))


@pytest.mark.parametrize("m", [sphere(2), flat_torus(2)])
def test_packing_bound_seeded_cases(m):
    rep = check_packing_bound(m, cases=12, seed=0, pool_size=1024)
    assert rep.passed
    assert rep.worst_ratio <= 1.0


# ----------------------------------------------------------------------
# small-ball energy
# ----------------------------------------------------------------------

def test_circle_small_ball_energy_ratio():
    rep = check_small_ball_energy(sphere(1), 0.5)
    # closed form: I(r)/sqrt(r) = 2/pi for every r
    assert rep.constants["max_ratio"] == pytest.approx(2.0 / math.pi, rel=1e-9)
    assert rep.passed


def test_torus2_small_ball_energy_ratio():
    rep = check_small_ball_energy(flat_torus(2), 1.0)
    # I(r) = 2 pi r exactly, so the ratio equals the fitted bound
    assert rep.constants["max_ratio"] == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert rep.passed


def test_sphere2_small_ball_energy_no_blowup():
    rep = check_small_ball_energy(sphere(2), 1.0)
    assert rep.passed
    assert rep.worst_ratio <= rep.tolerance


# ----------------------------------------------------------------------
# mean-potential smoothness (degenerate under homogeneity)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m,s", [(sphere(2), 1.0), (flat_torus(2), 1.0)])
def test_holder_check_degenerate_zero(m, s):
    rep = check_mean_potential_holder(m, s, pairs=5, seed=0)
    assert rep.passed
    assert rep.constants["max_ratio"] <= 1e-6
    assert rep.params["degenerate_by_homogeneity"]


@pytest.mark.parametrize("kwargs", [{"pairs": 0}, {"seed": -1}])
def test_holder_check_rejects_bad_input(kwargs):
    with pytest.raises(InputError):
        check_mean_potential_holder(sphere(2), 1.0, **kwargs)


def test_holder_check_exponent_recorded():
    rep = check_mean_potential_holder(sphere(2), 1.0, pairs=2, seed=1)
    assert rep.constants["exponent"] == pytest.approx(1.0 / 3.0, abs=1e-15)


# ----------------------------------------------------------------------
# reproducibility
# ----------------------------------------------------------------------

def test_reports_bit_identical_under_seed():
    a = check_packing_bound(flat_torus(2), cases=6, seed=3, pool_size=512)
    b = check_packing_bound(flat_torus(2), cases=6, seed=3, pool_size=512)
    assert a.to_dict() == b.to_dict()
    c = check_mean_potential_holder(sphere(2), 1.0, pairs=3, seed=4)
    d = check_mean_potential_holder(sphere(2), 1.0, pairs=3, seed=4)
    assert c.to_dict() == d.to_dict()
