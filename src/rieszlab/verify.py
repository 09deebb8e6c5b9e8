"""Numerical checks of the small/large-ball volume bounds, the packing
bound, the local energy bound, and the mean-potential smoothness estimate.

Each check fits the constants of an inequality from a radius grid and
reports whether the fitted form holds; the reports are deterministic
given the seed, so they double as regression anchors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import check_exponent, mean_potential
from .errors import InputError, as_count, as_real, as_reals, as_sized_count
from .manifold import Manifold, Point
from .rng import stream


@dataclass
class BoundCheckReport:
    """Outcome of one fitted-bound check."""

    check: str
    manifold: dict
    grid: dict
    constants: dict
    worst_ratio: float
    tolerance: float
    passed: bool
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def geometric_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Decade-friendly geometric grid; exposes r -> 0 behavior (geomspace
    takes at most 32 bytes a point)."""
    lo = as_real("lo", lo, (">", 0))
    return np.geomspace(lo, as_real("hi", hi, (">", lo)), as_sized_count("count", count, 2, 32))


def _grid(radii, lo: float, hi: float, count: int, *bounds):
    """A check's radius grid, sorted, with its report description: the
    caller's radii ("given", at least one, each within the bounds), or by
    default the geometric grid of count radii from lo to hi."""
    if radii is None:
        radii, spacing = geometric_grid(lo, hi, count), "geometric"
    else:
        radii, spacing = np.sort(as_reals("radii", radii, *bounds), axis=None), "given"
        if radii.size == 0:
            raise InputError("radii must hold at least one radius")
    return radii, {"min": float(radii.min()), "max": float(radii.max()),
                   "count": int(len(radii)), "spacing": spacing}


def _bounded_toward_zero(values, radii):
    """The r -> 0 rule on a sorted radius grid: (max over the smallest decade,
    the radii below 10 x the smallest; max over the rest, or the first max if
    none; whether the first stays within 2 x the second)."""
    small = radii < 10.0 * radii[0]
    max_small = float(values[small].max())
    rest = values[~small]
    max_rest = float(rest.max()) if rest.size else max_small
    return max_small, max_rest, max_small <= 2.0 * max_rest


# ----------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------

def holder_exponent(d: int, s: float) -> float:
    """Smoothness exponent (d - s) / (d + 1) of the mean potential."""
    check_exponent(s, d)
    return (d - s) / (d + 1.0)


def energy_rate_exponent(d: int, s: float) -> float:
    """Predicted order of |discrete - continuous| energy in terms of the
    discrepancy bound: (1 - s/d) / (d + 2 - s/d)."""
    check_exponent(s, d)
    return (1.0 - s / d) / (d + 2.0 - s / d)


# ----------------------------------------------------------------------
# ball-volume flatness: |vol(B(r)) / V_d(r) - 1| <= C0 r^2 below the
# injectivity radius
# ----------------------------------------------------------------------

def check_ball_volume_flatness(m: Manifold, radii=None) -> BoundCheckReport:
    """Fit C0 = max over the grid of |vol(B(r)) / V_d(r) - 1| / r^2 and
    verify the ratio stays bounded as r -> 0 (the smallest decade must not
    dominate the rest of the grid)."""
    r0 = m.injectivity_radius
    radii, grid = _grid(radii, r0 * 1e-4, r0 * 0.5, 64, (">", 0), ("<", r0))
    defect = m._flatness_defect(radii)
    c0 = float(defect.max())
    max_small, max_rest, passed = _bounded_toward_zero(defect, radii)
    return BoundCheckReport(
        check="ball-volume-flatness",
        manifold=m.describe(),
        grid=grid,
        constants={"c0": c0, "smallest_decade_max": max_small, "rest_max": max_rest},
        worst_ratio=c0,
        tolerance=2.0,
        passed=bool(passed),
    )


# ----------------------------------------------------------------------
# small- and large-ball volume bounds: C_L r^d <= vol <= C_H r^d
# ----------------------------------------------------------------------

def _vol_over_rd(m: Manifold, radii: np.ndarray) -> np.ndarray:
    return m.ball_volume(radii) / radii ** m.dim


def check_small_ball_bounds(m: Manifold, r_max: float, radii=None) -> BoundCheckReport:
    """Fit C_L and C_H on a grid below r_max (< injectivity radius) and
    verify the ratio C_H / C_L tightens toward 1 when the cap shrinks to
    r_max / 4."""
    r_max = as_real("r_max", r_max, (">", 0), ("<", m.injectivity_radius))
    radii, grid = _grid(radii, r_max * 1e-3, r_max, 64, (">", 0), ("<=", r_max))
    ratios = _vol_over_rd(m, radii)
    c_low, c_high = float(ratios.min()), float(ratios.max())
    quarter = _vol_over_rd(m, radii / 4.0)
    q_low, q_high = float(quarter.min()), float(quarter.max())
    spread = c_high / c_low
    spread_quarter = q_high / q_low
    passed = spread_quarter <= spread * (1.0 + 1e-12)
    return BoundCheckReport(
        check="small-ball-bounds",
        manifold=m.describe(),
        grid=grid,
        constants={
            "c_low": c_low,
            "c_high": c_high,
            "spread": spread,
            "spread_quarter": spread_quarter,
        },
        worst_ratio=spread,
        tolerance=1.0,
        passed=bool(passed),
        params={"r_max": float(r_max)},
    )


def check_large_ball_bounds(m: Manifold, radii=None) -> BoundCheckReport:
    """Fit C_bot and C_top over the whole radius range (0, diameter]."""
    radii, grid = _grid(radii, m.diameter * 1e-3, m.diameter, 64, (">", 0), ("<=", m.diameter))
    ratios = _vol_over_rd(m, radii)
    c_bot, c_top = float(ratios.min()), float(ratios.max())
    passed = math.isfinite(c_bot) and math.isfinite(c_top) and c_bot > 0.0
    return BoundCheckReport(
        check="large-ball-bounds",
        manifold=m.describe(),
        grid=grid,
        constants={"c_bot": c_bot, "c_top": c_top},
        worst_ratio=c_top / c_bot,
        tolerance=math.inf,
        passed=bool(passed),
    )


# ----------------------------------------------------------------------
# packing bound: greedy packings never exceed C2 (r/q)^d
# ----------------------------------------------------------------------

def _packing_pool(m: Manifold, xc: np.ndarray, r: float, n: int, rng) -> np.ndarray:
    """n points of B(xc, r): exp at xc of tangent vectors with a uniform
    direction (projected Gaussians; Muller, Comm. ACM 2 (1959) 19-20) and
    lengths r U^(1/d).  exp maps that tangent ball onto B(xc, r), so every
    point of the ball can be drawn, but the pool is not volume-uniform."""
    v = m._project_tangent(xc, rng.standard_normal((n, m.ambient_dim)))
    v *= (r * rng.random(n) ** (1.0 / m.dim) / np.linalg.norm(v, axis=1))[:, None]
    return m.exp_array(xc, v)


def packing_number(m: Manifold, x: Point, r: float, q: float, pool_seed: int,
                   pool_size: int = 4096) -> int:
    """Greedy lower bound on the number of disjoint q/2-balls inside
    B(x, r + q/2): centers from a seeded pool of pool_size points of B(x, r)
    (_packing_pool), visited by decreasing distance from x, and accepted
    when at least q away from every earlier acceptance.
    """
    q = as_real("q", q, (">", 0))
    r = as_real("r", r, (">", q), ("<=", m.diameter))
    # the draw, its lengths, the pool, exp_array's temporaries, the distances,
    # the order and free: at most 4 ambient_dim + 5 words a point on S^1-S^9, T^1-T^9
    pool_size = as_sized_count("pool_size", pool_size, 1, 8 * (4 * m.ambient_dim + 5))
    rng = stream(as_count("pool_seed", pool_seed, 0), "packing-pool")
    xc = np.asarray(x.coords, dtype=float)
    pool = _packing_pool(m, xc, r, pool_size, rng)
    order = np.argsort(-m.distances_from(xc, pool), kind="stable")
    # free marks the candidates at least q from every acceptance so far;
    # sq_dist is bitwise symmetric, so each decision is the per-candidate one
    free = np.ones(len(pool), dtype=bool)
    count = 0
    for idx in order:
        if free[idx]:
            free &= m.distances_from(pool[idx], pool) >= q
            count += 1
    return count


def check_packing_bound(m: Manifold, cases: int = 50, seed: int = 0,
                        pool_size: int = 2048) -> BoundCheckReport:
    """Greedy packing counts against the bound C2 (r/q)^d with
    C2 = 3^d * C_top / C_bot taken from the fitted large-ball constants."""
    cases = as_count("cases", cases, 1)
    large = check_large_ball_bounds(m)
    c2 = 3.0 ** m.dim * large.constants["c_top"] / large.constants["c_bot"]
    rng = stream(seed, "packing-cases")
    worst = 0.0
    for k in range(cases):
        u1, u2 = rng.random(2)
        r = m.diameter * (0.15 + 0.75 * u1)
        q = r * (0.15 + 0.7 * u2)
        x = Point(m._sample(rng, 1)[0])
        count = packing_number(m, x, r, q, pool_seed=seed * 1000 + k, pool_size=pool_size)
        bound = c2 * (r / q) ** m.dim
        worst = max(worst, count / bound)
    return BoundCheckReport(
        check="packing-bound",
        manifold=m.describe(),
        grid={"cases": cases, "pool_size": int(pool_size)},
        constants={"c2": c2, "c_top": large.constants["c_top"], "c_bot": large.constants["c_bot"]},
        worst_ratio=worst,
        tolerance=1.0,
        passed=bool(worst <= 1.0),
        params={"seed": int(seed)},
    )


# ----------------------------------------------------------------------
# local energy bound: integral of t^-s over B(x, r) <= C_H d/(d-s) r^(d-s)
# ----------------------------------------------------------------------

def check_small_ball_energy(m: Manifold, s: float, radii=None,
                            r_max: float | None = None) -> BoundCheckReport:
    """Ratio of the truncated radial kernel integral to r^(d-s), checked
    against the fitted small-ball constant."""
    check_exponent(s, m.dim)
    r_max = (0.5 * m.injectivity_radius if r_max is None
             else as_real("r_max", r_max, (">", 0), ("<", m.injectivity_radius)))
    radii, grid = _grid(radii, r_max * 1e-3, r_max, 32)
    d = m.dim
    small = check_small_ball_bounds(m, r_max, radii)  # checks the grid against r_max
    c_high = small.constants["c_high"]
    ratios = m._small_ball_energy(s, radii) / radii ** (d - s)
    worst = float(ratios.max())
    bound = c_high * d / (d - s)
    tol = bound * (1.0 + 1e-6)
    return BoundCheckReport(
        check="small-ball-energy",
        manifold=m.describe(),
        grid=grid,
        constants={"c_high": c_high, "bound": bound, "max_ratio": worst},
        worst_ratio=worst,
        tolerance=tol,
        passed=bool(worst <= tol and _bounded_toward_zero(ratios, radii)[2]),
        params={"s": float(s), "r_max": float(r_max)},
    )


# ----------------------------------------------------------------------
# mean-potential smoothness
# ----------------------------------------------------------------------

def check_mean_potential_holder(m: Manifold, s: float, pairs: int = 20,
                                seed: int = 0) -> BoundCheckReport:
    """Ratio |U(x) - U(x')| / t^((d-s)/(d+1)) for pairs at distance
    <= t, for t spanning several decades.

    On the homogeneous manifolds implemented here the mean potential U is
    constant (see mean_potential), so every ratio is exactly 0 and the
    check passes degenerately; no pairs are drawn.  U is still evaluated
    once, so a manifold or exponent where it is undefined raises.
    """
    check_exponent(s, m.dim)
    pairs = as_count("pairs", pairs, 1)
    seed = as_count("seed", seed, 0)
    beta = holder_exponent(m.dim, s)
    r0 = m.injectivity_radius
    scales = np.geomspace(r0 * 1e-4, r0 * 1e-1, 4)
    mean_potential(m, m.origin(), s)
    worst = 0.0
    return BoundCheckReport(
        check="mean-potential-holder",
        manifold=m.describe(),
        grid={"scales": [float(t) for t in scales], "pairs_per_scale": pairs},
        constants={"exponent": beta, "max_ratio": worst},
        worst_ratio=worst,
        tolerance=1.0,
        passed=bool(worst <= 1.0),
        params={"s": float(s), "seed": seed, "degenerate_by_homogeneity": True},
    )


def run_all_checks(m: Manifold, s: float, seed: int = 0) -> list[BoundCheckReport]:
    """The full battery with default grids, as used by the CLI."""
    return [
        check_ball_volume_flatness(m),
        check_small_ball_bounds(m, 0.5 * m.injectivity_radius),
        check_large_ball_bounds(m),
        check_packing_bound(m, cases=50, seed=seed),
        check_small_ball_energy(m, s),
        check_mean_potential_holder(m, s, seed=seed),
    ]
