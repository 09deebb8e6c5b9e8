"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's analytic shortcuts: discrepancy by
scanning radii and counting, ball volumes by grid indicators.
"""

import numpy as np

from rieszlab import Point, center_discrepancy
from rieszlab.rng import stream


def scan_center_discrepancy(X, center, radii_count=100_000):
    """Brute-force sup over radii for one center: evaluate the two-sided
    deviation on a dense uniform radius grid, probing each jump radius
    and a point just below it so the grid resolution does not cap the
    result."""
    m = X.manifold
    d = np.sort(m.distances_from(np.asarray(center, dtype=float), X.coords))
    grid = np.linspace(0.0, m.diameter, radii_count)
    probes = np.concatenate([grid, d, np.maximum(d - 1e-9, 0.0)])
    probes.sort()
    counts = np.searchsorted(d, probes, side="right") / X.n
    vols = m.ball_volume(probes)
    return float(np.max(np.abs(counts - vols)))


def best_center(X, extra_centers, seed):
    """(value, center index, radius, side) of the largest center_discrepancy
    over the N code points and the extra_centers uniform centers that
    estimate_discrepancy draws for the seed, ties to the first index: one
    center at a time, with no pass and no pruning."""
    extra = X.manifold._sample(stream(seed, "discrepancy-centers"), extra_centers)
    best = None
    for k, center in enumerate(np.concatenate([X.coords, extra])):
        value, radius, side = center_discrepancy(X, Point(center))
        if best is None or value > best[0]:
            best = (value, k, radius, side)
    return best


def grid_torus_ball_volume(dim, cells=256):
    """Midpoint counting of the wrapped-distance indicator on T^dim."""
    g = (np.arange(cells) + 0.5) / cells
    gx = np.minimum(g, 1 - g)
    axes = np.meshgrid(*[gx] * dim, indexing="ij")
    dist = np.sqrt(sum(a * a for a in axes)).ravel()
    dist.sort()

    def vol(r):
        return np.searchsorted(dist, r, side="right") / dist.size

    return vol


def torus_ball_volume_mp(dim, q):
    """Volume of the ball of squared radius q on T^dim, as mpmath nested
    quadrature of the ball's slices across the centered unit cube: the
    slice at height x of {|p|^2 <= q} is the (dim-1)-ball of squared
    radius q - x^2.  Breakpoints sit where a slice's radius crosses a face
    or an edge of the cube (squared radius 1/4 and 1/2)."""
    import mpmath as mp

    half = mp.mpf(1) / 2

    def measure(d, q):
        if q <= 0:
            return mp.mpf(0)
        top = min(half, mp.sqrt(q))
        if d == 1:
            return 2 * top
        kinks = [mp.sqrt(q - mp.mpf(k) / 4) for k in range(1, d) if q > mp.mpf(k) / 4]
        points = [0] + sorted(x for x in kinks if x < top) + [top]
        return 2 * mp.quad(lambda x: measure(d - 1, q - x * x), points)

    return measure(dim, mp.mpf(q))


def dense_riesz_gradient(X, s, cut_margin=1e-12):
    """Riemannian gradient of the discrete Riesz s-energy from every
    ordered pair at once, in long double: pair (i, j) adds
    dist^(-s-2) log_{x_i}(x_j), scaled by 2 s / N^2, unless it lies within
    cut_margin * injectivity radius of the cut locus; then each row is
    projected onto the tangent space.

    The sphere's log map is the angle 2 atan2(|y - x|, |y + x|) along
    y - <x, y> x; the torus's is the wrapped coordinate difference.
    """
    m = X.manifold
    x = np.asarray(X.coords, dtype=np.longdouble)
    n = len(x)
    xi, xj = x[:, None, :], x[None, :, :]
    cut = np.longdouble(m.injectivity_radius) * (1 - np.longdouble(cut_margin))
    if m.kind.value == "sphere":
        chord = np.sqrt(np.sum((xj - xi) ** 2, axis=2))
        dist = 2 * np.arctan2(chord, np.sqrt(np.sum((xj + xi) ** 2, axis=2)))
        tangent = xj - np.sum(xi * xj, axis=2)[:, :, None] * xi
        norm = np.sqrt(np.sum(tangent ** 2, axis=2))
        keep = dist < cut
        log = np.where(keep, dist / np.where(keep, norm, 1), 0)[:, :, None] * tangent
    else:
        log = (xj - xi) - np.round(xj - xi)
        dist = np.sqrt(np.sum(log ** 2, axis=2))
        keep = np.max(np.abs(log), axis=2) < cut
    keep &= ~np.eye(n, dtype=bool)
    weight = np.where(keep, np.where(keep, dist, 1) ** (-s - 2), 0)
    grad = 2 * np.longdouble(s) / n ** 2 * np.sum(weight[:, :, None] * log, axis=1)
    if m.kind.value == "sphere":
        grad -= np.sum(grad * x, axis=1)[:, None] * x
    return grad.astype(float)


def greedy_farthest_point(m, n, seed, candidate_pool):
    """Greedy maximin selection by rescanning the whole pool after every
    pick, from the seeded start and pool that farthest_point_sample draws.

    Returns (coords, radii): the n picks, and for each pick after the
    start the distance sqrt(best) from it to the earlier picks, which
    bounds the candidates its rescan can change."""
    from rieszlab.rng import stream

    rng = stream(seed, "farthest-point-sample")
    chosen = [m._sample(rng, 1)[0]]
    pool = m._sample(rng, candidate_pool)
    best = m.sq_dist(chosen[0], pool)
    radii = []
    for _ in range(n - 1):
        pick = int(np.argmax(best))
        chosen.append(pool[pick].copy())
        radii.append(float(np.sqrt(best[pick])))
        best = np.minimum(best, m.sq_dist(pool[pick], pool))
    return np.array(chosen), np.array(radii)


def two_pass_descent(X0, s, max_iters=500, tol=1e-12):
    """Riemannian gradient descent on the discrete Riesz energy from public
    calls alone, two passes over the pairs an iteration: energy_gradient
    for the current set, discrete_energy for each trial.

    Each iteration searches the smoothed gradient (cut margin 1e-2) and,
    only if it is zero or finds no decrease, the full one (1e-12).  A search
    tries exp_X(-eta * grad) from eta = 0.1 N^(-1/d), halved up to 60
    times, and takes the first trial whose energy is lower; a trial with
    coincident points is no decrease.  The descent stops when no search
    succeeds or the relative decrease is below tol.

    Returns (coords, energy trace of the accepted sets)."""
    import math

    from rieszlab import DomainError, PointSet, discrete_energy, energy_gradient

    m = X0.manifold
    current, trace = X0, [discrete_energy(X0, s)]
    eta0 = 0.1 * X0.n ** (-1.0 / m.dim)
    for _ in range(max_iters):
        accepted = None
        for margin in (1e-2, 1e-12):
            grad = energy_gradient(current, s, margin)
            if not np.any(grad):
                continue
            eta = eta0
            for _ in range(60):
                trial = PointSet(m, m.exp_array(current.coords, -eta * grad))
                try:
                    e = discrete_energy(trial, s)
                except DomainError:
                    e = math.inf
                if e < trace[-1]:
                    accepted = trial
                    break
                eta /= 2.0
            if accepted is not None:
                break
        if accepted is None:
            break
        current = accepted
        trace.append(e)
        if (trace[-2] - e) / trace[-2] < tol:
            break
    return current.coords, trace
