"""Riesz kernel, discrete and continuous energies, mean potentials.

On the homogeneous manifolds handled here the continuous energy is the
Stieltjes integral of r^(-s) against the ball volume V, the distance law
that energy_via_distance_cdf uses for the discrete energy.  Past the
injectivity radius r0 it is taken by parts, on every manifold alike:
small_ball_energy(r0) + diam^(-s) - r0^(-s) V(r0) + s * the integral of
r^(-s-1) V(r) from r0 to the diameter.

The energy, the pairwise distances, the discrepancy jump values and the
gradient all come from _chunked_pass, the one chunked, tiled pass over
the squared distances (sq_dist).  It walks its rows in chunks of
CHUNK_ROWS consecutive points; the chunk is the unit of thread work and
of the first math.fsum level (the energy sums each chunk's row sums,
then the chunk sums), so CHUNK_ROWS fixes the bits.
Pair reductions, the gradient included, visit each unordered pair once: a
chunk's rows against those rows and every later point.  The gradient adds
a pair's term to the row sum of its first point and, negated, to the
column sum of its second; the column sums take the tiles' rows in row
order, and each chunk's sums are folded into the result in chunk order as
the chunk comes back.  Each chunk is computed in tiles of whole rows
holding about TILE_ELEMS entries, so TILE_ELEMS fixes the memory: a pass
uses O(TILE_ELEMS + N) of it.  Each tile's squared distances, its upper
triangle and its coincident-pair check are computed once and read by
every reduction asked for.  The triangle mask covers only the tile's
diagonal strip, its leading columns up to the last row's diagonal: the
reductions run on the full-width tile and patch the strip, so rows keep
their length and element order and the results their bits.  A gradient
pass keeps the tile's axis deltas (Manifold._axis_deltas) that Q is
summed from, and the gradient reads them.  Both sizes depend on N only,
never on the thread count (RIESZ_THREADS), and the kernel makes no BLAS
call, so results agree bit for bit for any number of threads.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, InputError, as_count, as_real, as_reals, as_sized_count
from .manifold import Manifold, Point, _gauss_rule, sum_of_squares
from .parallel import chunk_ranges, map_ordered

# Fixed row-chunk size for pairwise reductions.  Chunk boundaries (and
# therefore rounding) must not depend on the thread count.
CHUNK_ROWS = 256
# Entries per sq_dist call (128 KiB of float64).  A tile splits the rows,
# never a row, so every row vector is reduced whole whatever its size.
TILE_ELEMS = 16384


def _check_real(s) -> None:
    """An exponent s must be a real number, not a bool (InputError); NaN
    and the infinities are the range checks' to reject."""
    if isinstance(s, bool) or not isinstance(s, numbers.Real):
        raise InputError(f"s must be a real number, got {s!r}")


def check_exponent(s: float, d: int) -> None:
    """The Riesz exponent must satisfy 0 < s < d (the energy integral
    diverges otherwise); s not a number or d not a count is an InputError."""
    d = as_count("d", d, 1)
    _check_real(s)
    if not (0.0 < s < d):
        raise DomainError(f"Riesz exponent must satisfy 0 < s < d={d}, got s={s}")


def riesz_kernel(r, s: float):
    """Riesz kernel r^(-s) for r > 0 and a finite s > 0."""
    _check_real(s)
    if not (0.0 < s < math.inf):
        raise DomainError(f"kernel exponent must satisfy 0 < s < inf, got s={s}")
    arr = as_reals("r", r)
    if not np.all(arr > 0):
        raise DomainError("Riesz kernel requires a positive distance (coincident points?)")
    out = arr ** (-s)
    return float(out) if arr.ndim == 0 else out


def _tile_ranges(lo, hi, columns):
    """[start, stop) row ranges over lo..hi-1 with about TILE_ELEMS entries
    of the given row length each (at least one row)."""
    step = max(1, TILE_ELEMS // columns)
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _check_distinct(a, lo, Q, upper):
    """Raise a DomainError naming the global indices of the first
    coincident pair of the upper-triangle tile (a, Q, upper) of the chunk
    starting at lo.  upper masks the tile's leading columns, its diagonal
    strip; every later column holds pairs."""
    bad = Q <= 0.0
    bad[:, :upper.shape[1]] &= upper
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise DomainError(f"coincident points at indices {a + int(i)} and {lo + int(j)}")


def _tile_row_sums(m, s, Q, upper):
    """Kernel sum of each row of the upper-triangle tile (Q, upper), whose
    pairs are distinct, by numpy's deterministic row reduction."""
    with np.errstate(divide="ignore"):  # 0^(-s) on the masked diagonal
        k = m.dist_from_sq(Q) ** (-s)
    np.copyto(k[:, :upper.shape[1]], 0.0, where=~upper)
    return k.sum(axis=1)


def _tile_gradient(m, s, margins, x, y, deltas, Q, upper, buffers):
    """Unscaled gradient terms of the upper-triangle tile (Q, upper) of the
    points x against the (ambient_dim, N - lo) columns y, the points from
    the chunk start lo on; its pairs are distinct.  deltas are the tile's
    axis deltas y - x from Manifold._axis_deltas, one (rows, N - lo) array
    per axis: the ones Q was summed from, so the gradient forms none.

    Returns the tile's (margins, ambient_dim, rows) row sums.  buffers is
    the chunk's (margins, ambient_dim, rows + 1, N - lo) array, allocated
    by _chunked_pass for the chunk's first tile, which has the most rows,
    and reused by every later tile of the chunk: allocating it per tile let
    malloc return the tile's memory to the OS and fault it in again, about
    30 times as many page faults and twice the time of an S^2 pass at
    N = 4096.  Its row 0 is the chunk's column sums so far; the tile's
    terms go into the rows after it and are added to row 0 in row order.

    Each pair i < j is computed once.  It counts for a margin unless its
    reach (Manifold._log_lengths) lies within the margin of the cut locus.
    Its distance and weight w are computed once; each margin then masks w.
    Q and w are symmetric in the pair and the deltas antisymmetric, so the
    term w * delta of row i is, negated, the term of row j: the row sums
    take it with a plus sign, the column sums with a minus sign once the
    chunk is done.
    """
    # log_x(y) has length dist along u, the tangent part of y - x; the
    # final projection (Manifold._project_tangent) removes the rest of y - x
    with np.errstate(divide="ignore", invalid="ignore"):  # off live pairs
        reach, dist, u_norm = m._log_lengths(x, y, deltas, Q)
        cuts = [m.injectivity_radius * (1.0 - c) for c in margins]
        # the smallest margin cuts furthest out: its pairs count for any margin
        live = reach < max(cuts)
        live[:, :upper.shape[1]] &= upper
        w = np.where(live, dist ** (-s - 1.0) / u_norm, 0.0)
    terms = buffers[:, :, :len(Q) + 1]
    for k, cut in enumerate(cuts):
        wk = w if cut == max(cuts) else np.where(reach < cut, w, 0.0)
        for axis, dk in enumerate(deltas):
            np.multiply(wk, dk, out=terms[k, axis, 1:])
    rows = terms[:, :, 1:].sum(axis=3)
    # numpy adds the rows of each axis in order, so the column sums do not
    # depend on the tile size
    terms[:, :, 0] = terms.sum(axis=2)
    return rows


def _jump_values(m: Manifold, Q: np.ndarray):
    """Jump values |empirical - volume| for a block of centers.

    Q holds the squared distances (sq_dist) from each center to the N code
    points, one row per center; it is sorted in place.  Returns (above,
    below): above[c, i] is the value with the ball closed at the i-th
    sorted distance, below[c, i] the one-sided limit from beneath it.
    """
    n = Q.shape[1]
    Q.sort(axis=1)
    V = m.volume_from_sq(Q)
    counts = np.arange(1, n + 1, dtype=float) / n
    above = counts[None, :] - V
    below = V - (counts[None, :] - 1.0 / n)
    return above, below


# What _chunked_pass returns; a reduction not asked for is None.
_PassResult = namedtuple("_PassResult", "energy distances jumps gradients")


def _chunked_pass(X, s=None, distances=False, extra=None, gradient=None) -> _PassResult:
    """The one chunked, tiled pass over the squared distances (sq_dist)
    of the point set X, with only the reductions asked for:

    - s: the energy, from the kernel row sums of each tile;
    - distances: the N(N-1)/2 pairwise distances, row-major;
    - extra: (M, d) discrepancy centers after the N code points, M >= 0;
      the jumps are the largest jump value of each of the N + M centers;
    - gradient: (s, margins), without extra: the energy_gradient of each
      cut margin.

    The rows (code points, then extra centers) are walked in chunks of
    CHUNK_ROWS, each in tiles of whole rows.  A tile's columns are the code
    points from the chunk start lo on, or all of them for centers.  A tile
    is one sq_dist block; its code-point rows from column lo on are the
    upper-triangle tile.  Rows a..b-1 of it meet the diagonal only in its
    first min(b, N) - lo columns, so the mask is built for that strip
    alone; the reductions read the tile unmasked and overwrite the strip's
    masked entries (0 for the kernel and the gradient weights), and the
    distances gather each row from its diagonal on.  The tile is checked
    for coincident pairs once, then read by every pair reduction before
    the jump values sort it.  Each chunk's gradient partial is folded into
    the totals in chunk order as it comes back.
    """
    m, n = X.manifold, X.n
    rows = X.coords if extra is None else np.concatenate([X.coords, extra])
    cols = X.coords.T.copy().T[None]  # (1, N, d), each axis contiguous for the deltas
    pairs = s is not None or distances or gradient is not None
    if gradient is not None:
        totals = np.zeros((len(gradient[1]), m.ambient_dim, n))

    def work(chunk):
        # the thread unit is a chunk, not a tile: tile-sized tasks made two
        # threads slower than one
        lo, hi = chunk
        start = lo if extra is None else 0
        sums, dists, jumps, grad_rows = [], [], [], []
        tiles = _tile_ranges(lo, hi, n - start)
        if gradient is not None:
            # per margin the column sums and a tile's terms, sized by the first tile
            buffers = np.zeros((len(gradient[1]), m.ambient_dim, tiles[0][1] - lo + 1, n - lo))
        for a, b in tiles:
            deltas = m._axis_deltas(rows[a:b, None, :], cols[:, start:])
            if gradient is not None:
                deltas = list(deltas)  # the gradient reads them too; other passes stream them
            Q = sum_of_squares(deltas)  # the bits of m.sq_dist on the same tile
            if pairs and a < n:  # rows from n on are extra centers
                T = Q[:min(b, n) - a, lo - start:]  # T[i, j] is the pair (a + i, lo + j)
                # a + i < lo + j fails only in the first min(b, n) - lo columns
                upper = ~np.tri(len(T), min(b, n) - lo, a - lo, dtype=bool)
                _check_distinct(a, lo, T, upper)
                if s is not None:
                    sums.append(_tile_row_sums(m, s, T, upper))
                if distances:
                    dists.append(m.dist_from_sq(np.concatenate(
                        [T[i, a - lo + i + 1:] for i in range(len(T))])))
                if gradient is not None:
                    grad_rows.append(_tile_gradient(m, *gradient, rows[a:b], cols[0, lo:].T,
                                                    deltas, T, upper, buffers))
            if extra is not None:
                above, below = _jump_values(m, Q)
                jumps.append(np.maximum(above.max(axis=1), below.max(axis=1)))
        partial = None
        if gradient is not None:
            # per margin, row sums minus column sums over points lo..N-1
            partial = -buffers[:, :, 0]
            partial[:, :, :hi - lo] += np.concatenate(grad_rows, axis=2)
        return lo, partial, (sums, dists, jumps)

    def fold(out):
        lo, partial, reductions = out
        if partial is not None:
            totals[:, :, lo:] += partial
        return reductions

    sums, dists, jumps = zip(*map_ordered(
        work, chunk_ranges(len(rows), CHUNK_ROWS), fold))
    return _PassResult(
        # correctly rounded within each chunk, then over the chunks: this fixes the bits
        None if s is None else 2.0 * math.fsum(
            math.fsum(np.concatenate(c)) for c in sums if c) / (n * n),
        np.concatenate([t for c in dists for t in c]) if distances else None,
        None if extra is None else np.concatenate([t for c in jumps for t in c]),
        # per margin, the folded sums scaled, then projected
        None if gradient is None else tuple(
            m._project_tangent(X.coords, 2.0 * gradient[0] / (n * n) * np.ascontiguousarray(g.T))
            for g in totals))


def discrete_energy(X, s: float) -> float:
    """Normalized Riesz s-energy of a point set: the kernel averaged over
    ordered distinct pairs with a 1/N^2 weight.

    Pairs are enumerated once utilizing symmetry; the reduction is
    bit-identical for any thread count.  Coincident points raise a
    DomainError naming the offending indices.
    """
    check_exponent(s, X.manifold.dim)
    return _chunked_pass(X, s=s).energy


def punctured_mean_potential(X, i: int, s: float) -> float:
    """Mean kernel value at point i against the rest of the set, with the
    1/N normalization (not 1/(N-1))."""
    check_exponent(s, X.manifold.dim)
    center = X.point(i).coords  # checks 0 <= i < n
    others = np.delete(np.arange(X.n), i)
    d = X.manifold.distances_from(center, X.coords[others])
    if np.any(d <= 0.0):
        raise DomainError(f"coincident points at indices {i} and {int(others[np.argmax(d <= 0.0)])}")
    return float(np.sum(d ** (-s)) / X.n)


def energy_via_distance_cdf(X, s: float) -> float:
    """Discrete energy recomputed from the distribution of pairwise
    distances: sort all N(N-1)/2 distances, group equal values, and take
    the jump-weighted kernel sum.

    Algebraically identical to discrete_energy; serves as a cross-check
    of the distance-distribution representation of the energy.  Coincident
    points raise a DomainError naming the offending indices.
    """
    check_exponent(s, X.manifold.dim)
    n = X.n
    # the distances and np.unique's sorted copy, flags and counts: 41 bytes a pair
    as_sized_count("pairs", n * (n - 1) // 2, 0, 41)
    radii, counts = np.unique(pairwise_distances(X), return_counts=True)
    return 2.0 * math.fsum(radii ** (-s) * counts) / (n * n)


def pairwise_distances(X) -> np.ndarray:
    """All N(N-1)/2 pairwise geodesic distances (upper triangle, row-major),
    gathered from the upper-triangle tiles; coincident points raise a
    DomainError naming the offending indices."""
    return _chunked_pass(X, distances=True).distances


# ----------------------------------------------------------------------
# continuous (radial) integrals
# ----------------------------------------------------------------------

def continuous_energy(m: Manifold, s: float) -> float:
    """Energy of the normalized volume measure: the double integral of the
    kernel, which under homogeneity is the Stieltjes integral of r^(-s)
    against the ball volume V.  Up to the injectivity radius r0 it is
    small_ball_energy; beyond it, by parts,

      small_ball_energy(r0) + diam^(-s) - r0^(-s) V(r0)
        + s * integral of r^(-s-1) V(r) over (r0, diam),

    the integral taken on each piece (a, b) between the radii where V
    changes formula by a fixed 80-node Gauss-Legendre rule in t, with
    r = a + (b - a) sin^2(pi t / 2) turning V's half-integer powers at a and
    b into smooth terms; V is the unchecked Manifold._ball_volume.  On T^2
    and T^3 it is within 1 ulp of 30-digit mpmath at s = 0.5, 1, ..., d - 1/2.

    Raises DomainError for s outside (0, d).
    """
    breaks = m._volume_breaks
    r0, pieces = breaks[0], list(zip(breaks, breaks[1:]))
    head = small_ball_energy(m, s, r0)  # checks s
    t, weights = _gauss_rule(0.0, 80)
    jacobian = weights * (math.pi / 2.0) * np.sin(math.pi * t)
    tail = 0.0
    for a, b in pieces:
        r = a + (b - a) * np.sin(math.pi / 2.0 * t) ** 2
        tail += (b - a) * math.fsum(jacobian * r ** (-s - 1.0) * m._ball_volume(r))
    return head + (m.diameter ** -s - r0 ** -s * m.ball_volume(r0)) + s * tail


def mean_potential(m: Manifold, x: Point, s: float) -> float:
    """Mean kernel value at x against the normalized volume measure.

    Position-independent on the homogeneous manifolds implemented here;
    the point is validated and the radial reduction is shared with
    continuous_energy.
    """
    m.point(x.coords)  # validates dimension / finiteness
    return continuous_energy(m, s)


def small_ball_energy(m: Manifold, s: float, r: float) -> float:
    """Integral of t^(-s) against the radial volume density over (0, r), for
    0 < r <= injectivity radius, by a fixed 16-node Gauss-Jacobi rule, within
    2e-15 relative on S^1-S^7 (Manifold._small_ball_energy)."""
    check_exponent(s, m.dim)
    r = as_real("r", r, (">", 0), ("<=", m.injectivity_radius))
    return float(m._small_ball_energy(s, np.array([r]))[0])


# ----------------------------------------------------------------------
# gradient of the discrete energy
# ----------------------------------------------------------------------

def energy_gradient(X, s: float, cut_margin: float = 1e-12) -> np.ndarray:
    """Riemannian gradient of discrete_energy with respect to each point,
    as an (N, ambient_dim) array of tangent components.

    Pairs at the cut locus (distance within cut_margin * injectivity
    radius of the maximum reachable by the log map, 0 <= cut_margin < 1)
    contribute zero: the kernel term attains its pairwise minimum there,
    so zero is a valid subgradient choice.  Runs on RIESZ_THREADS threads
    with the bits of a serial run.
    """
    check_exponent(s, X.manifold.dim)
    cut_margin = as_real("cut_margin", cut_margin, (">=", 0), ("<", 1))
    return _chunked_pass(X, gradient=(s, (cut_margin,))).gradients[0]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

@dataclass
class EnergyReport:
    """Discrete vs continuous energy of one point set."""

    n: int
    s: float
    energy_discrete: float
    energy_continuous: float
    gap: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def energy_report(X, s: float) -> EnergyReport:
    e_m = continuous_energy(X.manifold, s)
    e_x = discrete_energy(X, s)
    return EnergyReport(
        n=X.n,
        s=float(s),
        energy_discrete=e_x,
        energy_continuous=e_m,
        gap=abs(e_x - e_m),
        provenance=dict(X.provenance),
    )
