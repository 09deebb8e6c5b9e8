"""Geodesic-ball discrepancy.

For a fixed center the supremum over all radii is computed exactly from
the sorted distances: with closed balls, the empirical measure jumps at
each distance value, so the supremum is attained either at a jump (ball
just including the i-th point) or in the limit approaching it from below.
The estimator takes the maximum over a finite center set (all code points
plus seeded uniform extras) and is therefore a certified lower bound on
the true discrepancy, never an upper one.

The centers are walked in 256-row chunks (CHUNK_ROWS), each computed in
tiles of whole rows of squared distances (sq_dist) to all N code points.
For a code-point row those distances, from the chunk start on, are the
upper-triangle tile of the energy and separation passes, so the rate
sweep takes its energy, separation and discrepancy from one pass, with
the bits of the three separate calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import (CHUNK_ROWS, _columns, _tile_ranges, _tile_row_sums, _upper_mask,
                     compensated_sum)
from .errors import InputError
from .manifold import Manifold, Point
from .parallel import chunk_ranges, map_ordered
from .pointsets import _first_min, _separation_report, _tile_min
from .rng import stream

SIDE_ABOVE = "above"   # ball closed at the attaining radius
SIDE_BELOW = "below"   # limit from below the attaining radius


@dataclass
class DiscrepancyEstimate:
    """Lower bound on the ball discrepancy over a finite center set."""

    n: int
    value: float
    center: Point
    center_index: int
    radius: float
    side: str
    center_set: dict
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "center": [float(c) for c in self.center.coords],
            "center_index": self.center_index,
            "radius": self.radius,
            "side": self.side,
            "center_set": self.center_set,
            "provenance": self.provenance,
        }


def ball_count(X, y: Point, r: float) -> int:
    """Number of code points inside the closed ball B(y, r)."""
    if r < 0:
        raise InputError("ball radius must be >= 0")
    d = X.manifold.distances_from(np.asarray(y.coords, dtype=float), X.coords)
    return int(np.count_nonzero(d <= r))


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


def center_discrepancy(X, y: Point):
    """Exact sup over r > 0 of |empirical - volume| measure of B(y, r)
    for the fixed center y.

    Returns (value, radius, side); side 'above' means the sup is attained
    with the ball closed at the radius, 'below' in the limit from below.
    Ties prefer the smaller radius, then the 'above' side.
    """
    center = np.asarray(y.coords, dtype=float)[None, None, :]
    Q = X.manifold.sq_dist(center, X.coords[None, :, :])
    above, below = _jump_values(X.manifold, Q)
    vals = np.concatenate([above[0], below[0]])
    radii = np.tile(X.manifold.dist_from_sq(Q[0]), 2)
    sides = np.concatenate([np.zeros(X.n, dtype=int), np.ones(X.n, dtype=int)])
    k = np.lexsort((sides, radii, -vals))[0]
    return float(vals[k]), float(radii[k]), SIDE_ABOVE if sides[k] == 0 else SIDE_BELOW


def _tiled_pass(X, extra_centers: int | None, seed: int, threads, s: float | None = None):
    """One tiled pass over the centers: the N code points, then
    extra_centers seeded uniform ones (default 4N).

    Each tile computes the full rows Q = sq_dist(center rows, code points)
    for the jump values.  With s given, the code-point rows of Q from the
    chunk start on, which are the upper-triangle tile of the symmetric
    pair passes, also feed the energy row sums and the separation minimum
    before Q is sorted.  Chunks, tiles and the order of every reduction
    are those of discrete_energy and the brute-force separation, so the
    results agree with theirs bit for bit.

    Returns (estimate, energy, separation): the DiscrepancyEstimate, the
    discrete_energy and the brute-force min_geodesic_distance report, the
    last two None without s.  Coincident points raise the energy's
    DomainError.
    """
    if extra_centers is None:
        extra_centers = 4 * X.n
    if extra_centers < 0:
        raise InputError("extra_centers must be >= 0")
    m, n = X.manifold, X.n
    centers = X.coords
    if extra_centers:
        extra = m._sample(stream(seed, "discrepancy-centers"), extra_centers)
        centers = np.concatenate([centers, extra], axis=0)
    cols = _columns(X.coords)

    def work(chunk):
        # the thread unit is a chunk, not a tile: tile-sized tasks made two
        # threads slower than one
        lo, hi = chunk
        vals, sums, mins = [], [], []
        for a, b in _tile_ranges(lo, hi, n):
            Q = m.sq_dist(centers[a:b, None, :], cols)
            if s is not None and a < n:  # rows from n on are extra centers
                T = Q[:min(b, n) - a, lo:]
                upper = _upper_mask(T, a, lo)
                sums.append(_tile_row_sums(m, s, a, lo, T, upper))
                mins.append(_tile_min(a, lo, T, upper))
            above, below = _jump_values(m, Q)
            vals.append(np.maximum(above.max(axis=1), below.max(axis=1)))
        if not sums:
            return np.concatenate(vals), None, None
        return np.concatenate(vals), compensated_sum(np.concatenate(sums)), _first_min(mins)

    results = map_ordered(work, chunk_ranges(len(centers), CHUNK_ROWS), threads)
    energy = separation = None
    if s is not None:
        # the chunks below n are the chunks of discrete_energy
        pair_chunks = [r for r in results if r[1] is not None]
        energy = 2.0 * compensated_sum(r[1] for r in pair_chunks) / (n * n)
        separation = _separation_report(X, *_first_min(r[2] for r in pair_chunks))
    vals = np.concatenate([r[0] for r in results])
    k = int(np.argmax(vals))  # first occurrence = smallest center index
    value, radius, side = center_discrepancy(X, Point(centers[k].copy()))
    estimate = DiscrepancyEstimate(
        n=n,
        value=value,
        center=Point(centers[k].copy()),
        center_index=k,
        radius=radius,
        side=side,
        center_set={
            "code_points": int(n),
            "extra_centers": int(extra_centers),
            "seed": int(seed),
        },
        provenance=dict(X.provenance),
    )
    return estimate, energy, separation


def estimate_discrepancy(X, extra_centers: int | None = None, seed: int = 0,
                         threads=None) -> DiscrepancyEstimate:
    """Maximum of center_discrepancy over all code points plus
    extra_centers seeded uniform centers (default 4N extras).

    A lower bound on the true discrepancy: the finite center set can miss
    the attaining center but never overshoots.  Ties are broken by the
    smallest center index, then per center by the smallest radius and the
    'above' side, so the arg max is deterministic for any thread count.
    """
    return _tiled_pass(X, extra_centers, seed, threads)[0]

