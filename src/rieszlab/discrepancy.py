"""Geodesic-ball discrepancy.

For a fixed center the supremum over all radii is computed exactly from
the sorted distances: with closed balls, the empirical measure jumps at
each distance value, so the supremum is attained either at a jump (ball
just including the i-th point) or in the limit approaching it from below.
The estimator takes the maximum over a finite center set (all code points
plus seeded uniform extras) and is therefore a certified lower bound on
the true discrepancy, never an upper one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import CHUNK_ROWS, _tile_ranges
from .errors import InputError
from .manifold import Manifold, Point
from .parallel import chunk_ranges, map_ordered
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


def _two_sided_values(m: Manifold, coords: np.ndarray, centers: np.ndarray):
    """Jump values |empirical - volume| for a block of centers.

    Returns (above, below, Q), Q the sorted squared distances (sq_dist):
    above[c, i] is the value with the ball closed at the i-th sorted
    distance, below[c, i] the one-sided limit from beneath it.
    """
    n = len(coords)
    Q = m.sq_dist(centers[:, None, :], coords[None, :, :])
    Q.sort(axis=1)
    V = m.volume_from_sq(Q)
    counts = np.arange(1, n + 1, dtype=float) / n
    above = counts[None, :] - V
    below = V - (counts[None, :] - 1.0 / n)
    return above, below, Q


def center_discrepancy(X, y: Point):
    """Exact sup over r > 0 of |empirical - volume| measure of B(y, r)
    for the fixed center y.

    Returns (value, radius, side); side 'above' means the sup is attained
    with the ball closed at the radius, 'below' in the limit from below.
    Ties prefer the smaller radius, then the 'above' side.
    """
    center = np.asarray(y.coords, dtype=float)[None, :]
    above, below, Q = _two_sided_values(X.manifold, X.coords, center)
    vals = np.concatenate([above[0], below[0]])
    radii = np.tile(X.manifold.dist_from_sq(Q[0]), 2)
    sides = np.concatenate([np.zeros(X.n, dtype=int), np.ones(X.n, dtype=int)])
    k = np.lexsort((sides, radii, -vals))[0]
    return float(vals[k]), float(radii[k]), SIDE_ABOVE if sides[k] == 0 else SIDE_BELOW


def estimate_discrepancy(X, extra_centers: int | None = None, seed: int = 0,
                         threads=None) -> DiscrepancyEstimate:
    """Maximum of center_discrepancy over all code points plus
    extra_centers seeded uniform centers (default 4N extras).

    A lower bound on the true discrepancy: the finite center set can miss
    the attaining center but never overshoots.  Ties are broken by the
    smallest center index, then per center by the smallest radius and the
    'above' side, so the arg max is deterministic for any thread count.
    """
    if extra_centers is None:
        extra_centers = 4 * X.n
    if extra_centers < 0:
        raise InputError("extra_centers must be >= 0")
    m = X.manifold
    centers = X.coords
    if extra_centers:
        extra = m._sample(stream(seed, "discrepancy-centers"), extra_centers)
        centers = np.concatenate([centers, extra], axis=0)

    def work(chunk):
        # the thread unit is a chunk, not a tile: tile-sized tasks made two
        # threads slower than one
        vals = []
        for a, b in _tile_ranges(*chunk, X.n):
            above, below, _ = _two_sided_values(m, X.coords, centers[a:b])
            vals.append(np.maximum(above.max(axis=1), below.max(axis=1)))
        return np.concatenate(vals)

    chunks = chunk_ranges(len(centers), CHUNK_ROWS)
    vals = np.concatenate(map_ordered(work, chunks, threads))
    k = int(np.argmax(vals))  # first occurrence = smallest center index
    value, radius, side = center_discrepancy(X, Point(centers[k].copy()))
    return DiscrepancyEstimate(
        n=X.n,
        value=value,
        center=Point(centers[k].copy()),
        center_index=k,
        radius=radius,
        side=side,
        center_set={
            "code_points": int(X.n),
            "extra_centers": int(extra_centers),
            "seed": int(seed),
        },
        provenance=dict(X.provenance),
    )
