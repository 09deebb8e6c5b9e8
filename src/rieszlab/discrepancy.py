"""Geodesic-ball discrepancy.

For a fixed center the supremum over all radii is computed exactly from
the sorted distances: with closed balls, the empirical measure jumps at
each distance value, so the supremum is attained either at a jump (ball
just including the i-th point) or in the limit approaching it from below.
The estimator takes the maximum over a finite center set (all code points
plus seeded uniform extras) and is therefore a certified lower bound on
the true discrepancy, never an upper one.

The maximum comes from energy._chunked_pass, the one chunked, tiled pass
over squared distances (sq_dist), with the centers as its rows.  It sorts
every row, prices only those that comparisons against a table of ball
volumes cannot certify below the running maximum, seeds every chunk with
the best of the chunks' first rows, and combines the chunks' (value,
index) pairs in chunk order, a tie going to the smaller index: the
estimate's center is the first of largest value for any thread count.
The rate sweep asks the same pass for the energy too, and calls
min_geodesic_distance for the separation, so its row equals the three
separate calls by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import _chunked_pass, _jump_values
from .errors import as_real, as_sized_count
from .manifold import Point, _as_vector
from .pointsets import min_geodesic_distance
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
        return {**asdict(self), "center": [float(c) for c in self.center.coords]}


def _center(X, y: Point) -> np.ndarray:
    """The coordinates of y as given, checked by the rule of Manifold.point:
    a center off the manifold is an InputError."""
    center = _as_vector(y.coords, X.manifold.ambient_dim, "center")
    X.manifold._normalize(center[None, :])
    return center


def ball_count(X, y: Point, r: float) -> int:
    """Number of code points inside the closed ball B(y, r)."""
    r = as_real("r", r, (">=", 0))
    d = X.manifold.distances_from(_center(X, y), X.coords)
    return int(np.count_nonzero(d <= r))


def center_discrepancy(X, y: Point):
    """Exact sup over r > 0 of |empirical - volume| measure of B(y, r)
    for the fixed center y.

    Returns (value, radius, side); side 'above' means the sup is attained
    with the ball closed at the radius, 'below' in the limit from below.
    Ties prefer the smaller radius, then the 'above' side.
    """
    center = _center(X, y)[None, None, :]
    Q = X.manifold.sq_dist(center, X.coords[None, :, :])
    Q.sort(axis=1)
    above, below = _jump_values(X.manifold, Q)
    vals = np.concatenate([above[0], below[0]])
    radii = np.tile(X.manifold.dist_from_sq(Q[0]), 2)
    sides = np.concatenate([np.zeros(X.n, dtype=int), np.ones(X.n, dtype=int)])
    k = np.lexsort((sides, radii, -vals))[0]
    return float(vals[k]), float(radii[k]), SIDE_ABOVE if sides[k] == 0 else SIDE_BELOW


def _tiled_pass(X, extra_centers: int | None, seed: int, s: float | None = None):
    """One energy._chunked_pass over the centers: the N code points, then
    extra_centers seeded uniform ones (default 4N, under the same memory
    check).  With s given, the same pass also reduces the energy, and the
    separation is min_geodesic_distance itself, so the results are those
    of the separate calls by construction.

    Returns (estimate, energy, separation): the DiscrepancyEstimate, the
    discrete_energy and the min_geodesic_distance report, the last two None
    without s.  Coincident points raise the energy's DomainError.
    """
    n = X.n
    extra_centers = as_sized_count(  # the sphere's draw and its copies, then centers and rows
        "extra_centers", 4 * n if extra_centers is None else extra_centers, 0,
        8 * (2 * X.manifold.ambient_dim + 2))
    extra = X.manifold._sample(stream(seed, "discrepancy-centers"), extra_centers)
    result = _chunked_pass(X, s=s, extra=extra)
    k = int(result.jump[1])  # the first center that attains the largest jump value
    center = Point((X.coords[k] if k < n else extra[k - n]).copy())
    value, radius, side = center_discrepancy(X, center)
    estimate = DiscrepancyEstimate(
        n=n,
        value=value,
        center=center,
        center_index=k,
        radius=radius,
        side=side,
        center_set={
            "code_points": int(n),
            "extra_centers": extra_centers,
            "seed": int(seed),
        },
        provenance=dict(X.provenance),
    )
    separation = None if s is None else min_geodesic_distance(X)
    return estimate, result.energy, separation


def estimate_discrepancy(X, extra_centers: int | None = None, seed: int = 0) -> DiscrepancyEstimate:
    """Maximum of center_discrepancy over all code points plus
    extra_centers seeded uniform centers (default 4N extras).

    A lower bound on the true discrepancy: the finite center set can miss
    the attaining center but never overshoots.  Ties are broken by the
    smallest center index, then per center by the smallest radius and the
    'above' side, so the arg max is deterministic for any thread count.
    """
    return _tiled_pass(X, extra_centers, seed)[0]

