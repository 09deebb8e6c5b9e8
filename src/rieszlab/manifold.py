"""Geometry of the supported manifolds: unit spheres S^d and flat tori T^d.

Both manifolds are homogeneous, so the normalized volume of a geodesic
ball depends on the radius only.  Sphere points are unit vectors in
R^(d+1); torus points live in the half-open cube [0, 1)^d with the
nearest-image (wrapped) metric.

Every pairwise distance comes from one elementwise kernel, sq_dist: the
squared chord |x - y|^2 on the sphere, the squared nearest-image distance
on the torus.  No BLAS call sets its bits.  dist_from_sq and
volume_from_sq map it to distances and ball volumes.

Each formula that differs between the sphere and the torus lives in its
class: the ball volume, the radial density below the injectivity radius,
the lengths of the log map, the axis-0 scan window, the drift of raw
coordinates.  Other modules call methods and never branch on the type.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InputError, as_count, as_reals, as_sized_count
from .rng import stream

SQRT2_2 = math.sqrt(2.0) / 2.0
SQRT3_2 = math.sqrt(3.0) / 2.0


@functools.cache
def _gauss_rule(beta, n):
    """Nodes and weights, summing to 1, of the n-node Gauss rule on [0, 1]
    for the weight (beta + 1) v^beta, beta > -1; beta = 0 is Gauss-Legendre.
    Built once per rule with numpy alone: Golub-Welsch nodes from the Jacobi
    matrix of P_k^(0, beta)(2v - 1) (Math. Comp. 23 (1969)), two Newton
    steps on its orthonormal recurrence p_k, and the Christoffel weights
    1 / sum of p_k(v)^2 over k < n (Hale and Townsend, SIAM J. Sci. Comput.
    35 (2013)).  At 80 nodes each weight is within 3.2e-14 relative of the
    exact Christoffel number at its node."""
    k = np.arange(1.0, n)
    c = 2.0 * k + beta
    # recurrence coefficients a_k, b_k of (1 + x)^beta on [-1, 1], mapped to
    # v = (1 + x) / 2: diagonal (1 + a_k) / 2, off-diagonal sqrt(b_k / 4)
    diag = (1.0 + np.concatenate([[beta / (beta + 2.0)], beta * beta / (c * (c + 2.0))])) / 2.0
    off = np.sqrt(k * k * (k + beta) ** 2 / (c * c * (c - 1.0) * (c + 1.0)))
    v = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    off = np.concatenate([[0.0], off, [1.0]])  # the last step gives a multiple of p_n
    for step in range(3):
        before, p, dbefore, dp, total = 0.0, np.ones_like(v), 0.0, 0.0, 0.0
        for j in range(n):
            total = total + p * p
            before, p, dbefore, dp = (p, ((v - diag[j]) * p - off[j] * before) / off[j + 1],
                                      dp, (p + (v - diag[j]) * dp - off[j] * dbefore) / off[j + 1])
        if step < 2:
            v = v - p / dp
    weights = 1.0 / total
    return v, weights / weights.sum()


def _gauss_sum(f, beta, n):
    """Mean of f under _gauss_rule(beta, n).  f maps the nodes, an (n, 1)
    column, to an (n, m) array over a batch, e.g. one column per radius.
    Rows and weights add in node order (np.add.accumulate, where sum would
    switch to pairwise addition for m = 1): an element's bits do not depend
    on its batch, and a constant f gives its own bits back."""
    nodes, weights = _gauss_rule(beta, n)
    total = np.add.accumulate(weights[:, None] * f(nodes[:, None]), axis=0)[-1]
    return total / np.add.accumulate(weights)[-1]


def _log_sinc(t):
    """log(sin t / t) for 0 < t < pi without cancellation: sin t / t is the
    product of cos(t / 2^k) for k = 1..6 and sin y / y at y = t / 64, with
    log cos a = log1p(-2 sin^2(a / 2)) and a Taylor series for y."""
    y2 = (t / 64.0) ** 2
    total = -y2 * (1.0 / 6.0 + y2 * (1.0 / 180.0 + y2 * (1.0 / 2835.0 + y2 / 37800.0)))
    for k in range(2, 8):
        h = np.sin(t / 2.0 ** k)
        total = total + np.log1p(-2.0 * h * h)
    return total


def sum_of_squares(components):
    """Sum of c * c over the arrays c of components, added in their order:
    the one accumulation behind sq_dist.  A squared norm built from the same
    axis deltas (or axis sums) through it has the bits sq_dist would give.
    It starts from the first square, which 0.0 + c * c would equal: c * c
    is never -0.0."""
    components = iter(components)
    c = next(components)
    total = c * c
    for c in components:
        total += c * c
    return total


def _contiguous(q):
    """q as a C-contiguous float array, 0-d kept 0-d: numpy's
    transcendental ufuncs may round a strided view differently from the
    same values contiguous.  A no-op on contiguous input."""
    q = np.asarray(q, dtype=float)
    return np.ascontiguousarray(q) if q.ndim else q


class ManifoldKind(str, Enum):
    SPHERE = "sphere"
    FLAT_TORUS = "flat-torus"


@dataclass(frozen=True, eq=False)
class Point:
    """A validated point; construct through Manifold.point()."""

    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector at a base point; construct through Manifold.tangent()."""

    base: Point
    components: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def _as_vector(coords, ambient_dim: int, what: str) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if arr.ndim == 0 and ambient_dim == 1:
        arr = arr.reshape(1)
    if arr.shape != (ambient_dim,):
        raise InputError(f"{what} must have shape ({ambient_dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} has non-finite coordinates")
    return arr


class Manifold(ABC):
    """Compact connected Riemannian manifold with closed-form geometry.

    Instances are immutable; every operation is pure and thread-safe.
    """

    kind: ManifoldKind

    def __init__(self, dim: int):
        self._dim = as_count("dim", dim, 1)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    @abstractmethod
    def ambient_dim(self) -> int:
        """Length of a coordinate vector."""

    @property
    @abstractmethod
    def diameter(self) -> float:
        """Maximum geodesic distance between two points."""

    @property
    @abstractmethod
    def injectivity_radius(self) -> float:
        """Largest radius below which geodesics are uniquely minimizing."""

    # -- point / tangent construction -------------------------------------

    def point(self, coords) -> Point:
        """Validate (and normalize / wrap) raw coordinates into a Point."""
        v = _as_vector(coords, self.ambient_dim, "point")
        return Point(self._normalize(v[None, :])[0])

    def tangent(self, base: Point, components) -> TangentVector:
        comp = _as_vector(components, self.ambient_dim, "tangent vector")
        return TangentVector(base, self._project_tangent(base.coords, comp))

    def origin(self) -> Point:
        """A fixed reference point: the first unit vector put on the manifold
        (the pole of the sphere, the corner of the torus)."""
        return Point(self._normalize(np.eye(1, self.ambient_dim))[0])

    # -- geometry ----------------------------------------------------------

    def sample(self, seed: int, n: int) -> np.ndarray:
        """n i.i.d. points from the normalized volume measure, as an
        (n, ambient_dim) array; deterministic given the seed."""
        n = as_sized_count("n", n, 1, 8 * (4 * self.ambient_dim + 2))  # the draw and its copies
        return self._sample(stream(seed, "sample-uniform"), n)

    def ball_volume(self, r):
        """Normalized volume of a closed geodesic ball of radius r.

        Accepts a scalar or an array.  Exactly 1 for r >= diameter;
        negative and NaN radii raise.
        """
        arr = as_reals("r", r, (">=", 0))
        flat = np.atleast_1d(arr).ravel()
        out = np.ones_like(flat)
        inside = flat < self.diameter
        if np.any(inside):
            out[inside] = self._ball_volume(flat[inside])
        out = out.reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

    # -- array-level kernels (hot paths) -----------------------------------

    def _axis_delta(self, diff):
        """Axis-k difference b_k - a_k as sq_dist sees it (the torus wraps it)."""
        return diff

    def _axis_deltas(self, a, b):
        """Axis deltas b_k - a_k of a and b, which broadcast over their
        leading axes, one array per axis in axis order: the only code that
        subtracts one point's coordinates from another's."""
        a, b = np.asarray(a), np.asarray(b)
        return (self._axis_delta(b[..., k] - a[..., k]) for k in range(self.ambient_dim))

    def sq_dist(self, a, b):
        """Squared-distance kernel between a and b, which broadcast over
        their leading axes: the squared axis deltas, added in axis order."""
        return sum_of_squares(self._axis_deltas(a, b))

    @abstractmethod
    def dist_from_sq(self, q):
        """Geodesic distance for the sq_dist value q."""

    @abstractmethod
    def volume_from_sq(self, q):
        """Normalized ball volume at the sq_dist values q (any q >= 0)."""

    def distances_from(self, y: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Geodesic distances from a single point y to each row of coords."""
        return self.dist_from_sq(self.sq_dist(y, coords))

    def pairwise_block(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(len(a), len(b)) matrix of geodesic distances."""
        return self.dist_from_sq(self.sq_dist(a[:, None, :], b[None, :, :]))

    @abstractmethod
    def exp_array(self, base: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Row-wise exponential map."""

    @abstractmethod
    def _project_tangent(self, base: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Tangent part of vec at base, row-wise for arrays of rows."""

    @abstractmethod
    def _normalize(self, coords: np.ndarray) -> np.ndarray:
        """Validate and normalize (or wrap) the rows of an (n, ambient_dim)
        array onto the manifold; rows already on it keep their bits."""

    @abstractmethod
    def _sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ...

    @abstractmethod
    def _ball_volume(self, r):
        """Ball volume at a radius or a 1-D array of radii, all strictly
        below the diameter; unchecked."""

    # The sq_dist value at the diameter, where volume_from_sq reaches 1.
    _sq_diameter: float

    # The radii from the injectivity radius to the diameter at which the
    # ball volume changes formula; continuous_energy integrates between them.
    _volume_breaks: tuple

    @abstractmethod
    def _log_density(self, t):
        """log g(t) at distances t below the injectivity radius, where the
        distance to a point has the density C t^(d-1) g(t), g(0) = 1, and C
        is the property _density_scale; g - 1 is its expm1."""

    def _small_ball_energy(self, s, r):
        """energy.small_ball_energy with s checked, at an array of radii in
        (0, injectivity radius]: C r^(d-s) times the integral of v^(d-1-s)
        g(r v) over (0, 1), that is C r^(d-s) / (d - s) times the mean of
        g(r v) under the 16-node rule of the weight v^(d-1-s).  A radius gets
        the same bits in any batch, and g = 1 (T^d) gives exactly
        C r^(d-s) / (d - s).  Within 2e-15 relative of 30-digit mpmath on
        S^1-S^7, r from 1e-3 to pi, s from 0.25 to d - 1/4."""
        d = self.dim
        mean = _gauss_sum(lambda v: np.exp(self._log_density(v * r)), d - 1.0 - s, 16)
        return self._density_scale * r ** (d - s) * mean / (d - s)

    @abstractmethod
    def _log_lengths(self, x, y, deltas, Q):
        """(reach, dist, |u|) of the pairs of rows x and columns y, with axis
        deltas deltas and sq_dist Q: what a cut margin is measured on, the
        distance, and the length of u, the tangent part of y - x."""

    def _log_array(self, x, ys):
        """Log map from a single x to each row of ys (no cut-locus check): u,
        the tangent part of y - x, scaled by dist / |u| from the lengths the
        energy gradient uses; 0 where u = 0."""
        deltas = list(self._axis_deltas(x, ys[None]))  # one (1, len(ys)) row per axis
        _, dist, u_norm = self._log_lengths(x[None], ys.T, deltas, sum_of_squares(deltas))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(u_norm > 0.0, dist / u_norm, 0.0)
        return self._project_tangent(x, np.stack(deltas, axis=-1)[0]) * scale[0, :, None]

    def _flatness_defect(self, radii):
        """|vol(B(r)) / V_d(r) - 1| / r^2, V_d the Euclidean ball volume, where
        vol / V_d - 1 is the mean of (g - 1)(r v) under the weight d v^(d-1)
        on (0, 1): 20 nodes."""
        return np.abs(_gauss_sum(
            lambda v: np.expm1(self._log_density(radii * v)), self.dim - 1.0, 20)) / (radii * radii)

    # translates of an axis-0 window that the metric identifies with it
    _axis0_shifts = np.array([0.0])

    def _axis0_ranges(self, axis0, center, reach):
        """[start, stop) ranges of the sorted axis-0 coordinates axis0 that
        lie within reach of center."""
        starts = np.searchsorted(axis0, center - reach + self._axis0_shifts, "left")
        stops = np.searchsorted(axis0, center + reach + self._axis0_shifts, "right")
        return [(a, b) for a, b in zip(starts, stops) if a < b]

    @abstractmethod
    def _drift(self, coords: np.ndarray) -> float:
        """How far the raw rows of coords lie off the manifold."""

    def describe(self) -> dict:
        return {"kind": self.kind.value, "dim": self.dim}

    def __repr__(self):
        return f"{type(self).__name__}({self.dim})"

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))


class Sphere(Manifold):
    """Unit sphere S^d embedded in R^(d+1) with the great-circle metric."""

    kind = ManifoldKind.SPHERE

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def diameter(self) -> float:
        return math.pi

    @property
    def injectivity_radius(self) -> float:
        return math.pi

    def _normalize(self, coords):
        norms = np.linalg.norm(coords, axis=1)
        off = np.abs(norms - 1.0)
        if np.any(off > 1e-6):
            bad = int(np.argmax(off))
            raise InputError(f"sphere point {bad} has norm {norms[bad]:.6g}, too far from 1")
        # a divided row lands within 2 eps of norm 1, so rows within 4 eps = 2^-50
        # are kept (divided by 1.0): normalizing a set twice keeps its bits
        return coords / np.where(off > 2.0 ** -50, norms, 1.0)[:, None]

    def _project_tangent(self, base, vec):
        return vec - np.sum(base * vec, axis=-1, keepdims=True) * base

    # own entries: perfbench/tracing.py wraps the methods of each class
    pairwise_block = Manifold.pairwise_block
    distances_from = Manifold.distances_from

    def dist_from_sq(self, q):
        # 2 atan(|x - y| / |x + y|) with |x + y|^2 = 4 - q, which cancels near
        # the antipode (_log_lengths keeps those digits); q = 4 (or a rounded
        # q > 4) divides by zero into atan(inf) = pi/2
        q = _contiguous(q)
        with np.errstate(divide="ignore"):
            return 2.0 * np.arctan(np.sqrt(q / np.maximum(4.0 - q, 0.0)))

    def exp_array(self, base, vec):
        theta = np.linalg.norm(vec, axis=1)
        safe = np.where(theta > 0.0, theta, 1.0)
        moved = np.cos(theta)[:, None] * base + np.sin(theta)[:, None] * vec / safe[:, None]
        return self._normalize(np.where(theta[:, None] > 0.0, moved, base))

    def _sample(self, rng, n):
        v = rng.standard_normal((n, self.ambient_dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def _drift(self, coords):
        return np.abs(np.linalg.norm(coords, axis=1) - 1.0).max()

    def _log_lengths(self, x, y, deltas, Q):
        # dist = 2 atan(|y - x| / |y + x|) and |u| = sin(dist) =
        # |y - x| |y + x| / 2 keep their digits up to the antipode, where
        # |y + x|^2 = 4 - Q would not: there it is 0, the distance pi
        plus = sum_of_squares(y[k] + x[:, k, None] for k in range(len(y)))
        dist = 2.0 * np.arctan(np.sqrt(Q / plus))
        return dist, dist, np.sqrt(Q * plus) / 2.0

    _sq_diameter = 4.0
    _volume_breaks = (math.pi,)

    def _ball_volume(self, r):
        # S^1 keeps the arc: the round trip through q loses digits near pi
        return r / math.pi if self.dim == 1 else self.volume_from_sq(4.0 * np.sin(r / 2.0) ** 2)

    def volume_from_sq(self, q):
        q = _contiguous(q)
        if self.dim == 1:
            return self.dist_from_sq(q) / math.pi
        # (1 - <x, y>) / 2 = q / 4 is Beta(d/2, d/2) under the uniform measure
        x = np.minimum(q / 4.0, 1.0)
        if self.dim == 2:
            return x
        from scipy import special
        return special.betainc(self.dim / 2.0, self.dim / 2.0, x)

    @property
    def _density_scale(self):
        # 1 / Z_d, Z_d = sqrt(pi) Gamma(d/2) / Gamma((d+1)/2) = the integral of sin^(d-1) on (0, pi)
        return math.gamma((self.dim + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(self.dim / 2.0))

    def _log_density(self, t):
        # g = (sin t / t)^(d-1); 1 on S^1, where arcs have exactly Euclidean length
        return (self.dim - 1) * _log_sinc(t)


class FlatTorus(Manifold):
    """Flat torus T^d = [0, 1)^d with the nearest-image metric."""

    kind = ManifoldKind.FLAT_TORUS

    @property
    def ambient_dim(self) -> int:
        return self.dim

    @property
    def diameter(self) -> float:
        return math.sqrt(self.dim) / 2.0

    @property
    def injectivity_radius(self) -> float:
        return 0.5

    def _normalize(self, coords):
        # np.mod(-1e-17, 1.0) rounds up to 1.0; fold it to 0.0 to stay in [0, 1)
        wrapped = np.mod(coords, 1.0)
        return np.where(wrapped == 1.0, 0.0, wrapped)

    def _project_tangent(self, base, vec):
        return vec

    def _axis_delta(self, diff):
        # signed nearest-image difference in [-1/2, 1/2], in place on a fresh diff
        diff -= np.round(diff)
        return diff

    pairwise_block = Manifold.pairwise_block  # own entries, as on Sphere
    distances_from = Manifold.distances_from

    def dist_from_sq(self, q):
        return np.sqrt(_contiguous(q))

    def volume_from_sq(self, q):
        # c_d q^(d/2) up to the injectivity radius (q <= 1/4); beyond it the
        # clipped-ball formulas, on those entries only
        arr = _contiguous(q)
        q = np.atleast_1d(arr)
        top = self._sq_diameter
        out = _unit_ball_volume(self.dim) * q ** (self.dim / 2.0)
        big = (q > 0.25) & (q < top)
        if np.any(big):
            out[big] = self._large_ball_volume(np.sqrt(q[big]))
        out[q >= top] = 1.0
        return float(out[0]) if arr.ndim == 0 else out

    def exp_array(self, base, vec):
        return self._normalize(base + vec)

    def _sample(self, rng, n):
        return rng.random((n, self.dim))

    def _drift(self, coords):
        return max(0.0, float(np.max(coords - 1.0)), float(np.max(-coords)))

    def _log_lengths(self, x, y, deltas, Q):
        # a margin is measured on the largest axis delta
        dist = self.dist_from_sq(Q)
        return functools.reduce(np.maximum, [np.abs(dk) for dk in deltas]), dist, dist

    # the window's translates by -1 and +1 catch its wrap past 0 and 1, for
    # any reach; ranges that overlap are harmless, the caller takes a minimum
    _axis0_shifts = np.array([-1.0, 0.0, 1.0])

    @property
    def _density_scale(self):
        return self.dim * _unit_ball_volume(self.dim)

    def _log_density(self, t):
        return np.zeros_like(t)  # g = 1: exactly Euclidean below r = 1/2

    def _ball_volume(self, r):
        return self.volume_from_sq(r * r)

    @property
    def _sq_diameter(self):
        return self.dim / 4.0

    @property
    def _volume_breaks(self):
        # the ball meets the faces at 1/2, the edges at sqrt(2)/2, ...
        return tuple(math.sqrt(k) / 2.0 for k in range(1, self.dim + 1))

    def _large_ball_volume(self, r):
        """Ball volume for radii in (1/2, diameter)."""
        if self.dim == 2:
            return self._t2_large(r)
        if self.dim == 3:
            return self._t3_large(r)
        raise InputError(
            f"torus ball volume for r > 1/2 is only supported for d <= 3 (d={self.dim})")

    @staticmethod
    def _t2_large(r):
        # disc of radius r intersected with the centered unit square:
        # pi r^2 minus the four circular segments beyond the edges.
        # Exact for 1/2 <= r <= sqrt(2)/2, where 0.5 / r <= 1 and r * r >= 1/4
        # after rounding too; corner overlaps cannot occur below the diameter.
        seg = r * r * np.arccos(0.5 / r) - 0.5 * np.sqrt(r * r - 0.25)
        v = math.pi * r * r - 4.0 * seg
        return np.minimum(v, 1.0)

    @staticmethod
    def _t3_edge_integral(r):
        # volume of {|p| <= r, p_x >= 1/2, p_y >= 1/2}: the overlap of two
        # face caps, needed once adjacent caps intersect (r > sqrt(2)/2).
        # The slice at height x in (1/2, top) is the circular segment of
        # radius rho beyond the line at 1/2: half-chord c = sqrt(rho^2 - 1/4),
        # half-angle atan(2c), area rho^2 atan(2c) - c/2.  The substitution
        # x = top - (top - 1/2) u^2 removes the square-root endpoint at
        # x = top, where rho = 1/2.
        top = np.sqrt(r * r - 0.25)
        span = top - 0.5

        def slab(u):
            drop = span * (u * u)  # top - x
            c2 = drop * (2.0 * top - drop)  # rho^2 - 1/4 = top^2 - x^2
            c = np.sqrt(c2)
            return ((0.25 + c2) * np.arctan(2.0 * c) - 0.5 * c) * (2.0 * u * span)

        return _gauss_sum(slab, 0.0, 20)

    def _t3_large(self, r):
        h = r - 0.5
        cap = math.pi * h * h * (3.0 * r - h) / 3.0
        v = 4.0 * math.pi * r ** 3 / 3.0 - 6.0 * cap
        edge = r > SQRT2_2
        if np.any(edge):
            v[edge] += 12.0 * self._t3_edge_integral(r[edge])
        return np.minimum(v, 1.0)


# ----------------------------------------------------------------------
# functional surface
# ----------------------------------------------------------------------

def sphere(dim: int) -> Sphere:
    return Sphere(dim)


def flat_torus(dim: int) -> FlatTorus:
    return FlatTorus(dim)


def make_manifold(kind: str, dim: int) -> Manifold:
    """Build a manifold from its serialized name ("sphere" / "flat-torus",
    with "torus" accepted as an alias)."""
    normalized = kind.strip().lower()
    if normalized == ManifoldKind.SPHERE.value:
        return Sphere(dim)
    if normalized in (ManifoldKind.FLAT_TORUS.value, "torus"):
        return FlatTorus(dim)
    raise InputError(f"unknown manifold kind {kind!r}")


def geodesic_distance(m: Manifold, x: Point, y: Point) -> float:
    """Geodesic distance between two points of m."""
    return float(m.distances_from(x.coords, y.coords[None, :])[0])


def ball_volume(m: Manifold, r):
    """Normalized volume of the closed geodesic ball of radius r."""
    return m.ball_volume(r)


def euclidean_ball_volume(d: int, r):
    """Volume of the Euclidean d-ball of radius r: c_d r^d, computed as
    c_d (r^2)^(d/2), the form the torus volume takes below radius 1/2."""
    d = as_count("d", d, 1)
    arr = as_reals("r", r, (">=", 0))
    out = _unit_ball_volume(d) * (arr * arr) ** (d / 2.0)
    return float(out) if arr.ndim == 0 else out


@functools.cache
def _unit_ball_volume(d: int) -> float:
    """c_d = pi^(d/2) / Gamma(d/2 + 1), the volume of the Euclidean unit d-ball:
    c_d = (2 pi / d) c_(d-2), c_0 = 1, c_1 = 2, in rational arithmetic on pi to
    50 digits, rounded once, so correctly rounded (checked for d = 1..12)."""
    from fractions import Fraction
    pi = Fraction("3.1415926535897932384626433832795028841971693993751")
    c = Fraction(1 + d % 2)
    for k in range(2 + d % 2, d + 1, 2):
        c *= 2 * pi / k
    return float(c)


def sample_uniform(m: Manifold, seed: int, n: int):
    """n i.i.d. points from the normalized volume measure, as a PointSet."""
    from .pointsets import PointSet

    coords = m.sample(seed, n)
    return PointSet(m, coords, provenance={"generator": "uniform", "seed": int(seed), "n": int(n)})


def exp_map(m: Manifold, v: TangentVector) -> Point:
    """Point reached from v.base after following the geodesic with initial
    velocity v for unit time."""
    return Point(m.exp_array(v.base.coords[None, :], v.components[None, :])[0])


def log_map(m: Manifold, x: Point, y: Point) -> TangentVector:
    """Tangent vector v at x with exp_map(m, v) = y and |v| = dist(x, y).

    Raises DomainError when dist(x, y) reaches the injectivity radius.
    """
    d = geodesic_distance(m, x, y)
    if d >= m.injectivity_radius:
        raise DomainError(
            f"log map undefined: dist {d:.6g} reaches the cut locus "
            f"(injectivity radius {m.injectivity_radius:.6g})"
        )
    return TangentVector(x, m._log_array(x.coords, y.coords[None, :])[0])
