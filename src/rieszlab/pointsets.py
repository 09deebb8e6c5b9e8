"""Point-set generation and separation.

Generators: Fibonacci spiral on S^2, Kronecker sequences on T^d, greedy
farthest-point sampling on any manifold, plus Riemannian gradient descent
on the Riesz energy as a refiner.

Separation is one exact sort-and-sweep scan along axis 0 on every
manifold (_closest_pair): serial, so its bits do not depend on the thread
count.  Each descent iteration searches the smoothed gradient first and
computes the full one only as its fallback; the smoothed gradient comes
from the same pass as the energy of the trial that produced the set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import energy as _energy
from .errors import DomainError, InputError, as_count, as_real, as_sized_count
from .manifold import FlatTorus, Manifold, Point, Sphere, sample_uniform
from .rng import stream

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


class PointSet:
    """An ordered finite subset of a manifold.

    Coordinates are stored as an immutable (N, ambient_dim) array; the
    provenance dict records how the set was produced (generator, seed,
    parameters) and travels into every report.  Wrapping rows onto the
    manifold is idempotent, so PointSet(m, X.coords) keeps the bits of X.
    """

    def __init__(self, manifold: Manifold, coords, provenance: dict | None = None):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != manifold.ambient_dim:
            raise InputError(
                f"coordinates must have shape (n, {manifold.ambient_dim}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InputError("coordinates must hold at least one point")
        if not np.all(np.isfinite(arr)):
            raise InputError("non-finite coordinates")
        arr = manifold._normalize(arr)
        arr.setflags(write=False)
        self.manifold, self.coords, self.provenance = manifold, arr, dict(provenance or {})

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def point(self, i: int) -> Point:
        i = as_count("i", i, 0)
        if i >= self.n:
            raise InputError(f"i must be < {self.n}, the number of points, got {i}")
        return Point(self.coords[i].copy())

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"PointSet({self.manifold!r}, n={self.n})"


@dataclass
class SeparationReport:
    """Minimum pairwise geodesic distance of a point set."""

    n: int
    min_distance: float
    pair: tuple
    gamma_hat: float          # min_distance * N^(1/d)
    has_duplicates: bool
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _axis0_reach(q) -> float:
    """sqrt(q), with slack for the rounding of the bound and of the axis-0 deltas."""
    return math.sqrt(q) * (1.0 + 1e-9) + 1e-15


def _closest_pair(X: PointSet):
    """Smallest sq_dist over the pairs i < j of X and the lexicographically
    first pair attaining it, (q, (i, j)), by a sort-and-sweep scan (Hinrichs,
    Nievergelt and Schorn 1988).  With the points sorted by axis 0, offset k
    pairs each point with its k-th successor and, where axis 0 wraps
    (Manifold._axis0_shifts), the last k points with the first k one period
    on.  A pair's q is at least its axis-0 gap squared, and each point's gaps
    grow with k, so the scan stops at the first k whose gaps all exceed the
    best q's _axis0_reach.  The kernel is bitwise symmetric, so q has the
    bits of an all-pairs scan.
    """
    m, n = X.manifold, X.n
    order = np.argsort(X.coords[:, 0], kind="stable")
    pts = X.coords[order]
    period = float(m._axis0_shifts[-1])  # 0 where axis 0 does not wrap
    best, ties = math.inf, []
    for k in range(1, n):
        # (sorted start, first points, their k-th successors, successors' axis-0 shift)
        spans = [(0, pts[:n - k], pts[k:], 0.0)]
        if period:
            spans.append((n - k, pts[n - k:], pts[:k], period))
        reach = _axis0_reach(best)
        if all(np.all(b[:, 0] + shift - a[:, 0] > reach) for _, a, b, shift in spans):
            break
        for start, a, b, _ in spans:
            q = m.sq_dist(a, b)
            low = q.min()
            if low < best:
                best, ties = low, []
            if low == best:
                i = start + np.flatnonzero(q == best)
                ties += zip(order[i].tolist(), order[(i + k) % n].tolist())
    return best, min((min(p), max(p)) for p in ties)


def min_geodesic_distance(X: PointSet, method: str = "brute") -> SeparationReport:
    """Exact minimum over all pairs, with gamma_hat = min * N^(1/d), from the
    one scan _closest_pair.  method "brute" and "grid" both name it (the
    keyword goes once the benchmark stops passing it); any other name is an
    InputError.  Duplicate points yield a zero minimum with the
    has_duplicates flag set.
    """
    if X.n < 2:
        raise InputError("separation needs at least 2 points")
    if method not in ("brute", "grid"):
        raise InputError(f"unknown separation method {method!r}")
    q, pair = _closest_pair(X)
    best = float(X.manifold.dist_from_sq(q))
    return SeparationReport(
        n=X.n,
        min_distance=best,
        pair=pair,
        gamma_hat=best * X.n ** (1.0 / X.manifold.dim),
        has_duplicates=bool(best == 0.0),
        provenance=dict(X.provenance),
    )


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def fibonacci_sphere(n: int) -> PointSet:
    """Spiral lattice on S^2: z_k = 1 - (2k+1)/n, longitude stepped by the
    golden-ratio conjugate."""
    n = as_sized_count("n", n, 1, 128)  # sixteen float arrays of n
    m = Sphere(2)
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = 2.0 * math.pi * k * GOLDEN_RATIO_CONJUGATE
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    coords = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return PointSet(m, coords, provenance={"generator": "fibonacci", "n": n})


def kronecker_alphas(d: int) -> np.ndarray:
    """Fractional parts of 2^(1/(i+1)) for i = 1..d; fixed for
    reproducibility."""
    return np.array([2.0 ** (1.0 / (i + 1)) % 1.0 for i in range(1, d + 1)])


def kronecker_torus(d: int, n: int) -> PointSet:
    """Kronecker sequence x_k = k * alpha mod 1 on T^d with badly
    approximable irrational steps."""
    m = FlatTorus(d)
    n = as_sized_count("n", n, 1, 8 * (4 * m.dim + 1))  # the index and the coordinates' copies
    coords = (np.arange(n)[:, None] * kronecker_alphas(m.dim)[None, :]) % 1.0
    return PointSet(m, coords, provenance={"generator": "kronecker", "d": m.dim, "n": n})


def farthest_point_sample(m: Manifold, n: int, seed: int, candidate_pool: int | None = None) -> PointSet:
    """Greedy maximin selection from a seeded uniform candidate pool.

    Starts at a seeded uniform point, then repeatedly adds the candidate
    farthest from the current set.  The pool must hold at least 10 * n
    candidates.  A pick p lowers the squared distance to the set only for
    candidates within sqrt(best[p]) of it, and best[p] is the largest, so
    after each pick only the slab of the pool sorted by axis 0 within that
    reach (plus rounding slack) is rescored: the picks are those of a
    rescan of the whole pool.  The pool is kept in that axis-0 order, so an
    exact tie in best goes to the candidate with the smaller axis-0
    coordinate, not to the earlier draw.
    """
    row = 8 * (3 * m.ambient_dim + 4)  # a candidate's coordinates and copies, best, order
    n = as_sized_count("n", n, 1, 10 * row)  # the pool holds at least 10 n candidates
    if candidate_pool is None:
        candidate_pool = max(10 * n, 1024)
    candidate_pool = as_sized_count("candidate_pool", candidate_pool, 10 * n, row)
    rng = stream(seed, "farthest-point-sample")
    start = m._sample(rng, 1)[0]
    chosen = [start]
    if n > 1:
        pool = m._sample(rng, candidate_pool)
        pool = pool[np.argsort(pool[:, 0], kind="stable")]
        cols = pool.T.copy()  # each axis contiguous
        # squared distances order the candidates as the distances do
        best = m.sq_dist(start, pool)
        for _ in range(n - 1):
            pick = int(np.argmax(best))
            chosen.append(pool[pick].copy())
            # beyond reach the axis-0 delta alone squares above best[pick]
            reach = _axis0_reach(best[pick])
            for a, b in m._axis0_ranges(cols[0], pool[pick, 0], reach):
                np.minimum(best[a:b], m.sq_dist(pool[pick], cols[:, a:b].T), out=best[a:b])
    return PointSet(m, np.array(chosen), provenance={
        "generator": "farthest-point",
        "seed": int(seed),
        "n": n,
        "candidate_pool": candidate_pool,
    })


GENERATORS = ("fibonacci", "kronecker", "farthest-point", "uniform")


def generate_pointset(m: Manifold, generator: str, n: int, seed: int,
                      candidate_pool: int | None = None) -> PointSet:
    """n points of m from one of the named GENERATORS; seed and
    candidate_pool are used only by the generators that take them."""
    if generator == "fibonacci":
        if not (isinstance(m, Sphere) and m.dim == 2):
            raise InputError("the fibonacci generator requires the sphere S^2")
        return fibonacci_sphere(n)
    if generator == "kronecker":
        if not isinstance(m, FlatTorus):
            raise InputError("the kronecker generator requires a flat torus")
        return kronecker_torus(m.dim, n)
    if generator == "farthest-point":
        return farthest_point_sample(m, n, seed=seed, candidate_pool=candidate_pool)
    if generator == "uniform":
        return sample_uniform(m, seed, n)
    raise InputError(f"unknown generator {generator!r}")


# ----------------------------------------------------------------------
# Riesz energy descent
# ----------------------------------------------------------------------

def _energy_pass(X: PointSet, s: float, speculate: bool):
    """One _chunked_pass for the energy of X and, with speculate, its
    smoothed gradient (cut margin 1e-2): the tiles are walked once for both."""
    return _energy._chunked_pass(X, s=s, gradient=(s, 1e-2) if speculate else None)


def _line_search(X: PointSet, s: float, grad, energy_now: float, eta: float, speculate: bool):
    """The first trial exp_X(-eta * grad), eta halved up to 60 times, whose
    energy is below energy_now, as (set, energy, gradient); (None,
    energy_now, None) when no trial is.  With speculate, the first trial's
    pass also reduces its smoothed gradient, which the next iteration
    searches when that trial is accepted; halved trials reduce the energy
    alone, and return gradient None.  A trial with coincident points has no
    energy: no decrease."""
    m = X.manifold
    for k in range(60):
        trial = PointSet(m, m.exp_array(X.coords, -eta * grad))
        try:
            got = _energy_pass(trial, s, speculate and k == 0)
        except DomainError:
            got = None
        if got is not None and got.energy < energy_now:
            return trial, got.energy, got.gradient
        eta /= 2.0
    return None, energy_now, None


def minimize_riesz_energy(X0: PointSet, s: float, max_iters: int = 500,
                          tol: float = 1e-12) -> PointSet:
    """Riemannian gradient descent on the discrete Riesz energy.

    Each iteration line-searches the smoothed gradient, which drops pairs
    within cut margin 1e-2 of the cut locus, where a pair's raw pull can
    block every joint step; only if it is zero or finds no decrease is the
    full (sub)gradient, cut margin 1e-12, searched.  Steps start at
    0.1 * N^(-1/d) and halve, at most 60 times, until the energy decreases.

    One pass per iteration: the pass that gives the starting set's energy,
    and each search's first trial pass, also reduce the set's smoothed
    gradient, so an accepted first trial hands the next iteration its
    gradient.  Only an accepted halved trial or the fallback costs a
    gradient pass of its own.  The last allowed iteration's trials reduce
    the energy alone, since nothing reads their gradient.

    The provenance holds the energy trace of accepted iterates,
    "iterations" (its length less one) and why the descent stopped:
    "converged" when the relative decrease falls below tol or a computed
    gradient is zero and no search lowers the energy, "line_search_failed"
    when every search fails, neither when max_iters iterations ran.  A
    starting set with coincident points raises InputError naming a pair.
    """
    _energy.check_exponent(s, X0.manifold.dim)
    max_iters = as_count("max_iters", max_iters, 0)
    tol = as_real("tol", tol, (">=", 0))
    try:
        start = _energy_pass(X0, s, max_iters > 0)
    except DomainError as exc:
        raise InputError(f"initial set has {exc}") from exc
    trace, smooth = [start.energy], start.gradient
    eta0 = 0.1 * X0.n ** (-1.0 / X0.manifold.dim)
    current, converged, line_search_failed = X0, False, False
    for k in range(max_iters):
        speculate = k + 1 < max_iters
        if smooth is None:  # a halved trial was accepted
            smooth = _energy.energy_gradient(current, s, 1e-2)
        trial, zero = None, False
        for margin in (1e-2, 1e-12):  # the full gradient is the cut-locus rescue
            grad = smooth if margin == 1e-2 else _energy.energy_gradient(current, s, margin)
            zero = zero or not np.any(grad)
            if np.any(grad):
                trial, e, smooth = _line_search(current, s, grad, trace[-1], eta0, speculate)
                if trial is not None:
                    break
        if trial is None:
            converged, line_search_failed = zero, not zero  # zero: a critical point
            break
        current = trial
        trace.append(e)
        if (trace[-2] - e) / trace[-2] < tol:
            converged = True
            break
    return PointSet(current.manifold, current.coords, {
        **X0.provenance,
        "generator": "riesz-descent",
        "base_generator": X0.provenance.get("generator"),
        "s": float(s),
        "iterations": len(trace) - 1,
        "converged": converged,
        "line_search_failed": line_search_failed,
        "energy_trace": [float(e) for e in trace],
    })
