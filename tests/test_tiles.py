"""Compute tiles: results do not depend on the tile size, and the memory
of a pairwise pass does not grow with N."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rieszlab import (DomainError, PointSet, discrete_energy, energy_gradient,
                      estimate_discrepancy, farthest_point_sample,
                      fibonacci_sphere, flat_torus, kronecker_torus,
                      min_geodesic_distance, sample_uniform, sphere)
from rieszlab import energy
from rieszlab.discrepancy import _tiled_pass
from rieszlab.energy import pairwise_distances
from rieszlab.parallel import chunk_ranges

SETS = {
    "S2": lambda n: sample_uniform(sphere(2), 31, n),
    "S3": lambda n: sample_uniform(sphere(3), 33, n),
    "T2": lambda n: sample_uniform(flat_torus(2), 32, n),
    "T3": lambda n: kronecker_torus(3, n),
}


def _bytes(*values):
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _results(monkeypatch, X, threads):
    sep = min_geodesic_distance(X)
    grad = energy_gradient(X, 1.0)
    with monkeypatch.context() as env:
        env.setenv("RIESZ_THREADS", "2")
        sep2 = min_geodesic_distance(X)
        assert _bytes(energy_gradient(X, 1.0)) == _bytes(grad)
    assert (_bytes(sep2.min_distance), sep2.pair) == (_bytes(sep.min_distance), sep.pair)
    monkeypatch.setenv("RIESZ_THREADS", str(threads))
    out = {
        "energy": _bytes(discrete_energy(X, 1.0)),
        "separation": (_bytes(sep.min_distance), sep.pair),
        "pairwise": _bytes(pairwise_distances(X)),
        "gradient": _bytes(grad),
    }
    # 37 extra centers: for N = 517 the last chunk and a tile cross N
    est = estimate_discrepancy(X, extra_centers=37, seed=4)
    out["discrepancy"] = (_bytes(est.value, est.radius), est.center_index, est.side)
    est_row, e_row, sep_row = _tiled_pass(X, 37, 4, 1.0)
    out["sweep_row"] = {
        "energy": _bytes(e_row),
        "separation": (_bytes(sep_row.min_distance, sep_row.gamma_hat), sep_row.pair),
        "discrepancy": (_bytes(est_row.value, est_row.radius), est_row.center_index,
                        est_row.side),
    }
    assert out["sweep_row"] == {
        "energy": out["energy"],
        "separation": (_bytes(sep.min_distance, sep.gamma_hat), sep.pair),
        "discrepancy": out["discrepancy"],
    }
    return out


@pytest.mark.parametrize("n", [517, 1000])
@pytest.mark.parametrize("name", sorted(SETS))
def test_results_byte_identical_for_any_tile_size(monkeypatch, name, n):
    X = SETS[name](n)
    default = _results(monkeypatch, X, 1)
    # TILE_ELEMS = 1: one row per tile; 256 N: whole 256-row chunks
    monkeypatch.setattr(energy, "TILE_ELEMS", 256 * n)
    assert _results(monkeypatch, X, 1) == default
    monkeypatch.setattr(energy, "TILE_ELEMS", 1)
    assert _results(monkeypatch, X, 1) == default
    assert _results(monkeypatch, X, 2) == default


def test_coincident_pair_named_for_any_tile_size(monkeypatch):
    coords = sample_uniform(flat_torus(2), 3, 300).coords.copy()
    coords[290] = coords[270]
    Y = PointSet(flat_torus(2), coords)
    for tile in (1, 7, energy.TILE_ELEMS):
        monkeypatch.setattr(energy, "TILE_ELEMS", tile)
        # the energy, the gradient and the sweep row share one check per tile
        for run in (lambda: discrete_energy(Y, 1.0), lambda: energy_gradient(Y, 1.0),
                    lambda: _tiled_pass(Y, 0, 0, 1.0)):
            with pytest.raises(DomainError, match="indices 270 and 290"):
                run()
        assert min_geodesic_distance(Y).pair == (270, 290)


def _torus2(n):
    return kronecker_torus(2, n)


def _circle(n):
    """n points of S^2 on the circle x_0 = 0: one shared axis 0, the
    separation scan's worst case."""
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return PointSet(sphere(2), np.column_stack([np.zeros(n), np.cos(t), np.sin(t)]))


@pytest.mark.parametrize("make,n,only", [
    pytest.param(fibonacci_sphere, 1024, None, id="S2-1024"),
    pytest.param(fibonacci_sphere, 4096, None, id="S2-4096"),
    pytest.param(_torus2, 1024, None, id="T2-1024"),
    pytest.param(_torus2, 4096, None, id="T2-4096"),
    # the gradient folds each chunk's (N - lo, d) partial as it comes back;
    # holding all N / CHUNK_ROWS of them would pass 4 MiB here
    pytest.param(_torus2, 8192, ("gradient",), id="T2-8192"),
    pytest.param(_circle, 4096, ("separation", "sweep_row"), id="S2-circle-4096"),
])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_pass_memory_flat_in_n(monkeypatch, make, n, only, threads):
    # each worker holds its own chunk buffers: the bound covers two of them
    monkeypatch.setenv("RIESZ_THREADS", threads)
    X = make(n)
    passes = {
        "energy": lambda: discrete_energy(X, 1.0),
        "separation": lambda: min_geodesic_distance(X),
        "discrepancy": lambda: estimate_discrepancy(X, extra_centers=0),
        "sweep_row": lambda: _tiled_pass(X, 0, 0, 1.0),
        "gradient": lambda: energy_gradient(X, 1.0),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for label, run in passes.items():
            if only is not None and label not in only:
                continue
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks[label] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 4 * 2 ** 20, peaks


def _cut_band_sets():
    """Sets with pairs between the two descent margins' cuts: near-antipodal
    pairs on S^1 and S^2, axis deltas just under 1/2 on T^1 and T^2."""
    out = {}
    for d in (1, 2):
        c = sample_uniform(sphere(d), 40 + d, 300).coords.copy()
        c[1::2] = -c[0::2] + 1e-4 * c[1::2]
        out[f"S{d}"] = PointSet(sphere(d), c / np.linalg.norm(c, axis=1, keepdims=True))
        c = sample_uniform(flat_torus(d), 50 + d, 300).coords.copy()
        c[1::2] = c[0::2] + 0.5 - 1e-3 * (1.0 + np.arange(150)[:, None] / 1000)
        out[f"T{d}"] = PointSet(flat_torus(d), c)
    return out


@pytest.mark.parametrize("m", [sphere(2), flat_torus(2)], ids=["S2", "T2"])
def test_gradient_pass_forms_each_tile_deltas_once(monkeypatch, m):
    # the gradient reads the axis deltas its squared distances were summed
    # from: one 2-D delta per axis and tile, none of its own
    X = sample_uniform(m, 34, 600)
    shapes = []
    axis_delta = type(m)._axis_delta

    def counting(self, diff):
        shapes.append(diff.shape)
        return axis_delta(self, diff)

    monkeypatch.setattr(type(m), "_axis_delta", counting)
    monkeypatch.setenv("RIESZ_THREADS", "1")
    energy_gradient(X, 1.0)
    tiles = sum(len(energy._tile_ranges(lo, hi, X.n - lo))
                for lo, hi in chunk_ranges(X.n, energy.CHUNK_ROWS))
    assert len(shapes) == tiles * m.ambient_dim
    assert all(len(shape) == 2 for shape in shapes)


@pytest.mark.parametrize("name", ["S1", "S2", "T1", "T2"])
def test_gradient_margins_byte_identical_for_any_tile_and_threads(monkeypatch, name):
    X = _cut_band_sets()[name]
    margins = (1e-12, 1e-2)
    monkeypatch.setenv("RIESZ_THREADS", "1")
    default = [_bytes(energy_gradient(X, 0.5, cut_margin=c)) for c in margins]
    # the band between the two cuts is populated, so the margins differ
    assert default[0] != default[1]
    for tile in (energy.TILE_ELEMS, 1):
        monkeypatch.setattr(energy, "TILE_ELEMS", tile)
        for threads in ("1", "2"):
            monkeypatch.setenv("RIESZ_THREADS", threads)
            assert [_bytes(energy_gradient(X, 0.5, cut_margin=c)) for c in margins] == default


@pytest.mark.parametrize("X", [
    sample_uniform(sphere(2), 5, 300),
    sample_uniform(flat_torus(2), 5, 300),
    PointSet(sphere(2), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
], ids=["S2", "T2", "S2-antipodal"])
def test_passes_emit_no_runtime_warning(X):
    # the kernel and the gradient weights see the masked diagonal's zeros,
    # and the antipodal pair's q = 4 and |y + x| = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        discrete_energy(X, 1.0)
        sep = min_geodesic_distance(X)
        pairwise_distances(X)
        energy_gradient(X, 1.0)
        _tiled_pass(X, None, 0, 1.0)
        farthest_point_sample(X.manifold, X.n, 0)
    if X.n == 2:
        assert sep.min_distance == math.pi
