"""Compute tiles: results do not depend on the tile size, and the memory
of a pairwise pass does not grow with N."""

import tracemalloc

import numpy as np
import pytest

from rieszlab import (DomainError, PointSet, discrete_energy, energy_gradient,
                      estimate_discrepancy, fibonacci_sphere, flat_torus,
                      kronecker_torus, min_geodesic_distance, sample_uniform,
                      sphere)
from rieszlab import energy
from rieszlab.discrepancy import _tiled_pass
from rieszlab.energy import pairwise_distances

SETS = {
    "S2": lambda n: sample_uniform(sphere(2), 31, n),
    "S3": lambda n: sample_uniform(sphere(3), 33, n),
    "T2": lambda n: sample_uniform(flat_torus(2), 32, n),
    "T3": lambda n: kronecker_torus(3, n),
}


def _bytes(*values):
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _results(monkeypatch, X, threads, discrepancy):
    sep = min_geodesic_distance(X)
    with monkeypatch.context() as env:
        # brute separation takes its thread count from RIESZ_THREADS
        env.setenv("RIESZ_THREADS", "2")
        sep2 = min_geodesic_distance(X)
    assert (_bytes(sep2.min_distance), sep2.pair) == (_bytes(sep.min_distance), sep.pair)
    out = {
        "energy": _bytes(discrete_energy(X, 1.0, threads=threads)),
        "separation": (_bytes(sep.min_distance), sep.pair),
        "pairwise": _bytes(pairwise_distances(X)),
        "gradient": _bytes(energy_gradient(X, 1.0)),
    }
    if discrepancy:
        # 37 extra centers: for N = 517 the last chunk and a tile cross N
        est = estimate_discrepancy(X, extra_centers=37, seed=4, threads=threads)
        out["discrepancy"] = (_bytes(est.value, est.radius), est.center_index, est.side)
        est_row, e_row, sep_row = _tiled_pass(X, 37, 4, threads, 1.0)
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
    # T^3 volumes beyond r = sqrt(2)/2 cost one quadrature per radius, so
    # its discrepancy is compared at the smaller N only
    discrepancy = name != "T3" or n < 1000
    default = _results(monkeypatch, X, 1, discrepancy)
    # TILE_ELEMS = 1: one row per tile; 256 N: whole 256-row chunks
    monkeypatch.setattr(energy, "TILE_ELEMS", 256 * n)
    assert _results(monkeypatch, X, 1, discrepancy) == default
    monkeypatch.setattr(energy, "TILE_ELEMS", 1)
    assert _results(monkeypatch, X, 1, discrepancy) == default
    assert _results(monkeypatch, X, 2, discrepancy) == default


def test_coincident_pair_named_for_any_tile_size(monkeypatch):
    coords = sample_uniform(flat_torus(2), 3, 300).coords.copy()
    coords[290] = coords[270]
    Y = PointSet(flat_torus(2), coords)
    for tile in (1, 7, energy.TILE_ELEMS):
        monkeypatch.setattr(energy, "TILE_ELEMS", tile)
        with pytest.raises(DomainError, match="indices 270 and 290"):
            discrete_energy(Y, 1.0)
        assert min_geodesic_distance(Y).pair == (270, 290)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("make", [fibonacci_sphere, lambda n: kronecker_torus(2, n)],
                         ids=["S2", "T2"])
def test_pass_memory_flat_in_n(make, n):
    X = make(n)
    passes = {
        "energy": lambda: discrete_energy(X, 1.0),
        "separation": lambda: min_geodesic_distance(X),
        "discrepancy": lambda: estimate_discrepancy(X, extra_centers=0),
        "sweep_row": lambda: _tiled_pass(X, 0, 0, None, 1.0),
        "gradient": lambda: energy_gradient(X, 1.0),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for label, run in passes.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks[label] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 4 * 2 ** 20, peaks
