"""Contract of the public surface: a bad count, index, seed or tolerance is
an InputError that names the argument (a bad exponent is a DomainError),
never a bare TypeError, ValueError or IndexError, and never a silent
result.

TABLE lists each public callable with the argument under test and small
valid values for every other argument (N <= 16, no thread setting), so no
hostile value can start large work.
"""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszlab as rl
from rieszlab import errors
from rieszlab.cli import cli_dispatch
from rieszlab.energy import small_ball_energy
from rieszlab.pointsets import generate_pointset
from rieszlab.verify import geometric_grid

S2 = rl.sphere(2)
T2 = rl.flat_torus(2)
X = rl.fibonacci_sphere(8)
POLE = S2.origin()


def _rate(**changes):
    cfg = dict(manifold=T2, s=1.0, generator="kronecker", ns=[4, 8], extra_centers=0)
    return rl.run_rate_experiment(rl.RateExperimentConfig(**{**cfg, **changes}))


# (callable, argument, call with the value under test in that argument)
TABLE = [
    ("sphere", "dim", lambda v: rl.sphere(v)),
    ("flat_torus", "dim", lambda v: rl.flat_torus(v)),
    ("Sphere", "dim", lambda v: rl.Sphere(v)),
    ("FlatTorus", "dim", lambda v: rl.FlatTorus(v)),
    ("make_manifold", "dim", lambda v: rl.make_manifold("torus", v)),
    ("Manifold.sample", "n", lambda v: S2.sample(0, v)),
    ("euclidean_ball_volume", "d", lambda v: rl.euclidean_ball_volume(v, 0.5)),
    ("sample_uniform", "seed", lambda v: rl.sample_uniform(S2, v, 4)),
    ("sample_uniform", "n", lambda v: rl.sample_uniform(S2, 0, v)),
    ("PointSet.point", "i", lambda v: X.point(v)),
    ("fibonacci_sphere", "n", lambda v: rl.fibonacci_sphere(v)),
    ("kronecker_torus", "d", lambda v: rl.kronecker_torus(v, 4)),
    ("kronecker_torus", "n", lambda v: rl.kronecker_torus(2, v)),
    ("farthest_point_sample", "n", lambda v: rl.farthest_point_sample(S2, v, 0)),
    ("farthest_point_sample", "seed", lambda v: rl.farthest_point_sample(S2, 8, v, 80)),
    ("farthest_point_sample", "candidate_pool", lambda v: rl.farthest_point_sample(S2, 1, 0, v)),
    ("minimize_riesz_energy", "max_iters", lambda v: rl.minimize_riesz_energy(X, 1.0, max_iters=v)),
    ("minimize_riesz_energy", "tol", lambda v: rl.minimize_riesz_energy(X, 1.0, 2, tol=v)),
    ("energy_gradient", "cut_margin", lambda v: rl.energy_gradient(X, 1.0, v)),
    ("punctured_mean_potential", "i", lambda v: rl.punctured_mean_potential(X, v, 1.0)),
    ("discrete_energy", "s", lambda v: rl.discrete_energy(X, v)),
    ("estimate_discrepancy", "extra_centers", lambda v: rl.estimate_discrepancy(X, v)),
    ("estimate_discrepancy", "seed", lambda v: rl.estimate_discrepancy(X, 4, v)),
    ("holder_exponent", "d", lambda v: rl.holder_exponent(v, 0.5)),
    ("holder_exponent", "s", lambda v: rl.holder_exponent(2, v)),
    ("energy_rate_exponent", "d", lambda v: rl.energy_rate_exponent(v, 0.5)),
    ("energy_rate_exponent", "s", lambda v: rl.energy_rate_exponent(2, v)),
    ("packing_number", "r", lambda v: rl.packing_number(S2, POLE, v, 0.5, 0, 16)),
    ("packing_number", "q", lambda v: rl.packing_number(S2, POLE, 1.0, v, 0, 16)),
    ("packing_number", "pool_seed", lambda v: rl.packing_number(S2, POLE, 1.0, 0.5, v, 16)),
    ("packing_number", "pool_size", lambda v: rl.packing_number(S2, POLE, 1.0, 0.5, 0, v)),
    ("check_packing_bound", "cases", lambda v: rl.check_packing_bound(S2, v, 0, 16)),
    ("check_packing_bound", "seed", lambda v: rl.check_packing_bound(S2, 1, v, 16)),
    ("check_packing_bound", "pool_size", lambda v: rl.check_packing_bound(S2, 1, 0, v)),
    ("check_small_ball_bounds", "r_max", lambda v: rl.check_small_ball_bounds(S2, v)),
    ("check_small_ball_energy", "r_max", lambda v: rl.check_small_ball_energy(T2, 1.0, r_max=v)),
    ("check_mean_potential_holder", "pairs", lambda v: rl.check_mean_potential_holder(S2, 1.0, v)),
    ("check_mean_potential_holder", "seed", lambda v: rl.check_mean_potential_holder(S2, 1.0, 2, v)),
    ("geometric_schedule", "n_min", lambda v: rl.geometric_schedule(v, 64)),
    ("geometric_schedule", "n_max", lambda v: rl.geometric_schedule(2, v)),
    ("geometric_grid", "count", lambda v: geometric_grid(0.1, 1.0, v)),
    ("RateExperimentConfig", "extra_centers", lambda v: _rate(extra_centers=v)),
    ("RateExperimentConfig", "seed", lambda v: _rate(seed=v)),
]

HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, 1.5, True, "3", None]


# more examples than rows times values: hypothesis draws every pair once, then stops
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(TABLE), st.sampled_from(HOSTILE))
def test_hostile_argument_returns_or_raises_a_rieszlab_error(row, value):
    _, _, call = row
    try:
        call(value)
    except rl.RieszlabError:
        pass


# Radii, radius grids and exponents, each with small valid base arguments.
RADII_TABLE = [
    ("ball_volume", "r", lambda v: rl.ball_volume(S2, v)),
    ("euclidean_ball_volume", "r", lambda v: rl.euclidean_ball_volume(2, v)),
    ("ball_count", "r", lambda v: rl.ball_count(X, POLE, v)),
    ("riesz_kernel", "r", lambda v: rl.riesz_kernel(v, 1.0)),
    ("riesz_kernel", "s", lambda v: rl.riesz_kernel(1.0, v)),
    ("small_ball_energy", "r", lambda v: small_ball_energy(S2, 1.0, v)),
    ("check_ball_volume_flatness", "radii", lambda v: rl.check_ball_volume_flatness(S2, v)),
    ("check_small_ball_bounds", "radii", lambda v: rl.check_small_ball_bounds(S2, 1.0, v)),
    ("check_large_ball_bounds", "radii", lambda v: rl.check_large_ball_bounds(S2, v)),
    ("check_small_ball_energy", "radii", lambda v: rl.check_small_ball_energy(T2, 1.0, v)),
]


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
@pytest.mark.parametrize("row", RADII_TABLE, ids=lambda row: f"{row[0]}-{row[1]}")
def test_hostile_radius_or_exponent_returns_or_raises_a_rieszlab_error(row, value):
    _, _, call = row
    try:
        call(value)
    except rl.RieszlabError:
        pass


# Arguments that raised a bare exception or gave a silent wrong result
# before the two checks of errors.py took them over.
PROBES = [
    ("n", lambda: rl.sample_uniform(S2, 0, 2.5)),
    ("n", lambda: rl.farthest_point_sample(S2, 2.5, 0)),
    ("candidate_pool", lambda: rl.farthest_point_sample(S2, 8, 0, 100.5)),
    ("extra_centers", lambda: rl.estimate_discrepancy(X, 1.5)),
    ("extra_centers", lambda: _rate(extra_centers=1.5)),
    ("max_iters", lambda: rl.minimize_riesz_energy(X, 1.0, max_iters=1.5)),
    ("count", lambda: geometric_grid(0.1, 1, 2.5)),
    ("dim", lambda: rl.flat_torus(math.nan)),
    ("i", lambda: rl.punctured_mean_potential(X, 1.5, 1.0)),
    ("dim", lambda: rl.sphere(2.5)),
    ("dim", lambda: rl.sphere(True)),
    ("dim", lambda: rl.make_manifold("sphere", 2.5)),
    ("n", lambda: rl.fibonacci_sphere(2.5)),
    ("n", lambda: rl.kronecker_torus(2, 2.5)),
    ("n_min", lambda: rl.geometric_schedule(2.5, 10)),
    ("seed", lambda: rl.sample_uniform(S2, 1.5, 4)),
    ("seed", lambda: rl.sample_uniform(S2, True, 4)),
    ("seed", lambda: rl.estimate_discrepancy(X, 4, seed=1.5)),
    ("pool_seed", lambda: rl.packing_number(S2, POLE, 1.0, 0.5, 1.5, 64)),
    ("seed", lambda: _rate(seed=1.5)),
    ("ns", lambda: _rate(ns=[8.5, 16])),
    ("tol", lambda: rl.minimize_riesz_energy(X, 1.0, max_iters=3, tol=math.nan)),
    ("d", lambda: rl.holder_exponent(2.5, 1.0)),
    ("d", lambda: rl.energy_rate_exponent(2.5, 1.0)),
    ("d", lambda: rl.euclidean_ball_volume(2.5, 1.0)),
    ("d", lambda: rl.euclidean_ball_volume(math.nan, 1.0)),
    ("pairs", lambda: rl.check_mean_potential_holder(S2, 1.0, pairs=1.5)),
    ("seed", lambda: rl.check_mean_potential_holder(S2, 1.0, seed=1.5)),
    ("ys", lambda: rl.fit_loglog([1.0, 2.0], [1.0, math.nan])),
    # radii and exponents that are not numbers: errors.as_real, errors.as_reals
    # and the exponent's type check took them over
    ("r", lambda: rl.ball_count(X, POLE, "a")),
    ("s", lambda: rl.riesz_kernel(1.0, "3")),
    ("r", lambda: small_ball_energy(S2, 1.0, None)),
    ("r", lambda: rl.ball_volume(S2, "a")),
    ("radii", lambda: rl.check_small_ball_bounds(S2, 1.0, ["a"])),
    # a radius past the injectivity radius returned the value at it
    ("r", lambda: small_ball_energy(S2, 1.0, 4.0)),
    ("r", lambda: small_ball_energy(T2, 1.0, 0.75)),
]

# Exponents that gave a silent result: an infinite s, which the kernel
# rejects with the DomainError that check_exponent raises.
DOMAIN_PROBES = [
    ("s", lambda: rl.riesz_kernel(0.5, math.inf)),
    ("s", lambda: rl.riesz_kernel(2.0, math.inf)),
]

# Arguments whose checks already held, with the error they must keep.
HELD = [
    (rl.InputError, "cases", lambda: rl.check_packing_bound(S2, cases=1.5)),
    (rl.InputError, "pool_size", lambda: rl.packing_number(S2, POLE, 1.0, 0.5, 0, 1.5)),
    (rl.InputError, "seed", lambda: rl.sample_uniform(S2, -1, 4)),
    (rl.InputError, "n", lambda: rl.fibonacci_sphere(0)),
    (rl.InputError, "cut_margin", lambda: rl.energy_gradient(X, 1.0, math.nan)),
    (rl.InputError, "extra_centers", lambda: rl.estimate_discrepancy(X, -1)),
    (rl.InputError, "n_min", lambda: rl.geometric_schedule(1, 10)),
    (rl.DomainError, "s", lambda: rl.holder_exponent(2, math.nan)),
    (rl.DomainError, "s", lambda: rl.energy_rate_exponent(2, 3.0)),
    (rl.DomainError, "s", lambda: rl.discrete_energy(X, math.inf)),
    (rl.DomainError, "s", lambda: rl.minimize_riesz_energy(X, 0.0, max_iters=3)),
    (rl.InputError, "coordinates", lambda: rl.PointSet(S2, [[1.0, 0.0]])),
    (rl.InputError, "coordinates", lambda: rl.PointSet(S2, np.zeros((0, 3)))),
    (rl.InputError, "i", lambda: X.point(8)),
    (rl.InputError, "r", lambda: rl.ball_volume(S2, [[0.1, 0.2], [0.3]])),
    (rl.InputError, "generator", lambda: generate_pointset(S2, "kronecker", 4, 0)),
]


def _names(argument, exc):
    return re.search(rf"\b{re.escape(argument)}\b", str(exc)) is not None


@pytest.mark.parametrize("argument,call", PROBES)
def test_bad_argument_is_an_input_error_naming_it(argument, call):
    with pytest.raises(rl.InputError) as info:
        call()
    assert type(info.value) is rl.InputError
    assert _names(argument, info.value), str(info.value)


@pytest.mark.parametrize("argument,call", DOMAIN_PROBES)
def test_bad_exponent_is_a_domain_error_naming_it(argument, call):
    with pytest.raises(rl.DomainError) as info:
        call()
    assert type(info.value) is rl.DomainError
    assert _names(argument, info.value), str(info.value)


@pytest.mark.parametrize("error,argument,call", HELD)
def test_checks_that_held_keep_their_error(error, argument, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert _names(argument, info.value), str(info.value)


# Counts whose allocation exceeds the physical memory: each must fail before
# anything is allocated.  The memory is pinned at 8 GiB (eight_gib), so the
# probes fail the same way on a host with more, where they could allocate.
FARTHEST_POINT_CLI = ["generate", "--manifold", "sphere", "--dim", "2", "--gen",
                      "farthest-point", "--n", "100000000"]
SIZE_PROBES = [
    ("pool_size", lambda v: rl.packing_number(S2, POLE, 1.0, 0.5, 0, v)),
    ("extra_centers", lambda v: rl.estimate_discrepancy(X, v)),
    ("n", lambda v: rl.sample_uniform(S2, 0, v)),
    ("n", lambda v: rl.farthest_point_sample(S2, v, 0)),
    ("candidate_pool", lambda v: rl.farthest_point_sample(S2, 8, 0, v)),
    ("n", lambda v: rl.fibonacci_sphere(v)),
    ("n", lambda v: rl.kronecker_torus(2, v)),
    ("count", lambda v: geometric_grid(0.1, 1.0, v)),
]


@pytest.fixture
def eight_gib(monkeypatch):
    monkeypatch.setattr(errors, "PHYSICAL_MEMORY", 8 << 30)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("value", [10 ** 12, 10 ** 15])
@pytest.mark.parametrize("argument,call", SIZE_PROBES)
def test_count_past_the_memory_is_an_input_error_before_allocating(eight_gib, argument,
                                                                   call, value):
    def run():
        with pytest.raises(rl.InputError) as info:
            call(value)
        assert type(info.value) is rl.InputError
        assert _names(argument, info.value), str(info.value)

    assert _peak_bytes(run) < 1 << 20


def test_farthest_point_generate_past_the_memory_exits_one(eight_gib, capsys):
    # a default pool of 10^9 points of S^2
    assert _peak_bytes(lambda: cli_dispatch(FARTHEST_POINT_CLI)) < 1 << 20
    assert re.match(r"error: n=100000000 needs [\d.]+ GiB", capsys.readouterr().err)


def test_distance_cdf_past_the_memory_is_an_input_error_before_the_pass(eight_gib):
    # 10^5 points hold 4,999,950,000 pairs at 41 bytes each; the set is
    # built outside the measured run
    X = rl.PointSet(T2, np.random.default_rng(0).random((100_000, 2)))

    def run():
        with pytest.raises(rl.InputError, match=r"^pairs=4999950000 needs"):
            rl.energy_via_distance_cdf(X, 1.0)

    assert _peak_bytes(run) < 1 << 20


def test_default_centers_past_the_memory_are_an_input_error_before_the_pass(monkeypatch):
    # 2 * 10^4 points default to 80,000 extra centers at 56 bytes each on
    # T^2; the set is built outside the measured run
    X = rl.PointSet(T2, np.random.default_rng(0).random((20_000, 2)))
    monkeypatch.setattr(errors, "PHYSICAL_MEMORY", 1 << 20)

    def run():
        with pytest.raises(rl.InputError, match=r"^extra_centers=80000 needs"):
            rl.estimate_discrepancy(X)

    assert _peak_bytes(run) < 1 << 20


def test_count_within_the_memory_passes_the_budget():
    assert errors.PHYSICAL_MEMORY > 0
    assert errors.as_sized_count("n", 16, 1, errors.PHYSICAL_MEMORY // 16) == 16
    with pytest.raises(rl.InputError, match="^n=17 needs"):
        errors.as_sized_count("n", 17, 1, errors.PHYSICAL_MEMORY // 16)


def test_real_too_large_for_a_float_is_an_input_error():
    with pytest.raises(rl.InputError, match="^cut_margin must be finite and >= 0 and < 1"):
        rl.energy_gradient(X, 1.0, 10 ** 400)


@pytest.mark.parametrize("ys", [[1.0, math.nan], [1.0, math.inf]])
@pytest.mark.parametrize("swap", [False, True], ids=["ys", "xs"])
def test_fit_loglog_rejects_non_finite_data(ys, swap):
    xs = [1.0, 2.0]
    args, name = ((ys, xs), "xs") if swap else ((xs, ys), "ys")
    with pytest.raises(rl.InputError, match=rf"\b{name}\b"):
        rl.fit_loglog(*args)


# Every public parameter with one of these names is a count, index, seed or
# tolerance, and needs a row in TABLE.
CHECKED_NAMES = {"n", "dim", "d", "i", "seed", "pool_seed", "cases", "pairs", "pool_size",
                 "extra_centers", "candidate_pool", "max_iters", "n_min", "n_max", "count",
                 "tol", "cut_margin"}
# Result records store the values the library computed and check nothing.
RECORDS = {"BoundCheckReport", "DiscrepancyEstimate", "EnergyReport", "RateReport",
           "SeparationReport"}


def test_every_public_count_and_tolerance_has_a_table_row():
    rows = {(name, argument) for name, argument, _ in TABLE}
    missing = []
    for name in rl.__all__:
        obj = getattr(rl, name)
        if name in RECORDS or inspect.isabstract(obj) or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # the error classes take *args like their base
            continue
        missing += [(name, p) for p in parameters if p in CHECKED_NAMES and (name, p) not in rows]
    assert missing == []


def test_only_the_descent_takes_a_tolerance():
    takers = []
    for name in rl.__all__:
        try:
            parameters = inspect.signature(getattr(rl, name)).parameters
        except (TypeError, ValueError):  # not callable, or an error class's *args
            continue
        if "tol" in parameters:
            takers.append(name)
    assert takers == ["minimize_riesz_energy"]
