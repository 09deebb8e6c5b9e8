"""Span recorder for the traced benchmark run.

Nothing under ``src/`` knows about tracing: ``install`` replaces public
functions and methods of rieszlab (and every by-name import of them inside
the package) with wrappers that record a span -- name, start, end, parent --
around each call, plus work counters at the same boundaries.
``scipy.integrate.quad`` is replaced by a counter that charges each call to
every span open around it.

Spans are kept in memory; ``self_times`` and ``pass_counts`` turn one pass
worth of them into per-layer self times and counts, and ``write_spans``
saves them.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter store; inert while ``active`` is false."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.pair_sets = {}      # id -> (array, n): sets measured by pairwise_block
        self._stack = []         # indices into spans

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.pair_sets = {}

    def wrap(self, name, fn, count=None, span=True):
        """Wrapper recording a span named ``name`` (or ``name(args, kwargs)``
        when callable) around each call of fn; ``count(tracer, args, kwargs,
        result)`` adds work counters after the call.  With ``span=False``
        only the counters are kept, so the call's time stays with its caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if not span:
                self.counts[label + ".calls"] += 1
                result = fn(*args, **kwargs)
                count(self, args, kwargs, result)
                return result
            index = len(self.spans)
            record = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            self.counts[label + ".calls"] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def count_quad(self, quad):
        """Counting wrapper for scipy.integrate.quad: each call is charged
        once to every distinct span name open around it."""

        @functools.wraps(quad)
        def wrapper(*args, **kwargs):
            if self.active and self._stack:
                names = {self.spans[i][0] for i in self._stack}
                for label in names:
                    self.counts[label + ".quad_calls"] += 1
                if any(label.startswith("verify.") for label in names):
                    self.counts["verify.quad_calls"] += 1
            return quad(*args, **kwargs)

        return wrapper


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------

def _count_pairs(tracer, args, kwargs, result):
    _, a, b = args
    tracer.counts["manifold.pairwise_block.pairs"] += len(a) * len(b)
    tracer.pair_sets.setdefault(id(b), (b, len(b)))


def _count_radii(tracer, args, kwargs, result):
    import numpy as np

    tracer.counts["manifold.ball_volume.radii"] += int(np.size(args[1]))


def _count_centers(tracer, args, kwargs, result):
    cs = result.center_set
    tracer.counts["discrepancy.estimate_discrepancy.centers"] += cs["code_points"] + cs["extra_centers"]


def _count_items(tracer, args, kwargs, result):
    tracer.counts["parallel.map_ordered.items"] += len(result)


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["pointsets.minimize_riesz_energy.iterations"] += result.provenance["iterations"]


def _separation_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "brute")
    return f"pointsets.min_geodesic_distance.{method}"


VERIFY_CHECKS = ("check_ball_volume_flatness", "check_small_ball_bounds",
                 "check_large_ball_bounds", "check_packing_bound",
                 "check_small_ball_energy", "check_mean_potential_holder")


def install(tracer: Tracer) -> None:
    """Wrap rieszlab's public layers in place for this process."""
    import scipy.integrate

    import rieszlab
    from rieszlab import (cli, discrepancy, energy, experiment, manifold,
                          parallel, pointsets, verify)

    modules = (rieszlab, cli, discrepancy, energy, experiment, manifold,
               parallel, pointsets, verify)

    def function(module, attr, name, count=None, span=True):
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, count, span)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))

    for cls in (manifold.Sphere, manifold.FlatTorus):
        method(cls, "pairwise_block", "manifold.pairwise_block", _count_pairs)
        method(cls, "distances_from", "manifold.distances_from")
        method(cls, "exp_array", "manifold.exp_array")
    method(manifold.Manifold, "ball_volume", "manifold.ball_volume", _count_radii)

    function(energy, "discrete_energy", "energy.discrete_energy")
    function(energy, "energy_gradient", "energy.energy_gradient")
    function(energy, "continuous_energy", "energy.continuous_energy")
    function(discrepancy, "estimate_discrepancy", "discrepancy.estimate_discrepancy",
             _count_centers)
    function(pointsets, "min_geodesic_distance", _separation_name)
    function(pointsets, "farthest_point_sample", "pointsets.farthest_point_sample")
    function(pointsets, "minimize_riesz_energy", "pointsets.minimize_riesz_energy",
             _count_iterations)
    for check in VERIFY_CHECKS:
        function(verify, check, f"verify.{check}")
    function(experiment, "run_rate_experiment", "experiment.run_rate_experiment")
    function(cli, "cli_dispatch", "cli")
    function(cli, "load_pointset", "cli")
    # the chunk work map_ordered runs belongs to energy and discrepancy
    function(parallel, "map_ordered", "parallel.map_ordered", _count_items, span=False)
    scipy.integrate.quad = tracer.count_quad(scipy.integrate.quad)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------

def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the time its
    child spans cover (children of one span never overlap: the library
    runs single-threaded here)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        out[name] += (end - start) - inner
    return dict(out)


def descendant_count(spans, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` with an ``ancestor`` span above them."""
    total = 0
    for label, _, _, parent in spans:
        if label != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total


def pass_counts(tracer: Tracer) -> dict:
    """Work counters of one pass, including the derived ratios."""
    counts = dict(tracer.counts)
    distinct = sum(n * (n - 1) // 2 for _, n in tracer.pair_sets.values())
    pairs = counts.get("manifold.pairwise_block.pairs", 0)
    counts["manifold.pairwise_block.redundancy"] = pairs / distinct if distinct else 0.0
    evals = descendant_count(tracer.spans, "energy.discrete_energy",
                             "pointsets.minimize_riesz_energy")
    counts["pointsets.minimize_riesz_energy.energy_evals"] = evals
    # the first energy of each descent is not a line-search evaluation
    line_search = evals - counts.get("pointsets.minimize_riesz_energy.calls", 0)
    iterations = counts.get("pointsets.minimize_riesz_energy.iterations", 0)
    counts["pointsets.minimize_riesz_energy.accept_ratio"] = (
        iterations / line_search if line_search > 0 else 0.0)
    counts["trace.spans"] = len(tracer.spans)
    return counts


def write_spans(spans, path, origin: float) -> None:
    """Spans as gzipped CSV: index, parent, name, start_s, end_s (seconds
    after ``origin``)."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index,parent,name,start_s,end_s\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
