"""The benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (timed as set-up),
runs its operations once per ``run_pass`` (timed), and checks that pass's
outputs in ``check`` (untimed).  Operations go through rieszlab's public
API and its CLI entry point ``rieszlab.cli.cli_dispatch``; module
attributes are looked up at call time so that the traced run sees its
wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import special

import rieszlab as rl
from rieszlab import cli

HERE = Path(__file__).resolve().parent
S = 1.0  # Riesz exponent of every workload


class Workload:
    name = ""
    ops = 0  # operations per pass, each checked on its own

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, outputs) -> list:
        """One message per failed operation of the pass; empty when all hold."""
        raise NotImplementedError


def _dispatch(argv) -> int:
    """Run one CLI command, keeping its progress lines off the terminal."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.cli_dispatch(argv)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

class Sweep(Workload):
    """`rieszlab rate` on S^2 Fibonacci and T^2 Kronecker, s=1, N=32..4096,
    extra_centers=0.

    Why: the acceptance criterion-7 research loop users wait on.  Every
    row makes three full N x N passes (separation, energy, discrepancy)
    through both pairwise_block kernels, the sphere Gram/arccos and the
    torus wrap path, so manifold.pairwise_block dominates; ball volumes on
    S^2 and T^2 are closed forms, so quadrature work is nil.  This is the
    workload the fused pairwise tiles must move.  N stops at 4096 (not the
    criterion's 8192) so that a run holds several passes.
    """

    name = "sweep"
    CONFIGS = (("sphere", "fibonacci", True), ("torus", "kronecker", False))

    def setup(self):
        self.n_max = 1024 if self.smoke else 4096
        self.ns = rl.geometric_schedule(32, self.n_max)
        self.ops = len(self.CONFIGS) * len(self.ns)
        self.jobs = []
        for manifold, generator, gate_gamma in self.CONFIGS:
            cfg = self.workdir / f"{manifold}.cfg"
            cfg.write_text(
                f"manifold={manifold}\ndim=2\ns={S}\ngenerator={generator}\n"
                f"n_min=32\nn_max={self.n_max}\nextra_centers=0\nseed={self.seed}\n",
                encoding="utf-8")
            argv = ["rate", "--config", str(cfg),
                    "--out-csv", str(self.workdir / f"{manifold}.csv"),
                    "--out-json", str(self.workdir / f"{manifold}.json")]
            self.jobs.append((manifold, argv, gate_gamma))
        self.reference = json.loads((HERE / "sweep_reference.json").read_text())

    def run_pass(self):
        return [_dispatch(argv) for _, argv, _ in self.jobs]

    def check(self, codes):
        failures = []
        for (manifold, _, gate_gamma), code in zip(self.jobs, codes):
            if code != 0:
                failures += [f"{manifold}: rate exited {code}"] * len(self.ns)
                continue
            report = json.loads((self.workdir / f"{manifold}.json").read_text())
            failures += self._check_report(manifold, report, gate_gamma)
        return failures

    def _check_report(self, manifold, report, gate_gamma):
        rows = report["rows"]
        if [r["N"] for r in rows] != self.ns:
            return [f"{manifold}: schedule {[r['N'] for r in rows]}"] * len(self.ns)
        # criterion-7 gates hold for the whole config, so a miss fails every row
        gaps = [r["gap"] for r in rows]
        gates = []
        if not gaps[-1] < gaps[0] / 4.0:
            gates.append("last gap not below first gap / 4")
        if not (report["second_half_max_ratio"] is not None
                and report["second_half_max_ratio"] <= 2.0):
            gates.append(f"second_half_max_ratio {report['second_half_max_ratio']}")
        if gate_gamma and not report["gamma_band"] <= 2.0:
            gates.append(f"gamma_band {report['gamma_band']}")
        if manifold == "sphere":
            closed = special.sici(math.pi)[0] / 2.0  # S^2, s=1: Si(pi)/2
            if abs(rows[0]["energy_continuous"] - closed) > 1e-9:
                gates.append(f"energy_continuous {rows[0]['energy_continuous']!r} vs Si(pi)/2")
        if gates:
            return [f"{manifold}: {'; '.join(gates)}"] * len(rows)
        reference = self.reference[manifold]
        failures = []
        for row in rows:
            ref = reference[str(row["N"])]
            bad = [k for k, v in ref.items() if _rel(row[k], v) > 1e-12]
            if bad:
                failures.append(f"{manifold} N={row['N']}: {', '.join(bad)} off reference")
        return failures


# ----------------------------------------------------------------------
# highdim
# ----------------------------------------------------------------------

def _scan_center_discrepancy(m, coords, center, volume, radii_count):
    """Independent sup over radii for one center: the two-sided deviation on
    a dense radius grid plus every jump radius and a point just below it."""
    d = np.sort(m.distances_from(np.asarray(center, dtype=float), coords))
    grid = np.linspace(0.0, m.diameter, radii_count)
    probes = np.sort(np.concatenate([grid, d, np.maximum(d - 1e-9, 0.0)]))
    counts = np.searchsorted(d, probes, side="right") / len(coords)
    return float(np.max(np.abs(counts - volume(probes))))


def _sphere_volume_betainc(dim):
    """S^dim ball volume from the Beta law of (1 - <x, y>) / 2; independent
    of the library's per-radius quadrature."""
    def vol(r):
        r = np.minimum(r, math.pi)
        return special.betainc(dim / 2.0, dim / 2.0, np.sin(r / 2.0) ** 2)
    return vol


def _random_rotation(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class HighDim(Workload):
    """S^3 and T^3, s=1: estimate_discrepancy on a uniform N=64 set with
    the default 4N extra centers, the six fitted-bound checks, and T^3 grid
    separation on 4096 uniform points.

    Why: the cost sits in per-radius scipy quadrature (S^d ball volumes for
    d >= 3, the T^3 edge integrals, the mean-potential check) and in Python
    loops (greedy packing, grid buckets), not in dense pairs.  It is the
    target of closed-form volumes, tree separation and a single
    mean-potential evaluation, which the sweep bypasses.

    The point sets are fixed uniform samples moved by an isometry drawn
    from the seed (a rotation of S^3, a translation of T^3): coordinates
    and results change with the seed, but the distances among the points,
    and so most of the quadrature work, do not (only the seeded extra
    centers add seed-dependent radii).  The checks run as in
    run_all_checks (verify-lemmas) but with 5 packing cases and 2
    mean-potential pairs per scale from a fixed seed, because the default
    battery alone takes ~9 s and its packing work varies with its seed.
    """

    ops = 15  # 2 discrepancies + 2 x 6 bound checks + 1 separation
    BATTERY_SEED = 0

    def setup(self):
        n = 32 if self.smoke else 64
        n_sep = 1024 if self.smoke else 4096
        self.cases, self.pairs = (2, 1) if self.smoke else (5, 2)
        base = np.random.default_rng(0)
        g = base.standard_normal((n, 4))
        sphere_base = g / np.linalg.norm(g, axis=1, keepdims=True)
        torus_base, sep_base = base.random((n, 3)), base.random((n_sep, 3))
        rng = np.random.default_rng(self.seed)
        self.sphere_set = rl.PointSet(rl.sphere(3), sphere_base @ _random_rotation(rng, 4).T)
        self.torus_set = rl.PointSet(rl.flat_torus(3), (torus_base + rng.random(3)) % 1.0)
        self.sep_set = rl.PointSet(rl.flat_torus(3), (sep_base + rng.random(3)) % 1.0)
        self.first = None

    def _battery(self, m):
        return [
            rl.check_ball_volume_flatness(m),
            rl.check_small_ball_bounds(m, 0.5 * m.injectivity_radius),
            rl.check_large_ball_bounds(m),
            rl.check_packing_bound(m, cases=self.cases, seed=self.BATTERY_SEED),
            rl.check_small_ball_energy(m, S),
            rl.check_mean_potential_holder(m, S, pairs=self.pairs, seed=self.BATTERY_SEED),
        ]

    def run_pass(self):
        discs = [rl.estimate_discrepancy(X, seed=self.seed)
                 for X in (self.sphere_set, self.torus_set)]
        checks = [self._battery(m) for m in (rl.sphere(3), rl.flat_torus(3))]
        sep = rl.min_geodesic_distance(self.sep_set, method="grid")
        return discs, checks, sep

    def check(self, outputs):
        discs, checks, sep = outputs
        outcome = ([d.to_dict() for d in discs],
                   [[c.to_dict() for c in battery] for battery in checks], sep.to_dict())
        if self.first is not None:
            # the oracles held on the first pass; later passes must repeat it
            if outcome == self.first[0]:
                return list(self.first[1])
            return ["output differs from the first pass"] * self.ops
        failures = self._check_discrepancy(outcome[0])
        failures += [f"{c['manifold']}: {c['check']} did not pass"
                     for battery in outcome[1] for c in battery if not c["passed"]]
        failures += self._check_separation(outcome[2])
        self.first = (outcome, failures)
        return list(failures)

    def _check_discrepancy(self, discs):
        failures = []
        sets = ((self.sphere_set, _sphere_volume_betainc(3), 200_000),
                (self.torus_set, self.torus_set.manifold.ball_volume, 20_000))
        for est, (X, volume, radii_count) in zip(discs, sets):
            scan = _scan_center_discrepancy(X.manifold, X.coords, est["center"],
                                            volume, radii_count)
            if not (est["value"] > 0.0 and abs(scan - est["value"]) <= 1e-7):
                failures.append(f"{X.manifold}: discrepancy {est['value']!r}, scan {scan!r}")
        return failures

    def _check_separation(self, sep):
        # cKDTree on the periodic unit box gives the same nearest-image metric;
        # imported here because scipy.spatial would dominate the timed set-up
        from scipy import spatial

        coords = self.sep_set.coords
        dist, _ = spatial.cKDTree(coords, boxsize=1.0).query(coords, k=2)
        oracle = float(dist[:, 1].min())
        i, j = sep["pair"]
        delta = coords[i] - coords[j]
        delta -= np.round(delta)
        pair_dist = float(np.sqrt(delta @ delta))
        if _rel(sep["min_distance"], oracle) > 1e-12 or _rel(pair_dist, oracle) > 1e-12:
            return [f"separation {sep['min_distance']!r} vs cKDTree {oracle!r}"]
        return []


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

def _oracle_energy(manifold, coords, s):
    """Normalized Riesz energy by a plain all-pairs formula."""
    if manifold == "sphere":
        dist = np.arccos(np.clip(coords @ coords.T, -1.0, 1.0))
    else:
        delta = coords[:, None, :] - coords[None, :, :]
        delta -= np.round(delta)
        dist = np.sqrt(np.sum(delta * delta, axis=2))
    off = ~np.eye(len(coords), dtype=bool)
    return float(np.sum(dist[off] ** (-s))) / len(coords) ** 2


def _file_rows(text):
    return np.array([[float(t) for t in line.split()]
                     for line in text.splitlines() if line and not line.startswith("#")])


class Descent(Workload):
    """For S^2 and T^2 at N=1024: `rieszlab generate --gen farthest-point`
    to a file, load_pointset of that file, then 5 iterations of
    minimize_riesz_energy (s=1, tol=0).

    Why: the same pairwise layer used differently from the sweep: 20
    energy_gradient and 20 line-search discrete_energy calls at N=1024
    (4 row chunks each) rather than a few calls at large N, so a tile size
    or per-call overhead tuned for large N that costs mid-size repeated
    calls shows here.  It is the only part that runs the gradient, the
    exp map, farthest-point sampling and the point-file text format.  Five
    iterations (not 20) keep the pass short, so a run holds several.
    """

    ops = 4  # per manifold: generate + load, descent
    ITERATIONS = 5

    def setup(self):
        self.n = 128 if self.smoke else 1024
        self.jobs = []
        for manifold in ("sphere", "torus"):
            out = self.workdir / f"{manifold}.txt"
            argv = ["generate", "--manifold", manifold, "--dim", "2",
                    "--gen", "farthest-point", "--n", str(self.n),
                    "--seed", str(self.seed), "--out", str(out)]
            self.jobs.append((manifold, argv, out))
        self.first = None

    def run_pass(self):
        results = []
        for _, argv, out in self.jobs:
            code = _dispatch(argv)
            X = cli.load_pointset(str(out))
            Y = rl.minimize_riesz_energy(X, S, max_iters=self.ITERATIONS, tol=0.0)
            results.append((code, X, Y))
        return results

    def check(self, results):
        outcome = [(code, out.read_text(), X.coords.tobytes(), Y.coords.tobytes(),
                    Y.provenance["energy_trace"])
                   for (_, _, out), (code, X, Y) in zip(self.jobs, results)]
        if self.first is not None:
            if outcome == self.first[0]:
                return list(self.first[1])
            return ["output differs from the first pass"] * self.ops
        failures = []
        for (manifold, _, _), (code, text, *_), (_, X, Y) in zip(self.jobs, outcome, results):
            failures += self._check_file(manifold, code, text, X)
            failures += self._check_descent(manifold, Y)
        self.first = (outcome, failures)
        return list(failures)

    def _check_file(self, manifold, code, text, X):
        if code != 0:
            return [f"{manifold}: generate exited {code}"]
        m = rl.make_manifold(manifold, 2)
        direct = rl.farthest_point_sample(m, self.n, seed=self.seed).coords
        rows = _file_rows(text)
        if rows.shape != direct.shape or not np.array_equal(rows, direct):
            return [f"{manifold}: point file does not hold the generated coordinates bit for bit"]
        # load_pointset renormalizes sphere rows, which may move the last bit
        if np.max(np.abs(X.coords - direct)) > 4e-16:
            return [f"{manifold}: loaded set drifts from the file"]
        return []

    def _check_descent(self, manifold, Y):
        trace = Y.provenance["energy_trace"]
        if Y.provenance["iterations"] != self.ITERATIONS or len(trace) != self.ITERATIONS + 1:
            return [f"{manifold}: {Y.provenance['iterations']} descent iterations"]
        if any(b > a for a, b in zip(trace, trace[1:])):
            return [f"{manifold}: energy trace increases"]
        oracle = _oracle_energy(manifold, Y.coords, S)
        if _rel(trace[-1], oracle) > 1e-12:
            return [f"{manifold}: final energy {trace[-1]!r} vs all-pairs {oracle!r}"]
        return []


class GenerateHighDim(Workload):
    """The Descent operations followed by the HighDim ones, in one pass.

    Why: together they hold every layer the sweep leaves idle (gradient,
    exp map, farthest-point sampling, point files, quadrature, the bound
    checks, grid separation).  They share one workload because the
    quadrature and Python-loop code alone swings by 20% between runs on a
    shared machine, while beside the numpy-bound descent the pass time
    stays steady enough to gate on.
    """

    name = "generate_highdim"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.parts = [Descent(seed, workdir, smoke), HighDim(seed, workdir, smoke)]

    def setup(self):
        for part in self.parts:
            part.setup()
        self.ops = sum(part.ops for part in self.parts)

    def run_pass(self):
        return [part.run_pass() for part in self.parts]

    def check(self, outputs):
        return [f for part, out in zip(self.parts, outputs) for f in part.check(out)]


WORKLOADS = {w.name: w for w in (Sweep, GenerateHighDim)}
