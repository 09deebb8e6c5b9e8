"""N-sweep harness: energies, discrepancy and separation across a
geometric schedule, with log-log rate fits.

Each row takes its discrete energy and discrepancy estimate from one
call of energy._chunked_pass, through discrepancy._tiled_pass, and its
separation from min_geodesic_distance.  discrete_energy and
estimate_discrepancy each run the same pass for their one reduction, so
the row equals the three separate calls by construction.

The discrepancy column is the finite-center lower bound, not the true
supremum; the fitted constants inherit that caveat and every emitted
report carries it verbatim.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .discrepancy import _tiled_pass
from .energy import check_exponent, continuous_energy
from .errors import DomainError, InputError, as_count
from .manifold import Manifold
from .pointsets import generate_pointset, min_geodesic_distance
from .verify import energy_rate_exponent

CSV_COLUMNS = ["N", "energy_discrete", "energy_continuous", "gap",
               "disc_estimate", "separation", "gamma_hat"]

LOWER_BOUND_CAVEAT = (
    "disc_estimate is a finite-center lower bound on the true ball "
    "discrepancy; the gap between the two is unquantified."
)


@dataclass
class RateExperimentConfig:
    manifold: Manifold
    s: float
    generator: str                     # fibonacci | kronecker | farthest-point | uniform
    ns: list                           # strictly increasing schedule
    extra_centers: int = 0
    seed: int = 0
    generator_params: dict = field(default_factory=dict)

    def validate(self):
        check_exponent(self.s, self.manifold.dim)
        if len(self.ns) < 1:
            raise InputError("schedule must contain at least one N")
        ns = [as_count(f"ns[{k}]", n, 2) for k, n in enumerate(self.ns)]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputError("schedule must be strictly increasing")
        as_count("extra_centers", self.extra_centers, 0)
        as_count("seed", self.seed, 0)

    def describe(self) -> dict:
        return {
            "manifold": self.manifold.describe(),
            "s": self.s,
            "generator": self.generator,
            "ns": [int(n) for n in self.ns],
            "extra_centers": int(self.extra_centers),
            "seed": int(self.seed),
            "generator_params": dict(self.generator_params),
        }


@dataclass
class RateRow:
    n: int
    energy_discrete: float
    energy_continuous: float
    gap: float
    disc_estimate: float
    separation: float
    gamma_hat: float
    runtime_s: float   # informational only; excluded from serialized reports

    def to_dict(self) -> dict:
        """The serialized row: CSV_COLUMNS mapped to their values, shared
        by the JSON report and the CSV."""
        values = {**asdict(self), "N": self.n}
        return {col: values[col] for col in CSV_COLUMNS}


@dataclass
class LogLogFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class RateReport:
    config: dict
    rows: list
    rate_exponent: float
    c_hat: float
    c_hat_first_half: float
    second_half_max_ratio: float | None
    gamma_band: float | None
    fit_gap_vs_n: LogLogFit | None
    fit_disc_vs_n: LogLogFit | None
    fit_gap_vs_disc: LogLogFit | None
    caveat: str = LOWER_BOUND_CAVEAT

    def to_dict(self) -> dict:
        return {**asdict(self), "rows": [r.to_dict() for r in self.rows]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(r.to_dict().values() for r in self.rows)
        return buf.getvalue()


def fit_loglog(xs, ys) -> LogLogFit:
    """Least squares of log(y) on log(x); inputs must be finite and positive."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise InputError("need at least 2 paired samples")
    for name, a in (("xs", xs), ("ys", ys)):
        if not np.all(np.isfinite(a) & (a > 0.0)):
            raise InputError(f"log-log fit requires finite, strictly positive {name}")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LogLogFit(float(slope), float(intercept), r2)


def _safe_fit(xs, ys):
    try:
        return fit_loglog(xs, ys)
    except InputError:
        return None


def run_rate_experiment(cfg: RateExperimentConfig) -> RateReport:
    """One sweep: for each N generate, measure, then fit the log-log rates
    and the bound constant c_hat = max gap / disc^exponent.

    c_hat is also fitted on the first half of the schedule alone; the
    ratio of second-half gaps to that bound is the falsifiable form of
    the asymptotic claim.  Deterministic given the config.
    """
    cfg.validate()
    m = cfg.manifold
    kappa = energy_rate_exponent(m.dim, cfg.s)
    e_cont = continuous_energy(m, cfg.s)
    rows = []
    for idx, n in enumerate(cfg.ns):
        t0 = time.perf_counter()
        row_seed = cfg.seed * 100003 + idx
        X = generate_pointset(m, cfg.generator, int(n), row_seed,
                              candidate_pool=cfg.generator_params.get("candidate_pool"))
        try:
            disc, e_disc = _tiled_pass(X, cfg.extra_centers, row_seed, cfg.s)
            sep = min_geodesic_distance(X)
        except DomainError as exc:  # the energy meets a coincident pair first
            raise InputError(f"generator produced coincident points at N={n}") from exc
        rows.append(RateRow(
            n=int(n),
            energy_discrete=float(e_disc),
            energy_continuous=float(e_cont),
            gap=float(abs(e_disc - e_cont)),
            disc_estimate=float(disc.value),
            separation=float(sep.min_distance),
            gamma_hat=float(sep.gamma_hat),
            runtime_s=time.perf_counter() - t0,
        ))
    ns = np.array([r.n for r in rows], dtype=float)
    gaps = np.array([r.gap for r in rows])
    discs = np.array([r.disc_estimate for r in rows])
    gammas = np.array([r.gamma_hat for r in rows])
    with np.errstate(divide="ignore"):
        c_all = float(np.max(gaps / discs ** kappa))
    half = max(1, len(rows) // 2)
    c_half = float(np.max(gaps[:half] / discs[:half] ** kappa))
    second_max = (float(np.max(gaps[half:] / (c_half * discs[half:] ** kappa)))
                  if len(rows) > half else None)
    gamma_band = float(gammas.max() / gammas.min()) if len(rows) >= 2 else None
    fits = ((_safe_fit(ns, gaps), _safe_fit(ns, discs), _safe_fit(discs, gaps))
            if len(rows) >= 2 else (None, None, None))
    return RateReport(
        config=cfg.describe(),
        rows=rows,
        rate_exponent=kappa,
        c_hat=c_all,
        c_hat_first_half=c_half,
        second_half_max_ratio=second_max,
        gamma_band=gamma_band,
        fit_gap_vs_n=fits[0],
        fit_disc_vs_n=fits[1],
        fit_gap_vs_disc=fits[2],
    )


def geometric_schedule(n_min: int, n_max: int) -> list:
    """Doubling schedule n_min, 2 n_min, ..., up to n_max."""
    n_min = as_count("n_min", n_min, 2)
    n_max = as_count("n_max", n_max, n_min)
    # n_min 2^k <= n_max exactly when 2^k <= n_max // n_min
    return [n_min << k for k in range((n_max // n_min).bit_length())]
