"""Command-line surface: generation, measurement and verification.

Subcommands: generate, energy, discrepancy, separation, verify-lemmas,
rate.  Exit codes: 0 success, 1 input error (including usage), 2
numerical-domain error (coincident points, exponent outside (0, d)).

Point sets travel as a small text format: '#'-prefixed key=value header
lines followed by one whitespace-separated coordinate row per point,
printed with 17 significant digits.  Loading keeps every row already on
the manifold (as PointSet does), so save/load round-trips are lossless.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .discrepancy import estimate_discrepancy
from .energy import energy_report
from .errors import DomainError, InputError
from .experiment import RateExperimentConfig, geometric_schedule, run_rate_experiment
from .manifold import make_manifold
from .pointsets import GENERATORS, PointSet, generate_pointset, min_geodesic_distance
from .verify import run_all_checks

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# point-set files
# ----------------------------------------------------------------------

def format_pointset(X: PointSet) -> str:
    prov = X.provenance
    lines = [
        f"# rieszlab pointset format={FORMAT_VERSION}",
        f"# manifold={X.manifold.kind.value} dim={X.manifold.dim}",
        f"# n={X.n} generator={prov.get('generator', 'unknown')} seed={prov.get('seed', '')}",
    ]
    for row in X.coords:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, path: str) -> None:
    """Write text to the file at path, or to stdout when path is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_pointset(X: PointSet, path: str) -> None:
    _write(format_pointset(X), path)


def _number(key: str, value: str, kind):
    """value converted by kind (int or float); a malformed value is an
    InputError that names its key."""
    try:
        return kind(value)
    except ValueError as exc:
        raise InputError(f"{key}={value!r} is not a valid {kind.__name__}") from exc


def parse_pointset(text: str) -> PointSet:
    header: dict = {}
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    header[key] = value
            continue
        try:
            rows.append((lineno, [float(tok) for tok in line.split()]))
        except ValueError as exc:
            raise InputError(f"bad coordinate row at line {lineno}: {line!r}") from exc
    for key in ("manifold", "dim", "n"):
        if key not in header:
            raise InputError(f"point-set file is missing the {key}= header")
    if header.get("format", str(FORMAT_VERSION)) != str(FORMAT_VERSION):
        raise InputError(f"unsupported point-set format {header.get('format')!r}")
    m = make_manifold(header["manifold"], _number("dim", header["dim"], int))
    n = _number("n", header["n"], int)
    if len(rows) != n:
        raise InputError(f"header says n={n} but the file has {len(rows)} rows")
    for lineno, row in rows:
        if len(row) != m.ambient_dim:
            raise InputError(f"row at line {lineno} has {len(row)} coordinates, "
                             f"expected {m.ambient_dim}")
    coords = np.array([row for _, row in rows], dtype=float)
    prov = {"generator": header.get("generator", "unknown")}
    if header.get("seed", "") not in ("", "None"):
        prov["seed"] = _number("seed", header["seed"], int)
    X = PointSet(m, coords, provenance=prov)  # size and finiteness before the drift
    drift = m._drift(coords)
    if drift > 1e-9:
        print(f"warning: point coordinates off the manifold by {drift:.3g}; "
              "renormalizing", file=sys.stderr)
    return X


def load_pointset(path: str) -> PointSet:
    if path == "-":
        return parse_pointset(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_pointset(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read point-set file {path}: {exc}") from exc


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _emit_json(payload: dict, path: str) -> None:
    _write(json.dumps({"version": __version__, **payload}, indent=2) + "\n", path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rieszlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="generate a point set and write it as text")
    p.add_argument("--manifold", required=True, help="sphere or torus")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gen", required=True, choices=GENERATORS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool", type=int, default=None,
                   help="candidate pool size for farthest-point")
    p.add_argument("--out", default="-")

    p = sub.add_parser("energy", help="discrete vs continuous Riesz energy of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("discrepancy", help="lower-bound ball discrepancy of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--extra-centers", type=int, default=None,
                   help="uniform centers besides the code points (default 4N)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("separation", help="minimum pairwise geodesic distance of a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify-lemmas", help="run the fitted-bound checks")
    p.add_argument("--manifold", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("rate", help="N-sweep rate experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv", default="rate.csv")
    p.add_argument("--out-json", default="-")
    return parser


def _cmd_generate(args) -> int:
    m = make_manifold(args.manifold, args.dim)
    save_pointset(generate_pointset(m, args.gen, args.n, args.seed, args.pool), args.out)
    return 0


def _cmd_energy(args) -> int:
    X = load_pointset(args.infile)
    report = energy_report(X, args.s)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_discrepancy(args) -> int:
    X = load_pointset(args.infile)
    est = estimate_discrepancy(X, extra_centers=args.extra_centers, seed=args.seed)
    _emit_json(est.to_dict(), args.out)
    return 0


def _cmd_separation(args) -> int:
    X = load_pointset(args.infile)
    rep = min_geodesic_distance(X)
    _emit_json(rep.to_dict(), args.out)
    return 0


def _cmd_verify(args) -> int:
    m = make_manifold(args.manifold, args.dim)
    reports = run_all_checks(m, args.s, seed=args.seed)
    payload = {
        "manifold": m.describe(),
        "s": args.s,
        "seed": args.seed,
        "checks": [r.to_dict() for r in reports],
    }
    _emit_json(payload, args.out)
    return 0


def parse_rate_config(text: str) -> RateExperimentConfig:
    """Plain key=value lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    known = {"manifold", "dim", "s", "generator", "ns", "n_min", "n_max",
             "extra_centers", "seed", "candidate_pool"}
    unknown = set(values) - known
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("manifold", "dim", "s", "generator"):
        if key not in values:
            raise InputError(f"config is missing required key {key}")
    m = make_manifold(values["manifold"], _number("dim", values["dim"], int))
    if "ns" in values:
        ns = [_number("ns", tok.strip(), int) for tok in values["ns"].split(",") if tok.strip()]
    elif "n_min" in values and "n_max" in values:
        ns = geometric_schedule(_number("n_min", values["n_min"], int),
                                _number("n_max", values["n_max"], int))
    else:
        raise InputError("config needs either ns=a,b,c or n_min=/n_max=")
    params = {}
    if "candidate_pool" in values:
        params["candidate_pool"] = _number("candidate_pool", values["candidate_pool"], int)
    # keys the file leaves out keep the dataclass defaults
    optional = {key: _number(key, values[key], kind) for key, kind in
                (("extra_centers", int), ("seed", int)) if key in values}
    return RateExperimentConfig(
        manifold=m,
        s=_number("s", values["s"], float),
        generator=values["generator"],
        ns=ns,
        generator_params=params,
        **optional,
    )


def _cmd_rate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_rate_config(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    report = run_rate_experiment(cfg)
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    _emit_json(report.to_dict(), args.out_json)
    for row in report.rows:
        print(f"N={row.n}: {row.runtime_s:.2f}s", file=sys.stderr)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "energy": _cmd_energy,
    "discrepancy": _cmd_discrepancy,
    "separation": _cmd_separation,
    "verify-lemmas": _cmd_verify,
    "rate": _cmd_rate,
}


def cli_dispatch(argv) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
