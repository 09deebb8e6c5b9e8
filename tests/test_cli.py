import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rieszlab import PointSet, fibonacci_sphere, flat_torus, make_manifold, sphere
from rieszlab.cli import (cli_dispatch, format_pointset, load_pointset,
                          parse_pointset, parse_rate_config, save_pointset)
from rieszlab.errors import InputError
from rieszlab.experiment import RateExperimentConfig
from rieszlab.pointsets import generate_pointset

from cli_env import cli_env


def run_cli(args, capsys):
    code = cli_dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# point-set files
# ----------------------------------------------------------------------

@pytest.mark.parametrize("manifold,dim,gen,n,seed", [
    ("sphere", 2, "fibonacci", 64, 0),
    ("sphere", 2, "fibonacci", 1000, 0),
    ("sphere", 2, "farthest-point", 1024, 1),
    ("sphere", 3, "uniform", 1000, 0),
    ("torus", 3, "kronecker", 1000, 0),
])
def test_roundtrip_full_precision(tmp_path, manifold, dim, gen, n, seed):
    # loading re-wraps the rows; on the sphere it must keep the rows that
    # are already on it, not divide them by their computed norms
    path = str(tmp_path / "pts.txt")
    assert cli_dispatch(["generate", "--manifold", manifold, "--dim", str(dim), "--gen", gen,
                         "--n", str(n), "--seed", str(seed), "--out", path]) == 0
    X = generate_pointset(make_manifold(manifold, dim), gen, n, seed)
    Y = load_pointset(path)
    assert np.array_equal(X.coords, Y.coords)
    assert Y.manifold == X.manifold


def test_load_reads_stdin_for_a_dash(monkeypatch):
    X = fibonacci_sphere(16)
    monkeypatch.setattr(sys, "stdin", io.StringIO(format_pointset(X)))
    assert np.array_equal(load_pointset("-").coords, X.coords)


def test_roundtrip_torus(tmp_path):
    from rieszlab import kronecker_torus
    X = kronecker_torus(2, 33)
    path = str(tmp_path / "pts.txt")
    save_pointset(X, path)
    Y = load_pointset(path)
    assert np.array_equal(X.coords, Y.coords)


def test_parse_rejects_wrong_row_count():
    text = "# rieszlab pointset format=1\n# manifold=flat-torus dim=1\n# n=3\n0.1\n0.2\n"
    with pytest.raises(InputError):
        parse_pointset(text)


def test_parse_rejects_bad_row():
    text = "# manifold=flat-torus dim=1\n# n=1\nnot-a-number\n"
    with pytest.raises(InputError):
        parse_pointset(text)


def test_parse_rejects_missing_header():
    with pytest.raises(InputError):
        parse_pointset("0.1 0.2\n")


@pytest.mark.parametrize("rows,message", [
    ("1 0 0\n0 1\n", "error: row at line 4 has 2 coordinates, expected 3"),
    ("1 0\n0 1 0\n", "error: row at line 3 has 2 coordinates, expected 3"),
    ("1 0 0\ninf 1 0\n", "error: non-finite coordinates"),
    ("1 0 0\nnan 1 0\n", "error: non-finite coordinates"),
], ids=["short-last-row", "short-first-row", "inf", "nan"])
def test_malformed_coordinate_rows_exit_one(tmp_path, capsys, rows, message):
    pts = tmp_path / "p.txt"
    pts.write_text("# manifold=sphere dim=2\n# n=2\n" + rows)
    code, _, err = run_cli(["separation", "--in", str(pts)], capsys)
    assert code == 1
    assert err == message + "\n"  # no traceback, no drift warning first


@pytest.mark.parametrize("header,rows,drift", [
    ("sphere dim=2", ["1.000001 0 0"], "1e-06"),
    ("sphere dim=2", ["0 0.6 0.8", "0 0 1"], None),
    ("flat-torus dim=2", ["0.5 0.25", "1.25 0.5"], "0.25"),
    ("flat-torus dim=2", ["-0.125 0.5"], "0.125"),
    ("flat-torus dim=2", ["0 0.5", "0.999 0.25"], None),
])
def test_load_warns_on_drift(capsys, header, rows, drift):
    text = f"# manifold={header}\n# n={len(rows)}\n" + "".join(row + "\n" for row in rows)
    X = parse_pointset(text)
    err = capsys.readouterr().err
    assert err == ("" if drift is None else
                   f"warning: point coordinates off the manifold by {drift}; renormalizing\n")
    if X.manifold.kind.value == "sphere":
        assert np.linalg.norm(X.coords, axis=1) == pytest.approx(1.0, abs=1e-12)
    else:
        assert np.all((X.coords >= 0.0) & (X.coords < 1.0))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def test_generate_then_energy(tmp_path, capsys):
    pts = str(tmp_path / "fib.txt")
    code, _, _ = run_cli(["generate", "--manifold", "sphere", "--dim", "2",
                          "--gen", "fibonacci", "--n", "100", "--out", pts], capsys)
    assert code == 0
    code, out, _ = run_cli(["energy", "--in", pts, "--s", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_continuous"] == pytest.approx(0.9259685259912329, abs=1e-9)
    assert payload["n"] == 100
    assert payload["version"]
    assert payload["provenance"]["generator"] == "fibonacci"


def test_separation_antipodal(tmp_path, capsys):
    X = PointSet(sphere(2), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    pts = str(tmp_path / "anti.txt")
    save_pointset(X, pts)
    code, out, _ = run_cli(["separation", "--in", pts], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["min_distance"] == pytest.approx(math.pi, abs=1e-12)


def test_discrepancy_equally_spaced(tmp_path, capsys):
    ang = 2 * math.pi * np.arange(10) / 10
    X = PointSet(sphere(1), np.column_stack([np.cos(ang), np.sin(ang)]))
    pts = str(tmp_path / "circ.txt")
    save_pointset(X, pts)
    code, out, _ = run_cli(["discrepancy", "--in", pts, "--extra-centers", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.1, abs=1e-9)
    assert payload["center_set"]["extra_centers"] == 0


def test_verify_lemmas_json(tmp_path, capsys):
    code, out, _ = run_cli(["verify-lemmas", "--manifold", "torus", "--dim", "2",
                            "--s", "1.0", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    names = [c["check"] for c in payload["checks"]]
    assert "ball-volume-flatness" in names
    assert "packing-bound" in names
    assert all(c["passed"] for c in payload["checks"])


def test_rate_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("manifold=sphere\ndim=2\ns=1.0\ngenerator=fibonacci\n"
                   "ns=32,64,128\nextra_centers=0\nseed=1\n")
    csv_path = str(tmp_path / "out.csv")
    json_path = str(tmp_path / "out.json")
    code, _, err = run_cli(["rate", "--config", str(cfg),
                            "--out-csv", csv_path, "--out-json", json_path], capsys)
    assert code == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "N,energy_discrete,energy_continuous,gap,disc_estimate,separation,gamma_hat"
    assert len(lines) == 4
    payload = json.loads(open(json_path).read())
    assert payload["config"]["seed"] == 1
    assert len(payload["rows"]) == 3


def test_rate_config_parsing_errors(tmp_path):
    with pytest.raises(InputError):
        parse_rate_config("manifold=sphere\ndim=2\ns=1.0\n")  # no generator
    with pytest.raises(InputError):
        parse_rate_config("manifold=sphere\ndim=2\ns=1.0\ngenerator=fibonacci\n"
                          "ns=32\nbogus_key=1\n")
    with pytest.raises(InputError, match="^config line 2 is not key=value"):
        parse_rate_config("manifold=sphere\ndim 2\n")
    with pytest.raises(InputError, match="^config needs either ns="):
        parse_rate_config("manifold=sphere\ndim=2\ns=1.0\ngenerator=fibonacci\n")
    cfg = parse_rate_config("manifold=torus\ndim=1\ns=0.5\ngenerator=kronecker\n"
                            "n_min=32\nn_max=128\n# comment\n")
    assert cfg.ns == [32, 64, 128]


def test_rate_config_omitted_keys_take_dataclass_defaults():
    cfg = parse_rate_config("manifold=torus\ndim=2\ns=1.0\ngenerator=kronecker\nns=16,32\n")
    assert cfg == RateExperimentConfig(manifold=flat_torus(2), s=1.0, generator="kronecker",
                                       ns=[16, 32])
    assert (cfg.extra_centers, cfg.seed) == (0, 0)
    cfg = parse_rate_config("manifold=torus\ndim=2\ns=1.0\ngenerator=kronecker\nns=16,32\n"
                            "extra_centers=3\nseed=5\n")
    assert (cfg.extra_centers, cfg.seed) == (3, 5)


RATE_BASE = {"manifold": "torus", "dim": "1", "s": "0.5", "generator": "kronecker",
             "n_min": "32", "n_max": "64"}


@pytest.mark.parametrize("key,value", [
    ("dim", "two"), ("s", "one"), ("ns", "32,6x4"), ("n_min", "3e"), ("n_max", "1k"),
    ("extra_centers", "none"), ("seed", "abc"),
    ("candidate_pool", "2.5"),
])
def test_rate_malformed_number_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in dict(RATE_BASE, **{key: value}).items()))
    code, _, err = run_cli(["rate", "--config", str(cfg), "--out-csv",
                            str(tmp_path / "o.csv"), "--out-json", "-"], capsys)
    assert code == 1
    assert f"error: {key}=" in err


@pytest.mark.parametrize("key,value", [("seed", "-1")])
def test_rate_out_of_range_value_exits_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in dict(RATE_BASE, **{key: value}).items()))
    code, _, err = run_cli(["rate", "--config", str(cfg), "--out-csv",
                            str(tmp_path / "o.csv"), "--out-json", "-"], capsys)
    assert code == 1
    assert f"error: {key} must be" in err


# the values the removed key once accepted or rejected: each is now an unknown key,
# with no value check of its own left behind
@pytest.mark.parametrize("value", ["1e-10", "tiny", "-1", "0", "nan", "inf"])
def test_rate_quad_tol_key_is_unknown(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in dict(RATE_BASE, quad_tol=value).items()))
    code, out, err = run_cli(["rate", "--config", str(cfg), "--out-csv",
                              str(tmp_path / "o.csv"), "--out-json", "-"], capsys)
    assert code == 1
    assert out == ""
    assert "error: unknown config keys: quad_tol" in err


@pytest.mark.parametrize("tol", ["1e-9", "nan", "-1", "0", "inf"])
def test_energy_tol_flag_is_unrecognized(tmp_path, capsys, tol):
    pts = str(tmp_path / "p.txt")
    save_pointset(fibonacci_sphere(8), pts)
    code, out, err = run_cli(["energy", "--in", pts, "--s", "1", "--tol", tol], capsys)
    assert code == 1
    assert out == ""
    assert "error: unrecognized arguments: --tol" in err


@pytest.mark.parametrize("method", ["grid", "brute"])
def test_separation_method_flag_is_unrecognized(tmp_path, capsys, method):
    pts = str(tmp_path / "p.txt")
    save_pointset(fibonacci_sphere(8), pts)
    code, out, err = run_cli(["separation", "--in", pts, "--method", method], capsys)
    assert code == 1
    assert out == ""
    assert "error: unrecognized arguments: --method" in err


def test_generate_negative_seed_exits_one(tmp_path, capsys):
    code, _, err = run_cli(["generate", "--manifold", "sphere", "--dim", "2", "--gen",
                            "uniform", "--n", "5", "--seed", "-1",
                            "--out", str(tmp_path / "p.txt")], capsys)
    assert code == 1
    assert "error: seed must be >= 0" in err


@pytest.mark.parametrize("header,bad", [
    ("# manifold=flat-torus dim=one\n# n=1 seed=0", "dim='one'"),
    ("# manifold=flat-torus dim=1\n# n=1x seed=0", "n='1x'"),
    ("# manifold=flat-torus dim=1\n# n=1 seed=abc", "seed='abc'"),
    ("# rieszlab pointset format=2\n# manifold=flat-torus dim=1\n# n=1",
     "unsupported point-set format '2'"),
])
def test_pointset_header_malformed_number_exits_one(tmp_path, capsys, header, bad):
    pts = tmp_path / "p.txt"
    pts.write_text(header + "\n0.25\n")
    code, _, err = run_cli(["separation", "--in", str(pts)], capsys)
    assert code == 1
    assert f"error: {bad}" in err


# a repeated or conflicting key is refused by name: no line silently wins
@pytest.mark.parametrize("extra,message", [
    ({"s": ["1", "0.5"]}, "config line 4 repeats the key s"),
    ({"ns": ["32,64"], "n_min": ["8"], "n_max": ["4096"]}, "config gives both ns= and n_min="),
], ids=["s-twice", "ns-with-n_min-n_max"])
def test_rate_repeated_key_exits_one(tmp_path, capsys, extra, message):
    base = {"manifold": ["torus"], "dim": ["1"], "s": ["0.5"], "generator": ["kronecker"]}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k}={v}\n" for k, vs in dict(base, **extra).items() for v in vs))
    code, out, err = run_cli(["rate", "--config", str(cfg), "--out-csv",
                              str(tmp_path / "o.csv"), "--out-json", "-"], capsys)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


def test_pointset_repeated_header_key_exits_one(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("# manifold=flat-torus dim=1\n# n=1\n# n=2\n0.25\n0.75\n")
    code, out, err = run_cli(["separation", "--in", str(pts)], capsys)
    assert code == 1
    assert out == ""
    assert "error: header line 3 repeats the key n=" in err


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(["generate", "--bogus", "1"], capsys)
    assert code == 1
    assert "usage" in err


def test_no_subcommand_exits_one(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(["energy", "--in", "/nonexistent/file.txt", "--s", "1"], capsys)
    assert code == 1
    code, _, err = run_cli(["rate", "--config", "/nonexistent/rate.cfg"], capsys)
    assert code == 1
    assert err.startswith("error: cannot read config /nonexistent/rate.cfg")


def test_bad_exponent_exits_two(tmp_path, capsys):
    pts = str(tmp_path / "p.txt")
    save_pointset(fibonacci_sphere(8), pts)
    code, _, err = run_cli(["energy", "--in", pts, "--s", "5.0"], capsys)
    assert code == 2
    assert "domain" in err


def test_coincident_points_exit_two(tmp_path, capsys):
    X = PointSet(flat_torus(1), [[0.25], [0.25], [0.75]])
    pts = str(tmp_path / "dup.txt")
    save_pointset(X, pts)
    code, _, err = run_cli(["energy", "--in", pts, "--s", "0.5"], capsys)
    assert code == 2


def test_generator_mismatch_exits_one(capsys):
    code, _, _ = run_cli(["generate", "--manifold", "torus", "--dim", "2",
                          "--gen", "fibonacci", "--n", "10"], capsys)
    assert code == 1


# ----------------------------------------------------------------------
# determinism across worker threads
# ----------------------------------------------------------------------

def cli_bytes(args, threads, cwd):
    proc = subprocess.run([sys.executable, "-m", "rieszlab.cli"] + args,
                          capture_output=True, env=cli_env(threads), cwd=cwd)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_reports_byte_identical_across_threads(tmp_path):
    pts = str(tmp_path / "pts.txt")
    save_pointset(fibonacci_sphere(300), pts)
    for args in (["energy", "--in", pts, "--s", "1"],
                 ["discrepancy", "--in", pts, "--extra-centers", "50", "--seed", "4"],
                 ["separation", "--in", pts]):
        outputs = {cli_bytes(args, t, str(tmp_path)) for t in (1, 2, 8)}
        assert len(outputs) == 1
