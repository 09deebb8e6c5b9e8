"""The checked-in table of default outputs: one fixed list of 17 CLI
commands and their 19 outputs (stdout or written files), kept in
tests/golden/ and made with RIESZ_THREADS=1.

test_golden.py reruns the list in-process and compares each output with the
table.  As a script this module reruns the list in a temporary directory and
prints each output's md5, for an exact comparison of two source trees:

    PYTHONPATH=src python tests/golden_table.py            # md5 of each output
    PYTHONPATH=src python tests/golden_table.py --check    # exit 1 unless bytes match
    PYTHONPATH=src python tests/golden_table.py --write    # regenerate the table

--check names on stderr each output whose bytes differ from tests/golden/.
--write prints, for each output it rewrites, every path whose value moved,
as old -> new (floats within test_golden's ULPS count as unmoved).

A change that moves a default output on purpose regenerates the table and
names each changed file, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

RATE_CONFIGS = {
    "rate_t2.cfg": "manifold=torus\ndim=2\ns=1\ngenerator=kronecker\n"
                   "n_min=32\nn_max=256\nextra_centers=10\n",
    "rate_s2fp.cfg": "manifold=sphere\ndim=2\ns=1\ngenerator=farthest-point\n"
                     "ns=16,32\ncandidate_pool=400\n",
}

# (argv, output written to stdout or None); {w}/ is the working directory
COMMANDS = [
    (["generate", "--manifold", "sphere", "--dim", "2", "--gen", "fibonacci", "--n", "300",
      "--out", "{w}/s2.txt"], None),
    (["generate", "--manifold", "torus", "--dim", "3", "--gen", "uniform", "--n", "200",
      "--seed", "4", "--out", "{w}/t3.txt"], None),
    (["generate", "--manifold", "sphere", "--dim", "3", "--gen", "farthest-point", "--n", "100",
      "--seed", "2", "--out", "{w}/s3.txt"], None),
    *[(argv + ["--in", f"{{w}}/{name}.txt"], f"{prefix}_{name}.json")
      for name in ("s2", "t3", "s3")
      for prefix, argv in (("energy", ["energy", "--s", "1"]),
                           ("disc", ["discrepancy", "--extra-centers", "50", "--seed", "3"]),
                           ("sep", ["separation"]))],
    (["separation", "--method", "grid", "--in", "{w}/t3.txt"], "sepgrid_t3.json"),
    (["verify-lemmas", "--manifold", "sphere", "--dim", "2", "--s", "1"], "verify_s2.json"),
    (["verify-lemmas", "--manifold", "torus", "--dim", "3", "--s", "1.5"], "verify_t3.json"),
    *[(["rate", "--config", f"{{w}}/{name}.cfg", "--out-csv", f"{{w}}/{name}.csv",
        "--out-json", f"{{w}}/{name}.json"], None) for name in ("rate_t2", "rate_s2fp")],
]

OUTPUTS = ["s2.txt", "t3.txt", "s3.txt",
           *[f"{prefix}_{name}.json" for prefix in ("energy", "disc", "sep")
             for name in ("s2", "t3", "s3")],
           "sepgrid_t3.json", "verify_s2.json", "verify_t3.json",
           "rate_t2.json", "rate_t2.csv", "rate_s2fp.json", "rate_s2fp.csv"]


def run_commands(workdir) -> dict:
    """Run the command list in-process through cli_dispatch, writing into
    workdir, and return {output name: text} for the 19 outputs.  The caller
    sets RIESZ_THREADS=1."""
    from rieszlab.cli import cli_dispatch

    workdir = Path(workdir)
    for name, text in RATE_CONFIGS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    outputs = {}
    for argv, stdout_name in COMMANDS:
        argv = [arg.replace("{w}", str(workdir)) for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_dispatch(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        if stdout_name is not None:
            outputs[stdout_name] = out.getvalue()
    for name in OUTPUTS:
        if name not in outputs:
            outputs[name] = (workdir / name).read_text(encoding="utf-8")
    return outputs


def differing(outputs) -> list:
    """The names of the outputs whose bytes differ from the table's."""
    return [name for name in OUTPUTS
            if outputs[name].encode("utf-8") != (GOLDEN / name).read_bytes()]


def moves(name, text) -> list:
    """The paths where the output text moved from the table's, as
    "path: old -> new"."""
    from test_golden import _differences, _parse

    return _differences(_parse(name, text), _parse(name, (GOLDEN / name).read_text(encoding="utf-8")))


def main(argv) -> int:
    os.environ["RIESZ_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(tmp)
    for name in OUTPUTS:
        print(f"{hashlib.md5(outputs[name].encode('utf-8')).hexdigest()}  {name}")
    changed = differing(outputs) if "--check" in argv or "--write" in argv else []
    for name in changed:
        if "--write" in argv:
            for move in moves(name, outputs[name]) or ["bytes only, every value within ULPS"]:
                print(f"{name} {move}")
            (GOLDEN / name).write_text(outputs[name], encoding="utf-8")
        else:
            print(f"differs from tests/golden/: {name}", file=sys.stderr)
    return 1 if changed and "--check" in argv else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
