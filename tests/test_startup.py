"""Start-up: ``import rieszlab`` loads numpy only.

scipy.special and scipy.spatial are imported inside the functions that use
them, so a command that never needs them never pays for them: scipy.special
serves only the S^d ball volumes for d >= 3, scipy.spatial only the grid
separation, and no torus command loads scipy at all.  The radial integrals
are fixed Gauss rules built with numpy, so no command loads scipy.integrate
(which pulls in scipy.optimize) or scipy.linalg.  Each test runs in a fresh
interpreter, because the test process imported scipy long ago.
"""

import json
import subprocess
import sys

import pytest

from cli_env import cli_env

HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize")
PROBED = HEAVY + ("scipy.special",)


def _run(code, cwd, threads=1):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(threads), cwd=str(cwd))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    loaded = _run(
        "import json, sys\n"
        "import rieszlab, rieszlab.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n",
        tmp_path)
    assert loaded == []


_COMMANDS = """
import contextlib, io, json, sys
from rieszlab.cli import cli_dispatch

with open("t2.cfg", "w") as fh:
    fh.write("manifold=torus\\ndim=2\\ns=1\\ngenerator=kronecker\\nns=32,64,128\\n")
steps = {}
for name, argv in [
        ("generate", ["generate", "--manifold", "sphere", "--dim", "2", "--gen", "fibonacci",
                      "--n", "300", "--out", "fib.txt"]),
        ("separation", ["separation", "--in", "fib.txt"]),
        ("discrepancy", ["discrepancy", "--in", "fib.txt", "--extra-centers", "0"]),
        ("energy", ["energy", "--in", "fib.txt", "--s", "1"]),
        ("rate", ["rate", "--config", "t2.cfg", "--out-csv", "t2.csv", "--out-json", "t2.json"]),
        ("verify-lemmas", ["verify-lemmas", "--manifold", "sphere", "--dim", "3", "--s", "1"])]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    steps[name] = [code, sorted(m for m in %r if m in sys.modules)]
print(json.dumps(steps))
""" % (PROBED,)


def test_no_command_loads_quadrature_or_linalg(tmp_path):
    steps = _run(_COMMANDS, tmp_path)
    assert list(steps) == ["generate", "separation", "discrepancy", "energy", "rate",
                           "verify-lemmas"]
    for name, (code, loaded) in steps.items():
        assert code == 0, name
        assert not set(loaded) & set(HEAVY), name
    # the S^2 steps run first, so the probe sees them before anything loads scipy
    for name in ("generate", "separation", "discrepancy", "energy"):
        assert steps[name][1] == [], name
    # positive control: S^3 ball volumes are betainc values
    assert "scipy.special" in steps["verify-lemmas"][1]


_TORUS_COMMANDS = """
import contextlib, io, json, sys
from rieszlab.cli import cli_dispatch

with open("t2.cfg", "w") as fh:
    fh.write("manifold=torus\\ndim=2\\ns=1\\ngenerator=kronecker\\nns=32,64,128\\n")
steps = {}
for name, argv in [
        ("generate", ["generate", "--manifold", "torus", "--dim", "3", "--gen", "kronecker",
                      "--n", "300", "--out", "k.txt"]),
        ("energy", ["energy", "--in", "k.txt", "--s", "1"]),
        ("discrepancy", ["discrepancy", "--in", "k.txt"]),
        ("separation", ["separation", "--in", "k.txt", "--method", "brute"]),
        ("rate", ["rate", "--config", "t2.cfg", "--out-csv", "t2.csv", "--out-json", "t2.json"]),
        ("verify-lemmas T2", ["verify-lemmas", "--manifold", "torus", "--dim", "2", "--s", "1"]),
        ("verify-lemmas T3", ["verify-lemmas", "--manifold", "torus", "--dim", "3", "--s", "1"])]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    steps[name] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
print(json.dumps(steps))
"""


def test_torus_commands_load_no_scipy(tmp_path):
    steps = _run(_TORUS_COMMANDS, tmp_path)
    assert list(steps) == ["generate", "energy", "discrepancy", "separation", "rate",
                           "verify-lemmas T2", "verify-lemmas T3"]
    for name, (code, loaded) in steps.items():
        assert code == 0, name
        assert loaded == [], name


_FIRST_SPECIAL_IN_WORKERS = """
import json, sys
from rieszlab import estimate_discrepancy, kronecker_torus, sample_uniform, sphere

X = %s
assert "scipy.special" not in sys.modules
est = estimate_discrepancy(X)
print(json.dumps([est.value.hex(), est.radius.hex(), est.center_index]))
"""


# 256 code points and 1024 extra centers make five chunks, so with more than
# one thread the first betainc (S^3, which imports scipy.special) or unit-ball
# volume (T^3, which imports no scipy) runs in a worker
@pytest.mark.parametrize("pointset", ["sample_uniform(sphere(3), 5, 256)", "kronecker_torus(3, 256)"],
                         ids=["S3", "T3"])
def test_first_scipy_special_import_in_worker_threads(tmp_path, pointset):
    code = _FIRST_SPECIAL_IN_WORKERS % pointset
    one, two, eight = (_run(code, tmp_path, threads=t) for t in (1, 2, 8))
    assert one == two == eight
