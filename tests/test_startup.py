"""Start-up: ``import rieszlab`` loads numpy only.

scipy.integrate (which pulls in scipy.optimize) and scipy.special are
imported inside the functions that use them, so a command that never
integrates never pays for them.  Each test runs in a fresh interpreter,
because this session has loaded scipy long ago.
"""

import json
import subprocess
import sys

import pytest

from cli_env import cli_env

HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize")


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

steps = {}
for name, argv in [
        ("generate", ["generate", "--manifold", "sphere", "--dim", "2", "--gen", "fibonacci",
                      "--n", "300", "--out", "fib.txt"]),
        ("separation", ["separation", "--in", "fib.txt"]),
        ("discrepancy", ["discrepancy", "--in", "fib.txt", "--extra-centers", "0"]),
        ("energy", ["energy", "--in", "fib.txt", "--s", "1"])]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(argv)
    steps[name] = [code, sorted(m for m in %r if m in sys.modules)]
print(json.dumps(steps))
""" % (HEAVY,)


def test_only_integrating_commands_load_quadrature(tmp_path):
    steps = _run(_COMMANDS, tmp_path)
    for name in ("generate", "separation", "discrepancy"):
        code, loaded = steps[name]
        assert code == 0
        assert "scipy.integrate" not in loaded, name
    # positive control: the continuous energy integrates
    code, loaded = steps["energy"]
    assert code == 0
    assert "scipy.integrate" in loaded


_FIRST_SPECIAL_IN_WORKERS = """
import json, sys
from rieszlab import estimate_discrepancy, kronecker_torus, sample_uniform, sphere

X = %s
assert "scipy.special" not in sys.modules
est = estimate_discrepancy(X)
print(json.dumps([est.value.hex(), est.radius.hex(), est.center_index]))
"""


# 256 code points and 1024 extra centers make five chunks, so with more than
# one thread the first betainc (S^3) or unit-ball volume (T^3) runs in a worker
@pytest.mark.parametrize("pointset", ["sample_uniform(sphere(3), 5, 256)", "kronecker_torus(3, 256)"],
                         ids=["S3", "T3"])
def test_first_scipy_special_import_in_worker_threads(tmp_path, pointset):
    code = _FIRST_SPECIAL_IN_WORKERS % pointset
    one, two, eight = (_run(code, tmp_path, threads=t) for t in (1, 2, 8))
    assert one == two == eight
