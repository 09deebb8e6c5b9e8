"""The default outputs against the checked-in table (golden_table.py).

Integers, strings, index pairs and flags must match exactly.  Floats must
match within ULPS units in the last place: numpy picks its transcendental
kernels by CPU feature, so exact bytes would tie the table to one host.
"""

import json
import math
import re

import pytest

from golden_table import GOLDEN, OUTPUTS, differing, moves, run_commands

ULPS = 4


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b)))


def _token(text):
    """A text token as an int, a float (it has a point, an exponent or is
    inf/nan), or the string itself."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _differences(got, want, where="$"):
    """Places where got and want differ, floats compared within ULPS, each
    as "path: want -> got"."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want)]
    if all(numbers) and float in (type(got), type(want)):
        # a point file writes a float with an integral value, 1.0, as "1"
        return [] if _same_float(float(got), float(want)) else [f"{where}: {want!r} -> {got!r}"]
    if type(got) is not type(want):
        return [f"{where}: {want!r} -> {got!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(want)} -> {sorted(got)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(want)} -> {len(got)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {want!r} -> {got!r}"]


def _parse(name, text):
    if name.endswith(".json"):
        return json.loads(text)
    # point files and CSV: lines of tokens split at whitespace and commas
    return [[_token(t) for t in re.split(r"[\s,]+", line.strip())]
            for line in text.splitlines()]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RIESZ_THREADS", "1")
        return run_commands(tmp_path_factory.mktemp("golden"))


def test_table_lists_every_output():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", OUTPUTS)
def test_default_output_matches_table(outputs, name):
    want = _parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    diffs = _differences(_parse(name, outputs[name]), want)
    assert not diffs, f"{name}, table -> now: " + "; ".join(diffs[:5])


def test_check_names_each_output_whose_bytes_differ():
    table = {name: (GOLDEN / name).read_text(encoding="utf-8") for name in OUTPUTS}
    assert differing(table) == []
    table["sep_s2.json"] += " "
    table["rate_t2.csv"] = table["rate_t2.csv"].replace("\n", "\r\n")
    assert differing(table) == ["sep_s2.json", "rate_t2.csv"]


def test_moves_name_each_moved_value_old_to_new():
    report = json.loads((GOLDEN / "verify_s2.json").read_text(encoding="utf-8"))
    report["s"], report["checks"][0]["passed"] = 2.0, False
    assert moves("verify_s2.json", json.dumps(report)) == [
        "$.s: 1.0 -> 2.0", "$.checks[0].passed: True -> False"]


def test_float_comparison_allows_ulps_only():
    x = 3.5254943480781717
    assert _same_float(x, x + ULPS * math.ulp(x))
    assert not _same_float(x, x * (1 + 1e-12))
    assert _differences([1, "a", [2, 3]], [1, "a", [2, 3]]) == []
    assert _differences({"pair": [1, 2]}, {"pair": [1, 3]})
    assert _differences(True, 1) and _differences(2, 3)
