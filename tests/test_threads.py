"""RIESZ_THREADS is the one thread setting: no public callable takes a
thread count."""

import inspect
import os

import pytest

import rieszlab
from rieszlab import InputError
from rieszlab.parallel import resolve_threads


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # the error classes take *args like their base
        return {}


def test_no_public_callable_takes_threads():
    takers = [name for name in rieszlab.__all__
              if callable(getattr(rieszlab, name))
              and "threads" in _parameters(getattr(rieszlab, name))]
    assert takers == []
    assert inspect.signature(resolve_threads).parameters == {}


@pytest.mark.parametrize("raw,expected", [
    (None, 1), ("", 1), ("3", 3), ("256", 256), ("0", os.cpu_count() or 1)])
def test_resolve_threads_reads_the_environment(monkeypatch, raw, expected):
    if raw is None:
        monkeypatch.delenv("RIESZ_THREADS", raising=False)
    else:
        monkeypatch.setenv("RIESZ_THREADS", raw)
    assert resolve_threads() == expected


# above MAX_THREADS = 256 is an error too; no test starts that many threads
@pytest.mark.parametrize("raw", ["two", "1.5", "-1", "257", str(10 ** 6)])
def test_bad_thread_count_is_an_input_error(monkeypatch, raw):
    monkeypatch.setenv("RIESZ_THREADS", raw)
    with pytest.raises(InputError, match="^RIESZ_THREADS must be"):
        resolve_threads()
