"""Failures are reported, never hidden: pool fallback, oracle errors and
consistency checks under `python -O`."""

import concurrent.futures
import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from a4csl import oracle
from a4csl.golden import ConsistencyError

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = dict(profile="smoke", seed=3)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: runs units in this process and can
    break after a number of them, as a crashed worker would."""

    def __init__(self, max_workers, break_after=None):
        self.break_after = break_after

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        for done, item in enumerate(items):
            if done == self.break_after:
                raise BrokenProcessPool("a worker died")
            yield fn(item)


def test_broken_pool_falls_back_with_a_warning(monkeypatch, capsys):
    serial = oracle.verify_all(threads=1, **SMALL).to_json()
    assert capsys.readouterr().err == ""
    ran = []
    run_unit = oracle._run_unit

    def counting(spec):
        ran.append(spec)
        return run_unit(spec)

    monkeypatch.setattr(oracle, "_run_unit", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: InProcessPool(max_workers, break_after=2))
    report = oracle.verify_all(threads=2, **SMALL)
    assert report.to_json() == serial
    err = capsys.readouterr().err
    assert err.startswith("warning: worker pool failed (BrokenProcessPool")
    assert err.count("\n") == 1
    assert len(ran) == len(set(ran))  # the two finished units are not rerun


def test_oracle_error_propagates_without_a_serial_rerun(monkeypatch, capsys):
    calls = []

    def failing(spec):
        calls.append(spec)
        raise ConsistencyError("corrupted oracle")

    monkeypatch.setattr(oracle, "_run_unit", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    with pytest.raises(ConsistencyError, match="corrupted oracle"):
        oracle.verify_all(threads=2, **SMALL)
    assert len(calls) == 1
    assert capsys.readouterr().err == ""


def test_import_leaves_multiprocessing_unloaded():
    # the pool is imported only when verify_all runs with threads > 1
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import a4csl, a4csl.cli
        print(sorted(m for m in sys.modules if m.startswith("multiprocessing")))
    """)
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_consistency_error_is_shared_by_every_layer():
    from a4csl import a4, icosian

    assert a4.ConsistencyError is icosian.ConsistencyError is ConsistencyError
    assert issubclass(ConsistencyError, ArithmeticError)


def test_corrupted_factorization_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from a4csl import golden
        if not sys.flags.optimize:
            sys.exit(9)
        golden.factor_int = lambda n: []  # loses every prime of the norm
        try:
            golden.gi_factor(golden.GoldenInt(6, 0))
        except golden.ConsistencyError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("non-unit cofactor 6")
