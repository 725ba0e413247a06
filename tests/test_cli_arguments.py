"""Argument validation: bad numbers are usage errors (exit 2) and are
rejected before any work, or any worker process, starts.  An --out file
that cannot be written is a usage error as well, but a stdout pipe that
its reader closes early is not an error."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

from a4csl import oracle
from a4csl.cli import build_parser, main
from a4csl.oracle import PROFILES, verify_all


@pytest.mark.parametrize("argv", [
    ["count", "ssl", "--max", "0"],
    ["count", "soc", "--max", "-5"],
    ["count", "soc", "--max", "x"],
    ["series", "ssl", "--limit", "0"],
    ["enumerate-icosians", "--trace-norm", "-3"],
    ["enumerate-icosians", "--trace-norm", "0"],
    ["verify", "--threads", "0"],
    ["verify", "--threads", "-2"],
])
def test_bad_numbers_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "ssl", "--max", "1000001"],
    ["count", "soc", "--max", "10000000000"],
    ["series", "soc", "--limit", "1000001"],
    ["enumerate-icosians", "--trace-norm", "25"],
    # scale 10^34 + 6 * 10^17 + 10, above golden._MR_BOUND
    ["csl", "100000000000000003", "1", "0", "0", "0", "0", "0", "0"],
])
def test_sizes_above_their_cap_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "is above the limit" in capsys.readouterr().err


def test_csl_scale_below_the_cap_is_accepted(tmp_path):
    # the largest prime scale below the cap, 1508451006103^2 + 1020597681198^2
    out = tmp_path / "csl.txt"
    assert main(["csl", "1508451006103", "1020597681198", "0", "0", "0", "0", "0", "0",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "lattice index: 3317044064679887385961813"


def test_sizes_at_their_cap_are_accepted():
    parse = build_parser().parse_args
    assert parse(["count", "soc", "--max", "1000000"]).max == 1_000_000
    assert parse(["series", "ssl", "--limit", "1000000"]).limit == 1_000_000
    assert parse(["enumerate-icosians", "--trace-norm", "24"]).trace_norm == 24


def test_profile_choices_are_the_table_keys(capsys):
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    (profile,) = [a for a in verify._actions if a.dest == "profile"]
    assert profile.choices == tuple(PROFILES)
    assert main(["verify", "--profile", "nope"]) == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def _record_pool_sizes(monkeypatch) -> list[int]:
    """Stand in for ProcessPoolExecutor and the units: record each pool's
    max_workers, start no process and run no oracle."""
    asked: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle, "_run_unit", lambda spec: (True, {}, 0.0))
    return asked


def test_threads_clamped_to_cpu_count(monkeypatch):
    # without an affinity mask, verify_all asks for at most os.cpu_count() workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    asked = _record_pool_sizes(monkeypatch)
    assert verify_all("smoke", threads=1_000_000).ok
    assert verify_all("smoke", threads=2).ok
    assert verify_all("smoke", threads=1).ok  # serial: no pool at all
    assert asked == [3, 2]
    # the parser keeps only its positivity check
    assert build_parser().parse_args(["verify", "--threads", "1000000"]).threads == 1_000_000


def test_threads_clamped_to_the_affinity_mask(monkeypatch):
    # a process pinned to two CPUs of a large host gets at most two workers,
    # through the library call and through the command line alike
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    asked = _record_pool_sizes(monkeypatch)
    assert verify_all("deep", threads=64).ok
    assert main(["verify", "--threads", "64", "--format", "json"]) == 0
    assert asked == [2, 2]


@pytest.mark.parametrize("argv", [
    ["count", "ssl", "--out", "{tmp}/missing/x"],
    ["csl", "1", "1", "0", "0", "0", "0", "0", "0", "--out", "{tmp}"],
])
def test_unwritable_out_is_one_error_line_with_exit_two(argv, tmp_path, capsys):
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stdout_closed_by_its_reader_exits_zero_quietly():
    # about 1.5 MB of output, far more than a pipe buffers, so the command
    # is still writing when the reader goes away, as with `| head -1`
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "a4csl.cli", "count", "ssl", "--max", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"scale  count\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("fmt, first", [("text", b"-1 -3 2 0 0 0 0 0\n"), ("json", b"{\n")])
def test_streamed_shell_closed_by_its_reader_exits_zero_quietly(fmt, first):
    # trace norm 12 writes about 0.36 MB as text, and the shell is written
    # as it is formatted, so the reader goes away mid-stream
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "a4csl.cli", "enumerate-icosians", "--trace-norm", "12",
         "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_streamed_shell_file_matches_stdout(fmt, tmp_path, capsys):
    argv = ["enumerate-icosians", "--trace-norm", "5", "--primitive", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "shell")]) == 0
    assert (tmp_path / "shell").read_text(encoding="utf-8") == printed
    assert printed.endswith("\n") and not printed.endswith("\n\n")
