"""Argument validation: bad numbers are usage errors (exit 2) and are
rejected before any work, or any worker process, starts."""

import os

import pytest

from a4csl.cli import build_parser, main


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


def test_threads_clamped_to_cpu_count():
    args = build_parser().parse_args(["verify", "--threads", "1000000"])
    assert args.threads == (os.cpu_count() or 1)
    assert build_parser().parse_args(["verify", "--threads", "1"]).threads == 1
