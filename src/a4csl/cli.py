"""Command line front end.

Subcommands expose the counting functions, the Dirichlet-series identity
checks, per-icosian similar-sublattice and coincidence computations, shell
enumeration, and the bundled oracle verification.  All arithmetic output
is exact; matrices are printed entrywise over Z[tau].

Exit codes: 0 success, 1 verification mismatch or failed internal
consistency check, 2 usage error (including an --out file that cannot be
written), 3 domain error (zero/non-primitive/non-admissible input).  A
stdout pipe closed by its reader ends the command with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from itertools import chain
from math import isqrt
from typing import Iterable, Sequence

from .a4 import csl_of, denominator_of, ssl_of, sublattice_gram
from .counting import (
    check_soc_identity,
    check_ssl_identity,
    f_soc_values,
    f_ssl_values,
)
from .golden import _MR_BOUND
from .icosian import (
    Icosian,
    NotAdmissibleError,
    NotPrimitiveError,
    enumerate_by_trace_norm,
    is_primitive_zcoords,
)
from .oracle import verify_all

_PROFILES = {
    # (ssl max, dual ssl max, soc max, csl samples, series limit)
    "smoke": (5, 5, 2, 10, 60),
    "default": (11, 9, 8, 100, 200),
    "deep": (12, 10, 10, 1000, 400),
}


# The largest accepted sizes; a larger one is a usage error.  Each cap runs
# within about a minute (measured on 2 shared vCPUs, Python 3.11): `count
# --max` 10^6 in 2.4 s and 197 MB, `series --limit` 10^6 in up to 4.7 s and
# 180 MB (soc; ssl 3.0 s and 82 MB), `enumerate-icosians --trace-norm` 24
# in 1.5 s as text and 2.3 s as JSON, 36 MB either way.
_MAX_COUNT = 1_000_000
_MAX_SERIES_LIMIT = 1_000_000
_MAX_TRACE_NORM = 24
# `csl` factors s^2 for the scale s = sqrt(nr(q) nr(q)') of its icosian,
# and primality is decided only below golden._MR_BOUND.  Below the cap the
# slowest scale is a product of two primes near 1.8 * 10^12, which rho
# splits in about 10^6 steps, once per icosian:
# `csl 1677980717078 708113534483 0 0 0 0 0 0` takes 1.4 s and 17 MB; the
# largest prime scale takes 0.3 s.
_MAX_CSL_SCALE = _MR_BOUND - 1


def _positive_int(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _size_at_most(cap: int):
    """An argparse type: a positive integer no larger than cap."""
    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the limit {cap}")
        return value
    return parse


def _thread_count(text: str) -> int:
    """A positive worker count, clamped to the CPUs this process may run on
    (its affinity mask where the platform has one)."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(_positive_int(text), usable or 1)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write the text, or its chunks in turn, and end it with a newline: a
    long output is written as it is formatted, never held as one string."""
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        fh.writelines((text,) if isinstance(text, str) else text)
        fh.write("\n")


def _parse_zcoords(tokens: Sequence[str], parser: argparse.ArgumentParser) -> Icosian:
    flat = " ".join(tokens).replace(",", " ").split()
    if len(flat) != 8:
        parser.error("expected 8 integer coordinates, got %d" % len(flat))
    try:
        zc = tuple(int(t) for t in flat)
    except ValueError:
        parser.error("coordinates must be integers")
    return Icosian.from_zcoords(zc)


def _matrix_text(rows: Sequence[Sequence[object]], indent: str = "  ") -> str:
    cells = [[str(x) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(indent + " ".join(c.rjust(width) for c in row) for row in cells)


def _cmd_count(args, parser) -> int:
    values = (f_ssl_values if args.kind == "ssl" else f_soc_values)(args.max)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "max": args.max,
            "values": [{"n": i, "count": c} for i, c in enumerate(values[1:], 1)],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        label = "scale" if args.kind == "ssl" else "index"
        lines = [f"{label:>5s}  count"]
        lines += [f"{i:5d}  {c}" for i, c in enumerate(values[1:], 1)]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_series(args, parser) -> int:
    check = check_ssl_identity if args.kind == "ssl" else check_soc_identity
    ok = check(args.limit)
    name = (
        "similar-sublattice Dirichlet identity"
        if args.kind == "ssl"
        else "coincidence Dirichlet identity"
    )
    if args.format == "json":
        payload = {"kind": args.kind, "limit": args.limit, "ok": ok}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(f"{name}, checked to {args.limit}: {'ok' if ok else 'MISMATCH'}", args.out)
    return 0 if ok else 1


def _cmd_csl(args, parser) -> int:
    q = _parse_zcoords(args.coords, parser)
    scale = isqrt(q.norm_quadruple())
    if scale > _MAX_CSL_SCALE:
        parser.error(f"icosian scale {scale} is above the limit {_MAX_CSL_SCALE}")
    result = csl_of(q)
    den = denominator_of(q)
    ext = result.extension
    if args.format == "json":
        payload = {
            "input": list(q.zcoords()),
            "reduced_norm": str(q.nr()),
            "sigma": result.sigma,
            "denominator": den if isinstance(den, int) else str(den),
            "alpha": str(ext.alpha),
            "extended": list(ext.extended.zcoords()),
            "rotation": [[str(x) for x in row] for row in result.rotation.entries],
            "basis": [list(row) for row in result.lattice.basis],
            "index": result.lattice.index,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            "input zcoords: " + " ".join(str(c) for c in q.zcoords()),
            f"reduced norm: {q.nr()}",
            "extended zcoords: " + " ".join(str(c) for c in ext.extended.zcoords()),
            f"extension multiplier alpha: {ext.alpha}",
            f"coincidence index sigma: {result.sigma}",
            f"rotation denominator: {den}",
            "rotation matrix:",
            _matrix_text(result.rotation.entries),
            "coincidence site lattice (HNF rows):",
            _matrix_text(result.lattice.basis),
            f"lattice index: {result.lattice.index}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_ssl(args, parser) -> int:
    p = _parse_zcoords(args.coords, parser)
    sub = ssl_of(p)
    gram = sublattice_gram(sub)
    scale = p.norm_quadruple()
    if args.format == "json":
        payload = {
            "input": list(p.zcoords()),
            "reduced_norm": str(p.nr()),
            "norm_scale": scale,
            "basis": [list(row) for row in sub.basis],
            "index": sub.index,
            "gram": [list(row) for row in gram],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            "input zcoords: " + " ".join(str(c) for c in p.zcoords()),
            f"reduced norm: {p.nr()}",
            f"norm scale: {scale}",
            f"lattice index: {sub.index}",
            "similar sublattice (HNF rows):",
            _matrix_text(sub.basis),
            "gram matrix:",
            _matrix_text(gram),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_enumerate(args, parser) -> int:
    pairs = enumerate_by_trace_norm(args.trace_norm)
    if args.primitive:
        pairs = [v for v in pairs if is_primitive_zcoords(v)]
    shell = [w for v in pairs for w in (v, tuple(-x for x in v))]
    if args.format == "json":
        payload = {
            "trace_norm": args.trace_norm,
            "primitive_only": bool(args.primitive),
            "count": len(shell),
            "zcoords": shell,  # the encoder writes tuples as lists
        }
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    else:
        chunks = chain((" ".join(map(str, v)) + "\n" for v in shell), (f"count: {len(shell)}",))
    _emit(chunks, args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    ssl_m, dual_m, soc_n, samples, series_limit = _PROFILES[args.profile]
    report = verify_all(
        max_ssl_m=ssl_m,
        max_ssl_m_dual=dual_m,
        max_soc_n=soc_n,
        csl_samples=samples,
        seed=args.seed,
        series_limit=series_limit,
        threads=args.threads,
    )
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit("\n".join(report.summary_lines()), args.out)
    return 0 if report.ok else 1


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write the output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a4csl",
        description="Exact similar-sublattice and coincidence computations "
        "for the A4 root lattice via the icosian ring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="tabulate a counting function")
    p_count.add_argument("kind", choices=("ssl", "soc"))
    p_count.add_argument("--max", type=_size_at_most(_MAX_COUNT), default=20,
                         metavar="N")
    _add_io_flags(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_series = subs.add_parser(
        "series", help="check a Dirichlet-series identity coefficientwise"
    )
    p_series.add_argument("kind", choices=("ssl", "soc"))
    p_series.add_argument("--limit", type=_size_at_most(_MAX_SERIES_LIMIT), default=200,
                          metavar="N")
    _add_io_flags(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_csl = subs.add_parser(
        "csl", help="coincidence rotation and CSL of a primitive admissible icosian"
    )
    p_csl.add_argument("coords", nargs="+", help="8 integer coordinates")
    _add_io_flags(p_csl)
    p_csl.set_defaults(func=_cmd_csl)

    p_ssl = subs.add_parser(
        "ssl", help="similar sublattice generated by an icosian"
    )
    p_ssl.add_argument("coords", nargs="+", help="8 integer coordinates")
    _add_io_flags(p_ssl)
    p_ssl.set_defaults(func=_cmd_ssl)

    p_enum = subs.add_parser(
        "enumerate-icosians", help="list the icosian shell of a given trace norm"
    )
    p_enum.add_argument("--trace-norm", type=_size_at_most(_MAX_TRACE_NORM), required=True,
                        metavar="T")
    p_enum.add_argument("--primitive", action="store_true",
                        help="keep only primitive icosians")
    _add_io_flags(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = subs.add_parser(
        "verify", help="run the brute-force oracles against the closed forms"
    )
    p_verify.add_argument("--profile", choices=tuple(_PROFILES), default="default")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--threads", type=_thread_count, default=1,
                          help="worker processes (at most the usable CPUs)")
    _add_io_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# argparse reads -1,1,0 as an unknown option but -1 as a number: split such lists
_NEGATIVE_LIST = re.compile(r"-\d+(,-?\d+)*,?")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = [part for arg in (sys.argv[1:] if argv is None else argv)
            for part in (arg.rstrip(",").split(",") if _NEGATIVE_LIST.fullmatch(arg)
                         else (arg,))]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args, parser)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return status
    except SystemExit as exc:  # parser.error inside a command
        return int(exc.code or 0)
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # the interpreter flushes stdout at exit; give it somewhere to write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:  # --out names a file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPrimitiveError, NotAdmissibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # a failed internal consistency check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
