"""Benchmark of the a4csl package: four workloads against the public API.

    python3 perfbench/run.py --workload soc-shells --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root or anywhere else; the package is imported from
the `src/` directory next to this one, never from site-packages.  Each
workload runs in a fresh interpreter (worker.py), one call at a time.  The
last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  The exit code is 1 when a check fails,
2 when the package cannot be found.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("soc-shells", "ssl-hnf", "csl-queries", "series-identities")
END_TO_END = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
              "query_tail_ms": "ms", "peak_rss_mb": "MB"}
# fresh interpreters timed for setup_s besides the worker's own import
SETUP_SAMPLES = 6
# a run, set-up included, must end within three minutes
RUN_LIMIT_S = 170

PYTHON = [sys.executable, "-I"] + ["-O"] * sys.flags.optimize
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import a4csl\n"
    "a4csl.norm_one_units()\n"
    "raw = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibrate import speed_factor\n"
    "print(raw, raw * speed_factor())\n"
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def setup_sample(timeout: float) -> tuple[float, float]:
    """(raw, reference-speed) seconds to import a4csl and warm it."""
    proc = subprocess.run([*PYTHON, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=timeout, check=True)
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def run_workload(name: str, args: argparse.Namespace) -> dict | None:
    """Measure one workload; None if its worker could not finish."""
    started = time.monotonic()
    samples = []
    if not args.trace:
        samples = [setup_sample(RUN_LIMIT_S) for _ in range(SETUP_SAMPLES)]
    spans = OUT / f"{name}-seed{args.seed}.spans.json"
    try:
        proc = subprocess.run(
            [*PYTHON, str(HERE / "worker.py"), name, str(args.seed), str(args.seconds),
             str(args.trace), str(spans)],
            stdout=subprocess.PIPE, text=True,
            timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print(f"{name}: worker did not finish in time", file=sys.stderr)
        return None
    if proc.returncode:
        print(f"{name}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_raw_samples"] = [r for r, _ in samples] + [res["setup_raw_s"]]
    res["setup_samples"] = [s for _, s in samples] + [res["setup_s"]]
    if args.trace:
        layers = res["layers"]
        res["metrics"] = {k: (v, layer_unit(k)) for k, v in layers.items()}
        res["notes"] = {
            "trace.overhead_ratio": f"traced {res['traced_wall_s']:.3f} s vs untraced "
                                    f"{res['untraced_wall_s']:.3f} s per pass, "
                                    f"{res['passes']} pairs; {res['spans']} spans in {spans.name}",
            "oracle.ssl.accept_ratio": f"{layers['lattice.forms_equivalent.accepts']} "
                                       f"forms_equivalent accepts / "
                                       f"{layers['lattice.forms_equivalent.calls']} calls",
            "oracle.soc.useful_ratio": f"{res['soc_rotations']} rotations (120 x count) / "
                                       f"{layers['quaternion.rotation_matrix.calls']} "
                                       "rotation_matrix calls",
        }
    else:
        res["setup_s"] = statistics.median(res["setup_samples"])
        calls = res["items"] * len(res["pass_wall_s"])
        res["metrics"] = {k: (res[k], u) for k, u in END_TO_END.items()}
        res["notes"] = {
            "setup_s": f"median of {len(res['setup_samples'])} fresh imports",
            "wall_s": f"sum over {res['items']} calls of each one's median "
                      f"over {len(res['pass_wall_s'])} passes",
            "query_p50_ms": f"median of {res['items']} calls, each its median over passes; "
                            f"{res['call_p50_ms']:.6g} ms over all {calls} calls",
            "query_tail_ms": f"p{res['tail_percentile']:.2f} of {res['items']} calls, "
                             f"{res['tail_beyond']} beyond; over all {calls} calls "
                             f"p{res['call_tail_percentile']:.2f} is "
                             f"{res['call_tail_ms']:.6g} ms, {res['call_tail_beyond']} beyond",
        }
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "a4csl" / "__init__.py").is_file():
        print(f"error: no a4csl package under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    meta = metadata()
    print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        res = run_workload(name, args)
        if res is None:
            return 1
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in res["metrics"].items():
            note = res["notes"].get(key)
            print(f"{name} {key}: {value:.6g} {unit}" + (f"  ({note})" if note else ""))
            metrics[prefix + key] = {"value": value, "unit": unit}
        print(f"{name} fail_ratio: {res['failed']}/{res['attempted']}")
        out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"meta": meta, "workload": name, "seed": args.seed,
                                   "seconds": args.seconds, **res}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
