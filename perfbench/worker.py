"""Run one workload in a fresh interpreter; print the result as one JSON line.

Started by run.py as
`python -I worker.py WORKLOAD SEED SECONDS TRACE SPANS_FILE`.  Importing
a4csl and warming norm_one_units() is set-up, timed apart from the work.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAL_EVERY_S = 1.0

sys.path.insert(0, str(HERE))
from calibrate import speed_factor  # noqa: E402


@dataclass
class Pass:
    """One pass over the work list: each item's record, and each item's
    latency both raw and scaled to reference speed."""

    records: list[object]
    raw: list[float]
    latencies: list[float]

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def speed(self) -> float:
        return self.wall / sum(self.raw)


def run_pass(items, tracer=None) -> Pass:
    """Run every item once, calibrating the machine's speed before the
    pass, after it and after every CAL_EVERY_S of work; each latency is
    scaled by the mean of the calibrations either side of it.  An
    exception becomes the item's record, as a failure."""
    raw, records, marks = [], [], [(0, speed_factor())]
    since = 0.0
    for seq, item in enumerate(items):
        t = perf_counter()
        try:
            rec = item.run() if tracer is None else tracer.root(item.run, seq)
        except Exception:  # counted as a failed check, reported on stderr
            rec = Failure(traceback.format_exc())
        raw.append(perf_counter() - t)
        records.append(rec)
        since += raw[-1]
        if since >= CAL_EVERY_S or seq == len(items) - 1:
            marks.append((seq + 1, speed_factor()))
            since = 0.0
    latencies = []
    for (i0, f0), (i1, f1) in zip(marks, marks[1:]):
        latencies += [x * (f0 + f1) / 2 for x in raw[i0:i1]]
    return Pass(records, raw, latencies)


class Failure(str):
    """A record standing for an item that raised."""


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)

    def records(self, items, records, reference) -> None:
        """Check one pass: each record against the closed forms, and
        against the first pass's record for the same item."""
        for item, rec, ref in zip(items, records, reference):
            if isinstance(rec, Failure):
                self.add(False, f"{item.label} raised\n{rec}")
                continue
            for i, ok in enumerate(item.check(rec)):
                self.add(ok, f"{item.label} check {i}: {rec!r}")
            if rec is not ref:
                self.add(rec == ref, f"{item.label} differs between passes")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    at least ten samples beyond it; with fewer than 100 samples there is no
    such percentile at or above p90, and the tail is the largest sample."""
    s = sorted(values)
    n = len(s)
    k = n - 11 if n >= 100 else n - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def item_latencies(passes: list[Pass]) -> list[float]:
    """Each item's latency as its median over passes.  Other tenants'
    load slows a varying share of the calls in a pass (from 1% to 30% of
    them, by 30% or more, on identical work), so a single call's time is
    not the program's; the median over passes is."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spans_file = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import a4csl

    if Path(a4csl.__file__).resolve().parent != SRC / "a4csl":
        print(f"a4csl imported from {a4csl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    a4csl.norm_one_units()
    setup_raw = perf_counter() - t0
    setup_s = setup_raw * speed_factor()

    import tracer as tracing
    from workloads import SOC_ROTATIONS, WORKLOADS

    workload = WORKLOADS[name](seed)
    items = workload.items
    checks = Checks()
    out: dict = {"setup_s": setup_s, "setup_raw_s": setup_raw, "items": len(items)}

    if not trace:
        passes: list[Pass] = []
        start = perf_counter()
        while True:
            p = run_pass(items)
            passes.append(p)
            checks.records(items, p.records, passes[0].records)
            if perf_counter() - start + sum(p.raw) > seconds:
                break
        items_s = item_latencies(passes)
        item_tail, pct, beyond = tail(items_s)
        calls_s = [x for p in passes for x in p.latencies]
        call_tail, call_pct, call_beyond = tail(calls_s)
        out.update(
            wall_s=sum(items_s),
            query_p50_ms=1000 * statistics.median(items_s),
            query_tail_ms=1000 * item_tail,
            tail_percentile=pct,
            tail_beyond=beyond,
            call_p50_ms=1000 * statistics.median(calls_s),
            call_tail_ms=1000 * call_tail,
            call_tail_percentile=call_pct,
            call_tail_beyond=call_beyond,
            pass_wall_s=[p.wall for p in passes],
            pass_raw_wall_s=[sum(p.raw) for p in passes],
            pass_latencies_s=[p.latencies for p in passes],
        )
        first = passes[0].records
    else:
        tracer = tracing.Tracer()
        tracer.recording = True
        traced: list[Pass] = []
        untraced: list[Pass] = []
        layers = []
        start = perf_counter()
        while True:
            before = tracer.snapshot()
            tracer.install()
            try:
                p = run_pass(items, tracer)
            finally:
                tracer.uninstall()
            tracer.recording = False  # spans of the first traced pass only
            delta = tracing.diff(tracer.snapshot(), before)
            delta["self_time"] = {k: v * p.speed for k, v in delta["self_time"].items()}
            layers.append(tracing.layer_metrics(delta))
            traced.append(p)
            checks.records(items, p.records, traced[0].records)
            untraced.append(run_pass(items))
            checks.records(items, untraced[-1].records, traced[0].records)
            if perf_counter() - start + sum(p.raw) + sum(untraced[-1].raw) > seconds:
                break
        # counts from the first traced pass, which starts from the same
        # cold caches on every run; times are medians over traced passes
        metrics = dict(layers[0])
        for key in metrics:
            if key.endswith(".self_s"):
                metrics[key] = statistics.median(m[key] for m in layers)
        for ok, what in tracing.self_check(name, metrics):
            checks.add(ok, f"tracer: {what}")
        forms = metrics["lattice.forms_equivalent.calls"]
        rotations = metrics["quaternion.rotation_matrix.calls"]
        useful = SOC_ROTATIONS if name == "soc-shells" else 0
        traced_wall = statistics.median(p.wall for p in traced)
        untraced_wall = statistics.median(p.wall for p in untraced)
        metrics["oracle.ssl.accept_ratio"] = (
            metrics["lattice.forms_equivalent.accepts"] / forms if forms else 0.0)
        metrics["oracle.soc.useful_ratio"] = useful / rotations if rotations else 0.0
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        out.update(
            passes=len(traced),
            untraced_wall_s=untraced_wall,
            traced_wall_s=traced_wall,
            soc_rotations=useful,
            layers=metrics,
            spans=len(tracer.spans),
        )
        with open(spans_file, "w") as fh:
            json.dump({"names": tracer.names,
                       "fields": ["id", "name", "start", "end", "parent", "run_id"],
                       "spans": tracer.spans}, fh)
        first = traced[0].records

    for ok in workload.final_check(first):
        checks.add(ok, f"{name}: frozen reference digest")
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failed=checks.failed,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
