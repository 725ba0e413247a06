"""Per-layer tracing of the a4csl package from outside the package.

`Tracer.install()` wraps the public functions of each layer module, and the
public methods of the classes those modules define, and rebinds every name
in every loaded `a4csl` module that refers to the original.  So
`oracle.forms_equivalent`, `icosian.short_vectors`, `a4.lattice_intersect`
and `counting.factor_int` are all traced, as are calls a module makes to
its own functions.  Each traced call is a span (name, start, end, parent,
run id); a layer's self time is its spans' time minus their child spans.

The value types GoldenInt, GoldenRat and Quat get no spans, so exact
arithmetic shows up in the self time of the layer that does it.  Three of
their operators are counted instead: `GoldenRat.make`, `GoldenInt.__mul__`
and `Quat.__mul__`.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "a4csl"
LAYERS = ("golden", "quaternion", "icosian", "lattice", "a4", "counting", "oracle")

# value types whose methods are arithmetic: counted where named, never spanned
VALUE_TYPES = {"golden": ("GoldenInt", "GoldenRat"), "quaternion": ("Quat",)}

# per-layer call counters -> the boundary they count
CALLS = {
    "golden.rat_make.calls": "golden.GoldenRat.make",
    "golden.int_mul.calls": "golden.GoldenInt.__mul__",
    "golden.gi_gcd.calls": "golden.gi_gcd",
    "golden.factor_int.calls": "golden.factor_int",
    "quaternion.rotation_matrix.calls": "quaternion.rotation_matrix",
    "quaternion.quat_mul.calls": "quaternion.Quat.__mul__",
    "icosian.from_quat.calls": "icosian.Icosian.from_quat",
    "icosian.extension.calls": "icosian.Icosian.extension",
    "lattice.short_vectors.calls": "lattice.short_vectors",
    "lattice.lll_reduce_gram.calls": "lattice.lll_reduce_gram",
    "lattice.forms_equivalent.calls": "lattice.forms_equivalent",
    "lattice.lattice_intersect.calls": "lattice.lattice_intersect",
    "lattice.hnf.calls": "lattice.hnf",
    "a4.csl_of.calls": "a4.csl_of",
    "a4.l_coords_rational.calls": "a4.l_coords_rational",
    "counting.dirichlet_convolve.calls": "counting.dirichlet_convolve",
}
COUNT_ONLY = ("golden.GoldenRat.make", "golden.GoldenInt.__mul__", "quaternion.Quat.__mul__")
# counters of results rather than calls
SHELL_VECTORS = "icosian.enumerate_by_trace_norm"  # icosians returned
YIELDED = "lattice.short_vectors"                   # vectors yielded
ACCEPTS = "lattice.forms_equivalent"                # calls returning True

ROOT = "bench.item"

_GOLDEN_QUAT = ("golden.rat_make.calls", "golden.int_mul.calls",
                "quaternion.rotation_matrix.calls", "quaternion.quat_mul.calls")
_ICOSIAN = ("icosian.from_quat.calls", "icosian.extension.calls", "icosian.shell_vectors")
_LLL_FORMS = ("lattice.lll_reduce_gram.calls", "lattice.forms_equivalent.calls")
_SHORT = ("lattice.short_vectors.calls", "lattice.short_vectors.yielded")
_HNF_MEET = ("lattice.lattice_intersect.calls", "lattice.hnf.calls")
_A4 = ("a4.csl_of.calls", "a4.l_coords_rational.calls")
_CONVOLVE = ("counting.dirichlet_convolve.calls",)

#: Which counters each workload must drive (>= 1 in a traced pass) and which
#: it must leave at zero.  This is the written prediction of which layer
#: each workload exercises; a change that moves work between layers on
#: purpose updates it in a change of its own.
PREDICTED: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "soc-shells": (
        _GOLDEN_QUAT + _SHORT + ("golden.gi_gcd.calls", "golden.factor_int.calls",
                                 "icosian.shell_vectors"),
        _LLL_FORMS + _HNF_MEET + _A4 + _CONVOLVE + ("icosian.extension.calls",),
    ),
    "ssl-hnf": (
        _LLL_FORMS + _SHORT + ("lattice.forms_equivalent.accepts",),
        _GOLDEN_QUAT + _ICOSIAN + _HNF_MEET + _A4 + _CONVOLVE
        + ("golden.gi_gcd.calls", "golden.factor_int.calls"),
    ),
    "csl-queries": (
        _GOLDEN_QUAT + _HNF_MEET + _A4
        + ("golden.gi_gcd.calls", "golden.factor_int.calls",
           "icosian.from_quat.calls", "icosian.extension.calls"),
        _LLL_FORMS + _SHORT + _CONVOLVE + ("icosian.shell_vectors",),
    ),
    "series-identities": (
        ("golden.factor_int.calls",) + _CONVOLVE,
        _GOLDEN_QUAT + _ICOSIAN + _LLL_FORMS + _SHORT + _HNF_MEET + _A4
        + ("golden.gi_gcd.calls",),
    ),
}


class TracerError(RuntimeError):
    """A named boundary is missing from the package."""


class Tracer:
    """Counters and spans for one process.  install() patches the package,
    uninstall() restores it exactly."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.calls: list[int] = [0]
        self.results: list[int] = [0]     # shell vectors, yields or accepts
        self.self_time: list[float] = [0.0]
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.recording = False
        self._stack: list[list] = []      # [span id, name id, start, child time]
        self._next_span = 0
        self._run_id = -1
        self._plan: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> None:
        self._next_span += 1
        self._stack.append([self._next_span, nid, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.self_time[nid] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if self.recording:
            self.spans.append((sid, nid, start, end, parent, self._run_id))

    def root(self, fn, run_id: int):
        """Call fn() as the root span of request `run_id`."""
        self._run_id = run_id
        self.calls[0] += 1
        self._enter(0)
        try:
            return fn()
        finally:
            self._exit()

    # -- wrappers ------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.results.append(0)
        self.self_time.append(0.0)
        return nid

    def _counted(self, fn, name: str):
        nid, calls = self._id(name), self.calls

        def counted(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, fn, name: str):
        nid, calls, results = self._id(name), self.calls, self.results
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # yields is not charged to the generator
            def spanned_gen(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    results[nid] += 1
                    yield value

            return spanned_gen

        def spanned(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if name == SHELL_VECTORS:
                results[nid] += len(out)
            elif name == ACCEPTS and out is True:
                results[nid] += 1
            return out

        return spanned

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary and rebind it wherever it is named.
        The wrappers are built on the first call and reused after."""
        if not self._plan:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        plan: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _is_function(obj, mod.__name__):
                    wrappers[id(obj)] = self._spanned(obj, f"{layer}.{name}")
            for cname, cls in vars(mod).items():
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                value_type = cname in VALUE_TYPES.get(layer, ())
                for attr, raw in vars(cls).items():
                    key = f"{layer}.{cname}.{attr}"
                    if value_type and key in COUNT_ONLY:
                        wrapped = _rewrap(raw, lambda fn: self._counted(fn, key))
                    elif not value_type and not attr.startswith("_"):
                        wrapped = _rewrap(raw, lambda fn: self._spanned(fn, key))
                    else:
                        continue
                    if wrapped is None:
                        continue
                    # aliases such as `__rmul__ = __mul__` share the wrapper
                    plan += [(cls, alias, raw, wrapped)
                             for alias, other in vars(cls).items() if other is raw]
        for name, mod in sorted(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                plan += [(mod, attr, obj, wrappers[id(obj)])
                         for attr, obj in vars(mod).items() if id(obj) in wrappers]
        missing = [b for b in list(CALLS.values()) + [SHELL_VECTORS] if b not in self.names]
        if missing:
            raise TracerError(f"named boundaries not found: {missing}")
        return plan

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the counters and per-boundary self times so far."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "results": dict(zip(self.names, self.results)),
            "self_time": dict(zip(self.names, self.self_time)),
        }


def _rewrap(raw, make):
    """Wrap a class attribute, keeping it a staticmethod or classmethod."""
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(make(raw.__func__))
    return make(raw) if inspect.isfunction(raw) else None


def _is_function(obj: object, module: str) -> bool:
    # plain functions, and lru_cache wrappers such as norm_one_units
    if inspect.isfunction(obj):
        return obj.__module__ == module
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module


def diff(after: dict, before: dict) -> dict:
    """Counters and self times accumulated between two snapshots."""
    return {kind: {k: v - before[kind].get(k, 0) for k, v in after[kind].items()}
            for kind in after}


def layer_metrics(delta: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls, results, self_time = delta["calls"], delta["results"], delta["self_time"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_time.items()
                                     if n.split(".", 1)[0] == layer)
    for metric, boundary in CALLS.items():
        out[metric] = calls[boundary]
    out["icosian.shell_vectors"] = results[SHELL_VECTORS]
    out["lattice.short_vectors.yielded"] = results[YIELDED]
    out["lattice.forms_equivalent.accepts"] = results[ACCEPTS]
    return out


def self_check(workload: str, metrics: dict[str, float]) -> list[tuple[bool, str]]:
    """Compare one traced pass's counters with PREDICTED.  The first check
    asks that every counter is predicted to move on some workload, so no
    named boundary can drop out of the trace unnoticed."""
    used = {m for uses, _ in PREDICTED.values() for m in uses}
    counters = set(CALLS) | {"icosian.shell_vectors", "lattice.short_vectors.yielded",
                             "lattice.forms_equivalent.accepts"}
    out = [(counters <= used, f"counters no workload drives: {sorted(counters - used)}")]
    uses, zeros = PREDICTED[workload]
    out += [(metrics[m] >= 1, f"{m} predicted to move, read 0") for m in uses]
    out += [(metrics[m] == 0, f"{m} predicted 0, read {metrics[m]}") for m in zeros]
    return out
