"""Span tracing of the alflb layers from outside the package.

``install`` wraps every public function of the layer modules, the
``__post_init__`` validation of their dataclasses and the sampling and
density methods of the score distributions.  Callers bind functions with
``from .x import y``, so a wrapper replaces the function at every module of
the package that binds it, not only where it is defined.

Spans are kept in memory as flat arrays (name, parent, start, end) and turned
into per-layer metrics after a pass: the self time of a span is its duration
minus the durations of its child spans.  Counting hooks run after the hooked
call returns and are recorded as ``trace.hook`` spans, so their cost is
subtracted from the layer that called the hooked function.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "router", "balancer", "deterministic", "distributions", "stochastic", "cli")
_DENSITY_METHODS = ("pdf", "cdf")
_SAMPLE_METHODS = ("sample", "sample_matrix")
_LOOPS = ("deterministic.simulate_fixed_scores", "deterministic.check_balance_convergence")
HOOK = "trace.hook"


class Tracer:
    """In-memory span log for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = [HOOK]
        self._ids = {HOOK: 0}
        self.logs: list[dict] = []
        self._reset()

    def _reset(self):
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._loop = None  # (loop span id, loads, assigned experts) of the last route

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _record(self, nid: int, parent: int, t0: float, t1: float):
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)

    def wrap(self, span: str, fn, hook=None):
        nid = self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if hook is not None:
                h0 = perf_counter()
                hook(self, sid, args, result)
                self._record(0, self.stack[-1], h0, perf_counter())
            return result

        traced.__wrapped_span__ = fn
        return traced

    def take(self) -> None:
        """Close the current pass's span log and start a new one."""
        log = {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "counts": dict(self.counts),
        }
        self.logs.append(log)
        self._reset()

    def write(self, path):
        """Write every pass's spans as gzipped TSV rows."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            for p, log in enumerate(self.logs):
                for sid, (nid, par, t0, t1) in enumerate(
                    zip(log["name"], log["parent"], log["start"], log["end"])
                ):
                    fh.write(f"{p}\t{sid}\t{par}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\n")


# ---------------------------------------------------------------------------
# Counting hooks
# ---------------------------------------------------------------------------

def _route_hook(tr: Tracer, sid: int, args, outcome):
    loop = tr.parent[sid]
    loads = outcome.loads.counts
    experts = outcome.assigned_experts
    if loop >= 0 and tr.names[tr.name[loop]] in _LOOPS:
        tr.counts["deterministic.iterations"] += 1
    if tr._loop is not None and tr._loop[0] == loop:
        _, prev_loads, prev_experts = tr._loop
        if not (np.array_equal(loads, prev_loads) and np.array_equal(experts, prev_experts)):
            tr.counts["router.changed"] += 1
    tr._loop = (loop, loads, experts)


def _switch_hook(tr: Tracer, sid, args, records):
    tr.counts["deterministic.switch_records"] += len(records)


def _regret_hook(tr: Tracer, sid, args, acct):
    tr.counts["stochastic.regret_rounds"] += acct.rounds


def _cli_run_hook(tr: Tracer, sid, args, code):
    tr.counts[f"cli.{args[0].kind}_s"] += tr.end[sid] - tr.start[sid]


def _outermost(methods: tuple[str, ...], key: str):
    """Count result sizes only at the outermost span of a method family: a
    mixture's pdf calls its components' pdfs, whose points are already
    counted by the mixture's span."""

    def hook(tr: Tracer, sid, args, result):
        parent = tr.parent[sid]
        if parent < 0 or tr.names[tr.name[parent]].rsplit(".", 1)[-1] not in methods:
            tr.counts[key] += int(np.size(result))

    return hook


_density_hook = _outermost(_DENSITY_METHODS, "distributions.density_points")
_sample_hook = _outermost(_SAMPLE_METHODS, "distributions.draws")

_FUNCTION_HOOKS = {
    "router.route_topk": _route_hook,
    "deterministic.switching_benefit": _switch_hook,
    "stochastic.regret_experiment": _regret_hook,
    "cli.run": _cli_run_hook,
}


def _counting_quadrature(tr: Tracer, fn):
    """piecewise_gauss_vec is counted, not timed: its integrand is the body
    of selection_moments / edge_weights_quadrature, whose self time it is."""

    @functools.wraps(fn)
    def counted(f, *args, **kwargs):
        tr.counts["stochastic.quad_calls"] += 1

        def integrand(v):
            tr.counts["stochastic.quad_nodes"] += int(np.size(v))
            return f(v)

        return fn(integrand, *args, **kwargs)

    counted.__wrapped_span__ = fn
    return counted


def install(tr: Tracer, package: str = "alflb") -> None:
    """Wrap the layer functions and methods of an imported ``package``."""
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{layer}.{attr}"
                if span == "stochastic.piecewise_gauss_vec":
                    replace[id(obj)] = _counting_quadrature(tr, obj)
                else:
                    replace[id(obj)] = tr.wrap(span, obj, _FUNCTION_HOOKS.get(span))
            elif inspect.isclass(obj):
                _wrap_methods(tr, layer, obj)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None and wrapper.__wrapped_span__ is obj:
                setattr(mod, attr, wrapper)


def _wrap_methods(tr: Tracer, layer: str, cls) -> None:
    own = vars(cls)
    if "__post_init__" in own:
        cls.__post_init__ = tr.wrap(f"{layer}.{cls.__name__}.__post_init__", own["__post_init__"])
    for m in _DENSITY_METHODS:
        if m in own:
            setattr(cls, m, tr.wrap(f"{layer}.{cls.__name__}.{m}", own[m], _density_hook))
    for m in _SAMPLE_METHODS:
        if m in own:
            setattr(cls, m, tr.wrap(f"{layer}.{cls.__name__}.{m}", own[m], _sample_hook))


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

_SELF = {
    "router.route_s": ("router.route_topk",),
    "balancer.update_s": ("balancer.dual_update",),
    "deterministic.loop_self_s": _LOOPS,
    "deterministic.lagrangian_s": ("deterministic.lagrangian",),
    "deterministic.switching_s": (
        "deterministic.switching_benefit", "deterministic.check_switch_direction",
    ),
    "deterministic.csv_s": ("deterministic.trace_to_csv",),
    "deterministic.ubar_s": ("deterministic.ubar",),
    "stochastic.selection_moments_s": ("stochastic.selection_moments",),
    "stochastic.edge_weights_s": ("stochastic.edge_weights_quadrature",),
    "stochastic.mc_self_s": ("stochastic.check_gradient_moments", "stochastic.pi_monte_carlo"),
    "stochastic.regret_self_s": ("stochastic.regret_experiment",),
}
# Whole phases, children included.
_INCLUSIVE = {
    "stochastic.grid_s": "stochastic.strong_convexity_estimate",
    "stochastic.minimizer_s": "stochastic.expected_loss_minimizer",
    "cli.load_config_s": "cli.load_config",
}
_COUNTS = (
    "deterministic.iterations", "deterministic.switch_records", "distributions.draws",
    "distributions.density_points", "stochastic.quad_calls", "stochastic.quad_nodes",
    "stochastic.regret_rounds",
)


def layer_metrics(tr: Tracer, log: dict) -> dict[str, float]:
    """Per-layer counts and self times of one pass's span log."""
    dur = log["end"] - log["start"]
    parent = log["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    k = len(tr.names)
    self_by = np.bincount(log["name"], weights=dur - child, minlength=k)
    incl_by = np.bincount(log["name"], weights=dur, minlength=k)
    calls_by = np.bincount(log["name"], minlength=k)
    names = tr.names

    def total(vec, keep):
        return sum(vec[i].item() for i, nm in enumerate(names) if keep(nm))

    def method(nm: str) -> str:
        return nm.rsplit(".", 1)[-1]

    def core_validation(nm: str) -> bool:
        return nm.startswith("core.") and nm.endswith(".__post_init__")

    route = tr.name_id("router.route_topk")
    calls = int(calls_by[route])
    counts = log["counts"]
    out = {
        "core.containers": total(calls_by, core_validation),
        "core.validate_s": total(self_by, core_validation),
        "router.route_calls": calls,
        "router.route_us": 1e6 * float(incl_by[route]) / calls if calls else 0.0,
        "router.changed_ratio": counts.get("router.changed", 0) / calls if calls else 0.0,
        "balancer.update_calls": total(calls_by, lambda nm: nm == "balancer.dual_update"),
        "distributions.sample_s": total(self_by, lambda nm: method(nm) in _SAMPLE_METHODS),
        "distributions.density_s": total(self_by, lambda nm: method(nm) in _DENSITY_METHODS),
    }
    for metric, spans in _SELF.items():
        out[metric] = total(self_by, lambda nm: nm in spans)
    for metric, span in _INCLUSIVE.items():
        out[metric] = total(incl_by, lambda nm: nm == span)
    for metric in _COUNTS:
        out[metric] = counts.get(metric, 0)
    for kind in sys.modules["alflb.cli"].KINDS:
        out[f"cli.{kind}_s"] = counts.get(f"cli.{kind}_s", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(self_by, lambda nm: nm.startswith(layer + "."))
    return out
