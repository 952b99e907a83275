"""Outside-in span recorder for the traced run.

``install`` replaces the public functions of every zexlab layer with timing
wrappers, in every module namespace and module-level tuple, list or dict that
holds them by name (``lp_norm`` alone is bound in grid, kernels, adaptive,
moduli, besov, dyadic, acceptance and the package root).  Nothing under
``src/`` changes: the wrappers live only in the traced process.

Each wrapped call is a span with a name, a duration and the span that called
it.  Spans are aggregated in memory as they close: calls, inclusive time
(outermost call of a name only, so recursion is not counted twice), self time
(duration minus the time of the spans it caused), the parent -> child call
counts, and computed work counts taken from the call's arguments.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "moduli", "dyadic", "adaptive", "kernels", "besov", "acceptance")


class Recorder:
    def __init__(self):
        self.stack = []                  # open spans: [name, time of child spans]
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()           # (parent, child) -> calls
        self.work = Counter()            # computed counts

    def wrap(self, fn, name, label=None, work=None):
        """Timing wrapper; ``label(args, kwargs)`` can refine the span name and
        ``work(args, kwargs, result)`` returns computed counts to add."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = label(args, kwargs) if label else name
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self._close(span, elapsed, frame[1])
            if work:
                self.work.update(work(args, kwargs, result))
            return result

        return traced

    def _close(self, span, elapsed, child_time):
        self.calls[span] += 1
        self.self_time[span] += elapsed - child_time
        if all(frame[0] != span for frame in self.stack):
            self.inclusive[span] += elapsed
        if self.stack:
            parent = self.stack[-1]
            parent[1] += elapsed
            self.edges[(parent[0], span)] += 1

    def layer_self(self, layer: str) -> float:
        return sum((v for k, v in self.self_time.items() if k.startswith(layer + ".")), 0.0)

    def summary(self) -> dict:
        """Per-span table and call edges, for the run's trace line."""
        return {
            "spans": {k: {"calls": self.calls[k], "inclusive_s": self.inclusive[k],
                          "self_s": self.self_time[k]} for k in sorted(self.calls)},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
        }


# ---------------------------------------------------------------------------
# argument helpers and computed work counts


def _getter(fn, name):
    """Fast accessor for argument ``name`` of calls to ``fn``."""
    position = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


def _ball_count(dims: int, rest: float, r: int) -> int:
    """Lattice points k in [-r, r]^dims with |k|^2 <= rest."""
    if rest < 0:
        return 0
    if dims == 1:
        return 2 * min(r, math.isqrt(int(rest))) + 1
    return sum(_ball_count(dims - 1, rest - k * k, r) for k in range(-r, r + 1))


def _half_ball_shifts(d: int, rmax: float, cap: int) -> int:
    """Lattice shifts k != 0 with leading nonzero component positive,
    |k| <= rmax and every |k_i| <= cap: the shift set of the exact supremum."""
    r = min(int(math.floor(rmax + 1e-9)), cap)
    if r < 1:
        return 0
    return (_ball_count(d, rmax * rmax * (1.0 + 1e-12) + 1e-9, r) - 1) // 2


def _curve_hooks(originals, kind):
    """Span label and cell x half-ball-shift count for interior/whole curves."""
    fn = originals[("moduli", f"{kind}_curve")]
    default_grid = originals[("moduli", "default_t_grid")]
    get_arr = _getter(fn, "f" if kind == "interior" else "g")
    get_grid = _getter(fn, "t_grid")

    def geometry(args, kwargs):
        arr = get_arr(args, kwargs)
        try:
            ts = get_grid(args, kwargs)
        except KeyError:
            ts = None
        ts = default_grid(arr.level) if ts is None else ts
        n = arr.n if kind == "interior" else arr.base.n
        return arr, max(ts) * n

    def label(args, kwargs):
        return f"moduli.{kind}_curve.d{geometry(args, kwargs)[0].d}"

    def work(args, kwargs, _result):
        arr, rmax = geometry(args, kwargs)
        shifts = _half_ball_shifts(arr.d, rmax, arr.samples.shape[0] - 1)
        return {f"moduli.{kind}_curve.d{arr.d}.cell_shifts": arr.samples.size * shifts}

    return label, work


def _hooks(originals):
    """Span labels and work counts for the functions whose metrics need them."""
    get_spec = _getter(originals[("kernels", "apply_kernel")], "spec")
    get_window = _getter(originals[("kernels", "apply_kernel")], "g")
    get_f = _getter(originals[("grid", "lp_norm")], "f")

    def kernel_label(args, kwargs):
        return f"kernels.apply_kernel.{get_spec(args, kwargs).family}"

    def kernel_work(args, kwargs, _result):
        return {"kernels.apply_kernel.cells": get_window(args, kwargs).samples.size}

    def lp_work(args, kwargs, _result):
        return {"grid.lp_norm.cells": get_f(args, kwargs).samples.size}

    def partition_work(_args, _kwargs, part):
        return {"adaptive.build_partition.cubes":
                sum(map(len, part.good)) + sum(map(len, part.bad))}

    hooks = {
        ("kernels", "apply_kernel"): (kernel_label, kernel_work),
        ("grid", "lp_norm"): (None, lp_work),
        ("adaptive", "build_partition"): (None, partition_work),
    }
    for kind in ("interior", "whole"):
        hooks[("moduli", f"{kind}_curve")] = _curve_hooks(originals, kind)
    return hooks


# ---------------------------------------------------------------------------
# installation


def _targets(modules):
    """(layer, attribute) -> function for every public function of each layer."""
    out = {}
    for layer in LAYERS:
        mod = modules[f"zexlab.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == mod.__name__:
                out[(layer, attr)] = obj
    out[("cli", "main")] = modules["zexlab.cli"].main
    return out


def _rebind(container, replacements):
    if isinstance(container, tuple):
        return tuple(replacements.get(id(v), v) for v in container)
    if isinstance(container, list):
        return [replacements.get(id(v), v) for v in container]
    return {k: replacements.get(id(v), v) for k, v in container.items()}


def install(recorder: Recorder):
    """Wrap every layer's public functions for the rest of the process."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "zexlab" or name.startswith("zexlab.")}
    originals = _targets(modules)
    hooks = _hooks(originals)
    replacements = {}
    for (layer, attr), fn in originals.items():
        label, work = hooks.get((layer, attr), (None, None))
        replacements[id(fn)] = recorder.wrap(fn, f"{layer}.{attr}", label, work)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements:
                setattr(mod, attr, replacements[id(value)])
            elif isinstance(value, (tuple, list, dict)) and any(
                    id(v) in replacements
                    for v in (value.values() if isinstance(value, dict) else value)):
                setattr(mod, attr, _rebind(value, replacements))
    adaptive = modules["zexlab.adaptive"]
    for cls, method, name in ((adaptive.ErrorPyramid, "__init__", "adaptive.ErrorPyramid"),
                              (adaptive.AdaptivePartition, "to_text",
                               "adaptive.AdaptivePartition.to_text")):
        originals[(cls.__name__, method)] = getattr(cls, method)
        setattr(cls, method, recorder.wrap(getattr(cls, method), name))
    _check_installed(modules, originals)


def _check_installed(modules, originals):
    """Fail if any namespace still holds an unwrapped layer function."""
    wanted = {id(fn) for fn in originals.values()}
    for mod in modules.values():
        for attr, value in vars(mod).items():
            items = value.values() if isinstance(value, dict) else \
                value if isinstance(value, (tuple, list)) else (value,)
            if any(id(v) in wanted for v in items):
                raise RuntimeError(f"{mod.__name__}.{attr} still holds an untraced "
                                   f"layer function")


# ---------------------------------------------------------------------------
# per-layer metrics


GATES = ("shift_bounds", "average_error", "indicator_exponents", "extension_bounds",
         "exponent_drop", "adaptive", "kernel_hypotheses", "besov_machinery",
         "determinism")
FAMILIES = ("gauss", "poisson", "fejer_tensor")
CURVES = tuple(f"moduli.{kind}_curve.d{d}" for kind in ("interior", "whole")
               for d in (1, 2, 3))


def _metric_table():
    """(metric, unit, value(recorder)) for every per-layer metric."""
    def incl(span):
        return lambda r: r.inclusive[span]

    def own(span):
        return lambda r: r.self_time[span]

    def calls(span):
        return lambda r: r.calls[span]

    def work(key):
        return lambda r: r.work[key]

    table = [(f"acceptance.gate.{g}_s", "s", incl(f"acceptance.gate_{g}")) for g in GATES]
    table += [(f"kernels.apply_kernel.{f}_s", "s", incl(f"kernels.apply_kernel.{f}"))
              for f in FAMILIES]
    table += [
        ("kernels.apply_kernel.calls", "count",
         lambda r: sum(r.calls[f"kernels.apply_kernel.{f}"] for f in FAMILIES)),
        ("kernels.apply_kernel.cells", "count", work("kernels.apply_kernel.cells")),
    ]
    table += [(f"kernels.{fn}.self_s", "s", own(f"kernels.{fn}"))
              for fn in ("error_norm", "error_modulus_ratio", "extension_bound_check")]
    table += [
        ("grid.lp_norm_s", "s", incl("grid.lp_norm")),
        ("grid.lp_norm.calls", "count", calls("grid.lp_norm")),
        ("grid.lp_norm.cells", "count", work("grid.lp_norm.cells")),
        ("grid.zero_extend_s", "s", incl("grid.zero_extend")),
        ("grid.sample_s", "s", incl("grid.sample")),
    ]
    table += [(f"{c}_s", "s", incl(c)) for c in CURVES]
    table += [(f"{c}.cell_shifts", "count", work(f"{c}.cell_shifts")) for c in CURVES]
    table += [
        ("moduli.whole_modulus_s", "s", incl("moduli.whole_modulus")),
        ("moduli.whole_modulus.calls", "count", calls("moduli.whole_modulus")),
        ("moduli.interior_ladder_s", "s", incl("moduli.interior_ladder")),
        ("dyadic.shift_bound_suite_s", "s", incl("dyadic.shift_bound_suite")),
        ("dyadic.render_average_s", "s", incl("dyadic.render_average")),
        ("dyadic.render_average.calls", "count", calls("dyadic.render_average")),
        ("adaptive.ErrorPyramid_s", "s", incl("adaptive.ErrorPyramid")),
        ("adaptive.ErrorPyramid.calls", "count", calls("adaptive.ErrorPyramid")),
        ("adaptive.build_partition_s", "s", incl("adaptive.build_partition")),
        ("adaptive.build_partition.calls", "count", calls("adaptive.build_partition")),
        ("adaptive.build_partition.cubes", "count", work("adaptive.build_partition.cubes")),
        ("adaptive.verify_partition_s", "s", incl("adaptive.verify_partition")),
        ("adaptive.count_bound_report.self_s", "s", own("adaptive.count_bound_report")),
        ("adaptive.AdaptivePartition.to_text_s", "s",
         incl("adaptive.AdaptivePartition.to_text")),
        ("besov.fit_points_s", "s", incl("besov.fit_points")),
        ("besov.fit_points.calls", "count", calls("besov.fit_points")),
        ("besov.exponent_drop_check.self_s", "s", own("besov.exponent_drop_check")),
        ("besov.divergence_witness_s", "s", incl("besov.divergence_witness")),
        ("cli.main.self_s", "s", own("cli.main")),
    ]
    table += [(f"{layer}.self_s", "s", lambda r, layer=layer: r.layer_self(layer))
              for layer in LAYERS]
    return table


METRICS = _metric_table()
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")
COMPUTED = tuple(name for name, _, _ in METRICS
                 if name.endswith((".cells", ".cell_shifts")))


def layer_metrics(recorder: Recorder) -> dict:
    return {name: value(recorder) for name, _, value in METRICS}


def metric_units() -> dict:
    units = {name: unit for name, unit, _ in METRICS}
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units
