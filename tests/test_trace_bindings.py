"""The names the traced benchmark run binds to.

``perfbench/spans.py`` wraps every public function that a layer module
defines, reads some arguments by parameter name, and reads ``g.base.n`` of a
whole curve's window; the per-layer metrics of ``BENCHMARK.json`` name those
functions.  A rename would otherwise show only in a traced benchmark run.
"""
import importlib
import inspect
import json
from pathlib import Path

import pytest

from zexlab import grid, kernels, moduli

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("fn, names", [
    (moduli.whole_curve, ("g", "t_grid")),
    (moduli.interior_curve, ("f", "t_grid")),
    (kernels.apply_kernel, ("spec", "g")),
    (grid.lp_norm, ("f",)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_traced_parameter_names(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters)


def test_whole_window_reads_its_cube_side():
    f = grid.sample(grid.const(1.0), 2, 3)
    assert grid.zero_extend(f, 2).base.n == f.n


def _named(metric: str):
    """(layer, dotted name) of the function or method a per-layer metric
    times or counts; None for a layer total or the trace overhead."""
    layer, *rest = metric.split(".")
    if layer == "trace" or rest == ["self_s"]:
        return None
    head = rest[0].removesuffix("_s")
    if head == "gate":
        return layer, "gate_" + rest[1].removesuffix("_s")
    if head[0].isupper() and len(rest) > 1 and rest[1].endswith("_s"):
        return layer, f"{head}.{rest[1].removesuffix('_s')}"  # Class.method_s
    return layer, head


def test_every_function_a_layer_metric_names_exists():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    named = {_named(m) for m in metrics} - {None}
    assert len(named) >= 30
    for layer, name in sorted(named):
        module = importlib.import_module(f"zexlab.{layer}")
        obj = module
        for part in name.split("."):
            assert not part.startswith("_"), (layer, name)
            obj = getattr(obj, part)
        assert callable(obj), (layer, name)
        if inspect.isfunction(obj) and "." not in name:
            assert obj.__module__ == module.__name__, (layer, name)
