"""Property test of lattice sampling by axis profiles against a point evaluator."""
import numpy as np
import pytest

from zexlab.grid import (FunctionSpec, _base_spec, _check_random_level, boundary_power,
                         const, cusp, indicator, linear, random_dyadic, sample,
                         tensor_product)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                               database=None)
LEVELS = {1: (1, 10), 2: (1, 7), 3: (1, 5)}


def _point_values(spec: FunctionSpec, pts: np.ndarray) -> np.ndarray:
    """Each tag's formula at points of shape (..., d), one point at a time
    along the last axis: the evaluator ``sample`` replaced."""
    d = pts.shape[-1]
    if spec.tag == "const":
        return np.full(pts.shape[:-1], float(spec.param("value")))
    if spec.tag == "linear":
        return pts.sum(axis=-1)
    if spec.tag == "indicator":
        lo, hi = float(spec.param("lo", 0.0)), float(spec.param("hi", 0.5))
        return np.all((pts >= lo) & (pts <= hi), axis=-1).astype(float)
    if spec.tag == "cusp":
        alpha, center = float(spec.param("alpha")), float(spec.param("center", 0.5))
        return np.prod(np.abs(pts - center) ** alpha, axis=-1)
    if spec.tag == "boundary-power":
        return np.clip(pts[..., 0], 0.0, None) ** float(spec.param("alpha"))
    if spec.tag == "random":
        k = int(spec.param("level"))
        _check_random_level(k, d)
        m = 1 << k
        table = np.random.default_rng(int(spec.param("seed"))).standard_normal((m,) * d)
        return table[tuple(np.clip((pts[..., a] * m).astype(np.int64), 0, m - 1)
                           for a in range(d))]
    base, out = _base_spec(spec), np.ones(pts.shape[:-1])
    for axis in range(d):
        out = out * _point_values(base, pts[..., axis, None])
    return out


def _midpoint_grid(d: int, level: int) -> np.ndarray:
    n = 1 << level
    mids = (np.arange(n) + 0.5) / n
    return np.stack(np.meshgrid(*([mids] * d), indexing="ij"), axis=-1)


_UNIT = st.floats(0.0, 1.0)
_SPECS = {
    "const": st.builds(const, st.floats(-1e3, 1e3)),
    "linear": st.just(linear()),
    "indicator": st.tuples(_UNIT, _UNIT).filter(lambda b: b[0] < b[1]).map(
        lambda b: indicator(*b)),
    "cusp": st.builds(cusp, st.floats(0.01, 0.99), _UNIT),
    "boundary-power": st.builds(boundary_power, st.floats(0.05, 3.0)),
    "random": st.builds(random_dyadic, st.integers(0, 5), st.integers(0, 2 ** 32 - 1)),
}
_SPECS["tensor"] = st.one_of(*_SPECS.values()).map(tensor_product)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("tag", sorted(_SPECS))
@SETTINGS
@hypothesis.given(data=st.data())
def test_sample_equals_the_point_evaluator_bit_for_bit(tag, d, data):
    spec = data.draw(_SPECS[tag], "spec")
    level = data.draw(st.integers(*LEVELS[d]), "level")
    got = sample(spec, d, level).samples
    reference = _point_values(spec, _midpoint_grid(d, level))
    assert got.shape == reference.shape == (1 << level,) * d
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))
