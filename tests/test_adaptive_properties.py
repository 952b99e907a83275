"""Property tests of the level-array partition builder against a per-cube walk."""
import itertools
import math

import numpy as np
import pytest

from zexlab.adaptive import ErrorPyramid, build_partition, local_error, verify_partition
from zexlab.grid import GridFunction, cusp, sample

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SAMPLES = ("normal", "small integers", "offset 1e4", "cusp")
LEVELS = {1: (1, 8), 2: (1, 5), 3: (1, 3)}


def _samples(kind: str, d: int, level: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (1 << level,) * d
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "small integers":  # many cubes share one S value
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "offset 1e4":  # the deviations from each mean cancel
        return 1e4 + rng.standard_normal(shape)
    return sample(cusp(0.5, 0.3), d, level).samples


def _reference_rows(pyramid: ErrorPyramid, d: int, eps: float) -> list:
    """(level, origin, S, good) of every cube a breadth-first per-cube walk classifies."""
    rows, frontier = [], [(0, (0,) * d)]
    while frontier:
        children = []
        for k, origin in frontier:
            s = float(pyramid.err_pow[k][origin] ** (1.0 / pyramid.p))
            rows.append((k, origin, s, s <= eps))
            if s > eps:
                children.extend((k + 1, tuple(2 * o + b for o, b in zip(origin, bits)))
                                for bits in itertools.product((0, 1), repeat=d))
        frontier = children
    return sorted(rows)


def _rows(part) -> list:
    return [(k, tuple(o), s, g)
            for k, level in enumerate(zip(part.origins, part.s_values, part.is_good))
            for o, s, g in zip(*(a.tolist() for a in level))]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                  data=st.data())
def test_level_arrays_equal_the_per_cube_walk(d, p, data):
    level = data.draw(st.integers(*LEVELS[d]), "level")
    kind = data.draw(st.sampled_from(SAMPLES), "samples")
    f = GridFunction(d, level, _samples(kind, d, level, data.draw(st.integers(0, 2 ** 32 - 1))))
    pyramid = ErrorPyramid(f, p)
    s_all = sorted({math.pow(v, 1.0 / p) for a in pyramid.err_pow for v in a.ravel().tolist()}
                   - {0.0})
    if s_all and data.draw(st.booleans(), "tie"):  # some cube's S equals eps exactly
        eps = data.draw(st.sampled_from(s_all), "eps")
    else:
        eps = (s_all[-1] if s_all else 1.0) * 2.0 ** -data.draw(st.floats(-1.0, 20.0), "log2")
    part = build_partition(f, p, eps, pyramid)
    assert _rows(part) == _reference_rows(pyramid, d, eps)
    assert verify_partition(part, f) == []
    coarser = build_partition(f, p, eps * data.draw(st.floats(1.0, 4.0), "growth"), pyramid)
    assert coarser.n_total <= part.n_total
    for line in part.to_text().splitlines()[1:]:
        k, origin, s, _status = line.split(",")
        cube = (int(k), tuple(int(v) for v in origin.split(":")))
        assert math.isclose(float(s), local_error(f, *cube, p), rel_tol=1e-12, abs_tol=0.0)
