"""Property tests of the lab's inequalities, of the per-level partition format
and of the power that skips exact zeros."""
import math

import numpy as np
import pytest

from reference import _enumerated_table
from zexlab import moduli
from zexlab.dyadic import (PiecewiseConstant, random_partition, random_shift,
                           shift_bound_check)
from zexlab.grid import GridFunction, _abs_pow, lp_norm, zero_extend
from zexlab.kernels import FAMILIES, KernelSpec, apply_kernel, kernel_radius_cells

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                               database=None)
LEVELS = {1: (2, 6), 2: (2, 4), 3: (2, 3)}


def _samples(data, d: int, level: int) -> np.ndarray:
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    shape = (1 << level,) * d
    if data.draw(st.booleans(), "offset"):  # differences cancel against a large mean
        return 1e4 + rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _exact_powers(arr, p: float, radii, interior: bool) -> tuple:
    """The supremum table at ``radii``; direct enumeration where the table
    stopped at the direct-evaluation budget."""
    table = moduli._build_table(arr.samples, p, radii, interior)
    if not all(table.exact):
        table = _enumerated_table(arr.samples, p, radii, interior)
    return table.powers


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                  data=st.data())
def test_interior_at_most_whole(d, p, data):
    level = data.draw(st.integers(*LEVELS[d]), "level")
    f = GridFunction(d, level, _samples(data, d, level))
    n = f.n
    radii = sorted(data.draw(st.lists(st.floats(1.0, float(n)), min_size=1, max_size=3),
                             "radii"))
    g = zero_extend(f, math.ceil(radii[-1]))
    interior = _exact_powers(f, p, radii, True)
    whole = _exact_powers(g, p, radii, False)
    for a, b in zip(interior, whole):
        assert a <= b * (1 + 1e-12)


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), family=st.sampled_from(FAMILIES),
                  data=st.data())
def test_kernels_are_lp_contractions(d, family, data):
    level = data.draw(st.integers(*LEVELS[d]) if d < 3 else st.just(2), "level")
    f = GridFunction(d, level, _samples(data, d, level))
    t = 2.0 ** -(level + data.draw(st.integers(0, 2), "below cell"))
    heavy = [1e-1] if d == 3 else [1e-1, 1e-2]  # 3-d windows at 1e-2 run to 10^7 cells
    tail = 1e-6 if family == "gauss" else data.draw(st.sampled_from(heavy), "tail")
    spec = KernelSpec(family, t, tail)
    g = zero_extend(f, kernel_radius_cells(spec, d, level) + data.draw(st.integers(0, 3)))
    out = apply_kernel(spec, g)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_norm(out, p) <= lp_norm(g, p) * (1 + 1e-12)


def _partition(data, d: int) -> PiecewiseConstant:
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    k = data.draw(st.integers(1, 4 if d < 3 else 2), "max level")
    if data.draw(st.booleans(), "uniform"):
        return PiecewiseConstant.from_uniform(d, k, rng.standard_normal((1 << k,) * d))
    origins = random_partition(rng, d, k)
    return PiecewiseConstant(d, origins, rng.standard_normal(sum(map(len, origins))))


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                  data=st.data())
def test_shift_bound_holds_on_random_partitions(d, p, data):
    pc = _partition(data, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "shift seed"))
    shift = random_shift(rng, d, max(1, pc.max_level + data.draw(st.integers(0, 2), "finer")))
    lhs, rhs = shift_bound_check(pc, shift, p)
    assert lhs <= rhs + 1e-12


def _cubes(pc: PiecewiseConstant):
    """(level, origin, value) of every cube, one at a time."""
    values = iter(pc.values.tolist())
    for k, level in enumerate(pc.origins):
        for o in level.tolist():
            yield k, o, next(values)


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                  data=st.data())
def test_level_arrays_equal_a_per_cube_reference(d, p, data):
    pc = _partition(data, d)
    grid_level = max(1, pc.max_level + data.draw(st.integers(0, 2), "finer"))
    painted = np.full((1 << grid_level,) * d, np.nan)
    for k, o, v in _cubes(pc):
        b = 1 << (grid_level - k)
        painted[tuple(slice(c * b, (c + 1) * b) for c in o)] = v
    assert np.array_equal(pc.render(grid_level).samples, painted)
    vols = np.array([(2.0 ** -k) ** d for k, _, _ in _cubes(pc)])
    assert pc.norm_power(p) == float((vols * _abs_pow(pc.values, p)).sum())
    if pc.uniform_level is None:  # the cube-by-cube right-hand side
        shift = random_shift(np.random.default_rng(0), d, grid_level)
        sides = np.array([2.0 ** -k for k, _, _ in _cubes(pc)])
        weights = np.minimum(math.sqrt(d) * shift.length / sides, 1.0)
        rhs = (2.0 ** p) * float((weights * vols * _abs_pow(pc.values, p)).sum())
        assert shift_bound_check(pc, shift, p)[1] == rhs


# exact zeros of both signs, subnormals, the extremes and values whose power
# overflows or underflows
_SPECIAL = (0.0, -0.0, 5e-324, -2.2e-311, 2.2250738585072014e-308, math.inf, -math.inf,
            math.nan, 1e300, -1e-300, 1.0, -3.5)


@SETTINGS
@hypothesis.given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]), data=st.data())
def test_zero_skipping_power_equals_the_plain_power_bit_for_bit(p, data):
    values = data.draw(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()),
                                min_size=1, max_size=200), "values")
    # runs of zeros longer than any vector width, placed at random
    zeros = data.draw(st.integers(0, 3), "zero runs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    a = np.array(values)
    for _ in range(zeros):
        at = int(rng.integers(0, len(a) + 1))
        a = np.insert(a, at, np.zeros(int(rng.integers(1, 70))) * rng.choice([1.0, -1.0]))
    step = data.draw(st.integers(1, 3), "step")
    # C-contiguous, strided and transposed views, each read and made in place
    layouts = (lambda b: b, lambda b: b[::step], lambda b: b[:len(b) // 2 * 2].reshape(-1, 2).T)
    with np.errstate(all="ignore"):
        for layout in layouts:
            plain = _abs_pow(layout(a), p)
            assert _abs_pow(layout(a), p, zeros=True).tobytes() == plain.tobytes()
            work = layout(a.copy())
            assert _abs_pow(work, p, out=work, zeros=True) is work
            assert work.tobytes() == plain.tobytes()
