"""Property tests of the certified supremum tables against direct enumeration."""
import math
from unittest import mock

import numpy as np
import pytest

from zexlab import moduli
from zexlab.grid import ExtendedGridFunction, GridFunction, cusp, linear, sample, zero_extend

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                               database=None)
SAMPLES = ("normal", "small integers", "offset 1e4", "sparse", "ramp", "cusp")
LEVELS = {1: (2, 7), 2: (2, 4), 3: (2, 3)}
# every branch of the upper bound: p < 2, p = 2, 2 < p < 4, p = 4, p > 4
POWERS = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0)


def _samples(kind: str, d: int, level: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (1 << level,) * d
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "small integers":  # many exactly tied difference norms
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "offset 1e4":  # the raw screened values cancel
        return 1e4 + rng.standard_normal(shape)
    if kind == "sparse":
        return rng.standard_normal(shape) * (rng.random(shape) < 0.05)
    if kind == "ramp":  # short shifts differ by far less than the samples' size
        return sample(linear(), d, level).samples * rng.uniform(0.5, 2.0)
    # near-tied shifts whose computed norms differ in the last bits
    return sample(cusp(0.5, 0.3), d, level).samples


def _draw_input(data, d: int):
    """(array, radii, interior): a cube or a window holding every radius."""
    level = data.draw(st.integers(*LEVELS[d]), "level")
    kind = data.draw(st.sampled_from(SAMPLES), "samples")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), "seed")
    interior = data.draw(st.booleans(), "interior")
    n = 1 << level
    radii = data.draw(st.lists(st.floats(0.5, float(n)), min_size=1, max_size=4),
                      "radii")
    f = GridFunction(d, level, _samples(kind, d, level, seed))
    arr = f if interior else zero_extend(f, math.ceil(max(radii)))
    return arr, radii, interior


def _certified(arr, p: float, radii, interior: bool):
    """Branch and bound on the screen's bounds."""
    split = moduli._split(arr.samples, p, max(radii), interior)
    return moduli._bound_table(arr.samples, split.shifts, moduli._upper_bounds(split, p),
                               p, radii, interior)


def _assert_certified(arr, p: float, radii, interior: bool):
    """The table the input selects, branch and bound, equals direct
    enumeration bit for bit, every radius exact."""
    direct = moduli._enumerated_table(arr.samples, p, radii, interior)
    table = moduli._build_table(arr.samples, p, radii, interior)
    assert table.method == "bound" and all(table.exact)
    assert table.powers == direct.powers
    assert table.uppers == table.powers


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 3]), data=st.data())
def test_corr_engine_equals_direct_enumeration_bit_for_bit(d, data):
    # p = 2 outside d = 2: the correlation screen, confirmed by branch and bound
    arr, radii, interior = _draw_input(data, d)
    _assert_certified(arr, 2.0, radii, interior)


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]),
                  p=st.sampled_from([p for p in POWERS if p != 2]), data=st.data())
def test_certified_tables_equal_direct_enumeration_bit_for_bit(d, p, data):
    arr, radii, interior = _draw_input(data, d)
    _assert_certified(arr, p, radii, interior)


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from(POWERS),
                  data=st.data())
def test_upper_bounds_hold_every_computed_value(d, p, data):
    arr, radii, interior = _draw_input(data, d)
    split = moduli._split(arr.samples, p, max(radii), interior)
    values = moduli._direct_values(arr.samples, split.shifts, p, interior)
    assert np.all(values <= moduli._upper_bounds(split, p))


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from(POWERS),
                  evaluations=st.integers(0, 12), data=st.data())
def test_budget_brackets_every_row(d, p, evaluations, data):
    arr, radii, interior = _draw_input(data, d)
    direct = moduli._enumerated_table(arr.samples, p, radii, interior)
    ascending = sorted(radii)
    # evaluations an uncapped run needs to finish each radius, ascending
    needed = [_certified(arr, p, ascending[:i + 1], interior).rechecked
              for i in range(len(ascending))]
    with mock.patch.object(moduli, "_DIRECT_WORK_BUDGET", evaluations * arr.samples.size):
        capped = _certified(arr, p, radii, interior)
    assert capped.rechecked <= evaluations
    for r, lower, value, upper, exact in zip(radii, capped.powers, direct.powers,
                                             capped.uppers, capped.exact):
        assert lower <= value <= upper
        if needed[ascending.index(r)] <= evaluations:
            assert exact
        if exact:
            assert lower == value


@pytest.mark.parametrize("d, level", [(1, 6), (1, 8), (2, 4), (3, 3)])
def test_upper_bounds_hold_on_ramps(d, level):
    # a short shift of a ramp differs by far less than the samples' size, so
    # the screen's rounding is as large as the difference norms themselves
    for offset in (0.0, 1e4):
        f = GridFunction(d, level, sample(linear(), d, level).samples + offset)
        for arr, interior in ((f, True), (zero_extend(f, f.n // 2), False)):
            a = arr.samples
            for p in POWERS:
                split = moduli._split(a, p, f.n / 2, interior)
                values = moduli._direct_values(a, split.shifts, p, interior)
                assert np.all(values <= moduli._upper_bounds(split, p))


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from(POWERS),
                  data=st.data())
def test_whole_bounds_hold_every_window_value(d, p, data):
    # interior bound of the support's box plus the boundary layer: samples
    # whose layer cancels at short shifts (offset 1e4, ramp), constant cubes
    # (the bound is the layer alone), all-zero cubes, and windows with extra
    # mass in the margin, outside the cube
    level = data.draw(st.integers(*LEVELS[d]), "level")
    kind = data.draw(st.sampled_from(SAMPLES + ("constant", "zero")), "samples")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), "seed")
    n = 1 << level
    radii = data.draw(st.lists(st.floats(0.5, float(n)), min_size=1, max_size=4),
                      "radii")
    cap = math.floor(max(radii) + 1e-9)
    margin = cap + data.draw(st.integers(0, 3), "spare margin")
    if kind in ("constant", "zero"):
        cube = np.full((n,) * d, data.draw(st.floats(0.1, 10.0), "value") * (kind != "zero"))
    else:
        cube = _samples(kind, d, level, seed)
    window = zero_extend(GridFunction(d, level, cube), margin).samples.copy()
    rng = np.random.default_rng(seed)
    for _ in range(data.draw(st.integers(0, 3), "margin cells")):
        window[tuple(rng.integers(cap, window.shape[0] - cap, d))] = rng.normal(0, 10)
    a = ExtendedGridFunction(d, level, margin, window).samples
    split = moduli._split(a, p, max(radii), False)
    assert np.all(moduli._direct_values(a, split.shifts, p, False)
                  <= moduli._upper_bounds(split, p))



@pytest.mark.parametrize("d, level", [(1, 5), (1, 6), (2, 3)])
def test_whole_bounds_hold_on_constant_cubes(d, level):
    # no interior difference is nonzero, so the bound is the boundary layer
    # alone, read as 2 M - O(k) from prefix sums: the window sum of the same
    # terms can exceed that reading by rounding, which the allowance covers
    rng = np.random.default_rng(level)
    n = 1 << level
    for value in rng.uniform(0.1, 10.0, 8):
        a = zero_extend(GridFunction(d, level, np.full((n,) * d, value)), n).samples
        for p in POWERS:
            split = moduli._split(a, p, n, False)
            values = moduli._direct_values(a, split.shifts, p, False)
            assert np.all(values <= moduli._upper_bounds(split, p))
