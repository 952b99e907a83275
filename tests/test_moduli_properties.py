"""Property tests of the certified supremum tables against direct enumeration."""
import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from reference import _direct_values, _enumerated_table, shifted_samples
from zexlab import moduli
from zexlab.grid import (ExtendedGridFunction, GridFunction, _abs_pow, cusp, linear, sample,
                         zero_extend)

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
    return moduli._bound_table(arr.samples, split, moduli._upper_bounds(split, p), p, radii)


def _assert_certified(arr, p: float, radii, interior: bool):
    """The table the input selects, branch and bound, equals direct
    enumeration bit for bit, every radius exact."""
    direct = _enumerated_table(arr.samples, p, radii, interior)
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
    values = _direct_values(arr.samples, split.shifts, p, interior)
    assert np.all(values <= moduli._upper_bounds(split, p))


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from(POWERS),
                  evaluations=st.integers(0, 12), data=st.data())
def test_budget_brackets_every_row(d, p, evaluations, data):
    arr, radii, interior = _draw_input(data, d)
    direct = _enumerated_table(arr.samples, p, radii, interior)
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
                values = _direct_values(a, split.shifts, p, interior)
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
    assert np.all(_direct_values(a, split.shifts, p, False)
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
            values = _direct_values(a, split.shifts, p, False)
            assert np.all(values <= moduli._upper_bounds(split, p))


def _full_window_sum(window: np.ndarray, k, p: float) -> float:
    """The window sum as one full difference array: shifted_samples minus
    the window, its absolute value, the power and numpy's pairwise sum."""
    diff = shifted_samples(window, k) - window
    return float(_abs_pow(diff, p, out=diff, zeros=True).sum())


def _off_centre(cube: np.ndarray, spare: int) -> np.ndarray:
    """``cube`` in a window ``spare`` cells wider per axis, one cell from the
    window's upper edge on axis 0 and from its lower edge on the others, so
    that shifts carry partners off the window at both."""
    n, d = cube.shape[0], cube.ndim
    window = np.zeros((n + spare,) * d)
    starts = [spare - 1] + [1] * (d - 1)
    window[tuple(slice(start, start + n) for start in starts)] = cube
    return window


@SETTINGS
@hypothesis.given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from(POWERS),
                  data=st.data())
def test_window_sums_equal_the_full_difference_bit_for_bit(d, p, data):
    # the box-restricted sum against the full window's difference, over a
    # support anywhere in the window, shifts up to the window's side and so
    # partners off it, and one buffer reused by every shift
    level = data.draw(st.integers(*LEVELS[d]), "level")
    kind = data.draw(st.sampled_from(("normal", "sparse", "zero")), "samples")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), "seed")
    rng = np.random.default_rng(seed)
    side = (1 << level) + data.draw(st.integers(0, 6), "spare")
    lo = [data.draw(st.integers(0, side - 1), "lo") for _ in range(d)]
    hi = [data.draw(st.integers(a + 1, side), "hi") for a in lo]
    window = np.zeros((side,) * d)
    if kind != "zero":
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        window[box] = rng.standard_normal(window[box].shape) * (
            rng.random(window[box].shape) < 0.5 if kind == "sparse" else 1.0)
    shifts = moduli._half_shifts(d, side * math.sqrt(d), side - 1)
    shifts = np.concatenate([shifts, -shifts])[rng.permutation(2 * len(shifts))[:60]]
    support, out = moduli._support_box(window), np.zeros(window.shape)
    for k in shifts:
        got = moduli._diff_power_window(window, k, p, out, support)
        assert np.float64(got).view(np.uint64) == \
            np.float64(_full_window_sum(window, k, p)).view(np.uint64)
        assert not out.any()


# inputs for the threaded branch and bound, interior and whole: (d, level, radii)
THREADED = ((1, 9, (1.0, 3.5, 64.0, 200.0)), (2, 5, (1.0, 2.5, 6.0, 12.0)),
            (3, 3, (1.0, 1.8, 3.0, 5.0)))


@pytest.fixture
def interleaved():
    # switch threads as often as the interpreter allows, so that the helpers'
    # pulls and the caller's interleave on these small tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _threaded_table(a: np.ndarray, p: float, radii, workers: int, interior: bool = True):
    """Branch and bound on a cube or a window with ``workers`` threads, as
    (table, helper threads started)."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    split = moduli._split(a, p, max(radii), interior)
    upper = moduli._upper_bounds(split, p)
    with mock.patch.object(moduli, "_THREAD_CELLS", 1), \
            mock.patch.object(moduli, "_WORKERS", workers), \
            mock.patch.object(threading, "Thread", Counted):
        return moduli._bound_table(a, split, upper, p, radii), len(started)


@pytest.mark.parametrize("evaluations", [None, 3, 40])
@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("d, level, radii", THREADED)
def test_threaded_tables_equal_one_thread(d, level, radii, p, evaluations, interleaved):
    # the budget-capped rows are where a commit past the one-thread walk's
    # stopping point would show: more rechecked, a higher lower bound.  Each
    # cube also runs as a whole table, off-centre in a window with mass one
    # cell from its edge, where the longer shifts' partners leave the window
    helpers = 0
    for kind in SAMPLES:
        cube = _samples(kind, d, level, 1000 * d + level)
        window = _off_centre(cube, max(2, cube.shape[0] // 4))
        for a, interior in ((cube, True), (window, False)):
            budget = evaluations * a.size if evaluations else moduli._DIRECT_WORK_BUDGET
            with mock.patch.object(moduli, "_DIRECT_WORK_BUDGET", budget):
                one, _ = _threaded_table(a, p, radii, 1, interior)
                assert one.threads == 1 and one.rechecked <= (evaluations or one.shifts)
                for workers in (2, 3):
                    table, started = _threaded_table(a, p, radii, workers, interior)
                    helpers += started
                    assert table.threads == workers
                    assert (table.powers, table.uppers, table.shifts, table.rechecked) == \
                        (one.powers, one.uppers, one.shifts, one.rechecked)
            if not interior and evaluations is None:
                shifts = moduli._half_shifts(d, max(radii), a.shape[0] - 1)
                assert shifts.max() > a.shape[0] - cube.shape[0]  # partners leave
                full = [_full_window_sum(a, k, p) for k in shifts]
                assert one.powers == moduli._radius_max((shifts * shifts).sum(axis=1),
                                                        radii, np.array(full))[0]
    assert helpers  # threads ran on some input, so the comparison means something


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("nth", [1, 2, 7])
def test_failing_sum_reaches_the_caller(workers, nth):
    a, calls, real = _samples("normal", 2, 5, 3), itertools.count(1), moduli._diff_power_interior

    def evaluate(*args):
        if next(calls) == nth:
            raise RuntimeError("sum failed")
        return real(*args)

    running = threading.active_count()
    with mock.patch.object(moduli, "_diff_power_interior", evaluate):
        with pytest.raises(RuntimeError, match="sum failed"):
            _threaded_table(a, 3.0, (1.0, 12.0), workers)
    assert threading.active_count() == running


def test_helper_failure_reaches_the_caller():
    # the caller's first sum waits until a helper has raised in its own
    a, caller, raised = _samples("normal", 2, 5, 3), threading.current_thread(), threading.Event()
    real = moduli._diff_power_interior

    def evaluate(*args):
        if threading.current_thread() is not caller:
            raised.set()
            raise RuntimeError("helper failed")
        raised.wait(10)
        return real(*args)

    running = threading.active_count()
    with mock.patch.object(moduli, "_diff_power_interior", evaluate):
        with pytest.raises(RuntimeError, match="helper failed"):
            _threaded_table(a, 3.0, (12.0,), 2)
    assert raised.is_set() and threading.active_count() == running


def test_small_tables_start_no_thread():
    # one floor, _THREAD_CELLS, on the cells of the table's own array: the
    # cube for an interior table, the window for a whole one
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    f = sample(cusp(0.5, 0.3), 2, 8)  # 2^16 cells: under the default floor
    small, large = zero_extend(f, 4), zero_extend(f, 64)  # 264^2 and 384^2 cells
    assert small.samples.size < moduli._THREAD_CELLS <= large.samples.size
    t = [2.0 ** -6]
    with mock.patch.object(moduli, "_WORKERS", 2):
        with mock.patch.object(threading, "Thread", refuse):
            assert moduli.interior_curve(f, 3.0, t).meta["threads"] == 1
            assert moduli.whole_curve(small, 3.0, t).meta["threads"] == 1
            with pytest.raises(AssertionError, match="a thread was started"):
                moduli.whole_curve(large, 3.0, t)
            with mock.patch.object(moduli, "_THREAD_CELLS", 1):
                with pytest.raises(AssertionError, match="a thread was started"):
                    moduli.interior_curve(f, 3.0, t)
        assert moduli.whole_curve(large, 3.0, t).meta["threads"] == 2
        with mock.patch.object(moduli, "_THREAD_CELLS", 1):
            assert moduli.interior_curve(f, 3.0, t).meta["threads"] == 2
            assert moduli.whole_curve(small, 3.0, t).meta["threads"] == 2
