import inspect
import math
import threading
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

from reference import _enumerated_table
from zexlab import moduli
from zexlab.grid import (ExtendedGridFunction, GridFunction, const, corpus,
                         cusp, indicator, linear, lp_norm, random_dyadic, sample,
                         zero_extend)
from zexlab.moduli import (LowerBoundWarning, ModulusCurve, ResolutionWarning,
                           default_t_grid, hybrid_curve, hybrid_modulus, interior_curve,
                           interior_ladder, interior_modulus, whole_curve, whole_modulus)


def test_interior_modulus_of_cube_indicator_vanishes():
    f = sample(const(1.0), 1, 8)
    for t in (2.0 ** -6, 2.0 ** -3, 0.5, 1.0):
        assert interior_modulus(f, 2, t) == 0.0


def test_interior_modulus_of_any_constant_vanishes():
    f = sample(const(3.7), 2, 5)
    assert interior_modulus(f, 1, 0.25) == 0.0


def test_constant_box_is_not_screened():
    # d = 2, p = 2 reads screened values, which on a constant cube were
    # rounding noise (2.4e-7 here); a constant box has no interior difference
    f = sample(const(3.7), 2, 6)
    assert list(interior_curve(f, 2, [0.0625, 0.25]).values) == [0.0, 0.0]
    # an indicator's support box is constant: its whole table is the exact
    # layer, equal here to direct enumeration
    g = zero_extend(sample(indicator(0.25, 0.5), 2, 7), 32)
    grid = [2.0 ** -j for j in range(6, 1, -1)]
    direct = _enumerated_table(g.samples, 2, [t * g.n for t in grid], False)
    assert list(whole_curve(g, 2, grid).values) == [(power * g.cell_volume) ** 0.5
                                                    for power in direct.powers]


def test_interior_modulus_linear_matches_analytic():
    L = 12
    f = sample(linear(), 1, L)
    got = interior_modulus(f, 2, 0.25)
    assert abs(got - 0.25 * math.sqrt(0.75)) <= 2.0 * 2.0 ** (-L)


def test_interior_modulus_below_resolution_warns_zero():
    f = sample(linear(), 1, 4)
    with pytest.warns(ResolutionWarning):
        assert interior_modulus(f, 2, 2.0 ** -6) == 0.0


def test_whole_modulus_indicator_exact():
    g = zero_extend(sample(const(1.0), 1, 10), 512)
    for p in (1.0, 2.0, 3.0):
        for t in (2.0 ** -6, 2.0 ** -4, 2.0 ** -3):
            assert whole_modulus(g, p, t) == pytest.approx(
                (2.0 * t) ** (1.0 / p), rel=1e-12)


def test_whole_modulus_zero_function():
    g = zero_extend(sample(const(0.0), 1, 6), 16)
    assert whole_modulus(g, 2, 0.125) == 0.0


def test_whole_modulus_rejects_small_margin():
    g = zero_extend(sample(linear(), 1, 8), 4)
    with pytest.raises(ValueError):
        whole_modulus(g, 2, 0.25)  # needs 64 cells of margin


@pytest.mark.parametrize("d", [1, 2])
def test_whole_modulus_rejects_mass_near_the_edge(d):
    # t = 1/8 at L = 5 shifts up to 4 cells; the window has 6 cells of margin
    level, margin, cap = 5, 6, 4
    size = (1 << level) + 2 * margin
    for axis in range(d):
        for at, ok in ((cap - 1, False), (cap, True),
                       (size - cap, False), (size - cap - 1, True)):
            window = np.zeros((size,) * d)
            index = [size // 2] * d
            index[axis] = at
            window[tuple(index)] = 1.0
            g = ExtendedGridFunction(d, level, margin, window)
            if ok:
                assert whole_modulus(g, 2, 0.125) > 0.0
            else:
                with pytest.raises(ValueError, match="within shift range of its edge"):
                    whole_modulus(g, 2, 0.125)


def test_interior_below_whole():
    for member in corpus(d=1):
        f = sample(member.spec, 1, 8)
        g = zero_extend(f, 64)
        for p in (1.0, 2.0, 3.0):
            for t in (2.0 ** -5, 2.0 ** -3):
                zeta = interior_modulus(f, p, t)
                omega = whole_modulus(g, p, t)
                assert zeta <= omega + 1e-12


@pytest.mark.parametrize("kind, grid, refused", [
    ("interior", [2.0 ** -8, 2.0 ** -3], None),
    ("whole", [2.0 ** -8, 2.0 ** -3], None),
    ("interior", [], "at least one scale"),
    ("interior", [math.nan], "t=nan"),
    ("interior", [-0.25, 0.25], "t=-0.25"),
    ("interior", [0.25, 1.5], "t=1.5"),
    ("whole", [0.0, 0.25], "t=0.0"),
    ("whole", [0.25, math.inf], "t=inf"),
    ("hybrid", [], "at least one scale"),
    ("hybrid", [math.nan], "t=nan"),
])
def test_curve_flags_scales_below_resolution(kind, grid, refused, monkeypatch):
    f = sample(cusp(0.5), 1, 6)
    build = {"interior": lambda: interior_curve(f, 2, grid),
             "whole": lambda: whole_curve(zero_extend(f, 16), 2, grid),
             "hybrid": lambda: hybrid_curve(f, 2, grid)}[kind]
    if refused:  # before any table or ladder is built
        monkeypatch.setattr(moduli, "_build_table", _no_fft)
        with pytest.raises(ValueError, match=refused):
            build()
        return
    curve = build()
    assert curve.flags[0] == "below_resolution"
    assert curve.values[0] == 0.0 and curve.values[1] > 0.0


def test_moduli_nondecreasing_in_scale():
    f = sample(random_dyadic(3, 2), 1, 9)
    curve = interior_curve(f, 2, [2.0 ** -j for j in range(7, 1, -1)])
    assert np.all(np.diff(curve.values) >= 0)
    g = zero_extend(f, 128)
    wcurve = whole_curve(g, 2, [2.0 ** -j for j in range(7, 1, -1)])
    assert np.all(np.diff(wcurve.values) >= 0)


def test_doubling_inequality_on_corpus():
    # gamma-step growth: value at (gamma t) within (1+gamma) of value at t
    for member in corpus():
        L = 9 if member.d == 1 else 6
        f = sample(member.spec, member.d, L)
        base = [2.0 ** -j for j in range(2, L - 1)]
        grid = sorted({t for t in base}
                      | {g * t for t in base for g in (2, 3)
                         if g * t <= math.sqrt(member.d)})
        for p in (1.0, 2.0, 3.0):
            curve = interior_curve(f, p, grid)
            vals = dict(zip((round(t, 12) for t in curve.t_values), curve.values))
            for t in base:
                for gamma in (2, 3):
                    if gamma * t > math.sqrt(member.d):
                        continue
                    assert vals[round(gamma * t, 12)] <= \
                        (1 + gamma) * vals[round(t, 12)] + 1e-9


def _engine(arr, p, t, n, cellvol, interior, engine):
    """One supremum table's value at scale t: the table the input selects
    (table) or plain enumeration (direct)."""
    radii = [t * n]
    if engine == "table":
        table = moduli._build_table(arr, p, radii, interior)
    else:
        table = _enumerated_table(arr, p, radii, interior)
    return (table.powers[0] * cellvol) ** (1.0 / p)


def _hand_built_windows(rng):
    """2-d windows at L = 5 with 12 cells of margin, each carrying mass the
    whole table must split as support box plus boundary layer."""
    def window(cells):
        samples = np.zeros((56, 56))
        samples[cells] = rng.standard_normal(samples[cells].shape)
        return ExtendedGridFunction(2, 5, 12, samples)
    # mass off-centre, so the support box is not the cube; a single cell; a
    # support that reaches the 8 cells shifts of t = 1/4 take; nothing
    return (window((slice(14, 25), slice(30, 47))), window((31, 20)),
            window((np.array([8, 47, 30, 20]), np.array([30, 10, 8, 47]))),
            window((slice(0, 0), slice(0, 0))))


def test_correlation_method_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = GridFunction(2, 5, rng.standard_normal((32, 32)))
        for t in (2.0 ** -4, 2.0 ** -2, 0.5):
            a = _engine(f.samples, 2, t, f.n, f.cell_volume, True, "direct")
            b = _engine(f.samples, 2, t, f.n, f.cell_volume, True, "table")
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
            assert interior_modulus(f, 2, t) == b
    for g in [zero_extend(GridFunction(2, 5, rng.standard_normal((32, 32))), 16)
              for _ in range(4)] + list(_hand_built_windows(rng)):
        for t in (2.0 ** -4, 2.0 ** -2):
            a = _engine(g.samples, 2, t, g.n, g.cell_volume, False, "direct")
            b = _engine(g.samples, 2, t, g.n, g.cell_volume, False, "table")
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
            assert whole_modulus(g, 2, t) == b


def test_whole_correlation_screen_runs_on_the_support_box(monkeypatch):
    grids = []
    screen = moduli._screen

    def recorded(arr, shifts, shape, orders):
        grids.append(list(shape))
        return screen(arr, shifts, shape, orders)

    monkeypatch.setattr(moduli, "_screen", recorded)
    f = sample(cusp(0.5), 2, 5)  # a 32^2 cube in a 64^2 window
    curve = whole_curve(zero_extend(f, 16), 2, [0.25])
    # 2 n - 1 = 63 cells of the cube per axis, lifted to the fast length 64;
    # the window's: 128
    assert curve.meta["method"] == "corr" and grids == [[64, 64]]


def test_budget_capped_table_is_bracketed(monkeypatch):
    rng = np.random.default_rng(11)
    f = GridFunction(2, 5, rng.standard_normal((32, 32)))
    grid = [2.0 ** -3, 2.0 ** -2]
    exact = {p: [_engine(f.samples, p, t, f.n, f.cell_volume, True, "direct")
                 for t in grid] for p in (1.0, 3.0)}
    for p in (1.0, 3.0):
        assert [interior_modulus(f, p, t) for t in grid] == exact[p]  # certified
    # two direct evaluations per table: every row stops short of certainty
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", 2 * f.samples.size)
    for p in (1.0, 3.0):
        curve = interior_curve(f, p, grid)
        assert curve.meta["exact"] is False and curve.meta["rechecked"] == 2
        assert curve.flags == ("lower_bound",) * len(grid)
        for lower, value, upper in zip(curve.values, exact[p], curve.meta["upper"]):
            assert lower <= value <= upper
            assert lower >= 0.25 * value  # the largest bounds catch the bulk


def test_three_d_p_not_2_is_exact():
    rng = np.random.default_rng(4)
    f = GridFunction(3, 3, rng.standard_normal((8, 8, 8)))
    g = zero_extend(f, 4)
    grid = [0.25, 0.5]
    for p in (1.0, 3.0):
        for arr, curve in ((f, interior_curve(f, p, grid)), (g, whole_curve(g, p, grid))):
            assert curve.meta["exact"] is True
            assert curve.flags == ("",) * len(grid)
            assert curve.meta["upper"] == tuple(curve.values)
            for t, value in zip(grid, curve.values):
                assert value == _engine(arr.samples, p, t, arr.n, arr.cell_volume,
                                        curve.kind == "interior", "direct")


def test_three_d_p2_is_exact():
    # the off-centre cusp has near-tied shifts whose largest direct norm the
    # screened values alone do not pick out
    rng = np.random.default_rng(4)
    grid = [0.125, 0.25, 0.5]
    for f in (GridFunction(3, 3, rng.standard_normal((8, 8, 8))),
              sample(cusp(0.5, 0.3), 3, 3)):
        g = zero_extend(f, 4)
        for arr, curve in ((f, interior_curve(f, 2, grid)),
                           (g, whole_curve(g, 2, grid))):
            interior = curve.kind == "interior"
            assert curve.meta["exact"] is True and curve.meta["method"] == "bound"
            assert curve.flags == ("",) * len(grid)
            for t, value in zip(grid, curve.values):
                args = (arr.samples, 2, t, arr.n, arr.cell_volume, interior)
                assert value == _engine(*args, "direct")


def test_correlation_confirm_survives_cancellation():
    # on 1e4 + cusp a screen of the raw samples loses about eight digits;
    # centred on their mean, interior samples keep bounds that rule out most
    # shifts.  A window is not centred: there the bounds only grow looser.
    level = 12
    f = GridFunction(1, level, sample(cusp(0.5), 1, level).samples + 1e4)
    grid = default_t_grid(level)
    g = zero_extend(f, int(max(grid) * f.n))
    for p in (1.0, 2.0, 3.0):
        for arr, curve in ((f, interior_curve(f, p, grid)), (g, whole_curve(g, p, grid))):
            direct = _enumerated_table(arr.samples, p, [t * arr.n for t in grid],
                                       curve.kind == "interior")
            assert curve.meta["method"] == "bound" and curve.meta["exact"] is True
            assert list(curve.values) == [(power * arr.cell_volume) ** (1 / p)
                                          for power in direct.powers]
        assert interior_curve(f, p, grid).meta["rechecked"] < direct.shifts // 3


@pytest.mark.parametrize("shape", [(4096,), (3072, 3072), (1036, 1036), (640, 640),
                                   (112, 112, 112)])
def test_row_restricted_inverse_equals_irfftn_bit_for_bit(shape):
    # _fft_product's inverse passes, block by block, on a given spectrum
    rng = np.random.default_rng(len(shape))
    spectrum_shape = (*shape[:-1], shape[-1] // 2 + 1)
    rows = shape[0] // 4 + 1
    keep = (slice(0, rows),) + (slice(None),) * (len(shape) - 1)
    for real in (False, True):
        spectrum = rng.standard_normal(spectrum_shape)
        if not real:
            spectrum = spectrum + 1j * rng.standard_normal(spectrum_shape)
        expected = sfft.irfftn(spectrum, shape)[:rows]
        widths = []

        def given(F):
            # the block's columns; a real spectrum made complex, as irfftn does
            lo = sum(widths)
            widths.append(F(0).shape[-1])
            return [spectrum[..., lo:lo + widths[-1]].astype(complex)]

        got, = moduli._fft_product([(np.zeros((1,) * len(shape)), 0)], shape, given, keep)
        assert sum(widths) == spectrum_shape[-1]
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_next_fast_len_matches_scipy():
    targets = [*range(1, (1 << 15) + 1), 65_537, 655_000, (1 << 27) + 1]
    assert [moduli._next_fast_len(n) for n in targets] == \
        [sfft.next_fast_len(n, real=True) for n in targets]


def _e2(f1):
    return np.multiply(f1, np.conj(f1))


def _e4(f1, f2, f3):
    # 6 |F2|^2 - 8 Re(F3 conj F1), made complex, in numpy's separate passes
    spectrum = -8.0 * (f3.real * f1.real + f3.imag * f1.imag)
    spectrum += 6.0 * (f2.real * f2.real + f2.imag * f2.imag)
    return spectrum.astype(complex)


def _both(F):
    # combine reads each factor's spectrum once per block
    spectra = [F(i) for i in range(3)]
    return [_e2(spectra[0]), _e4(*spectra)]


# _BLOCK_BYTES values that give one-line blocks, blocks whose last one is
# shorter on every pass below, and one block for everything
_BUDGETS = pytest.mark.parametrize("budget", (1, 4000, 1 << 40),
                                   ids=["one-line", "uneven", "one-block"])
_FORWARD_SHAPES = [((500,), (1024,)), ((100, 70), (180, 144)), ((3, 7, 5), (8, 9, 11)),
                   ((20, 20, 20), (45, 45, 45)), ((2, 12, 10), (24, 21))]


@pytest.mark.parametrize("shape, grid", _FORWARD_SHAPES)
def test_rfftn_matches_scipy_bit_for_bit(monkeypatch, shape, grid):
    # _fft_product's forward passes at every block budget, the blocks side
    # by side: numpy's own rfftn runs the axes before the last in reverse,
    # which moves last bits in 3-d; a leading axis outside the grid is a batch
    arr = np.random.default_rng(len(shape)).standard_normal(shape)
    axes = tuple(range(-len(grid), 0))
    for budget in (1, 4000, 1 << 40):
        monkeypatch.setattr(moduli, "_BLOCK_BYTES", budget)
        blocks = []

        def forward(F):
            blocks.append(F(0).copy())
            return [blocks[-1].copy()]

        moduli._fft_product([(arr, 0)], grid, forward, (slice(None),) * len(grid))
        assert np.concatenate(blocks, axis=-1).tobytes() == \
            sfft.rfftn(arr, grid, axes=axes).tobytes()


@_BUDGETS
@pytest.mark.parametrize("shape, grid", _FORWARD_SHAPES + [((7, 100), (128,))])
def test_fft_product_matches_scipy_bit_for_bit(monkeypatch, budget, shape, grid):
    # the E2 and E4 products of the screens, blockwise, equal scipy's rfftn
    # and irfftn over the whole grid cut to the kept rows; numpy's own rfftn
    # runs the axes before the last in reverse, which moves last bits in
    # 3-d, and a leading axis outside the grid is a batch
    monkeypatch.setattr(moduli, "_BLOCK_BYTES", budget)
    arr = np.random.default_rng(len(shape)).standard_normal(shape)
    m = len(grid)
    axes = tuple(range(-m, 0))
    rows = grid[0] // 4 + 1
    keep = (slice(0, rows),) + (slice(None),) * (m - 1)
    powers = [arr, arr * arr, arr * arr * arr]
    full = [sfft.rfftn(a, grid, axes=axes) for a in powers]
    # the p-th product of the list fills out[p]
    both = moduli._fft_product([(a, 0) for a in powers], grid, _both, keep)
    for i, (product, n) in enumerate(((_e2, 1), (_e4, 3))):
        expected = sfft.irfftn(product(*full[:n]), grid, axes=axes)[(..., *keep)]
        got, = moduli._fft_product([(a, 0) for a in powers[:n]], grid,
                                   lambda F: [product(*(F(j) for j in range(n)))], keep)
        assert got.shape == expected.shape and both.shape == (2,) + expected.shape
        assert got.tobytes() == expected.tobytes()
        assert both[i].tobytes() == expected.tobytes()
    if m == 1:
        return
    # the factors at a nonzero start on each axis but the last, both products
    # into a caller-made out; one-column, one-line blocks at budget 1, so the
    # streamed pieces, spreads, column results and line buffer all take turns
    start = 2
    lead = (..., *(slice(start, start + n) for n in shape[-m:-1]), slice(None))
    placed = []
    for a in powers:
        padded = np.zeros(shape[:-m] + tuple(grid[:-1]) + shape[-1:])
        padded[lead] = a
        placed.append(sfft.rfftn(padded, grid, axes=axes))
    calls, irfft = [0, 0], np.fft.irfft

    def counted(*args, **kwargs):
        calls[1] += 1
        return irfft(*args, **kwargs)

    def combine(F):
        calls[0] += 1
        return _both(F)

    monkeypatch.setattr(np.fft, "irfft", counted)
    out = np.empty_like(both)
    assert moduli._fft_product([(a, start) for a in powers], grid, combine, keep, out) is out
    for i, (product, n) in enumerate(((_e2, 1), (_e4, 3))):
        expected = sfft.irfftn(product(*placed[:n]), grid, axes=axes)[(..., *keep)]
        assert out[i].tobytes() == expected.tobytes()
    if budget == 1:
        assert calls == [grid[-1] // 2 + 1, 2 * math.prod(out.shape[1:-1])]
        assert calls[0] >= 3 and calls[1] >= 2


def test_fft_product_starts_no_thread(monkeypatch):
    # every pass runs on the calling thread, even with two usable cores:
    # (200, 200) on a 256^2 grid, (600, 600) on 1024^2 (a 360,000-cell
    # first rfft), and a batch of 1-d lines
    monkeypatch.setattr(moduli, "_WORKERS", 2)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    for shape, grid in (((200, 200), (256, 256)), ((600, 600), (1024, 1024)),
                        ((300, 2000), (4096,))):
        arr = np.random.default_rng(shape[0]).standard_normal(shape)
        axes = tuple(range(-len(grid), 0))
        got, = moduli._fft_product([(arr, 0)], grid, lambda F: [_e2(F(0))],
                                   (slice(None),) * len(grid))
        assert got.tobytes() == sfft.irfftn(_e2(sfft.rfftn(arr, grid, axes=axes)),
                                            grid, axes=axes).tobytes()
    assert not started


@pytest.mark.parametrize("budget", (4000, 8 << 20), ids=["small", "default"])
@pytest.mark.parametrize("shape, r", [((300,), 40), ((130, 90), 30), ((200, 200), 150),
                                      ((12, 10, 8), 4), ((20, 20, 20), 6)])
def test_screen_matches_whole_spectrum_screen_bit_for_bit(monkeypatch, budget, shape, r):
    # the screens' values as read off whole scipy spectra, with numpy's
    # operators: E2's product is conj(F1) * F1 at every size, whose
    # imaginary parts round apart from F1 * conj(F1)'s
    monkeypatch.setattr(moduli, "_BLOCK_BYTES", budget)
    arr = np.random.default_rng(len(shape)).standard_normal(shape)
    shifts = moduli._half_shifts(len(shape), r, shape[0] - 1)
    grid = [moduli._next_fast_len(n + min(n - 1, r)) for n in shape]
    axes = tuple(range(len(grid)))
    at = tuple(shifts[:, a] % s for a, s in enumerate(grid))
    sq = arr * arr
    f1, f2, f3 = (sfft.rfftn(a, grid) for a in (arr, sq, sq * arr))
    c11 = sfft.irfftn(np.conj(f1) * f1, grid, axes=axes)[at]
    e4 = -8.0 * (f3.real * f1.real + f3.imag * f1.imag)
    e4 += 6.0 * (f2.real * f2.real + f2.imag * f2.imag)
    c4 = sfft.irfftn(e4, grid, axes=axes)[at]
    screen = moduli._screen(arr, shifts, grid, (2, 4))
    assert screen[2][0].tobytes() == np.maximum(
        moduli._overlap_mass(sq, shifts) - 2.0 * c11, 0.0).tobytes()
    assert screen[4][0].tobytes() == np.maximum(
        moduli._overlap_mass(sq * sq, shifts) + c4, 0.0).tobytes()


def test_multi_block_e2_screen_peak_memory(monkeypatch):
    # a 2-d whole-table grid, twice the box, over many blocks: the screen
    # holds the box's square, F1's last-axis spectra of the box's lines, a
    # few blocks and the kept rows, under one full grid spectrum; it held
    # two full spectra before the blocks
    import tracemalloc

    monkeypatch.setattr(moduli, "_BLOCK_BYTES", 1 << 18)
    n, r = 500, 16
    grid = [moduli._next_fast_len(2 * n - 1)] * 2
    half = grid[1] // 2 + 1
    arr = np.random.default_rng(5).standard_normal((n, n))
    shifts = moduli._half_shifts(2, r, n - 1)
    rows = r + 1
    held = arr.nbytes + n * half * 16 + 4 * moduli._BLOCK_BYTES + rows * half * 24
    assert held < grid[0] * half * 16
    tracemalloc.start()
    try:
        moduli._screen(arr, shifts, grid, (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_whole_p1_table_rechecks_a_fraction_of_its_half_ball(offset):
    # the boundary layer is added exactly, so Hölder bounds only the interior
    # part: the window screen's bounds had every shift evaluated
    level = 12
    f = GridFunction(1, level, sample(cusp(0.5), 1, level).samples + offset)
    grid = default_t_grid(level)
    curve = whole_curve(zero_extend(f, int(max(grid) * f.n)), 1.0, grid)
    assert curve.meta["exact"] is True and curve.meta["shifts"] == 1024
    assert curve.meta["rechecked"] <= curve.meta["shifts"] // 4


@pytest.mark.parametrize("d, level, p, kind, method, exact, shifts, rechecked", [
    (1, 8, 2, "interior", "bound", True, 128, 7),
    (2, 4, 3, "interior", "bound", True, 98, 6),
    (1, 8, 2, "whole", "bound", True, 128, 7),
    (2, 5, 1, "interior", "bound", True, 398, 192),
    (2, 5, 2, "interior", "corr", True, 398, 0),
    (3, 3, 1, "interior", "bound", True, 128, 56),
    (3, 3, 2, "interior", "bound", True, 128, 4),
])
def test_curve_provenance_counts(d, level, p, kind, method, exact, shifts, rechecked):
    f = sample(cusp(0.5, 0.3), d, level)
    grid = [2.0 ** -j for j in range(level - 1, 0, -1)]
    arr = zero_extend(f, f.n // 2) if kind == "whole" else f
    curve = (whole_curve if kind == "whole" else interior_curve)(arr, p, grid)
    meta = curve.meta
    assert (meta["method"], meta["exact"], meta["shifts"], meta["rechecked"]) == \
        (method, exact, shifts, rechecked)
    if method == "bound":
        direct = _enumerated_table(arr.samples, p, [t * f.n for t in grid],
                                   kind == "interior")
        assert list(curve.values) == [(power * arr.cell_volume) ** (1 / p)
                                      for power in direct.powers]


def test_single_scale_queries_flag_lower_bounds(monkeypatch):
    rng = np.random.default_rng(4)
    f = GridFunction(3, 3, rng.standard_normal((8, 8, 8)))
    g = zero_extend(f, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowerBoundWarning)
        for p in (2, 3):
            interior_modulus(f, p, 0.5)
            whole_modulus(g, p, 0.5)
            interior_ladder(f, p)
    # at most one direct evaluation per table: the 3-d tables stop at the budget
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", f.samples.size)
    bracket = r"direct-evaluation budget; it lies in the certified bracket t=0\.5: \["
    with pytest.warns(LowerBoundWarning, match=bracket):
        interior_modulus(f, 3, 0.5)
    with pytest.warns(LowerBoundWarning, match=bracket):
        whole_modulus(g, 3, 0.5)
    with pytest.warns(LowerBoundWarning, match="certified bracket"):
        interior_ladder(f, 3)


@pytest.mark.parametrize("kind", ["interior", "whole"])
@pytest.mark.parametrize("d, p", [(1, 3), (2, 2), (3, 1)])
def test_below_resolution_single_scale_query_builds_no_fft(kind, d, p, monkeypatch):
    f = sample(cusp(0.5), d, 3)
    arr = f if kind == "interior" else zero_extend(f, 2)
    query = interior_modulus if kind == "interior" else whole_modulus
    for name in ("_split", "_half_shifts", "_screen"):
        monkeypatch.setattr(moduli, name, _no_fft)
    monkeypatch.setattr(np.fft, "rfft", _no_fft)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert query(arr, p, 2.0 ** -5) == 0.0
    assert [w.category for w in caught] == [ResolutionWarning]
    assert caught[0].filename == __file__


def test_bracketed_single_scale_query_warns_at_the_callers_line(monkeypatch):
    rng = np.random.default_rng(4)
    f = GridFunction(3, 3, rng.standard_normal((8, 8, 8)))
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", f.samples.size)
    for query, arr in ((interior_modulus, f), (whole_modulus, zero_extend(f, 4))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            query(arr, 3, 0.5)
        assert [w.category for w in caught] == [LowerBoundWarning]
        assert (caught[0].filename, caught[0].lineno) == (__file__, line)


def test_hybrid_constant_attains_unit_scale():
    f = sample(const(2.0), 1, 10)
    for t in (2.0 ** -6, 2.0 ** -4, 2.0 ** -2):
        value, s = hybrid_modulus(f, 2, t)
        assert value == pytest.approx(2.0 * min(math.sqrt(t), 1.0), rel=1e-12)
        assert s == 1.0


def test_hybrid_zero_function():
    f = sample(const(0.0), 1, 8)
    value, _ = hybrid_modulus(f, 2, 0.125)
    assert value == 0.0


def test_hybrid_cube_indicator():
    f = sample(const(1.0), 1, 10)
    for p in (2.0, 3.0):
        value, s = hybrid_modulus(f, p, 2.0 ** -5)
        assert value == pytest.approx(min((2.0 ** -5) ** (1 / p), 1.0), rel=1e-12)
        assert s == 1.0


def test_hybrid_norm_cap_and_decay():
    for member in corpus():
        if member.d == 1:
            L, ps = 10, (1.0, 2.0, 3.0)
        else:
            L, ps = 9, (2.0,)
        f = sample(member.spec, member.d, L)
        for p in ps:
            norm = lp_norm(f, p)
            values = hybrid_curve(f, p, (2.0 ** (-L + 2), 2.0 ** -6, 2.0 ** -3, 0.25)).values
            assert np.all(values <= 3.0 * norm + 1e-12)
            fine, coarse = values[0], values[-1]
            assert fine <= coarse + 1e-12
            if member.name != "const1_d1" and norm > 0:
                assert fine <= 0.5 * 3.0 * norm


def test_hybrid_joint_objective_bound():
    # The plain sum bound fails for pairs like constant + rough (their mass
    # terms cannot share one scale), so the provable statement is checked:
    # the joint value never beats the per-scale sum of the two objectives.
    rng = np.random.default_rng(5)
    members = corpus(d=1)
    for _ in range(8):
        i, j = rng.integers(0, len(members), 2)
        fa = sample(members[i].spec, 1, 9)
        fb = sample(members[j].spec, 1, 9)
        for p in (2.0, 3.0):
            la = interior_ladder(fa, p)
            lb = interior_ladder(fb, p)
            na, nb = lp_norm(fa, p), lp_norm(fb, p)
            ts = (2.0 ** -6, 2.0 ** -4, 2.0 ** -2)
            for t, vab in zip(ts, hybrid_curve(fa + fb, p, ts).values):
                joint = min(
                    la[j2] + lb[j2] + min((t * 2 ** j2) ** (1 / p), 1.0) * (na + nb)
                    for j2 in range(len(la)))
                assert vab <= joint + 1e-9


def test_hybrid_p1_literal_log_term():
    # at s = t (dyadic, d = 1) the log factor vanishes, so the p = 1 value
    # is capped by the interior modulus at scale t
    f = sample(cusp(0.5), 1, 10)
    ladder = interior_ladder(f, 1)
    js = (7, 5, 3)
    for j, value in zip(js, hybrid_curve(f, 1, [2.0 ** -j for j in js]).values):
        assert value <= ladder[j] + 1e-12


@pytest.mark.parametrize("d, p", [(1, 1.0), (1, 2.0), (1, 3.0), (2, 2.0)])
def test_hybrid_modulus_is_the_row_of_a_one_point_curve(d, p):
    f = sample(cusp(0.5), d, 7 if d == 1 else 5)
    for t in (2.0 ** -5, 2.0 ** -3, 0.25, 0.5):
        curve = hybrid_curve(f, p, [t])
        assert hybrid_modulus(f, p, t) == (curve.points[0][1], curve.meta["s_opt"][0])
        assert curve.points[0][0] == t


def test_hybrid_curve_refuses_a_repeated_scale():
    f = sample(cusp(0.5), 1, 6)
    with pytest.raises(ValueError, match="strictly increasing"):
        hybrid_curve(f, 2, (0.25, 0.125, 0.25))


@pytest.mark.parametrize("query", ["interior", "whole", "hybrid"])
def test_repeated_scale_refused_before_any_table(monkeypatch, query):
    calls = []
    monkeypatch.setattr(moduli, "_build_table", lambda *args: calls.append(args))
    f = sample(cusp(0.5), 2, 5)
    arr = zero_extend(f, 16) if query == "whole" else f
    curve = {"interior": interior_curve, "whole": whole_curve, "hybrid": hybrid_curve}[query]
    with pytest.raises(ValueError, match="t values must be strictly increasing: t=0.25"):
        curve(arr, 2, [0.25, 0.125, 0.25])
    assert calls == []


def test_interior_ladder_matches_single_calls():
    f = sample(cusp(0.7), 1, 9)
    ladder = interior_ladder(f, 2)
    assert len(ladder) == f.level + 1
    for j in (0, 2, 4, 6, 9):
        assert ladder[j] == pytest.approx(interior_modulus(f, 2, 2.0 ** -j), rel=1e-12)


def test_curve_container_contracts():
    with pytest.raises(ValueError):
        ModulusCurve("interior", 2, ((0.5, 1.0), (0.25, 2.0)))  # t not increasing
    with pytest.raises(ValueError):
        ModulusCurve("interior", 2, ((0.25, 2.0), (0.5, 1.0)))  # not monotone
    with pytest.raises(ValueError):
        ModulusCurve("whole", 2, ((0.25, -1.0),))
    with pytest.raises(ValueError):
        ModulusCurve("mystery", 2, ((0.25, 1.0),))
    curve = ModulusCurve("hybrid", 2, ((0.25, 2.0), (0.5, 1.0)))  # hybrid may dip
    assert curve.values[0] == 2.0


def test_curve_csv_shape():
    f = sample(const(1.0), 1, 8)
    curve = interior_curve(f, 2, [0.125, 0.25], name="const value=1")
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,value,kind,p,d,L,function,flags"
    assert len(lines) == 3
    assert ",interior," in lines[1]


def test_default_grid_bounds():
    grid = default_t_grid(12)
    assert grid[0] == 2.0 ** -10 and grid[-1] == 0.25


def _no_fft(*args, **kwargs):
    raise AssertionError("shifts or an FFT were computed")


def test_oversized_correlation_table_refused_before_any_fft(monkeypatch):
    monkeypatch.setattr(moduli, "_screen", _no_fft)
    monkeypatch.setattr(moduli, "_half_shifts", _no_fft)
    # 2-d L=13: an 8192^2 array pads to a 16384^2 grid, 2^28 cells; a zero-stride
    # view stands in for the array, so nothing of that size is allocated
    with pytest.raises(ValueError, match="16384 x 16384 FFT grid of 268435456 cells"):
        moduli._build_table(np.broadcast_to(0.0, (8192, 8192)), 2, [1.0], True)
    monkeypatch.setattr(moduli, "_MAX_CELLS", 1 << 12)
    f = sample(cusp(0.5), 2, 6)  # 64^2 cells pad to a 128^2 grid
    with pytest.raises(ValueError, match="128 x 128 FFT grid of 16384 cells"):
        interior_curve(f, 2, [0.25])
    with pytest.raises(ValueError, match="FFT grid"):
        whole_curve(zero_extend(f, 16), 2, [0.25])


def test_correlation_tables_within_the_cap_pass_the_check(monkeypatch):
    monkeypatch.setattr(moduli, "_half_shifts", _no_fft)
    with pytest.raises(AssertionError, match="shifts or an FFT"):  # past the check
        # 2-d L=12 pads to an 8192^2 grid, 2^26 cells
        moduli._build_table(np.broadcast_to(0.0, (4096, 4096)), 2, [1.0], True)
