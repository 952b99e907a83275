import inspect
import math
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

from zexlab import moduli
from zexlab.grid import (ExtendedGridFunction, GridFunction, const, corpus,
                         cusp, indicator, linear, lp_norm, random_dyadic, sample,
                         zero_extend)
from zexlab.moduli import (LowerBoundWarning, ModulusCurve, ResolutionWarning,
                           default_t_grid, hybrid_curve, hybrid_modulus, interior_curve,
                           interior_dyadic_values, interior_ladder,
                           interior_modulus, whole_curve, whole_modulus)


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
    direct = moduli._enumerated_table(g.samples, 2, [t * g.n for t in grid], False)
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
        table = moduli._enumerated_table(arr, p, radii, interior)
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
    # 2 n - 1 cells of the cube per axis, a fast length; the window's: 128
    assert curve.meta["method"] == "corr" and grids == [[63, 63]]


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
            direct = moduli._enumerated_table(arr.samples, p, [t * arr.n for t in grid],
                                              curve.kind == "interior")
            assert curve.meta["method"] == "bound" and curve.meta["exact"] is True
            assert list(curve.values) == [(power * arr.cell_volume) ** (1 / p)
                                          for power in direct.powers]
        assert interior_curve(f, p, grid).meta["rechecked"] < direct.shifts // 3


@pytest.mark.parametrize("shape", [(4096,), (3072, 3072), (1036, 1036), (640, 640),
                                   (112, 112, 112)])
def test_row_restricted_inverse_equals_irfftn_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape))
    spectrum_shape = (*shape[:-1], shape[-1] // 2 + 1)
    rows = shape[0] // 4 + 1
    keep = (slice(0, rows),) + (slice(None),) * (len(shape) - 1)
    for real in (False, True):
        spectrum = rng.standard_normal(spectrum_shape)
        if not real:
            spectrum = spectrum + 1j * rng.standard_normal(spectrum_shape)
        expected = sfft.irfftn(spectrum, shape)[:rows]
        got = moduli._irfftn_kept(spectrum.copy(), shape, keep)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


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
        direct = moduli._enumerated_table(arr.samples, p, [t * f.n for t in grid],
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
            interior_dyadic_values(f, p, [1, 2])
    # at most one direct evaluation per table: the 3-d tables stop at the budget
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", f.samples.size)
    bracket = r"direct-evaluation budget; it lies in the certified bracket t=0\.5: \["
    with pytest.warns(LowerBoundWarning, match=bracket):
        interior_modulus(f, 3, 0.5)
    with pytest.warns(LowerBoundWarning, match=bracket):
        whole_modulus(g, 3, 0.5)
    with pytest.warns(LowerBoundWarning, match="certified bracket"):
        interior_dyadic_values(f, 3, [1, 2])


@pytest.mark.parametrize("kind", ["interior", "whole"])
@pytest.mark.parametrize("d, p", [(1, 3), (2, 2), (3, 1)])
def test_below_resolution_single_scale_query_builds_no_fft(kind, d, p, monkeypatch):
    f = sample(cusp(0.5), d, 3)
    arr = f if kind == "interior" else zero_extend(f, 2)
    query = interior_modulus if kind == "interior" else whole_modulus
    for name in ("_split", "_half_shifts", "_screen"):
        monkeypatch.setattr(moduli, name, _no_fft)
    monkeypatch.setattr(moduli.sfft, "rfftn", _no_fft)
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
            ladder = interior_ladder(f, p)
            norm = lp_norm(f, p)
            for t in (2.0 ** -6, 2.0 ** -3, 2.0 ** -2):
                value, _ = hybrid_modulus(f, p, t, ladder=ladder, norm=norm)
                assert value <= 3.0 * norm + 1e-12
            fine, _ = hybrid_modulus(f, p, 2.0 ** (-L + 2), ladder=ladder, norm=norm)
            coarse, _ = hybrid_modulus(f, p, 0.25, ladder=ladder, norm=norm)
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
            lab = interior_ladder(fa + fb, p)
            na, nb = lp_norm(fa, p), lp_norm(fb, p)
            nab = lp_norm(fa + fb, p)
            for t in (2.0 ** -6, 2.0 ** -4, 2.0 ** -2):
                vab, _ = hybrid_modulus(fa + fb, p, t, ladder=lab, norm=nab)
                joint = min(
                    la[j2] + lb[j2] + min((t * 2 ** j2) ** (1 / p), 1.0) * (na + nb)
                    for j2 in range(len(la)))
                assert vab <= joint + 1e-9


def test_hybrid_p1_literal_log_term():
    # at s = t (dyadic, d = 1) the log factor vanishes, so the p = 1 value
    # is capped by the interior modulus at scale t
    f = sample(cusp(0.5), 1, 10)
    ladder = interior_ladder(f, 1)
    for j in (3, 5, 7):
        value, _ = hybrid_modulus(f, 1, 2.0 ** -j, ladder=ladder)
        assert value <= ladder[j] + 1e-12


def test_interior_dyadic_values_match_single_calls():
    f = sample(cusp(0.7), 1, 9)
    vals = interior_dyadic_values(f, 2, [2, 4, 6])
    for j in (2, 4, 6):
        assert vals[j] == pytest.approx(interior_modulus(f, 2, 2.0 ** -j), rel=1e-12)


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
