import math
import warnings

import numpy as np
import pytest

from zexlab import moduli
from zexlab.grid import (ExtendedGridFunction, GridFunction, const, corpus,
                         cusp, linear, lp_norm, random_dyadic, sample,
                         zero_extend)
from zexlab.moduli import (LowerBoundWarning, ModulusCurve, ResolutionWarning,
                           default_t_grid, hybrid_modulus, interior_curve,
                           interior_dyadic_values, interior_ladder,
                           interior_modulus, whole_curve, whole_modulus)


def test_interior_modulus_of_cube_indicator_vanishes():
    f = sample(const(1.0), 1, 8)
    for t in (2.0 ** -6, 2.0 ** -3, 0.5, 1.0):
        assert interior_modulus(f, 2, t) == 0.0


def test_interior_modulus_of_any_constant_vanishes():
    f = sample(const(3.7), 2, 5)
    assert interior_modulus(f, 1, 0.25) == 0.0


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


def test_curve_flags_scales_below_resolution():
    f = sample(cusp(0.5), 1, 6)
    curve = interior_curve(f, 2, [2.0 ** -8, 2.0 ** -3])
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
    """One supremum engine's value at scale t, bypassing the table choice."""
    rmax = t * n
    if engine == "corr":
        table = moduli._corr_table(arr, rmax, cellvol, interior)
    else:
        table = moduli._enumerated_table(arr, p, rmax, cellvol, interior,
                                         engine == "structured")
    return table.lookup_power(rmax) ** (1.0 / p)


def test_correlation_method_matches_direct():
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = GridFunction(2, 5, rng.standard_normal((32, 32)))
        for t in (2.0 ** -4, 2.0 ** -2, 0.5):
            a = _engine(f.samples, 2, t, f.n, f.cell_volume, True, "direct")
            b = _engine(f.samples, 2, t, f.n, f.cell_volume, True, "corr")
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
            assert interior_modulus(f, 2, t) == b  # d = 2, p = 2 picks corr
        g = zero_extend(f, 16)
        for t in (2.0 ** -4, 2.0 ** -2):
            a = _engine(g.samples, 2, t, g.n, g.cell_volume, False, "direct")
            b = _engine(g.samples, 2, t, g.n, g.cell_volume, False, "corr")
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
            assert whole_modulus(g, 2, t) == b


def test_structured_method_is_lower_bound():
    rng = np.random.default_rng(11)
    f = GridFunction(2, 5, rng.standard_normal((32, 32)))
    for p in (1.0, 3.0):
        for t in (2.0 ** -3, 2.0 ** -2):
            exact = _engine(f.samples, p, t, f.n, f.cell_volume, True, "direct")
            lower = _engine(f.samples, p, t, f.n, f.cell_volume, True, "structured")
            assert lower <= exact + 1e-12
            assert lower >= 0.25 * exact  # direction set catches the bulk
            assert interior_modulus(f, p, t) == exact  # small enough for direct


def test_three_d_uses_flagged_direction_set():
    rng = np.random.default_rng(4)
    f = GridFunction(3, 3, rng.standard_normal((8, 8, 8)))
    for p in (1.0, 3.0):
        curve = interior_curve(f, p, [0.25, 0.5])
        assert curve.meta["exact"] is False
        assert curve.meta["method"] == "structured"
        assert all(flag == "lower_bound" for flag in curve.flags)


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
            assert curve.meta["exact"] is True and curve.meta["method"] == "corr"
            assert curve.flags == ("",) * len(grid)
            for t, value in zip(grid, curve.values):
                args = (arr.samples, 2, t, arr.n, arr.cell_volume, interior)
                assert value == _engine(*args, "direct")
                assert value >= _engine(*args, "structured")


def test_correlation_confirm_survives_cancellation():
    # on 1e4 + cusp the screened values lose about eight digits, so many
    # shifts fall within the screening bound and are rechecked directly
    level = 12
    f = GridFunction(1, level, sample(cusp(0.5), 1, level).samples + 1e4)
    grid = default_t_grid(level)
    g = zero_extend(f, int(max(grid) * f.n))
    for arr, curve in ((f, interior_curve(f, 2, grid)), (g, whole_curve(g, 2, grid))):
        direct = moduli._enumerated_table(arr.samples, 2, max(grid) * arr.n,
                                          arr.cell_volume, curve.kind == "interior",
                                          False)
        assert curve.meta["method"] == "corr"
        assert list(curve.values) == [direct.lookup_power(t * arr.n) ** 0.5
                                      for t in grid]
    assert interior_curve(f, 2, grid).meta["rechecked"] > 100


def test_single_scale_queries_flag_lower_bounds():
    rng = np.random.default_rng(4)
    f = GridFunction(3, 3, rng.standard_normal((8, 8, 8)))
    g = zero_extend(f, 4)
    with pytest.warns(LowerBoundWarning):
        interior_modulus(f, 3, 0.5)
    with pytest.warns(LowerBoundWarning):
        whole_modulus(g, 3, 0.5)
    with pytest.warns(LowerBoundWarning):
        interior_dyadic_values(f, 3, [1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowerBoundWarning)
        interior_modulus(f, 2, 0.5)
        whole_modulus(g, 2, 0.5)
        interior_dyadic_values(f, 2, [1, 2])


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
