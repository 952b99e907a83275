import math

import numpy as np
import pytest

from zexlab.dyadic import (_SUITE_MAX_LEVEL, _SUITE_P, PiecewiseConstant, _mean_pyramid,
                           _refine, average_error, average_error_report, dyadic_average,
                           equality_case, random_partition, random_shift, render_average,
                           shift_bound_check, shift_bound_suite, suite_to_csv,
                           unit_ball_volume)
from zexlab.grid import (GridFunction, LatticeShift, _abs_pow, const, corpus, cusp,
                         linear, lp_norm, random_dyadic, sample, zero_extend)
from zexlab.moduli import LowerBoundWarning, interior_curve, whole_curve

from reference import _average_error_rendered, shifted_samples


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == pytest.approx(4.18879020478639, abs=1e-12)


def test_average_linear_halves():
    f = sample(linear(), 1, 10)
    pc = dyadic_average(f, 1)
    assert np.array_equal(pc.values, [0.25, 0.75])


def test_average_constant():
    f = sample(const(2.5), 2, 5)
    for level in (0, 2, 4):
        pc = dyadic_average(f, level)
        assert np.all(pc.values == 2.5)


def test_average_at_full_level_is_identity():
    f = sample(random_dyadic(2, 8), 2, 4)
    pc = dyadic_average(f, 4)
    assert np.array_equal(pc.values, f.samples.ravel())


def test_average_is_projection_bit_exact():
    f = sample(cusp(0.3), 1, 8)
    once = render_average(f, 3)
    twice = render_average(once, 3)
    assert np.array_equal(once.samples, twice.samples)


def test_average_is_lp_contraction():
    for member in corpus():
        level = 8 if member.d == 1 else 5
        f = sample(member.spec, member.d, level)
        for p in (1.0, 2.0, 3.0):
            for n in range(0, level):
                assert lp_norm(render_average(f, n), p) <= lp_norm(f, p) + 1e-12


def test_average_error_vanishes_at_full_resolution():
    f = sample(random_dyadic(3, 5), 1, 7)
    assert lp_norm(f - render_average(f, 7), 2) == 0.0


def test_average_error_linear_exact_value():
    # fine lattice: the discrete error sqrt(1/48 - 2^(-2L-1)/6) meets the
    # analytic 1/(4 sqrt(3)) only once L >= 17
    f = sample(linear(), 1, 18)
    err = lp_norm(f - render_average(f, 1), 2)
    assert err == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), abs=1e-10)


def test_average_error_constant_is_zero():
    f = sample(const(4.0), 1, 8)
    for n in (0, 2, 5):
        err, bound, _ = average_error_report(f, n, 2)
        assert err == 0.0 and bound == 0.0


def test_average_error_bounded_by_modulus():
    for member in corpus(d=1):
        f = sample(member.spec, 1, 8)
        for p in (1.0, 2.0):
            for n in (1, 3, 5):
                err, bound, constant = average_error_report(f, n, p)
                assert err <= bound + 1e-12
                assert constant == pytest.approx((2.0 * 1.0) ** (1.0 / p))


def test_average_error_level_guard():
    f = sample(linear(), 1, 6)
    with pytest.raises(ValueError):
        average_error_report(f, 5, 2)
    for level in (-1, 7):
        with pytest.raises(ValueError, match="0..L"):
            render_average(f, level)


def _deviation_inputs(d: int, level: int):
    """(samples, the first average level whose deviations are all exactly 0)."""
    rng = np.random.default_rng(17 * d + level)
    shape = (1 << level,) * d
    yield rng.standard_normal(shape), level
    yield 1e4 + rng.standard_normal(shape), level  # the deviations from each mean cancel
    yield rng.integers(-2, 3, shape).astype(float), level
    yield sample(cusp(0.5, 0.3), d, level).samples, level
    for k in {0, level // 2, level}:  # piecewise constant on the level-k cells
        yield sample(random_dyadic(k, level), d, level).samples, k


def test_average_error_equals_the_rendered_difference_bit_for_bit():
    for d, top in ((1, 9), (2, 6), (3, 4)):
        for level in range(1, top + 1):
            for samples, exact_from in _deviation_inputs(d, level):
                f = GridFunction(d, level, samples)
                for n in range(level + 1):
                    for p in (1.0, 1.5, 2.0, 3.0):
                        err = average_error(f, n, p)
                        assert err == _average_error_rendered(f, n, p)
                        if n >= exact_from:
                            assert err == 0.0


def test_average_error_renders_nothing(monkeypatch):
    def no_render(*args, **kwargs):
        raise AssertionError("the average was rendered")

    monkeypatch.setattr(PiecewiseConstant, "render", no_render)
    monkeypatch.setattr(PiecewiseConstant, "__post_init__", no_render)
    f = sample(cusp(0.5), 2, 6)
    assert average_error(f, 2, 2.0) > 0.0
    assert average_error(f, 6, 2.0) == 0.0


def test_average_error_report_looks_its_scale_up_in_a_shared_curve():
    f = sample(cusp(0.5), 1, 9)
    for p in (1.0, 2.0, 3.0):
        curve = interior_curve(f, p, [2.0 ** -n for n in range(0, 8)])
        for n in range(0, 8):
            err, bound, constant = average_error_report(f, n, p, curve)
            assert (err, bound, constant) == average_error_report(f, n, p)
            assert err == average_error(f, n, p)
            assert bound == constant * dict(curve.points)[2.0 ** -n]
    with pytest.raises(ValueError, match="no point at the scale"):
        average_error_report(f, 3, 2.0, interior_curve(f, 2.0, [0.25, 0.5]))


@pytest.mark.parametrize("other", ["p", "kind", "d", "L"])
def test_average_error_report_refuses_a_curve_not_of_f_at_p(other):
    f = sample(cusp(0.5), 1, 6)
    curve = {"p": lambda: interior_curve(f, 3.0, [0.25]),
             "kind": lambda: whole_curve(zero_extend(f), 2.0, [0.25]),
             "d": lambda: interior_curve(sample(cusp(0.5), 2, 6), 2.0, [0.25]),
             "L": lambda: interior_curve(sample(cusp(0.5), 1, 7), 2.0, [0.25])}[other]()
    with pytest.raises(ValueError, match="must be f's interior curve at p=2, d=1, L=6"):
        average_error_report(f, 2, 2.0, curve)


def test_average_error_report_flags_a_bracketed_scale(monkeypatch):
    from zexlab import moduli

    rng = np.random.default_rng(4)
    f = GridFunction(3, 4, rng.standard_normal((16, 16, 16)))
    monkeypatch.setattr(moduli, "_DIRECT_WORK_BUDGET", f.samples.size)
    curve = interior_curve(f, 3, [0.125, 0.25])
    assert curve.flags == ("lower_bound", "lower_bound")
    with pytest.warns(LowerBoundWarning, match=r"bracket t=0\.25: \[[^;]*$"):
        average_error_report(f, 2, 3, curve)


def test_shift_bound_equality_case():
    row = equality_case()
    assert row["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert row["rhs"] == pytest.approx(1.0, abs=1e-12)


def test_shift_bound_zero_shift():
    pc = PiecewiseConstant.from_uniform(1, 1, np.array([1.0, -1.0]))
    lhs, rhs = shift_bound_check(pc, LatticeShift((0,), 3), 1)
    assert lhs == 0.0 and rhs == 0.0


def test_shift_bound_uniform_and_general_forms():
    rng = np.random.default_rng(123)
    for case in range(10):
        d = 1 + case % 2
        k = int(rng.integers(1, 4))
        if case % 3 == 0:
            origins = random_partition(rng, d, k)
            pc = PiecewiseConstant(d, origins, rng.standard_normal(sum(map(len, origins))))
        else:
            m = 1 << k
            pc = PiecewiseConstant.from_uniform(d, k, rng.standard_normal((m,) * d))
        level = pc.max_level + 2
        n = 1 << level
        for _ in range(4):
            kvec = rng.integers(-n, n + 1, size=d)
            if not kvec.any() or (kvec * kvec).sum() > n * n:
                continue
            shift = LatticeShift(tuple(int(v) for v in kvec), level)
            for p in (1.0, 2.0, 3.0):
                lhs, rhs = shift_bound_check(pc, shift, p)
                assert lhs <= rhs + 1e-12


def test_shift_bound_check_refuses_a_shift_coarser_than_the_partition():
    pc = PiecewiseConstant.from_uniform(1, 3, np.ones(8))
    with pytest.raises(ValueError, match="shift resolution must refine the partition"):
        shift_bound_check(pc, LatticeShift((1,), 2), 1.0)


def test_shift_bound_check_refuses_a_shift_of_another_dimension():
    pc = PiecewiseConstant.from_uniform(1, 1, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="shift dimension mismatch"):
        shift_bound_check(pc, LatticeShift((1, 1), 3), 1.0)


def test_shift_bound_check_refuses_an_oversized_lattice_before_refining(monkeypatch):
    # refining to a level-28 shift's 2^28 cells would take 2 GiB
    from zexlab import dyadic, grid

    refine = dyadic._refine

    def bounded_refine(a, b=2):
        if a.size * b ** a.ndim > grid._MAX_CELLS:
            raise AssertionError(f"refined {a.shape} by {b} past the cell limit")
        return refine(a, b)

    monkeypatch.setattr(dyadic, "_refine", bounded_refine)
    pc = PiecewiseConstant.from_uniform(1, 1, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match=f"limit {grid._MAX_CELLS}"):
        shift_bound_check(pc, LatticeShift((1,), 28), 2.0)


def test_suite_rows_and_csv():
    rows = shift_bound_suite(n_functions=8, shifts_each=3, seed=5)
    assert len(rows) == 8 * 3 * 3 + 1
    assert all(r["pass"] for r in rows)
    text = suite_to_csv(rows)
    assert text.startswith("seed,d,k,p,h,lhs,rhs,pass\n")
    assert text.strip().split("\n")[1].endswith("true")


def _check_per_shift_and_p(pc, shift, p):
    """Both sides as one ``shift_bound_check`` call computed them before the
    suite shared each shift's difference: a render, a window and a
    difference per (shift, p), and the power over every cell."""
    rendered = pc.render(shift.level)
    ext = zero_extend(rendered, max(1, max(abs(v) for v in shift.k)))
    delta = shifted_samples(ext.samples, shift.k) - ext.samples
    lhs = float(_abs_pow(delta, p).sum() * ext.cell_volume)
    root_d = math.sqrt(pc.d)
    if pc.uniform_level is not None:
        rhs = (2.0 ** p) * min(shift.length * (1 << pc.uniform_level) * root_d, 1.0) \
            * pc.norm_power(p)
    else:
        levels = pc.cube_levels()
        sides = np.ldexp(1.0, -levels)
        vols = np.ldexp(1.0, -pc.d * levels)
        weights = np.minimum(root_d * shift.length / sides, 1.0)
        rhs = (2.0 ** p) * float((weights * vols * _abs_pow(pc.values, p)).sum())
    return lhs, rhs


@pytest.mark.parametrize("seed", [5, 7, 12])
def test_suite_rows_equal_one_check_per_shift_and_p(seed):
    # the suite's draws replayed, each (shift, p) checked on its own: the
    # rows match value for value over d = 1 and 2, uniform and not
    n_functions, shifts_each = 8, 3
    rows = shift_bound_suite(n_functions, shifts_each, seed)
    expected, kinds = [], set()
    case_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=n_functions)
    for i, case_seed in enumerate(case_seeds):
        rng = np.random.default_rng(int(case_seed))
        d, uniform = 1 + i % 2, (i // 2) % 2 == 0
        k = int(rng.integers(1, _SUITE_MAX_LEVEL + 1))
        if uniform:
            pc = PiecewiseConstant.from_uniform(d, k, rng.standard_normal((1 << k,) * d))
        else:
            origins = random_partition(rng, d, k)
            pc = PiecewiseConstant(d, origins, rng.standard_normal(sum(map(len, origins))))
        kinds.add((d, uniform))
        for _ in range(shifts_each):
            shift = random_shift(rng, d, pc.max_level + 2)
            for p in _SUITE_P:
                lhs, rhs = _check_per_shift_and_p(pc, shift, p)
                assert (lhs, rhs) == shift_bound_check(pc, shift, p)
                expected.append({"seed": int(case_seed), "d": d,
                                 "k": k if uniform else pc.max_level, "p": p,
                                 "h": shift.length, "lhs": lhs, "rhs": rhs,
                                 "pass": lhs <= rhs + 1e-12})
    lhs, rhs = _check_per_shift_and_p(PiecewiseConstant.from_uniform(1, 1, [1.0, -1.0]),
                                      LatticeShift((1,), 2), 1.0)
    assert (rows[-1]["lhs"], rows[-1]["rhs"]) == (lhs, rhs)
    assert rows[:-1] == expected and rows[-1] == equality_case()
    assert kinds == {(1, True), (1, False), (2, True), (2, False)}


def test_suite_refuses_negative_counts_before_any_draw(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # any draw would fail
    for kwargs, shown in (({"n_functions": -3}, "n_functions must be >= 0, got -3"),
                          ({"shifts_each": -1}, "shifts_each must be >= 0, got -1")):
        with pytest.raises(ValueError, match=shown):
            shift_bound_suite(**kwargs)


def test_suite_deterministic():
    a = suite_to_csv(shift_bound_suite(n_functions=6, shifts_each=2, seed=9))
    b = suite_to_csv(shift_bound_suite(n_functions=6, shifts_each=2, seed=9))
    assert a == b


def test_partition_validation():
    none = np.empty((0, 1), dtype=int)
    with pytest.raises(ValueError, match="tile"):
        # two overlapping root cubes
        PiecewiseConstant(1, (np.array([[0], [0]]),), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="tile"):
        # a hole: only half the cube covered
        PiecewiseConstant(1, (none, np.array([[0]])), np.array([1.0]))
    with pytest.raises(ValueError, match="tile"):
        PiecewiseConstant(1, (), np.array([]))
    for origin in (-1, 2):  # outside the level-1 lattice; -1 would wrap to 1
        with pytest.raises(ValueError):
            PiecewiseConstant(1, (none, np.array([[0], [origin]])), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # origins of the wrong dimension
        PiecewiseConstant(2, (np.array([[0]]),), np.array([1.0]))
    with pytest.raises(ValueError, match="uniform"):
        PiecewiseConstant(1, (none, np.array([[0], [1]])), np.array([1.0, 2.0]),
                          uniform_level=2)


def test_render_round_trip():
    rng = np.random.default_rng(2)
    origins = random_partition(rng, 2, 3)
    pc = PiecewiseConstant(2, origins, rng.standard_normal(sum(map(len, origins))))
    f = pc.render(5)
    # every cube's block of cells holds that cube's value
    values = iter(pc.values)
    for k, level in enumerate(origins):
        b = 1 << (5 - k)
        for o in level.tolist():
            block = f.samples[tuple(slice(v * b, (v + 1) * b) for v in o)]
            assert np.all(block == next(values))
    assert lp_norm(f, 2) ** 2 == pytest.approx(pc.norm_power(2), rel=1e-12)
    with pytest.raises(ValueError):
        pc.render(pc.max_level - 1)


def test_mean_pyramid_is_a_projection_bit_exact():
    # a level refined back to the lattice is constant on its blocks: its own
    # pyramid returns that level, and every coarser one, bit for bit
    for d, level in ((1, 9), (2, 6), (3, 4)):
        for spec in (cusp(0.5), random_dyadic(level - 1, 3), linear()):
            f = sample(spec, d, level)
            pyramid = _mean_pyramid(f.samples, d, level)
            assert len(pyramid) == level + 1
            for k, means in enumerate(pyramid):
                assert means.shape == (1 << k,) * d
                refined = _refine(means, 1 << (level - k))
                again = _mean_pyramid(refined, d, level)
                for j in range(k + 1):
                    assert np.array_equal(again[j], pyramid[j])
                # the averages read the same pyramid
                assert np.array_equal(render_average(f, k).samples, refined)
                assert np.array_equal(dyadic_average(f, k).values, means.ravel())
