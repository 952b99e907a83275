import math

import numpy as np
import pytest

from zexlab.dyadic import (PiecewiseConstant, _mean_pyramid,
                           average_error_report, block_means, dyadic_average, equality_case, random_partition,
                           render_average, shift_bound_check, shift_bound_suite,
                           suite_to_csv, unit_ball_volume)
from zexlab.grid import (LatticeShift, const, corpus, cusp, linear, lp_norm,
                         random_dyadic, sample)


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


def test_suite_rows_and_csv():
    rows = shift_bound_suite(n_functions=8, shifts_each=3, seed=5)
    assert len(rows) == 8 * 3 * 3 + 1
    assert all(r["pass"] for r in rows)
    text = suite_to_csv(rows)
    assert text.startswith("seed,d,k,p,h,lhs,rhs,pass\n")
    assert text.strip().split("\n")[1].endswith("true")


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


def test_mean_pyramid_matches_block_means_bit_exact():
    for d, level in ((1, 9), (2, 6), (3, 4)):
        for spec in (cusp(0.5), random_dyadic(level - 1, 3), linear()):
            f = sample(spec, d, level)
            pyramid = _mean_pyramid(f.samples, d, level)
            assert len(pyramid) == level + 1
            for k in range(level + 1):
                assert np.array_equal(pyramid[k], block_means(f.samples, d, level, k))
