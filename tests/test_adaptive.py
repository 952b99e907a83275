import math

import numpy as np
import pytest

from zexlab.adaptive import (ErrorPyramid, adaptive_error_rate, build_partition,
                             count_bound_report, default_epsilons, local_error,
                             partition_objective, sobolev_seminorm,
                             verify_partition)
from zexlab.dyadic import DyadicCube, block_means, random_partition
from zexlab.grid import const, corpus, cusp, linear, random_dyadic, sample


def test_local_error_linear_root():
    f = sample(linear(), 1, 10)
    got = local_error(f, DyadicCube(0, (0,)), 2)
    assert got == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-4)


def test_local_error_linear_half():
    f = sample(linear(), 1, 10)
    got = local_error(f, DyadicCube(1, (0,)), 2)
    assert got == pytest.approx(math.sqrt(0.5 ** 3 / 12.0), abs=1e-4)


def test_local_error_constant():
    f = sample(const(9.0), 2, 5)
    assert local_error(f, DyadicCube(1, (0, 1)), 3) == 0.0


def test_pyramid_matches_local_error():
    f = sample(cusp(0.5), 2, 5)
    pyramid = ErrorPyramid(f, 2)
    for cube in (DyadicCube(0, (0, 0)), DyadicCube(1, (1, 0)),
                 DyadicCube(3, (5, 2))):
        assert pyramid.s_value(cube) == pytest.approx(
            local_error(f, cube, 2), rel=1e-12, abs=1e-15)


def test_build_partition_worked_example():
    f = sample(linear(), 1, 10)
    part = build_partition(f, 2, 0.15)
    assert part.n_total == 2 and part.depth == 1
    part = build_partition(f, 2, 0.3)
    assert part.n_total == 1 and part.depth == 0


def test_build_partition_constant_is_trivial():
    f = sample(const(5.0), 2, 4)
    part = build_partition(f, 2, 1e-9)
    assert part.n_total == 1 and part.depth == 0


def test_partition_invariants_on_corpus():
    for member in corpus():
        level = 8 if member.d == 1 else 6
        f = sample(member.spec, member.d, level)
        pyramid = ErrorPyramid(f, 2)
        for eps in default_epsilons(f, 2):
            part = build_partition(f, 2, eps, pyramid)
            assert verify_partition(part, f) == []


def test_partition_count_monotone_in_threshold():
    f = sample(cusp(0.5), 1, 9)
    pyramid = ErrorPyramid(f, 2)
    eps = sorted(default_epsilons(f, 2))
    counts = [build_partition(f, 2, e, pyramid).n_total for e in eps]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_partition_dump_format():
    f = sample(linear(), 1, 8)
    text = build_partition(f, 2, 0.15).to_text()
    lines = text.strip().split("\n")
    assert lines[0] == "level,origin_indices,S,status"
    assert lines[1].startswith("0,0,") and lines[1].endswith("bad")
    assert len([ln for ln in lines if ln.endswith("good")]) == 2


def test_objective_constant_uniform_partition():
    f = sample(const(1.0), 1, 8)
    for k in (1, 2, 3):
        cubes = [DyadicCube(k, (i,)) for i in range(1 << k)]
        t = 2.0 ** -5
        got = partition_objective(f, cubes, t, 2)
        assert got == pytest.approx(math.sqrt(min(t * 2 ** k, 1.0)), rel=1e-12)


def test_objective_zero_function():
    f = sample(const(0.0), 1, 6)
    cubes = [DyadicCube(1, (0,)), DyadicCube(1, (1,))]
    assert partition_objective(f, cubes, 0.25, 2) == 0.0


def test_objective_rejects_non_tiling():
    f = sample(linear(), 1, 6)
    with pytest.raises(ValueError):
        partition_objective(f, [DyadicCube(1, (0,))], 0.25, 2)
    with pytest.raises(ValueError, match="finer than the lattice"):
        partition_objective(sample(linear(), 1, 2),
                            [DyadicCube(3, (i,)) for i in range(8)], 0.25, 2)


def test_objective_matches_local_error_reference():
    rng = np.random.default_rng(5)
    for spec, d, level in ((cusp(0.5), 1, 9), (random_dyadic(3, 4), 2, 6),
                           (cusp(0.4), 3, 4)):
        f = sample(spec, d, level)
        for p in (1.0, 2.0, 3.0):
            cubes = random_partition(rng, d, min(level, 4))
            t = 2.0 ** -4
            total = 0.0
            for cube in cubes:
                block = f.samples[cube.cell_slices(level)]
                mean = block_means(block, d, level - cube.level, 0).item()
                total += local_error(f, cube, p) ** p
                total += min(math.sqrt(d) * t / cube.side, 1.0) * cube.volume \
                    * abs(mean) ** p
            assert partition_objective(f, cubes, t, p) == pytest.approx(
                total ** (1.0 / p), rel=1e-12, abs=1e-15)


def test_sobolev_seminorm_values():
    assert sobolev_seminorm(sample(const(3.0), 1, 7), 2) == 0.0
    assert sobolev_seminorm(sample(linear(), 1, 9), 2) == pytest.approx(1.0, abs=1e-9)
    assert sobolev_seminorm(sample(linear(), 2, 6), 2) == pytest.approx(
        math.sqrt(2.0), abs=1e-9)
    assert sobolev_seminorm(sample(linear(), 3, 4), 2) == pytest.approx(
        math.sqrt(3.0), abs=1e-9)


def test_partition_invariants_in_three_dimensions():
    f = sample(cusp(0.5), 3, 4)
    part = build_partition(f, 2, 0.01)
    assert verify_partition(part, f) == []
    assert part.n_total >= 8


def test_count_report_eta_guard():
    f = sample(linear(), 3, 3)
    with pytest.raises(ValueError):
        count_bound_report(f, 3.0, 1.0, [0.1])  # eta = 1/3 - 1 + 1/3 < 0


def test_count_report_planar_ramp():
    f = sample(linear(), 2, 9)
    report = count_bound_report(f, 2, 2, [2.0 ** -j for j in range(3, 9)])
    assert report.eta == pytest.approx(0.5)
    assert [r.n_total for r in report.rows] == [4, 16, 16, 64, 64, 256]
    assert report.slope is not None and report.slope.slope <= 1.1
    for row in report.rows:
        assert row.min_side >= row.min_side_bound / 2.0
    assert math.isfinite(report.bad_level_constant)


def test_count_report_ratio_constant_stable_under_refinement():
    coarse = count_bound_report(sample(linear(), 2, 7), 2, 2,
                                [2.0 ** -j for j in range(3, 7)])
    fine = count_bound_report(sample(linear(), 2, 9), 2, 2,
                              [2.0 ** -j for j in range(3, 7)])
    assert fine.ratio_constant == pytest.approx(coarse.ratio_constant, rel=0.10)


def test_count_report_constant_function():
    f = sample(const(2.0), 1, 8)
    report = count_bound_report(f, 2, 2, [0.5, 0.25, 0.125, 0.0625])
    assert all(r.n_total == 1 for r in report.rows)
    assert report.slope.slope == pytest.approx(0.0, abs=1e-12)


def test_objective_on_adaptive_vs_uniform_partition():
    # both partition styles evaluate; no ordering is promised between them
    from zexlab.moduli import hybrid_modulus

    f = sample(cusp(0.5), 1, 9)
    t = 2.0 ** -5
    part = build_partition(f, 2, 0.05)
    adaptive_value = partition_objective(
        f, [node.cube for node in part.good_cubes()], t, 2)
    _, s_opt = hybrid_modulus(f, 2, t)
    k = int(round(-math.log2(s_opt)))
    uniform_value = partition_objective(
        f, [DyadicCube(k, (i,)) for i in range(1 << k)], t, 2)
    assert adaptive_value > 0 and uniform_value > 0
    assert math.isfinite(adaptive_value) and math.isfinite(uniform_value)


def test_adaptive_error_rate_zero_function():
    f = sample(const(0.0), 1, 8)
    report = adaptive_error_rate(f, 2, 2, [2.0 ** -j for j in range(6, 2, -1)])
    assert all(v == 0.0 for v in report.surrogate)
    assert all(v == 0.0 for v in report.measured)
    assert report.surrogate_fit is None and report.measured_fit is None


def test_adaptive_error_rate_indicator_slope():
    f = sample(const(1.0), 1, 10)
    grid = [2.0 ** -j for j in range(7, 2, -1)]
    report = adaptive_error_rate(f, 2, 2, grid)
    assert report.measured_fit is not None
    assert report.measured_fit.slope == pytest.approx(0.5, abs=0.05)


def test_adaptive_error_rate_ramp_beats_supplied_rate():
    # compound predicted exponent at alpha=1, p=q=2, d=1 is 2/7
    beta_user = 1.0 / (2.0 + 3.0 / 2.0)
    f = sample(linear(), 1, 10)
    grid = [2.0 ** -j for j in range(7, 2, -1)]
    report = adaptive_error_rate(f, 2, 2, grid)
    assert report.measured_fit.slope >= beta_user - 0.05
    assert all(v > 0 for v in report.surrogate)
