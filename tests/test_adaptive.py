import math

import numpy as np
import pytest

from zexlab.adaptive import (AdaptivePartition, ErrorPyramid, build_partition,
                             count_bound_report, default_epsilons, local_error,
                             sobolev_seminorm, verify_partition)
from zexlab.grid import const, corpus, cusp, indicator, linear, sample


def test_local_error_linear_root():
    f = sample(linear(), 1, 10)
    got = local_error(f, 0, (0,), 2)
    assert got == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-4)


def test_local_error_linear_half():
    f = sample(linear(), 1, 10)
    got = local_error(f, 1, (0,), 2)
    assert got == pytest.approx(math.sqrt(0.5 ** 3 / 12.0), abs=1e-4)


def test_local_error_constant():
    f = sample(const(9.0), 2, 5)
    assert local_error(f, 1, (0, 1), 3) == 0.0


def test_local_error_rejects_cubes_off_the_lattice():
    f = sample(linear(), 2, 4)
    for level, origin in ((-1, (0, 0)), (1, (0, 2)), (1, (-1, 0)), (5, (0, 0))):
        with pytest.raises(ValueError):
            local_error(f, level, origin, 2)


def test_pyramid_matches_local_error():
    f = sample(cusp(0.5), 2, 5)
    pyramid = ErrorPyramid(f, 2)
    for level, origin in ((0, (0, 0)), (1, (1, 0)), (3, (5, 2))):
        assert math.sqrt(pyramid.err_pow[level][origin]) == pytest.approx(
            local_error(f, level, origin, 2), rel=1e-12, abs=1e-15)


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


def _replace_level(part, k, origins, s_values, is_good):
    """part with level k replaced by the given arrays (appended when k is new)."""
    fields = [list(t) for t in (part.origins, part.s_values, part.is_good)]
    for field, arr in zip(fields, (origins, s_values, is_good)):
        field[k:k + 1] = [np.asarray(arr)]
    return AdaptivePartition(part.epsilon, *map(tuple, fields))


def test_verify_partition_reports_each_fault():
    f = sample(indicator(0.0, 0.3), 2, 4)
    part = build_partition(f, 2, 0.03)
    assert part.counts == (0, 3, 1, 7, 20) and verify_partition(part, f) == []

    def kinds(broken):
        return {problem.split(":")[0] for problem in verify_partition(broken, f)}

    def level(k):
        return [a.copy() for a in (part.origins[k], part.s_values[k], part.is_good[k])]

    o, s, g = level(1)  # a good cube flagged bad: its children are missing
    g[np.argmax(g)] = False
    assert kinds(_replace_level(part, 1, o, s, g)) == {"threshold", "tree", "tiling"}
    o, s, g = level(4)  # the same at the deepest level, which has no children
    g[np.argmax(g)] = False
    assert kinds(_replace_level(part, 4, o, s, g)) == {"threshold", "deepest", "tiling"}

    o, s, g = level(2)  # one child of a bad cube dropped
    keep = np.arange(len(g)) != np.argmax(g)
    assert kinds(_replace_level(part, 2, o[keep], s[keep], g[keep])) == {"tree", "tiling"}

    o, s, g = level(3)  # a good cube listed twice
    i = np.argmax(g)
    twice = [np.insert(a, i, a[i], axis=0) for a in (o, s, g)]
    assert kinds(_replace_level(part, 3, *twice)) == {"tree", "tiling"}

    o, s, g = level(2)  # the first child of a level-1 good cube, flagged good
    child = 2 * part.good[1][0]
    s_child = math.sqrt(ErrorPyramid(f, 2).err_pow[2][tuple(child)])
    assert s_child <= part.epsilon
    assert kinds(_replace_level(part, 2, np.vstack([o, child]), np.append(s, s_child),
                                np.append(g, True))) == {"tree", "tiling"}

    o, s, g = level(4)  # a single cell split below the lattice level
    i = np.argmax(g)
    g[i] = False
    below = 2 * o[i] + np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    broken = _replace_level(_replace_level(part, 4, o, s, g), 5, below, np.zeros(4),
                            np.ones(4, dtype=bool))
    assert kinds(broken) == {"threshold", "depth"}


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


@pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, -math.inf])
def test_build_partition_refuses_bad_threshold_before_the_pyramid(monkeypatch, epsilon):
    from zexlab import adaptive

    def no_pyramid(*args, **kwargs):
        raise AssertionError("a pyramid was built")

    monkeypatch.setattr(adaptive, "ErrorPyramid", no_pyramid)
    with pytest.raises(ValueError, match=f"epsilon must be > 0, got {epsilon!r}"):
        build_partition(sample(cusp(0.5), 1, 6), 2, epsilon)


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
