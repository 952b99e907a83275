import math

import numpy as np
import pytest
from scipy.special import ndtr

from zexlab.grid import (ExtendedGridFunction, GridFunction, const, corpus,
                         cusp, indicator, lp_norm, sample, zero_extend)
from zexlab.kernels import (FAMILIES, KernelSpec, apply_kernel,
                            apply_kernel_direct, error_curve,
                            error_modulus_ratio, error_norm,
                            extension_bound_check, kernel_radius_cells,
                            kernel_weights)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("box", 0.1)
    with pytest.raises(ValueError):
        KernelSpec("gauss", -0.1)
    with pytest.raises(ValueError):
        KernelSpec("gauss", 0.1, 0.9)


@pytest.mark.parametrize("family", FAMILIES)
def test_weights_nonnegative_unit_mass(family):
    # heavy-tailed families get a looser tail budget to keep radii sane
    spec = KernelSpec(family, 2.0 ** -4, 1e-6 if family == "gauss" else 2e-2)
    for d in (1, 2):
        mode, weights = kernel_weights(spec, d, 6)
        if mode == "separable":
            for w in weights:
                assert np.all(w >= 0)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(weights >= 0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_apply_zero_window():
    g = zero_extend(sample(const(0.0), 1, 6), 32)
    out = apply_kernel(KernelSpec("gauss", 0.05), g)
    assert not out.samples.any()


def test_apply_insufficient_margin():
    g = zero_extend(sample(const(1.0), 1, 8), 2)
    with pytest.raises(ValueError):
        apply_kernel(KernelSpec("gauss", 0.25), g)


def test_smoothed_indicator_midpoint_value():
    t = 2.0 ** -4
    spec = KernelSpec("gauss", t, 1e-6)
    f = sample(const(1.0), 1, 12)
    g = zero_extend(f, kernel_radius_cells(spec, 1, 12))
    out = apply_kernel(spec, g)
    mid = out.samples[out.margin + (1 << 11)]
    assert mid == pytest.approx(1.0 - 2.0 * ndtr(-0.5 / t), abs=1e-4)


def test_contraction_all_families():
    tails = {"gauss": 1e-6, "poisson": 1e-3, "fejer_tensor": 1e-3}
    for member in corpus(d=1)[:4]:
        f = sample(member.spec, 1, 8)
        for family in FAMILIES:
            spec = KernelSpec(family, 2.0 ** -4, tails[family])
            g = zero_extend(f, kernel_radius_cells(spec, 1, 8))
            out = apply_kernel(spec, g)
            for p in (1.0, 2.0, 3.0):
                assert lp_norm(out, p) <= lp_norm(g, p) + 1e-9


def test_linearity():
    rng = np.random.default_rng(21)
    spec = KernelSpec("gauss", 0.05)
    margin = kernel_radius_cells(spec, 1, 7)
    for _ in range(5):
        f = GridFunction(1, 7, rng.standard_normal(128))
        h = GridFunction(1, 7, rng.standard_normal(128))
        a, b = rng.uniform(-2, 2, 2)
        left = apply_kernel(spec, zero_extend(a * f + b * h, margin))
        right = a * apply_kernel(spec, zero_extend(f, margin)) \
            + b * apply_kernel(spec, zero_extend(h, margin))
        scale = np.abs(left.samples).max() or 1.0
        assert np.abs(left.samples - right.samples).max() <= 1e-10 * scale


def test_mass_preservation_on_constant_window():
    spec = KernelSpec("poisson", 0.03, 5e-2)
    level, margin = 7, 96
    n = 1 << level
    window = np.full(n + 2 * margin, 2.0)
    g = ExtendedGridFunction(1, level, margin, window)
    out = apply_kernel(spec, g)
    radius = kernel_radius_cells(spec, 1, level)
    interior = out.samples[radius:-radius]
    assert np.abs(interior - 2.0).max() <= 1e-12 * 2.0


def test_reflection_symmetry():
    f = sample(cusp(0.3, center=0.25), 1, 9)
    reflected = GridFunction(1, 9, f.samples[::-1])
    spec = KernelSpec("gauss", 2.0 ** -5)
    assert error_norm(spec, f, 2) == pytest.approx(
        error_norm(spec, reflected, 2), rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_fast_convolution_matches_direct(family):
    rng = np.random.default_rng(31)
    spec = KernelSpec(family, 0.08, 5e-2)
    for d, level in ((1, 6), (2, 4)):
        margin = kernel_radius_cells(spec, d, level)
        f = GridFunction(d, level, rng.standard_normal(((1 << level),) * d))
        g = zero_extend(f, margin)
        fast = apply_kernel(spec, g)
        direct = apply_kernel_direct(spec, g)
        scale = np.abs(direct.samples).max() or 1.0
        assert np.abs(fast.samples - direct.samples).max() <= 1e-10 * scale


def test_error_norm_zero_function():
    f = sample(const(0.0), 1, 8)
    assert error_norm(KernelSpec("gauss", 0.05), f, 2) == 0.0


def test_error_norm_indicator_against_quadrature():
    from scipy.integrate import quad

    t = 2.0 ** -4
    f = sample(const(1.0), 1, 12)
    measured = error_norm(KernelSpec("gauss", t, 1e-6), f, 2)

    def err_sq(x):
        smooth = ndtr(x / t) - ndtr((x - 1.0) / t)
        return (smooth - (1.0 if 0.0 <= x <= 1.0 else 0.0)) ** 2

    oracle = math.sqrt(sum(quad(err_sq, a, b, limit=200)[0]
                           for a, b in ((-1, 0), (0, 1), (1, 2))))
    assert measured == pytest.approx(oracle, rel=0.05)


def test_error_norm_indicator_slope():
    from zexlab.besov import fit_points

    f = sample(const(1.0), 1, 12)
    grid = [2.0 ** -j for j in range(7, 2, -1)]
    values = [error_norm(KernelSpec("gauss", t, 1e-6), f, 2) for t in grid]
    assert fit_points(grid, values).slope == pytest.approx(0.5, abs=0.05)


def test_ratio_table_flags_zero_modulus():
    f = sample(const(0.0), 1, 8)
    table = error_modulus_ratio("gauss", f, 2, [2.0 ** -4, 2.0 ** -3])
    assert all(r.flag == "undefined" for r in table.rows)
    assert table.ratios() == []


def test_ratio_band_and_flat_slope_for_cusp():
    from zexlab.besov import fit_points

    f = sample(cusp(0.5), 1, 11)
    grid = [2.0 ** -j for j in range(7, 2, -1)]
    table = error_modulus_ratio("gauss", f, 2, grid)
    assert table.band <= 10.0
    slope = fit_points([r.t for r in table.rows],
                       [r.ratio for r in table.rows]).slope
    assert -0.1 <= slope <= 0.1


def test_extension_bound_zero_function_flagged():
    f = sample(const(0.0), 1, 9)
    grid = [2.0 ** -j for j in range(6, 1, -1)]
    report = extension_bound_check("gauss", f, 2, grid)
    assert all(flag == "undefined" for flag in report.flags)
    assert report.passed  # nothing measurable, nothing violated


def test_extension_bound_constant_flat_ratio():
    f = sample(const(1.0), 1, 10)
    grid = [2.0 ** -j for j in range(7, 1, -1)]
    report = extension_bound_check("gauss", f, 2, grid)
    assert report.passed
    for r in report.modulus_ratio:
        assert r == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_error_curve_container():
    f = sample(indicator(0.0, 0.5), 1, 9)
    grid = [2.0 ** -5, 2.0 ** -4]
    curve = error_curve("gauss", f, 2, grid, name="halfbox")
    assert curve.kind == "error_norm"
    assert curve.meta["kernel"] == "gauss"
    assert len(curve.points) == 2


@pytest.mark.parametrize("measure", [
    lambda f, grid: error_curve("fejer_tensor", f, 2, grid, 1e-6),
    lambda f, grid: error_modulus_ratio("fejer_tensor", f, 2, grid, 1e-6),
    lambda f, grid: extension_bound_check("fejer_tensor", f, 2, grid, 1e-6),
], ids=["error_curve", "error_modulus_ratio", "extension_bound_check"])
def test_oversized_window_refused_before_any_window(monkeypatch, measure):
    # at L=6 the fejer_tensor window fits at t = 2^-10 but not at t = 1
    import zexlab.kernels

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return zero_extend(*args, **kwargs)

    monkeypatch.setattr(zexlab.kernels, "zero_extend", counting)
    with pytest.raises(ValueError, match="a window of"):
        measure(sample(cusp(0.5), 1, 6), (2.0 ** -10, 1.0))
    assert calls == []


def _whole_window(spec, g):
    """Reference: every axis convolved over every line of the window, by
    ``ndimage`` or, past the cutoff, by ``scipy.signal.fftconvolve`` (which
    the library never imports) on one worker."""
    from scipy import ndimage, signal

    import zexlab.kernels

    out = g.samples
    for axis, w in enumerate(kernel_weights(spec, g.d, g.level)[1]):
        if len(w) <= 2 * zexlab.kernels._FFT_KERNEL_CUTOFF + 1:
            out = ndimage.convolve1d(out, w, axis=axis, mode="constant", cval=0.0)
        else:
            line = w.reshape([-1 if a == axis else 1 for a in range(g.d)])
            out = signal.fftconvolve(out, line, mode="same", axes=axis)
    return out


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("cutoff", (256, 4), ids=["default", "fft"])
@pytest.mark.parametrize("family, d, level, t, tail", [
    ("gauss", 1, 8, 2.0 ** -5, 1e-6), ("gauss", 2, 5, 2.0 ** -3, 1e-6),
    ("gauss", 3, 3, 2.0 ** -2, 1e-6), ("fejer_tensor", 1, 6, 2.0 ** -4, 2e-2),
    ("fejer_tensor", 2, 5, 2.0 ** -4, 2e-2), ("fejer_tensor", 3, 2, 2.0 ** -2, 2e-1),
])
def test_support_only_passes_match_whole_window_bit_for_bit(monkeypatch, workers, cutoff,
                                                            family, d, level, t, tail):
    # cutoff 4 sends every kernel here down the FFT branch; a 3-d window
    # under the cell cap never reaches it at the default cutoff
    import zexlab.kernels

    monkeypatch.setattr(zexlab.kernels, "_FFT_KERNEL_CUTOFF", cutoff)
    monkeypatch.setattr(zexlab.kernels, "_WORKERS", workers)
    spec = KernelSpec(family, t, tail)
    radius = kernel_radius_cells(spec, d, level)
    rng = np.random.default_rng(d * 10 + level)
    f = GridFunction(d, level, rng.standard_normal(((1 << level),) * d))
    # a margin of exactly the radius, and a wider one as _error_and_modulus builds
    for margin in (radius, radius + (1 << level) + 3):
        g = zero_extend(f, margin)
        assert np.array_equal(apply_kernel(spec, g).samples, _whole_window(spec, g))


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("d, level, t", [(2, 4, 0.125), (2, 6, 0.0625), (3, 3, 0.125)])
def test_poisson_full_path_matches_fftconvolve_bit_for_bit(monkeypatch, workers, d, level,
                                                           t):
    from scipy import signal

    import zexlab.kernels

    spec = KernelSpec("poisson", t, 5e-2)
    mode, w = kernel_weights(spec, d, level)
    assert mode == "full"
    rng = np.random.default_rng(d * 10 + level)
    f = GridFunction(d, level, rng.standard_normal(((1 << level),) * d))
    radius = kernel_radius_cells(spec, d, level)
    monkeypatch.setattr(zexlab.kernels, "_WORKERS", workers)
    for margin in (radius, radius + (1 << level) + 3):
        g = zero_extend(f, margin)
        reference = signal.fftconvolve(g.samples, w, mode="same")  # one worker
        assert np.array_equal(apply_kernel(spec, g).samples, reference)


@pytest.mark.parametrize("workers", (1, 2))
def test_fft_convolve_batches_leading_axes_bit_for_bit(monkeypatch, workers):
    # leading axes are a batch; a support only skips lines that are zero anyway
    from scipy import signal

    import zexlab.kernels
    from zexlab.kernels import _fft_convolve

    monkeypatch.setattr(zexlab.kernels, "_WORKERS", workers)
    rng = np.random.default_rng(11)
    n, support = 24, slice(5, 17)
    for w in (rng.standard_normal(31), rng.standard_normal((9, 9))):
        m = w.ndim
        x = np.zeros((3,) + (n,) * m)
        x[(slice(None),) + (support,) * m] = rng.standard_normal((3,) + (12,) * m)
        axes = tuple(range(1, m + 1))
        reference = signal.fftconvolve(x, w[None], mode="same", axes=axes)  # one worker
        assert np.array_equal(_fft_convolve(x, w), reference)
        assert np.array_equal(_fft_convolve(x, w, support), reference)
