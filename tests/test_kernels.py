import math

import numpy as np
import pytest
from scipy.special import ndtr

from reference import apply_kernel_direct
from zexlab.grid import (ExtendedGridFunction, GridFunction, const, corpus,
                         cusp, indicator, linear, lp_norm, sample, zero_extend)
from zexlab.kernels import (FAMILIES, KernelSpec, apply_kernel, default_tail, error_curve,
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


def test_extension_bound_refuses_a_repeated_scale():
    f = sample(cusp(0.5), 1, 8)
    with pytest.raises(ValueError, match="strictly increasing"):
        extension_bound_check("gauss", f, 2, [2.0 ** -5, 2.0 ** -4, 2.0 ** -5])


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
    ``ndimage`` or, past the cutoff, by ``scipy.signal.fftconvolve``, which
    the library never imports."""
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


@pytest.mark.parametrize("cutoff", (256, 4), ids=["default", "fft"])
@pytest.mark.parametrize("family, d, level, t, tail", [
    ("gauss", 1, 8, 2.0 ** -5, 1e-6), ("gauss", 2, 5, 2.0 ** -3, 1e-6),
    ("gauss", 3, 3, 2.0 ** -2, 1e-6), ("fejer_tensor", 1, 6, 2.0 ** -4, 2e-2),
    ("fejer_tensor", 2, 5, 2.0 ** -4, 2e-2), ("fejer_tensor", 3, 2, 2.0 ** -2, 2e-1),
])
def test_support_only_passes_match_whole_window_bit_for_bit(monkeypatch, cutoff, family, d,
                                                            level, t, tail):
    # cutoff 4 sends every kernel here down the FFT branch; a 3-d window
    # under the cell cap never reaches it at the default cutoff
    import zexlab.kernels

    monkeypatch.setattr(zexlab.kernels, "_FFT_KERNEL_CUTOFF", cutoff)
    spec = KernelSpec(family, t, tail)
    radius = kernel_radius_cells(spec, d, level)
    rng = np.random.default_rng(d * 10 + level)
    f = GridFunction(d, level, rng.standard_normal(((1 << level),) * d))
    # a margin of exactly the radius, and a wider one as _error_and_modulus builds
    for margin in (radius, radius + (1 << level) + 3):
        g = zero_extend(f, margin)
        assert np.array_equal(apply_kernel(spec, g).samples, _whole_window(spec, g))


# _BLOCK_BYTES values that give one-line blocks, blocks whose last one is
# shorter on every pass below, and one block for everything
_BUDGETS = pytest.mark.parametrize("budget", (1, 4000, 1 << 40),
                                   ids=["one-line", "uneven", "one-block"])


@pytest.mark.parametrize("budget", (4000, 8 << 20), ids=["small", "default"])
@pytest.mark.parametrize("d, level, t", [(2, 4, 0.125), (2, 6, 0.0625), (3, 3, 0.125),
                                         (3, 4, 0.0625)])
def test_poisson_full_path_matches_fftconvolve_bit_for_bit(monkeypatch, budget, d, level, t):
    from scipy import signal

    import zexlab.moduli

    spec = KernelSpec("poisson", t, 5e-2)
    mode, w = kernel_weights(spec, d, level)
    assert mode == "full"
    rng = np.random.default_rng(d * 10 + level)
    f = GridFunction(d, level, rng.standard_normal(((1 << level),) * d))
    radius = kernel_radius_cells(spec, d, level)
    monkeypatch.setattr(zexlab.moduli, "_BLOCK_BYTES", budget)
    for margin in (radius, radius + (1 << level) + 3):
        g = zero_extend(f, margin)
        reference = signal.fftconvolve(g.samples, w, mode="same")
        assert np.array_equal(apply_kernel(spec, g).samples, reference)


@_BUDGETS
@pytest.mark.parametrize("batch, n, k", [((3, 5), 40, (31,)), ((3,), 24, (9, 9)),
                                         ((2,), 12, (5, 5, 5))], ids=["m1", "m2", "m3"])
def test_fft_convolve_batches_leading_axes_bit_for_bit(monkeypatch, budget, batch, n, k):
    # leading axes are a batch; a support only skips lines that are zero anyway;
    # the blocks split lines, never a line, so no budget moves a bit
    from scipy import signal

    import zexlab.moduli
    from zexlab.kernels import _fft_convolve

    monkeypatch.setattr(zexlab.moduli, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(11)
    w, m, support = rng.standard_normal(k), len(k), slice(n // 4, n // 4 + n // 2)
    x = np.zeros(batch + (n,) * m)
    x[(..., *(support,) * m)] = rng.standard_normal(batch + (n // 2,) * m)
    axes = tuple(range(len(batch), len(batch) + m))
    reference = signal.fftconvolve(x, w.reshape((1,) * len(batch) + k), mode="same",
                                   axes=axes)
    assert np.array_equal(_fft_convolve(x, [w]), reference)
    assert np.array_equal(_fft_convolve(x, [w], support), reference)
    out = x.copy()  # in place, as the separable kernels' last axis runs
    assert _fft_convolve(out, [w], out=out) is out
    assert np.array_equal(out, reference)


@pytest.mark.parametrize("family, d, level, tail", [
    ("gauss", 1, 8, 1e-6), ("gauss", 2, 5, 1e-6), ("fejer_tensor", 1, 6, 2e-2),
    ("fejer_tensor", 2, 5, 2e-2), ("fejer_tensor", 3, 2, 2e-1)])
def test_separable_passes_only_read_the_window(family, d, level, tail):
    # the last axis runs in place in the intermediate window, never in g's
    g = zero_extend(sample(cusp(0.5), d, level),
                    kernel_radius_cells(KernelSpec(family, 0.125, tail), d, level))
    before = g.samples.copy()
    out = apply_kernel(KernelSpec(family, 0.125, tail), g).samples
    assert not np.shares_memory(out, g.samples)
    assert np.array_equal(g.samples, before) and not g.samples.flags.writeable


def test_poisson_convolution_peak_memory():
    # gate 7's 2-d Poisson window: the call holds the weights, the kernel's
    # and the support lines' last-axis spectra, the n^(m-1) x (fast/2 + 1)
    # array of kept lines and the output, plus a few blocks; before blocking
    # it held three full fast x (fast/2 + 1) spectra
    import tracemalloc

    from scipy import fft as sfft

    import zexlab.moduli

    spec = KernelSpec("poisson", 2.0 ** -5, 1e-2)
    g = zero_extend(sample(cusp(0.5), 2, 8), kernel_radius_cells(spec, 2, 8))
    side, n, k = g.samples.shape[0], g.n, kernel_weights(spec, 2, 8)[1].shape[0]
    fast = sfft.next_fast_len(side + k - 1, True)
    half = fast // 2 + 1
    held = k * k * 8 + (k + n + side) * half * 16 + g.samples.nbytes
    bound = held + 4 * zexlab.moduli._BLOCK_BYTES
    multiple = bound / g.samples.nbytes
    assert bound < 3 * fast * half * 16
    tracemalloc.start()
    try:
        apply_kernel(spec, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < multiple * g.samples.nbytes


def test_gate_poisson_call_peaks_under_100_mib():
    # gate 7's 2-d Poisson call on linear_d2: the weights go once their
    # spectrum is made, each column piece once spread, and the kept columns
    # grow block by block; 132.9 MiB when the weights, their whole spectrum
    # and a full kept-lines array were held together
    import tracemalloc

    spec = KernelSpec("poisson", 2.0 ** -5, default_tail("poisson", 2))
    g = zero_extend(sample(linear(), 2, 8), kernel_radius_cells(spec, 2, 8))
    tracemalloc.start()
    try:
        apply_kernel(spec, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20


# (family, d, level, t, tail) whose weights take the direct branch: every
# separable family and dimension
_DIRECT = pytest.mark.parametrize("family, d, level, t, tail", [
    ("gauss", 1, 8, 2.0 ** -5, 1e-6), ("gauss", 2, 5, 2.0 ** -3, 1e-6),
    ("gauss", 3, 3, 2.0 ** -2, 1e-6), ("fejer_tensor", 1, 6, 2.0 ** -4, 2e-2),
    ("fejer_tensor", 2, 5, 2.0 ** -4, 2e-2), ("fejer_tensor", 3, 2, 2.0 ** -2, 2e-1),
    ("poisson", 1, 6, 2.0 ** -4, 1e-2),
])


@_DIRECT
@pytest.mark.parametrize("in_place", (False, True), ids=["out-of-place", "in-place"])
def test_direct_convolution_matches_ndimage_bit_for_bit(family, d, level, t, tail, in_place):
    from scipy import ndimage

    from zexlab.kernels import _FFT_KERNEL_CUTOFF, _direct_convolve

    mode, weights = kernel_weights(KernelSpec(family, t, tail), d, level)
    w = weights[0]
    assert mode == "separable" and len(w) <= 2 * _FFT_KERNEL_CUTOFF + 1
    side = (1 << level) + len(w) - 1  # the window apply_kernel convolves
    x = np.random.default_rng(d * 10 + level).standard_normal((side,) * d)
    for axis in range(d):
        reference = ndimage.convolve1d(x, w, axis=axis, mode="constant", cval=0.0)
        a = x.copy()
        got = _direct_convolve(a, w, axis, a if in_place else None)
        assert (got is a) == in_place
        assert got.tobytes() == reference.tobytes()
        if not in_place:
            assert np.array_equal(a, x)


def _strided_convolve(a: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """The direct convolution's sums taken in place along ``axis``, strided
    slices on the last: the layout the moved-axis branch replaced."""
    r, n = len(w) // 2, a.shape[axis]

    def cells(lo):
        return (slice(None),) * axis + (slice(lo, lo + n),)

    padded = np.zeros(a.shape[:axis] + (n + 2 * r,) + a.shape[axis + 1:])
    padded[cells(r)] = a
    out = padded[cells(r)] * w[r]
    for j in range(r, 0, -1):
        out += (padded[cells(r - j)] + padded[cells(r + j)]) * w[r - j]
    return out


@pytest.mark.parametrize("in_place", (False, True), ids=["out-of-place", "in-place"])
@pytest.mark.parametrize("shape", [(7, 40), (40, 7), (5, 6, 33), (3, 30, 1)])
def test_last_axis_convolution_equals_the_strided_sums(shape, in_place):
    from zexlab.kernels import _direct_convolve

    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for taps in (1, 3, 17, 2 * shape[-1] + 1):
        half = rng.random(taps // 2 + 1)
        w = np.concatenate([half[:0:-1], half])  # symmetric, w[r] = half[0]
        x = rng.standard_normal(shape)
        reference = _strided_convolve(x, w, len(shape) - 1)
        a = x.copy()
        got = _direct_convolve(a, w, len(shape) - 1, a if in_place else None)
        assert (got is a) == in_place and got.flags.c_contiguous
        assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_weights_are_exactly_symmetric(family, d):
    # the direct branch adds x[i - j] + x[i + j] before weighting, which
    # ndimage does only for weights symmetric to DBL_EPSILON: ours are equal
    level = (6, 4, 3)[d - 1]
    for t in (2.0 ** -4, 2.0 ** -6):
        mode, weights = kernel_weights(KernelSpec(family, t, default_tail(family, d)), d,
                                       level)
        for w in weights if mode == "separable" else [weights]:
            for axis in range(w.ndim):
                assert np.array_equal(w, np.flip(w, axis))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_gauss_radius_cells_match_the_erfcinv_formula(d):
    # Newton on math.erfc stands in for scipy's erfcinv: within an ulp or
    # two, and the same cell counts at every default tail; the scales 2^-j,
    # j = 0..L, hold the default grid (j = 2..L-2) and gate 7's
    from scipy.special import erfcinv

    from zexlab.grid import _MAX_CELLS
    from zexlab.kernels import _DEFAULT_TAILS, truncation_radius

    for tail in sorted({tail for tails in _DEFAULT_TAILS.values() for tail in tails}):
        root = float(erfcinv(tail / d))
        for level in range(1, 15):
            for t in (2.0 ** -j for j in range(level + 1)):
                spec = KernelSpec("gauss", t, tail)
                radius = t * math.sqrt(2.0) * root
                assert truncation_radius(spec, d) == pytest.approx(radius, rel=5e-16)
                cells = max(math.ceil(radius * (1 << level)), 1)
                if ((1 << level) + 2 * cells) ** d > _MAX_CELLS:
                    with pytest.raises(ValueError, match="a window of"):
                        kernel_radius_cells(spec, d, level)
                else:
                    assert kernel_radius_cells(spec, d, level) == cells


@pytest.mark.parametrize("measure", [error_curve, error_modulus_ratio, extension_bound_check])
def test_repeated_scale_refused_before_any_kernel(monkeypatch, measure):
    import zexlab.kernels

    calls = []
    monkeypatch.setattr(zexlab.kernels, "apply_kernel", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="t values must be strictly increasing"):
        measure("gauss", sample(cusp(0.5), 1, 6), 2.0, [2.0 ** -4, 2.0 ** -4])
    assert calls == []


@pytest.mark.parametrize("measure", [error_curve, error_modulus_ratio, extension_bound_check])
def test_nan_scale_refused_with_a_scale_message(measure):
    # the kernels' scales pass the modulus curves' rule; a NaN once reached
    # the radius and died converting it to an integer
    with pytest.raises(ValueError, match="scale t must be finite and > 0, got t=nan"):
        measure("gauss", sample(cusp(0.5), 1, 6), 2.0, [math.nan, 0.25])


def test_api_default_tail_gives_the_cli_bytes(tmp_path):
    # a tail of None is the family's default_tail in f's dimension, as the
    # CLI's; the 1e-6 the API once used asked an 8e6-cell radius here
    from zexlab.cli import main
    from zexlab.grid import parse_spec
    from zexlab.moduli import default_t_grid

    (tmp_path / "run.cfg").write_text("function = cusp alpha=0.5\nd = 2\nL = 5\n"
                                      "kernel = poisson\n")
    out = tmp_path / "out"
    assert main(["kernel-error", "--config", str(tmp_path / "run.cfg"),
                 "--out", str(out)]) == 0
    spec = parse_spec("cusp alpha=0.5")
    curve = error_curve("poisson", sample(spec, 2, 5), 2.0, default_t_grid(5),
                        name=spec.describe())
    assert curve.meta["truncation_tail"] == default_tail("poisson", 2) == 0.01
    assert curve.to_csv() == (out / "kernel_error_poisson_p2.csv").read_text()


@pytest.mark.parametrize("measure", [error_curve, error_modulus_ratio, extension_bound_check])
def test_default_tail_is_the_family_default(measure):
    f = sample(cusp(0.5), 1, 6)
    grid = [2.0 ** -j for j in range(5, 1, -1)]
    assert measure("poisson", f, 2.0, grid) == \
        measure("poisson", f, 2.0, grid, default_tail("poisson", 1))
