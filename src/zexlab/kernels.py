"""Approximate identities by convolution and their error operators.

Three nonnegative unit-mass families, each with a fixed scale map:

* ``gauss``         density with standard deviation t (separable)
* ``poisson``       the d-dimensional Poisson kernel with scale t (radial)
* ``fejer_tensor``  tensor product of line Fejer kernels with bandwidth 1/t

Kernels are truncated to a radius chosen so the omitted mass stays within the
requested tail budget, then renormalized to exact unit discrete mass.  With a
nonnegative unit-mass kernel the smoothing is an L^p contraction, so that
property is exact here rather than approximate; the price is that the
truncated kernel lives on a finite window, with the budget that fixed its
radius carried in :class:`KernelSpec`.

The error operator is smoothing minus identity applied to zero-extensions,
measured in L^p over the padded window.

Short separable kernels convolve by direct sums (``ndimage``); long ones and
the d-dim Poisson kernel by one FFT routine that repeats
``scipy.signal.fftconvolve``'s passes bit for bit without importing it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy import ndimage
from scipy.special import erfcinv

from .besov import fit_points
from .grid import (_MAX_CELLS, _WORKERS, ExtendedGridFunction, GridFunction,
                   _check_exponent, _shift_cells, lp_norm, shifted_samples, zero_extend)
from .moduli import (ModulusCurve, _irfftn_kept, hybrid_modulus, interior_ladder,
                     whole_modulus)

FAMILIES = ("gauss", "poisson", "fejer_tensor")

# error/hybrid and modulus/hybrid log-log slopes below this fail the bound
_SLOPE_FLOOR = -0.05
_FFT_KERNEL_CUTOFF = 256  # 1-d kernels longer than this convolve via FFT


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, scale, and truncation tail budget."""

    family: str
    t: float
    truncation_tail: float = 1e-6

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.t <= 0:
            raise ValueError("kernel scale must be positive")
        if not 0 < self.truncation_tail < 0.5:
            raise ValueError(f"truncation tail budget must lie in (0, 0.5), "
                             f"got {self.truncation_tail:g}")


def _poisson3_radius_factor(tail: float) -> float:
    # solve (2/pi)(atan(x) - x/(1+x^2)) = 1 - tail for x by bisection
    lo, hi = 1.0, 1e12
    target = 1.0 - tail
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        mass = (2.0 / math.pi) * (math.atan(mid) - mid / (1.0 + mid * mid))
        if mass < target:
            lo = mid
        else:
            hi = mid
    return hi


def truncation_radius(spec: KernelSpec, d: int) -> float:
    """Physical radius keeping the omitted mass within the tail budget."""
    t, tail = spec.t, spec.truncation_tail
    if spec.family == "gauss":
        # separable: split the tail budget across the axes
        return t * math.sqrt(2.0) * float(erfcinv(tail / d))
    if spec.family == "fejer_tensor":
        # per-axis tail of the line Fejer kernel is at most 4 t / (pi R)
        per_axis = tail / d
        return 4.0 * t / (math.pi * per_axis)
    if spec.family == "poisson":
        if d == 1:
            return t / math.tan(math.pi * tail / 2.0)
        if d == 2:
            return t * math.sqrt(1.0 / (tail * tail) - 1.0)
        return t * _poisson3_radius_factor(tail)
    raise AssertionError(spec.family)


def kernel_radius_cells(spec: KernelSpec, d: int, level: int) -> int:
    """Truncation radius in cells; refuses a radius whose window, the cube
    plus the radius on each side, would exceed ``_MAX_CELLS``."""
    r = max(int(math.ceil(truncation_radius(spec, d) * (1 << level))), 1)
    cells = ((1 << level) + 2 * r) ** d
    if cells > _MAX_CELLS:
        raise ValueError(
            f"tail budget {spec.truncation_tail:g} at t={spec.t:g} needs a {r}-cell "
            f"radius, a window of {cells} cells (limit {_MAX_CELLS}); "
            "relax the budget or coarsen the lattice")
    return r


def _profile_1d(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    t = spec.t
    if spec.family == "gauss":
        return np.exp(-0.5 * (xs / t) ** 2)
    if spec.family == "fejer_tensor":
        lam = 1.0 / t
        return lam / (2.0 * math.pi) * np.sinc(lam * xs / (2.0 * math.pi)) ** 2
    raise AssertionError(spec.family)


def kernel_weights(spec: KernelSpec, d: int, level: int):
    """("separable", per-axis weights) or ("full", d-dim weights); mass 1."""
    r = kernel_radius_cells(spec, d, level)
    h = 2.0 ** (-level)
    offsets = np.arange(-r, r + 1) * h
    if spec.family in ("gauss", "fejer_tensor"):
        w = _profile_1d(spec, offsets)
        w = w / w.sum()
        return "separable", [w] * d
    # poisson: radial, non-separable beyond one dimension
    t = spec.t
    if d == 1:
        w = t / (t * t + offsets ** 2)
        return "separable", [w / w.sum()]
    grids = np.meshgrid(*([offsets] * d), indexing="ij")
    rsq = sum(g * g for g in grids)
    w = t / (t * t + rsq) ** ((d + 1) / 2.0)
    return "full", w / w.sum()


def _convolve_axis(a: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    if len(w) <= 2 * _FFT_KERNEL_CUTOFF + 1:
        return ndimage.convolve1d(a, w, axis=axis, mode="constant", cval=0.0)
    return np.moveaxis(_fft_convolve(np.moveaxis(a, axis, -1), w), -1, axis)


def _convolve_separable(g: ExtendedGridFunction, weights) -> np.ndarray:
    """Axis by axis: before axis a is smoothed the window vanishes off the
    core [margin, margin + n) on axes a+1..d-1, so only those lines are
    convolved, at full window length, into one zero window."""
    core = slice(g.margin, g.margin + g.n)
    out = g.samples
    for axis, w in enumerate(weights[:-1]):
        lines = (slice(None),) * (axis + 1) + (core,) * (g.d - axis - 1)
        smoothed = _convolve_axis(out[lines], w, axis)
        if out is g.samples:
            out = np.zeros_like(out)
        out[lines] = smoothed
    return _convolve_axis(out, weights[-1], g.d - 1)


def _fft_convolve(x: np.ndarray, w: np.ndarray, support: slice | None = None) -> np.ndarray:
    """``signal.fftconvolve(x, w, "same")`` over the last ``m = w.ndim`` axes
    of x, bit for bit; the leading axes are a batch, and the m axes are all
    as long as x's last.  Its rfftn transforms the last axis, then the other
    m - 1 in order; its irfftn those m - 1, then the last with the 1/N
    scaling as one product per value (``moduli._irfftn_kept``).  The same
    passes run here, skipping the lines that are zero going in (off
    ``support`` on the axes still to come, all of x's by default) or cropped
    coming out."""
    m, n, k = w.ndim, x.shape[-1], w.shape[0]
    fast = sfft.next_fast_len(n + k - 1, True)

    def spectrum(y, support):
        if m == 1:
            return sfft.rfft(y, fast, axis=-1, workers=_WORKERS)
        out = np.zeros(y.shape[:-m] + (fast,) * (m - 1) + (fast // 2 + 1,), complex)
        lines = (..., *(support,) * (m - 1), slice(None))
        out[lines] = sfft.rfft(y[lines], fast, axis=-1, workers=_WORKERS)
        for axis in range(m - 1):
            lines = (..., *(slice(None),) * (axis + 1), *(support,) * (m - 2 - axis),
                     slice(None))
            out[lines] = sfft.fft(out[lines], axis=axis - m, workers=_WORKERS)
        return out

    prod = spectrum(x, slice(0, n) if support is None else support)
    prod *= spectrum(w, slice(0, k))
    crop = slice((k - 1) // 2, (k - 1) // 2 + n)
    return _irfftn_kept(prod, (fast,) * m, (crop,) * m, _WORKERS)


def apply_kernel(spec: KernelSpec, g: ExtendedGridFunction) -> ExtendedGridFunction:
    """Convolve the window with the truncated, renormalized kernel.

    Linear, and an exact L^p contraction for every p >= 1.  Requires the
    margin to cover the truncation radius so the smoothed support stays
    inside the window.  Separable kernels convolve, on each axis but the
    last, only the lines that meet the cube's support: n^(d-1) of the
    W^(d-1) lines on the first axis, W the window side.  Long separable
    kernels and the d-dim Poisson kernel share one FFT routine
    (``_fft_convolve``), which runs each pass only over the lines that can be
    nonzero or are kept.  Every line is computed as over the whole window, so
    the output is bit for bit the same.  The FFT passes run on every usable
    core (``grid._WORKERS``).
    """
    radius = kernel_radius_cells(spec, g.d, g.level)
    if radius > g.margin:
        raise ValueError(
            f"kernel radius {radius} cells exceeds margin {g.margin}; re-extend")
    mode, weights = kernel_weights(spec, g.d, g.level)
    if mode == "separable":
        out = _convolve_separable(g, weights)
    else:
        out = _fft_convolve(g.samples, weights, slice(g.margin, g.margin + g.n))
    return ExtendedGridFunction(g.d, g.level, g.margin, out)


def apply_kernel_direct(spec: KernelSpec, g: ExtendedGridFunction) -> ExtendedGridFunction:
    """Direct-sum convolution; regression reference for the fast paths."""
    radius = kernel_radius_cells(spec, g.d, g.level)
    if radius > g.margin:
        raise ValueError("kernel radius exceeds margin")
    mode, weights = kernel_weights(spec, g.d, g.level)
    if mode == "separable":
        full = weights[0]
        for w in weights[1:]:
            full = np.multiply.outer(full, w)
    else:
        full = weights
    out = np.zeros_like(g.samples)
    r = (full.shape[0] - 1) // 2
    for idx in np.ndindex(*full.shape):
        k = tuple(int(i) - r for i in idx)
        out += full[idx] * shifted_samples(g.samples, k)
    return ExtendedGridFunction(g.d, g.level, g.margin, out)


def error_norm(spec: KernelSpec, f: GridFunction, p: float) -> float:
    """L^p size of (smoothing - identity) applied to the zero-extension."""
    _check_exponent(p)
    g = zero_extend(f, kernel_radius_cells(spec, f.d, f.level))
    return lp_norm(apply_kernel(spec, g) - g, p)


def _kernel_specs(family: str, f: GridFunction, t_grid, truncation_tail: float) -> list:
    """The kernel of every scale in ascending t, once every window is known to fit:
    checked largest first, an oversized one is refused before any is built."""
    specs = [KernelSpec(family, t, truncation_tail) for t in sorted(t_grid)]
    for spec in specs[::-1]:
        kernel_radius_cells(spec, f.d, f.level)
    return specs


def _error_and_modulus(spec: KernelSpec, f: GridFunction, p: float) -> tuple:
    """(smoothing error, extension modulus) of f at scale spec.t on one window.

    The margin holds both the kernel and the largest shift.  Each t keeps its
    own window: the window size sets numpy's summation order, so one shared
    window would move the last bits of some moduli.
    """
    radius = kernel_radius_cells(spec, f.d, f.level)
    g = zero_extend(f, max(radius, _shift_cells(spec.t, f.n), 1))
    err = lp_norm(apply_kernel(spec, g) - g, p)
    return err, whole_modulus(g, p, spec.t)


# ---------------------------------------------------------------------------
# hypothesis-style ratio tables


@dataclass(frozen=True)
class RatioRow:
    t: float
    error: float
    modulus: float
    ratio: float
    flag: str


@dataclass(frozen=True)
class RatioTable:
    family: str
    p: float
    rows: tuple

    def ratios(self):
        return [r.ratio for r in self.rows if not r.flag]

    @property
    def band(self) -> float:
        vals = self.ratios()
        if not vals or min(vals) <= 0:
            return math.inf
        return max(vals) / min(vals)


def error_modulus_ratio(family: str, f: GridFunction, p: float, t_grid,
                        truncation_tail: float = 1e-6) -> RatioTable:
    """Per-scale ratio of the smoothing error to the extension modulus.

    A flat, bounded ratio is the empirical signature that the two quantities
    are equivalent for this kernel family.  Rows where the modulus vanishes
    (globally constant window) are flagged undefined rather than infinite.
    """
    _check_exponent(p)
    if p <= 1:
        raise ValueError("the equivalence band applies to p > 1")
    rows = []
    for spec in _kernel_specs(family, f, t_grid, truncation_tail):
        err, om = _error_and_modulus(spec, f, p)
        if om <= 0:
            rows.append(RatioRow(spec.t, err, om, math.nan, "undefined"))
        else:
            rows.append(RatioRow(spec.t, err, om, err / om, ""))
    return RatioTable(family, p, tuple(rows))


@dataclass(frozen=True)
class ExtensionBoundReport:
    t_values: tuple
    error_ratio: tuple      # smoothing error over the hybrid modulus
    modulus_ratio: tuple    # extension modulus over the hybrid modulus
    error_slope: float | None
    modulus_slope: float | None
    max_error_ratio: float
    max_modulus_ratio: float
    flags: tuple
    passed: bool


def extension_bound_check(family: str, f: GridFunction, p: float, t_grid,
                          truncation_tail: float = 1e-6) -> ExtensionBoundReport:
    """Boundedness of error/hybrid and extension-modulus/hybrid as t shrinks.

    Both ratios should stay bounded, so their fitted log-log slopes must not
    be meaningfully negative.  Scales where the hybrid modulus vanishes (the
    zero function) are flagged and excluded from the fits.
    """
    specs = _kernel_specs(family, f, t_grid, truncation_tail)
    ts = tuple(spec.t for spec in specs)
    ladder = interior_ladder(f, p)
    norm = lp_norm(f, p)
    r_err, r_mod, flags = [], [], []
    for spec in specs:
        err, om = _error_and_modulus(spec, f, p)
        hyb, _ = hybrid_modulus(f, p, spec.t, ladder=ladder, norm=norm)
        if hyb <= 0:
            r_err.append(math.nan)
            r_mod.append(math.nan)
            flags.append("undefined")
        else:
            r_err.append(err / hyb)
            r_mod.append(om / hyb)
            flags.append("")
    clean = [i for i, fl in enumerate(flags) if not fl]
    err_slope = mod_slope = None
    if len(clean) >= 4:
        tt = [ts[i] for i in clean]
        if all(r_err[i] > 0 for i in clean):
            err_slope = fit_points(tt, [r_err[i] for i in clean]).slope
        if all(r_mod[i] > 0 for i in clean):
            mod_slope = fit_points(tt, [r_mod[i] for i in clean]).slope
    max_err = max((r_err[i] for i in clean), default=math.nan)
    max_mod = max((r_mod[i] for i in clean), default=math.nan)
    passed = (err_slope is None or err_slope >= _SLOPE_FLOOR) and \
             (mod_slope is None or mod_slope >= _SLOPE_FLOOR)
    return ExtensionBoundReport(ts, tuple(r_err), tuple(r_mod), err_slope,
                                mod_slope, max_err, max_mod, tuple(flags), passed)


def error_curve(family: str, f: GridFunction, p: float, t_grid,
                truncation_tail: float = 1e-6, name: str = ""):
    """Error-norm curve in the standard modulus-curve container."""
    points = [(spec.t, error_norm(spec, f, p))
              for spec in _kernel_specs(family, f, t_grid, truncation_tail)]
    meta = {"d": f.d, "L": f.level, "function": name, "kernel": family,
            "truncation_tail": truncation_tail}
    return ModulusCurve("error_norm", p, tuple(points), meta)
