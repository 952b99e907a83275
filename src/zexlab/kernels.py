"""Approximate identities by convolution and their error operators.

Three nonnegative unit-mass families, each with a fixed scale map:

* ``gauss``         density with standard deviation t (separable)
* ``poisson``       the d-dimensional Poisson kernel with scale t (radial)
* ``fejer_tensor``  tensor product of line Fejer kernels with bandwidth 1/t

Kernels are truncated to a radius chosen so the omitted mass stays within the
tail budget (None: the family's ``default_tail`` in f's dimension), then
renormalized to exact unit discrete mass.  With a nonnegative unit-mass kernel
the smoothing is an L^p contraction, so that property is exact here rather
than approximate; the price is that the truncated kernel lives on a finite
window, with the budget that fixed its radius carried in :class:`KernelSpec`.

The error operator is smoothing minus identity applied to zero-extensions,
measured in L^p over the padded window.

Short separable kernels convolve by direct symmetric sums; long ones and
the d-dim Poisson kernel by ``moduli._fft_product``, the one FFT routine, in
``scipy.signal.fftconvolve``'s passes bit for bit, over blocks of spectrum.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .besov import fit_points
from .grid import (_MAX_CELLS, ExtendedGridFunction, GridFunction,
                   _check_exponent, _shift_cells, lp_norm, zero_extend)
from .moduli import (ModulusCurve, _fft_product, _next_fast_len, _scales, hybrid_curve,
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
        default_tail(self.family, 1)  # the family rule
        if self.t <= 0:
            raise ValueError("kernel scale must be positive")
        if not 0 < self.truncation_tail < 0.5:
            raise ValueError(f"truncation tail budget must lie in (0, 0.5), "
                             f"got {self.truncation_tail:g}")


# the truncation tail budget of a run that names none: (on the line, from d = 2
# on).  The heavy-tailed families' radius grows like 1/tail from d = 2 on (the
# 2-d Poisson radius is t sqrt(1/tail^2 - 1)), so their 1-d budget of 1e-3
# would ask a 2-d window of 2.6e8 cells at t = 1/4 and L = 5.
_DEFAULT_TAILS = {"gauss": (1e-6, 1e-6), "poisson": (1e-3, 1e-2),
                  "fejer_tensor": (1e-3, 2e-2)}


def default_tail(family: str, d: int) -> float:
    """Truncation tail budget for ``family`` in dimension d when none is given."""
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    return _DEFAULT_TAILS[family][d >= 2]


def _erfcinv(y: float) -> float:
    """x > 0 with erfc(x) = y, for 0 < y < 1: Newton's iteration on
    ``math.erfc`` from 0, which rises monotonically to the root (erfc is
    convex and falling there), stopped when a step no longer raises x."""
    x = 0.0
    while True:
        step = (math.erfc(x) - y) * math.exp(x * x) * (math.sqrt(math.pi) / 2.0)
        if not x + step > x:
            return x
        x += step


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
        return t * math.sqrt(2.0) * _erfcinv(tail / d)
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
    """Truncation radius r in cells; refuses a radius whose window, W = n + 2r
    cells a side, or whose FFT product would exceed ``_MAX_CELLS``: the d-dim
    Poisson kernel's G^d grid, or one G-point line of a separable kernel past
    the direct cutoff, G = ``_next_fast_len(W + 2r)``.  Nothing is allocated."""
    r = max(int(math.ceil(truncation_radius(spec, d) * (1 << level))), 1)
    width = (1 << level) + 2 * r
    sizes = [("a window", width ** d)]
    if spec.family == "poisson" and d >= 2:
        sizes.append(("an FFT grid", _next_fast_len(width + 2 * r) ** d))
    elif r > _FFT_KERNEL_CUTOFF:
        sizes.append(("an FFT line", _next_fast_len(width + 2 * r)))
    for what, cells in sizes:
        if cells > _MAX_CELLS:
            raise ValueError(
                f"tail budget {spec.truncation_tail:g} at t={spec.t:g} needs a {r}-cell "
                f"radius, {what} of {cells} cells (limit {_MAX_CELLS}); "
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
    # t / (t^2 + |x|^2)^((d+1)/2), finished in place on one window-sized array
    grids = np.meshgrid(*([offsets] * d), indexing="ij", sparse=True)
    w = sum(g * g for g in grids)
    w += t * t
    np.power(w, (d + 1) / 2.0, out=w)
    np.divide(t, w, out=w)
    w /= w.sum()
    return "full", w


def _convolve_axis(a: np.ndarray, w: np.ndarray, axis: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """a convolved with w along ``axis``; into ``out`` (which may be a) only
    when ``axis`` is the last."""
    if len(w) <= 2 * _FFT_KERNEL_CUTOFF + 1:
        return _direct_convolve(a, w, axis, out)
    return np.moveaxis(_fft_convolve(np.moveaxis(a, axis, -1), [w], out=out), -1, axis)


def _direct_convolve(a: np.ndarray, w: np.ndarray, axis: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """a convolved with the symmetric w (w[r - j] == w[r + j]) along
    ``axis``, zero off the line, into ``out`` (which may be a): the sums of
    ``scipy.ndimage.convolve1d``'s symmetric branch, bit for bit, at each
    cell x[i] w[r] and then, for j = r down to 1, (x[i - j] + x[i + j]) w[r - j].
    It reads from one zero-padded copy and adds through one scratch array.
    On the last axis of a 2- or 3-d array the sums run with that axis moved
    to the front, where each tap's slice is one contiguous block rather than
    short strided rows; they are elementwise, so the bits are the same."""
    if 0 < axis == a.ndim - 1:
        moved = _direct_convolve(np.moveaxis(a, axis, 0), w, 0)
        out = np.empty(a.shape) if out is None else out
        out[...] = np.moveaxis(moved, 0, axis)
        return out
    r, n = len(w) // 2, a.shape[axis]

    def cells(lo):
        return (slice(None),) * axis + (slice(lo, lo + n),)

    padded = np.zeros(a.shape[:axis] + (n + 2 * r,) + a.shape[axis + 1:])
    padded[cells(r)] = a
    out = np.multiply(padded[cells(r)], w[r], out=out)
    scratch = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[cells(r - j)], padded[cells(r + j)], out=scratch)
        scratch *= w[r - j]
        out += scratch
    return out


def _convolve_separable(g: ExtendedGridFunction, weights) -> np.ndarray:
    """Axis by axis: before axis a is smoothed the window vanishes off the
    core [margin, margin + n) on axes a+1..d-1, so only those lines are
    convolved, at full window length, into one zero window.  The last axis
    runs over every line of that window in place; ``g.samples`` is only read."""
    core = slice(g.margin, g.margin + g.n)
    out = g.samples
    for axis, w in enumerate(weights[:-1]):
        lines = (slice(None),) * (axis + 1) + (core,) * (g.d - axis - 1)
        smoothed = _convolve_axis(out[lines], w, axis)
        if out is g.samples:
            out = np.zeros_like(out)
        out[lines] = smoothed
    return _convolve_axis(out, weights[-1], g.d - 1, None if out is g.samples else out)


def _fft_convolve(x: np.ndarray, weights: list, support: slice | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``signal.fftconvolve(x, w, "same")`` over the last ``m = w.ndim`` axes
    of x, bit for bit, into ``out`` (C-contiguous; it may be x) if given; the
    leading axes are a batch, and the m axes are all as long as x's last.
    One ``_fft_product`` of x's lines on ``support`` (default all).  w is
    taken out of the one-item list ``weights``, so that for m >= 2 nothing
    holds it once its spectrum is made unless the caller kept it."""
    w = weights.pop()
    m, n, k = w.ndim, x.shape[-1], w.shape[0]
    support = slice(0, n) if support is None else support
    crop = slice((k - 1) // 2, (k - 1) // 2 + n)
    factors = [(x[(..., *(support,) * (m - 1), slice(None))], support.start), (w, 0)]
    del w
    product = _fft_product(factors, (_next_fast_len(n + k - 1),) * m,
                           lambda F: [operator.imul(F(0), F(1))], (crop,) * m,
                           None if out is None else out[np.newaxis])
    return product[0] if out is None else out


def apply_kernel(spec: KernelSpec, g: ExtendedGridFunction) -> ExtendedGridFunction:
    """Convolve the window with the truncated, renormalized kernel.

    Linear, and an exact L^p contraction for every p >= 1.  Requires the
    margin to cover the truncation radius so the smoothed support stays
    inside the window.  Separable kernels convolve, on each axis but the
    last, only the lines that meet the cube's support: n^(d-1) of the
    W^(d-1) lines on the first axis, W the window side.  Long separable
    kernels and the d-dim Poisson kernel convolve by ``_fft_convolve``, in
    blocks.  Every line is computed as over the whole window, so the output
    is bit for bit the same.
    """
    radius = kernel_radius_cells(spec, g.d, g.level)
    if radius > g.margin:
        raise ValueError(
            f"kernel radius {radius} cells exceeds margin {g.margin}; re-extend")
    mode, weights = kernel_weights(spec, g.d, g.level)
    if mode == "separable":
        out = _convolve_separable(g, weights)
    else:  # handed over: the d-dim weights go once their spectrum is made
        weights = [weights]
        out = _fft_convolve(g.samples, weights, slice(g.margin, g.margin + g.n))
    return ExtendedGridFunction(g.d, g.level, g.margin, out)


def _smoothing_error(spec: KernelSpec, g: ExtendedGridFunction) -> ExtendedGridFunction:
    """(smoothing - identity) g: ``g.samples`` subtracted in place from the
    smoothed window, which ``apply_kernel`` made and nothing else holds."""
    err = apply_kernel(spec, g).samples
    err.setflags(write=True)
    err -= g.samples
    return ExtendedGridFunction(g.d, g.level, g.margin, err)


def error_norm(spec: KernelSpec, f: GridFunction, p: float) -> float:
    """L^p size of (smoothing - identity) applied to the zero-extension."""
    _check_exponent(p)
    g = zero_extend(f, kernel_radius_cells(spec, f.d, f.level))
    return lp_norm(_smoothing_error(spec, g), p)


def _kernel_specs(family: str, f: GridFunction, t_grid, truncation_tail) -> list:
    """The kernel of every scale in ascending t, once every window is known to fit:
    checked largest first, an oversized one is refused before any is built.  The
    scales pass the modulus curves' rule first (``moduli._scales``)."""
    tail = default_tail(family, f.d) if truncation_tail is None else truncation_tail
    specs = [KernelSpec(family, t, tail) for t in _scales("error_norm", f, t_grid)]
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
    err = lp_norm(_smoothing_error(spec, g), p)
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
                        truncation_tail: float | None = None) -> RatioTable:
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
                          truncation_tail: float | None = None) -> ExtensionBoundReport:
    """Boundedness of error/hybrid and extension-modulus/hybrid as t shrinks.

    Both ratios should stay bounded, so their fitted log-log slopes must not
    be meaningfully negative.  Scales where the hybrid modulus vanishes (the
    zero function) are flagged and excluded from the fits.  The hybrid
    moduli are one ``hybrid_curve``.
    """
    specs = _kernel_specs(family, f, t_grid, truncation_tail)
    ts = tuple(spec.t for spec in specs)
    # an ndarray's numpy scalars: the ratios print as np.float64(...), the
    # bytes the verify artifacts hold
    hybrid = hybrid_curve(f, p, ts).values
    r_err, r_mod, flags = [], [], []
    for spec, hyb in zip(specs, hybrid):
        err, om = _error_and_modulus(spec, f, p)
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
                truncation_tail: float | None = None, name: str = ""):
    """Error-norm curve in the standard modulus-curve container."""
    specs = _kernel_specs(family, f, t_grid, truncation_tail)
    points = [(spec.t, error_norm(spec, f, p)) for spec in specs]
    meta = {"d": f.d, "L": f.level, "function": name, "kernel": family,
            "truncation_tail": specs[0].truncation_tail}
    return ModulusCurve("error_norm", p, tuple(points), meta)
