"""Reference implementations that the fast paths are tested against.

Each evaluates its quantity the plain way, one difference sum per shift or
one shifted copy per kernel tap, from the same helpers as ``zexlab``'s fast
paths, so that a property test can compare the two bit for bit or within a
stated bound.  Nothing in ``src/`` calls them.
"""
from __future__ import annotations

import numpy as np

from zexlab.dyadic import dyadic_average
from zexlab.grid import ExtendedGridFunction, GridFunction, lp_norm, shifted_samples
from zexlab.kernels import KernelSpec, kernel_radius_cells, kernel_weights
from zexlab.moduli import _SupTable, _direct_sums, _half_shifts, _radius_max, _support_box


def _direct_values(arr: np.ndarray, shifts: np.ndarray, p: float,
                   interior: bool) -> np.ndarray:
    """The cell sum of |f(i+k) - f(i)|^p for each shift k, one difference
    sum per shift, inside the cube or over the whole window."""
    evaluate, buffer = _direct_sums(arr, p, interior, None if interior else _support_box(arr))
    out = buffer()
    return np.array([evaluate(k, out) for k in shifts])


def _enumerated_table(arr: np.ndarray, p: float, radii, interior: bool) -> _SupTable:
    """Evaluate every shift of the half ball, one difference sum per shift:
    the reference that every other table reproduces."""
    shifts = _half_shifts(arr.ndim, max(radii), arr.shape[0] - 1)
    powers, = _radius_max((shifts * shifts).sum(axis=1), radii,
                          _direct_values(arr, shifts, p, interior))
    return _SupTable(powers, powers, "direct", len(shifts), len(shifts))


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


def _average_error_rendered(f: GridFunction, level: int, p: float) -> float:
    """||f - f_avg||_p with the level-``level`` projection rendered back onto
    f's lattice and the difference measured by ``lp_norm``."""
    return lp_norm(f - dyadic_average(f, level).render(f.level), p)
