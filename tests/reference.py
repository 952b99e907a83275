"""Reference implementations that the fast paths are tested against.

Each evaluates its quantity the plain way, one difference sum per shift,
one shifted copy per kernel tap or one root per cube and partition, from the
same helpers as ``zexlab``'s fast paths, so that a property test can compare
the two bit for bit or within a stated bound.  Nothing in ``src/`` calls them.
"""
from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from zexlab.adaptive import PARTITION_DUMP_HEADER, _seminorm, gradient_magnitude
from zexlab.dyadic import _mean_pyramid, _refine, dyadic_average
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


def _partition_levels(pyramid, f: GridFunction, epsilon: float) -> tuple:
    """(origins, s_values, is_good), each a tuple over levels, of the
    partition for ``epsilon``: every classified cube rooted afresh."""
    root = 1.0 / pyramid.p
    levels = []
    frontier = np.ones((1,) * f.d, dtype=bool)
    for err_pow in pyramid.err_pow:  # single cells have S = 0, so level L ends it
        cells = np.nonzero(frontier)
        # the scalar root per element: an array power may round the last bit differently
        s = np.array([math.pow(v, root) for v in err_pow[cells].tolist()])
        good = s <= epsilon
        levels.append((np.transpose(cells), s, good))
        if good.all():
            break
        frontier[cells] = ~good
        frontier = _refine(frontier)
    return tuple(map(tuple, zip(*levels)))


def _dump_text(origins, s_values, is_good) -> str:
    """The partition dump, each level's lines built one string per cube."""
    blocks = [PARTITION_DUMP_HEADER]
    for k, (o, s, g) in enumerate(zip(origins, s_values, is_good)):
        if not len(s):
            continue
        origins = map(":".join, zip(*(map(str, axis) for axis in o.T.tolist())))
        blocks.append("\n".join(map(",".join, zip(
            repeat(str(k)), origins, map(repr, s.tolist()),
            np.where(g, "good", "bad").tolist()))))
    blocks.append("")  # the closing newline, without copying the text again
    return "\n".join(blocks)


def _ladder_constants(f: GridFunction, p: float, q: float, parts: dict) -> tuple:
    """(ratio_constant, bad_level_constant) of ``count_bound_report`` over
    ``parts`` (threshold -> ``_partition_levels``), every partition's cubes
    walked on their own, with block sums down to single cells."""
    eta = 1.0 / f.d - 1.0 / q + 1.0 / p
    powered = gradient_magnitude(f)
    powered **= q
    seminorm = _seminorm(f, powered, q)
    powered *= f.cell_volume
    local = [m * 2.0 ** (f.d * (f.level - k))
             for k, m in enumerate(_mean_pyramid(powered, f.d, f.level))]
    ratio_constant = 0.0
    bad_constant = 0.0
    for e in sorted(parts):
        origins_k, s_k, good_k = parts[e]
        for k, (origins, s) in enumerate(zip(origins_k, s_k)):
            w = np.array([math.pow(v, 1.0 / q) for v in local[k][tuple(origins.T)].tolist()])
            keep = (s > 0) & (w > 0)
            ratios = s[keep] / (((2.0 ** -k) ** f.d) ** eta * w[keep])  # |Q| = (2^-k)^d
            ratio_constant = max([ratio_constant, *ratios.tolist()])
        for k, level in enumerate(o[~g] for o, g in zip(origins_k, good_k)):
            if len(level) and seminorm > 0:
                bad_constant = max(
                    bad_constant,
                    len(level) * e ** q * 2.0 ** (k * f.d * eta * q) / seminorm ** q)
    return ratio_constant, bad_constant
