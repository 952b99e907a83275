"""Piecewise constants on dyadic cubes: averaging, error, and shift bounds.

The level-N average projection replaces a grid function by its mean on each
of the 2^(dN) dyadic cubes of side 2^-N.  Two exact inequality checkers live
here:

* ``average_error_report``: the averaging error in L^p against the interior
  modulus at the cube scale, with the explicit constant
  (v_d * d^((d+p)/2))^(1/p), v_d the unit-ball volume.
* ``shift_bound_check``: for a piecewise constant extended by zero, the p-th
  power of a shifted difference against 2^p min{|h| 2^k sqrt(d), 1} times the
  p-th power norm (uniform grids), or the cube-by-cube form
  2^p sum_Q min{sqrt(d)|h|/l(Q), 1} |Q| |a_Q|^p for arbitrary partitions.

Both sides are computed in exact cell arithmetic, so failures beyond a 1e-12
floating-point allowance are genuine.

A dyadic partition is held as per-level origin arrays: entry k lists the
(n_k, d) lattice corners of its cubes of side 2^-k in C order.  ``_cover``
paints them onto the deepest level: the one tiling check of every partition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import (GridFunction, LatticeShift, _abs_pow, difference, lp_norm,
                   zero_extend)
from .moduli import interior_modulus

SUITE_CSV_HEADER = "seed,d,k,p,h,lhs,rhs,pass"
# random_partition splits a cube below its level cap with this probability
_SPLIT_PROB = 0.55
# shift_bound_suite draws partition levels k = 1 .. _SUITE_MAX_LEVEL
_SUITE_MAX_LEVEL = 5


def unit_ball_volume(d: int) -> float:
    # closed form pi^(d/2)/Gamma(d/2+1), written out for d <= 3
    return {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[d]


def _cells(origins, level: int, d: int) -> np.ndarray:
    """Flat C-order indices, on the 2^level lattice, of the level-``level``
    cubes with the given (n, d) origins; ValueError for an origin outside it
    (numpy would wrap a negative index)."""
    o = np.asarray(origins)
    if level < 0 or o.ndim != 2 or o.shape[1] != d:
        raise ValueError(f"expected a level >= 0 and (n, {d}) origins")
    return np.ravel_multi_index(tuple(o.T), (1 << level,) * d)


def _cover(d: int, origins) -> np.ndarray:
    """How many cubes lie over each cell of the deepest level, given the
    per-level origins: each level's count is refined one level down before
    the next level's cubes are added.  A tiling covers every cell once."""
    cover = np.zeros((1,) * d, dtype=np.intp)
    for k, o in enumerate(origins):
        if k:
            cover = _refine(cover)
        cover += np.bincount(_cells(o, k, d), minlength=cover.size).reshape(cover.shape)
    return cover


@dataclass(frozen=True)
class PiecewiseConstant:
    """One real value per cube of a dyadic partition of the unit cube: per-level
    ``origins`` as in the module docstring, ``values`` in that order.
    ``uniform_level`` marks the uniform grid, whose shift bound is global."""

    d: int
    origins: tuple
    values: np.ndarray
    uniform_level: int | None = None

    def __post_init__(self):
        origins = tuple(np.asarray(o) for o in self.origins)
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float)).ravel()
        vals.setflags(write=False)
        if len(vals) != sum(map(len, origins)):
            raise ValueError("one value per cube required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if not np.all(_cover(self.d, origins) == 1):
            raise ValueError("cubes do not tile the unit cube exactly")
        k = self.uniform_level
        if k is not None and (len(origins) != k + 1 or any(map(len, origins[:k]))):
            raise ValueError("partition is not the uniform level-k grid")
        object.__setattr__(self, "origins", origins)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_uniform(cls, d: int, level: int, values) -> "PiecewiseConstant":
        vals = np.asarray(values, dtype=float)
        m = 1 << level
        if vals.shape != (m,) * d:
            raise ValueError(f"expected values of shape {(m,) * d}")
        coarser = (np.empty((0, d), dtype=np.intp),) * level
        grid = np.indices(vals.shape).reshape(d, -1).T
        return cls(d, coarser + (grid,), vals.ravel(), uniform_level=level)

    @property
    def max_level(self) -> int:
        return len(self.origins) - 1

    def cube_levels(self) -> np.ndarray:
        """The level of each cube, in the order of ``values``."""
        return np.repeat(np.arange(len(self.origins)), list(map(len, self.origins)))

    def render(self, grid_level: int) -> GridFunction:
        if grid_level < self.max_level:
            raise ValueError("grid resolution is coarser than the partition")
        out = np.zeros((1,) * self.d)
        ends = np.cumsum(list(map(len, self.origins)))
        for k, (o, end) in enumerate(zip(self.origins, ends)):
            if k:
                out = _refine(out)
            out[tuple(o.T)] = self.values[end - len(o):end]
        out = _refine(out, 1 << (grid_level - self.max_level))
        return GridFunction(self.d, grid_level, out)

    def norm_power(self, p: float) -> float:
        """sum over cubes of |Q| |a_Q|^p (the p-th power of the L^p norm)."""
        vols = np.ldexp(1.0, -self.d * self.cube_levels())
        return float((vols * _abs_pow(self.values, p)).sum())


def block_means(samples: np.ndarray, d: int, from_level: int, to_level: int) -> np.ndarray:
    """Means over dyadic blocks via successive pairwise averaging.

    Pairwise halving keeps the projection property bit-exact: averaging an
    already block-constant array returns it unchanged.
    """
    if to_level > from_level:
        raise ValueError("target level must not exceed the source level")
    a = samples
    for _ in range(from_level - to_level):
        a = _halve(a, d)
    return a


def _halve(a: np.ndarray, d: int) -> np.ndarray:
    """Means over the 2^d-cell blocks: one level up the dyadic tree."""
    for axis in range(d):
        even = [slice(None)] * d
        odd = [slice(None)] * d
        even[axis] = slice(0, None, 2)
        odd[axis] = slice(1, None, 2)
        a = 0.5 * (a[tuple(even)] + a[tuple(odd)])
    return a


def _mean_pyramid(samples: np.ndarray, d: int, level: int) -> list:
    """Block means of every level 0..level; entry k holds the level-k means.

    Each level is halved from the one below it, so entry k equals
    ``block_means(samples, d, level, k)`` bit for bit.
    """
    levels = [samples]
    for _ in range(level):
        levels.append(_halve(levels[-1], d))
    return levels[::-1]


def _refine(a: np.ndarray, b: int = 2) -> np.ndarray:
    """Each cell repeated b times along every axis: a level read on a finer lattice."""
    for axis in range(a.ndim):
        a = np.repeat(a, b, axis=axis)
    return a


def _sum_pyramid(samples: np.ndarray, d: int, level: int) -> list:
    """Block sums of every level 0..level; entry k holds the level-k sums,
    each the mean times the exact power of two 2^(d (level - k))."""
    return [m * 2.0 ** (d * (level - k))
            for k, m in enumerate(_mean_pyramid(samples, d, level))]


def dyadic_average(f: GridFunction, level: int) -> PiecewiseConstant:
    """Project onto constants over the level-`level` dyadic cubes (exact means)."""
    if not 0 <= level <= f.level:
        raise ValueError("average level must lie in 0..L")
    means = block_means(f.samples, f.d, f.level, level)
    return PiecewiseConstant.from_uniform(f.d, level, means)


def render_average(f: GridFunction, level: int) -> GridFunction:
    """The level-`level` average projection, re-rendered on f's own lattice."""
    means = block_means(f.samples, f.d, f.level, level)
    return GridFunction(f.d, f.level, _refine(means, 1 << (f.level - level)))


def average_error_constant(d: int, p: float) -> float:
    return (unit_ball_volume(d) * d ** ((d + p) / 2.0)) ** (1.0 / p)


def average_error_report(f: GridFunction, level: int, p: float) -> tuple:
    """(error, bound, constant) for the level-`level` average projection.

    error is ||f - f_avg||_p as an exact cell sum; bound is the constant
    times the interior modulus at scale 2^-level.
    """
    if level > f.level - 2:
        raise ValueError("need level <= L-2 so the modulus scale is resolvable")
    error = lp_norm(f - render_average(f, level), p)
    constant = average_error_constant(f.d, p)
    bound = constant * interior_modulus(f, p, 2.0 ** (-level))
    return error, bound, constant


def shift_bound_check(pc: PiecewiseConstant, shift: LatticeShift, p: float) -> tuple:
    """Exact two sides of the shifted-difference bound for zero-extended
    piecewise constants.

    lhs: p-th power of the L^p norm of psi(.+h) - psi(.) over the padded
    window.  rhs: 2^p min{|h| 2^k sqrt(d), 1} ||psi||_p^p when the partition
    is the uniform level-k grid, otherwise the cube-by-cube form.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if shift.level < pc.max_level:
        raise ValueError("shift resolution must refine the partition")
    if shift.d != pc.d:
        raise ValueError("shift dimension mismatch")
    rendered = pc.render(shift.level)
    margin = max(1, max(abs(v) for v in shift.k))
    ext = zero_extend(rendered, margin)
    delta = difference(ext, shift)
    lhs = float(_abs_pow(delta.samples, p).sum() * ext.cell_volume)
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


def random_partition(rng: np.random.Generator, d: int, max_level: int) -> tuple:
    """Random dyadic partition of the unit cube (tree of seeded subdivisions),
    as per-level (n_k, d) origin arrays in C order up to the deepest cube."""
    levels = [[] for _ in range(max_level + 1)]
    stack = [(0, (0,) * d)]
    while stack:
        k, origin = stack.pop()
        if k < max_level and rng.random() < _SPLIT_PROB:
            stack.extend((k + 1, tuple(2 * o + b for o, b in zip(origin, bits)))
                         for bits in product((0, 1), repeat=d))
        else:
            levels[k].append(origin)
    while not levels[-1]:
        levels.pop()
    return tuple(np.array(sorted(level), dtype=np.intp).reshape(-1, d) for level in levels)


def random_shift(rng: np.random.Generator, d: int, level: int) -> LatticeShift:
    """Nonzero lattice shift with |h| <= 1 at the given resolution."""
    n = 1 << level
    while True:
        k = rng.integers(-n, n + 1, size=d)
        if not k.any():
            continue
        if float((k * k).sum()) <= n * n:
            return LatticeShift(tuple(int(v) for v in k), level)


def equality_case() -> dict:
    """The hand-computed equality instance: +-1 on the halves, p=1, h=1/4."""
    pc = PiecewiseConstant.from_uniform(1, 1, np.array([1.0, -1.0]))
    shift = LatticeShift((1,), 2)  # h = 1/4 at resolution 2^-2
    lhs, rhs = shift_bound_check(pc, shift, 1.0)
    return {"seed": -1, "d": 1, "k": 1, "p": 1.0, "h": shift.length,
            "lhs": lhs, "rhs": rhs, "pass": lhs <= rhs + 1e-12}


def shift_bound_suite(n_functions: int = 100, shifts_each: int = 10,
                      p_values=(1.0, 2.0, 3.0), seed: int = 7) -> list:
    """Seeded randomized suite over uniform and arbitrary partitions.

    Returns one row dict per (function, shift, p) case plus the equality
    instance; rows carry both sides so slack can be studied downstream.
    """
    master = np.random.default_rng(seed)
    case_seeds = master.integers(0, 2 ** 31 - 1, size=n_functions)
    rows = []
    for i, case_seed in enumerate(case_seeds):
        rng = np.random.default_rng(int(case_seed))
        d = 1 if i % 2 == 0 else 2
        uniform = (i // 2) % 2 == 0
        k = int(rng.integers(1, _SUITE_MAX_LEVEL + 1))
        if uniform:
            m = 1 << k
            pc = PiecewiseConstant.from_uniform(d, k, rng.standard_normal((m,) * d))
        else:
            origins = random_partition(rng, d, k)
            pc = PiecewiseConstant(d, origins, rng.standard_normal(sum(map(len, origins))))
        level = pc.max_level + 2
        for _ in range(shifts_each):
            shift = random_shift(rng, d, level)
            for p in p_values:
                lhs, rhs = shift_bound_check(pc, shift, p)
                rows.append({
                    "seed": int(case_seed), "d": d,
                    "k": k if uniform else pc.max_level, "p": float(p),
                    "h": shift.length, "lhs": lhs, "rhs": rhs,
                    "pass": lhs <= rhs + 1e-12,
                })
    rows.append(equality_case())
    return rows


def suite_to_csv(rows) -> str:
    lines = [SUITE_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r["seed"]), str(r["d"]), str(r["k"]), repr(r["p"]),
            repr(r["h"]), repr(r["lhs"]), repr(r["rhs"]),
            "true" if r["pass"] else "false",
        ]))
    return "\n".join(lines) + "\n"
