"""L^p moduli of continuity on the cube, on the padded window, and hybrids.

Three quantities per function f and scale t:

* interior modulus  sup_{|h|<=t} ||f(.+h) - f(.)||_{L^p over cells staying in Q}
* whole modulus     the same supremum for a window function, integrating over
                    the full padded window (the lattice stand-in for R^d)
* hybrid modulus    inf over dyadic s of
                        interior(s) + min{(sqrt(d) t / s)^(1/p), 1} ||f||_p
                    for p > 1, and for p = 1 the variant with
                        max{sqrt(d) t / s, 1} |log(s / (sqrt(d) t))| ||f||_1.

Shifts are lattice multiples of the cell side, so each candidate difference
norm is an exact cell sum.  The supremum is an exact maximum over the full
lattice ball whenever that is affordable (always in d=1; via an FFT
correlation decomposition for p=2 in d=2); otherwise a documented
direction-set lower bound is used and flagged.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .grid import (ExtendedGridFunction, GridFunction, _abs_pow, lp_norm,
                   shifted_samples)


class ResolutionWarning(UserWarning):
    """Requested scale lies below the lattice resolution."""


CURVE_KINDS = ("interior", "whole", "hybrid", "error_norm")
CURVE_CSV_HEADER = "t,value,kind,p,d,L,function,flags"

# exact-enumeration guard: shifts * cells of elementwise work
_DIRECT_WORK_BUDGET = 2 * 10 ** 8
_N_RANDOM_DIRECTIONS = {2: 128, 3: 256}
_DIRECTION_SEED = 1234509876


@dataclass(frozen=True)
class ModulusCurve:
    """(t, value) table for one modulus kind, with provenance metadata."""

    kind: str
    p: float
    points: tuple
    meta: dict = field(default_factory=dict)
    flags: tuple = ()

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        pts = tuple((float(t), float(v)) for t, v in self.points)
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("t values must be strictly increasing")
        if any(not math.isfinite(v) or v < 0 for v in vs):
            raise ValueError("curve values must be finite and nonnegative")
        if self.kind in ("interior", "whole"):
            if any(v2 < v1 for v1, v2 in zip(vs, vs[1:])):
                raise ValueError("moduli must be nondecreasing in t")
        flags = self.flags if self.flags else ("",) * len(pts)
        if len(flags) != len(pts):
            raise ValueError("one flag string per point required")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "flags", tuple(flags))

    @property
    def t_values(self) -> np.ndarray:
        return np.array([t for t, _ in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points])

    def to_csv(self) -> str:
        meta = self.meta
        rows = [CURVE_CSV_HEADER]
        for (t, v), flag in zip(self.points, self.flags):
            rows.append(",".join([
                repr(t), repr(v), self.kind, repr(float(self.p)),
                str(meta.get("d", "")), str(meta.get("L", "")),
                str(meta.get("function", "")).replace(",", ";"), flag,
            ]))
        return "\n".join(rows) + "\n"


def default_t_grid(level: int) -> tuple:
    """Dyadic scales 2^-j for j = 2 .. L-2, ascending.

    Avoids both the resolution floor and the saturation near t = 1.
    """
    if level < 4:
        raise ValueError("need level >= 4 for the default scale grid")
    return tuple(2.0 ** (-j) for j in range(level - 2, 1, -1))


# ---------------------------------------------------------------------------
# supremum tables: cumulative max of ||difference||_p^p by shift radius


@dataclass(frozen=True)
class _SupTable:
    rsq: np.ndarray      # ascending squared radii (in cells)
    powmax: np.ndarray   # running max of the p-th power difference norms
    exact: bool

    def lookup_power(self, radius_cells: float) -> float:
        bound = radius_cells * radius_cells * (1.0 + 1e-12) + 1e-9
        idx = int(np.searchsorted(self.rsq, bound, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self.powmax[idx])


def _collapse(ksq_blocks, dval_blocks, exact: bool) -> _SupTable:
    """Sort the per-shift values by squared radius and keep the running max."""
    if not ksq_blocks:
        return _SupTable(np.empty(0), np.empty(0), exact)
    ksq = np.concatenate(ksq_blocks)
    order = np.argsort(ksq, kind="stable")
    ks = ksq[order]
    dv = np.maximum.accumulate(np.concatenate(dval_blocks)[order])
    keep = np.empty(len(ks), dtype=bool)
    keep[:-1] = ks[1:] != ks[:-1]
    keep[-1] = True
    return _SupTable(ks[keep].astype(float), dv[keep], exact)


def _half_shifts(d: int, rmax: float, per_axis: int) -> list:
    """Integer shifts with positive leading nonzero component, |k| <= rmax and
    |k_i| <= per_axis, as (m, d) blocks: one per leading component in d=2."""
    per_axis = min(per_axis, math.floor(rmax + 1e-9))
    bound = rmax * rmax * (1.0 + 1e-12) + 1e-9
    if d == 1:
        kmax = min(per_axis, int(math.isqrt(int(bound))))
        ks = np.arange(1, kmax + 1, dtype=np.int64)
        return [ks[:, None]] if kmax >= 1 else []
    if d == 2:
        out = []
        k2 = np.arange(-per_axis, per_axis + 1, dtype=np.int64)
        for k1 in range(0, per_axis + 1):
            cols = k2[(k2 > 0)] if k1 == 0 else k2
            ksq = k1 * k1 + cols * cols
            cols = cols[ksq <= bound]
            if cols.size:
                block = np.empty((cols.size, 2), dtype=np.int64)
                block[:, 0] = k1
                block[:, 1] = cols
                out.append(block)
        return out
    raise ValueError("exact enumeration supported for d <= 2 only")


def _diff_power_interior(samples: np.ndarray, k, p: float) -> float:
    """Sum |f(i+k)-f(i)|^p over cells with both endpoints inside the cube."""
    base, shifted = [], []
    for ka, n in zip(k, samples.shape):
        ka = int(ka)
        if abs(ka) >= n:
            return 0.0
        if ka >= 0:
            base.append(slice(0, n - ka))
            shifted.append(slice(ka, n))
        else:
            base.append(slice(-ka, n))
            shifted.append(slice(0, n + ka))
    diff = samples[tuple(shifted)] - samples[tuple(base)]
    return float(_abs_pow(diff, p, out=diff).sum())


def _diff_power_window(window: np.ndarray, k, p: float) -> float:
    """Sum |g(i+k)-g(i)|^p over the whole window, zero outside."""
    diff = shifted_samples(window, k) - window
    return float(_abs_pow(diff, p, out=diff).sum())


def _enumerated_table(arr: np.ndarray, p: float, rmax: float, cellvol: float,
                      interior: bool, structured: bool) -> _SupTable:
    """Evaluate every shift of the half ball (exact) or of the structured
    direction set (lower bound), one difference norm per shift."""
    if structured:
        shifts = np.array(_structured_shifts(arr.ndim, rmax), dtype=np.int64)
        blocks = [shifts] if len(shifts) else []
    else:
        blocks = _half_shifts(arr.ndim, rmax, arr.shape[0] - 1)
    evaluate = _diff_power_interior if interior else _diff_power_window
    ksqs = [(block * block).sum(axis=1) for block in blocks]
    dvals = [np.array([evaluate(arr, k, p) for k in block]) * cellvol
             for block in blocks]
    return _collapse(ksqs, dvals, not structured)


def _autocorrelation(a: np.ndarray) -> tuple:
    """Full linear autocorrelation via FFT; returns (array, padded shape)."""
    shape = [sfft.next_fast_len(2 * n - 1) for n in a.shape]
    fa = sfft.rfftn(a, shape)
    corr = sfft.irfftn(fa * np.conj(fa), shape)
    return corr, shape


def _corr_table(arr: np.ndarray, rmax: float, cellvol: float, interior: bool) -> _SupTable:
    """Exact p=2 table: ||f(.+k) - f||_2^2 = (f^2 mass on both overlaps) - 2 corr(k).

    On a window (zero outside) both masses are ||g||^2; inside the cube (d=2
    only) they are box sums of f^2 over the cells whose shift stays in Q.
    """
    n = arr.shape[0]
    corr, shape = _autocorrelation(arr)
    sq = arr * arr
    if interior:
        pref = np.zeros((n + 1, n + 1))
        pref[1:, 1:] = sq.cumsum(axis=0).cumsum(axis=1)

        def boxsum(l1, h1, l2, h2):
            return pref[h1 + 1, h2 + 1] - pref[l1, h2 + 1] - pref[h1 + 1, l2] + pref[l1, l2]
    else:
        mass = 2.0 * float(sq.sum())
    ksqs, dvals = [], []
    for block in _half_shifts(arr.ndim, rmax, n - 1):
        if interior:
            k1, cols = int(block[0, 0]), block[:, 1]
            l2 = np.maximum(0, -cols)
            h2 = n - 1 - np.maximum(0, cols)
            mass = boxsum(0, n - 1 - k1, l2, h2) + boxsum(k1, n - 1, l2 + cols, h2 + cols)
        c = corr[tuple(block[:, a] % s for a, s in enumerate(shape))]
        dvals.append(np.maximum(mass - 2.0 * c, 0.0) * cellvol)
        ksqs.append((block * block).sum(axis=1))
    return _collapse(ksqs, dvals, True)


def _structured_shifts(d: int, rmax: float, seed: int = _DIRECTION_SEED):
    """Axis, diagonal, and seeded random lattice directions with a radius ladder.

    A documented lower bound on the supremum: every multiple ladder is fixed,
    so the shift set is nested as the radius grows.
    """
    dirs = set()
    for axis in range(d):
        u = [0] * d
        u[axis] = 1
        dirs.add(tuple(u))
    # all diagonal sign patterns with at least two nonzero components,
    # one representative per opposite pair (leading nonzero positive)
    from itertools import product

    for signs in product((-1, 0, 1), repeat=d):
        nz = [s for s in signs if s]
        if len(nz) >= 2 and nz[0] > 0:
            dirs.add(signs)
    rng = np.random.default_rng(seed)
    wanted = _N_RANDOM_DIRECTIONS.get(d, 128)
    attempts = 0
    while len(dirs) < wanted + 2 * d and attempts < 40 * wanted:
        attempts += 1
        cand = rng.integers(-16, 17, size=d)
        if not cand.any():
            continue
        g = int(np.gcd.reduce(np.abs(cand[cand != 0])))
        cand = tuple(int(v // g) for v in cand)
        lead = next(v for v in cand if v)
        if lead < 0:
            cand = tuple(-v for v in cand)
        dirs.add(cand)
    # radius ladder ~ powers of sqrt(2), deduplicated
    radii = sorted({int(round(2.0 ** (j / 2.0))) for j in range(0, 64)})
    shifts = set()
    for u in sorted(dirs):
        norm_u = math.sqrt(sum(v * v for v in u))
        for r in radii:
            m = max(1, int(round(r / norm_u)))
            k = tuple(v * m for v in u)
            if sum(v * v for v in k) <= rmax * rmax * (1 + 1e-12) + 1e-9:
                shifts.add(k)
    return sorted(shifts)


def _table_method(d: int, p: float, rmax: float, cells: int, interior: bool,
                  method: str) -> str:
    """Resolve ``auto`` to a table method; reject invalid explicit choices."""
    if method not in ("auto", "direct", "corr", "structured"):
        raise ValueError(f"unknown sup method {method!r}")
    if method == "corr":
        if p != 2:
            raise ValueError("the correlation method applies to p = 2 only")
        if interior and d != 2:
            raise ValueError("correlation method unavailable for this case")
    if method != "auto":
        return method
    if d == 1:
        return "direct"
    if d == 2:
        if p == 2:
            return "corr"
        work = math.pi * rmax * rmax / 2.0 * cells  # half-ball shifts x cells
        return "direct" if work <= _DIRECT_WORK_BUDGET else "structured"
    # d == 3: direction-set lower bound by design (experimental dimension)
    return "structured"


def _build_table(arr: np.ndarray, p: float, rmax: float, cellvol: float,
                 interior: bool, method: str) -> _SupTable:
    method = _table_method(arr.ndim, p, rmax, arr.size, interior, method)
    if method == "corr":
        return _corr_table(arr, rmax, cellvol, interior)
    return _enumerated_table(arr, p, rmax, cellvol, interior, method == "structured")


# ---------------------------------------------------------------------------
# public moduli


def _check_p(p: float):
    if p < 1:
        raise ValueError("p must be >= 1")


def interior_modulus(f: GridFunction, p: float, t: float, method: str = "auto") -> float:
    """Largest ||f(.+h) - f(.)||_p over lattice shifts |h| <= t staying in Q.

    Scales below the lattice resolution have no admissible shift; they warn
    and evaluate to zero.
    """
    _check_p(p)
    if not 0 < t <= math.sqrt(f.d) * (1 + 1e-9):
        raise ValueError("scale t must lie in (0, sqrt(d)]")
    rmax = t * f.n
    if rmax < 1.0 - 1e-9:
        warnings.warn("scale below lattice resolution; interior modulus set to 0",
                      ResolutionWarning, stacklevel=2)
        return 0.0
    table = _build_table(f.samples, p, rmax, f.cell_volume, True, method)
    return table.lookup_power(rmax) ** (1.0 / p)


def _window_shift_cap(g: ExtendedGridFunction, t: float) -> int:
    return int(math.floor(t * g.base.n + 1e-9))


def _require_margin(g: ExtendedGridFunction, cap: int):
    if g.margin < cap:
        raise ValueError(
            f"margin {g.margin} cells cannot hold shifts of {cap} cells; re-extend")
    if cap > 0:
        inner = tuple(slice(cap, g.size - cap) for _ in range(g.d))
        hollow = np.array(g.samples, copy=True)
        hollow[inner] = 0.0
        if float(np.abs(hollow).sum()) != 0.0:
            raise ValueError(
                "window carries mass within shift range of its edge; re-extend")


def whole_modulus(g: ExtendedGridFunction, p: float, t: float, method: str = "auto") -> float:
    """Largest ||g(.+h) - g(.)||_p over |h| <= t, integrating over the window.

    Requires the margin to absorb every admissible shift so the window norm
    equals the whole-space norm; otherwise the caller must re-extend.
    """
    _check_p(p)
    if t <= 0:
        raise ValueError("scale t must be positive")
    cap = _window_shift_cap(g, t)
    if cap < 1:
        warnings.warn("scale below lattice resolution; whole modulus set to 0",
                      ResolutionWarning, stacklevel=2)
        return 0.0
    _require_margin(g, cap)
    rmax = t * g.base.n
    table = _build_table(g.samples, p, rmax, g.cell_volume, False, method)
    return table.lookup_power(rmax) ** (1.0 / p)


def _curve(kind: str, arr, n: int, p: float, t_grid, method: str, name: str,
           extra: dict) -> ModulusCurve:
    """Shared body of the interior and whole curves: one supremum table for the
    largest scale, then one lookup per t on the radius t * n cells."""
    _check_p(p)
    ts = tuple(sorted(t_grid)) if t_grid is not None else default_t_grid(arr.level)
    interior = kind == "interior"
    if not interior:
        _require_margin(arr, _window_shift_cap(arr, max(ts)))
    rmax = max(ts) * n
    table = _build_table(arr.samples, p, rmax, arr.cell_volume, interior, method) \
        if rmax >= 1 else _SupTable(np.empty(0), np.empty(0), True)
    points, flags = [], []
    for t in ts:
        r = t * n
        if r < 1.0 - 1e-9:
            points.append((t, 0.0))
            flags.append("below_resolution")
        else:
            points.append((t, table.lookup_power(r) ** (1.0 / p)))
            flags.append("" if table.exact else "lower_bound")
    meta = {"d": arr.d, "L": arr.level, "function": name, **extra, "exact": table.exact}
    return ModulusCurve(kind, p, tuple(points), meta, tuple(flags))


def interior_curve(f: GridFunction, p: float, t_grid=None, method: str = "auto",
                   name: str = "") -> ModulusCurve:
    """Interior modulus at every scale of ``t_grid`` (default: dyadic grid)."""
    return _curve("interior", f, f.n, p, t_grid, method, name, {})


def whole_curve(g: ExtendedGridFunction, p: float, t_grid=None, method: str = "auto",
                name: str = "") -> ModulusCurve:
    """Whole modulus at every scale of ``t_grid``; the margin must hold every shift."""
    return _curve("whole", g, g.base.n, p, t_grid, method, name, {"margin": g.margin})


def interior_dyadic_values(f: GridFunction, p: float, js, method: str = "auto") -> dict:
    """Interior modulus at the dyadic scales 2^-j for the requested j's.

    One supremum table serves every scale, so a whole ladder costs little
    more than its coarsest (largest-radius) entry.
    """
    _check_p(p)
    js = sorted(set(int(j) for j in js))
    if any(j < 0 or j > f.level for j in js):
        raise ValueError("dyadic exponents must lie in 0..L")
    rmax = 2.0 ** (-js[0]) * f.n
    table = _build_table(f.samples, p, rmax, f.cell_volume, True, method)
    return {j: table.lookup_power(2.0 ** (-j) * f.n) ** (1.0 / p) for j in js}


def interior_ladder(f: GridFunction, p: float, method: str = "auto") -> np.ndarray:
    """Interior modulus at every dyadic scale: entry j holds the value at 2^-j."""
    values = interior_dyadic_values(f, p, range(f.level + 1), method)
    return np.array([values[j] for j in range(f.level + 1)])


def hybrid_modulus(f: GridFunction, p: float, t: float, ladder=None,
                   norm: float | None = None, method: str = "auto") -> tuple:
    """Boundary-aware modulus: best dyadic trade-off between interior
    oscillation at scale s and the mass term min{(sqrt(d) t/s)^(1/p), 1}||f||_p.

    For p = 1 the mass term is max{sqrt(d) t/s, 1} |log(s/(sqrt(d) t))| ||f||_1,
    evaluated literally; the log factor vanishes when s equals sqrt(d) t.
    Returns (value, minimizing s); ties resolve to the smaller s.
    """
    _check_p(p)
    if t <= 0:
        raise ValueError("scale t must be positive")
    if ladder is None:
        ladder = interior_ladder(f, p, method)
    if norm is None:
        norm = lp_norm(f, p)
    root_d = math.sqrt(f.d)
    best_value, best_s = math.inf, 1.0
    for j, zeta_j in enumerate(ladder):
        s = 2.0 ** (-j)
        ratio = root_d * t / s
        if p > 1:
            value = zeta_j + min(ratio ** (1.0 / p), 1.0) * norm
        else:
            value = zeta_j + max(ratio, 1.0) * abs(math.log(s / (root_d * t))) * norm
        if value <= best_value:  # later j = smaller s wins ties
            best_value, best_s = value, s
    return best_value, best_s


def hybrid_curve(f: GridFunction, p: float, t_grid=None, method: str = "auto",
                 name: str = "") -> ModulusCurve:
    ts = tuple(sorted(t_grid)) if t_grid is not None else default_t_grid(f.level)
    ladder = interior_ladder(f, p, method)
    norm = lp_norm(f, p)
    points, flags, s_opt = [], [], []
    for t in ts:
        value, s = hybrid_modulus(f, p, t, ladder=ladder, norm=norm)
        points.append((t, value))
        flags.append(f"s_opt={s:g}")
        s_opt.append(s)
    meta = {"d": f.d, "L": f.level, "function": name, "s_opt": tuple(s_opt)}
    return ModulusCurve("hybrid", p, tuple(points), meta, tuple(flags))
