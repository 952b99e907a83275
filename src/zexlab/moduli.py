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
norm is an exact cell sum.  Every query, single-scale or curve, reads one
supremum table: the largest p-th power difference norm over the shifts within
each lookup radius t * n cells.  The input alone picks the table; callers
cannot choose it:

* p = 2, any d: the correlation engine.  It screens every shift of the
  lattice half ball by overlap masses (summed-area tables) minus twice one
  FFT autocorrelation; in d = 1 and 3 it then rechecks directly every shift
  within the screening error bound of the maximum, so its values equal the
  direct enumeration bit for bit; in d = 2 the screened values stand, within
  that bound of the direct enumeration.  Exact.
* d = 1, p != 2: direct enumeration of the lattice half ball, exact;
* d = 2, p != 2: direct enumeration while shifts x cells stays within
  ``_DIRECT_WORK_BUDGET``, else the structured direction set, a lower bound;
* d = 3, p != 2: the structured direction set, a lower bound.

Lower-bound values carry the ``lower_bound`` flag and ``exact=False``; the
single-scale queries emit a ``LowerBoundWarning`` for them.  Each curve's
``meta`` records the table's method, the shifts it screened or evaluated and
the shifts it rechecked.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .grid import (_MAX_CELLS, ExtendedGridFunction, GridFunction, _abs_pow,
                   _shift_cells, lp_norm, shifted_samples)


class ResolutionWarning(UserWarning):
    """Requested scale lies below the lattice resolution."""


class LowerBoundWarning(UserWarning):
    """A single-scale modulus comes from a table that only bounds the
    supremum from below (the structured direction set)."""


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


def _dyadic_grid(level: int, t_min: float, t_max: float) -> tuple:
    """Dyadic scales 2^-j, j = 0 .. level, inside [t_min, t_max], ascending."""
    return tuple(2.0 ** (-j) for j in range(level, -1, -1)
                 if t_min * (1 - 1e-12) <= 2.0 ** (-j) <= t_max * (1 + 1e-12))


def default_t_grid(level: int) -> tuple:
    """Dyadic scales 2^-j for j = 2 .. L-2, ascending.

    Avoids both the resolution floor and the saturation near t = 1.
    """
    if level < 4:
        raise ValueError("need level >= 4 for the default scale grid")
    return _dyadic_grid(level, 2.0 ** (2 - level), 0.25)


# ---------------------------------------------------------------------------
# supremum tables: max of ||difference||_p^p over the shifts within each radius

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# assumed relative 2-norm error of one FFT, in unit roundoffs per radix-2 stage
_FFT_ULPS = 16
# candidate shifts per _half_shifts block: bounds the candidate temporaries
_SHIFT_BLOCK = 1 << 12


def _rsq_bound(r: float) -> float:
    """Largest squared shift length (in cells) admitted at radius r cells."""
    return r * r * (1.0 + 1e-12) + 1e-9


@dataclass(frozen=True)
class _SupTable:
    """Max of the p-th power difference norms over the shifts |k| <= r, one
    per lookup radius r (in cells), in the order the radii were given."""

    powers: tuple
    exact: bool
    method: str
    shifts: int = 0      # shifts evaluated (direct, structured) or screened (corr)
    rechecked: int = 0   # screened shifts recomputed by a direct difference norm


def _radius_max(ksq: np.ndarray, values: np.ndarray, radii) -> tuple:
    """Max of ``values`` over the shifts with squared length ``ksq`` within
    each radius; 0.0 where no shift fits."""
    order = np.argsort(ksq, kind="stable")
    best = np.maximum.accumulate(values[order])
    counts = np.searchsorted(ksq[order], [_rsq_bound(r) for r in radii], side="right")
    return tuple(float(best[c - 1]) if c else 0.0 for c in counts)


def _half_shifts(d: int, rmax: float, per_axis: int) -> np.ndarray:
    """Integer shifts with positive leading nonzero component, |k| <= rmax and
    |k_i| <= per_axis, as one (m, d) array ordered by leading component."""
    cap = min(per_axis, math.floor(rmax + 1e-9))
    if cap < 1:
        return np.empty((0, d), dtype=np.int64)
    bound = _rsq_bound(rmax)
    side = 2 * cap + 1
    rest = np.indices((side,) * (d - 1)).reshape(d - 1, side ** (d - 1)).T - cap
    step = max(1, _SHIFT_BLOCK // len(rest))
    blocks = []
    for lo in range(0, cap + 1, step):
        lead = np.arange(lo, min(lo + step, cap + 1))
        ks = np.empty((len(lead), len(rest), d), dtype=np.int64)
        ks[:, :, 0] = lead[:, None]
        ks[:, :, 1:] = rest
        ks = ks.reshape(-1, d)
        first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
        blocks.append(ks[(first > 0) & ((ks * ks).sum(axis=1) <= bound)])
    return np.concatenate(blocks)


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


def _direct_values(arr: np.ndarray, shifts: np.ndarray, p: float, cellvol: float,
                   interior: bool) -> np.ndarray:
    """||f(.+k) - f||_p^p for each shift k, one difference norm per shift,
    inside the cube or over the whole window."""
    evaluate = _diff_power_interior if interior else _diff_power_window
    return np.array([evaluate(arr, k, p) for k in shifts]) * cellvol


def _enumerated_table(arr: np.ndarray, p: float, radii, cellvol: float,
                      interior: bool, structured: bool) -> _SupTable:
    """Evaluate every shift of the half ball (exact) or of the structured
    direction set (lower bound), one difference norm per shift."""
    d, rmax = arr.ndim, max(radii)
    if structured:
        shifts = np.array(_structured_shifts(d, rmax), dtype=np.int64).reshape(-1, d)
    else:
        shifts = _half_shifts(d, rmax, arr.shape[0] - 1)
    values = _direct_values(arr, shifts, p, cellvol, interior)
    return _SupTable(_radius_max((shifts * shifts).sum(axis=1), values, radii),
                     not structured, "structured" if structured else "direct",
                     len(shifts))


def _autocorrelation(a: np.ndarray, shape) -> np.ndarray:
    """Full linear autocorrelation via FFT on the padded grid ``shape``."""
    fa = sfft.rfftn(a, shape)
    return sfft.irfftn(fa * np.conj(fa), shape)


def _box_sums(pref: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the boxes lo <= i <= hi (one box per row) from the prefix
    sums ``pref``, by inclusion-exclusion over the 2^d corners."""
    d = lo.shape[1]
    total = pref[tuple(hi[:, a] + 1 for a in range(d))]
    for corner in range(1, 1 << d):
        low = [(corner >> a) & 1 for a in range(d)]
        term = pref[tuple(lo[:, a] if low[a] else hi[:, a] + 1 for a in range(d))]
        total = total - term if sum(low) % 2 else total + term
    return total


def _screen_error(energy: float, shape, padded) -> float:
    """Bound e on |screened - direct| for every shift, before the cell volume.

    Let Q = sum f^2, m the cells of the array, n_a its side on axis a, N the
    cells of the padded FFT grid, u the unit roundoff and g(k) = k u/(1 - k u).
    Exactly, each overlap mass is at most Q, |corr(k)| <= Q, and the
    difference sum E(k) = sum (f(i+k) - f(i))^2 is at most 4 Q.

    * Masses.  A prefix sum takes one product and n_a - 1 sequential
      additions along each axis, so its error is at most g(k_p) Q with
      k_p = 1 + sum_a (n_a - 1).  A box sum adds 2^d corners by 2^d - 1
      operations on terms of size at most 2^d Q; two boxes and their sum
      give 2^(d+1) (g(k_p) + 2^d u) Q + 2 u Q.  On a window the mass is
      2 fl(sum f^2): at most 2 g(m) Q in any summation order.  The
      interior bound covers both.
    * Correlation.  Assume one FFT, forward or inverse, has relative 2-norm
      error at most eta = _FFT_ULPS u (log2 N + 1); Higham (Accuracy and
      Stability of Numerical Algorithms, Thm 24.2) gives about 6.7 u per
      radix-2 stage.  With F = DFT(a) and ||F||_2^2 = N Q, forming |F|^2
      adds g(2) per entry, so the spectrum is off by at most
      omega N Q in 2-norm, omega = eta (2 + eta) + g(2) (1 + eta)^2.  The
      inverse transform and its 1/N scaling then bound the max error of
      corr by its 2-norm error: sqrt(N) Q (omega + eta (1 + omega)) + u Q.
    * The subtraction mass - 2 corr, of operands at most 4 Q: u 4 Q.
    * Direct.  A difference, a square and a sum of at most m nonnegative
      terms in any order: g(m + 2) E <= 4 g(m + 2) Q.

    Clamping at zero cannot add error, since E >= 0.  The total is doubled
    to cover the second-order terms and the rounding of Q itself.
    """
    u = _UNIT_ROUNDOFF

    def g(k):
        return k * u / (1.0 - k * u)

    d, m, big_n = len(shape), math.prod(shape), math.prod(padded)
    masses = max(2 ** (d + 1) * (g(1 + sum(n - 1 for n in shape)) + 2 ** d * u) + 2 * u,
                 2 * g(m))
    eta = _FFT_ULPS * u * (math.log2(big_n) + 1)
    omega = eta * (2 + eta) + g(2) * (1 + eta) ** 2
    corr = math.sqrt(big_n) * (omega + eta * (1 + omega)) + u
    return 2.0 * energy * (masses + 2 * corr + 4 * u + 4 * g(m + 2))


def _corr_table(arr: np.ndarray, radii, cellvol: float, interior: bool) -> _SupTable:
    """p = 2 table: screen every shift by ||f(.+k) - f||_2^2 = (f^2 mass on
    both overlaps) - 2 corr(k), then confirm the maxima directly.

    On a window (zero outside) both masses are ||g||^2; inside the cube they
    are box sums of f^2 over the cells whose shift stays in Q, read from
    d-dim prefix sums (summed-area tables).  corr is one FFT autocorrelation.

    In d = 1 and 3 the maxima are confirmed.  With |screened - direct| <= e
    for every shift (``_screen_error``), the shift whose direct value is
    largest within radius r has a screened value at least the largest
    screened value there minus 2 e.  Every shift within 2 e of that value at
    some radius is recomputed directly and every other shift is dropped, so
    each radius reads the direct enumeration's maximum bit for bit: max does
    not depend on the order, and no other recomputed shift within r exceeds
    it.  In d = 2 the screened values are the table: confirming would move
    the last digits of values that the verify artifacts pin (on ``rand2_d2``
    at L = 10 and t = 2^-8 the interior modulus reads 0.10131710135113675
    screened and 0.10131710135111947 direct).

    An input whose padded FFT grid exceeds ``_MAX_CELLS`` is refused first.
    """
    d, n = arr.ndim, arr.shape[0]
    shape = [sfft.next_fast_len(2 * m - 1) for m in arr.shape]
    if math.prod(shape) > _MAX_CELLS:
        raise ValueError(
            f"a p = 2 table on {arr.size} cells needs a {' x '.join(map(str, shape))} "
            f"FFT grid of {math.prod(shape)} cells (limit {_MAX_CELLS}); coarsen the lattice")
    shifts = _half_shifts(d, max(radii), n - 1)
    if not len(shifts):
        return _SupTable((0.0,) * len(radii), True, "corr")
    corr = _autocorrelation(arr, shape)
    sq = arr * arr
    if interior:
        pref = np.zeros(tuple(s + 1 for s in sq.shape))
        acc = sq
        for axis in range(d):
            acc = acc.cumsum(axis=axis)
        pref[(slice(1, None),) * d] = acc
        lo = np.maximum(0, -shifts)
        hi = n - 1 - np.maximum(0, shifts)
        mass = _box_sums(pref, lo, hi) + _box_sums(pref, lo + shifts, hi + shifts)
    else:
        mass = 2.0 * float(sq.sum())
    c = corr[tuple(shifts[:, a] % s for a, s in enumerate(shape))]
    screened = np.maximum(mass - 2.0 * c, 0.0)
    ksq = (shifts * shifts).sum(axis=1)
    if d == 2:
        return _SupTable(_radius_max(ksq, screened * cellvol, radii), True, "corr",
                         len(shifts))
    err = _screen_error(float(sq.sum()), arr.shape, shape)
    near = np.zeros(len(shifts), dtype=bool)
    for r, top in zip(radii, _radius_max(ksq, screened, radii)):
        near |= (ksq <= _rsq_bound(r)) & (screened >= top - 2.0 * err)
    values = np.full(len(shifts), -np.inf)
    values[near] = _direct_values(arr, shifts[near], 2, cellvol, interior)
    return _SupTable(_radius_max(ksq, values, radii), True, "corr", len(shifts),
                     int(near.sum()))


def _structured_shifts(d: int, rmax: float):
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
    rng = np.random.default_rng(_DIRECTION_SEED)
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
    bound = _rsq_bound(rmax)
    for u in sorted(dirs):
        norm_u = math.sqrt(sum(v * v for v in u))
        for r in radii:
            m = max(1, int(round(r / norm_u)))
            k = tuple(v * m for v in u)
            if sum(v * v for v in k) <= bound:
                shifts.add(k)
    return sorted(shifts)


def _build_table(arr: np.ndarray, p: float, radii, cellvol: float,
                 interior: bool) -> _SupTable:
    """The table for this input at ``radii``: corr for p = 2; otherwise direct
    enumeration in d = 1, and in d = 2 while half-ball shifts x cells stays
    within ``_DIRECT_WORK_BUDGET``; else the structured direction set, a lower
    bound by design (d = 3 is the experimental dimension)."""
    if p == 2:
        return _corr_table(arr, radii, cellvol, interior)
    d, rmax = arr.ndim, max(radii)
    work = math.pi * rmax * rmax / 2.0 * arr.size  # half-ball shifts x cells
    structured = d > 2 or (d == 2 and work > _DIRECT_WORK_BUDGET)
    return _enumerated_table(arr, p, radii, cellvol, interior, structured)


# ---------------------------------------------------------------------------
# public moduli


def _check_p(p: float):
    if p < 1:
        raise ValueError("p must be >= 1")


def interior_modulus(f: GridFunction, p: float, t: float) -> float:
    """Largest ||f(.+h) - f(.)||_p over lattice shifts |h| <= t staying in Q.

    Scales below the lattice resolution have no admissible shift; they warn
    and evaluate to zero.
    """
    _check_p(p)
    if not 0 < t <= math.sqrt(f.d) * (1 + 1e-9):
        raise ValueError("scale t must lie in (0, sqrt(d)]")
    if t * f.n < 1.0 - 1e-9:
        warnings.warn("scale below lattice resolution; interior modulus set to 0",
                      ResolutionWarning, stacklevel=2)
        return 0.0
    return _flagged_points(_curve("interior", f, p, (t,)))[0][1]


def _require_margin(g: ExtendedGridFunction, cap: int):
    if g.margin < cap:
        raise ValueError(
            f"margin {g.margin} cells cannot hold shifts of {cap} cells; re-extend")
    edges = (slice(0, cap), slice(g.size - cap, g.size)) if cap > 0 else ()
    for axis in range(g.d):
        for edge in edges:
            slab = [slice(None)] * g.d
            slab[axis] = edge
            if np.any(g.samples[tuple(slab)]):
                raise ValueError(
                    "window carries mass within shift range of its edge; re-extend")


def whole_modulus(g: ExtendedGridFunction, p: float, t: float) -> float:
    """Largest ||g(.+h) - g(.)||_p over |h| <= t, integrating over the window.

    Requires the margin to absorb every admissible shift so the window norm
    equals the whole-space norm; otherwise the caller must re-extend.
    """
    _check_p(p)
    if t <= 0:
        raise ValueError("scale t must be positive")
    if _shift_cells(t, g.n) < 1:
        warnings.warn("scale below lattice resolution; whole modulus set to 0",
                      ResolutionWarning, stacklevel=2)
        return 0.0
    return _flagged_points(_curve("whole", g, p, (t,)))[0][1]


def _curve(kind: str, arr, p: float, t_grid, name: str = "") -> ModulusCurve:
    """Every modulus query: one supremum table for the lookup radii t * n
    cells, then one lookup per t."""
    _check_p(p)
    ts = tuple(sorted(t_grid)) if t_grid is not None else default_t_grid(arr.level)
    interior = kind == "interior"
    extra = {} if interior else {"margin": arr.margin}
    if not interior:
        _require_margin(arr, _shift_cells(max(ts), arr.n))
    radii = [t * arr.n for t in ts]
    table = _build_table(arr.samples, p, radii, arr.cell_volume, interior)
    points, flags = [], []
    for t, r, power in zip(ts, radii, table.powers):
        if r < 1.0 - 1e-9:
            points.append((t, 0.0))
            flags.append("below_resolution")
        else:
            points.append((t, power ** (1.0 / p)))
            flags.append("" if table.exact else "lower_bound")
    meta = {"d": arr.d, "L": arr.level, "function": name, **extra,
            "exact": table.exact, "method": table.method, "shifts": table.shifts,
            "rechecked": table.rechecked}
    return ModulusCurve(kind, p, tuple(points), meta, tuple(flags))


def _flagged_points(curve: ModulusCurve) -> tuple:
    """The curve's points, warning when they are lower bounds."""
    if not curve.meta["exact"]:
        warnings.warn(f"{curve.kind} modulus from the {curve.meta['method']} table "
                      "is a lower bound on the supremum", LowerBoundWarning,
                      stacklevel=3)
    return curve.points


def interior_curve(f: GridFunction, p: float, t_grid=None, name: str = "") -> ModulusCurve:
    """Interior modulus at every scale of ``t_grid`` (default: dyadic grid)."""
    return _curve("interior", f, p, t_grid, name)


def whole_curve(g: ExtendedGridFunction, p: float, t_grid=None,
                name: str = "") -> ModulusCurve:
    """Whole modulus at every scale of ``t_grid``; the margin must hold every shift."""
    return _curve("whole", g, p, t_grid, name)


def interior_dyadic_values(f: GridFunction, p: float, js) -> dict:
    """Interior modulus at the dyadic scales 2^-j for the requested j's.

    One supremum table serves every scale, so a whole ladder costs little
    more than its coarsest (largest-radius) entry.
    """
    js = sorted(set(int(j) for j in js))
    if any(j < 0 or j > f.level for j in js):
        raise ValueError("dyadic exponents must lie in 0..L")
    curve = _curve("interior", f, p, [2.0 ** (-j) for j in js])
    values = dict(_flagged_points(curve))
    return {j: values[2.0 ** (-j)] for j in js}


def interior_ladder(f: GridFunction, p: float) -> np.ndarray:
    """Interior modulus at every dyadic scale: entry j holds the value at 2^-j."""
    values = interior_dyadic_values(f, p, range(f.level + 1))
    return np.array([values[j] for j in range(f.level + 1)])


def hybrid_modulus(f: GridFunction, p: float, t: float, ladder=None,
                   norm: float | None = None) -> tuple:
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
        ladder = interior_ladder(f, p)
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


def hybrid_curve(f: GridFunction, p: float, t_grid=None, name: str = "") -> ModulusCurve:
    ts = tuple(sorted(t_grid)) if t_grid is not None else default_t_grid(f.level)
    ladder = interior_ladder(f, p)
    norm = lp_norm(f, p)
    points, flags, s_opt = [], [], []
    for t in ts:
        value, s = hybrid_modulus(f, p, t, ladder=ladder, norm=norm)
        points.append((t, value))
        flags.append(f"s_opt={s:g}")
        s_opt.append(s)
    meta = {"d": f.d, "L": f.level, "function": name, "s_opt": tuple(s_opt)}
    return ModulusCurve("hybrid", p, tuple(points), meta, tuple(flags))
