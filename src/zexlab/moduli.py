"""L^p moduli of continuity on the cube, on the padded window, and hybrids.

Three quantities per function f and scale t:

* interior modulus  sup_{|h|<=t} ||f(.+h) - f(.)||_{L^p over cells staying in Q}
* whole modulus     the same supremum for a window function, integrating over
                    the full padded window (the lattice stand-in for R^d)
* hybrid modulus    inf over dyadic s of
                        interior(s) + min{(sqrt(d) t / s)^(1/p), 1} ||f||_p
                    for p > 1, and for p = 1 the variant with
                        max{sqrt(d) t / s, 1} |log(s / (sqrt(d) t))| ||f||_1,
                    from one interior ladder and one norm (``hybrid_curve``).

Shifts are lattice multiples of the cell side, so each candidate difference
norm is an exact cell sum.  Every interior or whole query, single-scale or
curve, reads one supremum table: per lookup radius t * n cells, the largest
cell sum E_p(k) = sum_i |f(i+k) - f(i)|^p over the shifts |k| within it.
Tables count in cell sums; only ``_curve`` multiplies them by the cell
volume, a power of two, so exactly.  A single-scale query, hybrid ones too,
is the row of a one-point curve.

Every table reads one box split.  B is the array's box: the cube for an
interior table, the smallest box of the window that holds its support for a
whole one.  Each shift's sum splits as E_p(k) = E_p^int(k) + layer(k): the
interior sum of B (0 for a shift that leaves B), which an FFT screen reads
on B's own grid, plus B's boundary layer 2 M_p - O_p(k), the mass M_p of
|f|^p on B twice less its overlap mass O_p(k), read from prefix sums, with a
derived allowance.  An interior table has no layer.  No FFT grid is sized
from a window, and a table with no shift runs no screen or FFT.  The input
alone picks what the table does with the split; callers cannot choose it:

* d = 2, p = 2: the screened values are the table.  Each shift's interior
  sum is read as overlap masses (summed-area tables) minus twice one FFT
  autocorrelation, and the layer is added: within a stated floating-point
  bound of the direct enumeration, not bit-equal to it.
* every other (d, p): branch and bound.  The same screen, extended to
  sum |f(.+k) - f|^4 by two more FFT correlations, gives each shift a
  certified upper bound on its computed sum (Hölder between the 2- and
  4-norms on the interior sum, plus the layer, with floating-point
  allowances); at each radius the shifts are evaluated directly, on the
  cube or the window, in descending bound until the bound falls to the best
  value found.  The maximum is always evaluated, so the values equal the
  direct enumeration bit for bit.

Every FFT here and in ``kernels`` is one ``_fft_product`` on a 5-smooth grid
(``_next_fast_len``), scipy.fft's passes bit for bit in blocks that bound
what it holds; a screen keeps only the rows 0 <= k_0 <= max k_0 it reads.

Only the direct sums run on threads: ``_WORKERS``, one per usable core, on
a table of at least ``_THREAD_CELLS`` cells, the cube's or the window's,
each into its own buffer; on a smaller table handing the interpreter lock
between threads cost more than they gained.  A whole table's buffer is a
window zeroed once, and each sum writes only the box where its difference
can be nonzero (``_diff_power_window``).  Every FFT pass runs on the
calling thread: numpy.fft releases the interpreter lock, but splitting each
pass's lines over two cores cost ``verify`` about 0.6 s of CPU and saved no
wall time beyond its run-to-run spread (2 cores, numpy 2.4).  Values, uppers
and ``rechecked`` do not depend on the thread count, and nothing but the
process's CPU affinity (e.g. ``taskset``) sets it.

Direct evaluation is capped at ``_DIRECT_WORK_BUDGET`` cells of work.  A radius
left unfinished at the cap keeps the best value found, a lower bound flagged
``lower_bound`` and ``exact=False``, bracketed by a certified upper bound;
``meta["upper"]`` holds one per point (equal to the value on exact points),
and the single-scale queries emit a ``LowerBoundWarning``.  Each curve's
``meta`` also records the table's method, the shifts of its half ball, the
shifts it evaluated directly (``rechecked``), the threads that evaluated
them (``threads``) and the seconds it took to build (``elapsed``); no CSV
prints the last two.
"""
from __future__ import annotations

import itertools
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (_MAX_CELLS, ExtendedGridFunction, GridFunction, _abs_pow,
                   _check_exponent, _csv, _shift_cells, _support_box, lp_norm)


class ResolutionWarning(UserWarning):
    """Requested scale lies below the lattice resolution."""


class LowerBoundWarning(UserWarning):
    """A single-scale modulus is a lower bound: its table hit the direct
    evaluation budget, and the message gives the certified bracket."""


CURVE_KINDS = ("interior", "whole", "hybrid", "error_norm")
CURVE_CSV_HEADER = "t,value,kind,p,d,L,function,flags"

# cap on direct evaluation: shifts * cells of elementwise work per table
_DIRECT_WORK_BUDGET = 2 * 10 ** 8


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
        function = str(meta.get("function", "")).replace(",", ";")
        return _csv(CURVE_CSV_HEADER, ((t, v, self.kind, float(self.p), meta.get("d", ""),
                                        meta.get("L", ""), function, flag)
                                       for (t, v), flag in zip(self.points, self.flags)))


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
# assumed relative error of one elementwise power, in unit roundoffs
_POW_ULPS = 8
# candidate shifts per _half_shifts block: bounds the candidate temporaries
_SHIFT_BLOCK = 1 << 12
# threads of a table's direct sums: every usable core
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# the fewest cells of a table (the cube's or the window's) whose direct sums
# run on _WORKERS threads
_THREAD_CELLS = 1 << 17


def _gamma(k: float) -> float:
    """Relative error bound of k successive roundings, k u / (1 - k u)."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _rsq_bound(r: float) -> float:
    """Largest squared shift length (in cells) admitted at radius r cells."""
    return r * r * (1.0 + 1e-12) + 1e-9


@dataclass(frozen=True)
class _SupTable:
    """Per lookup radius r (in cells), in the order the radii were given: the
    largest difference sum found over the shifts |k| <= r, and a certified
    upper bound on every shift's sum there.  A radius is exact when the two
    agree; its value is then the direct enumeration's maximum.  The sums are
    cell sums, before the cell volume."""

    powers: tuple
    uppers: tuple
    method: str          # corr (d = 2, p = 2), bound, or direct (the reference)
    shifts: int = 0      # shifts of the half ball
    rechecked: int = 0   # shifts evaluated by a direct difference sum
    threads: int = 1     # threads that evaluated the direct sums

    @property
    def exact(self) -> tuple:
        return tuple(u == v for u, v in zip(self.uppers, self.powers))


def _radius_max(ksq: np.ndarray, radii, *columns) -> tuple:
    """Per column of per-shift values, the max over the shifts with squared
    length ``ksq`` within each radius (0.0 where no shift fits), as one tuple
    per column.  The lengths are sorted once for every column."""
    order = np.argsort(ksq, kind="stable")
    counts = np.searchsorted(ksq[order], [_rsq_bound(r) for r in radii], side="right")
    return tuple(tuple(float(best[c - 1]) if c else 0.0 for c in counts)
                 for best in (np.maximum.accumulate(v[order]) for v in columns))


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


def _diff_power_interior(samples: np.ndarray, k, p: float, out: np.ndarray) -> float:
    """Sum |f(i+k)-f(i)|^p over cells with both endpoints inside the cube.
    The differences go into the contiguous prefix of ``out``, a flat float
    array of at least ``samples.size``: the shape and layout of a fresh
    array, so the same pairwise sum.  Differences
    inside the cube are rarely exactly 0, so the power runs over every cell
    (``_abs_pow`` without ``zeros``)."""
    base, shifted, shape = [], [], []
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
        shape.append(n - abs(ka))
    diff = np.subtract(samples[tuple(shifted)], samples[tuple(base)],
                       out=out[:math.prod(shape)].reshape(shape))
    return float(_abs_pow(diff, p, out=diff).sum())


def _diff_power_window(window: np.ndarray, k, p: float, out: np.ndarray, box) -> float:
    """Sum |g(i+k)-g(i)|^p over the whole window, zero outside it, through
    ``out``, a zeroed array of the window's shape, which it leaves zeroed.
    Only the cells i of the smallest box holding B and B - k, B = ``box``
    (None: no support), can differ from 0: their differences go into
    ``out``, a partner i + k off the window reading 0, and the power skips
    the exact zeros among them.  ``box`` may be any box of the window that
    holds the support: a whole table passes the tight ``_support_box``,
    ``dyadic``'s shift bounds the cube; the cells outside the support
    difference to exact zeros, so the bits are the same.  The sum runs over
    all of ``out``: the window's pairwise order, so the same bits as the
    full difference array."""
    if box is None:
        return 0.0
    cells, kept, partners = [], [], []
    for ka, n, b in zip(map(int, k), window.shape, box):
        lo, hi = max(min(b.start, b.start - ka), 0), min(max(b.stop, b.stop - ka), n)
        start = max(lo, -ka)  # the cells whose partner is on the window
        stop = max(min(hi, n - ka), start)
        cells.append(slice(lo, hi))
        kept.append(slice(start, stop))
        partners.append(slice(start + ka, stop + ka))
    diff = out[tuple(cells)]
    if kept == cells:
        np.subtract(window[tuple(partners)], window[tuple(cells)], out=diff)
    else:
        out[tuple(kept)] = window[tuple(partners)]
        np.subtract(diff, window[tuple(cells)], out=diff)
    _abs_pow(diff, p, out=diff, zeros=True)
    total = float(out.sum())
    diff[...] = 0.0
    return total


def _direct_sums(arr: np.ndarray, p: float, interior: bool, box):
    """(evaluate, buffer): evaluate(k, out) is the direct difference sum of
    shift k into ``out``, one buffer() per thread: the cube's size for an
    interior table, a zeroed window for a whole one with support box ``box``
    (``_support_box``)."""
    if interior:
        return (lambda k, out: _diff_power_interior(arr, k, p, out),
                lambda: np.empty(arr.size))
    return (lambda k, out: _diff_power_window(arr, k, p, out, box),
            lambda: np.zeros(arr.shape))


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


def _overlap_mass(w: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per shift k, the sum of ``w`` over the cells i with i and i + k both in
    the box plus the same sum over the cells i + k: box sums read from d-dim
    prefix sums (summed-area tables)."""
    d = w.ndim
    pref = np.zeros(tuple(s + 1 for s in w.shape))
    acc = w
    for axis in range(d):  # in place in pref, after its zero first row per axis
        acc = np.cumsum(acc, axis=axis, out=pref[(slice(1, None),) * d])
    lo = np.maximum(0, -shifts)
    hi = np.array(w.shape) - 1 - np.maximum(0, shifts)
    return _box_sums(pref, lo, hi) + _box_sums(pref, lo + shifts, hi + shifts)


def _screen_error(shape, padded, q: int, energy: float, weighted: float) -> float:
    """Bound e on |screened E_q(k) - E_q(k)| for every shift, q = 2 or 4.

    E_q(k) is the exact sum of |f(i+k) - f(i)|^q; the screen reads it off
    f' = fl(f - mu) 2^-s, centred on a float mu (0 for raw samples) and scaled
    by a power of two, and the bound is in those scaled units.  ``energy`` is
    Q = sum f'^q and ``weighted`` is W, the screen's correlation weights times
    ||a||_2 ||b||_2 of their factors: 2 Q for E2 (c11), and for E4
    6 Q + 8 sqrt(sum f'^6 sum f'^2) (c22 and the pair of c31).  Exactly, each
    overlap mass is at most Q and |c_ab(k)| <= ||a||_2 ||b||_2.  Let m be the
    cells of the array, n_a its side on axis a, N the cells of the padded FFT
    grid and u the unit roundoff; g(k) = k u/(1 - k u).

    * Masses.  f'^q takes q - 1 products and a prefix sum n_a - 1 sequential
      additions along each axis, so its error is at most g(k_p) Q with
      k_p = q - 1 + sum_a (n_a - 1).  A box sum adds 2^d corners by 2^d - 1
      operations on terms of size at most 2^d Q; two boxes and their sum
      give 2^(d+1) (g(k_p) + 2^d u) Q + 2 u Q.  The bound takes the larger
      of this and 2 g(m) Q, the error of 2 fl(sum f'^q) in any order.  For
      d >= 2 that is the larger term; dropping it would tighten every d >= 2
      bound and so move the tables' ``rechecked`` and ``upper``.
    * Correlations.  Assume one FFT, forward or inverse, has relative 2-norm
      error at most eta = _FFT_ULPS u (log2 N + 1); Higham (Accuracy and
      Stability of Numerical Algorithms, Thm 24.2) gives about 6.7 u per
      radix-2 stage.  With A = DFT(a) and ||A||_2^2 = N ||a||_2^2, forming
      and combining the products A conj(B) adds g(4) per entry, so the
      spectrum is off by at most omega N W in 2-norm,
      omega = eta (2 + eta) + g(4) (1 + eta)^2.  The inverse transform and
      its 1/N scaling then bound the max error by the 2-norm error:
      sqrt(N) W (omega + eta (1 + omega)) + u W.  For E4 the factors f'^2
      and f'^3 carry up to two roundings each: g(2) W more.
    * The sum of masses and correlations, operands at most 2 Q and W:
      u (2 Q + W).
    * Centring.  f - mu = f' (1 + theta_i) 2^s with |theta_i| <= g(1), so by
      Minkowski E_q(f)^(1/q) <= E_q(f')^(1/q) + 2 g(1) ||f'||_q in scaled
      units, and E_q(f')^(1/q) <= 2 ||f'||_q: at most q 2^q g(q) Q more.

    The total is doubled to cover the second-order terms, the rounding of Q
    and W themselves and any underflow in the scaling.
    """
    u = _UNIT_ROUNDOFF
    d, m, big_n = len(shape), math.prod(shape), math.prod(padded)
    masses = max(2 ** (d + 1) * (_gamma(q - 1 + sum(n - 1 for n in shape)) + 2 ** d * u)
                 + 2 * u, 2 * _gamma(m))
    eta = _FFT_ULPS * u * (math.log2(big_n) + 1)
    omega = eta * (2 + eta) + _gamma(4) * (1 + eta) ** 2
    corr = math.sqrt(big_n) * (omega + eta * (1 + omega)) + u + _gamma(q - 2)
    centre = q * 2 ** q * _gamma(q)
    return 2.0 * (energy * (masses + 2 * u + centre) + weighted * (corr + u))


def _screen(arr: np.ndarray, shifts: np.ndarray, shape, orders) -> dict:
    """For q in ``orders`` (2 and/or 4): the screened E_q(k) = sum over the
    overlap of |f(i+k) - f(i)|^q at every shift, clamped at zero, with its
    ``_screen_error`` bound, as {q: (values, error)}.

    With c_ab(k) = sum_i f(i+k)^a f(i)^b, a correlation read off FFTs on the
    padded grid ``shape``:

        E2 = (f^2 masses) - 2 c11(k),
        E4 = (f^4 masses) - 4 (c31(k) + c31(-k)) + 6 c22(k),

    the masses from ``_overlap_mass``.  With F_a = DFT(f^a), one
    ``_fft_product`` reads c11 off conj(F1) F1 and the E4 correlations off
    6 |F2|^2 - 8 Re(F3 conj F1).  A grid of n + max |k_a| cells per axis
    holds every shift; only the rows k_0 <= max k_0 are kept."""
    keep = (slice(0, int(shifts[:, 0].max(initial=0)) + 1),) + (slice(None),) * (len(shape) - 1)
    # per order its mass, correlation weight and error bound, before the FFT,
    # which then alone holds the powers (in d >= 2 releasing each in turn)
    sq = arr * arr
    energy = float(sq.sum())
    factors, terms = [(arr, 0)], {}
    if 2 in orders:
        terms[2] = (_overlap_mass(sq, shifts), -2.0,
                    _screen_error(arr.shape, shape, 2, energy, 2.0 * energy))
    if 4 in orders:
        cube = sq * arr
        weighted = 8.0 * math.sqrt(float((cube * cube).sum()) * energy)
        quart = sq * sq
        quartic = float(quart.sum())
        terms[4] = (_overlap_mass(quart, shifts), 1.0,
                    _screen_error(arr.shape, shape, 4, quartic, weighted + 6.0 * quartic))
        factors += [(sq, 0), (cube, 0)]
        del cube, quart
    del sq

    def spectra(F):
        # E2's block, then E4's in F3's: at most three blocks at once.  E2's is
        # conj(F1) F1, fixed: complex products round with fused multiply-adds
        f1, parts = F(0), []
        if 2 in orders:
            conj = np.conj(f1)
            parts.append(np.multiply(conj, f1, out=conj))
        if 4 in orders:
            parts.append(_real_product(F(2), f1, -8.0))
            del f1
            f2 = F(1)
            parts[-1].real += _real_product(f2, f2, 6.0).real
        return parts

    corr = _fft_product(factors, shape, spectra, keep)
    at = tuple(shifts[:, a] % s for a, s in enumerate(shape))
    return {q: (np.maximum(mass + weight * c[at], 0.0), error)
            for (q, (mass, weight, error)), c in zip(terms.items(), corr)}


def _next_fast_len(target: int) -> int:
    """The least n >= target (>= 1) with no prime factor above 5, every FFT
    grid's side: ``scipy.fft.next_fast_len(target, real=True)``.  Each odd
    such factor m below 2 target is lifted to target by the least power of two."""
    odd = [1]
    for prime in (3, 5):
        for m in odd[:]:
            m *= prime
            while m < 2 * target:
                odd.append(m)
                m *= prime
    return min(m << ((target - 1) // m).bit_length() for m in odd)


# the bytes of one factor's spectrum in one block of ``_fft_product``
_BLOCK_BYTES = 8 << 20


def _blocks(count: int, item_bytes: int) -> list:
    """The fewest even slices over ``count`` items, each at most _BLOCK_BYTES
    (or one item): a count just over one block splits in halves."""
    most = max(_BLOCK_BYTES // item_bytes, 1)
    step = -(-count // -(-count // most))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _fft_product(factors, grid, combine, keep, out=None) -> np.ndarray:
    """out[p] (C-contiguous; made if None): the irfftn over the last m =
    len(grid) axes, cut to ``keep`` (a slice per axis), of the p-th complex
    product in the list ``combine(F)``.  F(i), called once a block, is the
    rfftn of factors[i] = (array, start) zero-padded to ``grid``: the array
    at ``start`` on each axis but the last, its axes before the last m a
    batch.  An array leaves ``factors`` once its whole last-axis rfft is
    made for m >= 2, or when the call returns for m = 1 (so a 1-d screen
    holds its three powers of the box to the end), so a caller that keeps
    no other name for it lets it go then.

    The passes are scipy.fft's, bit for bit: rfft on the last axis, then the
    others in order (numpy's rfftn reverses them, which moves bits from
    m = 3 on); inverses in that order, then irfft times 1/N.  Every pass
    skips lines zero going in or cut coming out, in blocks of at most
    ``_BLOCK_BYTES`` of a factor's spectrum: of lines for m = 1, else of
    last-axis frequencies (columns) and then of lines for the last inverse.
    For m = 1 a one-row factor broadcasts over the batch, transformed again
    in each block.  For m >= 2 a factor's last-axis rfft runs a block of
    lines at a time through one buffer into one piece per column block; a
    piece goes once spread over the grid, each block's cut inverse is kept
    as its own array, and the last irfft gathers each line block from those
    through one buffer.  So a call holds at once, besides ``out``, the
    column pieces not yet used, one block's spreads, the finished column
    results and two line buffers.  Each line is transformed alone, on the
    calling thread (see the module docstring)."""
    m, fast, grid = len(grid), grid[-1], tuple(grid)
    half = fast // 2 + 1
    kept = tuple(len(range(n)[cut]) for n, cut in zip(grid, keep))
    shapes, starts = [a.shape for a, _ in factors], [start for _, start in factors]
    batch = np.broadcast_shapes(*(shape[:-m] for shape in shapes))
    scale = np.float64(1 / np.longdouble(math.prod(grid)))

    def inverse(spectrum, lines):
        np.multiply(np.fft.irfft(spectrum, fast, axis=-1, norm="forward")[..., keep[-1]],
                    scale, out=lines)

    if m == 1:
        rows = [a.reshape(-1, a.shape[-1]) for a, _ in factors]
        for block in _blocks(math.prod(batch), 16 * half):
            prods = combine(lambda i: np.fft.rfft(
                rows[i][block if len(rows[i]) > 1 else slice(None)], fast, axis=-1))
            out = np.empty((len(prods),) + batch + kept) if out is None else out
            for p, prod in enumerate(prods):
                inverse(prod, out[p].reshape(-1, kept[-1])[block])
        return out
    blocks = _blocks(half, 16 * math.prod(batch) * math.prod(grid[:-1]))
    pieces, done = {}, []

    def columns(i):
        # factor i's last-axis rfft, a block of lines at a time through one
        # buffer, scattered into one piece per column block
        a, factors[i] = factors[i][0], None
        made = [np.empty(a.shape[:-1] + (cols.stop - cols.start,), complex) for cols in blocks]
        lines = _blocks(len(a), 16 * half * math.prod(a.shape[1:-1]))
        buffer = np.empty((lines[0].stop,) + a.shape[1:-1] + (half,), complex)
        for rows in lines:
            spectrum = np.fft.rfft(a[rows], fast, axis=-1, out=buffer[:rows.stop - rows.start])
            for piece, cols in zip(made, blocks):
                piece[rows] = spectrum[..., cols]
        return made

    def spread(i, j):
        # block j's piece of factor i, dropped once spread over the grid
        if i not in pieces:
            pieces[i] = columns(i)
        lines, pieces[i][j] = pieces[i][j], None
        support = tuple(slice(starts[i], starts[i] + n) for n in shapes[i][-m:-1])
        spread = np.zeros(shapes[i][:-m] + grid[:-1] + lines.shape[-1:], complex)
        spread[(..., *support, slice(None))] = lines
        del lines
        for axis in range(m - 1):
            sel = (..., *(slice(None),) * (axis + 1), *support[axis + 1:], slice(None))
            np.fft.fft(spread[sel], axis=axis - m, out=spread[sel])
        return spread

    for j in range(len(blocks)):
        prods = combine(lambda i: spread(i, j))
        for p, prod in enumerate(prods):
            for axis, cut in enumerate(keep[:-1]):
                prod = np.fft.ifft(prod, axis=axis - m, norm="forward", out=prod)[
                    (..., cut, *(slice(None),) * (m - 1 - axis))]
            if j == 0:
                done.append([])
            done[p].append(prod.copy())  # the cut columns alone, not their spread
        del prods, prod
    out = np.empty((len(done),) + batch + kept) if out is None else out
    lines = _blocks(math.prod(batch + kept[:-1]), 16 * half)
    gathered = np.empty((lines[0].stop, half), complex)
    for p, cut in enumerate(done):
        cut, done[p] = [c.reshape(-1, c.shape[-1]) for c in cut], None
        for rows in lines:
            part = gathered[:rows.stop - rows.start]
            for piece, cols in zip(cut, blocks):
                part[:, cols] = piece[rows]
            inverse(part, out[p].reshape(-1, kept[-1])[rows])
    return out


def _real_product(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """``a``, made scale Re(a conj(b)) + 0i in place, elementwise."""
    real = np.multiply(a.real, b.real, out=a.real)
    real += np.multiply(a.imag, b.imag, out=a.imag)
    real *= scale
    a.imag = 0.0
    return a


def _holder(arr: np.ndarray, shifts: np.ndarray, p: float, shape):
    """(H, s) with H(k) 2^(s p) an upper bound on the exact
    E_p(k) = sum |f(i+k) - f(i)|^p over the cells i with i and i + k both in
    the box ``arr``, up to the rounding of forming it.  ``arr`` is not
    constant: the split (``_split``) screens no box without a difference.

    The array is centred on its mean (differences do not change, and an
    input near a constant keeps a usable bound) and scaled by 2^-s, a power
    of two below 1 in magnitude.  With A_q = screened E_q + e_q >= E_q
    (``_screen`` on the grid ``shape``), Hölder's inequality gives H:

    * 1 <= p <= 2: m_k^(1 - p/2) A_2^(p/2), m_k the cells of the overlap;
    * 2 < p < 4: A_2^((4 - p)/2) A_4^((p - 2)/2);
    * p >= 4: osc^(p - 4) A_4, osc = max - min of the array.

    Forming H 2^(s p) takes up to three powers and three products.
    """
    work = arr - arr.mean()
    _, scale = math.frexp(float(np.abs(work).max()))
    work = np.ldexp(work, -scale, out=work)
    screen = _screen(work, shifts, shape,
                     [q for q, used in ((2, p < 4), (4, p > 2)) if used])
    bounded = {q: values + error for q, (values, error) in screen.items()}
    if p <= 2:
        m_k = np.prod(np.array(arr.shape) - np.abs(shifts), axis=1)
        return m_k ** (1 - p / 2) * bounded[2] ** (p / 2), scale
    if p < 4:
        return bounded[2] ** ((4 - p) / 2) * bounded[4] ** ((p - 2) / 2), scale
    osc = math.ldexp(float(arr.max()) - float(arr.min()), -scale) * (1 + _gamma(1))
    return osc ** (p - 4) * bounded[4], scale


def _layer(w: np.ndarray, shifts: np.ndarray, inside: np.ndarray) -> tuple:
    """(layer, e): per shift k, fl(2 M - O(k)) clamped at zero, as the exact
    layer is nonnegative, and a bound e on its rounding.  The layer sums
    w = fl(|f|^p) over the cells i of the box whose partner i + k or i - k
    leaves it: exactly the window terms |0 - f|^p.  M sums w over the box;
    O(k) is ``_overlap_mass`` of w where ``inside``, else 0.

    The allowance.  Let S be the exact sum of w, m the box's cells, n_a its
    side on axis a and u the unit roundoff.  fl(M) is off by at most g(m) S
    in any summation order, 2 fl(M) by twice that.  fl(O) is off by at most
    (2^(d+1) (g(sum_a (n_a - 1)) + 2^d u) + 2 u) S, as the masses of
    ``_screen_error`` (without the powers, which w already holds).  The
    difference rounds once more, on operands at most 2 S: 2 u S.  The total,
    e = (2 g(m) + 2^(d+1) (g(sum_a (n_a - 1)) + 2^d u) + 4 u) S, is read with
    fl(M) for S and doubled, which covers the second-order terms and
    S <= fl(M) (1 + 2 g(m)).
    """
    u, d = _UNIT_ROUNDOFF, w.ndim
    mass = float(w.sum())
    layer = np.full(len(shifts), 2.0 * mass)
    if inside.any():
        layer[inside] -= _overlap_mass(w, shifts[inside])
    error = (2 * _gamma(w.size) + 2 ** (d + 1) * (_gamma(sum(n - 1 for n in w.shape))
                                                  + 2 ** d * u) + 4 * u)
    return np.maximum(layer, 0.0), 2.0 * error * mass


@dataclass(frozen=True)
class _Split:
    """One table's split of every shift's difference sum over B, the array's
    box: the cube for an interior table, the window's ``_support_box`` for a
    whole one.  A window cell i with i or i + k in B holds the term
    |f(i+k) - f(i)|^p when both are in B, else |f|^p of the one that is,
    which the window computes exactly as fl(|f|^p); every other term is 0.
    So E_p(k) = E_p^int(k) + layer(k): the interior sum of B (0 for a shift
    that leaves B) plus B's boundary layer (``_layer``), which an interior
    table does not have."""

    shifts: np.ndarray          # the half ball, (m, d)
    support: tuple | None       # B's slices; None when the window has no support
    box: np.ndarray | None      # B; None when it is absent or constant
    grid: list                  # B's FFT grid
    inside: np.ndarray | slice  # the shifts that keep an overlap in B; all: slice(None)
    layer: np.ndarray           # per shift, the layer; 0 for an interior table
    allowance: float            # the layer's rounding bound; 0 for an interior table
    cells: int                  # the array's cells: the cube's or the window's
    interior: bool


def _split(arr: np.ndarray, p: float, rmax: float, interior: bool, reach=None,
           support=None) -> _Split:
    """The box split of the table of ``arr`` over the half ball of radius
    ``rmax``.  B is the cube, or for a whole table ``support``, the window's
    ``_support_box`` (found here when None).  B's FFT grid takes per axis B's
    side plus the largest shift component within ``reach`` (default
    ``rmax``) that keeps an overlap, so it holds every such shift without
    wrap-around; a grid over ``_MAX_CELLS`` is refused before any shift or
    FFT.  A constant B has no interior difference: ``box`` is None and
    nothing is screened."""
    if interior:
        support = (slice(None),) * arr.ndim
    elif support is None:
        support = _support_box(arr)
    b, grid = None, []
    if support is not None:
        b, steps = arr[support], math.floor((rmax if reach is None else reach) + 1e-9)
        grid = [_next_fast_len(m + min(m - 1, steps)) for m in b.shape]
        cells = math.prod(grid)
        if cells > _MAX_CELLS:
            raise ValueError(
                f"a supremum table on {b.size} cells needs a {' x '.join(map(str, grid))} "
                f"FFT grid of {cells} cells (limit {_MAX_CELLS}); coarsen the lattice")
    shifts = _half_shifts(arr.ndim, rmax, arr.shape[0] - 1)
    # every shift of the half ball keeps an overlap in the cube: views, not copies
    inside, layer, allowance = slice(None), np.broadcast_to(0.0, len(shifts)), 0.0
    if b is not None and not interior:
        inside = np.all(np.abs(shifts) < b.shape, axis=1)
        layer, allowance = _layer(_abs_pow(b, p), shifts, inside)
    if b is not None and b.min() == b.max():
        b = None
    return _Split(shifts, support, b, grid, inside, layer, allowance, arr.size, interior)


def _upper_bounds(split: _Split, p: float) -> np.ndarray:
    """A certified upper bound U(k) at every shift of the split on the sum
    that ``_direct_sums`` computes for it.

    The computed sum rounds each difference in B once, raises it to p (at
    most _POW_ULPS u), and adds at most m terms, m the array's cells, the
    layer's terms among them: at most (E_int(k) (1 + u)^p (1 + _POW_ULPS u)
    + layer(k)) (1 + g(m)), plus m subnormal spacings if terms underflow,
    with E_int the exact interior sum of B and layer(k) ``_layer`` plus its
    allowance.  U = (H 2^(s p) + layer(k)) (1 + slack) + m subnormal
    spacings, with H 2^(s p) from ``_holder``; multiplying by the power of
    two 2^(s p) is exact.  The slack doubles (p + 4) u + 4 _POW_ULPS u + g(m)
    for an interior table: the sum's rounding and forming H.  A whole table
    adds 3 u to it for the two additions and the product that form U.  With
    no interior sum to screen and no layer mass, every computed difference
    is 0: U = 0.
    """
    u, m, tiny = _UNIT_ROUNDOFF, split.cells, np.finfo(float).smallest_subnormal
    if split.box is None and not split.allowance:
        return np.zeros(len(split.shifts))
    inner = 0.0  # H 2^(s p), screened before the bound's array is allocated
    if split.box is not None:
        held, scale = _holder(split.box, split.shifts[split.inside], p, split.grid)
        with np.errstate(over="ignore"):
            inner = held * np.exp2(scale * p)
    slack = 2.0 * ((p + (4 if split.interior else 7)) * u + 4 * _POW_ULPS * u + _gamma(m))
    bound = split.layer + split.allowance
    with np.errstate(over="ignore"):
        bound[split.inside] += inner
        return bound * (1.0 + slack) + m * tiny


def _descending_sums(evaluate, shifts: np.ndarray, bounds: np.ndarray, best: float,
                     buffers: list) -> np.ndarray:
    """The direct sums ``evaluate(k, buffer)`` of ``shifts``, whose ``bounds``
    descend, on one thread per buffer: the caller's, and a helper thread for
    each further buffer while there is a shift for it.  Every thread pulls
    the next index from one shared counter and stops at the first index
    whose bound is at most ``best`` or the largest sum found so far, which
    only ever comes from smaller indices; then every thread stops at its next
    pull.  Unevaluated sums read -inf.  So every shift that a one-thread walk
    in bound order would evaluate before its bound falls to the best is
    evaluated here, and possibly a few after it.  An exception in any thread
    is raised here once every helper has joined."""
    found = np.full(len(shifts), -np.inf)
    # per thread the largest sum it found, written by that thread alone
    pull, tops, stop, errors = itertools.count(), [best] * len(buffers), [], []

    def work(w):
        try:
            while not stop:
                ceiling = max(tops)  # read before the pull: fed by smaller indices only
                j = next(pull)
                if j >= len(shifts) or bounds[j] <= ceiling:
                    break
                found[j] = value = evaluate(shifts[j], buffers[w])
                tops[w] = max(tops[w], value)
        except BaseException as error:
            errors.append(error)
        finally:
            stop.append(True)

    helpers = [threading.Thread(target=work, args=(w,))
               for w in range(1, min(len(buffers), len(shifts)))]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return found


def _bound_table(arr: np.ndarray, split: _Split, upper: np.ndarray, p: float,
                 radii) -> _SupTable:
    """Branch and bound over the split's half ball, given each shift's
    certified upper bound ``upper`` on its ``_direct_sums`` sum.

    At each lookup radius, ascending, the shifts within it that are not yet
    evaluated are evaluated by direct difference sums in descending bound
    until the bound falls to the best value found there; values found at
    smaller radii count.  Every shift left out has a computed value at most
    its bound, so at most the best: the maximum is always evaluated and each
    radius reads the direct enumeration's maximum bit for bit.

    Direct evaluation stops after ``_DIRECT_WORK_BUDGET`` cells of work
    (shifts x array cells).  A radius left unfinished keeps the best value
    found, a lower bound, with the certified upper bound max(best, largest
    bound of a shift within it left out); every radius finished before the
    cap is exact.  Both are read by ``_radius_max``.

    A table of at least ``_THREAD_CELLS`` cells, interior or whole,
    evaluates each radius's shifts on ``_WORKERS`` threads
    (``_descending_sums``), each into its own buffer (``_direct_sums``:
    the cube's size, or a window zeroed once); a smaller table, whose
    threads gained nothing (see the module docstring), on the caller's
    thread.  Once the threads have joined, the shifts are walked in bound
    order by the one-thread rule and only that prefix is kept, so values,
    uppers, ``rechecked`` and the budget spent do not depend on the thread
    count, which only the CPU affinity sets.
    """
    order = np.argsort(-upper, kind="stable")
    shifts, upper = split.shifts[order], upper[order]
    ksq = (shifts * shifts).sum(axis=1)
    values = np.full(len(shifts), -np.inf)  # -inf: not evaluated
    left = _DIRECT_WORK_BUDGET // arr.size
    workers = _WORKERS if arr.size >= _THREAD_CELLS else 1
    evaluate, buffer = _direct_sums(arr, p, split.interior, split.support)
    buffers = [buffer() for _ in range(workers)]
    for r in sorted(radii):
        inside = ksq <= _rsq_bound(r)
        best = values[inside].max(initial=0.0)
        todo = np.flatnonzero(inside & (values < 0) & (upper > best))[:left]
        found = _descending_sums(evaluate, shifts[todo], upper[todo], best, buffers)
        for i, value in zip(todo, found):
            if upper[i] <= best:
                break
            values[i] = value
            best = max(best, value)
            left -= 1
    done = values >= 0
    powers, uppers = _radius_max(ksq, radii, np.maximum(values, 0.0),
                                 np.where(done, values, upper))
    return _SupTable(powers, uppers, "bound", len(shifts), int(done.sum()), workers)


def _build_table(arr: np.ndarray, p: float, radii, interior: bool,
                 support=None) -> _SupTable:
    """The table for this input at ``radii``, from one box split
    (``_split``; ``support``: a whole table's support box, when the caller
    has found it).  A table with no shift runs no screen or FFT.  Every
    input but d = 2, p = 2 takes the upper-bound screen (``_upper_bounds``)
    and branch and bound (``_bound_table``).

    For d = 2 and p = 2 the screened values are the table: the layer plus
    B's interior sums (``_screen`` on a grid that holds every shift of B).
    They lie within ``_screen_error`` of the direct enumeration but may
    differ from it in the last digits (on ``rand2_d2`` at L = 10 and
    t = 2^-8 the interior modulus reads 0.10131710135113675 screened and
    0.10131710135111947 direct), and the verify artifacts pin them, so this
    table neither confirms them nor changes the screen's grid."""
    method = "corr" if arr.ndim == 2 and p == 2 else "bound"
    if max(radii) < 1.0 - 1e-9:
        zeros = (0.0,) * len(radii)
        return _SupTable(zeros, zeros, method)
    split = _split(arr, p, max(radii), interior, arr.shape[0] if method == "corr" else None,
                   support)
    if method == "bound":
        return _bound_table(arr, split, _upper_bounds(split, p), p, radii)
    values = split.layer.copy()
    if split.box is not None:
        values[split.inside] += _screen(split.box, split.shifts[split.inside], split.grid,
                                        (2,))[2][0]
    powers, = _radius_max((split.shifts * split.shifts).sum(axis=1), radii, values)
    return _SupTable(powers, powers, method, len(values))


# ---------------------------------------------------------------------------
# public moduli


def _scales(kind: str, arr, t_grid) -> tuple:
    """The scales of a modulus or kernel query, ascending (None: the default
    grid), checked before anything is built.  An empty grid, any t that is
    not finite and > 0 and a repeated t are refused, and so is an interior
    t > sqrt(d), past every shift that stays in the cube."""
    ts = tuple(sorted(t_grid)) if t_grid is not None else default_t_grid(arr.level)
    if not ts:
        raise ValueError("a modulus curve needs at least one scale t")
    top = math.sqrt(arr.d) * (1 + 1e-9) if kind == "interior" else math.inf
    for previous, t in zip((0.0,) + ts, ts):
        if not (math.isfinite(t) and 0 < t <= top):
            bound = "(0, sqrt(d)]" if kind == "interior" else "finite and > 0"
            raise ValueError(f"scale t must be {bound}, got t={t!r}")
        if t <= previous:
            raise ValueError(f"t values must be strictly increasing: t={t!r} repeats")
    return ts


def interior_modulus(f: GridFunction, p: float, t: float) -> float:
    """Largest ||f(.+h) - f(.)||_p over lattice shifts |h| <= t staying in Q.

    Scales below the lattice resolution have no admissible shift; they warn
    and evaluate to zero.
    """
    return _flagged_points(_curve("interior", f, p, (t,)))[0][1]


def _require_margin(g: ExtendedGridFunction, cap: int, box):
    """Refuse a window whose margin, or whose support box ``box``
    (``_support_box``), leaves less than ``cap`` cells to its edge."""
    if g.margin < cap:
        raise ValueError(
            f"margin {g.margin} cells cannot hold shifts of {cap} cells; re-extend")
    if box is not None and any(s.start < cap or s.stop > g.size - cap for s in box):
        raise ValueError("window carries mass within shift range of its edge; re-extend")


def whole_modulus(g: ExtendedGridFunction, p: float, t: float) -> float:
    """Largest ||g(.+h) - g(.)||_p over |h| <= t, integrating over the window.

    Requires the margin to absorb every admissible shift so the window norm
    equals the whole-space norm; otherwise the caller must re-extend.
    Scales below the lattice resolution warn and evaluate to zero.
    """
    return _flagged_points(_curve("whole", g, p, (t,)))[0][1]


def _curve(kind: str, arr, p: float, t_grid, name: str = "") -> ModulusCurve:
    """Every modulus query: one supremum table for the lookup radii t * n
    cells, then one lookup per t.  The table's cell sums become integrals
    here, times the cell volume, a power of two, so exactly."""
    _check_exponent(p)
    ts = _scales(kind, arr, t_grid)
    interior = kind == "interior"
    extra, support = {}, None
    if not interior:
        extra, support = {"margin": arr.margin}, arr.support_box
        _require_margin(arr, _shift_cells(max(ts), arr.n), support)
    radii = [t * arr.n for t in ts]
    start = time.perf_counter()
    table = _build_table(arr.samples, p, radii, interior, support)
    elapsed = time.perf_counter() - start
    vol = arr.cell_volume
    points, flags, uppers = [], [], []
    for t, r, power, upper, exact in zip(ts, radii, table.powers, table.uppers,
                                         table.exact):
        if r < 1.0 - 1e-9:
            points.append((t, 0.0))
            flags.append("below_resolution")
            uppers.append(0.0)
        else:
            points.append((t, (power * vol) ** (1.0 / p)))
            flags.append("" if exact else "lower_bound")
            uppers.append((upper * vol) ** (1.0 / p))
    meta = {"d": arr.d, "L": arr.level, "function": name, **extra,
            "exact": all(table.exact), "method": table.method, "shifts": table.shifts,
            "rechecked": table.rechecked, "upper": tuple(uppers), "threads": table.threads,
            "elapsed": elapsed}
    return ModulusCurve(kind, p, tuple(points), meta, tuple(flags))


def _flagged_points(curve: ModulusCurve, ts=None) -> tuple:
    """The curve's points at the scales ``ts`` (default: every point),
    warning once when some of them are below the lattice resolution and once
    when some are lower bounds, at the caller of the caller (a single-scale
    query's, ``interior_ladder``'s or ``dyadic.average_error_report``'s)."""
    rows = [row for row in zip(curve.points, curve.flags, curve.meta["upper"])
            if ts is None or row[0][0] in ts]
    if any(flag == "below_resolution" for _, flag, _ in rows):
        warnings.warn(f"scale below lattice resolution; {curve.kind} modulus set to 0",
                      ResolutionWarning, stacklevel=3)
    brackets = "; ".join(f"t={t!r}: [{v!r}, {upper!r}]"
                         for (t, v), flag, upper in rows if flag == "lower_bound")
    if brackets:
        warnings.warn(f"{curve.kind} modulus hit the direct-evaluation budget; it lies "
                      f"in the certified bracket {brackets}", LowerBoundWarning,
                      stacklevel=3)
    return tuple(point for point, _, _ in rows)


def interior_curve(f: GridFunction, p: float, t_grid=None, name: str = "") -> ModulusCurve:
    """Interior modulus at every scale of ``t_grid`` (default: dyadic grid)."""
    return _curve("interior", f, p, t_grid, name)


def whole_curve(g: ExtendedGridFunction, p: float, t_grid=None,
                name: str = "") -> ModulusCurve:
    """Whole modulus at every scale of ``t_grid``; the margin must hold every shift."""
    return _curve("whole", g, p, t_grid, name)


def interior_ladder(f: GridFunction, p: float) -> np.ndarray:
    """Interior modulus at every dyadic scale: entry j holds the value at 2^-j.

    One supremum table serves every scale, so a whole ladder costs little
    more than its coarsest (largest-radius) entry.
    """
    curve = _curve("interior", f, p, [2.0 ** (-j) for j in range(f.level + 1)])
    return np.array([v for _, v in _flagged_points(curve)][::-1])


def hybrid_curve(f: GridFunction, p: float, t_grid=None, name: str = "") -> ModulusCurve:
    """Boundary-aware modulus at every scale of ``t_grid`` (default: dyadic
    grid): the best dyadic trade-off between the interior modulus at scale s
    (one ``interior_ladder``) and the mass term min{(sqrt(d) t/s)^(1/p), 1}||f||_p.

    For p = 1 the mass term is max{sqrt(d) t/s, 1} |log(s/(sqrt(d) t))| ||f||_1,
    evaluated literally; the log factor vanishes when s equals sqrt(d) t.
    ``meta["s_opt"]`` holds each t's minimizing s, ties resolving to the
    smaller s.  A repeated t is refused before the ladder is built."""
    _check_exponent(p)
    ts = _scales("hybrid", f, t_grid)
    ladder = interior_ladder(f, p)
    norm = lp_norm(f, p)
    root_d = math.sqrt(f.d)
    points, s_opt = [], []
    for t in ts:
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
        points.append((t, best_value))
        s_opt.append(best_s)
    meta = {"d": f.d, "L": f.level, "function": name, "s_opt": tuple(s_opt)}
    return ModulusCurve("hybrid", p, tuple(points), meta,
                        tuple(f"s_opt={s:g}" for s in s_opt))


def hybrid_modulus(f: GridFunction, p: float, t: float) -> tuple:
    """(value, minimizing s) at the one scale t: the one row of a one-point
    ``hybrid_curve``."""
    curve = hybrid_curve(f, p, (t,))
    return curve.points[0][1], curve.meta["s_opt"][0]
