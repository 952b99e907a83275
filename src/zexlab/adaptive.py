"""Good/bad cube partitions driven by the local averaging error.

A dyadic cube Q is *good* for a threshold eps when its local error
S(Q) = ||f - mean_Q(f)||_{L^p(Q)} is at most eps, and *bad* otherwise.  The
builder classifies the root, subdivides every bad cube into its 2^d dyadic
children, and repeats level by level; on the lattice it must stop by level L
because single-cell cubes have S = 0.  The good cubes tile the unit cube.  A
partition is held as per-level arrays read off the ``ErrorPyramid``, its
cubes as ``dyadic``'s per-level origin arrays; ``local_error(f, level, origin,
p)`` computes one cube's S(Q) directly from the samples.

The module also reports how the good-cube count scales with the threshold
against its predicted envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .besov import FitResult, fit_points
from .dyadic import _cells, _cover, _mean_pyramid, _refine, _sum_pyramid, block_means
from .grid import GridFunction, _abs_pow, _check_exponent, _csv, lp_norm

PARTITION_DUMP_HEADER = "level,origin_indices,S,status"
COUNT_CSV_HEADER = "epsilon,N_total,depth,min_side,count_envelope,min_side_bound"


class ErrorPyramid:
    """Per-level cube means and local error powers for every dyadic cube."""

    def __init__(self, f: GridFunction, p: float):
        _check_exponent(p)
        self.f = f
        self.p = float(p)
        d, L = f.d, f.level
        cellvol = f.cell_volume
        self.means = _mean_pyramid(f.samples, d, L)
        self.err_pow = [None] * (L + 1)
        self.err_pow[L] = np.zeros(f.samples.shape)
        for k in range(L - 1, -1, -1):
            m, b = 1 << k, 1 << (L - k)
            view = f.samples.reshape(sum(((m, b),) * d, ()))
            mean_view = self.means[k].reshape(sum(((m, 1),) * d, ()))
            dev = view - mean_view
            _abs_pow(dev, self.p, out=dev)
            self.err_pow[k] = dev.sum(axis=tuple(range(1, 2 * d, 2))) * cellvol


def local_error(f: GridFunction, level: int, origin, p: float) -> float:
    """S(Q) for the level-``level`` cube Q at lattice corner ``origin``: the L^p
    distance on Q between f and its mean over Q (exact cell sum)."""
    _check_exponent(p)
    if level > f.level:
        raise ValueError("cube finer than the lattice")
    _cells([origin], level, f.d)  # ValueError outside the 2^level lattice
    b = 1 << (f.level - level)
    block = f.samples[tuple(slice(o * b, (o + 1) * b) for o in origin)]
    mean = block_means(block, f.d, f.level - level, 0).item()
    dev = _abs_pow(block - mean, p)
    return float((dev.sum() * f.cell_volume) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class AdaptivePartition:
    """Stopping-time partition as per-level arrays over the error pyramid.

    Entry k of ``origins``, ``s_values`` and ``is_good`` describes the cubes
    classified at level k (the root, then the children of the level k-1 bad
    cubes) in lexicographic order: an (n_k, d) integer array of cube origins,
    their S(Q) values and a good flag for each.  ``good`` and ``bad`` split
    the origins per level, ``counts`` counts the good cubes per level, and
    ``depth`` is the deepest level holding one.
    """

    epsilon: float
    origins: tuple
    s_values: tuple
    is_good: tuple

    @property
    def good(self) -> tuple:
        return tuple(o[g] for o, g in zip(self.origins, self.is_good))

    @property
    def bad(self) -> tuple:
        return tuple(o[~g] for o, g in zip(self.origins, self.is_good))

    @property
    def counts(self) -> tuple:
        return tuple(int(np.count_nonzero(g)) for g in self.is_good)

    @property
    def n_total(self) -> int:
        return sum(self.counts)

    @property
    def depth(self) -> int:
        return max(k for k, n in enumerate(self.counts) if n)

    def min_side(self) -> float:
        return 2.0 ** -self.depth

    def to_text(self) -> str:
        # columns are built per level in numpy: a dump runs to ~10^5 rows
        return _csv(PARTITION_DUMP_HEADER, (
            row for k, (o, s, g) in enumerate(zip(self.origins, self.s_values, self.is_good))
            for row in zip([k] * len(s),
                           reduce(lambda a, b: a + ":" + b, o.T.astype(str)).tolist(),
                           s.tolist(), np.where(g, "good", "bad").tolist())))


def _check_epsilon(epsilon: float):
    """A threshold must be > 0; inf keeps the root, NaN would classify nothing."""
    if not epsilon > 0:  # NaN fails too
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")


def build_partition(f: GridFunction, p: float, epsilon: float,
                    pyramid: ErrorPyramid | None = None) -> AdaptivePartition:
    """Level-by-level good/bad classification down to single cells at worst."""
    _check_epsilon(epsilon)
    if pyramid is None:
        pyramid = ErrorPyramid(f, p)
    elif pyramid.f is not f or pyramid.p != float(p):
        raise ValueError("pyramid was built for different inputs")
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
    return AdaptivePartition(float(epsilon), *map(tuple, zip(*levels)))


def verify_partition(part: AdaptivePartition, f: GridFunction) -> list:
    """Structural invariant violations of a built partition (empty if sound).

    Level by level, the classified cubes must be the children of the previous
    level's bad cubes (the root at level 0), each exactly once, and every flag
    must read S <= eps.  No bad cube may remain at the deepest level, and the
    good cubes, painted down to the deepest level, must cover every cell
    exactly once.  An origin outside its level's lattice raises ValueError.
    """
    problems = []
    expected = np.ones((1,) * f.d, dtype=bool)
    for k, (origins, s, good) in enumerate(zip(part.origins, part.s_values, part.is_good)):
        if k:
            expected = _refine(bad)
        cells = _cells(origins, k, f.d)
        seen = np.bincount(cells, minlength=expected.size).reshape(expected.shape)
        for o in np.argwhere(seen != expected).tolist():
            problems.append(f"tree: the level-{k} cube at {tuple(o)} is classified "
                            f"{seen[tuple(o)]} times, its parent asks for "
                            f"{int(expected[tuple(o)])}")
        flipped = good != (s <= part.epsilon)
        for o, v in zip(origins[flipped].tolist(), s[flipped].tolist()):
            problems.append(f"threshold: the level-{k} cube at {tuple(o)} has the wrong "
                            f"flag for S={v!r} vs eps={part.epsilon!r}")
        bad = np.zeros(expected.shape, dtype=bool)
        bad.flat[cells[~good]] = True
    if bad.any():
        problems.append(f"deepest: {np.count_nonzero(bad)} bad cubes at level {k} "
                        "were never subdivided")
    if not np.all(_cover(f.d, part.good) == 1):
        problems.append("tiling: cubes do not tile the unit cube exactly")
    if k > f.level:
        problems.append(f"depth: level {k} is finer than the lattice level {f.level}")
    return problems


def default_epsilons(f: GridFunction, p: float) -> tuple:
    """Scale-relative threshold ladder eps_j = 2^-j ||f||_p, j = 1..8."""
    norm = lp_norm(f, p)
    return tuple(norm * 2.0 ** (-j) for j in range(1, 9))


# ---------------------------------------------------------------------------
# first-order seminorm machinery


def gradient_magnitude(f: GridFunction) -> np.ndarray:
    """Forward-difference gradient length per cell, one-sided at the boundary."""
    scale = float(f.n)
    total = np.zeros(f.samples.shape)
    for axis in range(f.d):
        fd = np.diff(f.samples, axis=axis)
        last = [slice(None)] * f.d
        last[axis] = slice(-1, None)
        fd = np.concatenate([fd, fd[tuple(last)]], axis=axis) * scale
        total += fd * fd
    return np.sqrt(total)


def sobolev_seminorm(f: GridFunction, q: float) -> float:
    """L^q norm of the gradient magnitude over the unit cube."""
    _check_exponent(q, "q")
    mag = gradient_magnitude(f)
    return float((f.cell_volume * (mag ** q).sum()) ** (1.0 / q))


@dataclass(frozen=True)
class CountRow:
    epsilon: float
    n_total: float
    depth: int
    min_side: float
    count_envelope: float
    min_side_bound: float
    per_level: tuple


@dataclass(frozen=True)
class CountReport:
    eta: float
    seminorm: float
    rows: tuple
    ratio_constant: float          # max observed S(Q) / (|Q|^eta |f|_{W,Q})
    bad_level_constant: float      # max observed |B_k| eps^q 2^(k d eta q) / |f|^q
    slope: FitResult | None
    partitions: tuple              # the AdaptivePartition behind each row

    def to_csv(self) -> str:
        return _csv(COUNT_CSV_HEADER, ((r.epsilon, r.n_total, r.depth, r.min_side,
                                        r.count_envelope, r.min_side_bound)
                                       for r in self.rows))


def count_bound_report(f: GridFunction, p: float, q: float, epsilons) -> CountReport:
    """Partition size against threshold with the predicted scaling envelope.

    eta = 1/d - 1/q + 1/p (first-order smoothness measured in L^q, error in
    L^p).  The envelope and the minimum-side threshold are printed with the
    empirically observed ratio constant; no constant from theory is assumed.
    """
    _check_exponent(p)
    _check_exponent(q, "q")
    eta = 1.0 / f.d - 1.0 / q + 1.0 / p
    if eta <= 0:
        raise ValueError(f"scaling exponent eta = {eta:g} must be positive")
    epsilons = sorted({float(e) for e in epsilons})
    for e in epsilons:
        _check_epsilon(e)
    seminorm = sobolev_seminorm(f, q)
    # block sums of |grad f|^q: each cube's local seminorm restricts the
    # global gradient field, which makes it monotone under taking subcubes
    local = _sum_pyramid(gradient_magnitude(f) ** q * f.cell_volume, f.d, f.level)
    pyramid = ErrorPyramid(f, p)
    parts = {e: build_partition(f, p, e, pyramid) for e in epsilons}
    ratio_constant = 0.0
    bad_constant = 0.0
    for e, part in parts.items():
        for k, (origins, s) in enumerate(zip(part.origins, part.s_values)):
            w = np.array([math.pow(v, 1.0 / q) for v in local[k][tuple(origins.T)].tolist()])
            keep = (s > 0) & (w > 0)
            ratios = s[keep] / (((2.0 ** -k) ** f.d) ** eta * w[keep])  # |Q| = (2^-k)^d
            ratio_constant = max([ratio_constant, *ratios.tolist()])
        for k, level in enumerate(part.bad):
            if len(level) and seminorm > 0:
                bad_constant = max(
                    bad_constant,
                    len(level) * e ** q * 2.0 ** (k * f.d * eta * q) / seminorm ** q)
    rows = []
    for e in sorted(epsilons, reverse=True):
        part = parts[e]
        envelope = (seminorm / e) ** (q / (1.0 + eta * q)) if seminorm > 0 else 1.0
        if ratio_constant > 0 and seminorm > 0:
            side_bound = (e / (ratio_constant * seminorm)) ** (1.0 / (eta * f.d))
        else:
            side_bound = 0.0
        rows.append(CountRow(e, part.n_total, part.depth, part.min_side(),
                             envelope, min(side_bound, 1.0), part.counts))
    slope = None
    ns = np.array([r.n_total for r in rows], dtype=float)
    if np.all(ns > 0) and len(ns) >= 4:
        inv_eps = [1.0 / r.epsilon for r in rows]
        slope = fit_points(inv_eps, ns)  # flat counts fit to slope 0
    return CountReport(eta, seminorm, tuple(rows), ratio_constant, bad_constant, slope,
                       tuple(parts[r.epsilon] for r in rows))
