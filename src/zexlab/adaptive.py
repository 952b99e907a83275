"""Good/bad cube partitions driven by the local averaging error.

A dyadic cube Q is *good* for a threshold eps when its local error
S(Q) = ||f - mean_Q(f)||_{L^p(Q)} is at most eps, and *bad* otherwise.  The
builder classifies the root, subdivides every bad cube into its 2^d dyadic
children, and repeats level by level; on the lattice it must stop by level L
because single-cell cubes have S = 0.  The good cubes tile the unit cube.  A
partition is held as per-level arrays read off the ``ErrorPyramid``, its
cubes as ``dyadic``'s per-level origin arrays; ``local_error(f, level, origin,
p)`` computes one cube's S(Q) directly from the samples.

The module also evaluates the partition objective

    (sum_Q S(Q)^p + sum_Q min{sqrt(d) t / l(Q), 1} |Q| |f_Q|^p)^(1/p)

for any partition in that format (``AdaptivePartition.good`` as is), reports
how the good-cube count scales with the threshold against its predicted
envelope, and fits the decay of the kernel approximation error alongside the
partition-based surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import FitResult, fit_points
from .dyadic import _cells, _cover, _mean_pyramid, _refine, _sum_pyramid, block_means
from .grid import GridFunction, _abs_pow, lp_norm

PARTITION_DUMP_HEADER = "level,origin_indices,S,status"
COUNT_CSV_HEADER = "epsilon,N_total,depth,min_side,count_envelope,min_side_bound"


class ErrorPyramid:
    """Per-level cube means and local error powers for every dyadic cube."""

    def __init__(self, f: GridFunction, p: float):
        if p < 1:
            raise ValueError("p must be >= 1")
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
    if p < 1:
        raise ValueError("p must be >= 1")
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
        lines = [PARTITION_DUMP_HEADER]
        for k, level in enumerate(zip(self.origins, self.s_values, self.is_good)):
            for o, s, g in zip(*(a.tolist() for a in level)):
                lines.append(f"{k},{':'.join(map(str, o))},{s!r},{'good' if g else 'bad'}")
        return "\n".join(lines) + "\n"


def build_partition(f: GridFunction, p: float, epsilon: float,
                    pyramid: ErrorPyramid | None = None) -> AdaptivePartition:
    """Level-by-level good/bad classification down to single cells at worst."""
    if epsilon <= 0:
        raise ValueError("threshold must be positive")
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


def partition_objective(f: GridFunction, origins, t: float, p: float) -> float:
    """Evaluate the two-term objective on a partition of Q given as per-level
    origin arrays (``AdaptivePartition.good`` as is, for one)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    origins = tuple(np.asarray(o) for o in origins)
    if len(origins) > f.level + 1:
        raise ValueError("cube finer than the lattice")
    if not np.all(_cover(f.d, origins) == 1):
        raise ValueError("cubes do not tile the unit cube exactly")
    pyramid = ErrorPyramid(f, p)
    root_d = math.sqrt(f.d)
    total = 0.0
    for k, o in enumerate(origins):
        cubes = tuple(o.T)
        weight = min(root_d * t * (1 << k), 1.0) * 2.0 ** (-f.d * k)  # min{.} |Q|
        total += pyramid.err_pow[k][cubes].sum()  # sum of S(Q)^p
        total += weight * _abs_pow(pyramid.means[k][cubes], p).sum()
    return float(total ** (1.0 / p))


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
    if q < 1:
        raise ValueError("q must be >= 1")
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
        lines = [COUNT_CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                repr(r.epsilon), str(r.n_total), str(r.depth), repr(r.min_side),
                repr(r.count_envelope), repr(r.min_side_bound)]))
        return "\n".join(lines) + "\n"


def count_bound_report(f: GridFunction, p: float, q: float, epsilons) -> CountReport:
    """Partition size against threshold with the predicted scaling envelope.

    eta = 1/d - 1/q + 1/p (first-order smoothness measured in L^q, error in
    L^p).  The envelope and the minimum-side threshold are printed with the
    empirically observed ratio constant; no constant from theory is assumed.
    """
    eta = 1.0 / f.d - 1.0 / q + 1.0 / p
    if eta <= 0:
        raise ValueError(f"scaling exponent eta = {eta:g} must be positive")
    seminorm = sobolev_seminorm(f, q)
    # block sums of |grad f|^q: each cube's local seminorm restricts the
    # global gradient field, which makes it monotone under taking subcubes
    local = _sum_pyramid(gradient_magnitude(f) ** q * f.cell_volume, f.d, f.level)
    pyramid = ErrorPyramid(f, p)
    epsilons = sorted({float(e) for e in epsilons})
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


# ---------------------------------------------------------------------------
# threshold-minimized error surrogate against the measured kernel error


@dataclass(frozen=True)
class RateReport:
    t_values: tuple
    surrogate: tuple
    measured: tuple
    surrogate_fit: FitResult | None
    measured_fit: FitResult | None
    best_epsilons: tuple


def adaptive_error_rate(f: GridFunction, p: float, q: float, t_grid,
                        kernel_family: str = "gauss", epsilons=None,
                        truncation_tail: float = 1e-6) -> RateReport:
    """Partition-based error surrogate minimized over a threshold ladder,
    next to the measured kernel approximation error, with fitted decay rates.

    The surrogate at scale t and threshold eps is
        (eps^p N_eps + sum_{good Q} min{sqrt(d) t / l(Q), 1} int_Q |f|^p)^(1/p).
    """
    from .kernels import KernelSpec, error_norm

    t_grid = tuple(sorted(t_grid))
    if lp_norm(f, p) == 0.0:
        zeros = (0.0,) * len(t_grid)
        return RateReport(t_grid, zeros, zeros, None, None,
                          (math.nan,) * len(t_grid))
    if epsilons is None:
        epsilons = default_epsilons(f, p)
    pyramid = ErrorPyramid(f, p)
    fp = _abs_pow(f.samples, p) * f.cell_volume
    fp_levels = _sum_pyramid(fp, f.d, f.level)
    per_eps = []
    for e in epsilons:
        part = build_partition(f, p, e, pyramid)
        masses = tuple(float(fp_levels[k][tuple(o.T)].sum()) for k, o in enumerate(part.good))
        per_eps.append((e, part.n_total, masses))
    root_d = math.sqrt(f.d)
    surrogate, best_eps = [], []
    for t in t_grid:
        best, arg = math.inf, epsilons[0]
        for e, n_total, masses in per_eps:
            boundary = sum(min(root_d * t * (1 << k), 1.0) * m
                           for k, m in enumerate(masses))
            value = (e ** p * n_total + boundary) ** (1.0 / p)
            if value < best:
                best, arg = value, e
        surrogate.append(best)
        best_eps.append(arg)
    measured = [error_norm(KernelSpec(kernel_family, t, truncation_tail), f, p)
                for t in t_grid]
    sfit = mfit = None
    if all(v > 0 for v in surrogate) and len(surrogate) >= 4:
        sfit = fit_points(t_grid, surrogate)
    if all(v > 0 for v in measured) and len(measured) >= 4:
        mfit = fit_points(t_grid, measured)
    return RateReport(t_grid, tuple(surrogate), tuple(measured), sfit, mfit,
                      tuple(best_eps))
