"""Good/bad cube partitions driven by the local averaging error.

A dyadic cube Q is *good* for a threshold eps when its local error
S(Q) = ||f - mean_Q(f)||_{L^p(Q)} is at most eps, and *bad* otherwise.  The
builder classifies the root, subdivides every bad cube into its 2^d dyadic
children, and repeats level by level; on the lattice it must stop by level L
because single-cell cubes have S = 0.  The good cubes tile the unit cube.  A
partition is held as per-level arrays read off the ``ErrorPyramid``, its
cubes as ``dyadic``'s per-level origin arrays; ``local_error(f, level, origin,
p)`` computes one cube's S(Q) directly from the samples.

The pyramid also keeps the per-cube work of the partitions built on it: it
roots each cube's S(Q) and formats each cube's dump label once, the first
time a partition asks.  The partitions of a threshold ladder are nested, so a
ladder on one pyramid costs per cube what its finest partition costs.

The module also reports how the good-cube count scales with the threshold
against its predicted envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .besov import FitResult, VanishingModulusError, fit_points
from .dyadic import _cells, _cover, _deviation_powers, _mean_pyramid, _refine
from .grid import GridFunction, _abs_pow, _check_exponent, _csv, lp_norm

PARTITION_DUMP_HEADER = "level,origin_indices,S,status"
COUNT_CSV_HEADER = "epsilon,N_total,depth,min_side,count_envelope,min_side_bound"


class ErrorPyramid:
    """Per-level cube means and local error powers for every dyadic cube.

    The S(Q) values and dump labels of the cubes that partitions classify
    are kept here too, each made once on first use, so every partition of a
    ladder built on one pyramid reads the cubes it shares with the others.
    """

    def __init__(self, f: GridFunction, p: float):
        _check_exponent(p)
        self.f = f
        self.p = float(p)
        d, L = f.d, f.level
        self.means = _mean_pyramid(f.samples, d, L)
        self.err_pow = [None] * (L + 1)
        # single cells: a read-only broadcast zero, not a lattice of them
        self.err_pow[L] = np.broadcast_to(0.0, f.samples.shape)
        buf = np.empty(f.samples.shape)  # every level's deviations, in turn
        for k in range(L - 1, -1, -1):
            dev = _deviation_powers(f.samples, self.means[k], self.p, buf)
            self.err_pow[k] = dev.sum(axis=tuple(range(1, 2 * d, 2))) * f.cell_volume
        # S(Q) per level, NaN until rooted, each level made when first asked
        # for; single cells have S = 0 already
        self._roots = [None] * L + [self.err_pow[L]]
        # dump labels per level: the flat indices of the labelled cubes, ascending
        # and ending in a sentinel above every index, and their labels beside them
        self._label_memo = [(np.array([np.iinfo(np.intp).max]), np.array([None]))] * (L + 1)

    def _s_values(self, k: int, cells: tuple) -> np.ndarray:
        """S(Q) of the level-k cubes at the index arrays ``cells``, each cube
        rooted the first time it is asked for."""
        if self._roots[k] is None:
            self._roots[k] = np.full(self.err_pow[k].shape, np.nan)
        roots = self._roots[k]
        s = roots[cells]
        new = np.isnan(s)
        if new.any():
            cells = tuple(c[new] for c in cells)
            # the scalar root per element: an array power may round the last bit differently
            root = 1.0 / self.p
            s[new] = roots[cells] = [math.pow(v, root) for v in self.err_pow[k][cells].tolist()]
        return s

    def _dump_labels(self, k: int, origins: np.ndarray, s: np.ndarray) -> list:
        """``_labels(k, origins, s)``, each cube's label formatted the first
        time it is asked for."""
        keys = _cells(origins, k, self.f.d)
        known, labels = self._label_memo[k]
        at = np.searchsorted(known, keys)
        new = known[at] != keys
        if new.any():
            known = np.insert(known, at[new], keys[new])
            labels = np.insert(labels, at[new], _labels(k, origins[new], s[new]))
            self._label_memo[k] = known, labels
            at = np.searchsorted(known, keys)
        return labels[at].tolist()


def local_error(f: GridFunction, level: int, origin, p: float) -> float:
    """S(Q) for the level-``level`` cube Q at lattice corner ``origin``: the L^p
    distance on Q between f and its mean over Q (exact cell sum)."""
    _check_exponent(p)
    if level > f.level:
        raise ValueError("cube finer than the lattice")
    _cells([origin], level, f.d)  # ValueError outside the 2^level lattice
    b = 1 << (f.level - level)
    block = f.samples[tuple(slice(o * b, (o + 1) * b) for o in origin)]
    mean = _mean_pyramid(block, f.d, f.level - level)[0].item()
    dev = _abs_pow(block - mean, p)
    return float((dev.sum() * f.cell_volume) ** (1.0 / p))


def _labels(k: int, origins: np.ndarray, s: np.ndarray) -> list:
    """The dump label "k,i:j,S" of each level-k cube: its level, its origin
    indices joined by ":" and its S by ``repr``."""
    corners = map(":".join, zip(*(map(str, axis) for axis in origins.T.tolist())))
    return [f"{k},{corner},{v!r}" for corner, v in zip(corners, s.tolist())]


@dataclass(frozen=True, eq=False)
class AdaptivePartition:
    """Stopping-time partition as per-level arrays over the error pyramid.

    Entry k of ``origins``, ``s_values`` and ``is_good`` describes the cubes
    classified at level k (the root, then the children of the level k-1 bad
    cubes) in lexicographic order: an (n_k, d) integer array of cube origins,
    their S(Q) values and a good flag for each.  ``good`` and ``bad`` split
    the origins per level, ``counts`` counts the good cubes per level, and
    ``depth`` is the deepest level holding one.  ``pyramid`` is the one the
    partition was built on, whose memo serves its dump.
    """

    epsilon: float
    origins: tuple
    s_values: tuple
    is_good: tuple
    pyramid: ErrorPyramid | None = field(default=None, repr=False)

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
        """The dump ``_csv`` would print for rows (level, origin indices
        joined by ":", S, good/bad); a dump runs to ~10^5 rows, so it is one
        join of each cube's label, kept by the pyramid, and one of two
        constant line endings, with no string made per line."""
        endings = (",bad\n", ",good\n")
        pieces = [PARTITION_DUMP_HEADER, "\n"]
        for k, (o, s, g) in enumerate(zip(self.origins, self.s_values, self.is_good)):
            labels = _labels(k, o, s) if self.pyramid is None else \
                self.pyramid._dump_labels(k, o, s)
            pieces += chain.from_iterable(zip(labels, map(endings.__getitem__, g.tolist())))
        return "".join(pieces)


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
    levels = []
    frontier = np.ones((1,) * f.d, dtype=bool)
    for k in range(f.level + 1):  # single cells have S = 0, so level L ends it
        cells = np.nonzero(frontier)
        s = pyramid._s_values(k, cells)
        good = s <= epsilon
        levels.append((np.transpose(cells), s, good))
        if good.all():
            break
        frontier[cells] = ~good
        frontier = _refine(frontier)
    return AdaptivePartition(float(epsilon), *map(tuple, zip(*levels)), pyramid)


def verify_partition(part: AdaptivePartition, f: GridFunction) -> list:
    """Structural invariant violations of a built partition (empty if sound).

    Level by level, the classified cubes must be the children of the previous
    level's bad cubes (the root at level 0), each exactly once, and every flag
    must read S <= eps.  No bad cube may remain at the deepest level, and the
    good cubes, painted down to the deepest level, must cover every cell
    exactly once.  An origin outside its level's lattice raises ValueError.
    """
    problems = []
    bad = np.ones((1,) * f.d, dtype=bool)  # the root, to be classified at level 0
    for k, (origins, s, good) in enumerate(zip(part.origins, part.s_values, part.is_good)):
        expected = _refine(bad) if k else bad
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
    deepest = len(part.origins) - 1
    if deepest < 0:
        problems.append("tree: the root is never classified")
    elif bad.any():
        problems.append(f"deepest: {np.count_nonzero(bad)} bad cubes at level {deepest} "
                        "were never subdivided")
    if not np.all(_cover(f.d, part.good) == 1):
        problems.append("tiling: cubes do not tile the unit cube exactly")
    if deepest > f.level:
        problems.append(f"depth: level {deepest} is finer than the lattice level {f.level}")
    return problems


def default_epsilons(f: GridFunction, p: float) -> tuple:
    """Scale-relative threshold ladder eps_j = 2^-j ||f||_p, j = 1..8.  The
    zero function has no such ladder: every threshold would be 0."""
    norm = lp_norm(f, p)
    if norm == 0:
        raise VanishingModulusError(f"||f||_p = 0 at p={p:g}: the default thresholds "
                                    "2^-j ||f||_p vanish; set 'epsilon' or 'epsilons'")
    return tuple(norm * 2.0 ** (-j) for j in range(1, 9))


# ---------------------------------------------------------------------------
# first-order seminorm machinery


def gradient_magnitude(f: GridFunction) -> np.ndarray:
    """Forward-difference gradient length per cell, one-sided at the boundary."""
    scale = float(f.n)
    total = np.zeros(f.samples.shape)
    fd = np.empty(f.samples.shape)  # each axis's differences, in turn
    for axis in range(f.d):
        a, step = np.moveaxis(f.samples, axis, 0), np.moveaxis(fd, axis, 0)
        np.subtract(a[1:], a[:-1], out=step[:-1])
        step[-1] = step[-2]
        step *= scale
        step *= step
        total += fd
    return np.sqrt(total, out=total)


def sobolev_seminorm(f: GridFunction, q: float) -> float:
    """L^q norm of the gradient magnitude over the unit cube."""
    _check_exponent(q, "q")
    return _seminorm(f, gradient_magnitude(f) ** q, q)


def _seminorm(f: GridFunction, powered: np.ndarray, q: float) -> float:
    """The L^q seminorm from the cells' |grad f|^q, ``powered``."""
    return float((f.cell_volume * powered.sum()) ** (1.0 / q))


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


def _scaling_exponent(d: int, p: float, q: float) -> float:
    """eta = 1/d - 1/q + 1/p, the count envelope's exponent (first-order
    smoothness measured in L^q, error in L^p); ValueError unless it is > 0."""
    _check_exponent(p)
    _check_exponent(q, "q")
    eta = 1.0 / d - 1.0 / q + 1.0 / p
    if eta <= 0:
        raise ValueError(f"scaling exponent eta = {eta:g} must be positive")
    return eta


def count_bound_report(f: GridFunction, p: float, q: float, epsilons) -> CountReport:
    """Partition size against threshold with the predicted scaling envelope.

    eta as ``_scaling_exponent``.  The envelope and the minimum-side
    threshold are printed with the empirically observed ratio constant; no
    constant from theory is assumed.
    """
    eta = _scaling_exponent(f.d, p, q)
    epsilons = sorted({float(e) for e in epsilons})
    for e in epsilons:
        _check_epsilon(e)
    powered = gradient_magnitude(f)
    powered **= q
    seminorm = _seminorm(f, powered, q)
    # block sums of |grad f|^q: each cube's local seminorm restricts the
    # global gradient field, which makes it monotone under taking subcubes.
    # Levels 0..L-1 only: a single cell has S = 0, so it gives no ratio.
    powered *= f.cell_volume
    local = [m * 2.0 ** (f.d * (f.level - k))  # sums: means times exact powers of two
             for k, m in enumerate(_mean_pyramid(powered, f.d, f.level)[:f.level])]
    del powered
    pyramid = ErrorPyramid(f, p)
    parts = {e: build_partition(f, p, e, pyramid) for e in epsilons}
    ratio_constant = 0.0
    if epsilons:
        # the ladder's cubes are nested: a cube is classified under eps only when
        # its parent's S exceeds eps, so under every smaller eps too.  The finest
        # partition holds them all, and the max of their ratios is order-free.
        finest = parts[epsilons[0]]
        for k, (loc, origins, s) in enumerate(zip(local, finest.origins, finest.s_values)):
            w = np.array([math.pow(v, 1.0 / q) for v in loc[tuple(origins.T)].tolist()])
            keep = (s > 0) & (w > 0)
            ratios = s[keep] / (((2.0 ** -k) ** f.d) ** eta * w[keep])  # |Q| = (2^-k)^d
            ratio_constant = max([ratio_constant, *ratios.tolist()])
    bad_constant = 0.0
    for e, part in parts.items():
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
