"""Good/bad cube partitions driven by the local averaging error.

A dyadic cube Q is *good* for a threshold eps when its local error
S(Q) = ||f - mean_Q(f)||_{L^p(Q)} is at most eps, and *bad* otherwise.  The
builder classifies the root, subdivides every bad cube into its 2^d dyadic
children, and repeats; on the lattice the walk must stop by level L because
single-cell cubes have S = 0.  The good cubes tile the unit cube.

The module also evaluates the partition objective

    (sum_Q S(Q)^p + sum_Q min{sqrt(d) t / l(Q), 1} |Q| |f_Q|^p)^(1/p)

for any cube partition, reports how the good-cube count scales with the
threshold against its predicted envelope, and fits the decay of the kernel
approximation error alongside the partition-based surrogate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import FitResult, fit_points
from .dyadic import DyadicCube, _check_tiling, _mean_pyramid, block_means
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

    def s_value(self, cube: DyadicCube) -> float:
        return float(self.err_pow[cube.level][cube.origin] ** (1.0 / self.p))

    def mean(self, cube: DyadicCube) -> float:
        return float(self.means[cube.level][cube.origin])


def local_error(f: GridFunction, cube: DyadicCube, p: float) -> float:
    """S(Q): L^p distance on Q between f and its mean over Q (exact cell sum)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if cube.level > f.level:
        raise ValueError("cube finer than the lattice")
    block = f.samples[cube.cell_slices(f.level)]
    mean = block_means(block, f.d, f.level - cube.level, 0).item()
    dev = _abs_pow(block - mean, p)
    return float((dev.sum() * f.cell_volume) ** (1.0 / p))


@dataclass(frozen=True)
class CubeNode:
    cube: DyadicCube
    s_value: float
    status: str  # "good" | "bad"


@dataclass(frozen=True)
class AdaptivePartition:
    """Stopping-time partition: good cubes per level plus the bad tree."""

    epsilon: float
    good: tuple   # tuple of per-level tuples of CubeNode
    bad: tuple
    depth: int
    counts: tuple
    n_total: int

    def good_cubes(self):
        return [node for level in self.good for node in level]

    def bad_cubes(self):
        return [node for level in self.bad for node in level]

    def all_nodes(self):
        out = self.good_cubes() + self.bad_cubes()
        out.sort(key=lambda nd: (nd.cube.level, nd.cube.origin))
        return out

    def min_side(self) -> float:
        return min(node.cube.side for node in self.good_cubes())

    def to_text(self) -> str:
        lines = [PARTITION_DUMP_HEADER]
        for node in self.all_nodes():
            origin = ":".join(str(v) for v in node.cube.origin)
            lines.append(f"{node.cube.level},{origin},{node.s_value!r},{node.status}")
        return "\n".join(lines) + "\n"


def build_partition(f: GridFunction, p: float, epsilon: float,
                    pyramid: ErrorPyramid | None = None) -> AdaptivePartition:
    """Breadth-first good/bad classification down to single cells at worst."""
    if epsilon <= 0:
        raise ValueError("threshold must be positive")
    if pyramid is None:
        pyramid = ErrorPyramid(f, p)
    elif pyramid.f is not f or pyramid.p != float(p):
        raise ValueError("pyramid was built for different inputs")
    good_levels, bad_levels = [], []
    frontier = [DyadicCube(0, (0,) * f.d)]
    level = 0
    while frontier:
        goods, bads, next_frontier = [], [], []
        for cube in frontier:
            s = pyramid.s_value(cube)
            if s <= epsilon:
                goods.append(CubeNode(cube, s, "good"))
            else:
                bads.append(CubeNode(cube, s, "bad"))
                next_frontier.extend(cube.children())
        good_levels.append(tuple(goods))
        bad_levels.append(tuple(bads))
        frontier = next_frontier
        level += 1
        if level > f.level + 1:
            raise AssertionError("partition walk failed to terminate")
    while good_levels and not good_levels[-1] and not bad_levels[-1]:
        good_levels.pop()
        bad_levels.pop()
    counts = tuple(len(g) for g in good_levels)
    depth = max(i for i, g in enumerate(good_levels) if g)
    return AdaptivePartition(float(epsilon), tuple(good_levels), tuple(bad_levels),
                             depth, counts, sum(counts))


def verify_partition(part: AdaptivePartition, f: GridFunction) -> list:
    """Structural invariant violations of a built partition (empty if sound)."""
    problems = []
    goods = part.good_cubes()
    try:
        _check_tiling(f.d, [nd.cube for nd in goods])
    except ValueError as exc:
        problems.append(f"tiling: {exc}")
    bad_set = {(nd.cube.level, nd.cube.origin) for nd in part.bad_cubes()}
    node_set = bad_set | {(nd.cube.level, nd.cube.origin) for nd in goods}
    for nd in part.all_nodes():
        ok = nd.s_value <= part.epsilon
        if (nd.status == "good") != ok:
            problems.append(f"threshold: {nd.cube} marked {nd.status} "
                            f"with S={nd.s_value!r} vs eps={part.epsilon!r}")
    for nd in goods:
        if nd.cube.level >= 1:
            parent = nd.cube.parent()
            if (parent.level, parent.origin) not in bad_set:
                problems.append(f"parent of good cube {nd.cube} is not bad")
    for nd in part.bad_cubes():
        for child in nd.cube.children():
            if (child.level, child.origin) not in node_set:
                problems.append(f"child {child} of bad cube was never classified")
    if part.depth > f.level:
        problems.append(f"depth {part.depth} exceeds the lattice level {f.level}")
    return problems


def partition_objective(f: GridFunction, cubes, t: float, p: float) -> float:
    """Evaluate the two-term objective on a given cube partition of Q."""
    if p < 1:
        raise ValueError("p must be >= 1")
    cubes = tuple(cubes)
    if _check_tiling(f.d, cubes) > f.level:
        raise ValueError("cube finer than the lattice")
    pyramid = ErrorPyramid(f, p)
    root_d = math.sqrt(f.d)
    total = 0.0
    for cube in cubes:
        total += pyramid.err_pow[cube.level][cube.origin]  # S(Q)^p
        total += min(root_d * t / cube.side, 1.0) * cube.volume \
            * abs(pyramid.mean(cube)) ** p
    return float(total ** (1.0 / p))


def default_epsilons(f: GridFunction, p: float, j_range=range(1, 9)) -> tuple:
    """Scale-relative threshold ladder eps_j = 2^-j ||f||_p."""
    norm = lp_norm(f, p)
    return tuple(norm * 2.0 ** (-j) for j in j_range)


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


class _LocalSeminorms:
    """Block sums of |grad f|^q so each cube's local seminorm is a lookup.

    The per-cube seminorm restricts the *global* gradient field, which makes
    it monotone under taking subcubes.
    """

    def __init__(self, f: GridFunction, q: float):
        self.q = float(q)
        gq = gradient_magnitude(f) ** q * f.cell_volume
        self.levels = [m * 2.0 ** (f.d * (f.level - k))
                       for k, m in enumerate(_mean_pyramid(gq, f.d, f.level))]

    def value(self, cube: DyadicCube) -> float:
        return float(self.levels[cube.level][cube.origin] ** (1.0 / self.q))


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
    local = _LocalSeminorms(f, q)
    pyramid = ErrorPyramid(f, p)
    epsilons = sorted({float(e) for e in epsilons})
    parts = {e: build_partition(f, p, e, pyramid) for e in epsilons}
    ratio_constant = 0.0
    bad_constant = 0.0
    for e, part in parts.items():
        for node in part.all_nodes():
            if node.s_value <= 0:
                continue
            w_local = local.value(node.cube)
            if w_local > 0:
                ratio_constant = max(
                    ratio_constant,
                    node.s_value / (node.cube.volume ** eta * w_local))
        for k, level in enumerate(part.bad):
            if level and seminorm > 0:
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
    fp_levels = [m * 2.0 ** (f.d * (f.level - k))
                 for k, m in enumerate(_mean_pyramid(fp, f.d, f.level))]
    per_eps = []
    for e in epsilons:
        part = build_partition(f, p, e, pyramid)
        level_masses = []
        for k, level in enumerate(part.good):
            mass = sum(float(fp_levels[node.cube.level][node.cube.origin])
                       for node in level)
            level_masses.append(mass)
        per_eps.append((e, part.n_total, tuple(level_masses)))
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
