"""Besov seminorms, log-log rate fitting, and exponent-transfer checks.

Every O(t^gamma) statement in the experiment suite is operationalized the
same way: evaluate a modulus on a dyadic scale grid, fit a least-squares line
through (log t, log value) over a declared window, and compare the slope.
Windows exclude scales below four cells and above 1/4 so the asymptotic claim
is tested away from the resolution floor and the saturation plateau.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, _check_exponent, _shift_cells, lp_norm, sample,
                   zero_extend)
from .moduli import (ModulusCurve, _dyadic_grid, interior_curve,
                     interior_ladder, whole_curve)


class VanishingModulusError(ValueError):
    """A modulus vanishes where a rate is asked of it: no rate exists."""


def _check_q(q: float):
    """The Besov fine index: >= 1, where inf encodes the sup-scale case."""
    if not q >= 1:  # NaN fails too
        raise ValueError(f"q must be >= 1 or infinity, got {q:g}")


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log t, log value); natural-log scale."""

    slope: float
    intercept: float
    residual_rms: float
    window: tuple
    n_points: int

    def __post_init__(self):
        if self.n_points < 4:
            raise ValueError("a rate fit needs at least 4 points")
        if not (self.window[0] < self.window[1]):
            raise ValueError("fit window must be increasing")
        if not math.isfinite(self.residual_rms):
            raise ValueError("residuals must be finite")


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float  # math.inf encodes the sup-scale case

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("smoothness must lie in (0,1)")
        _check_exponent(self.p)
        _check_q(self.q)


def fit_points(ts, vs, window=None) -> FitResult:
    """Fit log(value) ~ slope * log(t) + intercept over the window."""
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if window is not None:
        lo, hi = window
        mask = (ts >= lo * (1 - 1e-12)) & (ts <= hi * (1 + 1e-12))
        ts, vs = ts[mask], vs[mask]
    else:
        window = (float(ts.min()), float(ts.max()))
    if len(ts) < 4:
        raise ValueError("need at least 4 grid points inside the fit window")
    if np.any(vs <= 0):
        raise VanishingModulusError("vanishing modulus: cannot fit a rate through zeros")
    x = np.log(ts)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return FitResult(float(slope), float(intercept), rms,
                     (float(window[0]), float(window[1])), int(len(ts)))


def fit_exponent(curve: ModulusCurve, window=None) -> FitResult:
    return fit_points(curve.t_values, curve.values, window)


def besov_seminorm(curve: ModulusCurve, s: float, q: float) -> float:
    """Scale-weighted aggregate of a modulus curve.

    q finite: trapezoid rule in log t of (t^-s value)^q, then the q-th root;
    q infinite: the sup of t^-s value over the grid.
    """
    if s <= 0:
        raise ValueError("smoothness must be positive")
    if len(curve.points) == 0:
        raise ValueError("empty curve")
    ts = curve.t_values
    vs = curve.values
    _check_q(q)
    weighted = vs * ts ** (-s)
    if math.isinf(q):
        return float(weighted.max())
    if len(ts) < 2:
        raise ValueError("need at least two grid points to integrate")
    integrand = weighted ** q
    x = np.log(ts)
    integral = float(np.trapezoid(integrand, x))
    return integral ** (1.0 / q)


def default_fit_window(level: int) -> tuple:
    """Scales in [4 cells, 1/4]; the falsifiable window at this resolution."""
    return (4.0 * 2.0 ** (-level), 0.25)


# ---------------------------------------------------------------------------
# exponent transfer for the zero-extension


@dataclass(frozen=True)
class DropReport:
    alpha: FitResult
    beta: FitResult
    beta_predicted: float
    passed: bool
    window: tuple


def exponent_drop_check(f: GridFunction, p: float, window=None,
                        name: str = "") -> DropReport:
    """Measure the interior rate alpha, the whole-space rate of the
    zero-extension, and compare against the predicted drop alpha/(alpha p + 1).

    The prediction is an upper bound on the extension modulus, so the check
    passes when the measured extension rate is at least the predicted one
    (minus the stated slack, applied by the caller's tolerance).
    """
    if p <= 1:
        raise ValueError("the exponent transfer check needs p > 1")
    if window is None:
        window = default_fit_window(f.level)
    grid = _dyadic_grid(f.level, *window)
    zc = interior_curve(f, p, grid, name=name)
    if np.any(zc.values <= 0):
        raise VanishingModulusError(
            "vanishing interior modulus: rate undefined; use the ratio "
            "boundedness check for constants instead")
    alpha = fit_exponent(zc, window)
    g = zero_extend(f, _shift_cells(max(grid), f.n))
    wc = whole_curve(g, p, grid, name=name)
    beta = fit_exponent(wc, window)
    beta_pred = alpha.slope / (alpha.slope * p + 1.0)
    passed = beta.slope >= beta_pred - 0.05
    return DropReport(alpha, beta, beta_pred, passed, window)


# ---------------------------------------------------------------------------
# profile inversion and the balanced envelope


class BalancedEnvelope:
    """Envelope for the extension modulus from the inverted scale profile.

    Built on the dyadic ladder s_j = 2^-j: the profile phi(s) = s^(1/p)
    times the interior modulus must be strictly increasing, its inverse is
    interpolated log-log on the ladder, and the envelope is

        psi(t) = ||f||_p t^(1/p) (phi_inverse(t^(1/p) ||f||_p))^(-1/p).

    The natural evaluation points t_j = ||f||_p^(-p) 2^-j zeta_j^p satisfy
    psi(t_j) = zeta_j up to interpolation error.
    """

    def __init__(self, f: GridFunction, p: float, ladder=None):
        _check_exponent(p)
        self.p = float(p)
        self.norm = lp_norm(f, p)
        if self.norm <= 0:
            raise ValueError("zero function has no envelope")
        if ladder is None:
            ladder = interior_ladder(f, p)
        ladder = np.asarray(ladder, dtype=float)
        js = np.arange(len(ladder))
        s = 2.0 ** (-js)
        phi = s ** (1.0 / self.p) * ladder
        # ascending in s for interpolation: reverse the ladder order
        s_asc = s[::-1]
        phi_asc = phi[::-1]
        if np.any(ladder <= 0) or np.any(np.diff(phi_asc) <= 0):
            raise ValueError("profile not strictly increasing: the interior "
                             "modulus vanishes or stalls on the ladder")
        self.ladder = ladder
        self._log_s = np.log(s_asc)
        self._log_phi = np.log(phi_asc)

    def profile_inverse(self, y: float) -> float:
        if not (math.exp(self._log_phi[0]) * (1 - 1e-9) <= y
                <= math.exp(self._log_phi[-1]) * (1 + 1e-9)):
            raise ValueError("profile inverse queried outside the ladder range")
        return float(np.exp(np.interp(math.log(y), self._log_phi, self._log_s)))

    def __call__(self, t: float) -> float:
        y = t ** (1.0 / self.p) * self.norm
        s = self.profile_inverse(y)
        return self.norm * t ** (1.0 / self.p) * s ** (-1.0 / self.p)

    def t_ladder(self) -> np.ndarray:
        js = np.arange(len(self.ladder))
        return self.norm ** (-self.p) * 2.0 ** (-js) * self.ladder ** self.p


@dataclass(frozen=True)
class LadderReport:
    t_values: np.ndarray
    psi_values: np.ndarray
    ladder: np.ndarray
    max_rel_err: float
    step_ratios: np.ndarray
    step_bound: float


def envelope_ladder_report(f: GridFunction, p: float) -> LadderReport:
    """Evaluate the envelope on its natural ladder and report the identities.

    psi(t_j) should reproduce the interior ladder within interpolation
    tolerance, and consecutive t_j may shrink by at most 3^(p+1).
    """
    env = BalancedEnvelope(f, p)
    ts = env.t_ladder()
    psi = np.array([env(t) for t in ts])
    rel = np.abs(psi - env.ladder) / env.ladder
    ratios = ts[:-1] / ts[1:]
    return LadderReport(ts, psi, env.ladder, float(rel.max()), ratios,
                        3.0 ** (p + 1))


# ---------------------------------------------------------------------------
# embedding of the zero-extension and the divergence witness


@dataclass(frozen=True)
class EmbeddingReport:
    levels: tuple
    alpha: float
    beta: float
    r: float
    seminorms: tuple          # whole-space seminorm of the extension per level
    domain_seminorms: tuple   # interior seminorm per level
    interp_ratios: tuple      # extension seminorm over the interpolation bound
    stabilization: float      # relative change between the last two levels
    t_floors: tuple


def besov_embedding_check(spec, d: int, p: float, q: float, levels) -> EmbeddingReport:
    """Discrete seminorm of the zero-extension at the transferred indices.

    alpha is measured from the finest resolution's interior curve; the
    transferred indices are beta = alpha/(alpha p + 1), r = q (1 + alpha p).
    Reports per-resolution seminorms (stabilization indicates the discrete
    seminorm is converging) and the ratio against the interpolation-type
    product ||f||^(alpha p/(1+alpha p)) |f|^(1/(1+alpha p)).
    """
    _check_q(q)
    _check_exponent(p)
    if p <= 1:
        raise ValueError("needs p > 1")
    levels = tuple(sorted(int(x) for x in levels))
    f_fine = sample(spec, d, levels[-1])
    if lp_norm(f_fine, p) == 0.0:
        zeros = (0.0,) * len(levels)
        return EmbeddingReport(levels, math.nan, math.nan, math.nan, zeros,
                               zeros, (math.nan,) * len(levels), 0.0,
                               tuple(4.0 * 2.0 ** (-L) for L in levels))
    window = default_fit_window(levels[-1])
    fine_grid = _dyadic_grid(levels[-1], *window)
    alpha = fit_exponent(interior_curve(f_fine, p, fine_grid), window).slope
    beta = alpha / (alpha * p + 1.0)
    r = q * (1.0 + alpha * p)
    BesovParams(beta, p, r)  # transferred indices must be admissible
    seminorms, domain_seminorms, ratios, floors = [], [], [], []
    for L in levels:
        f = sample(spec, d, L)
        t_floor = 4.0 * 2.0 ** (-L)
        grid = _dyadic_grid(L, t_floor, 1.0)
        g = zero_extend(f, f.n)
        wc = whole_curve(g, p, grid)
        zc = interior_curve(f, p, grid)
        semi = besov_seminorm(wc, beta, r)
        domain = besov_seminorm(zc, alpha, q)
        norm = lp_norm(f, p)
        bound = norm ** (alpha * p / (1 + alpha * p)) * domain ** (1 / (1 + alpha * p))
        seminorms.append(semi)
        domain_seminorms.append(domain)
        ratios.append(semi / bound if bound > 0 else math.inf)
        floors.append(t_floor)
    stab = abs(seminorms[-1] / seminorms[-2] - 1.0) if len(seminorms) >= 2 else 0.0
    return EmbeddingReport(levels, alpha, beta, r, tuple(seminorms),
                           tuple(domain_seminorms), tuple(ratios), stab,
                           tuple(floors))


@dataclass(frozen=True)
class WitnessReport:
    alpha: float
    critical: float      # 1/p; divergence expected when alpha >= critical
    floors: tuple
    integrals: tuple
    growth: float        # integral at the halved floor over the baseline


def divergence_witness(f: GridFunction, p: float) -> WitnessReport:
    """Grid-floor sensitivity of the critical-index integral.

    The quantity is the integral of (t^-alpha zeta(t)^(1-alpha p))^p dt/t
    over (floor, 1], evaluated on the dyadic ladder with alpha the measured
    interior rate.  For alpha >= 1/p the integrand is non-integrable at 0, so
    halving the floor must grow the integral; the report records the factor.
    """
    ladder = interior_ladder(f, p)
    window = default_fit_window(f.level)
    grid = _dyadic_grid(f.level, *window)
    js = [int(round(-math.log2(t))) for t in grid]
    alpha = fit_points([2.0 ** (-j) for j in js], [ladder[j] for j in js],
                       window).slope
    exponent = 1.0 - alpha * p

    def integral(j_floor: int) -> float:
        ts, gs = [], []
        for j in range(j_floor, -1, -1):
            z = ladder[j]
            if z <= 0:
                raise VanishingModulusError("interior modulus vanishes on the ladder")
            ts.append(2.0 ** (-j))
            gs.append((2.0 ** (alpha * j) * z ** exponent) ** p)
        return float(np.trapezoid(np.asarray(gs), np.log(np.asarray(ts))))

    j_base = f.level - 2
    floors = (2.0 ** (-j_base), 2.0 ** (-(j_base + 1)))
    integrals = (integral(j_base), integral(j_base + 1))
    growth = integrals[1] / integrals[0] if integrals[0] > 0 else math.inf
    return WitnessReport(alpha, 1.0 / p, floors, integrals, growth)
