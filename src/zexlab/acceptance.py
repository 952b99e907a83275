"""The one-shot verification suite behind ``zexlab verify``.

Each gate bundles one acceptance criterion: a hard pass/fail decision at a
pinned tolerance, a human-readable detail string, and the CSV/text artifacts
the run produced.  Gates are deterministic given their seeds, so rerunning
the suite reproduces every artifact byte for byte.
"""
from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import adaptive, besov, dyadic, kernels, moduli
from .grid import (_csv, _shift_cells, boundary_power, const, corpus, cusp,
                   indicator, linear, lp_norm, sample, zero_extend)

DEFAULT_SEED = 7


@dataclass
class GateResult:
    name: str
    passed: bool
    details: str
    elapsed: float
    limit: float | None = None
    artifacts: dict = field(default_factory=dict)
    crashed: bool = False  # the body raised; passed is False

    @property
    def in_budget(self) -> bool:
        return self.limit is None or self.elapsed < self.limit

    def line(self) -> str:
        verdict = "PASS" if (self.passed and self.in_budget) else "FAIL"
        budget = f" ({self.elapsed:.1f}s / {self.limit:.0f}s)" if self.limit else \
            f" ({self.elapsed:.1f}s)"
        return f"[{verdict}] {self.name}{budget}: {self.details}"


def _gate(name, limit, fn) -> GateResult:
    """Run one gate body; a crash becomes a FAIL so later gates still run."""
    start, crashed = time.perf_counter(), False
    try:
        passed, details, artifacts = fn()
    except Exception as exc:
        traceback.print_exc()
        passed, details, artifacts = False, f"crashed: {type(exc).__name__}: {exc}", {}
        crashed = True
    elapsed = time.perf_counter() - start
    return GateResult(name, passed, details, elapsed, limit, artifacts, crashed)


# ---------------------------------------------------------------------------
# gate 1: randomized shifted-difference bound suite


def gate_shift_bounds(seed: int = DEFAULT_SEED) -> GateResult:
    def run():
        rows = dyadic.shift_bound_suite(n_functions=100, shifts_each=10, seed=seed)
        suite_rows = rows[:-1]
        eq = rows[-1]
        failures = [r for r in suite_rows if not r["pass"]]
        eq_ok = abs(eq["lhs"] - 1.0) <= 1e-9 and abs(eq["rhs"] - 1.0) <= 1e-9
        slack = min(r["rhs"] / r["lhs"] for r in suite_rows if r["lhs"] > 0)
        passed = not failures and eq_ok and len(suite_rows) == 3000
        details = (f"{len(suite_rows)} randomized cases, {len(failures)} failures; "
                   f"equality case lhs={eq['lhs']:.12g} rhs={eq['rhs']:.12g}; "
                   f"tightest rhs/lhs slack {slack:.3f}")
        return passed, details, {"shift_bound_suite.csv": dyadic.suite_to_csv(rows)}

    return _gate("shifted-difference bound suite", 30.0, run)


# ---------------------------------------------------------------------------
# gate 2: averaging error against the interior modulus


def gate_average_error() -> GateResult:
    def run():
        failures = []
        needed_constant = 0.0
        rows = []
        for member in corpus():
            level = 10
            f = sample(member.spec, member.d, level)
            for p in (1.0, 2.0, 3.0):
                if member.d == 1:
                    ns = range(0, level - 1)
                elif p == 2.0:
                    ns = range(1, level - 1)
                else:
                    ns = (level - 2,)  # exact direct enumeration stays affordable
                # one curve serves every level N: its scales 2^-N
                curve = moduli.interior_curve(f, p, [2.0 ** (-n) for n in ns])
                zvals = dict(curve.points)
                for n_level in ns:
                    err, bound, constant = dyadic.average_error_report(f, n_level, p, curve)
                    ok = err <= bound + 1e-12
                    if not ok:
                        failures.append((member.name, p, n_level, err, bound))
                    zeta = zvals[2.0 ** (-n_level)]
                    if zeta > 0:
                        needed_constant = max(needed_constant, err / zeta)
                    rows.append((member.d, member.name, p, n_level, err, bound,
                                 constant, ok))
        # the continuum value needs a fine lattice: the discrete error is
        # sqrt(1/48 - 2^(-2L-1)/6), within 1e-10 of 1/(4 sqrt(3)) once L >= 17
        exact = dyadic.average_error(sample(linear(), 1, 20), 1, 2.0)
        target = 1.0 / (4.0 * math.sqrt(3.0))
        exact_ok = abs(exact - target) <= 1e-10
        passed = not failures and exact_ok
        details = (f"{len(rows)} inequality cases, {len(failures)} failures; "
                   f"linear halves error {exact:.12f} vs {target:.12f} "
                   f"(|diff|={abs(exact - target):.2e}); smallest constant that "
                   f"still dominates: {needed_constant:.4f}")
        return passed, details, {"average_error.csv": _csv(
            "d,function,p,N,error,bound,constant,pass", rows)}

    return _gate("averaging error bound", 30.0, run)


# ---------------------------------------------------------------------------
# gate 3: indicator exponents


def gate_indicator_exponents() -> GateResult:
    def run():
        level = 12
        f = sample(const(1.0), 1, level)
        grid = [2.0 ** (-j) for j in range(7, 1, -1)]
        g = zero_extend(f, _shift_cells(max(grid), f.n))
        problems = []
        artifacts = {}
        for p in (1.0, 2.0, 3.0):
            wc = moduli.whole_curve(g, p, grid, name="const value=1")
            slope = besov.fit_exponent(wc).slope
            if abs(slope - 1.0 / p) > 0.02:
                problems.append(f"p={p}: extension slope {slope:.4f} != {1/p:.4f}")
            zc = moduli.interior_curve(f, p, grid, name="const value=1")
            if zc.values.max() != 0.0:
                problems.append(f"p={p}: interior curve not identically zero")
            artifacts[f"indicator_whole_p{p:g}.csv"] = wc.to_csv()
        details = "; ".join(problems) if problems else \
            "extension slopes match 1/p within 0.02 and interior curves vanish"
        return not problems, details, artifacts

    return _gate("indicator exponents", 10.0, run)


# ---------------------------------------------------------------------------
# gate 4: boundedness of error/hybrid and extension/hybrid ratios


def gate_extension_bounds() -> GateResult:
    def run():
        level = 11
        grid = [2.0 ** (-j) for j in range(7, 1, -1)]
        problems = []
        rows = []
        for member in corpus(d=1):
            f = sample(member.spec, 1, level)
            for p in (2.0, 3.0):
                rep = kernels.extension_bound_check("gauss", f, p, grid)
                if not rep.passed:
                    problems.append(
                        f"{member.name} p={p}: slopes {rep.error_slope}, "
                        f"{rep.modulus_slope} below -0.05")
                if member.name == "const1_d1" and p == 2.0:
                    band = [abs(r / math.sqrt(2.0) - 1.0) for r in rep.modulus_ratio]
                    if max(band) > 0.05:
                        problems.append(
                            f"constant ratio drifts {max(band):.3f} from sqrt(2)")
                rows.append((member.name, p, rep.error_slope, rep.modulus_slope,
                             rep.max_error_ratio, rep.max_modulus_ratio))
        details = "; ".join(problems) if problems else \
            "all ratio slopes >= -0.05; constant case flat at sqrt(2)"
        return not problems, details, {"extension_bounds.csv": _csv(
            "function,p,error_slope,modulus_slope,max_error_ratio,max_modulus_ratio",
            rows)}

    return _gate("extension-modulus boundedness", 300.0, run)


# ---------------------------------------------------------------------------
# gate 5: measured exponent drop of the zero-extension


def gate_exponent_drop() -> GateResult:
    def run():
        level = 12
        specs = [("cusp03", cusp(0.3)), ("cusp05", cusp(0.5)),
                 ("cusp07", cusp(0.7)), ("edge08", boundary_power(0.8))]
        problems = []
        rows = []
        for name, spec in specs:
            f = sample(spec, 1, level)
            for p in (2.0, 3.0):
                rep = besov.exponent_drop_check(f, p, window=(2.0 ** -7, 0.25),
                                                name=name)
                if not rep.passed:
                    problems.append(
                        f"{name} p={p}: beta {rep.beta.slope:.3f} < "
                        f"{rep.beta_predicted:.3f} - 0.05")
                rows.append((name, p, rep.alpha.slope, rep.beta.slope,
                             rep.beta_predicted, rep.passed))
        details = "; ".join(problems) if problems else \
            "measured extension exponents dominate the predicted drop"
        return not problems, details, {"exponent_drop.csv": _csv(
            "function,p,alpha,beta_measured,beta_predicted,pass", rows)}

    return _gate("exponent drop of the extension", 300.0, run)


# ---------------------------------------------------------------------------
# gate 6: adaptive partitions


def gate_adaptive() -> GateResult:
    def run():
        problems = []
        artifacts = {}
        # structural invariants and threshold monotonicity on the corpus
        for member in corpus():
            level = 10 if member.d == 1 else 9
            f = sample(member.spec, member.d, level)
            pyramid = adaptive.ErrorPyramid(f, 2.0)
            epsilons = adaptive.default_epsilons(f, 2.0)
            previous = None
            for eps in sorted(epsilons):
                part = adaptive.build_partition(f, 2.0, eps, pyramid)
                bad = adaptive.verify_partition(part, f)
                if bad:
                    problems.append(f"{member.name} eps={eps:g}: {bad[0]}")
                if previous is not None and part.n_total > previous:
                    problems.append(f"{member.name}: count grew as eps grew")
                previous = part.n_total
        # worked example
        f1 = sample(linear(), 1, 10)
        part_a = adaptive.build_partition(f1, 2.0, 0.15)
        part_b = adaptive.build_partition(f1, 2.0, 0.3)
        if not (part_a.n_total == 2 and part_a.depth == 1):
            problems.append(f"eps=0.15 gave N={part_a.n_total}, depth={part_a.depth}")
        if not (part_b.n_total == 1 and part_b.depth == 0):
            problems.append(f"eps=0.3 gave N={part_b.n_total}, depth={part_b.depth}")
        artifacts["partition_linear_eps0.15.txt"] = part_a.to_text()
        # count scaling for the planar ramp
        f2 = sample(linear(), 2, 9)
        report = adaptive.count_bound_report(
            f2, 2.0, 2.0, [2.0 ** (-j) for j in range(3, 9)])
        if abs(report.eta - 0.5) > 1e-12:
            problems.append(f"eta={report.eta} (expected 1/2)")
        if report.slope is None or report.slope.slope > 1.1:
            problems.append(f"count slope {report.slope and report.slope.slope} > 1.1")
        for row in report.rows:
            if row.min_side < row.min_side_bound / 2.0:
                problems.append(
                    f"eps={row.epsilon:g}: min side {row.min_side:g} below half "
                    f"the printed bound {row.min_side_bound:g}")
        artifacts["count_scaling.csv"] = report.to_csv()
        details = "; ".join(problems) if problems else (
            f"invariants hold on corpus x ladder; worked example exact; "
            f"count slope {report.slope.slope:.3f} <= 1.1; min sides above "
            f"half the printed threshold")
        return not problems, details, artifacts

    return _gate("adaptive partition", 120.0, run)


# ---------------------------------------------------------------------------
# gate 7: kernel hypotheses


# Gauss-Legendre nodes per panel of the quadrature oracle
_ORACLE_NODES = 32
_erfc = np.vectorize(math.erfc, otypes=[float])


def _ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal distribution function, 0.5 erfc(-x / sqrt 2)."""
    return 0.5 * _erfc(-x / math.sqrt(2.0))


def _gauss_indicator_error_oracle(t: float, p: float) -> float:
    """Quadrature value of the smoothing error on the unit indicator (d=1).

    Independent of the lattice path: the smoothed indicator has the closed
    form ndtr(x/t) - ndtr((x-1)/t) (``_ndtr``), and the error power
    integrates by a fixed composite Gauss-Legendre rule (``_ORACLE_NODES``
    per panel) on the three smooth pieces of [-1, 2], with panel breaks at
    distance t*2^j (j = -6..5) from the jumps at 0 and 1.
    """
    gaps = t * 2.0 ** np.arange(-6, 6)
    cuts = np.concatenate(([-1.0, 0.0, 1.0, 2.0], -gaps, gaps, 1.0 - gaps, 1.0 + gaps))
    cuts = np.unique(cuts[(cuts >= -1.0) & (cuts <= 2.0)])
    x0, w0 = np.polynomial.legendre.leggauss(_ORACLE_NODES)
    a, b = cuts[:-1, None], cuts[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * x0
    inside = (x > 0.0) & (x < 1.0)
    err = np.abs(_ndtr(x / t) - _ndtr((x - 1.0) / t) - inside) ** p
    return float(np.sum(0.5 * (b - a) * w0 * err) ** (1.0 / p))


def gate_kernel_hypotheses() -> GateResult:
    def run():
        problems = []
        rows = []
        for member in corpus():
            level = 10 if member.d == 1 else 8
            f = sample(member.spec, member.d, level)
            t_list = (2.0 ** -5, 2.0 ** -3) if member.d == 1 else (2.0 ** -5,)
            for family in kernels.FAMILIES:
                for t in t_list:
                    spec = kernels.KernelSpec(family, t,
                                              kernels.default_tail(family, member.d))
                    margin = kernels.kernel_radius_cells(spec, f.d, f.level)
                    g = zero_extend(f, margin)
                    smoothed = kernels.apply_kernel(spec, g)
                    for p in (1.0, 2.0, 3.0):
                        n_in = lp_norm(g, p)
                        n_out = lp_norm(smoothed, p)
                        gap = n_out - n_in
                        if gap > 1e-9:
                            problems.append(
                                f"{member.name} {family} t={t:g} p={p}: "
                                f"contraction violated by {gap:.2e}")
                        rows.append((member.d, member.name, family, t, p, n_in,
                                     n_out, gap))
                    del g, smoothed  # neither window outlives its kernel
        # equivalence band for the smooth family
        grid = [2.0 ** (-j) for j in range(7, 2, -1)]
        for member in corpus(d=1):
            if member.name == "const1_d1":
                continue
            f = sample(member.spec, 1, 12)
            table = kernels.error_modulus_ratio("gauss", f, 2.0, grid)
            if table.band > 10.0:
                problems.append(f"{member.name}: error/modulus band "
                                f"{table.band:.2f} exceeds 10")
        # independent quadrature oracle on the indicator
        t0 = 2.0 ** -4
        f = sample(const(1.0), 1, 12)
        measured = kernels.error_norm(kernels.KernelSpec("gauss", t0, 1e-6), f, 2.0)
        oracle = _gauss_indicator_error_oracle(t0, 2.0)
        if abs(measured - oracle) / oracle > 0.05:
            problems.append(f"gauss-on-indicator {measured:.6f} vs oracle "
                            f"{oracle:.6f} beyond 5%")
        details = "; ".join(problems) if problems else (
            f"contractions hold to 1e-9 on all families; gauss band within 10; "
            f"indicator error {measured:.6f} matches quadrature {oracle:.6f}")
        return not problems, details, {"kernel_contraction.csv": _csv(
            "d,function,family,t,p,norm_in,norm_out,gap", rows)}

    return _gate("kernel hypotheses", 300.0, run)


# ---------------------------------------------------------------------------
# gate 8: rate-fitting and seminorm machinery


def gate_besov_machinery() -> GateResult:
    def run():
        problems = []
        # exact power-law recovery
        ts = [2.0 ** (-j) for j in range(9, 1, -1)]
        for target in (0.3, 0.5, 1.0):
            fit = besov.fit_points(ts, [3.0 * t ** target for t in ts])
            if abs(fit.slope - target) > 1e-9 or fit.residual_rms > 1e-9:
                problems.append(f"power law {target} fitted as {fit.slope!r}")
        # sup-scale seminorm of the analytic indicator curve
        curve = moduli.ModulusCurve(
            "whole", 2.0, tuple((t, math.sqrt(2.0 * t)) for t in ts))
        semi = besov.besov_seminorm(curve, 0.5, math.inf)
        if abs(semi - math.sqrt(2.0)) > 1e-6:
            problems.append(f"sup-scale seminorm {semi!r} != sqrt(2)")
        # divergence witness at the critical index
        f_edge = sample(boundary_power(0.8), 1, 12)
        witness = besov.divergence_witness(f_edge, 2.0)
        if witness.alpha < witness.critical:
            problems.append(f"witness rate {witness.alpha:.3f} below critical "
                            f"{witness.critical:.2f}")
        if witness.growth < 2.0:
            problems.append(f"witness growth {witness.growth:.3f} < 2 when the "
                            f"floor halves")
        # envelope ladder identities
        f_cusp = sample(cusp(0.5), 1, 12)
        ladder = besov.envelope_ladder_report(f_cusp, 2.0)
        if ladder.max_rel_err > 0.05:
            problems.append(f"envelope misses the ladder by {ladder.max_rel_err:.3f}")
        if ladder.step_ratios.max() > ladder.step_bound + 1e-9:
            problems.append(f"ladder step ratio {ladder.step_ratios.max():.2f} "
                            f"exceeds {ladder.step_bound:g}")
        details = "; ".join(problems) if problems else (
            f"fits exact; sup seminorm sqrt(2); witness growth "
            f"{witness.growth:.2f}x; envelope ladder within "
            f"{ladder.max_rel_err:.4f}")
        return not problems, details, {}

    return _gate("rate and seminorm machinery", 120.0, run)


# ---------------------------------------------------------------------------
# gate 9: determinism of the emitted artifacts


def artifact_bundle(seed: int = DEFAULT_SEED) -> dict:
    """Representative CSV/text artifacts from every emitting code path."""
    out = {}
    rows = dyadic.shift_bound_suite(n_functions=20, shifts_each=5, seed=seed)
    out["shift_bound_sample.csv"] = dyadic.suite_to_csv(rows)
    f = sample(cusp(0.5), 1, 10)
    grid = [2.0 ** (-j) for j in range(7, 1, -1)]
    out["interior.csv"] = moduli.interior_curve(f, 2.0, grid, name="cusp").to_csv()
    g = zero_extend(f, _shift_cells(max(grid), f.n))
    out["whole.csv"] = moduli.whole_curve(g, 2.0, grid, name="cusp").to_csv()
    out["hybrid.csv"] = moduli.hybrid_curve(f, 2.0, grid, name="cusp").to_csv()
    f1 = sample(linear(), 1, 8)
    out["partition.txt"] = adaptive.build_partition(f1, 2.0, 0.15).to_text()
    f2 = sample(linear(), 2, 7)
    report = adaptive.count_bound_report(f2, 2.0, 2.0,
                                         [2.0 ** (-j) for j in range(3, 7)])
    out["counts.csv"] = report.to_csv()
    fh = sample(indicator(0.0, 0.5), 1, 10)
    out["kernel_error.csv"] = kernels.error_curve(
        "gauss", fh, 2.0, grid, name="halfbox").to_csv()
    return out


def gate_determinism(seed: int = DEFAULT_SEED) -> GateResult:
    def run():
        first = artifact_bundle(seed)
        second = artifact_bundle(seed)
        mismatched = [k for k in first if first[k] != second.get(k)]
        passed = not mismatched and set(first) == set(second)
        details = ("byte-identical artifact bundle across reruns"
                   if passed else f"artifacts differ: {mismatched}")
        return passed, details, first

    return _gate("artifact determinism", None, run)


GATES = (
    gate_shift_bounds,
    gate_average_error,
    gate_indicator_exponents,
    gate_extension_bounds,
    gate_exponent_drop,
    gate_adaptive,
    gate_kernel_hypotheses,
    gate_besov_machinery,
    gate_determinism,
)


def run_gate(gate, seed: int = DEFAULT_SEED) -> GateResult:
    """Run one gate of ``GATES``, passing the seed to the seeded ones."""
    if gate in (gate_shift_bounds, gate_determinism):
        return gate(seed)
    return gate()


def run_all(seed: int = DEFAULT_SEED) -> list:
    return [run_gate(gate, seed) for gate in GATES]
