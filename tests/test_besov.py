import math

import numpy as np
import pytest

from zexlab.besov import (BalancedEnvelope, BesovParams, FitResult,
                          besov_embedding_check, besov_seminorm,
                          divergence_witness, envelope_ladder_report,
                          exponent_drop_check, fit_exponent, fit_points)
from zexlab.grid import (boundary_power, const, cusp, linear, lp_norm, sample,
                         zero_extend)
from zexlab.moduli import ModulusCurve, whole_modulus


def _power_curve(exponent, scale=1.0, j_range=range(10, 0, -1)):
    ts = [2.0 ** -j for j in j_range]
    return ModulusCurve("whole", 2.0,
                        tuple((t, scale * t ** exponent) for t in ts))


def test_fit_recovers_exact_power_laws():
    for target in (0.25, 0.5, 1.0):
        fit = fit_exponent(_power_curve(target, scale=2.7))
        assert fit.slope == pytest.approx(target, abs=1e-9)
        assert fit.residual_rms <= 1e-9
        assert fit.intercept == pytest.approx(math.log(2.7), abs=1e-9)


def test_fit_requires_enough_positive_points():
    with pytest.raises(ValueError):
        fit_points([0.5, 0.25, 0.125], [1, 1, 1])
    with pytest.raises(ValueError):
        fit_points([0.5, 0.25, 0.125, 0.0625], [1.0, 1.0, 0.0, 1.0])


def test_fit_result_validation():
    with pytest.raises(ValueError):
        FitResult(1.0, 0.0, 0.0, (0.5, 0.25), 5)
    with pytest.raises(ValueError):
        FitResult(1.0, 0.0, 0.0, (0.25, 0.5), 3)


def test_besov_params_validation():
    BesovParams(0.5, 2.0, math.inf)
    with pytest.raises(ValueError):
        BesovParams(1.5, 2.0, 2.0)
    with pytest.raises(ValueError):
        BesovParams(0.5, 2.0, 0.5)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="q must be"):
            BesovParams(0.5, 2.0, bad)
        with pytest.raises(ValueError, match="p must be"):
            BesovParams(0.5, bad, 2.0)


def test_seminorm_zero_curve():
    curve = ModulusCurve("whole", 2.0, ((0.25, 0.0), (0.5, 0.0)))
    assert besov_seminorm(curve, 0.5, 2.0) == 0.0
    assert besov_seminorm(curve, 0.5, math.inf) == 0.0


def test_seminorm_sup_scale_indicator():
    curve = ModulusCurve(
        "whole", 2.0,
        tuple((t, math.sqrt(2.0 * t)) for t in [2.0 ** -j for j in range(10, 0, -1)]))
    assert besov_seminorm(curve, 0.5, math.inf) == pytest.approx(
        math.sqrt(2.0), abs=1e-6)


def test_seminorm_sup_grows_past_critical_smoothness():
    # above the curve's own exponent the weighted sup follows the t^-0.1
    # envelope: each halving of the floor multiplies it by 2^0.1, without bound
    def sup_at_floor(j_floor):
        ts = [2.0 ** -j for j in range(j_floor, 0, -1)]
        curve = ModulusCurve("whole", 2.0,
                             tuple((t, math.sqrt(2.0 * t)) for t in ts))
        return besov_seminorm(curve, 0.6, math.inf)

    values = [sup_at_floor(j) for j in (10, 11, 12, 21)]
    assert values[1] / values[0] == pytest.approx(2.0 ** 0.1, rel=1e-9)
    assert values[2] / values[1] == pytest.approx(2.0 ** 0.1, rel=1e-9)
    assert values[3] >= 2.0 * values[0]


def test_seminorm_monotone_in_smoothness():
    curve = _power_curve(0.5)
    assert besov_seminorm(curve, 0.3, 2.0) <= besov_seminorm(curve, 0.6, 2.0)
    assert besov_seminorm(curve, 0.3, math.inf) <= besov_seminorm(curve, 0.6, math.inf)


def test_seminorm_rejects_empty_and_bad_q():
    curve = _power_curve(0.5)
    for bad in (0.5, math.nan, -math.inf):
        with pytest.raises(ValueError):
            besov_seminorm(curve, 0.5, bad)
    with pytest.raises(ValueError):
        besov_seminorm(ModulusCurve("whole", 2.0, ()), 0.5, 2.0)


def test_envelope_synthetic_power_ladder(monkeypatch):
    # ladder values 2^-j give profile s^(3/2), inverse y^(2/3), envelope t^(1/3)
    from zexlab import besov

    f = sample(cusp(0.5), 1, 8)  # only the geometry matters here
    ladder = np.array([2.0 ** -j for j in range(9)])
    monkeypatch.setattr(besov, "interior_ladder", lambda g, p: ladder)
    env = BalancedEnvelope(f, 2.0)
    env_norm = env.norm
    for j in (1, 3, 5):
        y = (2.0 ** -j) ** 1.5
        assert env.profile_inverse(y) == pytest.approx(y ** (2.0 / 3.0), rel=1e-9)
    t = (0.5 ** 4.5 / env_norm) ** 2  # interior point of the ladder range
    expected = env_norm * math.sqrt(t) * (t ** (1 / 3.0) * env_norm ** (2 / 3.0)) ** -0.5
    assert env(t) == pytest.approx(expected, rel=1e-6)


def test_envelope_rejects_vanishing_modulus():
    f = sample(const(1.0), 1, 8)
    with pytest.raises(ValueError):
        BalancedEnvelope(f, 2.0)


def test_envelope_ladder_identities():
    f = sample(cusp(0.5), 1, 12)
    report = envelope_ladder_report(f, 2.0)
    assert report.max_rel_err <= 0.05
    assert report.step_ratios.max() <= report.step_bound + 1e-9
    assert np.all(report.step_ratios >= 1.0)


def test_envelope_almost_decreasing_property():
    # t^(-1/p) psi(t) decreases: psi(v) <= (v/u)^(1/p) psi(u) for u < v
    f = sample(cusp(0.5), 1, 11)
    env = BalancedEnvelope(f, 2.0)
    ts = np.sort(env.t_ladder())
    for u, v in zip(ts[:-1], ts[1:]):
        assert env(v) <= (v / u) ** 0.5 * env(u) * 1.05


def test_envelope_dominates_extension_modulus():
    # a single finite constant covers omega(extension, t) / min(psi, norm)
    f = sample(cusp(0.5), 1, 11)
    env = BalancedEnvelope(f, 2.0)
    norm = lp_norm(f, 2)
    g = zero_extend(f, f.n // 2)
    ratios = []
    for t in sorted(env.t_ladder()):
        if not 2.0 ** -10 <= t <= 0.5:
            continue
        om = whole_modulus(g, 2, t)
        ratios.append(om / min(env(t), norm))
    assert len(ratios) >= 4
    assert max(ratios) < 20.0


def test_exponent_drop_cusp():
    f = sample(cusp(0.5), 1, 12)
    report = exponent_drop_check(f, 2, window=(2.0 ** -7, 0.25))
    assert report.passed
    assert 0.0 < report.beta_predicted < report.beta.slope + 0.05


def test_exponent_drop_linear_not_sharp():
    f = sample(linear(), 1, 12)
    report = exponent_drop_check(f, 2, window=(2.0 ** -7, 0.25))
    assert report.alpha.slope == pytest.approx(1.0, abs=0.05)
    assert report.beta_predicted == pytest.approx(1.0 / 3.0, abs=0.02)
    assert report.beta.slope == pytest.approx(0.5, abs=0.05)
    assert report.passed


def test_exponent_drop_boundary_power():
    f = sample(boundary_power(0.9), 1, 12)
    assert exponent_drop_check(f, 2, window=(2.0 ** -7, 0.25)).passed


def test_exponent_drop_rejects_constants():
    f = sample(const(1.0), 1, 10)
    with pytest.raises(ValueError):
        exponent_drop_check(f, 2)


def test_divergence_witness_boundary_power():
    f = sample(boundary_power(0.8), 1, 12)
    report = divergence_witness(f, 2)
    assert report.alpha >= report.critical
    assert report.growth >= 2.0
    assert report.integrals[1] > report.integrals[0]


def test_embedding_check_cusp_stabilizes():
    report = besov_embedding_check(cusp(0.5), 1, 2.0, 2.0, (10, 11, 12))
    assert report.stabilization <= 0.05
    assert 0.0 < report.beta < 0.5
    assert report.r == pytest.approx(2.0 * (1.0 + 2.0 * report.alpha))
    assert all(math.isfinite(v) and v > 0 for v in report.seminorms)
    assert all(math.isfinite(v) for v in report.interp_ratios)


def test_embedding_interior_curve_feeds_domain_seminorm():
    report = besov_embedding_check(cusp(0.5), 1, 2.0, 2.0, (9, 10))
    assert all(v > 0 for v in report.domain_seminorms)


def test_embedding_zero_function_all_zero():
    report = besov_embedding_check(const(0.0), 1, 2.0, 2.0, (8, 9))
    assert all(v == 0.0 for v in report.seminorms)
    assert all(v == 0.0 for v in report.domain_seminorms)


def test_fit_linear_interior_slope():
    # oracle: the interior modulus of the ramp is t*sqrt(1-t); the honest
    # comparison is against that curve fitted over the same window, whose
    # least-squares slope is 0.963, not the naive 1.0
    f = sample(linear(), 1, 12)
    from zexlab.moduli import interior_curve

    grid = [2.0 ** -j for j in range(7, 1, -1)]
    fit = fit_exponent(interior_curve(f, 2, grid), (2.0 ** -7, 0.25))
    oracle = fit_points(grid, [t * math.sqrt(1.0 - t) for t in grid])
    assert fit.slope == pytest.approx(oracle.slope, abs=1e-3)
    assert fit.slope == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("q", [math.nan, 0.5, -math.inf])
def test_embedding_check_refuses_q_before_sampling(monkeypatch, q):
    import zexlab.besov

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking q")

    monkeypatch.setattr(zexlab.besov, "sample", no_sampling)
    with pytest.raises(ValueError, match=f"q must be >= 1 or infinity, got {q:g}"):
        besov_embedding_check(cusp(0.5), 1, 2.0, q, (8, 9))
