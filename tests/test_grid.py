import math
import re

import numpy as np
import pytest

from zexlab import adaptive, besov, dyadic, kernels, moduli
from zexlab.grid import (ExtendedGridFunction, FunctionSpec, GridFunction, LatticeShift,
                         _csv, boundary_power, const, corpus, cusp, indicator, linear,
                         lp_norm, parse_spec, random_dyadic, sample, tensor_product,
                         zero_extend)


def test_sample_const():
    f = sample(const(1.0), 1, 2)
    assert np.array_equal(f.samples, [1.0, 1.0, 1.0, 1.0])


def test_sample_linear_midpoints():
    f = sample(linear(), 1, 1)
    assert np.array_equal(f.samples, [0.25, 0.75])


def test_sample_indicator_membership():
    f = sample(indicator(0.0, 0.5), 1, 2)
    assert np.array_equal(f.samples, [1.0, 1.0, 0.0, 0.0])


def test_sample_linear_d2_is_coordinate_sum():
    f = sample(linear(), 2, 1)
    assert np.allclose(f.samples, [[0.5, 1.0], [1.0, 1.5]])


def test_tensor_product_matches_axis_profile():
    f = sample(tensor_product(boundary_power(1.0)), 2, 3)
    mids = (np.arange(8) + 0.5) / 8
    assert np.allclose(f.samples, np.outer(mids, mids))


def test_random_spec_deterministic():
    a = sample(random_dyadic(3, 42), 1, 6)
    b = sample(random_dyadic(3, 42), 1, 6)
    assert np.array_equal(a.samples, b.samples)
    c = sample(random_dyadic(3, 43), 1, 6)
    assert not np.array_equal(a.samples, c.samples)


def test_zero_extend_const():
    g = zero_extend(sample(const(1.0), 1, 1), 1)
    assert np.array_equal(g.samples, [0.0, 1.0, 1.0, 0.0])


def test_zero_extend_zero_function():
    g = zero_extend(sample(const(0.0), 1, 3), 5)
    assert not g.samples.any()


def test_zero_extend_linear_margin_two():
    g = zero_extend(sample(linear(), 1, 1), 2)
    assert np.array_equal(g.samples, [0.0, 0.0, 0.25, 0.75, 0.0, 0.0])


def test_zero_extend_restrict_is_identity():
    f = sample(cusp(0.5), 2, 4)
    g = zero_extend(f, 7)
    core = (slice(7, 7 + 16), slice(7, 7 + 16))
    assert np.array_equal(g.samples[core], f.samples)
    assert np.array_equal(g.base.samples, f.samples)
    assert (g.base.d, g.base.level, g.n) == (f.d, f.level, f.n)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_lp_norm_const_one(p):
    assert lp_norm(sample(const(1.0), 1, 5), p) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_zero():
    assert lp_norm(sample(const(0.0), 2, 3), 2) == 0.0


def test_lp_norm_linear_matches_integral():
    f = sample(linear(), 1, 12)
    assert lp_norm(f, 2) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)


def test_lp_norm_rejects_small_p():
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            lp_norm(sample(const(1.0), 1, 2), p)


_F = sample(cusp(0.5), 2, 3)
_EXPONENT_TAKERS = {
    "interior_curve": lambda p: moduli.interior_curve(_F, p, (0.25,)),
    "whole_modulus": lambda p: moduli.whole_modulus(zero_extend(_F, 2), p, 0.25),
    "hybrid_modulus": lambda p: moduli.hybrid_modulus(_F, p, 0.25),
    "shift_bound_check": lambda p: dyadic.shift_bound_check(
        dyadic.dyadic_average(_F, 1), LatticeShift((1, 0), 3), p),
    "average_error": lambda p: dyadic.average_error(_F, 1, p),
    "ErrorPyramid": lambda p: adaptive.ErrorPyramid(_F, p),
    "local_error": lambda p: adaptive.local_error(_F, 1, (0, 1), p),
    "build_partition": lambda p: adaptive.build_partition(_F, p, 0.1),
    "default_epsilons": lambda p: adaptive.default_epsilons(_F, p),
    "sobolev_seminorm": lambda q: adaptive.sobolev_seminorm(_F, q),
    "count_bound_report.p": lambda p: adaptive.count_bound_report(_F, p, 2.0, (0.1,)),
    "count_bound_report.q": lambda q: adaptive.count_bound_report(_F, 2.0, q, (0.1,)),
    "BesovParams": lambda p: besov.BesovParams(0.5, p, 2.0),
    "BalancedEnvelope": lambda p: besov.BalancedEnvelope(_F, p),
    "error_norm": lambda p: kernels.error_norm(kernels.KernelSpec("gauss", 0.25), _F, p),
}


@pytest.mark.parametrize("name", sorted(_EXPONENT_TAKERS))
@pytest.mark.parametrize("value", [0.0, 0.5, math.nan, math.inf])
def test_every_exponent_passes_one_guard(name, value):
    exponent = "q" if name in ("sobolev_seminorm", "count_bound_report.q") else "p"
    with pytest.raises(ValueError, match=f"{exponent} must be finite and >= 1"):
        _EXPONENT_TAKERS[name](value)


def test_csv_prints_bools_strings_and_reprs():
    rows = [(True, "x:1", 0.1, np.float64(0.5), None, 3), (False, "", 1e-05, 2, 1.0, -1)]
    assert _csv("a,b,c,d,e,f", rows) == ("a,b,c,d,e,f\n"
                                         "true,x:1,0.1,np.float64(0.5),None,3\n"
                                         "false,,1e-05,2,1.0,-1\n")
    assert _csv("a,b", iter(())) == "a,b\n"


def test_lattice_arithmetic_pairs_one_type_and_one_geometry():
    f = sample(linear(), 1, 3)
    g = zero_extend(f, 2)
    assert np.array_equal((f + f).samples, 2 * f.samples)
    assert (g - 3 * g).margin == 2 and np.array_equal((-g).samples, -g.samples)
    with pytest.raises(TypeError):
        f + g
    with pytest.raises(TypeError):
        g - f
    with pytest.raises(ValueError, match="geometry mismatch"):
        f - sample(linear(), 1, 4)
    with pytest.raises(ValueError, match="geometry mismatch"):
        f + sample(linear(), 2, 3)
    with pytest.raises(ValueError, match="geometry mismatch"):
        g + zero_extend(f, 3)
    # one window size, two geometries: 8 + 2*4 cells against 16 + 2*0
    with pytest.raises(ValueError, match="geometry mismatch"):
        zero_extend(f, 4) - zero_extend(sample(linear(), 1, 4), 0)


def test_lp_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(17)
    members = corpus(d=1)
    for _ in range(8):
        i, j = rng.integers(0, len(members), 2)
        f = sample(members[i].spec, 1, 6)
        g = sample(members[j].spec, 1, 6)
        c = float(rng.uniform(-3, 3))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(c * f, p) == pytest.approx(
                abs(c) * lp_norm(f, p), rel=1e-12, abs=1e-12)
            assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


def _whole_power(g: ExtendedGridFunction, k, p: float) -> float:
    """||g(. + h) - g||_p^p over g's window, h = k cells, by the whole
    tables' evaluator, which must leave its buffer zeroed."""
    out = np.zeros(g.shape)
    total = moduli._diff_power_window(g.samples, k, p, out, g.support_box)
    assert not out.any()
    return total * g.cell_volume


def test_difference_zero_shift_is_zero():
    g = zero_extend(sample(cusp(0.3), 1, 5), 4)
    assert _whole_power(g, (0,), 1.0) == 0.0  # a sum of |differences|: every one is 0


def test_difference_indicator_mass():
    # unit indicator, quarter-cell shift: two boundary strips flip
    g = zero_extend(sample(const(1.0), 1, 2), 1)
    assert _whole_power(g, (1,), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_difference_shift_symmetry():
    g = zero_extend(sample(random_dyadic(2, 9), 1, 6), 10)
    for p in (1.0, 2.0, 3.0):
        fwd = _whole_power(g, (5,), p) ** (1.0 / p)
        bwd = _whole_power(g, (-5,), p) ** (1.0 / p)
        assert fwd == pytest.approx(bwd, rel=1e-12)


def test_shift_geometry():
    s = LatticeShift((3, -4), 4)
    assert s.length == pytest.approx(5.0 / 16.0)
    assert s.h == (3.0 / 16.0, -4.0 / 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction(4, 2, np.zeros((4, 4, 4, 4)))
    with pytest.raises(ValueError):
        GridFunction(1, 0, np.zeros(1))
    with pytest.raises(ValueError):
        GridFunction(1, 2, np.zeros(5))
    with pytest.raises(ValueError):
        GridFunction(1, 1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        ExtendedGridFunction(1, 1, -1, np.zeros(2))
    with pytest.raises(ValueError):
        ExtendedGridFunction(1, 1, 1, np.zeros(3))


def test_parse_spec_round_trip():
    spec = parse_spec("cusp alpha=0.5 center=0.5")
    assert spec.param("alpha") == 0.5
    assert parse_spec(spec.describe()) == spec
    rnd = parse_spec("random level=3 seed=11")
    assert rnd.param("seed") == 11


def test_parse_spec_tensor_grammar():
    spec = parse_spec("tensor base=cusp alpha=0.5 center=0.5")
    direct = sample(tensor_product(cusp(0.5)), 2, 4)
    assert np.array_equal(sample(spec, 2, 4).samples, direct.samples)


def test_parse_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec("wavelet order=2")
    with pytest.raises(ValueError):
        parse_spec("cusp alpha=0.5 width=1")
    with pytest.raises(ValueError):
        parse_spec("cusp alpha")
    with pytest.raises(KeyError):
        parse_spec("random level=3")  # random specs must carry a seed


@pytest.mark.parametrize("text, key", [("random level=2 seed=1 seed=2", "seed"),
                                       ("cusp alpha=0.3 alpha=0.9", "alpha"),
                                       ("tensor base=cusp alpha=0.5 base=linear", "base")])
def test_a_repeated_spec_key_is_refused(text, key):
    # one value per key, as in the config file: no repeat is silently dropped
    with pytest.raises(ValueError, match=f"key '{key}' repeats in the '{text.split()[0]}'"):
        parse_spec(text)
    with pytest.raises(ValueError, match="key 'alpha' repeats"):
        FunctionSpec("cusp", (("alpha", 0.3), ("alpha", 0.9)))


def test_spec_ranges_are_one_rule_for_constructors_grammar_and_tensor_bases():
    for bad, message in (
            ((lambda: indicator(0.7, 0.2), lambda: parse_spec("indicator lo=0.7 hi=0.2"),
              lambda: FunctionSpec("indicator", (("lo", 0.7), ("hi", 0.2))),
              lambda: parse_spec("tensor base=indicator lo=0.7 hi=0.2")),
             "got lo=0.7 hi=0.2"),
            ((lambda: random_dyadic(-1, 1), lambda: parse_spec("random level=-1 seed=1"),
              lambda: parse_spec("tensor base=random level=-1 seed=1")),
             "random level must be >= 0, got level=-1")):
        for build in bad:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()


def test_random_table_over_the_cell_limit_is_refused_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random table was drawn")

    spec = random_dyadic(20, 1)  # 2^20 cells in 1-d, 2^40 in 2-d
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"level=20 needs a 2-d table of 2\^40 cells"):
        sample(spec, 2, 2)


def test_corpus_shape():
    members = corpus()
    assert len(members) == 10
    assert len(corpus(d=1)) == 8
    assert len(corpus(d=2)) == 2
    names = [m.name for m in members]
    assert len(set(names)) == 10
