"""Property tests of the p = 2 correlation engine against direct enumeration."""
import math

import numpy as np
import pytest

from zexlab import moduli
from zexlab.grid import GridFunction, cusp, sample, zero_extend

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SAMPLES = ("normal", "small integers", "offset 1e4", "sparse", "cusp")


def _samples(kind: str, d: int, level: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (1 << level,) * d
    if kind == "normal":
        return rng.standard_normal(shape)
    if kind == "small integers":  # many exactly tied difference norms
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "offset 1e4":  # the screened values cancel
        return 1e4 + rng.standard_normal(shape)
    if kind == "sparse":
        return rng.standard_normal(shape) * (rng.random(shape) < 0.05)
    # near-tied shifts whose computed norms differ in the last bits
    return sample(cusp(0.5, 0.3), d, level).samples


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(d=st.sampled_from([1, 3]), data=st.data())
def test_corr_engine_equals_direct_enumeration_bit_for_bit(d, data):
    level = data.draw(st.integers(2, 7) if d == 1 else st.integers(2, 3), "level")
    kind = data.draw(st.sampled_from(SAMPLES), "samples")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), "seed")
    interior = data.draw(st.booleans(), "interior")
    n = 1 << level
    radii = data.draw(st.lists(st.floats(0.5, float(n)), min_size=1, max_size=4),
                      "radii")
    f = GridFunction(d, level, _samples(kind, d, level, seed))
    arr = f if interior else zero_extend(f, math.ceil(max(radii)))
    rmax = max(radii)
    corr = moduli._corr_table(arr.samples, rmax, arr.cell_volume, interior, radii)
    direct = moduli._enumerated_table(arr.samples, 2, rmax, arr.cell_volume,
                                      interior, False)
    assert corr.exact and corr.method == "corr"
    for r in radii:
        assert corr.lookup_power(r) == direct.lookup_power(r)
