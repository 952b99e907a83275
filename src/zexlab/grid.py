"""Cell-sampled functions on the unit cube and their zero extensions.

A function is stored by its values at the midpoints of the 2^(d*L) cells of
side 2^-L tiling Q = [0,1]^d and is treated as constant on each cell.  Under
that convention every L^p integral of lattice-aligned data is an exact finite
sum and lattice shifts need no interpolation, so the inequality suites in the
other modules are checked in exact cell arithmetic (floating point aside).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

MAX_DIM = 3
# largest array a measurement may allocate: 2^27 float64 cells, 1 GiB
_MAX_CELLS = 1 << 27


def _check_lattice(d: int, level: int):
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {d}")
    if level < 1:
        raise ValueError("resolution exponent must be >= 1")
    if d * level >= _MAX_CELLS.bit_length():  # 2^(d level) > _MAX_CELLS
        raise ValueError(f"a {d}-d lattice at level {level} has 2^{d * level} cells "
                         f"(limit {_MAX_CELLS}); coarsen the lattice")


def _check_random_level(level: int, d: int = 1):
    """The one rule for a random spec's level: >= 0, with a table of
    (2^level)^d cells, d >= 1, within ``_MAX_CELLS``."""
    if level < 0:
        raise ValueError(f"random level must be >= 0, got level={level}")
    if d * level >= _MAX_CELLS.bit_length():  # 2^(d level) > _MAX_CELLS
        raise ValueError(f"random level={level} needs a {d}-d table of 2^{d * level} cells "
                         f"(limit {_MAX_CELLS}); lower the level")


def _check_exponent(value: float, name: str = "p"):
    """The one rule for an integrability exponent: finite and >= 1."""
    if not (math.isfinite(value) and value >= 1):
        raise ValueError(f"{name} must be finite and >= 1, got {value:g}")


def _csv(header: str, rows) -> str:
    """CSV text, each row as wide as the header: booleans as true/false,
    strings as they are, any other cell by ``repr`` (numpy scalars print as
    such).  One stream of cells is cut into lines, with no call per row."""
    cells = (v if isinstance(v, str) else ("true" if v else "false") if isinstance(v, bool)
             else repr(v) for row in rows for v in row)
    width = header.count(",") + 1
    return "\n".join([header, *map(",".join, zip(*[cells] * width))]) + "\n"


def _readonly(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Lattice:
    """A function sampled on the level-``level`` dyadic lattice of [0,1]^d.

    Subclasses add their own fields and ``shape``, ending with ``samples``;
    the samples are stored read-only and must be finite.  Arithmetic pairs
    only functions of one type and one geometry.
    """

    d: int
    level: int

    def __post_init__(self):
        _check_lattice(self.d, self.level)
        a = _readonly(self.samples)
        if a.shape != self.shape:
            raise ValueError(f"expected samples of shape {self.shape}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", a)

    @property
    def n(self) -> int:
        return 1 << self.level

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.d * self.level)

    def _like(self, samples):
        return replace(self, samples=samples)

    def _check_same(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if (other.d, other.level, other.shape) != (self.d, self.level, self.shape):
            raise ValueError("grid geometry mismatch")

    def __add__(self, other):
        self._check_same(other)
        return self._like(self.samples + other.samples)

    def __sub__(self, other):
        self._check_same(other)
        return self._like(self.samples - other.samples)

    def __mul__(self, c):
        return self._like(self.samples * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.samples)


@dataclass(frozen=True)
class GridFunction(_Lattice):
    """Samples at the cell midpoints of the dyadic lattice on [0,1]^d.

    ``level`` is the resolution exponent: the lattice has 2^level cells per
    axis, each of side 2^-level.  Immutable after construction.
    """

    samples: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d


@dataclass(frozen=True)
class ExtendedGridFunction(_Lattice):
    """Zero-extension window: ``margin`` extra cells per side along each axis.

    Samples cover [-margin*2^-L, 1 + margin*2^-L]^d.  For windows produced by
    :func:`zero_extend` every cell whose midpoint lies outside the unit cube
    holds an exact zero.  The window is the only stored copy; ``base`` is its
    central block.
    """

    margin: int
    samples: np.ndarray

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        super().__post_init__()

    @property
    def size(self) -> int:
        return self.n + 2 * self.margin

    @property
    def shape(self) -> tuple:
        return (self.size,) * self.d

    @property
    def base(self) -> GridFunction:
        """The central block: the samples on the unit cube."""
        core = tuple(slice(self.margin, self.margin + self.n) for _ in range(self.d))
        return GridFunction(self.d, self.level, self.samples[core])

    @cached_property
    def support_box(self):  # the samples are read-only: found once per window
        return _support_box(self.samples)


def _support_box(window: np.ndarray):
    """Slices of the smallest box of ``window`` that holds its nonzero
    cells; None when there are none."""
    box = []
    for axis in range(window.ndim):
        hit = np.flatnonzero(np.any(window, axis=tuple(
            a for a in range(window.ndim) if a != axis)))
        if not len(hit):
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


@dataclass(frozen=True)
class LatticeShift:
    """Integer lattice shift k at resolution ``level``; h = k * 2^-level."""

    k: tuple
    level: int

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if not self.k:
            raise ValueError("shift needs at least one component")

    @property
    def d(self) -> int:
        return len(self.k)

    @property
    def h(self) -> tuple:
        return tuple(v * 2.0 ** (-self.level) for v in self.k)

    @property
    def length(self) -> float:
        return math.sqrt(sum(v * v for v in self.k)) * 2.0 ** (-self.level)


def _check_window(d: int, level: int, margin: int, remedy: str = "narrow the margin") -> int:
    """The one rule for a zero-extension window: (2^level + 2 margin)^d cells
    within ``_MAX_CELLS``.  Returns the window's side."""
    size = (1 << level) + 2 * margin
    if size ** d > _MAX_CELLS:
        raise ValueError(f"a margin of {margin} cells makes a window of {size}^{d} = "
                         f"{size ** d} cells (limit {_MAX_CELLS}); {remedy}")
    return size


def zero_extend(f: GridFunction, margin: int | None = None) -> ExtendedGridFunction:
    """Extend by zero onto a margin-padded window.

    The default margin is half a unit per side (2^(L-1) cells), enough for
    every truncated kernel and shift used by the default experiment grids.
    A window over ``_MAX_CELLS`` cells is refused before it is allocated.
    """
    if margin is None:
        margin = 1 << (f.level - 1)
    margin = int(margin)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    size = _check_window(f.d, f.level, margin)
    window = np.zeros((size,) * f.d)
    core = tuple(slice(margin, margin + f.n) for _ in range(f.d))
    window[core] = f.samples
    return ExtendedGridFunction(f.d, f.level, margin, window)


def _shift_cells(t: float, n: int) -> int:
    """Lattice cells a shift of length t spans at n cells per unit."""
    return int(math.floor(t * n + 1e-9))


def _abs_pow(a: np.ndarray, p: float, out: np.ndarray | None = None,
             zeros: bool = False) -> np.ndarray:
    """|a|^p in ``out`` (``a`` itself for a temporary) or else in one fresh
    array: abs once, then square or raise it in place.

    ``zeros`` marks an array that holds a zero-extension's cells, so often
    mostly exact zeros: the power then skips them.  glibc's pow() takes 3-4x
    longer on an exact zero than on a nonzero, and pow(+0, p) = +0 for
    p > 0, so the bits are the same.  The mask costs about 20% on an array
    with few zeros, such as the differences inside the cube."""
    out = np.abs(a, out=out)
    if p == 2:
        np.multiply(out, out, out=out)
    elif p != 1:
        np.power(out, p, out=out, where=(out != 0) if zeros else True)
    return out


def lp_norm(f, p: float) -> float:
    """Midpoint-sum L^p norm; exact for functions constant on cells.  The
    samples are read as a zero-extension's (``_abs_pow``'s ``zeros``):
    windows and differences of windows are what most calls measure."""
    _check_exponent(p)
    return float((f.cell_volume * _abs_pow(f.samples, p, zeros=True).sum()) ** (1.0 / p))


# ---------------------------------------------------------------------------
# analytic test-function catalog


_TAG_KEYS = {
    "const": {"value"},
    "linear": set(),
    "indicator": {"lo", "hi"},
    "cusp": {"alpha", "center"},
    "boundary-power": {"alpha"},
    "random": {"level", "seed"},
    "tensor": {"base", "alpha", "center", "lo", "hi", "value", "level", "seed"},
}
_INT_KEYS = {"level", "seed"}


@dataclass(frozen=True)
class FunctionSpec:
    """Deterministic recipe for an analytic test function on the cube.

    Catalog: ``const value=c``; ``linear`` (sum of coordinates);
    ``indicator lo=a hi=b`` (box [a,b]^d); ``cusp alpha=a center=c``
    (product of |x_i - c|^a); ``boundary-power alpha=a`` (x_1^a);
    ``random level=k seed=s`` (seeded piecewise constant on the level-k
    dyadic cells); ``tensor base=<tag> ...`` (product of the base's
    one-dimensional profile over the axes).  Construction checks each
    tag's ranges, a tensor's base included, so every spec that exists can
    be sampled.
    """

    tag: str
    params: tuple = ()

    def __post_init__(self):
        if self.tag not in _TAG_KEYS:
            raise ValueError(f"unknown function tag {self.tag!r}")
        items = tuple(sorted((str(k), v) for k, v in self.params))
        for i, (key, _) in enumerate(items):
            if key not in _TAG_KEYS[self.tag]:
                raise ValueError(f"key {key!r} not valid for tag {self.tag!r}")
            if i and key == items[i - 1][0]:  # sorted: a repeat follows its first
                raise ValueError(f"key {key!r} repeats in the {self.tag!r} spec")
        object.__setattr__(self, "params", items)
        if self.tag == "indicator":
            lo, hi = self.param("lo", 0.0), self.param("hi", 0.5)
            if not 0.0 <= lo < hi <= 1.0:
                raise ValueError(f"indicator box must satisfy 0 <= lo < hi <= 1, "
                                 f"got lo={lo:g} hi={hi:g}")
        elif self.tag == "cusp":
            if not 0.0 < self.param("alpha") < 1.0:
                raise ValueError(f"cusp exponent must lie in (0,1), "
                                 f"got alpha={self.param('alpha'):g}")
        elif self.tag == "random":
            self.param("seed")  # random specs must carry an explicit seed
            _check_random_level(self.param("level"))
        elif self.tag == "tensor":
            _base_spec(self)

    def param(self, name, default=None):
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise KeyError(f"spec {self.tag!r} is missing parameter {name!r}")
        return default

    def describe(self) -> str:
        parts = [self.tag]
        for key, value in self.params:
            if isinstance(value, str) or isinstance(value, int):
                parts.append(f"{key}={value}")
            else:
                parts.append(f"{key}={value:g}")
        return " ".join(parts)


def _base_spec(tensor_spec: FunctionSpec) -> FunctionSpec:
    base = tensor_spec.param("base")
    if base == "tensor":
        raise ValueError("tensor specs cannot nest")
    kept = tuple((k, v) for k, v in tensor_spec.params
                 if k != "base" and k in _TAG_KEYS[base])
    return FunctionSpec(base, kept)


def const(value: float) -> FunctionSpec:
    return FunctionSpec("const", (("value", float(value)),))


def linear() -> FunctionSpec:
    return FunctionSpec("linear")


def indicator(lo: float = 0.0, hi: float = 0.5) -> FunctionSpec:
    return FunctionSpec("indicator", (("lo", float(lo)), ("hi", float(hi))))


def cusp(alpha: float, center: float = 0.5) -> FunctionSpec:
    return FunctionSpec("cusp", (("alpha", float(alpha)), ("center", float(center))))


def boundary_power(alpha: float) -> FunctionSpec:
    return FunctionSpec("boundary-power", (("alpha", float(alpha)),))


def random_dyadic(level: int, seed: int) -> FunctionSpec:
    return FunctionSpec("random", (("level", int(level)), ("seed", int(seed))))


def tensor_product(base: FunctionSpec) -> FunctionSpec:
    return FunctionSpec("tensor", (("base", base.tag),) + base.params)


def parse_spec(text: str) -> FunctionSpec:
    """Parse the plain-text grammar ``tag key=value key=value ...``."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty function spec")
    tag = tokens[0]
    if tag not in _TAG_KEYS:
        raise ValueError(f"unknown function tag {tag!r}")
    params = []
    for token in tokens[1:]:
        if "=" not in token:
            raise ValueError(f"malformed parameter {token!r}; expected key=value")
        key, raw = token.split("=", 1)
        if key == "base":
            value = raw
        elif key in _INT_KEYS:
            value = int(raw)
        else:
            value = float(raw)
        params.append((key, value))
    return FunctionSpec(tag, tuple(params))


def sample(spec: FunctionSpec, d: int, level: int) -> GridFunction:
    """Evaluate a spec at the cell midpoints of the level-`level` lattice.

    Every tag is separable: it is evaluated on the n midpoints of one axis
    and the axes are combined by outer operations, left to right, as a
    reduction over each point's coordinates takes them, so every sample has
    the bits of the tag's formula evaluated at its point."""
    _check_lattice(d, level)
    n = 1 << level
    return GridFunction(d, level, _separable(spec, d, (np.arange(n) + 0.5) / n))


def _separable(spec: FunctionSpec, d: int, mids: np.ndarray) -> np.ndarray:
    """The spec on the d-fold product of the one-axis points ``mids``: an
    indicator as booleans and x_1^alpha as a broadcast view, which
    ``GridFunction`` stores as contiguous floats."""
    shape = (len(mids),) * d
    if spec.tag == "const":
        return np.full(shape, float(spec.param("value")))
    if spec.tag == "boundary-power":  # x_1^alpha: constant along every other axis
        profile = np.clip(mids, 0.0, None) ** float(spec.param("alpha"))
        return np.broadcast_to(profile.reshape((-1,) + (1,) * (d - 1)), shape)
    if spec.tag == "random":
        level = int(spec.param("level"))
        _check_random_level(level, d)  # before the draw
        m = 1 << level
        table = np.random.default_rng(int(spec.param("seed"))).standard_normal((m,) * d)
        return table[np.ix_(*[np.clip((mids * m).astype(np.int64), 0, m - 1)] * d)]
    if spec.tag == "linear":
        combine, profile = np.add, mids
    elif spec.tag == "indicator":  # the box [lo, hi]^d
        lo, hi = float(spec.param("lo", 0.0)), float(spec.param("hi", 0.5))
        combine, profile = np.logical_and, (mids >= lo) & (mids <= hi)
    elif spec.tag == "cusp":
        combine = np.multiply
        profile = np.abs(mids - float(spec.param("center", 0.5))) ** float(spec.param("alpha"))
    else:  # tensor: the base's one-dimensional samples on every axis
        combine, profile = np.multiply, _separable(_base_spec(spec), 1, mids)
    out = profile
    for _ in range(d - 1):
        out = combine.outer(out, profile)
    return out


@dataclass(frozen=True)
class CorpusMember:
    name: str
    spec: FunctionSpec
    d: int


_CORPUS = (
    CorpusMember("const1_d1", const(1.0), 1),
    CorpusMember("linear_d1", linear(), 1),
    CorpusMember("halfbox_d1", indicator(0.0, 0.5), 1),
    CorpusMember("cusp03_d1", cusp(0.3), 1),
    CorpusMember("cusp05_d1", cusp(0.5), 1),
    CorpusMember("cusp07_d1", cusp(0.7), 1),
    CorpusMember("edge08_d1", boundary_power(0.8), 1),
    CorpusMember("rand3_d1", random_dyadic(3, 11), 1),
    CorpusMember("linear_d2", linear(), 2),
    CorpusMember("rand2_d2", random_dyadic(2, 7), 2),
)


def corpus(d: int | None = None) -> tuple:
    """The fixed ten-member test corpus (eight 1-d members, two 2-d)."""
    if d is None:
        return _CORPUS
    return tuple(m for m in _CORPUS if m.d == d)
