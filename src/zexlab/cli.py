"""Batch experiment runner.

Every checker is a subcommand; configuration comes from a flat key=value
text file (one key per line, ``#`` comments) optionally overridden by flags.
Outputs are plot-ready CSV plus a human-readable summary; reruns with the
same configuration produce byte-identical CSV bodies, and the only timestamp
lives in a separate metadata file.

Function expressions use the grammar ``tag key=value key=value ...``:

    const value=C            constant C on the cube
    linear                   sum of the coordinates
    indicator lo=A hi=B      indicator of the box [A,B]^d
    cusp alpha=A center=C    product over axes of |x_i - C|^A,  0 < A < 1
    boundary-power alpha=A   (x_1)^A
    random level=K seed=S    seeded piecewise constant on the level-K cells
    tensor base=TAG ...      product of the base tag's 1-d profile per axis

Exit codes: 0 success, 1 a verification gate failed, 2 configuration error,
3 no result: the input is valid but the measurement it asks for is undefined
(a vanishing modulus has no rate), 4 a crash: any other exception, its
traceback on stderr (``verify`` runs every gate first).
"""
from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

from . import acceptance, adaptive, besov, dyadic, kernels, moduli
from .grid import (_check_exponent, _check_lattice, _csv, _shift_cells, parse_spec, sample,
                   zero_extend)

_KNOWN_KEYS = {
    "function", "d", "L", "p", "q", "kernel", "window", "epsilons", "kind",
    "out", "seed", "tail", "cases", "levels", "epsilon",
}
_INT_KEYS = {"d", "L", "seed", "cases"}
_FLOAT_KEYS = {"q", "tail", "epsilon"}
_LIST_KEYS = {"p": float, "epsilons": float, "levels": int}


class ConfigError(Exception):
    pass


def parse_config_text(text: str) -> dict:
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in config:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        config[key] = value
    return config


def _coerce(config: dict) -> dict:
    out = {}
    for key, value in config.items():
        try:
            if key in _INT_KEYS:
                out[key] = int(value)
            elif key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _LIST_KEYS:
                out[key] = tuple(_LIST_KEYS[key](v) for v in value.split(","))
                if key == "p":  # every command reads p by the one exponent rule
                    for v in out[key]:
                        _check_exponent(v)
                if key in ("p", "levels") and len(set(out[key])) < len(out[key]):
                    raise ValueError(f"a {'level' if key == 'levels' else 'p'} repeats")
            elif key == "window":
                lo, hi = value.split(":")
                out[key] = (float(lo), float(hi))
            else:
                out[key] = value
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
    return out


def load_config(args) -> dict:
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        config = parse_config_text(path.read_text())
    config = _coerce(config)
    if args.out:
        config["out"] = args.out
    if args.seed is not None:
        config["seed"] = args.seed
    if args.window:
        config.update(_coerce({"window": args.window}))
    return config


def _require(config, *keys):
    missing = [k for k in keys if k not in config]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def _outdir(config) -> Path:
    out = Path(config.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(out: Path, name: str, body: str):
    (out / name).write_text(body)


_PROVENANCE = ("method", "exact", "shifts", "rechecked", "upper", "threads", "elapsed")


def _write_meta(out: Path, config: dict, curves=()):
    """run_meta.txt: the time, the config, then each (name, curve)'s table
    provenance as ``name.key=value`` lines."""
    lines = [f"generated_unix={time.time()!r}"]
    for key in sorted(config):
        lines.append(f"{key}={config[key]}")
    for name, curve in curves:
        for key in _PROVENANCE:
            if key in curve.meta:
                value = curve.meta[key]
                if isinstance(value, tuple):
                    value = ",".join(map(repr, value))
                lines.append(f"{name}.{key}={value}")
    _write(out, "run_meta.txt", "\n".join(lines) + "\n")


def _spec(config):
    """The config's function spec; a missing parameter is a config error."""
    try:
        return parse_spec(config["function"])  # random specs carry their own seed
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None


def _function(config):
    _require(config, "function", "d", "L")
    spec = _spec(config)
    return sample(spec, config["d"], config["L"]), spec


def _single_p(config) -> float:
    p = config.get("p", (2.0,))
    if len(p) != 1:
        raise ConfigError(f"this command takes one p, got {', '.join(f'{v:g}' for v in p)}")
    return p[0]


def _t_grid(config, level):
    if "window" not in config:
        return moduli.default_t_grid(level)
    grid = moduli._dyadic_grid(level, *config["window"])
    if not grid:
        raise ConfigError("window contains no dyadic scales")
    return grid


def cmd_modulus(config) -> int:
    kind = config.get("kind", "interior")
    if kind not in ("interior", "whole", "hybrid"):
        raise ConfigError(f"unknown modulus kind {kind!r}")
    f, spec = _function(config)
    grid = _t_grid(config, f.level)
    out = _outdir(config)
    # a whole curve reads a window: one, and its support box, serves every p
    arr = zero_extend(f, max(1, _shift_cells(max(grid), f.n))) if kind == "whole" else f
    curves = []
    for p in config.get("p", (2.0,)):
        curve = getattr(moduli, f"{kind}_curve")(arr, p, grid, name=spec.describe())
        name = f"modulus_{kind}_p{p:g}"
        _write(out, f"{name}.csv", curve.to_csv())
        curves.append((name, curve))
    _write_meta(out, config, curves)
    return 0


def cmd_hybrid(config) -> int:
    config = dict(config)
    config["kind"] = "hybrid"
    return cmd_modulus(config)


def cmd_dyadic(config) -> int:
    f, spec = _function(config)
    if f.level < 2:  # the levels N = 0 .. L-2 resolve their modulus scale
        raise ConfigError(f"dyadic needs L >= 2 for a level N <= L-2, got L={f.level}")
    out = _outdir(config)
    rows, curves = [], []
    ok = True
    for p in config.get("p", (2.0,)):
        for n_level in range(0, f.level - 1):
            curve = moduli.interior_curve(f, p, [2.0 ** (-n_level)], name=spec.describe())
            err, bound, constant = dyadic.average_error_report(f, n_level, p, curve)
            good = err <= bound + 1e-12
            ok = ok and good
            rows.append((p, n_level, err, bound, constant, good))
            curves.append((f"average_error_p{p:g}_N{n_level}", curve))
    _write(out, "average_error.csv", _csv("p,N,error,bound,constant,pass", rows))
    _write_meta(out, config, curves)
    return 0 if ok else 1


def cmd_shift_bound(config) -> int:
    out = _outdir(config)
    rows = dyadic.shift_bound_suite(
        n_functions=int(config.get("cases", 100)),
        seed=int(config.get("seed", acceptance.DEFAULT_SEED)))
    _write(out, "shift_bound_suite.csv", dyadic.suite_to_csv(rows))
    _write_meta(out, config)
    return 0 if all(r["pass"] for r in rows) else 1


def cmd_adaptive(config) -> int:
    p = _single_p(config)
    q = config.get("q", 2.0)
    # the exponent rules before f is sampled or the output directory made
    _require(config, "function", "d", "L")
    _check_lattice(config["d"], config["L"])
    adaptive._scaling_exponent(config["d"], p, q)
    f, spec = _function(config)
    out = _outdir(config)
    if "epsilon" in config:
        eps_list = (config["epsilon"],)
    else:
        eps_list = config.get("epsilons") or adaptive.default_epsilons(f, p)
    # each threshold writes partition_eps{eps:g}.txt, so no two may share one
    for eps in eps_list:
        adaptive._check_epsilon(eps)
    named = {}
    for eps in sorted(set(map(float, eps_list))):
        if (other := named.setdefault(f"{eps:g}", eps)) != eps:
            raise ConfigError(f"epsilons {other!r} and {eps!r} would both write "
                              f"partition_eps{eps:g}.txt")
    report = adaptive.count_bound_report(f, p, q, eps_list)
    for part in report.partitions:
        problems = adaptive.verify_partition(part, f)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        _write(out, f"partition_eps{part.epsilon:g}.txt", part.to_text())
    _write(out, "count_scaling.csv", report.to_csv())
    _write_meta(out, config)
    return 0


def cmd_kernel_error(config) -> int:
    _require(config, "function", "d", "L")
    family = config.get("kernel", "gauss")
    tail = config.get("tail", kernels.default_tail(family, config["d"]))
    kernels.KernelSpec(family, 1.0, tail)  # the tail rule
    f, spec = _function(config)
    grid = _t_grid(config, f.level)
    out = _outdir(config)
    for p in config.get("p", (2.0,)):
        curve = kernels.error_curve(family, f, p, grid, truncation_tail=tail,
                                    name=spec.describe())
        _write(out, f"kernel_error_{family}_p{p:g}.csv", curve.to_csv())
    _write_meta(out, {**config, "tail": tail})  # a default tail is recorded too
    return 0


def cmd_besov_fit(config) -> int:
    f, spec = _function(config)
    grid = _t_grid(config, f.level)
    window = config.get("window", besov.default_fit_window(f.level))
    out = _outdir(config)
    lines, curves = [], []
    for p in config.get("p", (2.0,)):
        zc = moduli.interior_curve(f, p, grid, name=spec.describe())
        fit = besov.fit_exponent(zc, window)
        lines.append(f"p={p:g} kind=interior slope={fit.slope!r} "
                     f"intercept={fit.intercept!r} residual_rms={fit.residual_rms!r} "
                     f"n={fit.n_points}")
        curves.append((f"modulus_interior_p{p:g}", zc))
    _write(out, "besov_fit.txt", "\n".join(lines) + "\n")
    _write_meta(out, config, curves)
    print("\n".join(lines))
    return 0


def cmd_exponent_drop(config) -> int:
    f, spec = _function(config)
    out = _outdir(config)
    lines = []
    ok = True
    for p in config.get("p", (2.0,)):
        rep = besov.exponent_drop_check(f, p, window=config.get("window"),
                                        name=spec.describe())
        ok = ok and rep.passed
        lines.append(f"p={p:g} alpha={rep.alpha.slope!r} beta={rep.beta.slope!r} "
                     f"beta_predicted={rep.beta_predicted!r} "
                     f"pass={'true' if rep.passed else 'false'}")
    _write(out, "exponent_drop.txt", "\n".join(lines) + "\n")
    _write_meta(out, config)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_embedding(config) -> int:
    _require(config, "function", "d")
    spec = _spec(config)
    p = _single_p(config)
    q = config.get("q", 2.0)
    out = _outdir(config)
    rep = besov.besov_embedding_check(spec, config["d"], p, q, config.get("levels", (10, 11, 12)))
    lines = [f"alpha={rep.alpha!r}", f"beta={rep.beta!r}", f"r={rep.r!r}",
             f"stabilization={rep.stabilization!r}"]
    for L, semi, dom, ratio in zip(rep.levels, rep.seminorms,
                                   rep.domain_seminorms, rep.interp_ratios):
        lines.append(f"L={L} extension_seminorm={semi!r} "
                     f"interior_seminorm={dom!r} interp_ratio={ratio!r}")
    _write(out, "embedding.txt", "\n".join(lines) + "\n")
    _write_meta(out, config)
    print("\n".join(lines))
    return 0


def cmd_verify(config) -> int:
    out = _outdir(config)
    seed = int(config.get("seed", acceptance.DEFAULT_SEED))
    _write_meta(out, config)  # first, so partial artifacts carry their config
    all_ok, crashed = True, False
    for gate in acceptance.GATES:
        result = acceptance.run_gate(gate, seed)
        print(result.line(), flush=True)
        all_ok = all_ok and result.passed and result.in_budget
        crashed = crashed or result.crashed
        for name, body in result.artifacts.items():
            _write(out, name, body)
    return 4 if crashed else 0 if all_ok else 1


_COMMANDS = {
    "modulus": cmd_modulus,
    "hybrid": cmd_hybrid,
    "dyadic": cmd_dyadic,
    "shift-bound": cmd_shift_bound,
    "adaptive": cmd_adaptive,
    "kernel-error": cmd_kernel_error,
    "besov-fit": cmd_besov_fit,
    "exponent-drop": cmd_exponent_drop,
    "embedding": cmd_embedding,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zexlab",
        description="Batch runner for the zero-extension smoothness laboratory.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--window", help="fit window as tmin:tmax")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except besov.VanishingModulusError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
