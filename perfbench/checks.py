"""Output checks: recorded references for the default seed, invariants for any seed.

Every check returns a list of operations, each ``(name, problems)``; an
operation passes when its problem list is empty.  An operation is a verify
gate, a modulus curve or an adaptive partition.

Reference rules, recorded at ``workloads.DEFAULT_SEED``:

* verify: the sha256 of every artifact.  Artifacts that do not depend on the
  seed are compared on every seed.
* curves: rows flagged exact match the reference to ``REL_TOL`` relative;
  rows flagged ``lower_bound`` may only rise (and may become exact).
* partitions: the number of cubes per threshold.

Invariants on every seed: curves are nondecreasing in t on the expected scale
grid, an exact interior value never exceeds the exact whole value of the same
function, partitions tile the cube and respect their threshold, and every
command exits 0.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import DEFAULT_EPSILON_COUNT, DEFAULT_SEED

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
GATE_LINE = re.compile(r"^\[(PASS|FAIL)\] (.+?) \(")


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def use_reference(job, seed: int) -> bool:
    return not job.seeded or seed == DEFAULT_SEED


# ---------------------------------------------------------------------------
# verify


def verify_artifacts(outdir: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(outdir.iterdir())
            if p.is_file() and p.name != "run_meta.txt"}


def check_verify(job, outdir: Path, stdout: str, n_gates: int, seed: int,
                 reference, full: bool) -> list:
    gates = [GATE_LINE.match(line) for line in stdout.splitlines()]
    gates = [(m.group(2), m.group(1)) for m in gates if m]
    ops = [(name, [] if verdict == "PASS" else ["gate reported FAIL"])
           for name, verdict in gates]
    missing = n_gates - len(ops)
    ops += [(f"gate #{len(ops) + i + 1}", ["no gate line printed"])
            for i in range(max(missing, 0))]
    if not (outdir / "run_meta.txt").is_file():
        ops.append(("run_meta.txt", ["run_meta.txt not written"]))
    if reference is None:
        return ops
    produced = verify_artifacts(outdir)
    index = {name: i for i, (name, _) in enumerate(ops)}
    for artifact, ref in reference["artifacts"].items():
        if ref["seeded"] and seed != DEFAULT_SEED:
            continue
        gate = ref["gate"]
        if gate not in index:
            continue  # gate not run at this size; its absence is reported above
        problems = ops[index[gate]][1]
        if artifact not in produced:
            if full:
                problems.append(f"{artifact} not written")
        elif produced[artifact] != ref["sha256"]:
            problems.append(f"{artifact} sha256 differs from the reference")
    return ops


# ---------------------------------------------------------------------------
# modulus curves


def expected_t_grid(config: dict) -> list:
    level = int(config["L"])
    if "window" in config:
        lo, hi = (float(v) for v in config["window"].split(":"))
        return [2.0 ** (-j) for j in range(level, -1, -1)
                if lo * (1 - 1e-12) <= 2.0 ** (-j) <= hi * (1 + 1e-12)]
    return [2.0 ** (-j) for j in range(level - 2, 1, -1)]


def curve_file(job, p: float) -> str:
    return f"modulus_{job.config['kind']}_p{p:g}.csv"


def read_curve(path: Path) -> list:
    """Rows (t, value, kind, p, d, L, flags) of a modulus CSV."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "t,value,kind,p,d,L,function,flags":
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        t, value, kind, p, d, level, _function, flags = line.split(",")
        rows.append((float(t), float(value), kind, float(p), int(d), int(level),
                     flags))
    return rows


def _curve_problems(job, p: float, rows: list) -> list:
    problems = []
    grid = expected_t_grid(job.config)
    if [r[0] for r in rows] != grid:
        problems.append(f"t column {[r[0] for r in rows]} != expected {grid}")
    for t, value, kind, row_p, d, level, _flags in rows:
        if (kind, row_p, d, level) != (job.config["kind"], p, int(job.config["d"]),
                                       int(job.config["L"])):
            problems.append(f"t={t!r}: row labels {kind},{row_p},{d},{level} "
                            f"do not match the config")
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"t={t!r}: value {value!r} not finite and nonnegative")
    values = [r[1] for r in rows]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("values decrease in t")
    return problems


def _reference_problems(rows: list, ref_rows: list) -> list:
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for (t, value, *_, flags), (ref_t, ref_value, ref_flags) in zip(rows, ref_rows):
        if t != ref_t:
            problems.append(f"t={t!r} where the reference has t={ref_t!r}")
        elif "lower_bound" in ref_flags.split(";"):
            if value < ref_value - REL_TOL * abs(ref_value):
                problems.append(f"t={t!r}: lower bound fell to {value!r} "
                                f"from {ref_value!r}")
            if flags not in (ref_flags, ""):
                problems.append(f"t={t!r}: flags {flags!r} vs reference {ref_flags!r}")
        else:
            if flags != ref_flags:
                problems.append(f"t={t!r}: flags {flags!r} vs reference {ref_flags!r}")
            if abs(value - ref_value) > REL_TOL * abs(ref_value):
                problems.append(f"t={t!r}: exact value {value!r} vs reference "
                                f"{ref_value!r}")
    return problems


def _exact(flags: str) -> bool:
    return not ({"lower_bound", "below_resolution"} & set(flags.split(";")))


def check_modulus(jobs, outdirs: dict, seed: int, reference) -> list:
    ops, curves = [], {}
    for job in jobs:
        for p in job.p_values:
            name = f"{job.name}/{curve_file(job, p)}"
            path = outdirs[job.name] / curve_file(job, p)
            try:
                rows = read_curve(path)
            except (OSError, ValueError) as exc:
                ops.append((name, [f"unreadable curve: {exc}"]))
                continue
            problems = _curve_problems(job, p, rows)
            if reference is not None and use_reference(job, seed):
                ref_rows = reference["jobs"][job.name][curve_file(job, p)]
                problems += _reference_problems(rows, ref_rows)
            ops.append((name, problems))
            key = (job.config["function"], job.config["d"], job.config["L"], p)
            curves.setdefault(key, {})[job.config["kind"]] = (rows, problems)
    for pair in curves.values():
        if set(pair) != {"interior", "whole"}:
            continue
        whole = {r[0]: r for r in pair["whole"][0]}
        for t, value, *_, flags in pair["interior"][0]:
            other = whole.get(t)
            if other and _exact(flags) and _exact(other[6]) and \
                    value > other[1] * (1 + REL_TOL):
                pair["interior"][1].append(
                    f"t={t!r}: exact interior {value!r} above exact whole {other[1]!r}")
    return ops


# ---------------------------------------------------------------------------
# adaptive partitions


def read_counts(path: Path) -> list:
    """(epsilon, N_total, depth) rows of count_scaling.csv, ascending epsilon."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return sorted((float(r[0]), int(r[1]), int(r[2])) for r in rows)


def _partition_problems(path: Path, d: int, level: int, eps: float,
                        n_total: int, depth: int) -> tuple:
    """(problems, node count) of one partition dump."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "level,origin_indices,S,status":
        return ["unexpected dump header"], 0
    problems = []
    volume, goods, deepest = 0, 0, -1
    for line in lines[1:]:
        cube_level, _origin, s_value, status = line.split(",")
        cube_level, s_value = int(cube_level), float(s_value)
        if status == "good":
            goods += 1
            deepest = max(deepest, cube_level)
            volume += 1 << (d * (level - cube_level))
            if s_value > eps:
                problems.append(f"good cube at level {cube_level} has S={s_value!r}")
        elif s_value <= eps:
            problems.append(f"bad cube at level {cube_level} has S={s_value!r}")
    if volume != 1 << (d * level):
        problems.append("good cubes do not tile the unit cube")
    if (goods, deepest) != (n_total, depth):
        problems.append(f"{goods} good cubes to depth {deepest}; count_scaling.csv "
                        f"says {n_total} to depth {depth}")
    return problems[:5], len(lines) - 1


def check_adaptive(job, outdir: Path, seed: int, reference) -> list:
    d, level = int(job.config["d"]), int(job.config["L"])
    try:
        counts = read_counts(outdir / "count_scaling.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [(f"{job.name}/partition #{i + 1}", [f"no count_scaling.csv: {exc}"])
                for i in range(DEFAULT_EPSILON_COUNT)]
    ref = None
    if reference is not None and use_reference(job, seed):
        ref = reference["jobs"][job.name]["partitions"]
    ops = []
    for i, (eps, n_total, depth) in enumerate(counts):
        name = f"{job.name}/partition_eps{eps:g}.txt"
        try:
            problems, nodes = _partition_problems(outdir / f"partition_eps{eps:g}.txt",
                                                  d, level, eps, n_total, depth)
        except (OSError, ValueError) as exc:
            ops.append((name, [f"unreadable partition: {exc}"]))
            continue
        if i and n_total > counts[i - 1][1]:
            problems.append("cube count grew with the threshold")
        if ref is not None:
            want = ref[i] if i < len(ref) else None
            got = {"epsilon": eps, "n_total": n_total, "nodes": nodes}
            if want is None or abs(eps - want["epsilon"]) > REL_TOL * want["epsilon"] \
                    or (n_total, nodes) != (want["n_total"], want["nodes"]):
                problems.append(f"partition {got} differs from the reference {want}")
        ops.append((name, problems))
    ops += [(f"{job.name}/partition #{i + 1}", ["partition not written"])
            for i in range(len(ops), DEFAULT_EPSILON_COUNT)]
    return ops
