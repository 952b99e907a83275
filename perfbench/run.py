"""zexlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify --seed 7 --seconds 25 --trace 0

Run it from the root of a zexlab checkout; it imports zexlab from ``src/``.
Every repetition is a fresh ``child.py`` process, one at a time, with numeric
thread pools capped at the number of usable cores.  Repetitions continue while
the next one is expected to end within the run length.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):
wall_s and cpu_s of the command body, setup_s (import and input generation,
at least ``MIN_SETUPS`` samples) and peak_rss_mb.  ``--trace 1`` alternates
traced and untraced repetitions and prints the per-layer metrics of spans.py
plus trace.overhead_frac.  Every repetition checks its outputs (checks.py).

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the lines before it give provenance and every sample.  ``failed/attempted``
is the failed fraction of operations (gates, curves, partitions).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.started = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.update({var: str(nproc()) for var in THREAD_VARS})

    def child(self, mode: str) -> dict:
        self.started += 1
        work = self.work / f"{self.started}-{mode}"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--mode", mode, "--work", str(work)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, text=True,
                                  stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "crashed": f"timed out after {CHILD_TIMEOUT_S} s"}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"mode": mode, "crashed": f"exit code {proc.returncode}"}
        return json.loads(lines[-1])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def repeat(runner: Runner, modes: tuple, seconds: float) -> dict:
    """Rounds of one child per mode until the next round would overrun."""
    samples = {mode: [] for mode in modes}
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            samples[mode].append(runner.child(mode))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return samples


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zexlab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def end_to_end(samples: list, setups: list) -> tuple:
    metrics = {name: [s[name] for s in samples] for name in ("wall_s", "cpu_s",
                                                               "peak_rss_mb")}
    metrics["setup_s"] = setups
    return metrics, {name: statistics.median(v) for name, v in metrics.items()}


def per_layer(traced: list, plain: list) -> tuple:
    """(samples, values, problems): medians of times, counts that must repeat."""
    units = spans.metric_units()
    samples = {name: [s["layers"][name] for s in traced] for name in units
               if name != spans.OVERHEAD_METRIC[0]}
    problems = [f"count {name} differs between traced runs: {values}"
                for name, values in samples.items()
                if units[name] == "count" and len(set(values)) > 1]
    values = {name: statistics.median(v) for name, v in samples.items()}
    overhead = statistics.median(s["wall_s"] for s in traced) / \
        statistics.median(s["wall_s"] for s in plain) - 1.0
    samples[spans.OVERHEAD_METRIC[0]] = [overhead]
    values[spans.OVERHEAD_METRIC[0]] = overhead
    return samples, values, problems


def measure(args, root: Path, work: Path) -> dict:
    runner = Runner(args, root, work)
    modes = ("traced", "plain") if args.trace else ("plain",)
    samples = repeat(runner, modes, args.seconds)
    measured = [s for mode in modes for s in samples[mode]]
    ok = {mode: [s for s in samples[mode] if "crashed" not in s] for mode in modes}
    if not all(ok.values()):
        raise RuntimeError("every repetition crashed: "
                           + "; ".join(s["crashed"] for s in measured))
    problems = [f"{s['mode']} repetition crashed: {s['crashed']}"
                for s in measured if "crashed" in s]
    problems += [p for s in measured for p in s.get("problems", [])]
    if args.trace:
        per_sample, values, count_problems = per_layer(ok["traced"], ok["plain"])
        problems += count_problems
        units = spans.metric_units()
    else:
        setups = [s["setup_s"] for s in measured if "setup_s" in s]
        while len(setups) < MIN_SETUPS:
            extra = runner.child("setup")
            if "crashed" in extra:
                raise RuntimeError(f"set-up repetition crashed: {extra['crashed']}")
            setups.append(extra["setup_s"])
        per_sample, values = end_to_end(ok["plain"], setups)
        units = END_TO_END
    attempted = sum(s.get("attempted", 1) for s in measured)
    failed = sum(s.get("failed", 1) for s in measured)
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "samples": per_sample,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "repetitions": {mode: len(samples[mode]) for mode in modes},
        "versions": ok[modes[-1]][0]["versions"],
        "trace": ok["traced"][0]["trace"] if args.trace else None,
    }


def provenance(args, root: Path, result: dict) -> dict:
    jobs = workloads.jobs(args.workload, args.seed, args.size)
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
        "thread_cap": {var: str(nproc()) for var in THREAD_VARS},
        **result["versions"], "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
        "configs": {job.name: [job.command, job.config_text()] for job in jobs},
        "repetitions": result["repetitions"],
        "computed_counts": list(spans.COMPUTED) if args.trace else [],
        "fail_frac": result["failed"] / result["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: smoke-test sizes, no reference comparison")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (root / "src" / "zexlab" / "__init__.py").is_file():
        print("perfbench: src/zexlab not found; run from the root of a zexlab "
              "checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / str(os.getpid())
    try:
        result = measure(args, root, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()  # left in place while another run uses it

    print(json.dumps({"provenance": provenance(args, root, result)}))
    if result["trace"] is not None:
        print(json.dumps({"trace": result["trace"]}))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, metric in result["metrics"].items():
        values = result["samples"][name]
        print(f"{name} = {metric['value']!r} {metric['unit']} "
              f"(median of {len(values)}: {', '.join(f'{v:.6g}' for v in values)})")
    print(f"fail_frac = {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
