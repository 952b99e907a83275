"""One measured process of a workload: set up, run the body, check the outputs.

run.py starts this script in a fresh interpreter for every repetition:

    python3 perfbench/child.py --workload W --seed S --size full \\
        --mode plain|traced|setup --work DIR

from the root of a zexlab checkout.  The last line of stdout is one JSON
object with the measurements and the checked operations.

* set-up: import ``zexlab.cli`` (numpy and scipy with it) from ``src/`` and
  write the generated config files;
* body: every job of the workload through ``zexlab.cli.main``, in-process;
  ``--mode traced`` wraps the layers first (see spans.py);
* checks: run after the body and its resource readings, outside the timers.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path.cwd()
MAX_PROBLEMS = 10


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_zexlab():
    src = ROOT / "src"
    if not (src / "zexlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src}/zexlab not found; run from the root "
                         f"of a zexlab checkout")
    sys.path.insert(0, str(src))
    import zexlab.cli

    if Path(zexlab.__file__).resolve().parent != (src / "zexlab").resolve():
        raise SystemExit(f"perfbench: imported {zexlab.__file__}, not the checkout's")
    return zexlab.cli


def run_job(cli, job, work: Path) -> tuple:
    """(exit code or exception text, captured stdout) of one command."""
    argv = [job.command, "--config", str(work / f"{job.name}.cfg"),
            "--out", str(work / job.name)]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
    return code, captured.getvalue()


def check_outputs(workload, jobs, work, seed, size, exits, stdouts, n_gates) -> list:
    import checks

    reference = checks.load_reference(workload)
    if workload == "verify":
        job = jobs[0]
        ops = checks.check_verify(job, work / job.name, stdouts[job.name], n_gates,
                                  seed, reference, size == "full")
    elif workload == "adaptive-rough":
        ops = [op for job in jobs for op in checks.check_adaptive(
            job, work / job.name, seed, reference if size == "full" else None)]
    else:
        ops = checks.check_modulus(jobs, {job.name: work / job.name for job in jobs},
                                   seed, reference if size == "full" else None)
    for job in jobs:
        if exits[job.name] != 0:
            for name, problems in ops:
                if workload == "verify" or name.startswith(job.name + "/"):
                    problems.append(f"{job.command} exited with {exits[job.name]!r}")
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), default="plain")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    cli = import_zexlab()
    jobs = workloads.jobs(args.workload, args.seed, args.size)
    for job in jobs:
        (work / f"{job.name}.cfg").write_text(job.config_text())
    result = {"mode": args.mode, "setup_s": time.perf_counter() - start}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy
    import scipy
    import spans

    acceptance = sys.modules["zexlab.acceptance"]
    if args.workload == "verify" and jobs[0].gates:
        acceptance.GATES = tuple(g for g in acceptance.GATES
                                 if g.__name__.removeprefix("gate_") in jobs[0].gates)
    n_gates = len(acceptance.GATES)
    recorder = None
    if args.mode == "traced":
        recorder = spans.Recorder()
        spans.install(recorder)

    exits, stdouts = {}, {}
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for job in jobs:
        exits[job.name], stdouts[job.name] = run_job(cli, job, work)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        result["trace"] = recorder.summary()

    ops = check_outputs(args.workload, jobs, work, args.seed, args.size, exits,
                        stdouts, n_gates)
    failed = [(name, problems) for name, problems in ops if problems]
    result.update(
        attempted=len(ops), failed=len(failed),
        problems=[f"{name}: {'; '.join(problems)}" for name, problems in failed][:MAX_PROBLEMS],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
