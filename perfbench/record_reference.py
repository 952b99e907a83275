"""Record the reference outputs that checks.py compares against.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a zexlab checkout.  Runs each workload's full-size jobs
once at ``workloads.DEFAULT_SEED`` and writes ``perfbench/reference/<workload>.json``.
Re-record only when an output is meant to change, and say why in the commit.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import checks
import child
import run
import workloads

OTHER_SEED = workloads.DEFAULT_SEED + 1  # tells seeded verify artifacts apart


def verify_reference(acceptance) -> dict:
    first, other = acceptance.run_all(workloads.DEFAULT_SEED), acceptance.run_all(OTHER_SEED)
    bodies = {}
    for result, result_other in zip(first, other):
        if not (result.passed and result.in_budget):
            raise SystemExit(f"gate failed, nothing recorded: {result.line()}")
        for name, body in result.artifacts.items():
            bodies[name] = {
                "gate": result.name,
                "sha256": hashlib.sha256(body.encode()).hexdigest(),
                "seeded": body != result_other.artifacts.get(name),
            }
    return {"artifacts": bodies}


def job_reference(cli, workload: str, jobs: list, work: Path) -> dict:
    out = {}
    for job in jobs:
        (work / f"{job.name}.cfg").write_text(job.config_text())
        code, _ = child.run_job(cli, job, work)
        if code != 0:
            raise SystemExit(f"{workload}/{job.name} exited with {code!r}")
        outdir = work / job.name
        if job.command == "modulus":
            out[job.name] = {
                checks.curve_file(job, p): [[t, value, flags] for t, value, *_, flags
                                            in checks.read_curve(outdir / checks.curve_file(job, p))]
                for p in job.p_values}
        else:
            out[job.name] = {"partitions": [
                {"epsilon": eps, "n_total": n_total,
                 "nodes": len((outdir / f"partition_eps{eps:g}.txt").read_text()
                              .splitlines()) - 1}
                for eps, n_total, _depth in checks.read_counts(outdir / "count_scaling.csv")]}
    return {"jobs": out}


def main(names) -> int:
    cli = child.import_zexlab()
    import numpy
    import scipy

    work = child.ROOT / ".perfbench_work" / "record"
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
        work.mkdir(parents=True, exist_ok=True)
        try:
            if workload == "verify":
                body = verify_reference(sys.modules["zexlab.acceptance"])
            else:
                body = job_reference(cli, workload, jobs, work)
        finally:
            shutil.rmtree(work.parent, ignore_errors=True)
        body = {"workload": workload, "seed": workloads.DEFAULT_SEED,
                "recorded_with": {"src_sha256": run.source_digest(child.ROOT),
                                  "python": sys.version.split()[0],
                                  "numpy": numpy.__version__, "scipy": scipy.__version__},
                **body}
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(body, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
