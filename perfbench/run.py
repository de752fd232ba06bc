"""Run one benchmark workload and print its metrics.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload scan_reduce --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, a machine fingerprint, and as the
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (plus the
tracing overhead) with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
#: Scratch space inside the checkout: worker logs, spill files, span dumps.
WORK = ROOT / ".perfbench_work"


def fingerprint() -> dict[str, object]:
    """nproc, Python and numpy versions, the git commit and a source digest."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        commit = result.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


#: String hashing is pinned: set iteration order follows it, and compile
#: time alone moved by about 25% between hash seeds on the same input.
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute this script with ``PYTHONHASHSEED`` pinned, unless it is.

    ``exec`` replaces the process, so no second process is left running.
    Cluster workers inherit the variable.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


@contextlib.contextmanager
def bench_environment() -> Iterator[None]:
    """Refuse ``DIABLO_*`` variables, make ``repro`` importable, and keep
    every temporary file inside the checkout for the duration.

    Raises ``SystemExit(2)`` when the environment is unfit to measure.
    """
    pinned = sorted(name for name in os.environ if name.startswith("DIABLO_"))
    if pinned:
        # DistributedContext.from_config falls back to these when the config
        # leaves a field unset, which would change what is measured.
        print(f"refusing to run with {', '.join(pinned)} set", file=sys.stderr)
        raise SystemExit(2)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SOURCE}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SOURCE))
    # Worker logs and spill files default to the system temp dir; keep them
    # in the checkout.  Workers inherit TMPDIR.
    run_dir = WORK / f"run-{os.getpid()}"
    tmp_dir = run_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    try:
        yield
    finally:
        if saved[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with bench_environment():
        from harness import measure
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(outcome, args, fingerprint())
        if outcome.tracer is not None:
            trace_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
            outcome.tracer.write(str(trace_path), [f"workload {args.workload} seed {args.seed}"])
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        print(json.dumps(result_line(outcome, bool(args.trace))))
        return 0


UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("trace.job_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith(("bytes", "bytes_sent")):
        return "bytes"
    return "count"


def print_report(outcome, args, machine: dict[str, object]) -> None:
    jobs = [job for job in outcome.jobs if not job.altered]
    beyond = len(jobs) - int(0.9 * len(jobs))
    print(f"workload {outcome.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"fingerprint {json.dumps(machine, sort_keys=True)}")
    for name, value in outcome.end_to_end.items():
        note = ""
        if name == "job_s_p90":
            note = f"  ({len(jobs)} untraced jobs, ~{beyond} beyond p90)"
        elif name == "job_s_p50":
            wall = sorted(job.wall for job in jobs)[len(jobs) // 2]
            note = f"  (at the reference speed; wall median {wall:.6g} s)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in outcome.setup_seconds) + ")"
        print(f"{name:<12} {value:.6g} {UNITS[name]}{note}")
    rate = outcome.failed / outcome.attempted
    print(f"{'error_rate':<12} {rate:.6g} ratio  ({outcome.failed} of {outcome.attempted} jobs failed)")
    if outcome.layers:
        print("tracing overhead (traced minus untraced rounds):")
        for name, traced in outcome.altered.items():
            untraced = outcome.end_to_end[name]
            print(
                f"  {name:<12} untraced {untraced:.6g}  traced {traced:.6g}  "
                f"difference {traced - untraced:+.6g}"
            )
        for name, value in outcome.layers.items():
            print(f"{name:<40} {value:.6g} {layer_unit(name)}")


def result_line(outcome, trace: bool) -> dict[str, object]:
    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in outcome.layers.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in outcome.end_to_end.items()}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
