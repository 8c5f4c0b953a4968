"""The tca benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, defaults

Workloads (see workloads.py): ``bootstrap_policy``, ``channel_any_horizon``
and ``large_grid``.  Each runs in its own process with ``TCA_THREADS=2``
and BLAS pinned to one thread.  Set-up (import tca, build inputs) is timed
in several fresh processes and reported as the median; the workload's
operations are then timed pass by pass for S seconds and reported as the
median pass.  Outputs are checked against references that do not come
from tca (reference.py, golden/).

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``run_s`` and
``peak_rss_mb``; ``--trace 1`` reports the per-layer metrics of
tracing.py plus ``trace.overhead_s``.  The second-to-last line of output
is a JSON object with provenance, timing summaries (median, the highest
percentile with at least ten samples beyond it, sample count), failure
records and ``failed_share``; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bootstrap_policy", "channel_any_horizon", "large_grid")
DEFAULT_SEED = 9
SETUP_PROBES = 6
TCA_THREADS = "2"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        TCA_THREADS=TCA_THREADS,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def worker(args, timeout, cpu=None) -> dict:
    """Run one perfbench.worker process, pinned to ``cpu`` if given; return
    the JSON object it prints."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *map(str, args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        preexec_fn=pin,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(name, seed, workdir, count) -> list:
    """Set-up times of ``count`` fresh processes, each pinned to the next
    CPU, so a CPU that is slow for a while does not set the median."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    return [worker(["setup", name, seed, workdir], timeout=60, cpu=cpus[k % len(cpus)])["setup_s"]
            for k in range(count)]


def timing_summary(samples) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (absent below twelve samples), and the sample count."""
    s = sorted(samples)
    n = len(s)
    out = {"n": n, "median": statistics.median(s)}
    if n >= 12:
        k = n - 11
        out["tail_percentile"] = round(100.0 * k / (n - 1), 1)
        out["tail"] = s[k]
    return out


def source_identity() -> dict:
    """The commit when run in a git checkout, and a digest of src/tca."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tca").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_tca_sha256": h.hexdigest()}


def run_workload(name, seed, seconds, trace):
    """Return ``(details, result)`` for one workload."""
    workdir = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # set-up probes run half before and half after the timed run, so a
    # slow spell of the machine does not hit all of them
    probes = 0 if trace else SETUP_PROBES // 2
    try:
        setups = setup_probes(name, seed, workdir, probes)
        res = worker(["run", name, seed, workdir, seconds, int(trace)],
                     timeout=seconds + 120)
        setups += setup_probes(name, seed, workdir, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(res["traced_run_s"]) - statistics.median(res["run_s"]),
            "unit": "s",
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(res["run_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "workload": name,
        "trace": int(trace),
        "provenance": {**source_identity(), **res["provenance"]},
        "timings": {"setup_s": timing_summary(setups), "run_s": timing_summary(res["run_s"])},
        "failed_share": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "output_sha256": res["output_sha256"],
    }
    if trace:
        details["timings"]["traced_run_s"] = timing_summary(res["traced_run_s"])
        for key in ("counts_repeat", "terms_per_call", "absent_entry_points", "absent_metrics"):
            details[key] = res[key]
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return details, result


def summary_line(name, details, result) -> str:
    m = result["metrics"]
    t = details["timings"]["run_s"]
    return (f"{name}: setup_s={m['setup_s']['value']:.4f} s  "
            f"run_s={m['run_s']['value']:.4f} s (median of {t['n']})  "
            f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB  "
            f"failed_share={details['failed_share']:.6g} "
            f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tca" / "__init__.py").is_file():
        print(f"error: no tca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = []
    for name in names:
        try:
            details, result = run_workload(name, args.seed, args.seconds, args.trace == 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        outputs.append((name, details, result))
    for name, details, result in outputs:
        print(json.dumps(details, sort_keys=True))
        if not args.trace:
            print(summary_line(name, details, result))
    for _, _, result in outputs:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
