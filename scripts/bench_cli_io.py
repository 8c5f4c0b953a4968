"""Time the ``large_grid`` CLI pass, whole and by stage, on one thread.

The workload is the benchmark's ``large_grid`` pass (perfbench/workloads.py,
seed 9): a structural K=20 VAR(4) model file, then in process

    tca transmission --shock 1 --condition v1_0 --condition '!v1_0'
        --assert-partition --horizon 200 --out effects.csv
    tca verify effects.csv

which writes and re-reads 4,020 rows.  BLAS runs on one thread.

Usage::

    python scripts/bench_cli_io.py --label change
    python scripts/bench_cli_io.py --label parent --src ../parent/src

``--src`` is the ``src`` directory of the checkout to time (default:
this one).  The script reports the median and quartiles of ``--runs``
(at least 9) whole passes through ``tca.cli.main``, then of as many
passes made stage by stage: parse the two argument lists, load the
model file, build the tables (systems form and both evaluations), check
the partition, write the effects file and verify it.  Results go under
``--label`` in ``--out`` (``BENCH_pr11_cli_io.json``), keeping the
entries of other labels.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse", "load", "tables", "partition", "write", "verify")


def whole_pass(cli, grid):
    """One pass as the benchmark makes it: two in-process ``main`` calls."""
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli.main(grid.transmission), cli.main(grid.verify))
    if codes != (0, 0):
        raise RuntimeError(f"large_grid pass exited {codes}")


def staged_pass(cli, grid):
    """The same pass with each stage timed; returns stage -> seconds."""
    times = {}
    clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        times[stage] = now - clock
        clock = now

    args = cli.build_parser().parse_args(grid.transmission)
    cli.build_parser().parse_args(grid.verify)
    lap("parse")
    model = cli.load_model_file(args.model)
    lap("load")
    ordering = cli._build_ordering(model.var_names,
                                   cli._split_order(args.order), False)
    tables = cli._tables(model, ordering, int(args.shock), None,
                         args.condition, args.horizon, args.xi)
    lap("tables")
    cli._assert_partition(tables)
    lap("partition")
    cli.write_effects_csv(args.out, tables)
    lap("write")
    cli.verify_effects_csv(args.out)
    lap("verify")
    return times


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--out", default=str(ROOT / "BENCH_pr11_cli_io.json"))
    args = ap.parse_args(argv)
    if args.runs < 9:
        ap.error("--runs must be at least 9")
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT)]
    import tca.cli as cli
    from perfbench.workloads import LargeGrid

    with tempfile.TemporaryDirectory() as workdir:
        grid = LargeGrid(9, workdir)
        whole_pass(cli, grid)  # warm-up: imports, caches, first allocations
        whole = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            whole_pass(cli, grid)
            whole.append(time.perf_counter() - t0)
        stages = {stage: [] for stage in STAGES}
        for _ in range(args.runs):
            for stage, value in staged_pass(cli, grid).items():
                stages[stage].append(value)
        effects_bytes = grid.csv_path.stat().st_size

    entry = {
        "whole_s": summary(whole),
        "stages_s": {stage: summary(v) for stage, v in stages.items()},
        "effects_bytes": effects_bytes,
    }
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.is_file() else {}
    report.update({
        "workload": "large_grid (seed 9): K=20, VAR(4), h=200, two conditions "
                    "with --assert-partition, then verify; 4,020 rows, "
                    "one thread",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
    })
    report[args.label] = entry
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    stage_text = "  ".join(f"{s}={v['median'] * 1e3:.2f}"
                           for s, v in entry["stages_s"].items())
    print(f"{args.label}: whole={entry['whole_s']['median'] * 1e3:.2f} ms "
          f"(median of {args.runs})  ms: {stage_text}")


if __name__ == "__main__":
    main()
