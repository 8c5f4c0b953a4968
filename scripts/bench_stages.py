"""Time the stage workloads, whole and by stage, on one thread.

Workloads (``WORKLOADS``):

``bootstrap``
    Acceptance criterion 09: a K=4 VAR(4) on T=400 simulated
    observations, the instrument shock normalised to 0.25 on the first
    variable, the condition ``!ffr_0`` on horizons 0..20 and 500 draws
    (seed 909).  Stages: regenerate, recursion, ols,
    identify_and_triangular, evaluate, quantiles.  The draws run the
    private kernels that ``tca.inference`` imports by name, so
    ``recursion`` is the VAR recursion of the draws and ``regenerate``
    what is left of regeneration (generator set-up, resampling indices,
    ``np.take``); ``identify_internal_instrument``,
    ``reconstruct_from_single_shock`` and ``transmission_effect`` time the
    full-sample point estimate.
``cli_io``
    The benchmark's ``large_grid`` pass (perfbench/workloads.py, seed 9):
    ``tca transmission`` with two conditions and ``--assert-partition`` at
    K=20, h=200, then ``tca verify``, as two in-process ``tca.cli.main``
    calls that write and re-read 4,020 rows.  Stages: args, load, tables,
    partition, write, verify.  ``args`` is the self time of ``main`` and
    so holds argument parsing, dispatch, the ordering and the summary
    line, not parsing alone.

Usage::

    python scripts/bench_stages.py --label parent --src ../parent/src
    python scripts/bench_stages.py --label change
    python scripts/bench_stages.py --against ../parent/src --pairs 5

``--src`` is the ``src`` directory of the checkout to time (default: this
one).  Each workload is run once to warm up, then ``--runs`` times whole and ``--runs`` times
with a timer around each stage function.  A stage's time is the self
time of its calls summed over a run (its calls less the calls of other
stages made inside them); the timers add a little to each call.  The
median and quartiles go under ``--label`` in ``--out``, laid out as
``{workload: {label: {whole_s, stages_s}}, machine}`` and keeping the
entries of other labels.

``--against SRC`` compares ``--src`` (label ``change``) with ``SRC``
(label ``parent``) in ``--pairs`` pairs of fresh processes, one of each,
the first of a pair alternating between the two.  Timings of one code
move between processes on a shared machine, so one pair cannot resolve
a small change; ``--out`` then gets, per workload, each pair's medians
under ``pairs`` and, under ``parent`` and ``change``, the median,
quartiles and range of the pair medians, beside ``comparison`` (the
pair and run counts) and ``machine``.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def bootstrap(workdir):
    """Criterion 09's inputs and its bootstrap call."""
    import tca
    from perfbench.reference import stable_var_coefs

    rng = np.random.default_rng(9)
    names = ("ffr", "ygap", "infl", "pcom")
    coefs = stable_var_coefs(rng, 4, 4, radius=0.6)
    S = np.linalg.cholesky(0.2 * np.eye(4) + 0.8 * np.diag([1.0, 0.8, 0.6, 1.2]))
    data = tca.simulate_var(coefs, None, rng.normal(size=(400, 4)) @ S.T,
                            np.zeros((4, 4)))
    ordering = tca.TransmissionOrdering.identity(names)
    ident = tca.InstrumentSpec(normalize_on=1, impact=0.25)
    return lambda: tca.bootstrap_effects(
        data, tca.VarSpec(lags=4), ident, ordering, "!ffr_0",
        tca.BootstrapSpec(replications=500, seed=909), 20)


def cli_io(workdir):
    """The ``large_grid`` pass: two in-process ``main`` calls."""
    import tca.cli as cli
    from perfbench.workloads import LargeGrid

    grid = LargeGrid(9, workdir)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(grid.transmission), cli.main(grid.verify))
        if codes != (0, 0):
            raise RuntimeError(f"large_grid pass exited {codes}")
    return run


#: workload -> (set-up returning a zero-argument run, stage -> the
#: ``module.function`` names that do its work)
WORKLOADS = {
    "bootstrap": (bootstrap, {
        "regenerate": ["tca.inference._regenerate"],
        "recursion": ["tca.inference._var_recursion"],
        "ols": ["tca.inference._lagged_design", "tca.inference._fit",
                "tca.inference.estimate_var_ols"],
        "identify_and_triangular": [
            "tca.inference._instrument_impact", "tca.inference._reduced_form",
            "tca.inference.identify_internal_instrument",
            "tca.inference.reconstruct_from_single_shock"],
        "evaluate": ["tca.inference._effects",
                     "tca.inference.transmission_effect"],
        "quantiles": ["numpy.quantile"],
    }),
    "cli_io": (cli_io, {
        "args": ["tca.cli.main"],
        "load": ["tca.cli.load_model_file"],
        "tables": ["tca.cli._tables"],
        "partition": ["tca.cli._assert_partition"],
        "write": ["tca.cli.write_effects_csv"],
        "verify": ["tca.cli.verify_effects_csv"],
    }),
}


class StageTimers:
    """Self time per stage: a stage's calls, less the time of the calls
    of other stages made inside them.  A generator is timed while it
    produces each item, since the bootstrap regenerates draws block by
    block as the refit asks for them."""

    def __init__(self, stages):
        self.totals = dict.fromkeys(stages, 0.0)
        self.stack = []  # [stage, start, time of nested calls]

    def enter(self, stage):
        self.stack.append([stage, time.perf_counter(), 0.0])

    def exit(self):
        stage, start, nested = self.stack.pop()
        elapsed = time.perf_counter() - start
        self.totals[stage] += elapsed - nested
        if self.stack:
            self.stack[-1][2] += elapsed

    def wrap(self, fn, stage):
        if inspect.isgeneratorfunction(fn):
            def timed_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    self.enter(stage)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item
            return timed_generator

        def timed(*args, **kwargs):
            self.enter(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return timed


@contextlib.contextmanager
def installed(stages):
    """Wrap every stage function in one :class:`StageTimers` and yield it;
    every binding is restored on exit.  A name that does not resolve
    raises ``LookupError``, so no stage silently times as 0."""
    timers = StageTimers(stages)
    undo = []
    try:
        for stage, keys in stages.items():
            for key in keys:
                module_name, name = key.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, name)
                except (ImportError, AttributeError):
                    raise LookupError(f"stage {stage!r}: no {key}") from None
                setattr(module, name, timers.wrap(fn, stage))
                undo.append((module, name, fn))
        yield timers
    finally:
        for module, name, fn in reversed(undo):
            setattr(module, name, fn)


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(setup, stages, runs, workdir):
    """Whole-run and per-stage summaries of ``runs`` runs each."""
    run = setup(workdir)
    run()  # warm-up: imports, caches, first allocations
    whole = []
    for _ in range(runs):
        t0 = time.perf_counter()
        run()
        whole.append(time.perf_counter() - t0)
    by_stage = {stage: [] for stage in stages}
    for _ in range(runs):
        with installed(stages) as timers:
            run()
        for stage, value in timers.totals.items():
            by_stage[stage].append(value)
    return {"whole_s": summary(whole),
            "stages_s": {s: summary(v) for s, v in by_stage.items()}}


def medians(entry):
    """The median of the whole run and of each stage, by name."""
    return {"whole_s": entry["whole_s"]["median"],
            **{stage: v["median"] for stage, v in entry["stages_s"].items()}}


def compare(args):
    """The ``--against`` report: ``--pairs`` pairs of fresh processes,
    one per tree, the first of a pair alternating between them."""
    sides = {"parent": args.against, "change": args.src}
    report = {name: {"pairs": []} for name in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            entries = {}
            for label in sorted(sides, reverse=pair % 2 == 0):
                out = Path(tmp) / f"{pair}-{label}.json"
                subprocess.run([sys.executable, __file__, "--label", label,
                                "--src", sides[label], "--runs",
                                str(args.runs), "--out", str(out)],
                               check=True)
                entries[label] = json.loads(out.read_text())
            for name in WORKLOADS:
                report[name]["pairs"].append(
                    {label: medians(entries[label][name][label])
                     for label in sides})
    for entry in report.values():
        for label in sides:
            entry[label] = {}
            for metric in entry["pairs"][0][label]:
                values = [pair[label][metric] for pair in entry["pairs"]]
                entry[label][metric] = dict(summary(values), min=min(values),
                                            max=max(values))
    report["comparison"] = {"pairs": args.pairs, "runs": args.runs}
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--against", metavar="SRC")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--out", default=str(ROOT / "BENCH_stages.json"))
    args = ap.parse_args(argv)
    if args.runs < 9:
        ap.error("--runs must be at least 9")
    if (args.label is None) == (args.against is None):
        ap.error("give exactly one of --label and --against")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    machine = (f"{platform.machine()}, {os.cpu_count()} cores, Python "
               f"{platform.python_version()}, numpy {np.__version__}, "
               "one BLAS thread")
    out = Path(args.out)
    if args.against is not None:
        report = compare(args)
        for name in WORKLOADS:
            parent, change = report[name]["parent"], report[name]["change"]
            text = "  ".join(f"{metric}={parent[metric]['median'] * 1e3:.2f}"
                             f"->{change[metric]['median'] * 1e3:.2f}"
                             for metric in ["whole_s", *WORKLOADS[name][1]])
            print(f"{name} parent->change, median of {args.pairs} pair "
                  f"medians, ms: {text}")
        report["machine"] = machine
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT)]
    report = json.loads(out.read_text()) if out.is_file() else {}
    for workload, (setup, stages) in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            entry = measure(setup, stages, args.runs, workdir)
        report.setdefault(workload, {})[args.label] = entry
        stage_text = "  ".join(f"{s}={v['median'] * 1e3:.2f}"
                               for s, v in entry["stages_s"].items())
        print(f"{workload} {args.label}: whole="
              f"{entry['whole_s']['median'] * 1e3:.2f} ms (median of "
              f"{args.runs})  ms: {stage_text}")
    report["machine"] = machine
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
