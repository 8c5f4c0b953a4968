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
``bootstrap_channel``
    Criterion 09 as ``bootstrap``, priced for the 21-literal condition
    ``any_horizon("ygap", range(21))``, a channel that is not zero.
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
stages made inside them); the timers add a little to each call.  A
stage lists the names of its functions in every tree it may time, so a
renamed function keeps its stage: the names that a tree lacks are
skipped, and only a stage none of whose names resolve is an error.  The
median and quartiles go under ``--label`` in ``--out``, laid out as
``{workload: {label: {whole_s, stages_s, minor_faults, user_s, system_s,
peak_rss_mb}}, machine}`` and keeping the entries of other labels.
``minor_faults``, ``user_s`` and ``system_s`` are the minor page faults
and the user and system CPU seconds of one whole run, the change in the
process's ``getrusage`` over the ``--runs`` whole runs divided by their
number.  ``peak_rss_mb`` is the process's
peak resident set size (``ru_maxrss``) once the workload has run; the
workloads run in the order of ``WORKLOADS``, so the first one's is its
own and a later one's covers the ones before it.  A bootstrap workload
(``CHUNKED``) also reports ``first_chunk_mb``, the ``tracemalloc`` peak
of its first chunk of draws (``tca.inference._draw_effects``), in MiB
as ``peak_rss_mb``, and ``chunk_draws``, the draws of that chunk and of
every later one but the last; the first chunks are traced in a further
run of each once every workload's ``peak_rss_mb`` is read, since
tracing raises the process's peak.

``--against SRC`` compares ``--src`` (label ``change``) with ``SRC``
(label ``parent``) in ``--pairs`` pairs of fresh processes, one of each,
the first of a pair alternating between the two.  Timings of one code
move between processes on a shared machine, so one pair cannot resolve
a small change; ``--out`` then gets, per workload, each pair's medians
under ``pairs`` and, under ``parent`` and ``change``, the median,
quartiles and range of the pair medians (and of each process's
counters and ``peak_rss_mb``), beside ``comparison`` (the pair and run
counts) and ``machine``.
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
import resource  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def bootstrap(workdir, cond="!ffr_0"):
    """Criterion 09's inputs and its bootstrap call, for ``cond``."""
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
        data, tca.VarSpec(lags=4), ident, ordering, cond,
        tca.BootstrapSpec(replications=500, seed=909), 20)


def bootstrap_channel(workdir):
    """Criterion 09's bootstrap of a 21-literal channel."""
    from tca.condition import any_horizon

    return bootstrap(workdir, any_horizon("ygap", range(21)))


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


#: The stages of a bootstrap workload.
BOOTSTRAP_STAGES = {
    "regenerate": ["tca.inference._regenerate"],
    "recursion": ["tca.inference._var_recursion"],
    # _lagged_design built the refits' regression rows before
    # _lag_gram summed their Gram matrices from lag products
    "ols": ["tca.inference._lagged_design", "tca.inference._lag_gram",
            "tca.inference._fit", "tca.inference.estimate_var_ols"],
    "identify_and_triangular": [
        "tca.inference._instrument_impact", "tca.inference._reduced_form",
        "tca.inference.identify_internal_instrument",
        "tca.inference.reconstruct_from_single_shock"],
    "evaluate": ["tca.inference._effects",
                 "tca.inference.transmission_effect"],
    # the bands were numpy.quantile calls before _percentiles sorted
    # the draws once per kind
    "quantiles": ["tca.inference._percentiles", "numpy.quantile"],
}

#: workload -> (set-up returning a zero-argument run, stage -> the
#: ``module.function`` names that do its work)
WORKLOADS = {
    "bootstrap": (bootstrap, BOOTSTRAP_STAGES),
    "bootstrap_channel": (bootstrap_channel, BOOTSTRAP_STAGES),
    "cli_io": (cli_io, {
        "args": ["tca.cli.main"],
        "load": ["tca.cli.load_model_file"],
        "tables": ["tca.cli._tables"],
        "partition": ["tca.cli._assert_partition"],
        "write": ["tca.cli.write_effects_csv"],
        "verify": ["tca.cli.verify_effects_csv"],
    }),
}


#: The workloads that run bootstrap chunks, whose first chunk is traced.
CHUNKED = ("bootstrap", "bootstrap_channel")


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
    every binding is restored on exit.  Names that do not resolve are
    skipped; a stage none of whose names resolve raises ``LookupError``,
    so no stage silently times as 0."""
    timers = StageTimers(stages)
    undo = []
    try:
        for stage, keys in stages.items():
            found = False
            for key in keys:
                module_name, name = key.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, name)
                except (ImportError, AttributeError):
                    continue
                setattr(module, name, timers.wrap(fn, stage))
                undo.append((module, name, fn))
                found = True
            if not found:
                raise LookupError(f"stage {stage!r}: none of {keys}")
        yield timers
    finally:
        for module, name, fn in reversed(undo):
            setattr(module, name, fn)


def first_chunk(run):
    """``{first_chunk_mb, chunk_draws}`` of the chunks of draws that
    ``run`` prices: the ``tracemalloc`` peak, in MiB, of the first, and
    its draws, as many as every later chunk but the last takes; the rest
    of the run is not traced."""
    import tca.inference as inference

    original, peaks, draws = inference._draw_effects, [], []

    def traced(*args, **kwargs):
        draws.append(len(args[-1]))
        if peaks:
            return original(*args, **kwargs)
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()

    inference._draw_effects = traced
    try:
        run()
    finally:
        inference._draw_effects = original
    return {"first_chunk_mb": peaks[0], "chunk_draws": draws[0]}


#: Per-run means over the whole runs, from ``getrusage`` before and
#: after them: minor page faults and user and system CPU seconds.
COUNTERS = {"minor_faults": "ru_minflt", "user_s": "ru_utime",
            "system_s": "ru_stime"}

#: The memory of a run: the process's peak RSS and, of a bootstrap
#: (``CHUNKED``), its first chunk's traced peak and draws.
MEMORY = ("peak_rss_mb", "first_chunk_mb", "chunk_draws")


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(setup, stages, runs, workdir, chunked=False):
    """Whole-run and per-stage summaries of ``runs`` runs each, and, when
    ``chunked``, the traced peak of the first chunk of draws."""
    run = setup(workdir)
    run()  # warm-up: imports, caches, first allocations
    whole = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(runs):
        t0 = time.perf_counter()
        run()
        whole.append(time.perf_counter() - t0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    by_stage = {stage: [] for stage in stages}
    for _ in range(runs):
        with installed(stages) as timers:
            run()
        for stage, value in timers.totals.items():
            by_stage[stage].append(value)
    entry = {"whole_s": summary(whole),
             "stages_s": {s: summary(v) for s, v in by_stage.items()},
             **{key: (getattr(after, field) - getattr(before, field)) / runs
                for key, field in COUNTERS.items()},
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             / 1024}
    if chunked:  # after peak_rss_mb, which tracing would inflate
        entry.update(first_chunk(run))
    return entry


def medians(entry):
    """The median of the whole run and of each stage, by name, the
    counters of a run, the process's peak RSS and, of a bootstrap, its
    first chunk's peak and draws."""
    return {"whole_s": entry["whole_s"]["median"],
            **{stage: v["median"] for stage, v in entry["stages_s"].items()},
            **{key: entry[key] for key in (*COUNTERS, *MEMORY)
               if key in entry}}


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
            memory = "  ".join(
                f"{key}={parent[key]['median']:.4g}->"
                f"{change[key]['median']:.4g}"
                for key in MEMORY if key in parent)
            counters = "  ".join(
                f"{key}={parent[key]['median']:.4g}->"
                f"{change[key]['median']:.4g}" for key in COUNTERS)
            print(f"{name} parent->change, median of {args.pairs} pair "
                  f"medians, ms: {text}  {memory}  per run: {counters}")
        report["machine"] = machine
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT)]
    report = json.loads(out.read_text()) if out.is_file() else {}
    entries = {}
    for workload, (setup, stages) in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            entries[workload] = measure(setup, stages, args.runs, workdir)
    # traced only after every peak_rss_mb, which tracing would raise
    for workload in (w for w in WORKLOADS if w in CHUNKED):
        with tempfile.TemporaryDirectory() as workdir:
            entries[workload].update(first_chunk(
                WORKLOADS[workload][0](workdir)))
    for workload, entry in entries.items():
        report.setdefault(workload, {})[args.label] = entry
        stage_text = "  ".join(f"{s}={v['median'] * 1e3:.2f}"
                               for s, v in entry["stages_s"].items())
        memory = "  ".join(f"{key}={entry[key]:.4g}" for key in MEMORY
                           if key in entry)
        memory += "  per run: " + "  ".join(f"{key}={entry[key]:.4g}"
                                            for key in COUNTERS)
        print(f"{workload} {args.label}: whole="
              f"{entry['whole_s']['median'] * 1e3:.2f} ms (median of "
              f"{args.runs})  ms: {stage_text}  {memory}")
    report["machine"] = machine
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
