"""Time the criterion-09 bootstrap, whole and by stage, on one thread.

The workload is acceptance criterion 09: a K=4 VAR(4) on T=400
simulated observations, the instrument shock normalised to 0.25 on the
first variable, the condition ``!ffr_0`` on horizons 0..20 and 500
draws.  BLAS runs on one thread.

Usage::

    python scripts/bench_bootstrap.py --label change
    python scripts/bench_bootstrap.py --label parent --src ../parent/src

``--src`` is the ``src`` directory of the checkout to time (default:
this one).  The script reports the median and quartiles of ``--runs``
(at least 5) whole runs, then of as many runs with a timer around each
stage: regenerate, OLS, identify plus triangular form, evaluate and
quantiles.  A stage's time is the self time of its calls summed over a
run, the full-sample point estimate included; the timers add a little
to each call.
Results go under ``--label`` in ``--out`` (``BENCH_pr8_bootstrap.json``),
keeping the entries of other labels.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "TCA_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: stage -> ``module.function`` names that do its work, in either the
#: chunked code (``tca.inference`` imports its kernels by name) or the
#: per-draw code it replaced; names a checkout lacks are skipped.  In
#: the chunked code the draws run the private kernels, while
#: ``inference.identify_internal_instrument``,
#: ``inference.reconstruct_from_single_shock`` and
#: ``inference.transmission_effect`` time the full-sample point estimate
#: that ``point_effects`` chains from them.
STAGES = {
    "regenerate": ["inference._regenerate", "inference._resample_and_regenerate"],
    "ols": ["inference._lagged_design", "inference._ols",
            "inference.estimate_var_ols"],
    "identify_and_triangular": ["inference._instrument_impact",
                                "inference._reduced_form",
                                "inference.identify_internal_instrument",
                                "inference.reconstruct_from_single_shock"],
    "evaluate": ["inference._effects", "inference.transmission_effect"],
    "quantiles": ["numpy.quantile"],
}


def stable_var_coefs(rng, K, p, radius):
    """AR matrices whose companion spectral radius is exactly ``radius``."""
    A = [rng.normal(scale=0.4, size=(K, K)) for _ in range(p)]
    comp = np.zeros((K * p, K * p))
    comp[:K] = np.hstack(A)
    if p > 1:
        comp[K:, :-K] = np.eye(K * (p - 1))
    c = np.max(np.abs(np.linalg.eigvals(comp))) / radius
    return [Ai / c ** (i + 1) for i, Ai in enumerate(A)]


def workload(tca):
    """Criterion 09's inputs and its bootstrap call."""
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


class StageTimers:
    """Self time per stage: a stage's calls, less the time of the calls
    of other stages made inside them.  A generator is timed while it
    produces each item, since the chunked code regenerates draws block
    by block as the refit asks for them."""

    def __init__(self):
        self.totals = dict.fromkeys(STAGES, 0.0)
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

    def install(self):
        """Wrap every stage function; returns the undo list."""
        undo = []
        for stage, keys in STAGES.items():
            for key in keys:
                mod_name, fn_name = key.rsplit(".", 1)
                module = importlib.import_module(
                    mod_name if mod_name == "numpy" else f"tca.{mod_name}")
                fn = getattr(module, fn_name, None)
                if fn is not None:
                    setattr(module, fn_name, self.wrap(fn, stage))
                    undo.append((module, fn_name, fn))
        return undo


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "BENCH_pr8_bootstrap.json"))
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be at least 5")
    sys.path.insert(0, str(Path(args.src).resolve()))
    import tca

    run = workload(tca)
    run()  # warm-up: imports, caches, first allocations
    whole = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        run()
        whole.append(time.perf_counter() - t0)

    stages = {stage: [] for stage in STAGES}
    for _ in range(args.runs):
        timers = StageTimers()
        undo = timers.install()
        try:
            run()
        finally:
            for module, name, fn in undo:
                setattr(module, name, fn)
        for stage, value in timers.totals.items():
            stages[stage].append(value)

    entry = {
        "whole_s": summary(whole),
        "stages_s": {stage: summary(v) for stage, v in stages.items()},
    }
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.is_file() else {}
    report.update({
        "workload": "criterion 09: K=4, VAR(4), T=400, h=20, '!ffr_0', "
                    "500 draws, one thread",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
    })
    report[args.label] = entry
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    stage_text = "  ".join(f"{s}={v['median']:.4f}"
                           for s, v in entry["stages_s"].items())
    print(f"{args.label}: whole={entry['whole_s']['median']:.4f} s "
          f"(median of {args.runs})  {stage_text}")


if __name__ == "__main__":
    main()
