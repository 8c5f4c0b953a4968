"""One benchmark process: set up a workload and, in ``run`` mode, time it.

Run from the repository root with ``src`` and the root on ``PYTHONPATH``::

    python3 -m perfbench.worker setup WORKLOAD SEED WORKDIR
    python3 -m perfbench.worker run WORKLOAD SEED WORKDIR SECONDS TRACE

Both print one JSON object.  ``setup`` reports the time to import tca and
build the workload's inputs.  ``run`` also runs one untimed, fully checked
warm-up pass, then timed passes until SECONDS have gone by; with TRACE=1
every second pass is traced.  perfbench/run.py starts these processes.
"""

from __future__ import annotations

import collections
import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_PASSES = 4


def _tca_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tca" or n.startswith("tca."))]


def clear_caches():
    """Empty tca's memo caches so each pass pays what a fresh call pays."""
    for mod in _tca_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def worker_threads() -> int:
    import tca.inference

    fn = getattr(tca.inference, "n_threads", None)
    if callable(fn):
        return fn()
    return int(os.environ.get("TCA_THREADS") or os.cpu_count() or 1)


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        if ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def provenance(workload, seed) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # show_config layouts differ between releases
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "TCA_THREADS": os.environ.get("TCA_THREADS"),
        "tca_worker_threads": worker_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "seed": seed,
        "cpu_rotation": workload.one_thread,
        "operations": workload.operations,
    }


def measure(workload, seconds, trace):
    from .tracing import METRICS, Tracer, absent_metrics, layer_metrics
    from .workloads import Ledger, digest

    ledger = Ledger()
    tracer = Tracer()
    threads = worker_threads()
    # A single-threaded workload stays on one CPU for long spells, and a CPU
    # of a shared machine can be slow for a minute at a time; moving it to the
    # next CPU at each pass samples every CPU evenly.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    rotate = workload.one_thread and len(cpus) > 1

    clear_caches()
    ledger.new_pass()
    first = digest(workload.check(ledger, workload.run_pass(ledger), full=True))

    untraced, traced, layers, terms_per_call = [], [], [], None
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        if rotate:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        clear_caches()
        ledger.new_pass()
        if trace and i % 2 == 1:
            with tracer.recording() as spans:
                t0 = time.perf_counter()
                result = workload.run_pass(ledger)
                traced.append(time.perf_counter() - t0)
            layers.append(layer_metrics(spans, threads, tracer.absent))
            if terms_per_call is None:
                terms_per_call = dict(collections.Counter(
                    str(s.info["terms"]) for s in spans if s.name == "condition.expand_terms"))
        else:
            t0 = time.perf_counter()
            result = workload.run_pass(ledger)
            untraced.append(time.perf_counter() - t0)
        out = workload.check(ledger, result, full=False)
        ledger.check("pass", "outputs identical to the checked warm-up pass",
                     digest(out) == first)
        i += 1
    if rotate:
        os.sched_setaffinity(0, cpus)

    res = {
        "run_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures[:50],
        "output_sha256": first,
    }
    if trace:
        counts = [k for k, (unit, _, _) in METRICS.items()
                  if unit in ("count", "B", "flop") and k in layers[0]]
        absent = absent_metrics(tracer.absent)
        res.update({
            # an absent metric is reported as 0 and listed in absent_metrics
            "layers": {k: [0.0 if k in absent else statistics.median(p[k] for p in layers), unit]
                       for k, (unit, _, _) in METRICS.items()},
            "traced_run_s": traced,
            "counts_repeat": all(p[k] == layers[0][k] for p in layers for k in counts),
            "terms_per_call": terms_per_call,
            "absent_entry_points": sorted(tracer.absent),
            "absent_metrics": absent,
        })
    return res


def main(argv) -> int:
    mode, name, seed, workdir = argv[:4]
    seed = int(seed)
    t0 = time.perf_counter()
    from .workloads import WORKLOADS  # imports tca

    workload = WORKLOADS[name](seed, workdir)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    res = measure(workload, float(argv[4]), argv[5] == "1")
    res["setup_s"] = setup_s
    res["provenance"] = provenance(workload, seed)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
