"""Smoke test of scripts/bench_stages.py: every stage of every workload is
timed, a stage resolves while any of its names does, the timers leave
every binding as they found it, a bootstrap workload reports its first
chunk's traced peak and draws, and a comparison in pairs of processes
writes each pair's medians and their spread."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_stages", ROOT / "scripts" / "bench_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(stages):
    """The functions the stages' names resolve to in this tree."""
    out = {}
    for keys in stages.values():
        for key in keys:
            module_name, name = key.rsplit(".", 1)
            module = importlib.import_module(module_name)
            if hasattr(module, name):
                out[key] = getattr(module, name)
    return out


@pytest.mark.parametrize("workload", ["bootstrap", "bootstrap_channel",
                                      "cli_io"])
def test_every_stage_is_timed_and_restored(bench, workload, tmp_path,
                                           monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    setup, stages = bench.WORKLOADS[workload]
    run = setup(tmp_path)
    before = _bindings(stages)
    with bench.installed(stages) as timers:
        run()
    assert all(timers.totals[stage] > 0 for stage in stages), timers.totals
    after = _bindings(stages)
    assert all(after[key] is fn for key, fn in before.items())


def test_bootstrap_workloads_report_their_first_chunk(bench, tmp_path,
                                                      monkeypatch):
    # both bootstrap workloads' first chunks fit the chunk budget; one
    # timed run each keeps the test short
    import tca.inference

    monkeypatch.syspath_prepend(str(ROOT))
    assert sorted(bench.CHUNKED) == ["bootstrap", "bootstrap_channel"]
    draw_effects = tca.inference._draw_effects
    budget = tca.inference.CHUNK_BYTES / 2 ** 20
    for workload in bench.CHUNKED:
        setup, stages = bench.WORKLOADS[workload]
        entry = bench.measure(setup, stages, 1, tmp_path, chunked=True)
        assert tca.inference._draw_effects is draw_effects
        assert 0.5 * budget < entry["first_chunk_mb"] <= 1.1 * budget
        # criterion 09's chunks, and fewer draws for 21 literals
        assert (entry["chunk_draws"] == 167 if workload == "bootstrap"
                else 1 <= entry["chunk_draws"] < 167)
        medians = bench.medians(entry)
        assert medians["first_chunk_mb"] == entry["first_chunk_mb"]
        assert medians["chunk_draws"] == entry["chunk_draws"]
        assert medians["peak_rss_mb"] == entry["peak_rss_mb"] > 0
    setup, stages = bench.WORKLOADS["cli_io"]
    assert "first_chunk_mb" not in bench.measure(setup, stages, 1, tmp_path)


def test_missing_function_raises_and_restores(bench):
    import tca.cli

    main = tca.cli.main
    stages = {"args": ["tca.cli.main"], "gone": ["tca.cli.no_such_function"]}
    with pytest.raises(LookupError, match="no_such_function"):
        with bench.installed(stages):
            pass
    assert tca.cli.main is main
    with pytest.raises(LookupError, match="no_such_module"):
        with bench.installed({"x": ["tca.no_such_module.f"]}):
            pass


def test_stage_resolves_while_any_of_its_names_does(bench):
    # a stage that names a function under its old and its new name, as
    # the ols stage does across a rename, times whichever the tree has
    import tca.linalg

    as_matrix = tca.linalg.as_matrix
    stages = {"m": ["tca.linalg.no_such_function", "tca.linalg.as_matrix",
                    "tca.no_such_module.f"]}
    with bench.installed(stages) as timers:
        assert tca.linalg.as_matrix is not as_matrix
        tca.linalg.as_matrix([[1.0]])
    assert timers.totals["m"] > 0
    assert tca.linalg.as_matrix is as_matrix
    assert not hasattr(tca.linalg, "no_such_function")


def test_one_pair_against_a_tree(bench, tmp_path, monkeypatch):
    # The pair's two processes run in this one, on the cli_io workload
    # alone, to keep the test short.
    def run_in_process(cmd, check):
        assert cmd[:2] == [sys.executable, bench.__file__] and check
        bench.main(cmd[2:])

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=run_in_process))
    monkeypatch.setattr(bench, "WORKLOADS", {"cli_io": bench.WORKLOADS["cli_io"]})
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "pairs.json"
    bench.main(["--against", str(ROOT / "src"), "--pairs", "1", "--runs",
                "9", "--out", str(out)])
    report = json.loads(out.read_text())
    assert sorted(report) == ["cli_io", "comparison", "machine"]
    assert report["comparison"] == {"pairs": 1, "runs": 9}
    entry = report["cli_io"]
    names = ["whole_s", *bench.WORKLOADS["cli_io"][1], "peak_rss_mb"]
    assert len(entry["pairs"]) == 1
    for label in ("parent", "change"):
        pair = entry["pairs"][0][label]
        assert sorted(pair) == sorted(names + list(bench.COUNTERS))
        for name in names:
            spread = entry[label][name]
            assert spread["n"] == 1
            assert spread["min"] == spread["median"] == spread["max"]
            assert spread["median"] == pair[name] > 0
        for name in bench.COUNTERS:  # a run may fault no page
            assert entry[label][name]["median"] == pair[name] >= 0


def test_first_chunks_are_traced_after_the_last_peak_reading(bench, tmp_path,
                                                             monkeypatch):
    # a traced chunk raises the process's peak RSS, so every workload's
    # peak_rss_mb is read before any first chunk is traced; two stand-in
    # workloads whose run is one chunk keep the test short
    import tca.inference

    events = []
    getrusage, start = bench.resource.getrusage, bench.tracemalloc.start

    def workload(workdir):
        return lambda: tca.inference._draw_effects(range(3))

    monkeypatch.setattr(tca.inference, "_draw_effects", lambda draws: None)
    monkeypatch.setattr(bench, "WORKLOADS", {"a": (workload, {}),
                                             "b": (workload, {})})
    monkeypatch.setattr(bench, "CHUNKED", ("a", "b"))
    monkeypatch.setattr(bench.resource, "getrusage",
                        lambda who: events.append("rss") or getrusage(who))
    monkeypatch.setattr(bench.tracemalloc, "start",
                        lambda *a: events.append("trace") or start(*a))
    out = tmp_path / "stages.json"
    bench.main(["--label", "x", "--runs", "9", "--out", str(out)])
    # each workload reads the counters around its whole runs, then its peak
    assert events == ["rss"] * 6 + ["trace", "trace"]
    report = json.loads(out.read_text())
    for name in ("a", "b"):
        assert report[name]["x"]["first_chunk_mb"] >= 0
        assert report[name]["x"]["chunk_draws"] == 3
        assert report[name]["x"]["peak_rss_mb"] > 0


def test_runs_report_their_faults_and_cpu_seconds(bench, tmp_path):
    # getrusage deltas over the whole runs, per run, beside whole_s and
    # in the medians that --against pairs
    setup, stages = bench.WORKLOADS["cli_io"]
    entry = bench.measure(setup, stages, 1, tmp_path)
    medians = bench.medians(entry)
    for key in ("minor_faults", "user_s", "system_s"):
        assert entry[key] >= 0 and medians[key] == entry[key]
    assert entry["user_s"] + entry["system_s"] > 0
