"""Smoke test of scripts/bench_stages.py: every stage of every workload is
timed, and the timers leave every binding as they found it."""

import importlib.util
from pathlib import Path

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
    out = {}
    for keys in stages.values():
        for key in keys:
            module_name, name = key.rsplit(".", 1)
            module = importlib.import_module(module_name)
            out[key] = getattr(module, name)
    return out


@pytest.mark.parametrize("workload", ["bootstrap", "cli_io"])
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
