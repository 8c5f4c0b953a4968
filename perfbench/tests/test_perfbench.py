"""Tests of the benchmark's own parts: span arithmetic, tracing, failure
accounting and the run script's refusal to run without sources.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import tca  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    ENTRY_POINTS,
    Span,
    Tracer,
    absent_metrics,
    covered,
    layer_metrics,
    self_times,
)
from perfbench.workloads import (  # noqa: E402
    BootstrapPolicy,
    ChannelAnyHorizon,
    LargeGrid,
    Ledger,
    digest,
)

SMALL = {
    "bootstrap_policy": lambda tmp: BootstrapPolicy(3, tmp, T=200, h=4, draws=24),
    "channel_any_horizon": lambda tmp: ChannelAnyHorizon(3, tmp, h=4, random_literals=5),
    "large_grid": lambda tmp: LargeGrid(3, tmp, K=3, h=10),
}


# ---------------------------------------------------------------------------
# Span arithmetic


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 5), (3, 7), (8, 9)]) == 7
    assert covered([(1, 5), (3, 7), (8, 9)], 2, 8.5) == 5.5
    assert covered([]) == 0.0
    assert covered([(4, 4), (6, 5)]) == 0.0


def test_self_time_with_children_overlapping_across_threads():
    spans = [
        Span(id=1, name="inference.bootstrap_effects", thread=0, start=0.0, parent=None, end=10.0),
        Span(id=2, name="model.estimate_var_ols", thread=1, start=1.0, parent=1, end=5.0),
        Span(id=3, name="model.estimate_var_ols", thread=2, start=3.0, parent=1, end=7.0),
        Span(id=4, name="inference.point_effects", thread=1, start=8.0, parent=1, end=9.0),
        Span(id=5, name="linalg.solve_unit_lower", thread=1, start=8.2, parent=4, end=8.7),
        Span(id=6, name="model.estimate_var_ols", thread=2, start=9.5, parent=1, end=12.0),
    ]
    st = self_times(spans)
    # children cover [1, 7] u [8, 9] u [9.5, 10] of the parent's [0, 10]
    assert st[1] == pytest.approx(10.0 - 7.5)
    assert st[4] == pytest.approx(0.5)
    assert st[2] == pytest.approx(4.0)
    m = layer_metrics(spans, threads=2)
    assert m["inference.self_s"] == pytest.approx(2.5 + 0.5)
    assert m["model.ols_calls"] == 3
    # worker time inside the bootstrap span: thread 1 covers 4 + 1, thread 2
    # covers 4 + 0.5, over 10 s of wall time times two workers
    assert m["inference.worker_busy_share"] == pytest.approx(9.5 / 20.0)


# ---------------------------------------------------------------------------
# Tracing


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setenv("TCA_THREADS", "2")
    workload = SMALL[name](tmp_path)
    ledger = Ledger()
    plain = digest(workload.check(ledger, workload.run_pass(ledger), full=True))
    with Tracer().recording() as spans:
        result = workload.run_pass(ledger)
    assert digest(workload.check(ledger, result, full=True)) == plain
    assert ledger.failed == 0, ledger.failures
    assert spans and all(s.end >= s.start for s in spans)


def test_bootstrap_worker_spans_are_parented_to_the_bootstrap(tmp_path, monkeypatch):
    monkeypatch.setenv("TCA_THREADS", "2")
    workload = SMALL["bootstrap_policy"](tmp_path)
    with Tracer().recording() as spans:
        workload.run_pass(Ledger())
    by_id = {s.id: s for s in spans}
    (boot,) = [s for s in spans if s.name == "inference.bootstrap_effects"]
    workers = [s for s in spans if s.thread != boot.thread]
    assert workers
    for s in workers:
        while s.parent is not None and s.parent != boot.id:
            s = by_id[s.parent]
        assert s.parent == boot.id
    m = layer_metrics(spans, threads=2)
    assert m["inference.draws"] == 24
    assert m["model.ols_calls"] == 2 + 24
    assert 0.0 < m["inference.worker_busy_share"] <= 1.0


def test_recording_restores_every_binding():
    original = tca.condition.transmission_effect
    with Tracer().recording():
        assert tca.condition.transmission_effect is not original
        assert tca.transmission_effect is tca.condition.transmission_effect
    assert tca.condition.transmission_effect is original
    assert tca.transmission_effect is original


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.delattr(tca.condition, "expand_terms")
    monkeypatch.delattr(tca, "expand_terms")
    t = Tracer({**ENTRY_POINTS, "nosuchmodule.fn": None})
    model = tca.VarmaModel(var_names=("a", "b"), A0=np.eye(2), A=(0.5 * np.eye(2),))
    with t.recording() as spans:
        sf = tca.make_systems_form(model, tca.TransmissionOrdering.identity(("a", "b")), 2)
        tca.solve_unit_lower(sf.B, sf.omega)
    assert t.absent == {"condition.expand_terms", "nosuchmodule.fn"}
    assert {"condition.expand_s", "condition.terms"} <= set(absent_metrics(t.absent))
    m = layer_metrics(spans, threads=1, absent_entry_points=t.absent)
    assert "condition.expand_s" not in m and "condition.terms" not in m
    assert m["system.build_calls"] == 1
    assert m["linalg.solve_calls"] == 1
    assert m["linalg.solve_flop"] == 6 * 6 * sf.omega.shape[1]


# ---------------------------------------------------------------------------
# Failure accounting and references


def test_failures_are_recorded_and_do_not_stop_later_operations(tmp_path):
    ledger = Ledger()
    ledger.new_pass()
    assert ledger.run("bad", lambda: tca.parse_condition("zz_0", ("a",), 1, 0)) is None
    assert ledger.cli("cli", ["verify", str(tmp_path / "missing.csv")]) == 2
    assert ledger.run("good", lambda: 3) == 3
    ledger.check("good", "always false", False)
    ledger.check("good", "false again", False)
    ledger.draws("draws", 10, 1)
    assert ledger.attempted == 3 + 10
    assert ledger.failed == 3 + 1
    kinds = [(f["op"], f["kind"]) for f in ledger.failures]
    assert kinds == [("bad", "exception"), ("cli", "exit_code"), ("good", "check"),
                     ("good", "check"), ("draws", "discarded")]
    assert ledger.failures[0]["detail"].startswith("UnknownVariableError")


def test_formula_printer_and_evaluator_agree_with_the_parser():
    rng = np.random.default_rng(0)
    labels = ("a", "b", "c")
    for _ in range(50):
        f = ref.random_formula(rng, 9, 6)
        cond = tca.parse_condition(ref.to_text(f, labels), labels, 3, 2)
        for _ in range(5):
            visited = {int(m) for m in rng.choice(np.arange(1, 10), size=4, replace=False)}
            assert ref.holds(f, visited) == tca.condition.satisfied_by(cond, visited)


def test_run_script_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
