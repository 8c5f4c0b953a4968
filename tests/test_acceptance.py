"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Run the whole gate with::

    pytest tests/test_acceptance.py -v
"""

import csv
import time

import numpy as np
import pytest

from conftest import (
    orderings_fixed_at,
    random_condition,
    random_ordering,
    random_varma,
    stable_var_coefs,
    three_var_closed_forms,
    three_var_model,
    wrap_condition,
)
from oracles import (
    assignment_effect,
    assignment_for_paths,
    dense_b,
    dense_toeplitz,
    total_path_effect,
    variable_paths,
)
from tca import (
    ReducedVar,
    TransmissionOrdering,
    VarmaModel,
    cholesky_irfs,
    enumerate_paths,
    estimate_var_ols,
    make_systems_form,
    parse_condition,
    reconstruct_from_single_shock,
    simulate_var,
    transmission_effect,
)
import tca.inference
from tca.cli import main
from tca.condition import Not, satisfied_by
from tca.inference import (
    BootstrapSpec,
    InstrumentSpec,
    VarSpec,
    bootstrap_effects,
    point_effects,
)

ORDER3 = TransmissionOrdering.identity(("x", "pi", "i"))


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:02d} {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_recursive_closed_forms():
    """Recursive model: channel through inflation is a2*a4, the
    complement a3, to 1e-12; 1000 draws under one second."""
    rng = np.random.default_rng(1)
    cond = parse_condition("pi_0", ORDER3.labels, 3, 0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a2, a3, a4 = rng.uniform(-2.0, 2.0, size=3)
        sf = make_systems_form(three_var_model(0.0, a2, a3, a4), ORDER3, 0)
        table = transmission_effect(sf, cond, shock=1)
        worst = max(
            worst,
            abs(table.cell("channel", 3, 0) - a2 * a4),
            abs(table.cell("complement", 3, 0) - a3),
        )
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max gap {worst:.2e} (tol 1e-12), 1000 draws in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_non_recursive_closed_forms():
    """Full model: direct, indirect and total effects match the analytic
    forms to 1e-10; 1000 draws under one second."""
    rng = np.random.default_rng(2)
    cond = parse_condition("pi_0", ORDER3.labels, 3, 0)
    t0 = time.perf_counter()
    worst, n = 0.0, 0
    while n < 1000:
        a1, a2, a3, a4 = rng.uniform(-2.0, 2.0, size=4)
        eta = 1 - a1 * a2 * a4 - a1 * a3
        if abs(eta) < 1e-2:
            continue
        n += 1
        total, indirect, direct = three_var_closed_forms(a1, a2, a3, a4)
        sf = make_systems_form(three_var_model(a1, a2, a3, a4), ORDER3, 0)
        table = transmission_effect(sf, cond, shock=1)
        worst = max(
            worst,
            abs(table.cell("channel", 3, 0) - indirect),
            abs(table.cell("complement", 3, 0) - direct),
            abs(table.cell("total", 3, 0) - total),
        )
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-10 and elapsed < 1.0,
        f"max gap {worst:.2e} (tol 1e-10), 1000 draws in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_systems_form_anchors():
    """Constructed (B, Omega) match the displayed closed-form entries of
    the worked example to 1e-12 across sampled coefficients."""
    rng = np.random.default_rng(3)
    worst, n = 0.0, 0
    while n < 200:
        a1, a2, a3, a4 = rng.uniform(-2.0, 2.0, size=4)
        eta = 1 - a1 * a2 * a4 - a1 * a3
        if abs(eta) < 1e-2:
            continue
        n += 1
        sf = make_systems_form(three_var_model(a1, a2, a3, a4), ORDER3, 0)
        den2 = a1 ** 2 * (a4 ** 2 + 1) + 1
        B = np.array(
            [
                [0.0, 0.0, 0.0],
                [((a1 ** 2 + 1) * a2 + a1 * a4 * (1 - a1 * a3)) / den2, 0.0, 0.0],
                [(a1 + a3) / (a1 ** 2 + 1), a4 / (a1 ** 2 + 1), 0.0],
            ]
        )
        omega = np.array(
            [
                [1 / eta, a1 * a4 / eta, a1 / eta],
                [-a1 * a4 / den2, (a1 ** 2 + 1) / den2, -(a1 ** 2) * a4 / den2],
                [-a1 / (a1 ** 2 + 1), 0.0, 1 / (a1 ** 2 + 1)],
            ]
        )
        # entries scale like 1/eta and can reach O(100), where an
        # absolute 1e-12 is below their own representation error; the
        # comparison is therefore scale-aware (identical to absolute
        # 1e-12 for entries up to 1)
        worst = max(
            worst,
            float(np.max(np.abs(dense_b(sf) - B) / np.maximum(1.0, np.abs(B)))),
            float(np.max(np.abs(sf.omega - omega) / np.maximum(1.0, np.abs(omega)))),
        )
    report(3, worst <= 1e-12, f"max (scaled) entry gap {worst:.2e} (tol 1e-12)")


def test_criterion_04_oracle_triangle():
    """Edge deletion, exhaustive path enumeration and the nested-chain
    assignment oracle agree on 200 random instances."""
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 4))
        m = random_varma(
            rng,
            K=K,
            ell=int(rng.integers(0, 3)),
            q=int(rng.integers(0, 2)),
        )
        sf = make_systems_form(
            m, random_ordering(rng, m.var_names), int(rng.integers(0, 3))
        )
        shock = int(rng.integers(1, K + 1))
        cond = wrap_condition(random_condition(rng, sf.size, 4), sf)
        table = transmission_effect(sf, cond, shock=shock)
        for target in range(1, sf.size + 1):
            r, t = sf.var_horizon(target)
            fast = table.cell("channel", r, t)
            paths = enumerate_paths(sf, shock, target)
            kept = [p for p in paths if satisfied_by(cond, p.nodes)]
            by_paths = total_path_effect(kept) if kept else 0.0
            av = assignment_for_paths(target, kept)
            by_assignment = assignment_effect(sf, shock, av)
            worst = max(
                worst, abs(fast - by_paths), abs(fast - by_assignment)
            )
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst <= 1e-10 and elapsed < 30.0,
        f"max route gap {worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_decomposition_identity_everywhere():
    """channel + complement = xi * total-effect column at every cell, for
    point runs and for every bootstrap draw."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        m = random_varma(rng, K=3, ell=1, q=int(rng.integers(0, 2)))
        sf = make_systems_form(m, random_ordering(rng, m.var_names), 2)
        root = random_condition(rng, sf.size, 3)
        shock = int(rng.integers(1, 4))
        xi = float(rng.uniform(0.5, 2.0))
        t_pos = transmission_effect(sf, wrap_condition(root, sf), shock=shock, xi=xi)
        t_neg = transmission_effect(sf, wrap_condition(Not(root), sf), shock=shock, xi=xi)
        scale = np.maximum(1.0, np.abs(t_pos.total))
        worst = max(
            worst,
            t_pos.max_identity_gap(),
            float(np.max(np.abs(t_pos.channel + t_neg.channel - t_pos.total) / scale)),
        )

    # bootstrap draws inherit the identity: complement bands of b equal
    # channel bands of !b when the draws are shared
    A0 = np.array([[1.0, 0.0], [-0.6, 1.0]])
    A1 = np.array([[0.5, 0.1], [0.2, 0.4]])
    data = simulate_var(
        [np.linalg.inv(A0) @ A1],
        None,
        np.random.default_rng(55).normal(size=(600, 2)) @ np.linalg.inv(A0).T,
        np.zeros((1, 2)),
    )
    ordering = TransmissionOrdering.identity(("v1", "v2"))
    common = dict(
        data=data,
        var_spec=VarSpec(lags=1),
        ident=InstrumentSpec(normalize_on=1, impact=1.0),
        ordering=ordering,
        spec=BootstrapSpec(replications=60, seed=99),
        h=2,
    )
    a = bootstrap_effects(cond="v2_0", **common)
    b = bootstrap_effects(cond="!(v2_0)", **common)
    for piece in ("lower", "upper"):
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(getattr(a, piece)["complement"] - getattr(b, piece)["channel"])
                )
            ),
        )
    report(5, worst <= 1e-9, f"max identity gap {worst:.2e} (tol 1e-9)")


def test_criterion_06_unit_effects_equal_orthogonalised_ratios():
    """Summed variable-to-variable path effects equal ratios of
    orthogonalised IRF entries on AR-only instances."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 4))
        m = random_varma(rng, K=K, ell=int(rng.integers(0, 3)), q=0)
        ordering = random_ordering(rng, m.var_names)
        h = int(rng.integers(0, 3))
        sf = make_systems_form(m, ordering, h)
        pt = dense_toeplitz(cholesky_irfs(m, ordering, h), K)
        for _ in range(6):
            r = int(rng.integers(1, sf.size))
            s = int(rng.integers(r + 1, sf.size + 1))
            effect = total_path_effect(variable_paths(sf, r, s))
            ratio = pt[s - 1, r - 1] / pt[r - 1, r - 1]
            worst = max(worst, abs(effect - ratio))
    report(6, worst <= 1e-10, f"max gap {worst:.2e} (tol 1e-10)")


def test_criterion_07_invariance_suites():
    """Reordering variables within the blocks a quantity does not depend
    on leaves that quantity unchanged (after index remapping)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    h = 2
    for _ in range(34):  # omega rows
        m = random_varma(rng, K=4, ell=1, q=1)
        r = int(rng.integers(1, 5))
        base, other = orderings_fixed_at(rng, m.var_names, [r - 1])
        om1 = make_systems_form(
            m, TransmissionOrdering.from_names(m.var_names, base), h
        ).omega
        om2 = make_systems_form(
            m, TransmissionOrdering.from_names(m.var_names, other), h
        ).omega
        for t in range(h + 1):
            worst = max(
                worst, float(np.max(np.abs(om1[t * 4 + r - 1] - om2[t * 4 + r - 1])))
            )
    for _ in range(33):  # B entries
        m = random_varma(rng, K=5, ell=2, q=0)
        r, c = (int(v) for v in rng.choice(np.arange(1, 6), size=2, replace=False))
        base, other = orderings_fixed_at(rng, m.var_names, [r - 1, c - 1])
        B1 = dense_b(make_systems_form(
            m, TransmissionOrdering.from_names(m.var_names, base), h
        ))
        B2 = dense_b(make_systems_form(
            m, TransmissionOrdering.from_names(m.var_names, other), h
        ))
        for ti in range(h + 1):
            for tj in range(h + 1):
                worst = max(
                    worst,
                    abs(B1[ti * 5 + r - 1, tj * 5 + c - 1] - B2[ti * 5 + r - 1, tj * 5 + c - 1]),
                )
    for _ in range(33):  # orthogonalised IRF columns
        m = random_varma(rng, K=4, ell=1, q=1)
        c = int(rng.integers(1, 5))
        base, other = orderings_fixed_at(rng, m.var_names, [c - 1])
        o1 = TransmissionOrdering.from_names(m.var_names, base)
        o2 = TransmissionOrdering.from_names(m.var_names, other)
        p1 = dense_toeplitz(cholesky_irfs(m, o1, h), 4)
        p2 = dense_toeplitz(cholesky_irfs(m, o2, h), 4)
        remap = [o2.labels.index(name) for name in o1.labels]
        for tcol in range(h + 1):
            col = tcol * 4 + c - 1
            for trow in range(h + 1):
                for pos in range(4):
                    worst = max(
                        worst,
                        abs(p1[trow * 4 + pos, col] - p2[trow * 4 + remap[pos], col]),
                    )
    report(7, worst <= 1e-10, f"100 instances, max gap {worst:.2e} (tol 1e-10)")


def test_criterion_08_single_shock_route():
    """Effects from the reduced form plus one identified impact column
    equal effects from the full structural model."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(60):
        m = random_varma(rng, K=3, ell=int(rng.integers(0, 3)),
                         q=int(rng.integers(0, 2)))
        ordering = random_ordering(rng, m.var_names)
        h = 2
        sf = make_systems_form(m, ordering, h)
        shock = int(rng.integers(1, 4))
        impact = np.linalg.inv(m.A0)[:, shock - 1]
        sss = reconstruct_from_single_shock(m, ordering, impact, h)
        worst = max(
            worst,
            float(np.max(np.abs(dense_b(sss) - dense_b(sf)))),
            float(np.max(np.abs(sss.omega[:, 0] - sf.omega[:, shock - 1]))),
        )
        cond = wrap_condition(random_condition(rng, sf.size, 3), sf)
        t_full = transmission_effect(sf, cond, shock=shock)
        t_one = transmission_effect(sss, cond)
        worst = max(worst, float(np.max(np.abs(t_full.channel - t_one.channel))))
    # pure-VAR reduced form route
    for _ in range(40):
        m = random_varma(rng, K=3, ell=2, q=0)
        ordering = random_ordering(rng, m.var_names)
        A0inv = np.linalg.inv(m.A0)
        reduced = ReducedVar(
            var_names=m.var_names,
            coefs=tuple(A0inv @ Ai for Ai in m.A),
            sigma_u=A0inv @ A0inv.T,
        )
        h = 2
        sf = make_systems_form(m, ordering, h)
        shock = int(rng.integers(1, 4))
        sss = reconstruct_from_single_shock(
            reduced, ordering, A0inv[:, shock - 1], h
        )
        worst = max(
            worst,
            float(np.max(np.abs(dense_b(sss) - dense_b(sf)))),
            float(np.max(np.abs(sss.omega[:, 0] - sf.omega[:, shock - 1]))),
        )
    report(8, worst <= 1e-10, f"max gap {worst:.2e} (tol 1e-10)")


def test_criterion_09_empirical_shape_and_runtime(monkeypatch):
    """Four-variable VAR(4) policy-rate exercise: the through-impact and
    not-through-impact channels stack to the total at 20 horizons; the
    full run with a 500-rep bootstrap finishes inside five seconds."""
    rng = np.random.default_rng(9)
    names = ("ffr", "ygap", "infl", "pcom")
    coefs = stable_var_coefs(rng, 4, 4, radius=0.6)
    S = np.linalg.cholesky(
        0.2 * np.eye(4) + 0.8 * np.diag([1.0, 0.8, 0.6, 1.2])
    )
    data = simulate_var(
        coefs, None, rng.normal(size=(400, 4)) @ S.T, np.zeros((4, 4))
    )
    ordering = TransmissionOrdering.identity(names)
    ident = InstrumentSpec(normalize_on=1, impact=0.25)
    h = 20

    t0 = time.perf_counter()
    var = estimate_var_ols(data, 4, True, names)
    through, _ = point_effects(var, ident, ordering, "ffr_0", h)
    not_through, _ = point_effects(var, ident, ordering, "!ffr_0", h)
    bands = bootstrap_effects(
        data,
        VarSpec(lags=4),
        ident,
        ordering,
        "!ffr_0",
        BootstrapSpec(replications=500, seed=909),
        h,
    )
    elapsed = time.perf_counter() - t0

    # the same bootstrap in chunks of 7 draws gives the same bands; a
    # draw's working bytes are its 396 resampling indices and a 256-row
    # block of the 21 regressor and response columns
    draw_bytes = 4 * 396 + 8 * 256 * (1 + 4 * 4 + 4)
    monkeypatch.setattr(tca.inference, "CHUNK_BYTES", 7 * draw_bytes)
    chunked = bootstrap_effects(data, VarSpec(lags=4), ident, ordering,
                                "!ffr_0",
                                BootstrapSpec(replications=500, seed=909), h)
    same_bands = all(
        np.array_equal(getattr(bands, side)[kind], getattr(chunked, side)[kind])
        for side in ("lower", "upper")
        for kind in ("total", "channel", "complement")
    )

    scale = np.maximum(1.0, np.abs(through.total))
    stack_gap = float(
        np.max(np.abs(through.channel + not_through.channel - through.total) / scale)
    )
    ok = (stack_gap <= 1e-9 and elapsed < 5.0 and bands.discarded == 0
          and same_bands)
    report(
        9,
        ok,
        f"stack gap {stack_gap:.2e} (tol 1e-9), run {elapsed:.2f}s (< 5s), "
        f"discarded {bands.discarded}, bands equal in chunks of 7 draws "
        f"{same_bands}",
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    """Fixed seeds give byte-identical outputs across repeated runs and
    across bootstrap chunk sizes, for every command."""
    rng = np.random.default_rng(10)
    A0 = np.array([[1.0, 0.0], [-0.6, 1.0]])
    A1 = np.array([[0.5, 0.1], [0.2, 0.4]])
    A0inv = np.linalg.inv(A0)
    data = simulate_var(
        [A0inv @ A1], None, rng.normal(size=(300, 2)) @ A0inv.T, np.zeros((1, 2))
    )
    data_path = tmp_path / "d.csv"
    with open(data_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ffr", "ygap"])
        for row in data:
            w.writerow([repr(float(v)) for v in row])

    def run_all(tag, chunk_bytes):
        monkeypatch.setattr(tca.inference, "CHUNK_BYTES", chunk_bytes)
        model = tmp_path / f"m{tag}.json"
        eff = tmp_path / f"e{tag}.csv"
        boot = tmp_path / f"b{tag}.csv"
        assert main(["estimate", "--data", str(data_path), "--lags", "1",
                     "--out", str(model), "--quiet"]) == 0
        assert main(["transmission", "--model", str(model),
                     "--order", "ygap", "--shock", "instrument",
                     "--normalize", "ffr=0.25", "--condition", "!ffr_0",
                     "--horizon", "4", "--out", str(eff), "--quiet"]) == 0
        assert main(["bootstrap", "--data", str(data_path), "--lags", "1",
                     "--order", "ffr,ygap", "--shock", "instrument",
                     "--normalize", "ffr=0.25", "--condition", "!ffr_0",
                     "--horizon", "4", "--reps", "30", "--seed", "77",
                     "--out", str(boot), "--quiet"]) == 0
        return (model.read_bytes(), eff.read_bytes(), boot.read_bytes())

    default = tca.inference.CHUNK_BYTES
    first = run_all("a", default)
    again = run_all("b", default)
    one_draw_chunks = run_all("c", 1)
    ok = first == again == one_draw_chunks
    report(10, ok, "estimate/transmission/bootstrap byte-identical across "
                   "runs and bootstrap chunk sizes")
