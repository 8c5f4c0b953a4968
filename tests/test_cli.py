import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import tca.cli
from conftest import three_var_closed_forms, three_var_model
from tca import (ReducedVar, VarmaModel, identify_internal_instrument,
                 simulate_var)
from tca.cli import (
    build_parser,
    load_model_file,
    main,
    read_data_csv,
    save_model_file,
    verify_effects_csv,
    write_effects_csv,
)
from tca.condition import EffectTable
from tca.errors import ZeroImpactError


def write_csv(path, names, data):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for row in np.asarray(data):
            w.writerow([repr(float(v)) for v in row])


@pytest.fixture
def var_data(tmp_path):
    rng = np.random.default_rng(314)
    A0 = np.array([[1.0, 0.0], [-0.6, 1.0]])
    A1 = np.array([[0.5, 0.1], [0.2, 0.4]])
    A0inv = np.linalg.inv(A0)
    data = simulate_var(
        [A0inv @ A1], None, rng.normal(size=(400, 2)) @ A0inv.T, np.zeros((1, 2))
    )
    path = tmp_path / "data.csv"
    write_csv(path, ["ffr", "ygap"], data)
    return path


@pytest.fixture
def model3_path(tmp_path):
    path = tmp_path / "model.json"
    save_model_file(path, three_var_model(0.2, 0.5, 0.8, 1.5))
    return path


class TestModelFiles:
    def test_structural_round_trip(self, tmp_path, rng):
        m = three_var_model(0.2, 0.5, 0.8, 1.5)
        path = tmp_path / "m.json"
        save_model_file(path, m)
        loaded = load_model_file(path)
        assert loaded.var_names == m.var_names
        assert np.array_equal(loaded.A0, m.A0)

    def test_reserialization_is_byte_identical(self, tmp_path, var_data):
        model = tmp_path / "m.json"
        assert main(["estimate", "--data", str(var_data), "--lags", "2",
                     "--out", str(model), "--quiet"]) == 0
        first = model.read_bytes()
        save_model_file(model, load_model_file(model))
        assert model.read_bytes() == first

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = {"K": 2, "var_names": ["a"], "ell": 0, "q": 0,
               "A0": [[1.0, 0.0], [0.0, 1.0]], "A": [], "Psi": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model_file(path)


class TestEstimate:
    def test_writes_reduced_model_and_summary(self, tmp_path, var_data, capsys):
        out = tmp_path / "m.json"
        code = main(["estimate", "--data", str(var_data), "--lags", "4",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "K=2" in printed and "p=4" in printed
        model = load_model_file(out)
        assert model.p == 4 and model.K == 2

    def test_four_variable_var4(self, tmp_path):
        rng = np.random.default_rng(44)
        from conftest import stable_var_coefs

        data = simulate_var(
            stable_var_coefs(rng, 4, 4), None, rng.normal(size=(300, 4)),
            np.zeros((4, 4)),
        )
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c", "d"], data)
        out = tmp_path / "m.json"
        assert main(["estimate", "--data", str(path), "--lags", "4",
                     "--out", str(out), "--quiet"]) == 0
        model = load_model_file(out)
        assert model.p == 4 and model.K == 4

    def test_degenerate_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        write_csv(path, ["z"], np.zeros((60, 1)))
        code = main(["estimate", "--data", str(path), "--lags", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,x\n")
        code = main(["estimate", "--data", str(path), "--lags", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_duplicate_names_exit_2(self, tmp_path, rng, capsys):
        path = tmp_path / "dup.csv"
        write_csv(path, ["a", "a", "b"], rng.normal(size=(60, 3)))
        out = tmp_path / "m.json"
        code = main(["estimate", "--data", str(path), "--lags", "1",
                     "--out", str(out)])
        assert code == 2
        assert "variable names must be unique" in capsys.readouterr().err
        assert not out.exists()


class TestTransmission:
    def test_worked_example_values(self, tmp_path, model3_path):
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0", "--horizon", "0", "--out", str(out),
            "--quiet",
        ])
        assert code == 0
        total, indirect, direct = three_var_closed_forms(0.2, 0.5, 0.8, 1.5)
        rows = {r["variable"]: r for r in csv.DictReader(open(out))}
        row = rows["i"]
        assert abs(float(row["channel"]) - indirect) <= 1e-10
        assert abs(float(row["complement"]) - direct) <= 1e-10
        assert abs(float(row["total"]) - total) <= 1e-10

    def test_true_condition(self, tmp_path, model3_path):
        out = tmp_path / "e.csv"
        main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "true", "--horizon", "0", "--out", str(out),
            "--quiet",
        ])
        for row in csv.DictReader(open(out)):
            assert float(row["channel"]) == float(row["total"])
            assert float(row["complement"]) == 0.0

    def test_partition_assertion_passes_for_complements(self, tmp_path,
                                                        model3_path):
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0", "--condition", "!pi_0",
            "--assert-partition", "--horizon", "0", "--out", str(out),
            "--quiet",
        ])
        assert code == 0
        header = open(out).readline().strip().split(",")
        assert header == ["variable", "horizon", "total", "channel_1",
                          "channel_2", "complement"]

    def test_partition_assertion_fails_for_overlap(self, tmp_path,
                                                   model3_path, capsys):
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0", "--condition", "pi_0",
            "--assert-partition", "--horizon", "0",
            "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 3

    def test_normalize_sets_impact(self, tmp_path, model3_path):
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1", "--normalize", "pi=0.25",
            "--condition", "pi_0", "--horizon", "2", "--out", str(out),
            "--quiet",
        ])
        assert code == 0
        rows = [r for r in csv.DictReader(open(out))
                if r["variable"] == "pi" and r["horizon"] == "0"]
        assert abs(float(rows[0]["total"]) - 0.25) <= 1e-12

    @pytest.mark.parametrize("a1, scale", [(0.0, 1.0), (1e-14, 1e-6)])
    def test_normalize_on_zero_impact_exits_2(self, tmp_path, capsys, a1,
                                              scale):
        # (nearly) recursive model: the policy shock does not move the
        # output gap; at scale 1e-6 its impact on x is 1e-8 against an
        # own impact of 1e6, zero for a scale-aware tolerance
        m = three_var_model(a1, 0.5, 0.8, 1.5)
        model = tmp_path / "recursive.json"
        save_model_file(model, VarmaModel(var_names=m.var_names,
                                          A0=scale * m.A0))
        code = main([
            "transmission", "--model", str(model), "--order", "x,pi,i",
            "--shock", "3", "--normalize", "x=1", "--condition", "pi_0",
            "--horizon", "0", "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 2
        assert "impact of shock 3 on 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio, accepted", [(1e-13, False),
                                                 (1e-11, True)])
    def test_one_zero_impact_rule_for_both_shocks(self, tmp_path, capsys,
                                                  ratio, accepted):
        # the impact column (1e6, 1e6 ratio): of the first shock of a
        # structural model, and the first Cholesky column of a residual
        # covariance; both routes normalise on its second entry, or both
        # find it zero against the column's maximum (at 1e-13 the entry
        # is 1e-7, far above an absolute 1e-12)
        impact = np.array([[1e6, 0.0], [1e6 * ratio, 1.0]])
        model = tmp_path / "m.json"
        save_model_file(model, VarmaModel(var_names=("a", "b"),
                                          A0=np.linalg.inv(impact)))
        code = main([
            "transmission", "--model", str(model), "--order", "a,b",
            "--shock", "1", "--normalize", "b=1", "--condition", "b_0",
            "--horizon", "0", "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        var = ReducedVar(var_names=("a", "b"), coefs=(),
                         sigma_u=impact @ impact.T)
        if accepted:
            assert code == 0
            col = identify_internal_instrument(var, 2, 1.0)
            assert col.phi[1] == pytest.approx(1.0, rel=1e-12)
        else:
            assert code == 2
            assert "impact of shock 1 on 'b'" in capsys.readouterr().err
            with pytest.raises(ZeroImpactError):
                identify_internal_instrument(var, 2, 1.0)

    def test_normalize_on_unknown_variable_exits_2(self, tmp_path, model3_path,
                                                   capsys):
        code = main([
            "transmission", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--normalize", "zz=1", "--condition", "pi_0",
            "--horizon", "1", "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown variable 'zz'" in err
        assert "tuple.index" not in err

    def test_evaluator_explosion_exits_5(self, tmp_path, model3_path,
                                         monkeypatch, capsys):
        import tca.condition

        monkeypatch.setattr(tca.condition, "TERM_CAP", 50)
        pairs = " | ".join(f"(x{i} & x{i + 12})" for i in range(1, 13))
        code = main([
            "transmission", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--condition", pairs, "--horizon", "7",
            "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 5

    def test_horizon_over_memory_budget_exits_2(self, tmp_path, model3_path,
                                                capsys):
        code = main([
            "transmission", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--condition", "pi_0", "--horizon", "1000000000",
            "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--xi", "nan"], ["--xi", "inf"], ["--normalize", "x=nan"],
        ["--normalize", "x=-inf"],
    ])
    def test_non_finite_shock_size_exits_2(self, tmp_path, model3_path,
                                           capsys, extra):
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--condition", "pi_0", "--horizon", "1",
            "--out", str(out), "--quiet", *extra,
        ])
        assert code == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    def test_condition_parse_error_exits_3(self, tmp_path, model3_path,
                                           capsys):
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0 &", "--horizon", "0",
            "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 3
        assert "position" in capsys.readouterr().err

    def test_over_deep_nesting_exits_3(self, tmp_path, model3_path, capsys):
        code = main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "(" * 600 + "pi_0" + ")" * 600, "--horizon", "0",
            "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 3
        assert "nesting deeper than" in capsys.readouterr().err

    def test_instrument_route(self, tmp_path, var_data):
        model = tmp_path / "m.json"
        main(["estimate", "--data", str(var_data), "--lags", "1",
              "--out", str(model), "--quiet"])
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model),
            "--order", "ygap", "--shock", "instrument",
            "--normalize", "ffr=0.25",
            "--condition", "!ffr_0", "--horizon", "4", "--out", str(out),
            "--quiet",
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2 * 5
        assert verify_effects_csv(out) == 10
        ffr0 = [r for r in rows if r["variable"] == "ffr" and r["horizon"] == "0"][0]
        assert abs(float(ffr0["total"]) - 0.25) <= 1e-12


    def test_instrument_run_builds_one_system(self, tmp_path, var_data,
                                              monkeypatch):
        # three conditions: one identification and one systems form, each
        # channel column the point estimate of its condition
        import tca.cli
        from tca import (InstrumentSpec, TransmissionOrdering,
                         identify_internal_instrument, point_effects,
                         reconstruct_from_single_shock)

        calls = []

        def counted(fn):
            def spy(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return spy

        for fn in (identify_internal_instrument, reconstruct_from_single_shock):
            monkeypatch.setattr(tca.cli, fn.__name__, counted(fn))
        model = tmp_path / "m.json"
        main(["estimate", "--data", str(var_data), "--lags", "2",
              "--out", str(model), "--quiet"])
        out = tmp_path / "e.csv"
        conditions = ["ffr_0", "!ffr_0 & ygap_1", "ffr_1 | ygap_0"]
        code = main([
            "transmission", "--model", str(model), "--order", "ffr,ygap",
            "--shock", "instrument", "--normalize", "ygap=0.5",
            *[arg for c in conditions for arg in ("--condition", c)],
            "--horizon", "3", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert sorted(calls) == ["identify_internal_instrument",
                                 "reconstruct_from_single_shock"]
        rows = list(csv.DictReader(open(out)))
        var = load_model_file(model)
        ordering = TransmissionOrdering.from_names(var.var_names,
                                                   ("ffr", "ygap"))
        for i, cond in enumerate(conditions, start=1):
            table, _ = point_effects(var, InstrumentSpec(2, 0.5), ordering,
                                     cond, 3)
            for row in rows:
                want = table.cell("channel",
                                  ordering.position(row["variable"]),
                                  int(row["horizon"]))
                assert float(row[f"channel_{i}"]) == want

    @pytest.mark.parametrize("command", ["transmission", "bootstrap"])
    @pytest.mark.parametrize("normalize, message", [
        (None, "requires --normalize"),
        ("zz=1", "unknown normalization variable 'zz'"),
    ])
    def test_instrument_normalization_checked(self, tmp_path, var_data,
                                              capsys, command, normalize,
                                              message):
        if command == "transmission":
            model = tmp_path / "m.json"
            main(["estimate", "--data", str(var_data), "--lags", "1",
                  "--out", str(model), "--quiet"])
            source = ["--model", str(model)]
        else:
            source = ["--data", str(var_data), "--lags", "1", "--reps", "5",
                      "--seed", "1"]
        extra = [] if normalize is None else ["--normalize", normalize]
        out = tmp_path / "e.csv"
        code = main([
            command, *source, "--order", "ffr,ygap", "--shock", "instrument",
            "--condition", "ffr_0", "--horizon", "2", "--out", str(out),
            "--quiet", *extra,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_normalize_exits_2(self, tmp_path, model3_path,
                                           capsys):
        code = main([
            "transmission", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--normalize", "x=abc", "--condition", "pi_0",
            "--horizon", "1", "--out", str(tmp_path / "e.csv"), "--quiet",
        ])
        assert code == 2
        assert "--normalize" in capsys.readouterr().err


class TestBootstrap:
    def boot_args(self, data_path, out, seed=5):
        return [
            "bootstrap", "--data", str(data_path), "--lags", "1",
            "--order", "ffr,ygap", "--shock", "instrument",
            "--normalize", "ffr=0.25", "--condition", "!ffr_0",
            "--horizon", "3", "--reps", "25", "--seed", str(seed),
            "--level", "0.9", "--out", str(out), "--quiet",
        ]

    def test_same_seed_byte_identical(self, tmp_path, var_data):
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(self.boot_args(var_data, out1)) == 0
        assert main(self.boot_args(var_data, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_chunk_size_invariance(self, tmp_path, var_data, monkeypatch):
        # all 25 draws in one chunk, then one draw per chunk
        import tca.inference as inf

        chunks = []
        original = inf._draw_effects

        def spy(*args):
            chunks.append(len(args[-1]))
            return original(*args)

        monkeypatch.setattr(inf, "_draw_effects", spy)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(self.boot_args(var_data, out1)) == 0
        monkeypatch.setattr(inf, "CHUNK_BYTES", 1)
        assert main(self.boot_args(var_data, out2)) == 0
        assert chunks == [25] + [1] * 25
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_rep_collapses_bands(self, tmp_path, var_data):
        out = tmp_path / "e.csv"
        args = self.boot_args(var_data, out)
        args[args.index("--reps") + 1] = "1"
        assert main(args) == 0
        for row in csv.DictReader(open(out)):
            assert row["lower"] == row["upper"]

    def test_rows_satisfy_identity(self, tmp_path, var_data):
        out = tmp_path / "e.csv"
        main(self.boot_args(var_data, out))
        assert verify_effects_csv(out) == 8

    def test_unstable_bootstrap_exits_4(self, tmp_path, var_data,
                                        monkeypatch, capsys):
        import tca.cli
        from tca.errors import BootstrapUnstableError

        def unstable(*args, **kwargs):
            raise BootstrapUnstableError("too many degenerate draws")

        monkeypatch.setattr(tca.cli, "bootstrap_effects", unstable)
        code = main(self.boot_args(var_data, tmp_path / "e.csv"))
        assert code == 4

    def test_summary_lists_discards_by_reason(self, tmp_path, var_data,
                                              monkeypatch, capsys):
        import tca.inference

        original = tca.inference._fit

        def first_draw_rank_deficient(XY, k):
            coef, ssr, failed = original(XY, k)
            return coef, ssr, np.where(np.arange(len(failed)) == 0, 1, failed)

        monkeypatch.setattr(tca.inference, "_fit", first_draw_rank_deficient)
        args = self.boot_args(var_data, tmp_path / "e.csv")[:-1]
        assert main(args) == 0
        assert ("reps=25 discarded=1 RankDeficientRegressorsError=1 "
                in capsys.readouterr().out)


class TestSpendingNewsStyleRun:
    def test_or_chain_channel_and_complement_stack(self, tmp_path):
        # news ordered first, spending second; the implementation
        # channel is "through spending at some horizon" and the
        # anticipation channel its complement
        rng = np.random.default_rng(161)
        from conftest import stable_var_coefs
        from tca.condition import any_horizon

        names = ["news", "mil", "gov", "gdp"]
        coefs = stable_var_coefs(rng, 4, 2, radius=0.5)
        data = simulate_var(
            coefs, None, rng.normal(size=(500, 4)), np.zeros((2, 4))
        )
        data_path = tmp_path / "d.csv"
        write_csv(data_path, names, data)
        model = tmp_path / "m.json"
        main(["estimate", "--data", str(data_path), "--lags", "2",
              "--out", str(model), "--quiet"])
        H = 8
        implementation = any_horizon("mil", range(H + 1))
        out = tmp_path / "e.csv"
        code = main([
            "transmission", "--model", str(model),
            "--order", "mil,gov,gdp", "--shock", "instrument",
            "--normalize", "news=1.0",
            "--condition", implementation,
            "--condition", f"!({implementation})",
            "--assert-partition", "--horizon", str(H),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        for row in csv.DictReader(open(out)):
            acc = float(row["channel_1"]) + float(row["channel_2"])
            total = float(row["total"])
            assert abs(acc - total) <= 1e-8 * max(1.0, abs(total))


class TestPaths:
    def test_recursive_model_listing(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model_file(path, three_var_model(0.0, 0.5, 0.8, 1.5))
        code = main([
            "paths", "--model", str(path), "--order", "x,pi,i",
            "--shock", "1", "--target", "i_0", "--horizon", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 2
        assert any("coef = 0.8" in l for l in body)
        assert any("coef = 0.75" in l for l in body)
        assert body[-1].endswith("cum_share=1")

    def test_diagonal_system_one_line_per_variable(self, tmp_path, capsys):
        from tca import VarmaModel

        path = tmp_path / "m.json"
        save_model_file(
            path, VarmaModel(var_names=("a", "b", "c"), A0=np.eye(3))
        )
        code = main([
            "paths", "--model", str(path), "--order", "a,b,c",
            "--shock", "2", "--target", "b_0", "--horizon", "0", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

    def test_shares_sum_to_one(self, tmp_path, model3_path, capsys):
        code = main([
            "paths", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--target", "i_0", "--horizon", "0", "--quiet",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        last_share = float(lines[-1].rpartition("cum_share=")[2])
        assert abs(last_share - 1.0) <= 1e-9

    def test_explosion_exits_5(self, tmp_path, model3_path, monkeypatch,
                               capsys):
        import tca.graph

        monkeypatch.setattr(tca.graph, "PATH_CAP", 1)
        code = main([
            "paths", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--target", "i_0", "--horizon", "0", "--quiet",
        ])
        assert code == 5

    @pytest.mark.parametrize("zero_tol", ["-1", "nan"])
    def test_invalid_zero_tol_exits_2(self, model3_path, capsys, zero_tol):
        code = main([
            "paths", "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "1", "--target", "i_0", "--horizon", "0",
            "--zero-tol", zero_tol,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "zero_tol must be finite and >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["paths", "transmission"])
    def test_non_integer_shock_exits_2(self, tmp_path, model3_path, capsys,
                                       command):
        extra = (["--target", "i_0"] if command == "paths" else
                 ["--condition", "pi_0", "--out", str(tmp_path / "e.csv")])
        code = main([
            command, "--model", str(model3_path), "--order", "x,pi,i",
            "--shock", "one", "--horizon", "0", *extra,
        ])
        assert code == 2
        assert ("--shock must be a 1-based index, got 'one'"
                in capsys.readouterr().err)

    def test_reduced_model_rejected(self, tmp_path, var_data, capsys):
        model = tmp_path / "m.json"
        main(["estimate", "--data", str(var_data), "--lags", "1",
              "--out", str(model), "--quiet"])
        code = main([
            "paths", "--model", str(model), "--order", "ffr,ygap",
            "--shock", "1", "--target", "ygap_0", "--horizon", "0",
        ])
        assert code == 2


class TestVerify:
    def test_ok_file(self, tmp_path, model3_path, capsys):
        out = tmp_path / "e.csv"
        main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0", "--horizon", "2", "--out", str(out),
            "--quiet",
        ])
        assert main(["verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_file_exits_2(self, tmp_path, model3_path, capsys):
        out = tmp_path / "e.csv"
        main([
            "transmission", "--model", str(model3_path),
            "--order", "x,pi,i", "--shock", "1",
            "--condition", "pi_0", "--horizon", "0", "--out", str(out),
            "--quiet",
        ])
        lines = out.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) + 1.0)
        lines[-1] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(out)]) == 2

    @pytest.mark.parametrize("row", [
        "a,0,nan,nan,nan", "a,0,1,nan,0", "a,0,inf,inf,0", "a,0,inf,1,0",
    ])
    def test_non_finite_row_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "e.csv"
        path.write_text("variable,horizon,total,channel,complement\n"
                        f"a,0,1,0.25,0.75\n{row}\n")
        assert main(["verify", str(path)]) == 2
        assert f"{path}:3: decomposition identity violated" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tables_are_not_written(self, tmp_path, bad):
        from tca.cli import _assert_partition, write_effects_csv
        from tca.condition import EffectTable
        from tca.errors import ParseError

        total = np.array([[1.0, bad]])
        table = EffectTable("s", "c", ("a", "b"), 1.0, total,
                            np.array([[0.5, 0.0]]), total - [[0.5, 0.0]])
        with pytest.raises(ValueError, match="identity violated"):
            write_effects_csv(tmp_path / "e.csv", [table])
        with pytest.raises(ParseError, match="do not partition"):
            _assert_partition([table])

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("variable,horizon,total,channel,complement\n"
                        "a,0,1,0.25,0.75\na,1,abc,0,0\n")
        assert main(["verify", str(path)]) == 2
        assert (f"{path}:3: non-numeric value in ['a', '1', 'abc', '0', '0']"
                in capsys.readouterr().err)

    def test_blank_rows_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        head = "variable,horizon,total,channel,complement\na,0,1,0.25,0.75\n"
        path.write_text(head + ",,,,\n , ,\na,1,1,0.5,0.5\n")
        assert main(["verify", str(path)]) == 0
        assert "OK: 2 rows" in capsys.readouterr().out
        path.write_text(head + ",,,,\n,,1,,\n")
        assert main(["verify", str(path)]) == 2
        assert (f"{path}:4: non-numeric value in ['', '', '1', '', '']"
                in capsys.readouterr().err)

    def test_short_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("variable,horizon,total,channel,complement\na,0,1\n")
        assert main(["verify", str(path)]) == 2
        assert f"{path}:2: expected 5 fields, got 3" in capsys.readouterr().err


class TestReadDataCsv:
    def test_round_trip(self, tmp_path, rng):
        data = rng.normal(size=(7, 3))
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b", "c"], data)
        names, loaded = read_data_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(loaded, data)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_data_csv(path)


class TestCsvLineNumbers:
    """Diagnostics name the physical line on which the bad record starts,
    also after a quoted cell that holds a newline."""

    def test_verify_after_multi_line_label(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        save_model_file(model, VarmaModel(var_names=("a\nb", "c"),
                                          A0=[[1.0, 0.0], [-0.5, 1.0]],
                                          A=([[0.5, 0.1], [0.2, 0.4]],)))
        out = tmp_path / "e.csv"
        assert main(["transmission", "--model", str(model),
                     "--order", "a\nb,c", "--shock", "1",
                     "--condition", "c_0", "--horizon", "3",
                     "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        # header, then four records of "a\nb" over two lines each, then c
        assert text.count("\n") == 13
        head, _, last = text.rstrip("\r\n").rpartition("\n")
        cells = last.split(",")
        cells[-1] = "abc"
        out.write_text(head + "\n" + ",".join(cells) + "\n")
        assert main(["verify", str(out)]) == 2
        assert (f"{out}:13: non-numeric value in {cells!r}"
                in capsys.readouterr().err)

    def test_estimate_data_after_multi_line_cell(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text('a,b\n"1.0\n",2.0\n3,4\n5,x\n')
        code = main(["estimate", "--data", str(path), "--lags", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert (f"{path}:5: non-numeric value in ['5', 'x']"
                in capsys.readouterr().err)


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path,
                                                        model3_path, capsys):
        def argvs(tag):
            out = str(tmp_path / f"{tag}.csv")
            common = ["--model", str(model3_path), "--order", "x,pi,i",
                      "--shock", "1", "--out", out, "--quiet"]
            return [
                ["transmission", *common, "--xi", "2", "--normalize",
                 "pi=0.5", "--condition", "pi_0", "--condition", "!pi_0",
                 "--assert-partition", "--horizon", "2"],
                ["verify", out],
                ["transmission", *common, "--condition", "pi_0 &",
                 "--horizon", "1"],
                ["transmission", *common, "--condition", "i_1 | x_0",
                 "--horizon", "3"],
                ["verify", out],
            ]

        in_process = [main(argv) for argv in argvs("same")]
        capsys.readouterr()
        env = {**os.environ,
               "PYTHONPATH": str(Path(tca.cli.__file__).resolve().parents[1])}
        fresh = [
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tca.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                env=env, capture_output=True, timeout=120,
            ).returncode
            for argv in argvs("fresh")
        ]
        assert in_process == fresh == [0, 0, 3, 0, 0]
        assert ((tmp_path / "same.csv").read_bytes()
                == (tmp_path / "fresh.csv").read_bytes())
        assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# The bulk CSV layer against the per-cell one it replaced


LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "100%", "%d%s%%",
          "π ü", "", " padded ", "plain"]
FINITE = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0, -2.0,
          123456789.125, 1e-5, 7e22, 0.1]
NON_FINITE = [np.nan, np.inf, -np.inf]


def _outcome(fn, *args):
    """``("ok", result)`` or ``(class, message)`` of a call."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared class and message alike
        return type(exc), str(exc)


def _random_tables(rng, n_channels, labels):
    labels = tuple(map(str, labels))
    h1 = int(rng.integers(1, 5))
    shape = (h1, len(labels))
    total = rng.choice(FINITE, size=shape) * rng.choice([1.0, 0.5], size=shape)
    mixed = rng.random(shape) < 0.5
    total[mixed] = rng.normal(size=int(mixed.sum()))
    tables = []
    for _ in range(n_channels):
        # shares in [0, 0.3] keep every sum and complement finite
        channel = total * rng.uniform(0.0, 0.3, size=shape)
        channel[rng.random(shape) < 0.2] = -0.0
        tables.append(EffectTable("s", "c", labels, 1.0, total,
                                  channel, total - channel))
    return tables


def _random_bands(rng, shape):
    pool = FINITE + NON_FINITE
    return SimpleNamespace(lower={"channel": rng.choice(pool, size=shape)},
                           upper={"channel": rng.choice(pool, size=shape)})


class TestWriterAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_byte_identical(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_channels = 1 + seed % 3
        labels = rng.choice(LABELS, size=int(rng.integers(1, 5)),
                            replace=False)
        tables = _random_tables(rng, n_channels, labels)
        bands = (None if seed % 2 else
                 _random_bands(rng, tables[0].total.shape))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        assert (_outcome(write_effects_csv, new, tables, bands)
                == _outcome(oracles.write_effects_csv, old, tables, bands))
        if n_channels == 1 or bands is None:
            assert new.read_bytes() == old.read_bytes()
        else:
            assert not new.exists() and not old.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_checks_before_write(self, tmp_path, bad):
        total = np.array([[1.0, bad]])
        # 1e308: channel and complement overflow to -inf and inf
        channel = np.array([[0.5, -bad]])
        tables = [EffectTable("s", "c", ("a", "b"), 1.0, total, channel,
                              total - channel)]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        got = _outcome(write_effects_csv, new, tables)
        assert got == _outcome(oracles.write_effects_csv, old, tables)
        assert got[0] is ValueError
        assert not new.exists()


def _write_reference_file(rng, path, rows):
    """A valid effects file of about ``rows`` rows, written by the
    reference writer from random tables whose labels hold no newline;
    returns its lines without line ends."""
    single_line = [label for label in LABELS
                   if "\n" not in label and "\r" not in label]
    K = int(rng.integers(1, min(len(single_line), rows) + 1))
    h1 = max(1, rows // K)
    tables = [EffectTable("s", "c", t.labels, 1.0,
                          *(np.resize(a, (h1, K))
                            for a in (t.total, t.channel, t.complement)))
              for t in _random_tables(rng, int(rng.integers(1, 4)),
                                      rng.choice(single_line, size=K,
                                                 replace=False))]
    bands = (_random_bands(rng, (h1, K))
             if len(tables) == 1 and rng.random() < 0.5 else None)
    oracles.write_effects_csv(path, tables, bands)
    with open(path, newline="") as fh:
        return fh.read().split("\r\n")[:-1]


def _join(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _mutate(rng, lines, numeric, kinds):
    """Apply each of ``kinds`` to a random body line of ``lines``."""
    lines = list(lines)
    for kind in kinds:
        i = int(rng.integers(1, len(lines)))
        if kind == "blank":
            lines.insert(i, "")
            continue
        if not lines[i]:
            continue
        cells = next(csv.reader([lines[i]]))
        j = int(rng.choice(numeric))
        if kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append("1")
        elif kind == "text":
            cells[j] = "abc"
        elif kind == "underscore":
            cells[j] = "1_0"
        elif kind == "padded":
            cells[j] = f" {cells[j]} "
        elif kind == "spelled":
            cells[j] = str(rng.choice(["Infinity", "-inf", "NaN", "1E3"]))
        elif kind == "nan_total":
            cells[numeric[0]] = "nan"
        elif kind == "identity":
            cells[numeric[0]] = repr(float(cells[numeric[0]]) + 1.0)
        lines[i] = _join(cells)
    return lines


EFFECTS_MUTATIONS = ["blank", "short", "long", "text", "underscore", "padded",
                     "spelled", "nan_total", "identity"]


class TestVerifierAgainstReference:
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("seed", range(30))
    def test_same_count_or_error(self, tmp_path, monkeypatch, seed, batch):
        if batch is not None:
            monkeypatch.setattr(tca.cli, "CSV_BATCH", batch)
        rng = np.random.default_rng(1000 + seed)
        path = tmp_path / "e.csv"
        lines = _write_reference_file(rng, path, int(rng.integers(2, 24)))
        header = lines[0].split(",")
        numeric = [j for j, name in enumerate(header)
                   if name in ("total", "complement")
                   or name.startswith("channel")]
        kinds = rng.choice(EFFECTS_MUTATIONS, size=int(rng.integers(0, 4)))
        eol = str(rng.choice(["\r\n", "\n"]))
        path.write_text(eol.join(_mutate(rng, lines, numeric, kinds)) + eol,
                        newline="")
        assert (_outcome(verify_effects_csv, path)
                == _outcome(oracles.verify_effects_csv, path))

    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "variable,horizon,total,channel,complement\n",
        "variable,horizon,total,channel,complement\n\n\n",
        "variable,horizon,total,complement\na,0,1,1\n",
        "a,b\n1,2\n",
        "variable,horizon,total,channel,complement\n,,,,\n",
        # the channels are summed before the complement: acc is 0.0, not 1.0
        "variable,horizon,total,channel_1,channel_2,complement\n"
        "a,0,5,1e16,1,-1e16\n",
    ])
    def test_special_files(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        assert (_outcome(verify_effects_csv, path)
                == _outcome(oracles.verify_effects_csv, path))

    @pytest.mark.parametrize("kinds", [[], ["text"], ["identity", "short"],
                                       ["nan_total", "blank", "long"]])
    def test_more_than_one_batch(self, tmp_path, kinds):
        rng = np.random.default_rng(len(kinds))
        path = tmp_path / "e.csv"
        batch = tca.cli.CSV_BATCH
        lines = _write_reference_file(rng, path, 2 * batch + 100)
        header = lines[0].split(",")
        numeric = [header.index("total"), header.index("complement")]
        # every mutation in the second batch
        tail = _mutate(rng, lines[batch + 1:], numeric, kinds)
        path.write_text("\n".join(lines[:batch + 1] + tail) + "\n")
        got = _outcome(verify_effects_csv, path)
        assert got == _outcome(oracles.verify_effects_csv, path)
        assert got[0] == ("ok" if not kinds else ValueError)


class TestDataReaderAgainstReference:
    @staticmethod
    def same(path):
        got = _outcome(read_data_csv, path)
        want = _outcome(oracles.read_data_csv, path)
        if got[0] == want[0] == "ok":
            assert got[1][0] == want[1][0]
            assert got[1][1].shape == want[1][1].shape
            assert np.array_equal(got[1][1], want[1][1], equal_nan=True)
        else:
            assert got == want

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("seed", range(30))
    def test_same_data_or_error(self, tmp_path, monkeypatch, seed, batch):
        if batch is not None:
            monkeypatch.setattr(tca.cli, "CSV_BATCH", batch)
        rng = np.random.default_rng(2000 + seed)
        K = int(rng.integers(1, 4))
        lines = [",".join(f" n{k} " if k % 2 else f"n{k}" for k in range(K))]
        lines += [",".join(repr(float(v)) for v in row)
                  for row in rng.normal(size=(int(rng.integers(1, 12)), K))]
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(1, len(lines) + 1))
            kind = rng.choice(["blank", "blank_cells", "short", "long", "cell"])
            if kind == "blank":
                lines.insert(i, "")
            elif kind == "blank_cells":
                lines.insert(i, ",".join([" "] * int(rng.integers(1, K + 2))))
            elif i < len(lines) and lines[i].strip(", "):
                cells = lines[i].split(",")
                if kind == "short":
                    cells.pop()
                elif kind == "long":
                    cells.append("0")
                else:
                    cells[int(rng.integers(K))] = str(rng.choice(
                        ["x", "1_0", " 1.5 ", "nan", "Infinity", "-inf", ""]))
                lines[i] = ",".join(cells)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        self.same(path)

    @pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n\n , \n,\n",
                                      " a , b \n1,2\n", "\n1\n",
                                      "a\n1\n\n2\n"])
    def test_special_files(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        self.same(path)
