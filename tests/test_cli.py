import csv
import json

import numpy as np
import pytest

from conftest import three_var_closed_forms, three_var_model
from tca import VarmaModel, simulate_var
from tca.cli import (
    load_model_file,
    main,
    read_data_csv,
    save_model_file,
    verify_effects_csv,
)


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

    def test_thread_count_invariance(self, tmp_path, var_data, monkeypatch):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        monkeypatch.setenv("TCA_THREADS", "1")
        main(self.boot_args(var_data, out1))
        monkeypatch.setenv("TCA_THREADS", "2")
        main(self.boot_args(var_data, out2))
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
