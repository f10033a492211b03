"""CLI surface: subcommands, exit codes, artifacts, determinism."""

import numpy as np
import pytest

from focal_calib.cli import main

CSV = "label,s1,s2,s3\n1,0.7,0.2,0.1\n2,0.3,0.5,0.2\n3,0.2,0.2,0.6\n1,0.4,0.35,0.25\n"


@pytest.fixture
def preds_csv(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text(CSV)
    return path


@pytest.fixture
def logits_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["label,s1,s2"]
    for _ in range(200):
        eta = rng.dirichlet(np.ones(2))
        label = 1 + int(rng.random() > eta[0])
        z = 2.0 * np.log(np.clip(eta, 1e-12, None))
        lines.append(f"{label},{z[0]:.17g},{z[1]:.17g}")
    path = tmp_path / "logits.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestThresholdsCommand:
    def test_prints_and_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["thresholds", "--gamma", "2", "--curve-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "tau_oc=" in printed and "tau_uc=" in printed
        header, first = out.read_text().splitlines()[:2]
        assert header == "v,weight"
        assert first.startswith("0,1")

    def test_large_gamma(self, tmp_path, capsys):
        # (1 - v)^g underflows on most of [0, 0.5] at this gamma
        out = tmp_path / "curve.csv"
        assert main(["thresholds", "--gamma", "10000", "--curve-out", str(out)]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()[:3])
        assert float(printed["tau_oc"]) == pytest.approx(7.8834e-5, rel=1e-4)
        assert float(printed["tau_uc"]) == pytest.approx(3.3165e-4, rel=1e-4)

    def test_gamma_zero_is_data_error(self, capsys):
        assert main(["thresholds", "--gamma", "0"]) == 3

    def test_empty_grid_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["thresholds", "--gamma", "2", "--grid", "0", "--curve-out", str(out)]) == 3
        assert "grid_size" in capsys.readouterr().err


class TestCurveCommand:
    def test_stdout_csv(self, capsys):
        assert main(["curve", "--k", "2", "--gamma", "1", "--grid", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "max_eta,max_qstar"
        assert len(lines) == 5
        for line in lines[1:]:
            m, q = map(float, line.split(","))
            assert q < m


class TestMetricsCommand:
    def test_reports_and_artifacts(self, preds_csv, tmp_path, capsys):
        csv_out = tmp_path / "rel.csv"
        svg_out = tmp_path / "rel.svg"
        code = main(
            [
                "metrics",
                "--input",
                str(preds_csv),
                "--bins",
                "5",
                "--csv-out",
                str(csv_out),
                "--svg-out",
                str(svg_out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "ece=" in printed and "cw_ece=" in printed
        assert "nll=" in printed and "error_rate=" in printed
        assert csv_out.exists() and svg_out.exists()

    def test_recovery_flag_changes_ece_not_error(self, preds_csv, tmp_path, capsys):
        args = ["metrics", "--input", str(preds_csv), "--bins", "5"]
        kwargs = ["--csv-out", str(tmp_path / "a.csv"), "--svg-out", str(tmp_path / "a.svg")]
        main(args + kwargs)
        raw = capsys.readouterr().out
        main(args + ["--psi", "2"] + kwargs)
        rec = capsys.readouterr().out

        def field(out, name):
            return [l for l in out.splitlines() if l.startswith(name)][0]

        assert field(raw, "error_rate") == field(rec, "error_rate")
        assert field(raw, "ece") != field(rec, "ece")

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,s1,s2\n1,0.9,0.5\n")
        assert main(["metrics", "--input", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_renormalize_global_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,s1,s2\n1,0.9,0.5\n")
        args = ["--renormalize", "metrics", "--input", str(bad)]
        kwargs = ["--csv-out", str(tmp_path / "r.csv"), "--svg-out", str(tmp_path / "r.svg")]
        assert main(args + kwargs) == 0


class TestTransformCommand:
    def test_recovery_roundtrip_formats(self, preds_csv, tmp_path):
        out = tmp_path / "out.jsonl"
        code = main(
            [
                "transform",
                "--input",
                str(preds_csv),
                "--output",
                str(out),
                "--psi",
                "2",
            ]
        )
        assert code == 0
        from focal_calib import load_predictions

        loaded = load_predictions(out)
        assert loaded.n == 4
        np.testing.assert_allclose(loaded.scores.sum(axis=1), 1.0, atol=1e-9)

    def test_temperature_then_recovery(self, logits_csv, tmp_path):
        out = tmp_path / "cal.csv"
        code = main(
            [
                "transform",
                "--input",
                str(logits_csv),
                "--kind",
                "logits",
                "--temperature",
                "2.0",
                "--psi",
                "1.0",
                "--output",
                str(out),
            ]
        )
        assert code == 0

    def test_recovery_accepts_rows_within_file_tolerance(self, tmp_path, capsys):
        # the row sums to 1 and its negative entry is within ROW_SUM_TOL, so
        # the file loads; the transform must take it too
        src = tmp_path / "edge.csv"
        src.write_text("label,s1,s2,s3\n1,0.6000005,0.4,-0.0000005\n")
        out = tmp_path / "edge_psi.csv"
        assert main(["transform", "--input", str(src), "--output", str(out), "--psi", "2"]) == 0
        header, row = out.read_text().splitlines()
        assert header == "label,s1,s2,s3"
        scores = np.array([float(v) for v in row.split(",")[1:]])
        assert np.isfinite(scores).all()
        assert abs(scores.sum() - 1.0) < 1e-12
        assert int(np.argmax(scores)) == 0

    def test_recovery_at_large_gamma_near_one(self, tmp_path):
        # (1 - v)^100 underflows for these tops; the log-domain transform
        # must still return finite rows that keep the argmax and top
        rows = ["label,s1,s2,s3,s4"]
        for top in (0.999, 0.9995, 0.9999):
            rest = (1.0 - top) / 3
            rows.append(f"1,{top!r},{rest!r},{rest!r},{rest!r}")
        src = tmp_path / "near_one.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "near_one_psi.csv"
        assert main(["transform", "--input", str(src), "--output", str(out), "--psi", "100"]) == 0
        scores = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert np.isfinite(scores).all()
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert (scores.argmax(axis=1) == 0).all()
        assert (scores[:, 0] >= np.array([0.999, 0.9995, 0.9999])).all()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transform", "--input", "x.csv"])  # missing --output
        assert info.value.code == 2


class TestTsFitCommand:
    def test_recovers_doubled_scale(self, logits_csv, capsys):
        assert main(["ts-fit", "--input", str(logits_csv)]) == 0
        printed = capsys.readouterr().out
        t = float([l for l in printed.splitlines() if l.startswith("temperature=")][0].split("=")[1])
        assert 1.7 < t < 2.3
        achieved = float([l for l in printed.splitlines() if l.startswith("achieved=")][0].split("=")[1])
        baseline = float([l for l in printed.splitlines() if l.startswith("baseline_t1=")][0].split("=")[1])
        assert achieved <= baseline

    def test_focal_objective(self, logits_csv, capsys):
        code = main(["ts-fit", "--input", str(logits_csv), "--objective", "focal", "--gamma", "2"])
        assert code == 0
        assert "objective=focal gamma=2" in capsys.readouterr().out


class TestSynthCommand:
    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "epochs = 2\nn_train = 400\nn_test = 1000\ngammas = [1.0]\ngrid_n = 41\nhidden = 8\n"
        )
        out_dir = tmp_path / "run"
        code = main(
            ["--seed", "5", "synth", "--config", str(cfg), "--out", str(out_dir), "--plot"]
        )
        assert code == 0
        expected = [
            "dataset.csv",
            "panel_posterior.csv",
            "panel_density.csv",
            "model_ce.npz",
            "model_fl1.npz",
            "panel_ce_raw.csv",
            "panel_fl1_raw.csv",
            "panel_fl1_ts.csv",
            "panel_fl1_psi.csv",
            "panel_fl1_psi.svg",
            "summary.csv",
        ]
        for name in expected:
            assert (out_dir / name).exists(), name
        printed = capsys.readouterr().out
        assert "fl1_psi:" in printed

    def test_set_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 50\nn_train = 200\nn_test = 500\ngammas = [1.0]\ngrid_n = 21\nhidden = 8\n")
        out_dir = tmp_path / "run"
        code = main(
            ["synth", "--config", str(cfg), "--set", "epochs=1", "--set", "gammas=[0]",
             "--out", str(out_dir)]
        )
        assert code == 0
        # one epoch means a single row below the header
        assert len((out_dir / "loss_ce.csv").read_text().splitlines()) == 2
        # a focal run at gamma 0 still gets its temperature and recovery panels
        for name in ("panel_fl0_raw.csv", "panel_fl0_ts.csv", "panel_fl0_psi.csv"):
            assert (out_dir / name).exists(), name

    def test_deterministic_given_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 1\nn_train = 200\nn_test = 500\ngammas = [1.0]\ngrid_n = 21\nhidden = 8\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "9", "synth", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["--seed", "9", "synth", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "summary.csv").read_text() == (b / "summary.csv").read_text()

    def test_models_equal_single_config_training(self, tmp_path, capsys):
        from focal_calib import TrainConfig, default_distribution, train_mlp

        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 2\nn_train = 300\nn_test = 500\ngammas = [1.0, 2.0]\ngrid_n = 21\nhidden = 8\n")
        out_dir = tmp_path / "run"
        assert main(["--seed", "4", "synth", "--config", str(cfg), "--out", str(out_dir)]) == 0
        x, y = default_distribution().sample(300, 4)
        for name, gamma in (("ce", 0.0), ("fl1", 1.0), ("fl2", 2.0)):
            model, _ = train_mlp(x, y, TrainConfig(gamma=gamma, epochs=2, hidden=8, seed=4), k=3)
            with np.load(out_dir / f"model_{name}.npz") as saved:
                for key, value in model.state().items():
                    np.testing.assert_array_equal(saved[key], value)

    def test_empty_grid_is_data_error(self, tmp_path, capsys):
        code = main(["synth", "--set", "grid_n=0", "--set", "n_train=100", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "grid_n" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_writes_no_models(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 5\nn_train = 300\nn_test = 500\ngammas = [2.0]\ngrid_n = 21\nhidden = 8\n")
        out_dir = tmp_path / "run"
        code = main(
            ["synth", "--config", str(cfg), "--set", "learning_rate=1e9", "--out", str(out_dir)]
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not list(out_dir.glob("model_*.npz"))


class TestVerifyCommand:
    def test_quick_pass(self, capsys):
        code = main(["verify", "--n-random", "20", "--gamma-list", "1", "2", "--k-list", "2", "3", "4"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_zero_samples_is_data_error(self, capsys):
        assert main(["verify", "--n-random", "0"]) == 3
        assert "n_random" in capsys.readouterr().err

    def test_failure_exit_code(self, capsys, monkeypatch):
        import focal_calib.cli as cli_mod
        from focal_calib.verify import VerifyCheck, VerifyReport

        failing = VerifyReport((VerifyCheck("recovery_round_trip", 1, 1.0, 1e-7, False),))
        monkeypatch.setattr(cli_mod, "run_verify", lambda **kw: failing)
        assert main(["verify"]) == 1
        assert "FAILED" in capsys.readouterr().err
