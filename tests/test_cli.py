"""CLI surface: subcommands, exit codes, artifacts, determinism."""

import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import focal_calib
import focal_calib.io as fio
from focal_calib.cli import main
from focal_calib.synth import _FORWARD_ROWS

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

    def test_grid_beyond_any_array_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        argv = ["thresholds", "--gamma", "2", "--grid", str(10**20), "--curve-out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "grid_size must be <= " in captured.err
        assert not out.exists()

    def test_grid_no_array_can_hold_is_data_error(self, tmp_path, capsys):
        # a valid count whose array fails to allocate, without touching memory
        out = tmp_path / "curve.csv"
        argv = ["thresholds", "--gamma", "2", "--grid", str(10**18), "--curve-out", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_empty_grid_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["thresholds", "--gamma", "2", "--grid", "0", "--curve-out", str(out)]) == 3
        assert "grid_size" in capsys.readouterr().err

    def test_empty_grid_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["thresholds", "--gamma", "2", "--grid", "0", "--curve-out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_tolerance_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--tolerance", "1e-10", "thresholds", "--gamma", "2"])
        assert info.value.code == 2


class TestCurveCommand:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--k", str(10**400)], "need k <= "),
            (["--k", "3", "--grid", str(10**20)], "grid_size must be <= "),
        ],
        ids=["k_beyond_float", "grid_beyond_intp"],
    )
    def test_counts_beyond_any_array_are_data_errors(self, capsys, args, message):
        assert main(["curve", "--gamma", "1", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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

    def test_integer_score_beyond_float_range_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        huge = "1" + "0" * 400
        bad.write_text(f'{{"label": 1, "scores": [0.5, 0.5]}}\n{{"label": 1, "scores": [{huge}, 0]}}\n')
        assert main(["metrics", "--input", str(bad)]) == 3
        assert "line 2: non-finite score" in capsys.readouterr().err

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

    def test_unknown_output_suffix_fails_before_reading(
        self, preds_csv, tmp_path, monkeypatch, capsys
    ):
        reader = mock.Mock(side_effect=AssertionError("the input was read"))
        for name in ("_body_parser", "_load_by_line", "load_predictions"):
            monkeypatch.setattr(fio, name, reader)
        out = tmp_path / "out.txt"
        assert main(["transform", "--input", str(preds_csv), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: cannot infer file format from suffix '.txt'; pass it explicitly\n"
        )
        reader.assert_not_called()
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--input", "preds.csv", "--output", "nodir/o.csv"],
        ["metrics", "--input", "preds.csv", "--csv-out", "nodir/r.csv", "--svg-out", "r.svg"],
        ["thresholds", "--gamma", "2", "--curve-out", "nodir/w.csv"],
    ],
    ids=["transform", "metrics", "thresholds"],
)
def test_missing_output_directory_names_the_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("preds.csv").write_text(CSV)
    assert main(argv) == 3
    target = next(arg for arg in argv if arg.startswith("nodir/"))
    assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: {target!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["preds.csv"]


def test_input_error_is_reported_before_a_missing_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("label,s1,s2\n1,0.7,0.3\n1,0.5,0.3\n")
    assert main(["transform", "--input", "bad.csv", "--output", "nodir/o.csv"]) == 3
    assert capsys.readouterr().err.startswith("error: line 3: ")


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
        assert main(["ts-fit", "--input", str(logits_csv), "--gamma", "2"]) == 0
        assert "objective=focal gamma=2" in capsys.readouterr().out

    def test_gamma_selects_the_objective(self, logits_csv, capsys):
        lines = []
        for extra in ([], ["--gamma", "2"]):
            assert main(["ts-fit", "--input", str(logits_csv), *extra]) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert lines[0][1] == "objective=nll"
        assert lines[0][0] != lines[1][0]

    def test_objective_flag_is_a_usage_error(self, logits_csv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ts-fit", "--input", str(logits_csv), "--objective", "nll"])
        assert info.value.code == 2

    def test_renormalize_global_flag(self, tmp_path, capsys):
        probs = tmp_path / "probs.csv"
        probs.write_text("label,s1,s2\n1,0.6,0.3\n2,0.2,0.7\n1,0.5,0.4\n")
        args = ["ts-fit", "--kind", "probabilities", "--input", str(probs)]
        assert main(args) == 3
        assert "sum" in capsys.readouterr().err
        assert main(["--renormalize"] + args) == 0
        assert "temperature=" in capsys.readouterr().out


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

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("epoch=1", "unknown synth config key 'epoch'"),
            ("epochs=5O", "bad value for synth config key 'epochs'"),
            ("gammas=2", "bad value for synth config key 'gammas'"),
        ],
    )
    def test_config_errors_are_data_errors(self, tmp_path, capsys, entry, message):
        code = main(["synth", "--set", entry, "--set", "n_train=100", "--out", str(tmp_path / "run")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_grid_is_data_error(self, tmp_path, capsys):
        code = main(["synth", "--set", "grid_n=0", "--set", "n_train=100", "--out", str(tmp_path / "run")])
        assert code == 3
        assert "grid_n" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.csv").exists()

    # a small run, so that a value the check misses fails fast
    SMALL = ["n_train=50", "n_test=50", "epochs=1", "hidden=4", "grid_n=5", "gammas=[1.0]"]

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("epochs=2.7", "epochs"),
            ("epochs=Infinity", "epochs"),
            ("hidden=true", "hidden"),
            ("learning_rate=true", "learning_rate"),
            ("gammas=[1.0, true]", "gammas"),
            ("n_train=0", "n_train"),
            ("n_test=0", "n_test"),
            ("bins=0", "bins"),
            ("grid_hi=-6", "grid_hi"),
            ("gammas=[-1]", "gammas"),
            ("gammas=[NaN]", "gammas"),
            ("priors=[0.5, 0.5, NaN]", "priors"),
            ("learning_rate=nan", "learning_rate"),
            ("learning_rate=Infinity", "learning_rate"),
            ("weight_decay=nan", "weight_decay"),
            ("sigmas=[1, NaN, 1]", "sigmas"),
            ("means=[0, Infinity, 1]", "means"),
        ],
    )
    def test_bad_value_fails_before_any_output(self, tmp_path, capsys, entry, key):
        sets = [arg for item in self.SMALL + [entry] for arg in ("--set", item)]
        out_dir = tmp_path / "run"
        assert main(["synth", *sets, "--out", str(out_dir)]) == 3
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("sigmas", ["[0.05, 0.05, 0.05]", "[1e-320, 1, 1]"])
    def test_narrow_mixture_writes_no_nan(self, tmp_path, capsys, sigmas):
        # the joint densities of most grid rows underflow to 0 together; a
        # RuntimeWarning fails the test, and one replayed from a worker
        # reaches stderr
        entries = ["n_train=300", "n_test=500", "epochs=2", "hidden=8", "grid_n=21", f"sigmas={sigmas}"]
        out_dir = tmp_path / "run"
        code = main(["synth", *[arg for e in entries for arg in ("--set", e)], "--out", str(out_dir)])
        assert code == 0
        assert "Warning" not in capsys.readouterr().err
        for path in out_dir.glob("*.csv"):
            assert "nan" not in path.read_text().lower(), path.name


class TestSynthOnCpus:
    """``synth`` trains one group of runs per CPU, on the fork pool from two
    CPUs up; its outputs are those of one process training every run."""

    SMALL = [
        arg
        for entry in ("epochs=2", "n_train=300", "n_test=500", "grid_n=21", "hidden=8")
        for arg in ("--set", entry)
    ]

    @staticmethod
    def _run(tmp_path, monkeypatch, capsys, cpus, argv):
        # the exit code, stdout, stderr, warnings and every output file
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out_dir = tmp_path / f"cpus{cpus}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            code = main([*argv, "--out", str(out_dir)])
        printed = capsys.readouterr()
        assert multiprocessing.active_children() == []
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return (
            code,
            printed.out.replace(str(out_dir), "OUT"),
            printed.err,
            [(str(w.message), w.category, w.filename, w.lineno) for w in caught],
            files,
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--plot"],
            ["--set", "gammas=[1, 2, 5]"],
            ["--set", "gammas=[]"],
            ["--set", "epochs=1", "--set", f"n_test={2 * _FORWARD_ROWS + 17}"],
        ],
        ids=["plot", "stacked_group", "one_run", "two_forward_blocks_and_a_tail"],
    )
    def test_files_and_stdout_match_one_process(self, tmp_path, monkeypatch, capsys, extra):
        # three CPUs give the groups [ce], [fl1], [fl2, fl5] for four runs,
        # and gammas=[] one run, which takes no pool; the last case scores
        # test draws in two whole forward blocks and an overlapping tail
        argv = ["--seed", "3", "synth", *self.SMALL, *extra]
        pooled = self._run(tmp_path, monkeypatch, capsys, 3, argv)
        alone = self._run(tmp_path, monkeypatch, capsys, 1, argv)
        assert pooled[0] == 0
        assert pooled == alone

    def test_divergence_matches_one_process(self, tmp_path, monkeypatch, capsys):
        argv = ["synth", *self.SMALL, "--set", "learning_rate=1e9"]
        pooled = self._run(tmp_path, monkeypatch, capsys, 3, argv)
        alone = self._run(tmp_path, monkeypatch, capsys, 1, argv)
        code, _, err, caught, files = pooled
        assert code == 3
        assert "non-finite at gamma=0 (epoch" in err
        # the workers' warnings reach the caller, once each
        assert caught and len(set(caught)) == len(caught)
        assert not [name for name in files if name.startswith("model_")]
        assert pooled == alone

    @pytest.mark.parametrize(
        "fake_epochs, expected",
        [({1.0: 3, 5.0: 4}, "gamma=1 (epoch 3)"), ({1.0: 3, 5.0: 3}, "gamma=5 (epoch 3)")],
    )
    def test_earliest_divergence_wins(self, tmp_path, monkeypatch, capsys, fake_epochs, expected):
        # runs ce, fl5, fl1: ce trains, the fl runs diverge at the given
        # epochs; the error is the earliest epoch's, on a tie the first run's
        real_train = focal_calib.synth.train_mlp

        def train(x, y, configs, k):
            bad = [c.gamma for c in configs if c.gamma in fake_epochs]
            if bad:
                first = min(bad, key=fake_epochs.get)
                epoch = fake_epochs[first]
                raise focal_calib.DivergenceError(f"diverged at gamma={first:g}", epoch)
            return real_train(x, y, configs, k=k)

        monkeypatch.setattr(focal_calib.synth, "train_mlp", train)
        argv = ["synth", *self.SMALL, "--set", "gammas=[5, 1]"]
        for cpus in (3, 1):
            code, _, err, _, files = self._run(tmp_path, monkeypatch, capsys, cpus, argv)
            assert code == 3
            assert err == f"error: diverged at {expected}\n"
            assert sorted(files) == ["dataset.csv", "panel_density.csv", "panel_posterior.csv"]

    @pytest.mark.parametrize("command", [["synth", "--out", "OUT"], ["verify"]])
    def test_negative_seed_is_a_data_error(self, tmp_path, capsys, command):
        argv = [str(tmp_path / "run") if a == "OUT" else a for a in command]
        assert main(["--seed", "-1", *argv]) == 3
        assert "seed must be a whole number >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestVerifyCommand:
    def test_quick_pass(self, capsys):
        code = main(["verify", "--n-random", "20", "--gamma-list", "1", "2", "--k-list", "2", "3", "4"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_large_gamma_passes(self, capsys):
        assert main(["verify", "--gamma-list", "100"]) == 0
        out = capsys.readouterr().out
        (line,) = [row for row in out.splitlines() if "solver_agreement" in row]
        assert line.startswith("PASS ")
        assert "all checks passed" in out

    def test_very_large_gammas_pass(self, capsys):
        # q^g and (1 - q)^g both underflow here; the RuntimeWarning filter
        # turns any silent overflow or 0/0 into a failure
        assert main(["verify", "--gamma-list", "3000", "10000"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "all checks passed" in out

    def test_zero_samples_is_data_error(self, capsys):
        assert main(["verify", "--n-random", "0"]) == 3
        assert "n_random" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--gamma-list", "nan"], "gamma must be a finite value >= 0, got nan"),
            (["--gamma-list", "2", "-1"], "gamma must be a finite value >= 0, got -1.0"),
            (["--k-list", "-3"], "need k >= 2 classes, got -3"),
            (["--k-list", "4", "1"], "need k >= 2 classes, got 1"),
            (["--gamma-list", "2", "0"], "gamma_list must not hold 0"),
            (["--k-list", str(10**20)], f"need k <= {2**63 - 1} classes"),
            (["--n-random", str(10**20)], f"n_random must be <= {2**63 - 1}"),
        ],
    )
    def test_bad_lists_are_data_errors(self, capsys, args, message):
        assert main(["verify", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_draw_no_array_can_hold_is_data_error(self, capsys):
        # a valid count whose draw fails to allocate, without touching memory
        assert main(["verify", "--n-random", str(10**18)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: Unable to allocate")

    def test_failure_exit_code(self, capsys, monkeypatch):
        import focal_calib.cli as cli_mod
        from focal_calib.verify import VerifyCheck, VerifyReport

        failing = VerifyReport((VerifyCheck("recovery_round_trip", 1, 1.0, 1e-7, False),))
        monkeypatch.setattr(cli_mod, "run_verify", lambda **kw: failing)
        assert main(["verify"]) == 1
        assert "FAILED" in capsys.readouterr().err


def test_cli_import_leaves_multiprocessing_unloaded():
    # the benchmark's setup_s times this program; io imports multiprocessing
    # only where it starts the worker pool, and the float formatter only
    # where it writes a prediction file, so that starting the CLI is cheap
    program = (
        "import sys; import focal_calib.cli as cli; cli.build_parser(); "
        "print('multiprocessing' in sys.modules, 'fractions' in sys.modules, "
        "'focal_calib._floattext' in sys.modules); "
        # nor does importing the formatter build its tables
        "from focal_calib import _floattext; "
        "print('fractions' in sys.modules, _floattext._tables.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(focal_calib.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, check=True, env=env
    )
    assert run.stdout.split() == ["False", "False", "False", "False", "0"]
