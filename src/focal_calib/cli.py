"""Command-line surface.

Subcommands: ``transform``, ``metrics``, ``thresholds``, ``curve``,
``ts-fit``, ``synth``, ``verify``; global flags ``--seed``,
``--tolerance``, ``--renormalize``.  Exit codes: 0 success, 1
verification failure, 2 usage error (argparse's default), 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    Objective,
    apply_psi_dataset,
    apply_temperature,
    fit_temperature,
    scale_dataset,
    softmax,
)
from .errors import CalibrationError, DomainError
from .io import FileFormat, _atomic_writer, load_predictions, save_predictions, write_csv
from .metrics import PredictionSet, ScoreKind, bin_reliability, cw_ece, error_rate, nll
from .minimizer import confidence_curve
from .plotting import emit_reliability_svg, emit_score_curves_svg
from .synth import (
    SyntheticDistribution,
    TrainConfig,
    default_distribution,
    evaluate_panel,
    train_mlp,
)
from .thresholds import thresholds as solve_thresholds
from .thresholds import weight_curve
from .verify import DEFAULT_GAMMAS, DEFAULT_KS, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _format_arg(value: str | None) -> FileFormat | None:
    return None if value is None else FileFormat(value)


def _kind_arg(value: str) -> ScoreKind:
    return ScoreKind.PROBABILITIES if value == "probabilities" else ScoreKind.LOGITS


def _parse_config_line(raw: str) -> tuple[str, object]:
    if "=" not in raw:
        raise CalibrationError(f"bad config entry (expected key = value): {raw!r}")
    key, _, rhs = raw.partition("=")
    rhs = rhs.strip()
    try:
        return key.strip(), json.loads(rhs)
    except json.JSONDecodeError:
        return key.strip(), rhs.strip("\"'")


def _parse_config(path: str, overrides=()) -> dict:
    """Flat key=value config (TOML-style scalars and [lists]), '#' comments.

    ``overrides`` are ``key=value`` strings (from ``--set``) that win over
    the file.
    """
    values: dict = {}
    if path:
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = _parse_config_line(line)
                values[key] = value
    for entry in overrides:
        key, value = _parse_config_line(entry)
        values[key] = value
    return values


def _cmd_thresholds(args) -> int:
    pair = solve_thresholds(args.gamma, args.tolerance)
    print(f"gamma={pair.gamma:g}")
    print(f"tau_oc={pair.tau_oc:.12f}")
    print(f"tau_uc={pair.tau_uc:.12f}")
    out = args.curve_out or f"weight_curve_gamma{args.gamma:g}.csv"
    v, w = weight_curve(args.gamma, args.grid)
    write_csv(out, ["v", "weight"], zip(v, w))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    pairs = confidence_curve(args.k, args.gamma, args.grid)
    if args.out:
        write_csv(args.out, ["max_eta", "max_qstar"], pairs)
        print(f"wrote {args.out}")
    else:
        print("max_eta,max_qstar")
        for m, q in pairs:
            print(f"{m:.17g},{q:.17g}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    preds = load_predictions(
        args.input, _format_arg(args.format), ScoreKind.PROBABILITIES, args.renormalize
    )
    if args.psi is not None:
        preds = apply_psi_dataset(preds, args.psi)
    report = bin_reliability(preds, args.bins)
    print(f"n={preds.n} k={preds.k} bins={args.bins}")
    print(f"ece={report.ece:.6f}")
    print(f"cw_ece={cw_ece(preds, args.bins):.6f}")
    print(f"nll={nll(preds, safe=True):.6f}")
    print(f"error_rate={error_rate(preds):.6f}")
    stem = Path(args.input).stem
    csv_out = args.csv_out or f"{stem}_reliability.csv"
    svg_out = args.svg_out or f"{stem}_reliability.svg"
    write_csv(
        csv_out,
        ["bin", "count", "accuracy", "confidence"],
        (
            (j + 1, int(report.counts[j]), report.accuracy[j], report.confidence[j])
            for j in range(report.n_bins)
        ),
    )
    emit_reliability_svg(report, svg_out)
    print(f"wrote {csv_out}")
    print(f"wrote {svg_out}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    kind = _kind_arg(args.kind)
    preds = load_predictions(args.input, _format_arg(args.format), kind, args.renormalize)
    if args.temperature is not None:
        preds = scale_dataset(preds, args.temperature)
    elif kind is ScoreKind.LOGITS:
        preds = scale_dataset(preds, 1.0)
    if args.psi is not None:
        preds = apply_psi_dataset(preds, args.psi)
    save_predictions(preds, args.output, _format_arg(args.output_format))
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_ts_fit(args) -> int:
    preds = load_predictions(args.input, _format_arg(args.format), _kind_arg(args.kind))
    objective = Objective.NLL if args.objective == "nll" else Objective.FOCAL
    fit = fit_temperature(preds, objective, args.gamma)
    print(f"temperature={fit.temperature:.6f}")
    suffix = f" gamma={fit.gamma:g}" if objective is Objective.FOCAL else ""
    print(f"objective={fit.objective.value}{suffix}")
    print(f"achieved={fit.achieved:.6f}")
    print(f"baseline_t1={fit.baseline:.6f}")
    return EXIT_OK


def _build_synth_config(cfg: dict, seed: int) -> tuple[SyntheticDistribution, TrainConfig, dict]:
    dist = default_distribution()
    if {"priors", "means", "sigmas"} & cfg.keys():
        dist = SyntheticDistribution(
            priors=tuple(cfg.get("priors", dist.priors)),
            means=tuple(cfg.get("means", dist.means)),
            sigmas=tuple(cfg.get("sigmas", dist.sigmas)),
        )
    base = TrainConfig(
        epochs=int(cfg.get("epochs", 50)),
        batch_size=int(cfg.get("batch_size", 64)),
        learning_rate=float(cfg.get("learning_rate", 0.01)),
        momentum=float(cfg.get("momentum", 0.9)),
        weight_decay=float(cfg.get("weight_decay", 1e-3)),
        hidden=int(cfg.get("hidden", 64)),
        seed=seed,
    )
    options = {
        "n_train": int(cfg.get("n_train", 10_000)),
        "n_test": int(cfg.get("n_test", 100_000)),
        "gammas": [float(g) for g in cfg.get("gammas", [1.0, 5.0])],
        "grid_lo": float(cfg.get("grid_lo", -6.0)),
        "grid_hi": float(cfg.get("grid_hi", 6.0)),
        "grid_n": int(cfg.get("grid_n", 601)),
        "bins": int(cfg.get("bins", 10)),
    }
    if options["grid_n"] < 1:
        raise DomainError(f"grid_n must be >= 1, got {options['grid_n']}")
    return dist, base, options


def _cmd_synth(args) -> int:
    cfg = _parse_config(args.config, args.set or ())
    dist, base_config, opt = _build_synth_config(cfg, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    x_train, y_train = dist.sample(opt["n_train"], args.seed)
    write_csv(out_dir / "dataset.csv", ["x", "label"], zip(x_train, (int(v) for v in y_train)))
    grid = np.linspace(opt["grid_lo"], opt["grid_hi"], opt["grid_n"])
    eta_grid = dist.posterior(grid)
    write_csv(
        out_dir / "panel_posterior.csv",
        ["x"] + [f"eta{i}" for i in range(1, dist.k + 1)],
        (tuple([g] + list(row)) for g, row in zip(grid, eta_grid)),
    )
    write_csv(
        out_dir / "panel_density.csv",
        ["x"] + [f"joint{i}" for i in range(1, dist.k + 1)] + ["marginal"],
        (tuple([g] + list(row) + [row.sum()]) for g, row in zip(grid, dist.joint_density(grid))),
    )

    # (run name, training gamma, whether to add the _ts and _psi variants)
    runs = [("ce", 0.0, False)] + [(f"fl{g:g}", g, True) for g in opt["gammas"]]
    trained = train_mlp(
        x_train, y_train, [replace(base_config, gamma=g) for _, g, _ in runs], k=dist.k
    )
    x_val, y_val = dist.sample(opt["n_train"], args.seed + 1)
    x_test, y_test = dist.sample(opt["n_test"], args.seed + 2)
    summary = []
    for (name, gamma, focal), (model, history) in zip(runs, trained):
        with _atomic_writer(out_dir / f"model_{name}.npz", "wb") as fh:
            np.savez(fh, **model.state())
        write_csv(out_dir / f"loss_{name}.csv", ["epoch", "loss"], enumerate(history, 1))

        # one forward per input set; every variant is derived from its logits
        grid_logits = model.predict_logits(grid)
        test_logits = model.predict_logits(x_test)
        q_grid, q_test = softmax(grid_logits), softmax(test_logits)
        # (variant name, grid rows, test rows, recovery gamma)
        variants = [(f"{name}_raw", q_grid, q_test, None)]
        if focal:
            fit = fit_temperature(
                PredictionSet(model.predict_logits(x_val), y_val, ScoreKind.LOGITS),
                Objective.NLL,
            )
            t = fit.temperature
            variants.append(
                (
                    f"{name}_ts",
                    apply_temperature(grid_logits, t),
                    apply_temperature(test_logits, t),
                    None,
                )
            )
            variants.append((f"{name}_psi", q_grid, q_test, gamma))

        for variant, variant_grid, variant_test, gamma_for_recovery in variants:
            panel = evaluate_panel(
                variant_grid,
                eta_grid,
                variant_test,
                y_test,
                gamma_for_recovery=gamma_for_recovery,
                n_bins=opt["bins"],
            )
            write_csv(
                out_dir / f"panel_{variant}.csv",
                ["x"] + [f"q{i}" for i in range(1, dist.k + 1)],
                (tuple([g] + list(row)) for g, row in zip(grid, panel.grid_scores)),
            )
            summary.append((variant, panel.err, panel.mean_kld, panel.ece))
            print(f"{variant}: err={panel.err:.4f} kld={panel.mean_kld:.4f} ece={panel.ece:.4f}")
            if args.plot:
                emit_score_curves_svg(
                    grid,
                    panel.grid_scores,
                    eta_grid,
                    out_dir / f"panel_{variant}.svg",
                    f"{variant} (ERR={panel.err:.3f} KLD={panel.mean_kld:.3f} "
                    f"ECE={panel.ece:.3f})",
                )
    write_csv(out_dir / "summary.csv", ["panel", "err", "kld", "ece"], summary)
    print(f"wrote {out_dir}/summary.csv")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify(
        gamma_list=args.gamma_list or DEFAULT_GAMMAS,
        k_list=args.k_list or DEFAULT_KS,
        n_random=args.n_random,
        seed=args.seed,
    )
    print(report.format_table())
    if report.all_passed:
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focal-calib",
        description="Focal-loss confidence calibration: recovery transform, "
        "thresholds, metrics, and the synthetic experiment.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    parser.add_argument("--tolerance", type=float, default=1e-10, help="solver tolerance")
    parser.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale probability rows that do not sum to 1",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="solve the over/underconfidence thresholds")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=int, default=1001, help="points in the exported curve")
    p.add_argument("--curve-out", help="CSV path for (v, weight) pairs")
    p.set_defaults(handler=_cmd_thresholds)

    p = sub.add_parser("curve", help="top-posterior vs top-score curve")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("metrics", help="calibration metrics for a prediction file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--psi", type=float, help="apply the recovery transform first")
    p.add_argument("--csv-out")
    p.add_argument("--svg-out")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("transform", help="temperature-scale and/or recover a file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--output-format", choices=["csv", "jsonl"])
    p.add_argument("--kind", choices=["probabilities", "logits"], default="probabilities")
    p.add_argument("--psi", type=float, help="recovery transform parameter")
    p.add_argument("--temperature", type=float)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("ts-fit", help="fit a temperature on a logit file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--kind", choices=["probabilities", "logits"], default="logits")
    p.add_argument("--objective", choices=["nll", "focal"], default="nll")
    p.add_argument("--gamma", type=float, default=0.0, help="focal objective parameter")
    p.set_defaults(handler=_cmd_ts_fit)

    p = sub.add_parser("synth", help="run the synthetic mixture experiment")
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plot", action="store_true", help="emit score-vs-x SVG panels")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("verify", help="run the mathematical verification suite")
    p.add_argument("--gamma-list", type=float, nargs="+")
    p.add_argument("--k-list", type=int, nargs="+")
    p.add_argument("--n-random", type=int, default=200)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
