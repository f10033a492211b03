"""Command-line surface.

Subcommands: ``transform``, ``metrics``, ``thresholds``, ``curve``,
``ts-fit``, ``synth``, ``verify``; global flags ``--seed`` and
``--renormalize`` (numerical tolerances are library constants).  Exit
codes: 0 success, 1 verification failure, 2 usage error (argparse's
default), 3 data error (an array too large to allocate included).
Arguments are checked before any output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import apply_psi_dataset, fit_temperature, scale_dataset
from .core import require_count
from .errors import CalibrationError, DomainError
from .io import FileFormat, _atomic_writer, load_predictions, transform_file, write_csv
from .metrics import PredictionSet, ScoreKind, bin_reliability, cw_ece, error_rate, nll
from .minimizer import confidence_curve
from .plotting import emit_reliability_svg, emit_score_curves_svg
from .synth import SyntheticDistribution, TrainConfig, default_distribution, run_experiment
from .thresholds import thresholds as solve_thresholds
from .thresholds import weight_curve
from .verify import DEFAULT_GAMMAS, DEFAULT_KS, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
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
    v, w = weight_curve(args.gamma, args.grid)
    pair = solve_thresholds(args.gamma)
    print(f"gamma={pair.gamma:g}")
    print(f"tau_oc={pair.tau_oc:.12f}")
    print(f"tau_uc={pair.tau_uc:.12f}")
    out = args.curve_out or f"weight_curve_gamma{args.gamma:g}.csv"
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

    def rows_fn(preds: PredictionSet) -> PredictionSet:
        if args.temperature is not None:
            preds = scale_dataset(preds, args.temperature)
        elif kind is ScoreKind.LOGITS:
            preds = scale_dataset(preds, 1.0)
        if args.psi is not None:
            preds = apply_psi_dataset(preds, args.psi)
        return preds

    transform_file(
        args.input,
        args.output,
        rows_fn,
        kind,
        args.renormalize,
        _format_arg(args.format),
        _format_arg(args.output_format),
    )
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_ts_fit(args) -> int:
    preds = load_predictions(
        args.input, _format_arg(args.format), _kind_arg(args.kind), args.renormalize
    )
    fit = fit_temperature(preds, args.gamma)
    print(f"temperature={fit.temperature:.6f}")
    print("objective=nll" if fit.gamma == 0.0 else f"objective=focal gamma={fit.gamma:g}")
    print(f"achieved={fit.achieved:.6f}")
    print(f"baseline_t1={fit.baseline:.6f}")
    return EXIT_OK


# the synth run's own config keys and defaults; the distribution and training
# keys take theirs from default_distribution() and TrainConfig
_RUN_DEFAULTS = {
    "n_train": 10_000,
    "n_test": 100_000,
    "gammas": (1.0, 5.0),
    "grid_lo": -6.0,
    "grid_hi": 6.0,
    "grid_n": 601,
    "bins": 10,
}


def _convert(default, raw):
    # raw as its key's type: a list key takes a list of floats, a scalar key
    # its default's type.  A boolean, or a float that the conversion changes
    # (a fraction for an integer key, or NaN), raises ValueError.
    items = raw if isinstance(default, tuple) else [raw]
    if not isinstance(items, (list, tuple)) or any(isinstance(v, bool) for v in items):
        raise ValueError(raw)
    value = tuple(map(float, items)) if isinstance(default, tuple) else type(default)(raw)
    if isinstance(raw, float) and value != raw:
        raise ValueError(raw)
    return value


def _build_synth_config(cfg: dict, seed: int) -> tuple[SyntheticDistribution, TrainConfig, dict]:
    dist = asdict(default_distribution())
    # each model sets its own gamma, and --seed sets the seed
    train = {f.name: f.default for f in fields(TrainConfig) if f.name not in ("gamma", "seed")}
    values = {**dist, **train, **_RUN_DEFAULTS}
    unknown = sorted(cfg.keys() - values.keys())
    if unknown:
        raise CalibrationError(f"unknown synth config key {unknown[0]!r}")
    for key, raw in cfg.items():
        try:
            values[key] = _convert(values[key], raw)
        except (TypeError, ValueError, OverflowError):
            raise CalibrationError(f"bad value for synth config key {key!r}: {raw!r}") from None
    for key in ("n_train", "n_test", "grid_n", "bins"):
        require_count(values[key], key, 1)
    lo, hi = values["grid_lo"], values["grid_hi"]
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite grid_lo < grid_hi, got {lo} and {hi}")
    if not all(np.isfinite(g) and g >= 0.0 for g in values["gammas"]):
        raise DomainError(f"gammas must be finite values >= 0, got {list(values['gammas'])}")
    return (
        SyntheticDistribution(**{key: values[key] for key in dist}),
        TrainConfig(seed=seed, **{key: values[key] for key in train}),
        {key: values[key] for key in _RUN_DEFAULTS},
    )


def _cmd_synth(args) -> int:
    cfg = _parse_config(args.config, args.set or ())
    dist, base_config, opt = _build_synth_config(cfg, args.seed)
    # each sample has its own seeded generator, so the draws do not depend
    # on their order
    x_train, y_train = dist.sample(opt["n_train"], args.seed)
    val = dist.sample(opt["n_train"], args.seed + 1)
    test = dist.sample(opt["n_test"], args.seed + 2)
    grid = np.linspace(opt["grid_lo"], opt["grid_hi"], opt["grid_n"])
    eta_grid = dist.posterior(grid)
    # written before training, so a run that diverges leaves these three
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "dataset.csv", ["x", "label"], zip(x_train, (int(v) for v in y_train)))
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
    runs = run_experiment(
        dist, base_config, opt["gammas"], (x_train, y_train), val, test, grid, opt["bins"]
    )

    summary = []
    for name, model, history, panels in runs:
        with _atomic_writer(out_dir / f"model_{name}.npz", "wb") as fh:
            np.savez(fh, **model.state())
        write_csv(out_dir / f"loss_{name}.csv", ["epoch", "loss"], enumerate(history, 1))
        for variant, panel in panels:
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
    p.add_argument(
        "--gamma", type=float, default=0.0, help="focal gamma of the objective; 0 (default) is NLL"
    )
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
    except (CalibrationError, MemoryError) as exc:
        # a MemoryError is an array too large to allocate (say --grid 10**18),
        # not a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
