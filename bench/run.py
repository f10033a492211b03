"""Benchmark of the focal-calib command-line tool.

Usage, from the repository root:

    python3 bench/run.py --workload csv_k10 --seed 1 --seconds 15 --trace 0

The run self-tests its checks, generates the workload's inputs from
``--seed`` and, for the end-to-end metrics, measures the set-up time of a
fresh interpreter and the peak memory of each command in a fresh
interpreter.  It then hands the commands of one pass to ``worker.py``,
which repeats whole passes through ``focal_calib.cli.main`` in one
process for ``--seconds`` seconds.  The outputs of the last pass are
checked with ``checks.py``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# at most one thread per available core, BLAS included, and the package's
# own thread cap left at its default; set before numpy is imported
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ.pop("FOCAL_CALIB_THREADS", None)

import selftest  # noqa: E402  (after the thread caps)
from workloads import OUT, WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
SETUP_PROGRAM = "import focal_calib.cli as cli; cli.build_parser()"
CLI_PROGRAM = "import sys, focal_calib.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
CHILD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
}
GROUPS = ("transform", "metrics", "ts_fit", "verify", "curve", "thresholds", "synth")

# per-layer metric -> (unit, span name, how one traced pass turns into a value)
TOTAL, PER_CALL, PER_SOLVE = "total", "per_call", "per_solve"
LAYERS = {
    "io.load_s": ("s", "io.load_predictions", TOTAL),
    "io.save_s": ("s", "io.save_predictions", TOTAL),
    "io.write_csv_s": ("s", "io.write_csv", TOTAL),
    "core.recover_rows_s": ("s", "core.recover_posterior_rows", TOTAL),
    "core.recover_vector_us": ("us", "core.recover_posterior", PER_CALL),
    "calibrate.apply_psi_dataset_s": ("s", "calibrate.apply_psi_dataset", TOTAL),
    "calibrate.scale_dataset_s": ("s", "calibrate.scale_dataset", TOTAL),
    "calibrate.fit_temperature_s": ("s", "calibrate.fit_temperature", TOTAL),
    "metrics.bin_reliability_s": ("s", "metrics.bin_reliability", TOTAL),
    "metrics.cw_ece_s": ("s", "metrics.cw_ece", TOTAL),
    "minimizer.inverse_ms": ("ms", "minimizer.minimize_risk_inverse", PER_CALL),
    "minimizer.pg_ms": ("ms", "minimizer.minimize_risk_pg", PER_CALL),
    "thresholds.solve_ms": ("ms", "thresholds.thresholds", PER_SOLVE),
    "verify.run_s": ("s", "verify.run_verify", TOTAL),
    "synth.train_s": ("s", "synth.train_mlp", TOTAL),
    "synth.evaluate_panel_s": ("s", "synth.evaluate_panel", TOTAL),
}
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
ITERATIONS = {
    "minimizer.inverse_iters": "minimizer.minimize_risk_inverse",
    "minimizer.pg_iters": "minimizer.minimize_risk_pg",
}
PER_LAYER = (
    {name: unit for name, (unit, _, _) in LAYERS.items()}
    | {"io.read_mb": "MB", "io.written_mb": "MB"}
    | {name: "count" for name in ITERATIONS}
    | {f"cli.{group}_s": "s" for group in GROUPS}
    | {"cli.self_s": "s", "trace_overhead_s": "s"}
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], env: dict, cwd=None):
    """Run a child process to its end; return its exit code and resource usage.

    The wait blocks: a wait with a timeout polls at growing intervals and
    would round a measured time up to the next poll.
    """
    with subprocess.Popen(args, env=env, cwd=cwd, stdout=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser; one untimed start first fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        rc, _ = run_child([sys.executable, "-c", SETUP_PROGRAM], env)
        if rc != 0:
            raise RuntimeError(f"set-up program exited with {rc}")
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_peak_rss(ops, env: dict, work: Path) -> float:
    """Largest peak resident memory, in MB, of the workload's timed commands,
    each run once in a fresh interpreter as a CLI user runs it."""
    (work / OUT).mkdir(exist_ok=True)
    peak_kib = 0
    for op in ops:
        if op.timed:
            _, usage = run_child([sys.executable, "-c", CLI_PROGRAM, *op.argv], env, work)
            peak_kib = max(peak_kib, usage.ru_maxrss)
    return peak_kib * 1024 / 1e6


def timed_commands(ops, pass_):
    return [(op, cmd) for op, cmd in zip(ops, pass_["commands"]) if op.timed]


def group_seconds(ops, pass_) -> dict[str, float]:
    out: dict[str, float] = {}
    for op, cmd in timed_commands(ops, pass_):
        out[op.group] = out.get(op.group, 0.0) + cmd["s"]
    return out


def wall_seconds(ops, pass_) -> float:
    return sum(cmd["s"] for _, cmd in timed_commands(ops, pass_))


def end_to_end(ops, untraced, setup_s, peak_rss_mb) -> dict[str, float]:
    geomeans = []
    for pass_ in untraced:
        groups = group_seconds(ops, pass_).values()
        geomeans.append(math.exp(statistics.fmean(math.log(s) for s in groups)))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall_seconds(ops, p) for p in untraced),
        "cmd_geomean_s": statistics.median(geomeans),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(ops, pass_) -> dict[str, float]:
    """Per-layer values of one traced pass, over its timed commands."""
    spans: dict[str, dict] = {}
    for _, cmd in timed_commands(ops, pass_):
        for name, entry in cmd["spans"].items():
            total = spans.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
    empty = {"s": 0.0, "calls": 0, "solved": 0, "solved_s": 0.0}
    out = {}
    for metric, (unit, span, how) in LAYERS.items():
        entry = spans.get(span, empty)
        if how == TOTAL:
            seconds = entry["s"]
        elif how == PER_CALL:
            seconds = entry["s"] / entry["calls"] if entry["calls"] else 0.0
        else:
            seconds = entry["solved_s"] / entry["solved"] if entry["solved"] else 0.0
        out[metric] = seconds * SCALE[unit]
    for metric, span in ITERATIONS.items():
        entry = spans.get(span, empty)
        out[metric] = entry.get("iterations", 0) / entry["calls"] if entry["calls"] else 0.0
    out["io.read_mb"] = spans.get("io.load_predictions", {}).get("bytes_read", 0) / 1e6
    out["io.written_mb"] = sum(
        spans.get(name, {}).get("bytes_written", 0)
        for name in ("io.save_predictions", "io.write_csv")
    ) / 1e6
    return out


def per_layer(ops, untraced, traced) -> dict[str, float]:
    values = [layer_values(ops, p) for p in traced]
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    groups = [group_seconds(ops, p) for p in untraced]
    for group in GROUPS:
        out[f"cli.{group}_s"] = statistics.median(g.get(group, 0.0) for g in groups)
    self_s = 0.0
    for i, op in enumerate(ops):
        if op.timed:
            command = statistics.median(p["commands"][i]["s"] for p in untraced)
            layers = statistics.median(
                sum(e["top_s"] for e in p["commands"][i]["spans"].values()) for p in traced
            )
            self_s += command - layers
    out["cli.self_s"] = self_s
    out["trace_overhead_s"] = statistics.median(
        wall_seconds(ops, p) for p in traced
    ) - statistics.median(wall_seconds(ops, p) for p in untraced)
    return out


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def check_outputs(ops, result) -> list[str]:
    """Problems in the last pass's outputs; failed commands are not checked."""
    problems = []
    last = result["passes"][-1]["commands"]
    for op, cmd, text in zip(ops, last, result["outputs"]):
        label = " ".join(op.argv)
        if cmd["rc"] != 0:
            if op.timed:
                log(f"failed (exit {cmd['rc']}): {label}\n{text['stderr']}")
            continue
        try:
            found = op.check(cmd["rc"], text["stdout"])
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems += [f"{label}: {p}" for p in found]
    problems += [f"{' '.join(ops[i].argv)}: output differs between passes" for i in result["unstable"]]
    return problems


def measure(args, work: Path) -> int:
    began = lap = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal lap
        now = time.perf_counter()
        log(f"{name}: {now - lap:.2f} s")
        lap = now

    problems = [f"self-test: {p}" for p in selftest.run(work / "selftest")]
    phase("self-tests")
    env = child_env()
    if not args.trace:
        setup_s = measure_setup(env)
        phase("set-up time")
    ops = WORKLOADS[args.workload](work, args.seed)
    plan = {
        "commands": [op.argv for op in ops],
        "out": OUT,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    (work / "plan.json").write_text(json.dumps(plan))
    phase("inputs")
    if not args.trace:
        peak_rss_mb = measure_peak_rss(ops, env, work)
        phase("peak memory")
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "plan.json", "result.json"],
        cwd=work,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=max(30.0, RUN_BUDGET_S - (time.perf_counter() - began)),
    )
    result = json.loads((work / "result.json").read_text())
    passes = result["passes"]
    phase(f"{len(passes)} passes")
    problems += check_outputs(ops, result)
    phase("checks")

    untraced = [p for p in passes if not p["traced"] and not p["warmup"]]
    if args.trace:
        values = per_layer(ops, untraced, [p for p in passes if p["traced"]])
        units = PER_LAYER
    else:
        values = end_to_end(ops, untraced, setup_s, peak_rss_mb)
        units = END_TO_END
    for line in problems:
        log(f"check failed: {line}")
    report = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(cmd["rc"] != 0 for p in passes for cmd in p["commands"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "focal_calib" / "cli.py").is_file():
        print(f"error: the focal_calib sources are missing under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        log(f"clean-up: {time.perf_counter() - start:.2f} s")
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
