"""Command line harness: `run` executes one training job and writes its
artifacts, `sweep` repeats it along one axis.

Exit codes: 0 success, 1 configuration or usage error, 2 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, build_env,
                     build_train_config, build_utilities, check_table_sizes,
                     derived_seed, load_config, serialize_config)
from .policy import save_policy
from .primal_dual import PHASES, NumericAbort, train

SWEEP_AXES = ("kappa", "eta_mu", "threshold")

# Final return/violation are means over the last quarter of iterations,
# which smooths single-batch noise out of sweep summaries.
FINAL_FRACTION = 0.25


def _metrics_rows(history, n):
    header = (["t", "objective"] + [f"g_{i}" for i in range(n)]
              + ["violation"] + [f"mu_{i}" for i in range(n)]
              + ["X", "Y", "E"])
    rows = [header]
    for rec in history:
        row = [str(rec.t), repr(rec.objective)]
        row += [repr(v) for v in rec.g_tilde]
        row.append(repr(rec.violation))
        row += [repr(v) for v in rec.mu]
        row += ["" if v is None else repr(v) for v in (rec.X, rec.Y, rec.E)]
        rows.append(row)
    return rows


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def final_quarter_means(history):
    if not history:
        return float("nan"), float("nan")
    k = max(1, int(round(len(history) * FINAL_FRACTION)))
    tail = history[-k:]
    ret = float(np.mean([r.objective for r in tail]))
    vio = float(np.mean([r.violation for r in tail]))
    return ret, vio


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Train once and write metrics.csv, timings.csv, policy.csv and
    manifest.json into ``out_dir``. Returns the manifest mapping.

    On a ``NumericAbort`` the same artifacts are written for the iterations
    completed before it, with manifest ``status`` "numeric_abort", and the
    abort is raised again.
    """
    cmdp = build_env(cfg)
    check_table_sizes(cfg, cmdp)
    out = _make_dir(out_dir)
    objectives, constraints = build_utilities(cfg, cmdp)
    train_cfg = build_train_config(cfg)

    started = time.time()
    try:
        state = train(cmdp, objectives, constraints, train_cfg, cfg.seed)
    except NumericAbort as exc:
        _write_artifacts(cfg, out, exc.state, time.time() - started,
                         {"status": "numeric_abort",
                          "abort_iteration": exc.iteration,
                          "abort_reason": str(exc)})
        raise
    return _write_artifacts(cfg, out, state, time.time() - started,
                            {"status": "ok"})


def _make_dir(path) -> Path:
    """Create the output directory ``path``; an OS error is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc
    return out


def _write_artifacts(cfg, out, state, wall_clock_s, status) -> dict:
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, _metrics_rows(state.history, state.policy.graph.n))
    # timing varies run to run, so it lives outside the deterministic CSV
    _write_csv(out / "timings.csv",
               [["t", "elapsed_ms"] + [f"{p}_ms" for p in PHASES]]
               + [[str(r.t), repr(r.elapsed_ms)]
                  + [repr(r.phase_ms[p]) for p in PHASES]
                  for r in state.history])
    policy_path = out / "policy.csv"
    save_policy(state.policy, policy_path)

    final_return, final_violation = final_quarter_means(state.history)
    manifest = {
        "version": __version__,
        "config": cfg.raw,
        "seed": cfg.seed,
        **status,
        "iterations_completed": state.iteration,
        "oracle": state.oracle,
        "final_return": final_return,
        "final_violation": final_violation,
        "metrics_sha256": _file_hash(metrics_path),
        "policy_sha256": _file_hash(policy_path),
        "wall_clock_s": wall_clock_s,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "config.yaml", "w") as fh:
        fh.write(serialize_config(cfg))
    return manifest


def _apply_axis(cfg: ExperimentConfig, axis, value) -> ExperimentConfig:
    try:
        value = int(value) if axis == "kappa" else float(value)
    except ValueError:
        raise ConfigError(f"sweep axis {axis} cannot take the value "
                          f"{value!r}") from None
    if axis != "threshold":
        return cfg.replace(**{axis: value})
    return cfg.replace(constraint={**cfg["constraint"], "threshold": value})


def run_sweep(cfg: ExperimentConfig, axis, values, out_dir,
              parallel=False) -> list:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = Path(out_dir)
    # every job is parsed, its env built and sized, before any output exists
    jobs = [(_apply_axis(cfg, axis, value).replace(
                 seed=derived_seed(cfg.seed, idx)), out / f"{axis}_{value}")
            for idx, value in enumerate(values)]
    for idx, (value, (run_cfg, run_dir)) in enumerate(zip(values, jobs)):
        if run_dir in [d for _, d in jobs[:idx]]:
            raise ConfigError(f"sweep value {value!r} repeats: two runs "
                              f"would share {run_dir.name}/")
        check_table_sizes(run_cfg, build_env(run_cfg))
    _make_dir(out)

    if parallel:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as pool:
            manifests = list(pool.map(_run_job, jobs))
    else:
        manifests = [_run_job(job) for job in jobs]

    rows = [[axis, "seed", "final_return", "final_violation"]]
    for value, manifest in zip(values, manifests):
        rows.append([str(value), str(manifest["seed"]),
                     repr(manifest["final_return"]),
                     repr(manifest["final_violation"])])
    _write_csv(out / "summary.csv", rows)
    return manifests


def _run_job(job):
    run_cfg, run_dir = job
    return run_experiment(run_cfg, run_dir)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    out_dir = args.out or cfg.out or "runs/run"
    manifest = run_experiment(cfg, out_dir)
    print(f"completed {manifest['iterations_completed']} iterations; "
          f"final return {manifest['final_return']:.6g}, "
          f"final violation {manifest['final_violation']:.6g}; "
          f"artifacts in {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v for v in args.values.split(",") if v != ""]
    out_dir = args.out or cfg.out or "runs/sweep"
    run_sweep(cfg, args.axis, values, out_dir, parallel=args.parallel)
    print(f"swept {args.axis} over {values}; summary in {out_dir}/summary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmarl",
        description="Primal-dual multi-agent trainer for networked "
                    "constrained MDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one training run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per axis value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--parallel", action="store_true")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a numeric abort
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
