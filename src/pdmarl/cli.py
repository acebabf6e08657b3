"""Command line harness: `run` executes one training job and writes its
artifacts, `sweep` repeats it along one axis, `verify` checks the built-in
invariants on small instances.

Exit codes: 0 success, 1 configuration error, 2 numeric abort.
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
                     build_train_config, build_utilities, check_policy_size,
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
    manifest.json into ``out_dir``. Returns the manifest mapping."""
    cmdp = build_env(cfg)
    check_policy_size(cfg, cmdp)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    objectives, constraints = build_utilities(cfg, cmdp)
    train_cfg = build_train_config(cfg)

    started = time.time()
    state = train(cmdp, objectives, constraints, train_cfg, cfg.seed)
    wall_clock_s = time.time() - started

    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, _metrics_rows(state.history, cmdp.n_agents))
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
        "iterations_completed": state.iteration,
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
    if axis == "kappa":
        return cfg.replace(kappa=int(value))
    if axis == "eta_mu":
        return cfg.replace(eta_mu=float(value))
    constraint = dict(cfg["constraint"])
    constraint["threshold"] = float(value)
    return cfg.replace(constraint=constraint)


def run_sweep(cfg: ExperimentConfig, axis, values, out_dir,
              parallel=False) -> list:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for idx, value in enumerate(values):
        run_cfg = _apply_axis(cfg, axis, value)
        run_cfg = run_cfg.replace(seed=derived_seed(cfg.seed, idx))
        jobs.append((run_cfg, out / f"{axis}_{value}"))

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


# -- verify ------------------------------------------------------------------

def _verify_checks():
    """Yield (name, callable) invariant checks on built-in small instances."""
    from .envs import SyntheticLineSpec, synthetic_line
    from .model import (TransitionKernel, LocalReward, FactoredCMDP,
                        global_transition_matrix, compute_decay_matrix)
    from .graph import DependenceGraph
    from .policy import KHopPolicy
    from .occupancy import exact_global_occupancy, flow_balance_residual
    from .utilities import GeneralUtility, ENTROPY, CONSTRAINT
    from .critic import default_td_config, td_evaluate, TDConfig
    from .primal_dual import (exact_lagrangian_gradient, fd_lagrangian_gradient,
                              max_linear_over_box_ball)

    chain = synthetic_line(SyntheticLineSpec(n=2, gamma=0.9))
    rng = np.random.default_rng(np.random.SeedSequence(7))
    policy = KHopPolicy.random(chain.graph, chain.local_state_sizes,
                               chain.local_action_sizes, kappa=1, rng=rng,
                               scale=0.5)

    def transition_columns():
        P = global_transition_matrix(chain, policy)
        return bool(np.allclose(P.sum(axis=0), 1.0, atol=1e-12))

    def occupancy_flow():
        occ = exact_global_occupancy(chain, policy)
        mass_ok = abs(occ.mass - 1.0 / (1.0 - chain.gamma)) < 1e-8
        return mass_ok and flow_balance_residual(chain, policy, occ) < 1e-10

    def score_bound():
        worst = 0.0
        for i in range(chain.n_agents):
            probs = policy.prob_table(i)
            A = probs.shape[1]
            sc = np.eye(A)[None, :, :] - probs[:, None, :]
            worst = max(worst, float(np.max(np.linalg.norm(sc, axis=-1))))
        return worst <= np.sqrt(2.0) + 1e-15

    def gradient_oracle():
        cons = [GeneralUtility(kind=ENTROPY, role=CONSTRAINT, threshold=0.1,
                               gamma=chain.gamma) for _ in range(2)]
        mu = np.array([0.3, 0.7])
        exact = exact_lagrangian_gradient(chain, policy, None, cons, mu)
        fd = fd_lagrangian_gradient(chain, policy, None, cons, mu)
        num = np.linalg.norm(np.concatenate(
            [(e - f).ravel() for e, f in zip(exact, fd)]))
        den = np.linalg.norm(np.concatenate([f.ravel() for f in fd]))
        return num / max(den, 1e-12) < 1e-4

    def td_fixed_point():
        graph = DependenceGraph(n=1, edges=())
        kern = TransitionKernel.from_function(
            lambda s, a: (1.0,), 0, (0,), (0,), (1,), (1,))
        rew = LocalReward.from_function(lambda cs, ca: 1.0, 0, (0,), (),
                                        (1,), (1,))
        mdp = FactoredCMDP(graph=graph, local_state_sizes=(1,),
                           local_action_sizes=(1,), kernels=(kern,),
                           rewards=(rew,), initial_dist=(np.array([1.0]),),
                           gamma=0.9)
        pol = KHopPolicy.zeros(graph, (1,), (1,), kappa=0)
        cfg = default_td_config(0.9, steps=10_000)
        q = td_evaluate(mdp, pol, [np.ones((1, 1))], 0, cfg,
                        np.random.default_rng(np.random.SeedSequence(1)))
        return abs(q[0].table[0, 0] - 10.0) < 0.05

    def stationarity_interior():
        g = np.array([0.3, -0.2, 0.1])
        x = max_linear_over_box_ball(g, -10 * np.ones(3), 10 * np.ones(3))
        return abs(x - np.linalg.norm(g)) < 1e-9

    def decay_locality():
        prof = compute_decay_matrix(synthetic_line(
            SyntheticLineSpec(n=3, gamma=0.9)), chi=3.0)
        M = prof.M
        off = sum(M[i, j] for i in range(3) for j in range(3)
                  if j not in (i, i + 1))
        return off == 0.0

    return [
        ("transition matrix columns are distributions", transition_columns),
        ("exact occupancy satisfies flow balance and mass", occupancy_flow),
        ("softmax score norm bounded by sqrt(2)", score_bound),
        ("exact gradient matches finite differences", gradient_oracle),
        ("td evaluation reaches the known fixed point", td_fixed_point),
        ("stationarity measure equals gradient norm in the interior",
         stationarity_interior),
        ("transition sensitivity vanishes outside the neighborhood",
         decay_locality),
    ]


def cmd_verify(_args) -> int:
    failures = 0
    for name, check in _verify_checks():
        try:
            ok = check()
        except Exception as exc:  # report, keep checking the rest
            ok = False
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


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


def main(argv=None) -> int:
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

    p_verify = sub.add_parser("verify", help="check built-in invariants")
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
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
