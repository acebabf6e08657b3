"""End-to-end acceptance suite.

Each test checks one headline property of the trainer and prints a single
PASS/FAIL line (visible under ``pytest -s`` or on failure). The two
end-to-end reproductions (criteria 7 and 8) train the 10-agent line for 400
iterations per run and dominate the runtime of the suite; the exact-setting
rate (criterion 11) runs 6000 exact iterations on the 5-agent line.
"""

import time
from functools import lru_cache

import numpy as np

from pdmarl import indexing
from pdmarl.graph import line_graph
from pdmarl.policy import KHopPolicy
from pdmarl.layout import RunLayout
from pdmarl.occupancy import ExactSolve, estimate_local_occupancies
from pdmarl.critic import default_td_config
from pdmarl.primal_dual import (StepSizes, TrainConfig, _rng, dual_update,
                                exact_dual_gradient,
                                exact_lagrangian_gradient, fosp_metrics,
                                max_linear_over_box_ball, policy_ascent,
                                train)
from pdmarl.cli import run_experiment
from pdmarl.config import parse_config_dict

from helpers import (chain, entropy_constraints, flat, rng_for, sample_batch,
                     single_cell_mdp, td_tables, uniform_policy)
from oracles import (PairExactSolve, dense_table, distance,
                     exact_truncated_pg, fd_lagrangian_gradient,
                     induced_khop_policy, lift_neighborhood_reward,
                     policy_state_sensitivity, truncate_q)


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_occupancy_oracle_agreement():
    started = time.perf_counter()
    m = chain(2)
    pol = uniform_policy(m)
    exact = ExactSolve(m, pol).local_occupancies
    S, A = sample_batch(m, pol, 10_000, 100, rng_for(1))
    worst = 0.0
    layout = RunLayout(m, pol, 1)
    for emp, ex in zip(indexing.split(estimate_local_occupancies(layout, S, A),
                                      layout.sa_shapes), exact):
        worst = max(worst, float(np.linalg.norm(emp - ex)))
    elapsed = time.perf_counter() - started
    check(1, "empirical occupancy matches the exact solve",
          worst < 0.05 and elapsed < 30.0,
          f"max l2 err {worst:.4f}, {elapsed:.1f}s")


def test_criterion_2_gradient_oracle_chain():
    started = time.perf_counter()
    m = chain(2)
    cons = entropy_constraints(m, 0.3)
    worst = 0.0
    for point in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(100 + point))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.5)
        mu = 2.0 * rng.random(2)
        exact = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))
        fd = flat(fd_lagrangian_gradient(m, pol, None, cons, mu))
        rel = np.linalg.norm(exact - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - started
    check(2, "exact Lagrangian gradient matches finite differences",
          worst < 1e-4 and elapsed < 60.0,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_truncation_decay():
    started = time.perf_counter()
    m = chain(5)
    rng = np.random.default_rng(np.random.SeedSequence(9))
    pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                            m.local_action_sizes, 1, rng, scale=0.4)
    cons = entropy_constraints(m, 0.3)
    mu = 0.5 * np.ones(5)
    exact = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))
    errs = [float(np.linalg.norm(
        flat(exact_truncated_pg(m, pol, None, cons, mu, kappa=k)) - exact))
        for k in (0, 1, 2)]
    elapsed = time.perf_counter() - started
    ok = errs[0] >= errs[1] >= errs[2] and errs[2] <= 0.5 * errs[0]
    check(3, "truncated gradient error decays with the radius",
          ok and elapsed < 300.0,
          "errs " + ", ".join(f"{e:.4f}" for e in errs) + f", {elapsed:.1f}s")


def test_criterion_4_induced_policy_occupancy_bound():
    m = chain(3)
    g = line_graph(3)
    base = KHopPolicy.zeros(g, (2, 2, 2), (2, 2, 2), 2)
    rng = np.random.default_rng(np.random.SeedSequence(14))
    tables = []
    for i in range(3):
        nbhd = base.neighborhood(i)
        tab = np.zeros_like(base.theta[i])
        for row, s in enumerate(np.ndindex(*[2] * len(nbhd))):
            for pos, j in enumerate(nbhd):
                w = 0.4 ** distance(g, i, j)
                tab[row] += w * (2 * s[pos] - 1) * np.array([1.0, -1.0])
        tables.append(tab + 0.05 * rng.normal(size=tab.shape))
    pol = base.with_theta(tables)

    # measured sensitivity constants: d_k <= c * phi^k with d_k the largest
    # policy change when states beyond distance k vary
    d = [policy_state_sensitivity(pol, k) for k in (0, 1, 2)]
    c = d[0]
    phi = d[1] / c if c > 0 else 0.0
    assert d[2] == 0.0 and 0.0 < phi < 1.0

    lam = ExactSolve(m, pol).local_occupancies
    ok = True
    details = []
    for kappa in (0, 1, 2):
        induced = induced_khop_policy(pol, kappa, (0, 0, 0))
        lam_hat = ExactSolve(m, induced).local_occupancies
        bound = 3 * c * phi ** kappa / (1.0 - m.gamma) ** 2
        for i in range(3):
            gap = float(np.abs(lam_hat[i] - lam[i]).sum())
            ok = ok and gap <= bound + 1e-12
        details.append(f"k={kappa} bound {bound:.3f}")
    check(4, "induced-policy occupancy gap within the sensitivity bound",
          ok, "; ".join(details))


def test_criterion_5_td_correctness():
    single = single_cell_mdp(0.9)
    q = td_tables(single, uniform_policy(single, kappa=0), [np.ones((1, 1))],
                  0, default_td_config(0.9, steps=10_000), rng_for(2))
    fixed_ok = abs(dense_table(q[0])[0, 0] - 10.0) < 0.05

    m = chain(2)
    pol = uniform_policy(m)
    cols = [lift_neighborhood_reward(m, r) for r in m.rewards]
    solve = PairExactSolve(m, pol)
    exact = [truncate_q(m, solve.q(cols[i]), i, 1) for i in range(2)]
    cfg = default_td_config(0.9, steps=100_000)
    errs = []
    for seed in range(10):
        qs = td_tables(m, pol, list(m.rewards), 1, cfg, rng_for(seed))
        errs.append(max(
            float(np.max(np.abs(dense_table(qs[i]) - dense_table(exact[i]))))
            / (np.max(np.abs(cols[i])) / (1.0 - m.gamma))
            for i in range(2)))
    med = float(np.median(errs))
    check(5, "TD evaluation reaches the known fixed points",
          fixed_ok and med < 0.1,
          f"single-cell err {abs(dense_table(q[0])[0, 0] - 10.0):.4f}, "
          f"median chain err {med:.4f} of the value bound")


def test_criterion_6_softmax_score_bound():
    rng = np.random.default_rng(np.random.SeedSequence(3))
    pol = KHopPolicy.random(line_graph(3), (3, 2, 2), (3, 2, 4), 1, rng,
                            scale=5.0)
    ok = True
    for i in range(3):
        probs = pol.prob_tables[i]
        for row in range(probs.shape[0]):
            for a in range(probs.shape[1]):
                vec = -probs[row].copy()
                vec[a] += 1.0
                ok = ok and float(vec @ vec) <= 2.0
    check(6, "softmax score norm never exceeds sqrt(2)", ok)


@lru_cache(maxsize=None)
def synthetic_run(kappa, eta_mu, threshold, seed):
    m = chain(10, gamma=0.99)
    cons = entropy_constraints(m, threshold)
    cfg = TrainConfig(kappa=kappa, iterations=400, horizon=125, batch_size=5,
                      steps=StepSizes(eta_theta=0.05, eta_mu=eta_mu))
    state = train(m, None, cons, cfg, seed=seed)
    objs = [r.objective for r in state.history]
    vios = [r.violation for r in state.history]
    return float(np.mean(objs[-100:])), float(np.mean(vios[-40:])), \
        float(np.mean(vios[-100:]))


def test_criterion_7_synthetic_reproduction():
    started = time.perf_counter()
    seeds = (0, 1, 2)
    ret1 = np.median([synthetic_run(1, 10.0, 0.25, s)[0] for s in seeds])
    vio1 = np.median([synthetic_run(1, 10.0, 0.25, s)[1] for s in seeds])
    ret2 = np.median([synthetic_run(2, 10.0, 0.25, s)[0] for s in seeds])
    elapsed = time.perf_counter() - started
    ok = vio1 < 0.05 and ret1 >= 0.9 * ret2 and elapsed < 600.0
    check(7, "10-agent line reproduction: low violation, radius-1 comparable "
             "to radius-2",
          ok, f"violation {vio1:.4f}, returns {ret1:.2f} vs {ret2:.2f}, "
              f"{elapsed:.0f}s")


def test_criterion_8_dual_step_size_monotonicity():
    seeds = (0, 1, 2)
    med = {eta: float(np.median([synthetic_run(1, eta, 0.55, s)[2]
                                 for s in seeds]))
           for eta in (0.0, 1.0, 100.0)}
    ok = med[100.0] <= med[1.0] <= med[0.0]
    check(8, "larger dual step size yields smaller violation",
          ok, f"violations {med[100.0]:.4f} <= {med[1.0]:.4f} <= {med[0.0]:.4f}")


def test_criterion_9_stationarity_metric_soundness():
    _, _, E = fosp_metrics(np.zeros(6), np.zeros(3), np.zeros(6),
                           np.ones(3), 50.0, 10.0)
    trivial_ok = E < 1e-12

    rng = np.random.default_rng(np.random.SeedSequence(4))
    interior_ok = True
    for _ in range(100):
        g = rng.normal(size=8)
        x = max_linear_over_box_ball(g, np.full(8, -1e6), np.full(8, 1e6))
        interior_ok = interior_ok and abs(x - np.linalg.norm(g)) < 1e-8
    check(9, "stationarity metrics vanish at a FOSP and equal the gradient "
             "norm inside the box", trivial_ok and interior_ok)


def test_criterion_10_determinism(tmp_path):
    cfg = parse_config_dict({
        "schema_version": 1,
        "env": {"name": "synthetic_line", "n": 4},
        "gamma": 0.95, "kappa": 1, "iterations": 12, "horizon": 40,
        "batch_size": 3, "eta_theta": 0.05, "eta_mu": 10.0,
        "objective": {"kind": "env_reward"},
        "constraint": {"kind": "entropy", "threshold": 0.25},
        "td": {"steps": 200}, "seed": 11,
    })
    a = run_experiment(cfg, tmp_path / "a")
    b = run_experiment(cfg, tmp_path / "b")
    same = ((tmp_path / "a" / "metrics.csv").read_bytes()
            == (tmp_path / "b" / "metrics.csv").read_bytes())
    check(10, "repeated runs produce byte-identical metrics",
          same and a["metrics_sha256"] == b["metrics_sha256"])


def exact_setting_fosp(seed, schedule, threshold, iterations):
    """E of every iteration of the primal-dual loop with exact gradients
    on the 5-agent line (gamma 0.9, kappa 1, env reward, entropy
    constraints): the functions that ``train``'s oracle calls, with no
    sampling. The initial policy is ``train``'s for ``seed``."""
    m = chain(5, gamma=0.9)
    n, theta_bar, mu_bar = m.n_agents, 50.0, 100.0
    cons = entropy_constraints(m, threshold)
    steps = StepSizes(eta_theta=0.5, eta_mu=10.0, schedule=schedule)
    pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                            m.local_action_sizes, 1, _rng(seed, 0, 0),
                            scale=0.1, theta_bound=theta_bar)
    E = np.empty(iterations)
    for t in range(iterations):
        solve = ExactSolve(m, pol)
        grad_mu = exact_dual_gradient(m, pol, cons, solve=solve)
        mu = dual_update(n * grad_mu, steps.dual_step(t), mu_bar, n)
        grads = exact_lagrangian_gradient(m, pol, None, cons, mu, solve=solve)
        E[t] = fosp_metrics(flat(grads), grad_mu, flat(pol.theta), mu,
                            theta_bar, mu_bar)[2]
        pol = policy_ascent(pol, pol.stack.join(grads), steps.eta_theta)
    return E


def test_criterion_11_exact_setting_rate():
    # The paper's exact-setting rate: the average of E over T iterations
    # falls as T^(-2/3) with the eta_mu (t+1)^(1/3) dual schedule. The slope
    # of log avg E against log T, fitted at every T in [100, 3000], must be
    # within 0.1 of -2/3 or steeper: about -0.67 at seeds 0, 1 and 2. The
    # constraint binds at threshold 0.55; a constant eta_mu plateaus there
    # (slope about -0.27, min E flat from T ~ 300), which this gate would
    # reject, so that schedule is reported in the README and not run here.
    started = time.perf_counter()
    T = np.arange(100, 3001)
    slopes = []
    for seed in (0, 1):
        E = exact_setting_fosp(seed, "t_one_third", 0.55, T[-1])
        avg = np.cumsum(E) / np.arange(1, len(E) + 1)
        slopes.append(float(np.polyfit(np.log(T), np.log(avg[T - 1]), 1)[0]))
    elapsed = time.perf_counter() - started
    check(11, "exact-setting average of E falls at the paper's T^(-2/3)",
          max(slopes) <= -2.0 / 3.0 + 0.1,
          f"slopes {', '.join(f'{x:.3f}' for x in slopes)} at seeds 0, 1, "
          f"{elapsed:.1f}s")
