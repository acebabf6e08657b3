"""Outer primal-dual loop: empirical dual update, truncated policy-gradient
estimation, projected ascent, stationarity metrics, and exact-gradient
oracles for enumerable instances."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .layout import RunLayout
from .model import FactoredCMDP, EnumerationCapExceeded
from .policy import KHopPolicy
from .sampling import trajectory_draws
from .occupancy import ExactSolve, estimate_local_occupancies
from .utilities import UtilityPass, utility_value
from .critic import (TDConfig, default_td_config, read_critics, td_draws,
                     td_fit)
from . import indexing

FD_STEP = 1e-5  # step of ``fd_lagrangian_gradient``'s central differences
BISECT_TOL = 1e-10  # ``max_linear_over_box_ball`` bisects to this width


class NumericAbort(RuntimeError):
    """Raised when a NaN appears during training; carries the iteration and
    the ``TrainState`` of the iterations completed before it."""

    def __init__(self, iteration, what, state=None):
        super().__init__(f"NaN in {what} at iteration {iteration}")
        self.iteration = iteration
        self.state = state


def dual_update(g_tilde, eta_mu, mu_bar, n) -> np.ndarray:
    """Closed-form regularized dual step: mu_i = clamp(-eta * g_i / n, 0, bar).

    Memoryless by construction; the previous multiplier does not enter.
    """
    g = np.asarray(g_tilde, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("constraint values must be finite")
    return np.clip(-eta_mu * g / n, 0.0, mu_bar)


# -- sampled truncated policy gradient --------------------------------------

def _neighborhood_weights(layout: RunLayout, S, A, q_f, q_g, mu,
                          scale) -> np.ndarray:
    """Score weights of every agent at integer state/action arrays (..., n),
    which broadcast: column i is ``scale`` times the average over n of
    v_j = Q_f,j + mu_j Q_g,j at the sample's cells, summed over the agents j
    within distance ``layout.kappa`` of i. ``q_f`` and ``q_g`` are
    ``QTables`` of ``layout``. Every agent's Q cells come from one product,
    as ids of the stacked id space, and both critics are read there at once
    (``read_critics``); the neighborhood sums are one gather of
    ``layout.hoods`` from v padded with a zero row."""
    n = layout.n
    ids = np.moveaxis(layout.q_cells(S, A) + layout.q_off[:-1], -1, 0)
    f, g = read_critics([q_f, q_g], ids)
    v = np.zeros((n + 1,) + ids.shape[1:])
    v[:n] = f + np.reshape(mu, (n,) + (1,) * (ids.ndim - 1)) * g
    return np.moveaxis(scale * v[layout.hoods].sum(axis=1) / n, 0, -1)


def truncated_pg_estimate(layout: RunLayout, S, A, policy: KHopPolicy, q_f,
                          q_g, mu) -> np.ndarray:
    """REINFORCE-style gradient over integer trajectories S, A of shape
    (B, H, n): per step, the score of agent i weighted by the discounted
    neighborhood-average of truncated Q values (objective plus constraint
    weighted by ``mu``, (n,)) of the agents within distance ``layout.kappa``;
    ``q_f`` and ``q_g`` are ``QTables`` of ``layout``, as ``td_fit`` returns.

    Every agent's policy rows come from one product, and every agent's score
    sum from one pair of ``bincount``s (``ThetaLayout.score_sums``): the
    stacked theta-shaped tables are returned."""
    w = _neighborhood_weights(layout, S, A, q_f, q_g, mu,
                              layout.gamma ** np.arange(S.shape[1]))
    theta = layout.theta
    return theta.score_sums(policy, theta.rows(S), A, w) / len(S)


def policy_ascent(policy: KHopPolicy, grads, eta_theta: float) -> KHopPolicy:
    """Projected gradient ascent: one step on the stacked parameters,
    clamped to the box. ``grads`` is stacked as ``policy.theta_flat``, as
    ``truncated_pg_estimate`` returns it."""
    if np.shape(grads) != policy.theta_flat.shape:
        raise ValueError(f"gradient shape {np.shape(grads)} does not match "
                         f"{policy.theta_flat.shape}")
    return policy.with_flat(policy.theta_flat + eta_theta * grads)


# -- exact oracles -----------------------------------------------------------

def exact_lagrangian_gradient(cmdp: FactoredCMDP, policy: KHopPolicy,
                              objectives, constraints, mu,
                              solve: ExactSolve = None) -> list:
    """Exact policy gradient of the Lagrangian by enumeration of the states.

    By linearity one reward R serves every agent: the shadow rewards at the
    exact local occupancies, (1/n) sum_j (r_f,j + mu_j r_g,j), the env
    rewards in place of r_f when they are the objective. Agent i needs its
    Q averaged over the other agents' actions only: Q_i = R_i + gamma T_i,
    T_i the ``ExactSolve.next_values`` of V, (I - gamma M_pi) V = sum_a pi R.
    Entry [e, b] of its gradient sums d(s) pi_i(b|s) (Q_i(s, b) - sum_c
    pi_i(c|s) Q_i(s, c)) over the states s at table row e, so the terms of
    R_i that do not read a_i cancel and are left out. ``solve`` is this
    policy's ``ExactSolve`` when the caller already has one.
    """
    mu = np.asarray(mu, dtype=float)
    solve = solve or ExactSolve(cmdp, policy)
    n = cmdp.n_agents
    local = solve.local_occupancies
    table = np.repeat(mu, [occ.size for occ in local]) * _exact_utilities(
        solve, constraints)[1]
    if objectives is not None:
        table = table + _exact_utilities(solve, objectives)[1]
    q = [tab[solve.s_dec[:, i]] for i, tab in
         enumerate(indexing.split(table, [o.shape for o in local]))]
    r_bar = sum((pi * q_i).sum(axis=1) for pi, q_i in zip(solve.pis, q))
    if objectives is None:
        for rew in cmdp.rewards:
            mean, marginals = solve.reward_means(rew)
            r_bar += mean
            for k, marginal in zip(rew.action_deps, marginals):
                q[k] += marginal
    V = np.linalg.solve(solve.lhs, r_bar / n)
    grads = []
    for i, (probs, pi) in enumerate(zip(policy.prob_tables, solve.pis)):
        q_i = q[i] / n + cmdp.gamma * solve.next_values(V, i)
        g = np.zeros_like(probs)
        np.add.at(g, solve.rows[:, i], solve.d[:, None] * pi * (
            q_i - (pi * q_i).sum(axis=1, keepdims=True)))
        grads.append(g)
    return grads


def _exact_utilities(solve: ExactSolve, utils):
    """``UtilityPass`` of ``utils`` at the exact local occupancies."""
    local = solve.local_occupancies
    return UtilityPass(utils, [occ.shape for occ in local])(
        np.concatenate([occ.ravel() for occ in local]))


def exact_dual_gradient(cmdp: FactoredCMDP, policy: KHopPolicy, constraints,
                        solve: ExactSolve = None) -> np.ndarray:
    solve = solve or ExactSolve(cmdp, policy)
    return _exact_utilities(solve, constraints)[0] / cmdp.n_agents


def lagrangian_value(cmdp: FactoredCMDP, policy: KHopPolicy,
                     objectives, constraints, mu) -> float:
    """Exact Lagrangian through exact occupancies (finite-difference target):
    an env reward's value is d . r_bar, its ``ExactSolve.reward_means``."""
    solve = ExactSolve(cmdp, policy)
    mu = np.asarray(mu, dtype=float)
    total = 0.0
    for i, loc in enumerate(solve.local_occupancies):
        if objectives is None:
            f_i = float(solve.d @ solve.reward_means(cmdp.rewards[i])[0])
        else:
            f_i = utility_value(objectives[i], loc)
        total += f_i + mu[i] * utility_value(constraints[i], loc)
    return total / cmdp.n_agents


def fd_lagrangian_gradient(cmdp: FactoredCMDP, policy: KHopPolicy,
                           objectives, constraints, mu) -> tuple:
    """Central finite differences of the Lagrangian over every theta entry,
    with step ``FD_STEP``; one table per agent."""
    grad = np.zeros_like(policy.theta_flat)
    for k in range(grad.size):
        for sign in (+1.0, -1.0):
            theta = policy.theta_flat.copy()
            theta[k] += sign * FD_STEP
            grad[k] += sign * lagrangian_value(
                cmdp, policy.with_flat(theta), objectives, constraints, mu)
    return policy.stack.split(grad / (2.0 * FD_STEP))


# -- stationarity metrics ----------------------------------------------------

def max_linear_over_box_ball(g, lower, upper) -> float:
    """max <g, v> over {lower <= v <= upper, ||v||_2 <= 1} (0 in the box).

    If the box-optimal vertex fits in the unit ball it is optimal; otherwise
    the optimum is v_i = clamp(g_i / nu, l_i, u_i) with nu >= 0 found by
    bisection on the norm constraint, to ``BISECT_TOL``.
    """
    g = np.asarray(g, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > 1e-12) or np.any(upper < -1e-12):
        raise ValueError("the box must contain the origin")
    vertex = np.where(g > 0, upper, np.where(g < 0, lower, 0.0))
    if np.linalg.norm(vertex) <= 1.0:
        return float(g @ vertex)
    lo, hi = 0.0, float(np.linalg.norm(g))
    while hi - lo > BISECT_TOL:
        nu = 0.5 * (lo + hi)
        v = np.clip(g / max(nu, 1e-300), lower, upper)
        if np.linalg.norm(v) > 1.0:
            lo = nu
        else:
            hi = nu
    v = np.clip(g / max(hi, 1e-300), lower, upper)
    return float(g @ v)


def fosp_metrics(grad_theta, grad_mu, theta, mu, theta_bound, mu_bar):
    """First-order stationarity measures (primal X, dual Y, combined E)."""
    theta = np.asarray(theta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    X = max_linear_over_box_ball(np.asarray(grad_theta, dtype=float),
                                 -theta_bound - theta, theta_bound - theta)
    Y = max_linear_over_box_ball(-np.asarray(grad_mu, dtype=float),
                                 -mu, mu_bar - mu)
    return X, Y, X * X + Y * Y


# -- training loop -----------------------------------------------------------

# Dual step-size schedules: eta_mu, or eta_mu * (t+1)^(1/3).
DUAL_SCHEDULES = ("constant", "t_one_third")


@dataclass(frozen=True)
class StepSizes:
    eta_theta: float
    eta_mu: float
    schedule: str = "constant"  # one of DUAL_SCHEDULES

    def __post_init__(self):
        if self.eta_theta <= 0:
            raise ValueError("eta_theta must be positive")
        if self.eta_mu < 0:
            raise ValueError("eta_mu must be nonnegative")
        if self.schedule not in DUAL_SCHEDULES:
            raise ValueError("eta_mu_schedule must be " + " or ".join(
                map(repr, DUAL_SCHEDULES)) + f", got {self.schedule!r}")

    def dual_step(self, t):
        if self.schedule == "t_one_third":
            return self.eta_mu * (t + 1) ** (1.0 / 3.0)
        return self.eta_mu


@dataclass(frozen=True)
class TrainConfig:
    kappa: int
    iterations: int
    horizon: int
    batch_size: int
    steps: StepSizes
    mu_bar: float = 100.0
    theta_bar: float = 50.0
    td: TDConfig = None  # derived from gamma when omitted
    oracle_every: int = 0

    def __post_init__(self):
        for key in ("kappa", "iterations", "oracle_every"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative")
        for key in ("horizon", "batch_size", "mu_bar", "theta_bar"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")


@dataclass
class IterationRecord:
    t: int
    objective: float
    g_tilde: tuple
    violation: float
    mu: tuple
    X: float = None
    Y: float = None
    E: float = None
    elapsed_ms: float = 0.0
    phase_ms: dict = field(default_factory=dict)  # PHASES -> wall-clock ms


# Parts of one iteration timed by ``train``, in the order they run.
PHASES = ("sample", "occupancy", "td_f", "td_g", "grad", "oracle")


class _PhaseClock:
    """Wall-clock ms per phase: each ``lap`` charges the time since the
    previous lap to one phase."""

    def __init__(self):
        self.ms = dict.fromkeys(PHASES, 0.0)
        self.started = self.last = time.perf_counter()

    def lap(self, phase):
        now = time.perf_counter()
        self.ms[phase] += (now - self.last) * 1e3
        self.last = now


@dataclass
class TrainState:
    policy: KHopPolicy
    mu: np.ndarray  # (n,) dual multipliers
    iteration: int
    history: list = field(default_factory=list)
    # "off", "every N", or "skipped: <why the instance cannot be enumerated>"
    oracle: str = "off"


def _rng(seed, purpose, t):
    return default_rng(SeedSequence(entropy=seed, spawn_key=(purpose, t)))


def env_rewards(cmdp: FactoredCMDP, S, A, S_td, A_td):
    """Every agent's env reward, read with one ``LocalReward.values`` call
    at the batch's trajectories S, A (B, H, n) and the TD steps S_td, A_td
    (K, n) together: the batch-average discounted sum of the mean local
    reward (the agents' averages add one after another), and the TD steps'
    rewards (n, K). The arrays of all steps are freed on return: held
    through the TD fits, they cost 0.5 MB of peak RSS on the 10-agent line."""
    n, K = cmdp.n_agents, len(S_td)
    SA = [np.concatenate([X.reshape(-1, n), X_td])
          for X, X_td in ((S, S_td), (A, A_td))]
    r = np.stack([rew.values(*SA) for rew in cmdp.rewards])
    returns = (r[:, :-K].reshape(n, *S.shape[:2])
               @ cmdp.gamma ** np.arange(S.shape[1])).mean(axis=1)
    return float(np.cumsum(returns)[-1]) / n, r[:, -K:].copy()


def train(cmdp: FactoredCMDP, objectives, constraints, cfg: TrainConfig,
          seed: int, initial_policy: KHopPolicy = None) -> TrainState:
    """Full primal-dual actor-critic loop.

    ``objectives`` is either a per-agent list of GeneralUtility (evaluated on
    local occupancies) or None, meaning the cumulative env reward is the
    objective (its shadow reward is the fixed reward function itself).
    ``constraints`` is a per-agent list of constraint-role GeneralUtility.
    Deterministic given (cmdp, config, seed).
    """
    n = cmdp.n_agents
    if len(constraints) != n:
        raise ValueError("need one constraint utility per agent")
    if objectives is not None and len(objectives) != n:
        raise ValueError("need one objective utility per agent")
    td_cfg = cfg.td or default_td_config(cmdp.gamma)

    if initial_policy is None:
        policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                                   cmdp.local_action_sizes, cfg.kappa,
                                   _rng(seed, 0, 0), scale=0.1,
                                   theta_bound=cfg.theta_bar)
    else:
        policy = initial_policy
    mu = np.zeros(n)
    oracle = "off"
    if cfg.oracle_every > 0:
        try:
            cmdp.check_enumeration_cap()
            oracle = f"every {cfg.oracle_every}"
        except EnumerationCapExceeded as exc:
            oracle = f"skipped: {exc}"
    oracles_feasible = oracle.startswith("every")
    state = TrainState(policy=policy, mu=mu, iteration=0, oracle=oracle)
    layout = RunLayout(cmdp, policy, cfg.kappa, td_cfg)
    con_pass = UtilityPass(constraints, layout.sa_shapes)
    obj_pass = None if objectives is None else UtilityPass(objectives,
                                                           layout.sa_shapes)
    K = td_cfg.steps  # TD steps, each with a reward

    for t in range(cfg.iterations):
        clock = _PhaseClock()
        # one rollout: the sampling batch and both TD trajectories
        sim = layout.simulator.with_policy(policy)
        (S, A), (S_f, A_f), (S_g, A_g) = sim.rollout([
            trajectory_draws(sim, cfg.batch_size, cfg.horizon,
                             _rng(seed, 1, t)),
            td_draws(cmdp, td_cfg, _rng(seed, 2, t)),
            td_draws(cmdp, td_cfg, _rng(seed, 3, t))])
        clock.lap("sample")
        lam = estimate_local_occupancies(layout, S, A)
        g_tilde, shadow_g = con_pass(lam)
        if objectives is None:
            objective_val, r_f = env_rewards(cmdp, S, A, S_f[0, :K],
                                             A_f[0, :K])
        else:
            f_vals, shadow_f = obj_pass(lam)
            objective_val = float(np.mean(f_vals))
            r_f = shadow_f.take(layout.sa_cells(S_f[0, :K], A_f[0, :K]).T)

        if not np.all(np.isfinite(g_tilde)):
            raise NumericAbort(t, "constraint values", state)
        clock.lap("occupancy")

        q_f = td_fit(layout, r_f, S_f[0], A_f[0])
        clock.lap("td_f")
        q_g = td_fit(layout, shadow_g.take(layout.sa_cells(
            S_g[0, :K], A_g[0, :K]).T), S_g[0], A_g[0])
        clock.lap("td_g")
        mu = dual_update(g_tilde, cfg.steps.dual_step(t), cfg.mu_bar, n)
        grads = truncated_pg_estimate(layout, S, A, policy, q_f, q_g, mu)
        if not np.all(np.isfinite(grads)):
            raise NumericAbort(t, "policy gradient", state)
        record = IterationRecord(
            t=t, objective=objective_val, g_tilde=tuple(float(x) for x in g_tilde),
            violation=float(np.sum(np.maximum(0.0, -g_tilde))),
            mu=tuple(float(x) for x in mu),
        )
        clock.lap("grad")
        if oracles_feasible and t % cfg.oracle_every == 0:
            solve = ExactSolve(cmdp, policy)
            exact_g = exact_lagrangian_gradient(
                cmdp, policy, objectives, constraints, mu, solve=solve)
            grad_mu = exact_dual_gradient(cmdp, policy, constraints,
                                          solve=solve)
            record.X, record.Y, record.E = fosp_metrics(
                policy.stack.join(exact_g), grad_mu, policy.theta_flat, mu,
                cfg.theta_bar, cfg.mu_bar)
        clock.lap("oracle")
        policy = policy_ascent(policy, grads, cfg.steps.eta_theta)
        clock.lap("grad")
        record.phase_ms = clock.ms
        record.elapsed_ms = (time.perf_counter() - clock.started) * 1e3
        state.history.append(record)
        state.policy = policy
        state.mu = mu
        state.iteration = t + 1
    return state
