"""Outer primal-dual loop: empirical dual update, truncated policy-gradient
estimation, projected ascent, stationarity metrics, and exact-gradient
oracles for enumerable instances."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import khop_neighborhood
from .model import (FactoredCMDP, LocalReward, DEFAULT_ENUMERATION_CAP,
                    EnumerationCapExceeded)
from .policy import KHopPolicy
from .sampling import TrajectoryBatch, sample_trajectories
from .occupancy import (estimate_local_occupancy, exact_global_occupancy,
                        marginalize)
from .utilities import GeneralUtility, shadow_reward, utility_value
from .critic import (TDConfig, default_td_config, td_evaluate, full_q,
                     truncate_q, lift_local_reward, lift_neighborhood_reward)
from . import indexing


class NumericAbort(RuntimeError):
    """Raised when a NaN appears during training; carries the iteration."""

    def __init__(self, iteration, what):
        super().__init__(f"NaN in {what} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class DualVariable:
    mu: np.ndarray
    mu_bar: float

    def __post_init__(self):
        if np.any(self.mu < 0) or np.any(self.mu > self.mu_bar + 1e-12):
            raise ValueError("dual variable leaves [0, mu_bar]")


def dual_update(g_tilde, eta_mu, mu_bar, n) -> DualVariable:
    """Closed-form regularized dual step: mu_i = clamp(-eta * g_i / n, 0, bar).

    Memoryless by construction; the previous multiplier does not enter.
    """
    g = np.asarray(g_tilde, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("constraint values must be finite")
    return DualVariable(mu=np.clip(-eta_mu * g / n, 0.0, mu_bar), mu_bar=mu_bar)


# -- sampled truncated policy gradient --------------------------------------

def _score_sum(policy, i, rows, acts, weights):
    """sum_k weights_k * score_i(rows_k, acts_k) as a theta_i-shaped table.

    Entry [e, b] is the weight on row e with action b minus the softmax share
    pi_i(b | e) of row e's total weight.
    """
    A_i = policy.action_sizes[i]
    n_rows = policy.n_nbhd_states(i)
    flat = np.bincount(rows * A_i + acts, weights=weights, minlength=n_rows * A_i)
    row_tot = np.bincount(rows, weights=weights, minlength=n_rows)
    return flat.reshape(n_rows, A_i) - policy.prob_table(i) * row_tot[:, None]


def truncated_pg_estimate(batch: TrajectoryBatch, policy: KHopPolicy,
                          q_f, q_g, mu: DualVariable, kappa: int,
                          gamma: float) -> list:
    """REINFORCE-style gradient: per step, the score of agent i weighted by
    the discounted neighborhood-average of truncated Q values (objective plus
    dual-weighted constraint) of the agents within distance kappa."""
    n = policy.graph.n
    B, H = batch.batch_size, batch.horizon
    if len(q_f) != n or len(q_g) != n:
        raise ValueError("need one Q table per agent for both utilities")

    v = np.empty((n, B, H))
    for j in range(n):
        v[j] = (q_f[j].at(batch.states, batch.actions)
                + mu.mu[j] * q_g[j].at(batch.states, batch.actions))
    discounts = gamma ** np.arange(H)

    grads = []
    for i in range(n):
        hood = list(khop_neighborhood(policy.graph, i, kappa))
        w = discounts[None, :] * v[hood].sum(axis=0) / n  # (B, H)
        rows = policy.nbhd_rows(i, batch.states)  # (B, H)
        grads.append(_score_sum(policy, i, rows.ravel(),
                                batch.actions[:, :, i].ravel(), w.ravel()) / B)
    return grads


def policy_ascent(policy: KHopPolicy, grads, eta_theta: float) -> KHopPolicy:
    """Projected gradient ascent: clamp each updated table to the box."""
    if len(grads) != policy.graph.n:
        raise ValueError("need one gradient table per agent")
    new = []
    for t, g in zip(policy.theta, grads):
        if g.shape != t.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {t.shape}")
        new.append(t + eta_theta * g)
    return policy.project_params(new)


# -- exact oracles -----------------------------------------------------------

def _global_shadow_rewards(cmdp, policy, objectives, constraints,
                           cap=DEFAULT_ENUMERATION_CAP):
    """Exact occupancy plus lifted shadow-reward columns (f then g)."""
    occ = exact_global_occupancy(cmdp, policy, cap=cap)
    cols_f, cols_g = [], []
    for i in range(cmdp.n_agents):
        local = marginalize(occ, i)
        if objectives is None:
            cols_f.append(lift_neighborhood_reward(cmdp, cmdp.rewards[i], cap=cap))
        else:
            cols_f.append(lift_local_reward(
                cmdp, i, shadow_reward(objectives[i], local)))
        cols_g.append(lift_local_reward(
            cmdp, i, shadow_reward(constraints[i], local)))
    return occ, np.column_stack(cols_f), np.column_stack(cols_g)


def _score_accumulate(cmdp, policy, weights_by_agent):
    """Turn per-pair weights W_i(s, a) into theta-shaped gradients."""
    s_dec = indexing.decode_table(cmdp.local_state_sizes)
    a_dec = indexing.decode_table(cmdp.local_action_sizes)
    return [_score_sum(policy, i,
                       np.repeat(policy.nbhd_rows(i, s_dec), cmdp.n_actions),
                       np.tile(a_dec[:, i], cmdp.n_states), W)
            for i, W in enumerate(weights_by_agent)]


def exact_lagrangian_gradient(cmdp: FactoredCMDP, policy: KHopPolicy,
                              objectives, constraints, mu,
                              cap=DEFAULT_ENUMERATION_CAP) -> list:
    """Exact policy gradient of the Lagrangian by full enumeration.

    Shadow rewards are evaluated at the exact local occupancies, their
    Q-functions solved exactly, and the expectation over the discounted
    visitation measure taken as a weighted sum over all pairs.
    """
    mu = np.asarray(mu, dtype=float)
    occ, rf, rg = _global_shadow_rewards(cmdp, policy, objectives,
                                         constraints, cap=cap)
    n = cmdp.n_agents
    q = full_q(cmdp, policy, np.hstack([rf, rg]), cap=cap)
    q_tot = (q[:, :n].sum(axis=1) + q[:, n:] @ mu) / n
    W = occ.table * q_tot
    return _score_accumulate(cmdp, policy, [W] * n)


def exact_dual_gradient(cmdp: FactoredCMDP, policy: KHopPolicy, constraints,
                        cap=DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    occ = exact_global_occupancy(cmdp, policy, cap=cap)
    n = cmdp.n_agents
    return np.array([
        utility_value(constraints[i], marginalize(occ, i)) for i in range(n)
    ]) / n


def exact_truncated_pg(cmdp: FactoredCMDP, policy: KHopPolicy,
                       objectives, constraints, mu, kappa: int, anchor=None,
                       cap=DEFAULT_ENUMERATION_CAP) -> list:
    """Exact value of the kappa-truncated policy gradient estimator.

    Same enumeration as ``exact_lagrangian_gradient`` but with Q-functions
    truncated at the anchor pair and the utility sum restricted to each
    agent's kappa-hop neighborhood.
    """
    mu = np.asarray(mu, dtype=float)
    n = cmdp.n_agents
    occ, rf, rg = _global_shadow_rewards(cmdp, policy, objectives,
                                         constraints, cap=cap)
    q = full_q(cmdp, policy, np.hstack([rf, rg]), cap=cap)
    s_dec = indexing.decode_table(cmdp.local_state_sizes)[:, None, :]
    a_dec = indexing.decode_table(cmdp.local_action_sizes)[None, :, :]

    v = np.empty((n, cmdp.n_pairs))
    for j in range(n):
        qf_t = truncate_q(cmdp, q[:, j], j, kappa, anchor=anchor)
        qg_t = truncate_q(cmdp, q[:, n + j], j, kappa, anchor=anchor)
        v[j] = (qf_t.at(s_dec, a_dec) + mu[j] * qg_t.at(s_dec, a_dec)).ravel()

    weights = []
    for i in range(n):
        hood = list(khop_neighborhood(cmdp.graph, i, kappa))
        weights.append(occ.table * (v[hood].sum(axis=0) / n))
    return _score_accumulate(cmdp, policy, weights)


def lagrangian_value(cmdp: FactoredCMDP, policy: KHopPolicy,
                     objectives, constraints, mu,
                     cap=DEFAULT_ENUMERATION_CAP) -> float:
    """Exact Lagrangian through exact occupancies (finite-difference target)."""
    occ = exact_global_occupancy(cmdp, policy, cap=cap)
    n = cmdp.n_agents
    mu = np.asarray(mu, dtype=float)
    total = 0.0
    for i in range(n):
        loc = marginalize(occ, i)
        if objectives is None:
            f_i = float(lift_neighborhood_reward(cmdp, cmdp.rewards[i], cap=cap)
                        @ occ.table)
        else:
            f_i = utility_value(objectives[i], loc)
        total += f_i + mu[i] * utility_value(constraints[i], loc)
    return total / n


def fd_lagrangian_gradient(cmdp: FactoredCMDP, policy: KHopPolicy,
                           objectives, constraints, mu, h: float = 1e-5,
                           cap=DEFAULT_ENUMERATION_CAP) -> list:
    """Central finite differences of the Lagrangian over every theta entry."""
    grads = []
    for i, tab in enumerate(policy.theta):
        g = np.zeros_like(tab)
        for idx in np.ndindex(tab.shape):
            for sign in (+1.0, -1.0):
                theta = [t.copy() for t in policy.theta]
                theta[i][idx] += sign * h
                val = lagrangian_value(cmdp, policy.with_theta(theta),
                                       objectives, constraints, mu, cap=cap)
                g[idx] += sign * val
        grads.append(g / (2.0 * h))
    return grads


# -- stationarity metrics ----------------------------------------------------

def max_linear_over_box_ball(g, lower, upper, tol=1e-10) -> float:
    """max <g, v> over {lower <= v <= upper, ||v||_2 <= 1} (0 in the box).

    If the box-optimal vertex fits in the unit ball it is optimal; otherwise
    the optimum is v_i = clamp(g_i / nu, l_i, u_i) with nu >= 0 found by
    bisection on the norm constraint.
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
    while hi - lo > tol:
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

@dataclass(frozen=True)
class StepSizes:
    eta_theta: float
    eta_mu: float
    schedule: str = "constant"  # or "t_one_third": eta_mu * (t+1)^(1/3)

    def __post_init__(self):
        if self.eta_theta <= 0 or self.eta_mu < 0:
            raise ValueError("step sizes must be positive (eta_mu may be 0)")
        if self.schedule not in ("constant", "t_one_third"):
            raise ValueError(f"unknown dual schedule {self.schedule!r}")

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
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.iterations < 0 or self.horizon < 1 or self.batch_size < 1:
            raise ValueError("invalid iteration/horizon/batch configuration")
        if self.kappa < 0 or self.mu_bar <= 0 or self.theta_bar <= 0:
            raise ValueError("kappa, mu_bar and theta_bar must be positive")


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
    mu: DualVariable
    iteration: int
    history: list = field(default_factory=list)


def _rng(seed, purpose, t):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, t)))


def batch_discounted_return(cmdp: FactoredCMDP, batch: TrajectoryBatch) -> float:
    """Batch-average discounted sum of the mean local env reward."""
    n = cmdp.n_agents
    discounts = cmdp.gamma ** np.arange(batch.horizon)
    total = 0.0
    for rew in cmdp.rewards:
        if rew.table is None:
            raise ValueError("env reward is not tabulated")
        rows = rew.row_indices(batch.states, batch.actions)
        total += float((rew.table[rows] @ discounts).mean())
    return total / n


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
    mu = DualVariable(mu=np.zeros(n), mu_bar=cfg.mu_bar)
    state = TrainState(policy=policy, mu=mu, iteration=0)

    oracles_feasible = cfg.oracle_every > 0
    if oracles_feasible:
        try:
            cmdp.check_enumeration_cap(cfg.enumeration_cap)
        except EnumerationCapExceeded:
            oracles_feasible = False

    for t in range(cfg.iterations):
        clock = _PhaseClock()
        batch = sample_trajectories(cmdp, policy, cfg.batch_size, cfg.horizon,
                                    _rng(seed, 1, t))
        clock.lap("sample")
        lam = [estimate_local_occupancy(batch, i, cmdp.gamma, cfg.horizon,
                                        cmdp.local_state_sizes[i],
                                        cmdp.local_action_sizes[i])
               for i in range(n)]
        g_tilde = np.array([utility_value(constraints[i], lam[i])
                            for i in range(n)])
        r_g = [shadow_reward(constraints[i], lam[i]) for i in range(n)]
        if objectives is None:
            r_f = list(cmdp.rewards)
            objective_val = batch_discounted_return(cmdp, batch)
        else:
            r_f = [shadow_reward(objectives[i], lam[i]) for i in range(n)]
            objective_val = float(np.mean(
                [utility_value(objectives[i], lam[i]) for i in range(n)]))

        if not np.all(np.isfinite(g_tilde)):
            raise NumericAbort(t, "constraint values")
        clock.lap("occupancy")

        q_f = td_evaluate(cmdp, policy, r_f, cfg.kappa, td_cfg, _rng(seed, 2, t))
        clock.lap("td_f")
        q_g = td_evaluate(cmdp, policy, r_g, cfg.kappa, td_cfg, _rng(seed, 3, t))
        clock.lap("td_g")
        mu = dual_update(g_tilde, cfg.steps.dual_step(t), cfg.mu_bar, n)
        grads = truncated_pg_estimate(batch, policy, q_f, q_g, mu,
                                      cfg.kappa, cmdp.gamma)
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise NumericAbort(t, "policy gradient")
        record = IterationRecord(
            t=t, objective=objective_val, g_tilde=tuple(float(x) for x in g_tilde),
            violation=float(np.sum(np.maximum(0.0, -g_tilde))),
            mu=tuple(float(x) for x in mu.mu),
        )
        clock.lap("grad")
        if oracles_feasible and t % cfg.oracle_every == 0:
            exact_g = exact_lagrangian_gradient(
                cmdp, policy, objectives, constraints, mu.mu,
                cap=cfg.enumeration_cap)
            grad_mu = exact_dual_gradient(cmdp, policy, constraints,
                                          cap=cfg.enumeration_cap)
            theta_flat = np.concatenate([t_.ravel() for t_ in policy.theta])
            grad_flat = np.concatenate([g.ravel() for g in exact_g])
            record.X, record.Y, record.E = fosp_metrics(
                grad_flat, grad_mu, theta_flat, mu.mu,
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
