"""Truncated shadow Q-function evaluation.

``td_evaluate`` runs the asynchronous single-trajectory TD subroutine; the
exact oracles (``full_q``, ``exact_truncated_q``) solve the Bellman linear
system on enumerable instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import khop_neighborhood
from .model import (FactoredCMDP, LocalReward, global_transition_matrix,
                    DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded)
from .policy import KHopPolicy
from .utilities import ShadowReward
from . import indexing


@dataclass(frozen=True)
class TDConfig:
    """Step count and step-size schedule eta_k = h / (k + k1)."""

    steps: int
    h: float
    k1: float

    def __post_init__(self):
        if self.steps < 1 or self.h <= 0 or self.k1 < 1:
            raise ValueError("need steps >= 1, h > 0, k1 >= 1")

    def step_size(self, k):
        return self.h / (k + self.k1)


def default_td_config(gamma: float, steps: int = 500,
                      sigma: float = 0.1) -> TDConfig:
    """Schedule constants from the minimum-visit probability ``sigma``:
    h = (1/sigma) * max(2, 1/(1 - sqrt(gamma))), k1 = 2h."""
    h = round(max(2.0, 1.0 / (1.0 - np.sqrt(gamma))) / sigma)
    return TDConfig(steps=steps, h=float(h), k1=float(2 * h))


@dataclass(frozen=True)
class TruncatedQTable:
    """Q values on the k-hop neighborhood cell (s_nbhd, a_nbhd) of one agent."""

    agent: int
    kappa: int
    nbhd: tuple
    state_sizes: tuple  # sizes of the neighborhood agents' state spaces
    action_sizes: tuple
    table: np.ndarray  # (n_nbhd_states, n_nbhd_actions)

    def at(self, S, A):
        """Table values at integer global state/action arrays (..., n)."""
        nbhd = list(self.nbhd)
        return self.table[S[..., nbhd] @ indexing.radix_weights(self.state_sizes),
                          A[..., nbhd] @ indexing.radix_weights(self.action_sizes)]


def _reward_lookup(cmdp, reward):
    """Build a fast (state_list, action_list) -> float evaluator."""
    if isinstance(reward, ShadowReward):
        reward = reward.table
    if isinstance(reward, np.ndarray):
        return None, reward  # local (S_i, A_i) table, indexed by own pair
    if isinstance(reward, LocalReward):
        if reward.table is None:
            raise ValueError("reward dependency space too large for TD lookup")
        return reward, None
    raise TypeError(f"unsupported reward type {type(reward)!r}")


def td_evaluate(cmdp: FactoredCMDP, policy: KHopPolicy, rewards, kappa: int,
                cfg: TDConfig, rng) -> list:
    """Single-trajectory asynchronous TD evaluation of truncated Q-functions.

    Starts from a uniform global state, follows the policy for ``cfg.steps``
    transitions, and at step k updates only the cell visited at step k-1 with
    step size h/(k-1+k1). Tables are zero-initialized.

    ``rewards`` lists one reward per agent: either a local (S_i, A_i) array /
    ShadowReward, or a LocalReward over a declared neighborhood.
    """
    n = cmdp.n_agents
    if len(rewards) != n:
        raise ValueError("need one reward per agent")
    K = cfg.steps

    # Per-agent precomputation, everything as plain Python lists: the loop is
    # scalar work and list indexing is much faster than numpy scalars here.
    pol_nbhd = [list(policy.neighborhood(i)) for i in range(n)]
    pol_w = [list(indexing.radix_weights(policy.nbhd_state_sizes(i)))
             for i in range(n)]
    act_cdf = [np.cumsum(policy.prob_table(i), axis=1).tolist() for i in range(n)]

    kern_idx = []
    kern_cdf = []
    for kern in cmdp.kernels:
        w = list(indexing.radix_weights(kern.dep_sizes))
        ns = len(kern.state_deps)
        kern_idx.append((list(kern.state_deps), w[:ns],
                         list(kern.action_deps), w[ns:]))
        kern_cdf.append(np.cumsum(kern.table, axis=1).tolist())

    q_nbhd = [list(khop_neighborhood(cmdp.graph, i, kappa)) for i in range(n)]
    qs_sizes = [[cmdp.local_state_sizes[j] for j in q_nbhd[i]] for i in range(n)]
    qa_sizes = [[cmdp.local_action_sizes[j] for j in q_nbhd[i]] for i in range(n)]
    qs_w = [list(indexing.radix_weights(sz)) for sz in qs_sizes]
    qa_w = [list(indexing.radix_weights(sz)) for sz in qa_sizes]
    q_tabs = [[[0.0] * indexing.space_size(qa_sizes[i])
               for _ in range(indexing.space_size(qs_sizes[i]))]
              for i in range(n)]

    rew = []
    for r in rewards:
        obj, tab = _reward_lookup(cmdp, r)
        if obj is None:
            rew.append(("local", tab.tolist(), None, None, None))
        else:
            w = list(indexing.radix_weights(obj.dep_sizes))
            ns = len(obj.state_deps)
            rew.append(("dep", obj.table.tolist(), list(obj.state_deps),
                        w[:ns], (list(obj.action_deps), w[ns:])))

    u_init = rng.random(n)
    u_act = rng.random((K + 1, n))
    u_trans = rng.random((K, n))
    gamma = cmdp.gamma
    h, k1 = cfg.h, cfg.k1

    # uniform global initial state (product of per-agent uniforms)
    s = [min(int(u_init[i] * cmdp.local_state_sizes[i]),
             cmdp.local_state_sizes[i] - 1) for i in range(n)]

    def pick(cdf_row, u):
        for idx, c in enumerate(cdf_row):
            if u < c:
                return idx
        return len(cdf_row) - 1

    def act(s_cur, u_row):
        a = []
        for i in range(n):
            row = 0
            for j, w in zip(pol_nbhd[i], pol_w[i]):
                row += s_cur[j] * w
            a.append(pick(act_cdf[i][row], u_row[i]))
        return a

    def reward_at(i, s_cur, a_cur):
        kind, tab, sdeps, sw, arest = rew[i]
        if kind == "local":
            return tab[s_cur[i]][a_cur[i]]
        adeps, aw = arest
        row = 0
        for j, w in zip(sdeps, sw):
            row += s_cur[j] * w
        for j, w in zip(adeps, aw):
            row += a_cur[j] * w
        return tab[row]

    def q_cell(i, s_cur, a_cur):
        si = 0
        for j, w in zip(q_nbhd[i], qs_w[i]):
            si += s_cur[j] * w
        ai = 0
        for j, w in zip(q_nbhd[i], qa_w[i]):
            ai += a_cur[j] * w
        return si, ai

    a = act(s, u_act[0])
    prev_cells = [q_cell(i, s, a) for i in range(n)]
    prev_rewards = [reward_at(i, s, a) for i in range(n)]
    for k in range(1, K + 1):
        s_next = []
        for i in range(n):
            sdeps, sw, adeps, aw = kern_idx[i]
            row = 0
            for j, w in zip(sdeps, sw):
                row += s[j] * w
            for j, w in zip(adeps, aw):
                row += a[j] * w
            s_next.append(pick(kern_cdf[i][row], u_trans[k - 1, i]))
        a_next = act(s_next, u_act[k])
        eta = h / (k - 1 + k1)
        for i in range(n):
            si, ai = prev_cells[i]
            ni, nai = q_cell(i, s_next, a_next)
            qi = q_tabs[i]
            td_err = prev_rewards[i] + gamma * qi[ni][nai] - qi[si][ai]
            qi[si][ai] += eta * td_err
            prev_cells[i] = (ni, nai)
            prev_rewards[i] = reward_at(i, s_next, a_next)
        s, a = s_next, a_next

    return [
        TruncatedQTable(agent=i, kappa=kappa, nbhd=tuple(q_nbhd[i]),
                        state_sizes=tuple(qs_sizes[i]),
                        action_sizes=tuple(qa_sizes[i]),
                        table=np.array(q_tabs[i]))
        for i in range(n)
    ]


def lift_local_reward(cmdp: FactoredCMDP, agent: int, table) -> np.ndarray:
    """Expand a (S_i, A_i) reward table to the flat global pair vector."""
    if isinstance(table, ShadowReward):
        table = table.table
    s_dec = indexing.decode_table(cmdp.local_state_sizes)[:, agent]
    a_dec = indexing.decode_table(cmdp.local_action_sizes)[:, agent]
    return np.asarray(table)[s_dec[:, None], a_dec[None, :]].ravel()


def lift_neighborhood_reward(cmdp: FactoredCMDP, reward: LocalReward,
                             cap=DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Expand a neighborhood reward to the flat global pair vector."""
    cmdp.check_enumeration_cap(cap)
    if reward.table is None:
        raise EnumerationCapExceeded(
            f"reward of agent {reward.agent} is not tabulated")
    rows = reward.row_indices(
        indexing.decode_table(cmdp.local_state_sizes)[:, None, :],
        indexing.decode_table(cmdp.local_action_sizes)[None, :, :])
    return reward.table[rows].ravel()


def full_q(cmdp: FactoredCMDP, policy: KHopPolicy, rewards,
           cap=DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Exact Q-function(s): solves Q = r + gamma * P_pi^T Q by linear solve.

    ``rewards`` is a flat (|S||A|,) vector or an (|S||A|, m) matrix; the
    output has the same shape.
    """
    P = global_transition_matrix(cmdp, policy, cap=cap)
    r = np.asarray(rewards, dtype=float)
    return scipy.linalg.solve(np.eye(P.shape[0]) - cmdp.gamma * P.T, r)


def truncate_q(cmdp: FactoredCMDP, q, agent: int, kappa: int,
               anchor=None) -> TruncatedQTable:
    """Restrict a flat (|S||A|,) Q-function to one agent's k-hop neighborhood.

    Coordinates of agents outside the neighborhood are frozen at ``anchor``
    (a global (state tuple, action tuple) pair; all-zeros by default).
    """
    n = cmdp.n_agents
    ss, aa = cmdp.local_state_sizes, cmdp.local_action_sizes
    anchor_s, anchor_a = anchor or ((0,) * n, (0,) * n)
    if not all(0 <= v < m for v, m in zip((*anchor_s, *anchor_a), ss + aa)):
        raise ValueError(f"anchor {anchor} out of range")
    nbhd = khop_neighborhood(cmdp.graph, agent, kappa)
    s_sizes = tuple(ss[j] for j in nbhd)
    a_sizes = tuple(aa[j] for j in nbhd)
    s_nb = indexing.decode_table(s_sizes)[:, None, :]
    a_nb = indexing.decode_table(a_sizes)[None, :, :]
    # one index per global axis: the neighborhood varies, the rest is fixed
    at = {j: p for p, j in enumerate(nbhd)}
    idx = ([s_nb[..., at[j]] if j in at else anchor_s[j] for j in range(n)]
           + [a_nb[..., at[j]] if j in at else anchor_a[j] for j in range(n)])
    return TruncatedQTable(agent=agent, kappa=kappa, nbhd=nbhd,
                           state_sizes=s_sizes, action_sizes=a_sizes,
                           table=np.asarray(q).reshape(ss + aa)[tuple(idx)])


def exact_truncated_q(cmdp: FactoredCMDP, policy: KHopPolicy, reward_flat,
                      agent: int, kappa: int, anchor=None,
                      cap=DEFAULT_ENUMERATION_CAP) -> TruncatedQTable:
    """Truncate the exact Q-function of one agent to its k-hop neighborhood
    (see ``truncate_q``)."""
    return truncate_q(cmdp, full_q(cmdp, policy, reward_flat, cap=cap),
                      agent, kappa, anchor=anchor)
