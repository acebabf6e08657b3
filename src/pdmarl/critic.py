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
from .sampling import Simulator
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

    def cells(self, S, A):
        """(row, column) index arrays at integer global state/action arrays
        (..., n)."""
        nbhd = list(self.nbhd)
        return (S[..., nbhd] @ indexing.radix_weights(self.state_sizes),
                A[..., nbhd] @ indexing.radix_weights(self.action_sizes))

    def at(self, S, A):
        """Table values at integer global state/action arrays (..., n)."""
        return self.table[self.cells(S, A)]


def _reward_series(reward, agent, S, A) -> np.ndarray:
    """One agent's rewards along a trajectory of states/actions (T, n)."""
    if isinstance(reward, ShadowReward):
        reward = reward.table
    if isinstance(reward, np.ndarray):
        return reward[S[:, agent], A[:, agent]]  # local (S_i, A_i) table
    if isinstance(reward, LocalReward):
        if reward.table is None:
            raise ValueError("reward dependency space too large for TD lookup")
        return reward.table[reward.row_indices(S, A)]
    raise TypeError(f"unsupported reward type {type(reward)!r}")


def td_evaluate(cmdp: FactoredCMDP, policy: KHopPolicy, rewards, kappa: int,
                cfg: TDConfig, rng) -> list:
    """Single-trajectory asynchronous TD evaluation of truncated Q-functions.

    Starts from a uniform global state, follows the policy for ``cfg.steps``
    transitions, and at step k updates only the cell visited at step k-1 with
    step size h/(k-1+k1). Tables are zero-initialized.

    One ``Simulator`` rollout gives all K+1 states and actions; the Q cells
    and rewards along it are encoded with array ops, and only the scalar
    recursion runs step by step, over a dict of the visited cells.

    ``rewards`` lists one reward per agent: either a local (S_i, A_i) array /
    ShadowReward, or a LocalReward over a declared neighborhood.
    """
    n = cmdp.n_agents
    if len(rewards) != n:
        raise ValueError("need one reward per agent")
    K = cfg.steps
    u_init = rng.random(n)
    u_act = rng.random((K + 1, n))
    u_trans = rng.random((K, n))

    # uniform global initial state (product of per-agent uniforms)
    sizes = np.array(cmdp.local_state_sizes)
    s0 = np.minimum((u_init * sizes).astype(np.int64), sizes - 1)
    S, A = Simulator(cmdp, policy).rollout(s0, u_act, u_trans)

    gamma = cmdp.gamma
    etas = [cfg.step_size(k) for k in range(K)]
    out = []
    for i, reward in enumerate(rewards):
        nbhd = khop_neighborhood(cmdp.graph, i, kappa)
        s_sizes = tuple(cmdp.local_state_sizes[j] for j in nbhd)
        a_sizes = tuple(cmdp.local_action_sizes[j] for j in nbhd)
        q_tab = TruncatedQTable(
            agent=i, kappa=kappa, nbhd=nbhd, state_sizes=s_sizes,
            action_sizes=a_sizes, table=np.zeros((indexing.space_size(s_sizes),
                                                  indexing.space_size(a_sizes))))
        cells = np.ravel_multi_index(q_tab.cells(S, A), q_tab.table.shape).tolist()
        r = _reward_series(reward, i, S, A).tolist()
        # the scalar recursion, over the visited cells only
        q = {}
        for k in range(K):
            qc = q.get(cells[k], 0.0)
            q[cells[k]] = qc + etas[k] * (r[k] + gamma * q.get(cells[k + 1], 0.0)
                                          - qc)
        q_tab.table.flat[list(q)] = list(q.values())
        out.append(q_tab)
    return out


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
