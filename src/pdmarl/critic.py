"""Truncated shadow Q-function evaluation.

``td_evaluate`` runs the asynchronous single-trajectory TD subroutine: the
uniforms of ``td_draws``, one ``Simulator`` rollout and the fit ``td_fit``
(``train`` stacks both critics' trajectories into its one rollout per
iteration and calls ``td_fit`` on them); the exact oracles (``full_q``,
``exact_truncated_q``) solve the Bellman linear system on enumerable
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import khop_neighborhood
from .model import FactoredCMDP, LocalReward
from .occupancy import ExactSolve
from .policy import KHopPolicy
from .sampling import Simulator
from . import indexing


@dataclass(frozen=True)
class TDConfig:
    """Step count and step-size schedule eta_k = h / (k + k1)."""

    steps: int
    h: float
    k1: float

    def __post_init__(self):
        if self.steps < 1 or self.h <= 0 or self.k1 < 1:
            raise ValueError(f"need steps >= 1, h > 0, k1 >= 1; got steps "
                             f"{self.steps}, h {self.h}, k1 {self.k1}")

    def step_size(self, k):
        return self.h / (k + self.k1)


def default_td_config(gamma: float, steps: int = 500,
                      sigma: float = 0.1) -> TDConfig:
    """Schedule constants from the minimum-visit probability ``sigma``:
    h = (1/sigma) * max(2, 1/(1 - sqrt(gamma))), k1 = 2h."""
    h = round(max(2.0, 1.0 / (1.0 - np.sqrt(gamma))) / sigma)
    return TDConfig(steps=steps, h=float(h), k1=float(2 * h))


def q_cells(S, A, nbhd, state_sizes, action_sizes) -> np.ndarray:
    """Flat cell ids (the neighborhood state's encode times the neighborhood
    action-space size plus the action's encode) at integer global
    state/action arrays (..., n)."""
    return (indexing.encode(S, nbhd, state_sizes)
            * indexing.space_size(action_sizes)
            + indexing.encode(A, nbhd, action_sizes))


@dataclass(frozen=True)
class TruncatedQTable:
    """Q values on the k-hop neighborhood cells (s_nbhd, a_nbhd) of one
    agent, stored sparsely: the sorted flat cell ids ``keys`` (see
    ``q_cells``) and their ``values``. A cell not stored reads 0.0, as in
    a zero-initialized table."""

    agent: int
    kappa: int
    nbhd: tuple
    state_sizes: tuple  # sizes of the neighborhood agents' state spaces
    action_sizes: tuple
    keys: np.ndarray  # (m,) int64 cell ids, m >= 1, strictly increasing
    values: np.ndarray  # (m,) float64

    def cells(self, S, A):
        """Flat cell ids at integer global state/action arrays (..., n)."""
        return q_cells(S, A, self.nbhd, self.state_sizes, self.action_sizes)

    def read(self, cells):
        """Values at flat cell ids; 0.0 where a cell is not stored."""
        pos = np.searchsorted(self.keys, cells)
        return np.where(self.keys.take(pos, mode="clip") == cells,
                        self.values.take(pos, mode="clip"), 0.0)

    def at(self, S, A):
        """Values at integer global state/action arrays (..., n)."""
        return self.read(self.cells(S, A))

    @property
    def table(self) -> np.ndarray:
        """The dense (n_nbhd_states, n_nbhd_actions) array, zero where no
        cell is stored. Materialized on each access: for tests and checks."""
        out = np.zeros((indexing.space_size(self.state_sizes),
                        indexing.space_size(self.action_sizes)))
        out.flat[self.keys] = self.values
        return out


# Most cells one truncated-Q table may store (an 8-byte key and value each).
MAX_Q_CELLS = 10**7


def q_table_layout(cmdp: FactoredCMDP, agent: int, kappa: int, steps=None):
    """Neighborhood and its state and action sizes of one agent's truncated-Q
    table at radius kappa.

    A TD fit of ``steps`` steps stores at most min(dense cells, steps + 1)
    cells; ``steps=None`` is a table that stores every cell. Raises
    ValueError above MAX_Q_CELLS stored cells, or when a flat cell id would
    not fit in int64.
    """
    nbhd = khop_neighborhood(cmdp.graph, agent, kappa)
    s_sizes = tuple(cmdp.local_state_sizes[j] for j in nbhd)
    a_sizes = tuple(cmdp.local_action_sizes[j] for j in nbhd)
    dense = indexing.space_size(s_sizes + a_sizes)
    if dense - 1 > np.iinfo(np.int64).max:
        raise ValueError(
            f"truncated Q table of agent {agent} has {dense} cells, whose "
            f"flat ids do not fit in int64")
    stored = dense if steps is None else min(dense, steps + 1)
    if stored > MAX_Q_CELLS:
        raise ValueError(
            f"truncated Q table of agent {agent} would store up to {stored} "
            f"cells, above the cap of {MAX_Q_CELLS}")
    return nbhd, s_sizes, a_sizes


def td_draws(cmdp: FactoredCMDP, cfg: TDConfig, rng):
    """Initial state and uniforms of one TD trajectory, as a one-row
    ``Simulator.rollout`` group: the per-agent uniforms of a uniform global
    initial state, then cfg.steps + 1 action and cfg.steps transition
    uniforms."""
    n, K = cmdp.n_agents, cfg.steps
    u_init = rng.random(n)
    u_act = rng.random((K + 1, n))
    u_trans = rng.random((K, n))
    # uniform global initial state (product of per-agent uniforms)
    sizes = np.array(cmdp.local_state_sizes)
    s0 = np.minimum((u_init * sizes).astype(np.int64), sizes - 1)
    return s0[None], u_act[:, None], u_trans[:, None]


def td_fit(cmdp: FactoredCMDP, rewards, kappa: int, cfg: TDConfig,
           S, A) -> list:
    """Asynchronous TD evaluation of truncated Q-functions along one
    trajectory of cfg.steps + 1 global states S and actions A, (K+1, n).

    At step k only the cell visited at step k-1 is updated, with step size
    h/(k-1+k1); tables are zero-initialized. The Q cells and rewards along
    the trajectory are encoded with array ops, and only the scalar recursion
    runs step by step, over a dict of the visited cells; each table stores
    those cells only, so nothing of the dense table's size is allocated.

    ``rewards`` lists one reward per agent: either a local (S_i, A_i) array
    (a shadow reward), or a LocalReward over a declared neighborhood.
    """
    if len(rewards) != cmdp.n_agents:
        raise ValueError("need one reward per agent")
    K = cfg.steps
    gamma = cmdp.gamma
    etas = [cfg.step_size(k) for k in range(K)]
    out = []
    for i, reward in enumerate(rewards):
        layout = q_table_layout(cmdp, i, kappa, K)
        cells = q_cells(S, A, *layout).tolist()
        r = (reward.values(S, A) if isinstance(reward, LocalReward)
             else reward[S[:, i], A[:, i]]).tolist()
        # the scalar recursion, over the visited cells only
        q = {}
        for k in range(K):
            qc = q.get(cells[k], 0.0)
            q[cells[k]] = qc + etas[k] * (r[k] + gamma * q.get(cells[k + 1], 0.0)
                                          - qc)
        keys = np.fromiter(q, np.int64, len(q))
        # the keys are distinct, so any sort gives this order; the stable
        # one pages in about 0.1 MB of numpy's code, its SIMD quicksort 0.4 MB
        order = keys.argsort(kind="stable")
        out.append(TruncatedQTable(
            i, kappa, *layout, keys=keys.take(order),
            values=np.fromiter(q.values(), np.float64, len(q)).take(order)))
    return out


def td_evaluate(cmdp: FactoredCMDP, policy: KHopPolicy, rewards, kappa: int,
                cfg: TDConfig, rng) -> list:
    """Single-trajectory TD evaluation: ``td_fit`` along the rollout of
    ``td_draws``, starting from a uniform global state and following the
    policy for cfg.steps transitions."""
    [(S, A)] = Simulator(cmdp, policy).rollout([td_draws(cmdp, cfg, rng)])
    return td_fit(cmdp, rewards, kappa, cfg, S[0], A[0])


def lift_local_reward(cmdp: FactoredCMDP, agent: int, table) -> np.ndarray:
    """Expand a (S_i, A_i) reward table to the flat global pair vector."""
    s_dec = indexing.decode_table(cmdp.local_state_sizes)[:, agent]
    a_dec = indexing.decode_table(cmdp.local_action_sizes)[:, agent]
    return np.asarray(table)[s_dec[:, None], a_dec[None, :]].ravel()


def lift_neighborhood_reward(cmdp: FactoredCMDP,
                             reward: LocalReward) -> np.ndarray:
    """Expand a neighborhood reward to the flat global pair vector."""
    cmdp.check_enumeration_cap()
    return reward.values(
        indexing.decode_table(cmdp.local_state_sizes)[:, None, :],
        indexing.decode_table(cmdp.local_action_sizes)[None, :, :]).ravel()


def full_q(cmdp: FactoredCMDP, policy: KHopPolicy, rewards) -> np.ndarray:
    """Exact Q-function(s) solving Q = r + gamma * P_pi^T Q.

    ``rewards`` is a flat (|S||A|,) vector or an (|S||A|, m) matrix; the
    output has the same shape (see ``ExactSolve.q``).
    """
    return ExactSolve(cmdp, policy).q(rewards)


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
    nbhd, s_sizes, a_sizes = q_table_layout(cmdp, agent, kappa)
    s_nb = indexing.decode_table(s_sizes)[:, None, :]
    a_nb = indexing.decode_table(a_sizes)[None, :, :]
    # one index per global axis: the neighborhood varies, the rest is fixed
    at = {j: p for p, j in enumerate(nbhd)}
    idx = ([s_nb[..., at[j]] if j in at else anchor_s[j] for j in range(n)]
           + [a_nb[..., at[j]] if j in at else anchor_a[j] for j in range(n)])
    values = np.asarray(q, dtype=np.float64).reshape(ss + aa)[tuple(idx)]
    return TruncatedQTable(agent=agent, kappa=kappa, nbhd=nbhd,
                           state_sizes=s_sizes, action_sizes=a_sizes,
                           keys=np.arange(values.size, dtype=np.int64),
                           values=values.ravel())


def exact_truncated_q(cmdp: FactoredCMDP, policy: KHopPolicy, reward_flat,
                      agent: int, kappa: int, anchor=None) -> TruncatedQTable:
    """Truncate the exact Q-function of one agent to its k-hop neighborhood
    (see ``truncate_q``)."""
    return truncate_q(cmdp, full_q(cmdp, policy, reward_flat),
                      agent, kappa, anchor=anchor)
