"""Discounted occupancy measures: empirical estimation, exact linear-system
solution, and marginalizations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import FactoredCMDP, global_transition_matrix
from .sampling import TrajectoryBatch
from . import indexing


@dataclass(frozen=True)
class LocalOccupancy:
    """Discounted state-action visitation weights of one agent.

    An exact solve sums to 1/(1-gamma), a horizon-H empirical estimate to
    (1-gamma^H)/(1-gamma).
    """

    agent: int
    table: np.ndarray  # (S_i, A_i)

    def __post_init__(self):
        if np.any(self.table < 0):
            raise ValueError("occupancy entries must be nonnegative")

    @property
    def mass(self):
        return float(self.table.sum())


@dataclass(frozen=True)
class GlobalOccupancy:
    """Flat visitation weights over global (s, a) pairs (index s*|A| + a)."""

    table: np.ndarray
    state_sizes: tuple
    action_sizes: tuple

    @property
    def mass(self):
        return float(self.table.sum())

    def reshaped(self):
        """View with one axis per agent state then per agent action."""
        return self.table.reshape(tuple(self.state_sizes) + tuple(self.action_sizes))


def estimate_local_occupancies(batch: TrajectoryBatch, gamma: float,
                                horizon: int, state_sizes,
                                action_sizes) -> list:
    """Monte-Carlo occupancy of every agent: discounted visit counts averaged
    over the batch, one ``LocalOccupancy`` per agent.

    Every agent's (S_i, A_i) table is a slice of one stacked array filled by
    one ``bincount``, which adds each cell's visits in input order: batch
    index, then step. So the tables are reproducible bit-for-bit and equal
    folding the trajectories in one at a time.
    """
    if batch.batch_size == 0:
        raise ValueError("batch must be nonempty")
    if batch.horizon != horizon:
        raise ValueError(
            f"batch horizon {batch.horizon} does not match H={horizon}")
    off = indexing.offsets([s * a for s, a in zip(state_sizes, action_sizes)])
    cells = batch.states * np.asarray(action_sizes) + batch.actions + off[:-1]
    discounts = np.broadcast_to((gamma ** np.arange(horizon))[:, None],
                                cells.shape)
    flat = np.bincount(cells.ravel(), weights=discounts.ravel(),
                       minlength=off[-1]) / batch.batch_size
    return [LocalOccupancy(agent=i, table=flat[a:b].reshape(s_i, a_i))
            for i, (a, b, s_i, a_i) in enumerate(
                zip(off, off[1:], state_sizes, action_sizes))]


class ExactSolve:
    """One policy's global state chain, factored once for every exact oracle.

    With M_pi(s, s') = sum_a pi(a|s) P(s'|s, a), the occupancy of a
    stationary policy is lambda(s, a) = d(s) pi(a|s) where
    (I - gamma M_pi)^T d = rho, and the Q-function of rewards R(s, a) is
    Q = R + gamma * sum_s' P(s'|s, a) V(s') where (I - gamma M_pi) V = r_pi,
    r_pi(s) = sum_a pi(a|s) R(s, a). One LU of the |S| x |S| matrix
    I - gamma M_pi serves both, instead of solves over all |S||A| pairs.
    """

    def __init__(self, cmdp: FactoredCMDP, policy):
        self.cmdp = cmdp
        self.nxt = cmdp.next_state_kernel  # (S, A, S')
        self.pi = policy.joint_action_probabilities()  # (S, A)
        M = np.einsum("sa,sat->st", self.pi, self.nxt)
        self.lu = scipy.linalg.lu_factor(np.eye(len(M)) - cmdp.gamma * M)
        d = scipy.linalg.lu_solve(self.lu, cmdp.initial_state_distribution(),
                                  trans=1)
        lam = np.maximum(d[:, None] * self.pi, 0.0)  # clip solver noise
        self.occupancy = GlobalOccupancy(
            table=lam.ravel(), state_sizes=tuple(cmdp.local_state_sizes),
            action_sizes=tuple(cmdp.local_action_sizes))

    def q(self, rewards) -> np.ndarray:
        """Exact Q-function(s) of a flat (|S||A|,) reward vector or an
        (|S||A|, m) matrix of reward columns; same shape out."""
        S, A, _ = self.nxt.shape
        R = np.asarray(rewards, dtype=float)
        r_pi = np.einsum("sa,sa...->s...", self.pi,
                         R.reshape((S, A) + R.shape[1:]))
        V = scipy.linalg.lu_solve(self.lu, r_pi)
        return R + self.cmdp.gamma * (self.nxt.reshape(S * A, S) @ V)


def flow_balance_residual(cmdp: FactoredCMDP, policy,
                          occ: GlobalOccupancy) -> float:
    """Max-norm residual of lambda = rho_pi + gamma * P_pi lambda."""
    P = global_transition_matrix(cmdp, policy)
    rho = cmdp.initial_state_distribution()
    pi = policy.joint_action_probabilities()
    rho_pi = (rho[:, None] * pi).ravel()
    return float(np.max(np.abs(occ.table - rho_pi - cmdp.gamma * (P @ occ.table))))


def marginalize(occ: GlobalOccupancy, agent: int) -> LocalOccupancy:
    """Sum out all other agents' states and actions; mass is preserved."""
    n = len(occ.state_sizes)
    shaped = occ.reshaped()
    axes = tuple(k for k in range(2 * n) if k not in (agent, n + agent))
    return LocalOccupancy(agent=agent, table=shaped.sum(axis=axes))


def state_marginal(occ: LocalOccupancy, gamma: float) -> np.ndarray:
    """d_i(s) = (1 - gamma) * sum_a lambda_i(s, a)."""
    return (1.0 - gamma) * occ.table.sum(axis=1)

