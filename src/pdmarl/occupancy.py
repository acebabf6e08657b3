"""Discounted occupancy measures as plain arrays: every agent's (S_i, A_i)
table, estimated from trajectories (mass (1-gamma^H)/(1-gamma) at horizon H)
or exact (mass 1/(1-gamma)) with the policy's global (|S||A|,) occupancy."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .model import FactoredCMDP, global_transition_matrix


def estimate_local_occupancies(layout, S, A) -> list:
    """Monte-Carlo occupancy of every agent: discounted visit counts averaged
    over the batch of integer trajectories S, A of shape (B, H, n), one
    (S_i, A_i) array per agent of the ``RunLayout`` ``layout``.

    Every agent's table is a slice of one stacked array filled by one
    ``bincount``, which adds each cell's visits in input order: batch index,
    then step. So the tables are reproducible bit-for-bit and equal folding
    the trajectories in one at a time.
    """
    if len(S) == 0:
        raise ValueError("batch must be nonempty")
    cells = layout.sa_cells(S, A)
    discounts = np.broadcast_to(
        (layout.gamma ** np.arange(S.shape[1]))[:, None], cells.shape)
    off = layout.sa_off
    flat = np.bincount(cells.ravel(), weights=discounts.ravel(),
                       minlength=off[-1]) / len(S)
    return [flat[a:b].reshape(shape)
            for a, b, shape in zip(off, off[1:], layout.sa_shapes)]


class ExactSolve:
    """One policy's global state chain, factored once for every exact oracle.

    With M_pi(s, s') = sum_a pi(a|s) P(s'|s, a), the occupancy of a
    stationary policy is lambda(s, a) = d(s) pi(a|s) where
    (I - gamma M_pi)^T d = rho, and the Q-function of rewards R(s, a) is
    Q = R + gamma * sum_s' P(s'|s, a) V(s') where (I - gamma M_pi) V = r_pi,
    r_pi(s) = sum_a pi(a|s) R(s, a). One LU of the |S| x |S| matrix
    I - gamma M_pi serves both, instead of solves over all |S||A| pairs.

    ``occupancy`` is lambda flat over global pairs (index s*|A| + a), and
    ``local_occupancies`` every agent's (S_i, A_i) marginal of it.
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
        self.occupancy = lam.ravel()
        # one axis per agent state then per agent action; sum out the rest
        n = cmdp.n_agents
        shaped = lam.reshape((*cmdp.local_state_sizes, *cmdp.local_action_sizes))
        self.local_occupancies = [
            shaped.sum(axis=tuple(k for k in range(2 * n) if k not in (i, n + i)))
            for i in range(n)]

    def q(self, rewards) -> np.ndarray:
        """Exact Q-function(s) of a flat (|S||A|,) reward vector or an
        (|S||A|, m) matrix of reward columns; same shape out."""
        S, A, _ = self.nxt.shape
        R = np.asarray(rewards, dtype=float)
        r_pi = np.einsum("sa,sa...->s...", self.pi,
                         R.reshape((S, A) + R.shape[1:]))
        V = scipy.linalg.lu_solve(self.lu, r_pi)
        return R + self.cmdp.gamma * (self.nxt.reshape(S * A, S) @ V)


def flow_balance_residual(cmdp: FactoredCMDP, policy, occ) -> float:
    """Max-norm residual of lambda = rho_pi + gamma * P_pi lambda, for a flat
    (|S||A|,) occupancy."""
    P = global_transition_matrix(cmdp, policy)
    rho = cmdp.initial_state_distribution()
    pi = policy.joint_action_probabilities()
    rho_pi = (rho[:, None] * pi).ravel()
    return float(np.max(np.abs(occ - rho_pi - cmdp.gamma * (P @ occ))))


def state_marginal(occ, gamma: float) -> np.ndarray:
    """d_i(s) = (1 - gamma) * sum_a lambda_i(s, a) of an (S_i, A_i) table."""
    return (1.0 - gamma) * occ.sum(axis=1)
