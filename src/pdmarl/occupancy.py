"""Discounted occupancy measures as plain arrays: every agent's (S_i, A_i)
table, estimated from trajectories (mass (1-gamma^H)/(1-gamma) at horizon H)
or exact (mass 1/(1-gamma)) with the policy's global (|S||A|,) occupancy."""

from __future__ import annotations

import numpy as np

from .model import FactoredCMDP
from . import indexing


def estimate_local_occupancies(layout, S, A) -> np.ndarray:
    """Monte-Carlo occupancy of every agent: discounted visit counts averaged
    over the batch of integer trajectories S, A of shape (B, H, n), as the
    stacked (S_i, A_i) tables of the ``RunLayout`` ``layout``: agent i's
    table is ``indexing.split(occ, layout.sa_shapes)[i]``.

    The stacked array is filled by one ``bincount``, which adds each cell's
    visits in input order: batch index, then step. So the tables are
    reproducible bit-for-bit and equal folding the trajectories in one at a
    time.
    """
    if len(S) == 0:
        raise ValueError("batch must be nonempty")
    cells = layout.sa_cells(S, A)
    discounts = np.broadcast_to(
        (layout.gamma ** np.arange(S.shape[1]))[:, None], cells.shape)
    return np.bincount(cells.ravel(), weights=discounts.ravel(),
                       minlength=layout.sa_off[-1]) / len(S)


class ExactSolve:
    """One policy's state chain in product form, built once for every
    exact oracle.

    Agent i's next state reads (s_{D_i}, a_i) only, so the state chain M_pi
    (``chain``) is the ``indexing.row_kron`` over agents of the (|S|, S_i)
    factors sum_{a_i} pi_i(a_i|s_{N_i}) P_i(.|s_{D_i}, a_i). ``lhs`` is
    I - gamma M_pi: one ``numpy.linalg.solve`` of its transpose gives the
    state occupancy ``d``, (I - gamma M_pi)^T d = rho, and one solve per
    ``q`` call the values V (numpy keeps no LU between solves; scipy's
    would cost every run its import). ``occupancy`` is lambda(s, a) =
    d(s) pi(a|s) flat over pairs s*|A| + a, and ``local_occupancies`` every
    agent's (S_i, A_i) marginal of it.
    """

    def __init__(self, cmdp: FactoredCMDP, policy):
        cmdp.check_enumeration_cap()
        self.cmdp = cmdp
        n, sizes = cmdp.n_agents, cmdp.local_state_sizes
        s_dec = indexing.decode_table(sizes)
        # at every global state: pi_i(.|s), (S, A_i), and P_i(.|s, a_i),
        # (S, A_i, S_i), of every agent
        self.pis = [probs[policy.nbhd_rows(i, s_dec)]
                    for i, probs in enumerate(policy.prob_tables)]
        self.kernels = []
        for i, kern in enumerate(cmdp.kernels):
            acts = np.zeros((cmdp.local_action_sizes[i], n), dtype=np.int64)
            acts[:, i] = np.arange(len(acts))
            self.kernels.append(kern.table[kern.row_indices(s_dec[:, None],
                                                            acts)])
        self.chain = indexing.row_kron([np.einsum("sa,sat->st", pi, k) for
                                        pi, k in zip(self.pis, self.kernels)])
        self.lhs = np.eye(len(self.chain)) - cmdp.gamma * self.chain
        self.d = np.maximum(0.0, np.linalg.solve(  # clip solver noise
            self.lhs.T, cmdp.initial_state_distribution()))
        self.pi = indexing.row_kron(self.pis)  # (S, A)
        self.occupancy = (self.d[:, None] * self.pi).ravel()
        self.local_occupancies = [
            (self.d[:, None] * pi).reshape(sizes + pi.shape[1:]).sum(
                axis=tuple(k for k in range(n) if k != i))
            for i, pi in enumerate(self.pis)]

    def q(self, rewards) -> np.ndarray:
        """Exact Q-function of a flat (|S||A|,) reward vector R: R plus
        gamma sum_s' P(s'|s, a) V(s'), with (I - gamma M_pi) V = sum_a
        pi(a|s) R(s, a). The sum over s' swaps one agent's next state for
        its action at a time, from V(s') to (S, a_<i, s'_>=i) arrays."""
        S = self.cmdp.n_states
        R = np.asarray(rewards, dtype=float).reshape(S, -1)
        V = np.linalg.solve(self.lhs, np.einsum("sa,sa->s", self.pi, R))
        T = V[None, None]
        for k in self.kernels:
            T = np.matmul(k[:, None], T.reshape(*T.shape[:2], k.shape[2], -1))
            T = T.reshape(S, -1, T.shape[-1])
        return (R + self.cmdp.gamma * T.reshape(S, -1)).ravel()


def state_marginal(occ, gamma: float) -> np.ndarray:
    """d_i(s) = (1 - gamma) * sum_a lambda_i(s, a) of (..., S_i, A_i) tables."""
    return (1.0 - gamma) * occ.sum(axis=-1)
