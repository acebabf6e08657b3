"""Discounted occupancy measures as plain arrays: every agent's (S_i, A_i)
table, estimated from trajectories (mass (1-gamma^H)/(1-gamma) at horizon H)
or exact (mass 1/(1-gamma)) from the policy's state occupancy d(s), with
the state-space solves that the exact oracles share (``ExactSolve``)."""

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


# ``ExactSolve.reward_means`` reads a reward at about this many (state,
# joint action) cells per call, so that the reward's own temporaries stay a
# few MB: at once, the side-3 grid's 512 x 6480 cells peaked near 110 MB.
REWARD_BLOCK_CELLS = 1 << 18


class ExactSolve:
    """One policy's state chain in product form, built once for every
    exact oracle; nothing it builds is indexed by global state-action pairs.

    At every global state (``s_dec``) it holds every agent's policy row
    (``rows``, (S, n)), pi_i(.|s) (``pis``, (S, A_i)) and P_i(.|s, a_i)
    (``kernels``, (S, A_i, S_i)). Agent i's next state reads (s_{D_i}, a_i)
    only, so the state chain M_pi (``chain``) is the ``indexing.row_kron``
    of the (S, S_i) ``factors`` M_i = sum_{a_i} pi_i P_i. ``lhs`` is
    I - gamma M_pi: one ``numpy.linalg.solve`` of its transpose gives the
    state occupancy ``d``, (I - gamma M_pi)^T d = rho, and one of ``lhs``
    the values of a state reward (numpy keeps no LU between solves; scipy's
    would cost every run its import). ``local_occupancies`` are the
    (S_i, A_i) sums of d pi_i.
    """

    def __init__(self, cmdp: FactoredCMDP, policy):
        cmdp.check_enumeration_cap()
        self.cmdp = cmdp
        n, sizes = cmdp.n_agents, cmdp.local_state_sizes
        self.s_dec = s_dec = indexing.decode_table(sizes)
        self.rows = indexing.table_rows(s_dec, policy.row_weights())
        self.pis = [probs[rows]
                    for probs, rows in zip(policy.prob_tables, self.rows.T)]
        # kernel i at (s, a_i): rows at every agent's action c, c < max A_i
        sa = np.concatenate(np.broadcast_arrays(s_dec[:, None], np.arange(
            max(cmdp.local_action_sizes))[None, :, None]), axis=-1)
        k_rows = indexing.table_rows(sa, cmdp.kernel_weights())
        self.kernels = [kern.table[k_rows[:, :a, i]] for i, (kern, a) in
                        enumerate(zip(cmdp.kernels, cmdp.local_action_sizes))]
        self.factors = [np.einsum("sa,sat->st", pi, k)
                        for pi, k in zip(self.pis, self.kernels)]
        self.chain = indexing.row_kron(self.factors)
        self.lhs = np.eye(len(self.chain)) - cmdp.gamma * self.chain
        self.d = np.maximum(0.0, np.linalg.solve(  # clip solver noise
            self.lhs.T, cmdp.initial_state_distribution()))
        self.local_occupancies = [
            (self.d[:, None] * pi).reshape(sizes + pi.shape[1:]).sum(
                axis=tuple(k for k in range(n) if k != i))
            for i, pi in enumerate(self.pis)]

    def next_values(self, V, agent: int) -> np.ndarray:
        """(S, A_i) expected next value of agent i's actions: sum_s'
        P_i(s'_i|s, a_i) prod_{j != i} M_j(s'_j|s) V(s'). V's axis of agent i
        moves last, and the other agents' next states are summed out under
        their factors one agent at a time."""
        sizes = self.cmdp.local_state_sizes
        others = [j for j in range(len(sizes)) if j != agent]
        X = V.reshape(sizes).transpose(others + [agent])[None]
        for j in others:
            X = np.matmul(self.factors[j][:, None],
                          X.reshape(len(X), sizes[j], -1))[:, 0]
        return np.einsum("sat,st->sa", self.kernels[agent], X)

    def reward_means(self, reward) -> tuple:
        """A local reward averaged over the policy's actions: r_bar(s) =
        sum_a pi(a|s) R(s, a), (S,), and for each agent k of
        ``reward.action_deps`` its (S, A_k) marginal sum_{a_-k} pi_-k(a_-k|s)
        R(s, a). R is read once, at every state and every cell of its
        action dependencies, in blocks of states of about
        ``REWARD_BLOCK_CELLS`` cells; its action axes are then summed out
        under their agents' policies, first to last, and the marginal of
        each weights the axes after its own by their policies' product."""
        deps = list(reward.action_deps)
        a_sizes = [self.cmdp.local_action_sizes[k] for k in deps]
        acts = np.zeros((indexing.space_size(a_sizes), self.cmdp.n_agents),
                        dtype=np.int64)
        acts[:, deps] = indexing.decode_table(a_sizes)
        X = np.empty((len(self.s_dec), len(acts)))  # (S, |A_N|)
        block = max(1, REWARD_BLOCK_CELLS // len(acts))
        for b in range(0, len(X), block):
            X[b:b + block] = reward.values(self.s_dec[b:b + block, None],
                                           acts)
        pis = [self.pis[k] for k in deps]
        after = [np.ones((len(X), 1))]
        for pi in pis[:0:-1]:
            after.append(indexing.row_kron([pi, after[-1]]))
        marginals = []
        for pi, w in zip(pis, after[::-1]):
            F = X.reshape(len(X), pi.shape[1], -1)
            marginals.append(np.matmul(F, w[..., None])[..., 0])
            X = np.matmul(pi[:, None], F)[:, 0]
        return X[:, 0], marginals


def state_marginal(occ, gamma: float) -> np.ndarray:
    """d_i(s) = (1 - gamma) * sum_a lambda_i(s, a) of (..., S_i, A_i) tables."""
    return (1.0 - gamma) * occ.sum(axis=-1)
