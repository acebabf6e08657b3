"""Dense reference oracles that only the tests call, each checking a library
path: one table's mixed-radix rows (against ``indexing.weight_matrix``),
local rewards lifted to global (s, a) pair vectors, the pair-level
transition matrix and the dense exact solve over the global (S, A, S')
kernel (against ``occupancy.ExactSolve``), the pair-level Q and occupancy in
product form (``PairExactSolve``, where the dense kernel cannot reach), the
exact truncated gradient (against the sampled one), dense truncated-Q
tables and per-agent ones stacked as ``td_fit`` returns them, one agent's
shadow reward and finite differences of it, and the policy-truncation
bound's narrower policy and measured constants."""

from dataclasses import replace

import numpy as np
import scipy.linalg

from pdmarl import indexing
from pdmarl.critic import QTables, TruncatedQTable
from pdmarl.graph import khop_neighborhood
from pdmarl.layout import RunLayout, ThetaLayout, q_table_layout
from pdmarl.occupancy import ExactSolve
from pdmarl.policy import KHopPolicy
from pdmarl.primal_dual import _neighborhood_weights
from pdmarl.utilities import (CONSTRAINT, ENTROPY, GeneralUtility,
                              UtilityPass, evaluate)


# -- mixed-radix rows ---------------------------------------------------------

def encode(X, positions, sizes) -> np.ndarray:
    """Rows of the cells ``X[..., positions]`` of integer arrays (..., n),
    with ``sizes`` the radices of those positions: one column of
    ``indexing.weight_matrix``, one table at a time."""
    return np.asarray(X)[..., list(positions)] @ indexing.radix_weights(sizes)


def kernel_rows(kern, S, A) -> np.ndarray:
    """Rows of a kernel's table at integer state/action arrays (..., n),
    which broadcast: its states' cell, then its actions' cell."""
    ns = len(kern.state_deps)
    a_sizes = kern.dep_sizes[ns:]
    return (encode(S, kern.state_deps, kern.dep_sizes[:ns])
            * indexing.space_size(a_sizes)
            + encode(A, kern.action_deps, a_sizes))


# -- global pair vectors -----------------------------------------------------

def n_actions(cmdp) -> int:
    """|A|, the number of global actions."""
    return indexing.space_size(cmdp.local_action_sizes)


def n_pairs(cmdp) -> int:
    """|S||A|, the length of a flat global pair vector (pair s*|A| + a)."""
    return cmdp.n_states * n_actions(cmdp)


def lift_local_reward(cmdp, agent: int, table, into) -> np.ndarray:
    """Add a (S_i, A_i) reward table in place to the flat global pair vector
    ``into``, broadcast along the agent's two axes of its (S_0, ...,
    S_{n-1}, A_0, ..., A_{n-1}) view, and return the vector."""
    n = cmdp.n_agents
    shape = [1] * (2 * n)
    shape[agent], shape[n + agent] = np.shape(table)
    into.reshape(cmdp.local_state_sizes + cmdp.local_action_sizes)[...] += \
        np.reshape(table, shape)
    return into


def lift_neighborhood_reward(cmdp, reward) -> np.ndarray:
    """Expand a neighborhood reward to the flat global pair vector."""
    return reward.values(
        indexing.decode_table(cmdp.local_state_sizes)[:, None, :],
        indexing.decode_table(cmdp.local_action_sizes)[None, :, :]).ravel()


def dense_table(q: TruncatedQTable) -> np.ndarray:
    """The dense (n_nbhd_states, n_nbhd_actions) array of a truncated Q
    table, zero where no cell is stored."""
    out = np.zeros((indexing.space_size(q.state_sizes),
                    indexing.space_size(q.action_sizes)))
    out.flat[q.keys] = q.values
    return out


class PairExactSolve:
    """The pair-level view of an ``occupancy.ExactSolve``, in product form:
    pi(a|s) over global pairs (``pi``, (S, A)), the flat (|S||A|,)
    occupancy lambda(s, a) = d(s) pi(a|s), and the exact Q of a flat reward
    vector from the solve's ``lhs`` and per-agent kernels. It reaches the
    10-agent line, where the dense (S, A, S') kernel needs 8 GB."""

    def __init__(self, cmdp, policy):
        self.cmdp = cmdp
        self.solve = ExactSolve(cmdp, policy)
        self.pi = indexing.row_kron(self.solve.pis)
        self.occupancy = (self.solve.d[:, None] * self.pi).ravel()
        self.local_occupancies = self.solve.local_occupancies

    def q(self, rewards) -> np.ndarray:
        """Exact Q-function of a flat (|S||A|,) reward vector R: R plus
        gamma sum_s' P(s'|s, a) V(s'), with (I - gamma M_pi) V = sum_a
        pi(a|s) R(s, a). The sum over s' swaps one agent's next state for
        its action at a time, from V(s') to (S, a_<i, s'_>=i) arrays."""
        S = self.cmdp.n_states
        R = np.asarray(rewards, dtype=float).reshape(S, -1)
        V = np.linalg.solve(self.solve.lhs,
                            np.einsum("sa,sa->s", self.pi, R))
        T = V[None, None]
        for k in self.solve.kernels:
            T = np.matmul(k[:, None], T.reshape(*T.shape[:2], k.shape[2], -1))
            T = T.reshape(S, -1, T.shape[-1])
        return (R + self.cmdp.gamma * T.reshape(S, -1)).ravel()


def pair_lagrangian_gradient(cmdp, policy, objectives, constraints, mu):
    """``primal_dual.exact_lagrangian_gradient`` over global pairs, as the
    library computed it before it moved to state space: the Lagrangian's
    shadow and env rewards lifted into one pair vector, its Q from
    ``PairExactSolve``, and W = lambda * Q summed per table row. Returns the
    gradient tables and W, flat over pairs. Only one Q column is held, so
    it reaches the 10-agent line."""
    solve = PairExactSolve(cmdp, policy)
    n = cmdp.n_agents
    reward = np.zeros(n_pairs(cmdp))
    for i, local in enumerate(solve.local_occupancies):
        if objectives is None:
            reward += lift_neighborhood_reward(cmdp, cmdp.rewards[i])
        else:
            lift_local_reward(cmdp, i, shadow_reward(objectives[i], local),
                              reward)
        lift_local_reward(cmdp, i, mu[i] * shadow_reward(constraints[i],
                                                         local), reward)
    W = (solve.occupancy * solve.q(reward / n)).reshape(
        (cmdp.n_states,) + cmdp.local_action_sizes)
    grads = []
    for i, (probs, rows) in enumerate(zip(policy.prob_tables,
                                          solve.solve.rows.T)):
        g = np.zeros_like(probs)
        np.add.at(g, rows,
                  W.sum(axis=tuple(1 + j for j in range(n) if j != i)))
        grads.append(g - probs * g.sum(axis=1, keepdims=True))
    return grads, W.ravel()


# -- dense exact solve --------------------------------------------------------

def next_state_kernel(cmdp) -> np.ndarray:
    """Global next-state distributions P(s' | s, a) as an (S, A, S') array."""
    s_dec = indexing.decode_table(cmdp.local_state_sizes)[:, None, :]
    a_dec = indexing.decode_table(cmdp.local_action_sizes)[None, :, :]
    return indexing.row_kron([kern.table[kernel_rows(kern, s_dec, a_dec)]
                              for kern in cmdp.kernels])


def joint_action_probabilities(policy: KHopPolicy) -> np.ndarray:
    """Matrix pi(a | s) over global states/actions."""
    s_dec = indexing.decode_table(policy.state_sizes)
    return indexing.row_kron([
        policy.prob_tables[i][encode(s_dec, policy.neighborhood(i),
                                     policy.nbhd_state_sizes(i))]
        for i in range(policy.graph.n)])


def global_transition_matrix(cmdp, policy) -> np.ndarray:
    """State-action pair transition matrix under a policy.

    Entry ((s', a'), (s, a)) equals P(s' | s, a) * pi(a' | s'); columns are
    probability distributions. Pair indices are s_index * |A| + a_index.
    Built C-ordered over ((s, a), (s', a')) and returned as its transpose.
    """
    S, A = cmdp.n_states, n_actions(cmdp)
    nxt = next_state_kernel(cmdp)  # (S, A, S')
    pi = joint_action_probabilities(policy)  # (S', A')
    return (nxt[:, :, :, None] * pi).reshape(S * A, S * A).T


def flow_balance_residual(cmdp, policy, occ) -> float:
    """Max-norm residual of lambda = rho_pi + gamma * P_pi lambda, for a flat
    (|S||A|,) occupancy."""
    P = global_transition_matrix(cmdp, policy)
    rho = cmdp.initial_state_distribution()
    pi = joint_action_probabilities(policy)
    rho_pi = (rho[:, None] * pi).ravel()
    return float(np.max(np.abs(occ - rho_pi - cmdp.gamma * (P @ occ))))


class DenseExactSolve:
    """``occupancy.ExactSolve`` over the dense (S, A, S') kernel: the state
    chain M_pi(s, s') = sum_a pi(a|s) P(s'|s, a), one scipy LU of
    I - gamma M_pi (not the numpy solve it checks), and Q = R + gamma * P V
    for any number of reward columns."""

    def __init__(self, cmdp, policy):
        self.cmdp = cmdp
        self.nxt = next_state_kernel(cmdp)  # (S, A, S')
        self.pi = joint_action_probabilities(policy)  # (S, A)
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


# -- dense exact gradients ----------------------------------------------------

def global_shadow_rewards(solve, objectives, constraints):
    """Lifted shadow-reward columns at the exact occupancy (f then g)."""
    cmdp = solve.cmdp
    cols_f, cols_g = [], []
    for i, local in enumerate(solve.local_occupancies):
        if objectives is None:
            cols_f.append(lift_neighborhood_reward(cmdp, cmdp.rewards[i]))
        else:
            cols_f.append(lift_local_reward(
                cmdp, i, shadow_reward(objectives[i], local),
                np.zeros(n_pairs(cmdp))))
        cols_g.append(lift_local_reward(
            cmdp, i, shadow_reward(constraints[i], local),
            np.zeros(n_pairs(cmdp))))
    return np.column_stack(cols_f), np.column_stack(cols_g)


def _score_accumulate(cmdp, policy, weights):
    """Turn per-pair weights W(s, a) of every agent, (|S||A|, n), into
    theta-shaped gradients."""
    theta = ThetaLayout(policy)
    rows = theta.rows(indexing.decode_table(cmdp.local_state_sizes))
    return policy.stack.split(theta.score_sums(
        policy, np.repeat(rows, n_actions(cmdp), axis=0),
        np.tile(indexing.decode_table(cmdp.local_action_sizes),
                (cmdp.n_states, 1)), weights))


def dense_lagrangian_gradient(cmdp, policy, objectives, constraints, mu):
    """``primal_dual.exact_lagrangian_gradient`` over the dense solve, with
    one Q column per shadow reward (2n columns)."""
    mu = np.asarray(mu, dtype=float)
    solve = DenseExactSolve(cmdp, policy)
    rf, rg = global_shadow_rewards(solve, objectives, constraints)
    n = cmdp.n_agents
    q = solve.q(np.hstack([rf, rg]))
    q_tot = (q[:, :n].sum(axis=1) + q[:, n:] @ mu) / n
    W = solve.occupancy * q_tot
    return _score_accumulate(cmdp, policy, np.repeat(W[:, None], n, axis=1))


def truncate_q(cmdp, q, agent: int, kappa: int,
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


def stack_q(layout, tables) -> QTables:
    """One ``TruncatedQTable`` per agent (built by hand, or by
    ``truncate_q``), checked against the neighborhoods of ``layout`` and
    stacked into the ``QTables`` that ``td_fit`` would return."""
    if len(tables) != layout.n:
        raise ValueError("need one Q table per agent")
    for j, q in enumerate(tables):
        if q.nbhd != layout.q_layouts[j][0]:
            raise ValueError(f"Q tables of agent {j} differ in "
                             f"neighborhood from the layout")
    return QTables(layout, np.concatenate([
        q.keys + off for q, off in zip(tables, layout.q_off)]),
        np.concatenate([q.values for q in tables]))


def exact_truncated_pg(cmdp, policy: KHopPolicy, objectives, constraints, mu,
                       kappa: int, anchor=None) -> list:
    """Exact value of the kappa-truncated policy gradient estimator.

    Same enumeration as ``dense_lagrangian_gradient`` but with Q-functions
    truncated at the anchor pair and the utility sum restricted to each
    agent's kappa-hop neighborhood.
    """
    n = cmdp.n_agents
    solve = DenseExactSolve(cmdp, policy)
    rf, rg = global_shadow_rewards(solve, objectives, constraints)
    q = solve.q(np.hstack([rf, rg]))
    q_f, q_g = ([truncate_q(cmdp, q[:, off + j], j, kappa, anchor=anchor)
                 for j in range(n)] for off in (0, n))
    S = indexing.decode_table(cmdp.local_state_sizes)[:, None, :]
    A = indexing.decode_table(cmdp.local_action_sizes)[None, :, :]
    layout = RunLayout(cmdp, policy, kappa)
    weights = _neighborhood_weights(
        layout, S, A, stack_q(layout, q_f), stack_q(layout, q_g),
        np.asarray(mu, dtype=float),
        solve.occupancy.reshape(cmdp.n_states, n_actions(cmdp)))
    return _score_accumulate(cmdp, policy, weights.reshape(-1, n))


# -- utilities ----------------------------------------------------------------

def shadow_reward(u: GeneralUtility, occ) -> np.ndarray:
    """Analytic gradient of the utility w.r.t. an (S_i, A_i) occupancy table,
    an array of the same shape: the ``UtilityPass`` of one agent."""
    return UtilityPass([u], [np.shape(occ)])(np.ravel(occ))[1].reshape(
        np.shape(occ))


def as_constraint(u: GeneralUtility, threshold) -> GeneralUtility:
    """The utility ``u`` as a constraint with the given threshold."""
    return replace(u, role=CONSTRAINT, threshold=float(threshold))


def fd_gradient(u: GeneralUtility, occ, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time.

    Linear and l2 utilities extend smoothly to negative entries so plain
    central differences apply everywhere; the entropy marginal must stay
    nonnegative, so its minus side is clamped at zero with the denominator
    shortened to match.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    reward = None if u.reward is None else np.asarray(u.reward, float)[None]

    def raw(table):
        return evaluate(u.kind, u.gamma, reward, table[None])[0][0]

    grad = np.zeros_like(occ)
    clamp = u.kind == ENTROPY
    for idx in np.ndindex(occ.shape):
        plus = occ.copy()
        plus[idx] += h
        minus = occ.copy()
        if clamp:
            minus[idx] = max(minus[idx] - h, 0.0)
        else:
            minus[idx] -= h
        lo = occ[idx] - minus[idx]
        grad[idx] = (raw(plus) - raw(minus)) / (h + lo)
    return grad


# -- policy truncation ----------------------------------------------------------

def induced_khop_policy(policy: KHopPolicy, kappa: int, anchor_state) -> KHopPolicy:
    """Restrict a wider policy to radius ``kappa`` by freezing distant states.

    Each agent's new table reads only the states within distance kappa; the
    states of the remaining agents in its original neighborhood are fixed at
    ``anchor_state``.
    """
    if kappa > policy.kappa:
        raise ValueError("induced policy must have a smaller or equal radius")
    new = KHopPolicy.zeros(policy.graph, policy.state_sizes, policy.action_sizes,
                           kappa, policy.theta_bound)
    anchor = np.asarray(anchor_state, dtype=np.int64)
    if np.any(anchor < 0) or np.any(anchor >= policy.state_sizes):
        raise ValueError(f"anchor state {tuple(anchor_state)} out of range")
    tables = []
    for i in range(policy.graph.n):
        # the new neighborhood enumerated, every other agent at the anchor
        s = np.tile(anchor, (len(new.theta[i]), 1))
        s[:, list(new.neighborhood(i))] = indexing.decode_table(
            new.nbhd_state_sizes(i))
        tables.append(policy.theta[i][encode(s, policy.neighborhood(i),
                                             policy.nbhd_state_sizes(i))])
    return new.with_theta(tables)


def policy_state_sensitivity(policy: KHopPolicy, kappa: int) -> float:
    """Largest L1 change of any local policy when states outside the
    distance-``kappa`` ball vary (brute force over neighborhood states)."""
    worst = 0.0
    for i in range(policy.graph.n):
        inner = set(khop_neighborhood(policy.graph, i, kappa))
        outer = [p for p, j in enumerate(policy.neighborhood(i)) if j not in inner]
        worst = max(worst, indexing.max_pairwise_l1(
            policy.prob_tables[i], policy.nbhd_state_sizes(i), outer))
    return worst
