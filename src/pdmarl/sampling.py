"""Trajectory generation under a k-hop policy, all agents stepped at once.

``Simulator`` is the one inverse-CDF sampler of the package: per step it
finds every agent's table row with one integer product ``rows = s @ W`` and
draws every agent's action (or next state) with one gather from stacked CDF
tables. ``sample_trajectories`` and ``critic.td_evaluate`` both roll it out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FactoredCMDP
from .policy import KHopPolicy
from . import indexing


@dataclass(frozen=True)
class TrajectoryBatch:
    """B trajectories of length H; integer arrays of shape (B, H, n)."""

    states: np.ndarray
    actions: np.ndarray

    @property
    def batch_size(self):
        return self.states.shape[0]

    @property
    def horizon(self):
        return self.states.shape[1]

    def __post_init__(self):
        if self.states.shape != self.actions.shape:
            raise ValueError("states and actions must have matching shapes")
        if self.states.ndim != 3:
            raise ValueError("trajectory arrays must have shape (B, H, n)")


class InverseCdf:
    """Inverse-CDF draws from n row-stochastic tables, one per agent, at once.

    ``draw(rows, u)[..., i]`` is the first index c with
    ``u[..., i] < cumsum(tables[i][rows[..., i]])[c]``, else the last index
    (also when a row's cumsum ends below 1.0). The cumsums without their last
    column are stacked into one array, padded with 2.0 so that padding is
    never counted.
    """

    def __init__(self, tables):
        tables = [np.asarray(t) for t in tables]
        self.offsets = np.cumsum([0] + [len(t) for t in tables[:-1]])
        self.cdf = np.full((sum(len(t) for t in tables),
                            max(t.shape[1] for t in tables) - 1), 2.0)
        for t, off in zip(tables, self.offsets):
            self.cdf[off: off + len(t), : t.shape[1] - 1] = \
                np.cumsum(t, axis=1)[:, :-1]

    def draw(self, rows, u):
        """Draws at integer rows and uniforms u of shape (..., n)."""
        return (u[..., None] >= self.cdf[rows + self.offsets]).sum(axis=-1)


class Simulator:
    """Actions and transitions of every agent of ``cmdp`` under ``policy``.

    Row lookups are products with n x n radix-weight matrices: column i of
    ``policy_w`` encodes agent i's policy neighborhood, columns i of
    ``state_w``/``action_w`` encode kernel i's dependency cell.
    """

    def __init__(self, cmdp: FactoredCMDP, policy: KHopPolicy):
        n = cmdp.n_agents
        self.policy_cdf = InverseCdf([policy.prob_table(i) for i in range(n)])
        self.kernel_cdf = InverseCdf([kern.table for kern in cmdp.kernels])
        self.policy_w, self.state_w, self.action_w = (
            np.zeros((n, n), dtype=np.int64) for _ in range(3))
        for i in range(n):
            self.policy_w[list(policy.neighborhood(i)), i] = \
                indexing.radix_weights(policy.nbhd_state_sizes(i))
        for i, kern in enumerate(cmdp.kernels):
            w = indexing.radix_weights(kern.dep_sizes)
            ns = len(kern.state_deps)
            self.state_w[list(kern.state_deps), i] = w[:ns]
            self.action_w[list(kern.action_deps), i] = w[ns:]

    def act(self, s, u):
        """Joint actions at integer states s and uniforms u, both (..., n)."""
        return self.policy_cdf.draw(s @ self.policy_w, u)

    def transition(self, s, a, u):
        """Next states after states s and actions a, with uniforms u."""
        return self.kernel_cdf.draw(s @ self.state_w + a @ self.action_w, u)

    def rollout(self, s, u_act, u_trans):
        """States and actions of ``len(u_act)`` steps from states s.

        Step k draws its actions with ``u_act[k]``; the states of step k+1
        are drawn with ``u_trans[k]``. Outputs have shape (T,) + s.shape.
        """
        states = np.empty((len(u_act),) + s.shape, dtype=np.int64)
        actions = np.empty_like(states)
        for k in range(len(u_act)):
            if k:
                s = self.transition(s, a, u_trans[k - 1])
            a = self.act(s, u_act[k])
            states[k], actions[k] = s, a
        return states, actions


def sample_trajectories(cmdp: FactoredCMDP, policy: KHopPolicy,
                        batch_size: int, horizon: int, rng,
                        initial_states=None) -> TrajectoryBatch:
    """Simulate ``batch_size`` trajectories of ``horizon`` steps.

    All trajectories advance in lockstep; actions and transitions use
    inverse-CDF draws in fixed order so the output is a deterministic
    function of the rng state.
    """
    if batch_size < 1 or horizon < 1:
        raise ValueError("batch_size and horizon must be positive")
    n = cmdp.n_agents
    B = batch_size
    if initial_states is None:
        u0 = rng.random((B, n))
        s = InverseCdf([np.asarray(d)[None, :] for d in cmdp.initial_dist]
                       ).draw(np.zeros((B, n), dtype=np.int64), u0)
    else:
        s = np.array(initial_states, dtype=np.int64)
        if s.shape != (B, n):
            raise ValueError("initial_states must have shape (B, n)")
        if np.any(s < 0) or np.any(s >= np.array(cmdp.local_state_sizes)):
            raise ValueError("initial_states out of range")

    u_act = rng.random((horizon, B, n))
    u_trans = rng.random((horizon, B, n))
    states, actions = Simulator(cmdp, policy).rollout(s, u_act, u_trans)
    return TrajectoryBatch(states=np.ascontiguousarray(states.swapaxes(0, 1)),
                           actions=np.ascontiguousarray(actions.swapaxes(0, 1)))
