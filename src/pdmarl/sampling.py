"""Trajectory generation under a k-hop policy, all agents stepped at once.

``Simulator`` is the one inverse-CDF sampler of the package: per half-step
it finds every agent's table row with one integer product ``rows = x @ W``
over the rows ``x = [s | a | 1]``, W the policy's or the kernels'
``indexing.weight_matrix`` above the CDF offsets, and draws every agent's
action (or next state) with one gather from stacked CDF tables.
``Simulator.rollout`` runs row groups of different lengths in lockstep:
``train`` rolls out its sampling batch (``trajectory_draws``) and both TD
trajectories (``critic.td_draws``) at once.

When every kernel table has all rows equal (``wireless_grid`` at deadline
1, whose next queue reads neither state nor action), the rollout is open
loop: no next state reads the trajectory, so each stack of ``STACK_STEPS``
steps draws all its states with one call, then all its actions with one
product and one call. Each draw compares the same uniform with the same
threshold as the stepped loop, so the trajectories are the same.
"""

from __future__ import annotations

import copy

import numpy as np

from .model import FactoredCMDP
from .policy import KHopPolicy


class CdfLayout:
    """Where the rows of n row-stochastic tables of ``shapes`` sit in one
    stacked array of thresholds: agent i's rows start at ``offsets[i]``.

    A row keeps the cumsum of its table row without the last column,
    padded with 2.0 so that padding is never counted. With one threshold
    column (every table on the line is binary) a draw is one comparison.
    Wider stacks are padded to 2, 4 or 8 columns, or to a multiple of 8,
    so that a row's comparison is one uint16, uint32 or uint64 ``word``, or
    several uint64 words, whose set bits ``np.bitwise_count`` counts.
    """

    def __init__(self, shapes):
        rows = [r for r, _ in shapes]
        self.offsets = np.cumsum([0] + rows[:-1])
        widths = np.repeat([w for _, w in shapes], rows)[:, None]
        width = widths.max() - 1
        self.word = None
        if width != 1:
            size = 2 if width <= 2 else 4 if width <= 4 else 8
            self.word = np.dtype(f"u{size}")
            width = -(-width // size) * size
        # where each entry of the flat tables goes, in rows of width + 1
        # columns, and the thresholds that are padding
        self.entries = np.flatnonzero(np.arange(width + 1) < widths)
        self.padding = np.arange(width) >= widths - 1


class InverseCdf:
    """Inverse-CDF draws from n row-stochastic tables, one per agent, at once.

    The tables are given as one flat array ``probs``, agent after agent and
    row-major (as ``KHopPolicy.probs``), placed by a ``CdfLayout``.
    ``draw(rows, u)[..., i]`` is the first index c with
    ``u[..., i] < cumsum(tables[i][rows[..., i]])[c]``, else the last index
    (also when a row's cumsum ends below 1.0). The stacked thresholds
    ``cdf`` are one ``cumsum`` of the tables laid into zero-padded rows:
    zeros after a row's entries leave its running sums alone.
    """

    def __init__(self, layout: CdfLayout, probs):
        self.offsets, word = layout.offsets, layout.word
        padded = np.zeros((len(layout.padding),
                           layout.padding.shape[1] + 1))
        padded.ravel()[layout.entries] = probs
        self.cdf = cdf = np.cumsum(padded[:, :-1], axis=1)
        cdf[layout.padding] = 2.0
        self.col = col = cdf[:, 0].copy() if cdf.shape[1] == 1 else None

        # ``draw_stacked(rows, u, out)``, bound once: the draws at stacked
        # rows (``offsets`` added) and uniforms u, into the int64 ``out``
        def draw_stacked(rows, u, out):
            bits = np.greater_equal(u[..., None], cdf.take(rows, axis=0),
                                    order="C")
            return np.add.reduce(np.bitwise_count(bits.view(word)), axis=-1,
                                 dtype=np.int64, out=out)

        def draw_column(rows, u, out):
            out[...] = u >= col.take(rows)
            return out
        self.draw_stacked = draw_stacked if col is None else draw_column

    @staticmethod
    def of_tables(tables) -> "InverseCdf":
        """Draws from a list of (rows, A_i) tables."""
        tables = [np.asarray(t) for t in tables]
        return InverseCdf(CdfLayout([t.shape for t in tables]),
                          np.concatenate([t.ravel() for t in tables]))

    def draw(self, rows, u):
        """Draws at integer rows and uniforms u of shape (..., n)."""
        rows = rows + self.offsets
        return self.draw_stacked(rows, u, np.empty(rows.shape, np.int64))


# Uniform that drives the steps of a row group past its own length: every
# row of a rollout advances in lockstep, and those steps are dropped.
PAD_U = 0.5

# A rollout stacks its groups' uniforms this many steps at a time, so that
# it holds no whole (T, R, n) copy of them.
STACK_STEPS = 64


def _stack_steps(us, lengths, starts, k0, k1):
    """Steps k0..k1-1 of every group's uniforms ``us``, stacked over rows
    into one (k1 - k0, R, n) array; steps at or past a group's length in
    ``lengths`` are ``PAD_U``."""
    out = np.full((k1 - k0, starts[-1], us[0].shape[-1]), PAD_U)
    for u, r0, r1, t in zip(us, starts, starts[1:], lengths):
        hi = min(k1, t)
        if hi > k0:
            out[:hi - k0, r0:r1] = u[k0:hi]
    return out


class Simulator:
    """Actions and transitions of every agent of ``cmdp`` under ``policy``.

    A row of the rollout is one integer vector ``x = [s | a | 1]`` of length
    2n+1. Each half-step looks up every agent's stacked CDF row with one
    product ``x @ W``: ``act_w`` stacks ``KHopPolicy.row_weights`` (the
    actions weigh nothing), ``trans_w`` ``FactoredCMDP.kernel_weights``,
    and the last row of each holds the ``InverseCdf`` offsets.
    ``init_cdf`` draws the initial states of ``trajectory_draws``.
    Only the policy CDF depends on the policy's parameters: it is built
    from the policy's stacked probabilities in ``policy_layout``, and
    ``with_policy`` builds it anew and shares the rest. ``open_loop`` is set when every kernel table has all rows equal,
    so that no next state reads the trajectory.
    """

    def __init__(self, cmdp: FactoredCMDP, policy: KHopPolicy):
        n = self.n = cmdp.n_agents
        self.policy_layout = CdfLayout(policy.stack.shapes)
        self.policy_cdf = InverseCdf(self.policy_layout, policy.probs)
        self.kernel_cdf = InverseCdf.of_tables(
            [kern.table for kern in cmdp.kernels])
        self.init_cdf = InverseCdf.of_tables(
            [np.asarray(d)[None, :] for d in cmdp.initial_dist])
        self.act_w = np.vstack([policy.row_weights(),
                                np.zeros((n, n), dtype=np.int64),
                                self.policy_cdf.offsets])
        # Every policy CDF row id is below the policy tables' total row
        # count, at most n times ``policy.MAX_TABLE_ENTRIES`` (10^9 at
        # ``envs.MAX_AGENTS``), far below 2^53; every term and partial sum of
        # ``x @ act_w`` is a nonnegative integer no larger, so the float64
        # product (BLAS) is exact.
        self.act_wf = self.act_w.astype(np.float64)
        self.trans_w = np.vstack([cmdp.kernel_weights(),
                                  self.kernel_cdf.offsets])
        self.open_loop = all((kern.table == kern.table[0]).all()
                             for kern in cmdp.kernels)

    def with_policy(self, policy: KHopPolicy) -> "Simulator":
        """This simulator under ``policy``, whose tables have the shapes of
        the policy it was built with: the kernel CDF and the weight
        matrices are shared, the policy CDF is built anew."""
        sim = copy.copy(self)
        sim.policy_cdf = InverseCdf(self.policy_layout, policy.probs)
        return sim

    def policy_rows(self, x) -> np.ndarray:
        """Stacked policy CDF rows ``x @ act_w`` of rollout rows x
        (..., 2n+1), as one exact float64 product of x's rows (see
        ``act_wf``) cast back to int64."""
        flat = x.reshape(-1, x.shape[-1]).astype(np.float64)
        return (flat @ self.act_wf).astype(np.int64).reshape(
            x.shape[:-1] + (self.n,))

    def rollout(self, groups):
        """One lockstep rollout of row groups of different lengths.

        Each group is ``(s, u_act, u_trans)``: R_i initial states (R_i, n),
        action uniforms (T_i, R_i, n) and at least T_i - 1 transition
        uniforms (., R_i, n). Step k draws the actions with ``u_act[k]``;
        the states of step k+1 are drawn with ``u_trans[k]``. Returns one
        ``(states, actions)`` pair per group, each row's trajectory: shape
        (R_i, T_i, n). All groups run for the longest T_i steps; a shorter
        group's extra steps use ``PAD_U`` and are cut off, so each pair
        equals the rollout of its group alone. An ``open_loop`` simulator
        draws each stack of ``STACK_STEPS`` steps at once, each agent's
        states at its first kernel row, to the same trajectories.
        """
        n = self.n
        lengths = [len(u_act) for _, u_act, _ in groups]
        T = max(lengths)
        starts = np.cumsum([0] + [len(s) for s, _, _ in groups])
        # one spare step, into which the last step's transitions are drawn
        x = np.zeros((T + 1, starts[-1], 2 * n + 1), dtype=np.int64)
        x[..., -1] = 1
        for (s, _, _), r0, r1 in zip(groups, starts, starts[1:]):
            x[0, r0:r1, :n] = s
        uniforms = [([ua for _, ua, _ in groups], lengths),
                    ([ut for _, _, ut in groups], [t - 1 for t in lengths])]
        act, trans = self.policy_cdf.draw_stacked, self.kernel_cdf.draw_stacked
        for k0 in range(0, T, STACK_STEPS):
            k1 = min(k0 + STACK_STEPS, T)
            u_act, u_trans = (_stack_steps(us, ts, starts, k0, k1)
                              for us, ts in uniforms)
            if self.open_loop:
                # every state of the stack, then every action
                trans(self.kernel_cdf.offsets, u_trans,
                      x[k0 + 1:k1 + 1, :, :n])
                act(self.policy_rows(x[k0:k1]), u_act, x[k0:k1, :, n:2 * n])
                continue
            # per step: rows, their actions, the next rows' states, uniforms
            for xk, ak, sk, ua, ut in zip(x[k0:k1], x[k0:k1, :, n:2 * n],
                                          x[k0 + 1:k1 + 1, :, :n], u_act,
                                          u_trans):
                act(xk @ self.act_w, ua, ak)
                trans(xk @ self.trans_w, ut, sk)
        # copies: views would keep the (T, R, 2n+1) buffer alive for the
        # rest of the iteration, which pinned the freed TD Q tables in the
        # heap (measured: +23 MB peak RSS on the side-3 wireless grid)
        by_row = x[..., :2 * n].swapaxes(0, 1)
        return [(np.ascontiguousarray(by_row[r0:r1, :t, :n]),
                 np.ascontiguousarray(by_row[r0:r1, :t, n:]))
                for r0, r1, t in zip(starts, starts[1:], lengths)]


def trajectory_draws(sim: Simulator, batch_size: int, horizon: int, rng):
    """Initial states and uniforms of ``batch_size`` trajectories of
    ``horizon`` steps, as one ``sim.rollout`` group, drawn from ``rng`` in
    this order: initial states (with ``sim.init_cdf``), then action
    uniforms, then transition uniforms, each (horizon, batch_size, n)."""
    if batch_size < 1 or horizon < 1:
        raise ValueError("batch_size and horizon must be positive")
    shape = (batch_size, sim.n)
    s = sim.init_cdf.draw(np.zeros(shape, dtype=np.int64), rng.random(shape))
    u_act = rng.random((horizon,) + shape)
    u_trans = rng.random((horizon,) + shape)
    return s, u_act, u_trans
