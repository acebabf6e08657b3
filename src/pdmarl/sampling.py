"""Trajectory generation under a k-hop policy, all agents stepped at once.

``Simulator`` is the one inverse-CDF sampler of the package: it finds every
agent's table row with one product ``rows = x @ W`` over the rows
``x = [s | a | 1]``, W the policy's or the kernels'
``indexing.weight_matrix`` above the CDF offsets (an exact float64
product), and draws every agent's action (or next state) with one gather
from stacked CDF tables. ``Simulator.rollout`` runs row groups of
different lengths together: ``train`` rolls out its sampling batch
(``trajectory_draws``) and both TD trajectories (``critic.td_draws``) at
once. Rows of longer groups come first, so the rows still running at any
step are a prefix, and a group's rows are not stepped past its end.

A rollout is a chain x_{k+1} = F_k(x_k) driven by fixed uniforms, solved in
windows of sweeps. A sweep draws the actions and next states of every step
of a window at once, from the states it holds (exact at the window's first
step, guessed after it: state 0, or the previous sweep's draws). The steps
up to and including the first whose next state the sweep changed were each
drawn from an exact state, with the same uniform and threshold as the
stepped loop, so they are the stepped loop's trajectory bit for bit; the
sweep keeps them and the next window starts there. Every sweep keeps at
least one step, so a rollout of T steps takes at most T sweeps. When every
kernel table has all rows equal (``wireless_grid`` at deadline 1, whose
next queue reads neither state nor action), the rollout is open loop: a
window draws all its states and then all its actions, and is kept whole
after one sweep.

Windows pay where a step holds few rows times agents and trajectories from
different states merge within a few steps: the 10-agent line's first
rollout of a training, 5 rows of 125 steps and 2 of 501, takes 24-26
sweeps. ``_Windows`` sets a window to at most ``WINDOW_CELLS`` rows times
agents and charges each sweep its cells plus a fixed overhead; once the
sweeps of a stretch between two group ends have used up a trial of at most
``TRIAL_SWEEPS`` sweeps and cost more than stepping would have, the
stretch steps, one step per sweep with no check: the stepped loop.
Batches of thousands of rows step from the start; after a few sweeps, so
do the 100-agent line and the 7 rows of the deadline-2 grid, whose queues
keep a wrong guess for many steps.
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


# Uniform that drives a row group's transition out of its last step, into a
# state that is dropped, drawn together with the other rows' transitions.
PAD_U = 0.5

# A rollout stacks its groups' uniforms at least this many steps at a time
# (twice its window when that is longer), so that it holds no whole
# (T, R, n) copy of them.
STACK_STEPS = 64

# The window rule, in cells (one row's one agent at one step). A window
# holds at most ``WINDOW_CELLS`` cells. A sweep costs about ``SWEEP_CELLS``
# more than its cells and a step ``STEP_CELLS`` more than its own
# (``timeit`` of ``Simulator._sweep`` on the 10- and 100-agent lines and
# the deadline-2 side-4 grid, one BLAS thread: 9-13 us a sweep and
# 5.5-8.6 us a step besides 5-11 ns a cell). The windows of a stretch are
# tried for at most ``TRIAL_SWEEPS`` full sweeps' cost: enough for the
# first sweeps from state-0 guesses, which keep one step each (up to 9 on
# the line), before the kept runs come.
WINDOW_CELLS = 4096
SWEEP_CELLS = 1500
STEP_CELLS = 1000
TRIAL_SWEEPS = 16


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


class _Windows:
    """The window rule of a stretch of a rollout with ``cells`` rows times
    agents per step, from what its sweeps keep.

    ``size`` starts at the most steps a window of ``WINDOW_CELLS`` holds.
    Sweeps are charged their cells plus ``SWEEP_CELLS``, a step its cells
    plus ``STEP_CELLS``. Once the sweeps have cost more than their
    ``trial``, the lesser of stepping one window and ``TRIAL_SWEEPS`` full
    sweeps, and more than stepping the steps they kept would have, ``size``
    falls to 1 (the stepped loop) for the rest of the stretch. A stretch
    whose steps hold ``WINDOW_CELLS`` cells or more steps from the start.
    """

    def __init__(self, cells):
        self.cells = cells
        self.size = max(1, WINDOW_CELLS // cells)
        self.trial = min(self.size * (STEP_CELLS + cells),
                         TRIAL_SWEEPS * (SWEEP_CELLS + self.size * cells))
        self.cost = self.kept = 0

    def swept(self, steps, kept):
        """Charges a sweep over ``steps`` steps that kept ``kept``."""
        if self.size > 1:
            self.cost += SWEEP_CELLS + steps * self.cells
            self.kept += kept
            if self.cost > max(self.trial,
                               self.kept * (STEP_CELLS + self.cells)):
                self.size = 1


class Simulator:
    """Actions and transitions of every agent of ``cmdp`` under ``policy``.

    A row of the rollout is one integer vector ``x = [s | a | 1]`` of length
    2n+1. Each half-step looks up every agent's stacked CDF row with one
    product ``x @ W``: ``act_w`` stacks ``KHopPolicy.row_weights`` (the
    actions weigh nothing), ``trans_w`` ``FactoredCMDP.kernel_weights``,
    and the last row of each holds the ``InverseCdf`` offsets; ``rows``
    takes the product in float64 (``act_wf``, ``trans_wf``).
    ``init_cdf`` draws the initial states of ``trajectory_draws``.
    Only the policy CDF depends on the policy's parameters: it is built
    from the policy's stacked probabilities in ``policy_layout``, and
    ``with_policy`` builds it anew and shares the rest. ``open_loop`` is
    set when every kernel table has all rows equal, so that no next state
    reads the trajectory.
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
        self.trans_w = np.vstack([cmdp.kernel_weights(),
                                  self.kernel_cdf.offsets])
        # Every CDF row id is below its stacked tables' total row count: at
        # most n times ``policy.MAX_TABLE_ENTRIES`` (10^9 at
        # ``envs.MAX_AGENTS``) for the policy, and the kernel tables' rows,
        # which are held in memory. Both are far below 2^53, and every term
        # and partial sum of ``x @ act_w`` or ``x @ trans_w`` is a
        # nonnegative integer no larger, so the float64 product (BLAS) is
        # exact.
        self.act_wf = self.act_w.astype(np.float64)
        self.trans_wf = self.trans_w.astype(np.float64)
        self.open_loop = all((kern.table == kern.table[0]).all()
                             for kern in cmdp.kernels)

    def with_policy(self, policy: KHopPolicy) -> "Simulator":
        """This simulator under ``policy``, whose tables have the shapes of
        the policy it was built with: the kernel CDF and the weight
        matrices are shared, the policy CDF is built anew."""
        sim = copy.copy(self)
        sim.policy_cdf = InverseCdf(self.policy_layout, policy.probs)
        return sim

    def rows(self, x, weights) -> np.ndarray:
        """Stacked CDF rows ``x @ weights`` of integer rollout rows x
        (..., 2n+1), ``weights`` ``act_wf`` or ``trans_wf``: one exact
        float64 product of x's rows cast back to int64."""
        flat = x.reshape(-1, x.shape[-1])
        return (flat @ weights).astype(np.int64).reshape(
            x.shape[:-1] + (self.n,))

    def _sweep(self, x, u_act, u_trans) -> int:
        """One sweep over the W steps of rollout rows x (W+1, r, 2n+1), whose
        first states are exact: draws every step's actions with ``u_act``
        and next states with ``u_trans`` (W, r, n) at once, from the states
        x holds, and writes them into x. Returns how many steps are now
        exact: the steps up to and including the first whose next state
        the sweep changed, each drawn from an exact state with its own
        uniform, as the stepped loop draws it. A window of one step is the
        stepped loop; an ``open_loop`` window is exact after one sweep."""
        n, W = self.n, len(u_act)
        act, trans = self.policy_cdf.draw_stacked, self.kernel_cdf.draw_stacked
        if W == 1 and not self.open_loop:
            # the stepped loop: one step needs no check, and its 2-D rows
            # need no reshapes
            xk = x[0]
            act((xk @ self.act_wf).astype(np.int64), u_act[0], xk[:, n:2 * n])
            trans((xk @ self.trans_wf).astype(np.int64), u_trans[0],
                  x[1, :, :n])
            return 1
        xs, nxt = x[:-1], x[1:, :, :n]
        if self.open_loop:
            # no next state reads the trajectory: every state, then every
            # action
            trans(self.kernel_cdf.offsets, u_trans, nxt)
            act(self.rows(xs, self.act_wf), u_act, xs[..., n:2 * n])
            return W
        act(self.rows(xs, self.act_wf), u_act, xs[..., n:2 * n])
        new = trans(self.rows(xs, self.trans_wf), u_trans,
                    np.empty(nxt.shape, np.int64))
        changed = (new[:-1] != nxt[:-1]).any(axis=(1, 2))
        nxt[...] = new
        kept = int(changed.argmax())
        return kept + 1 if changed[kept] else W

    def rollout(self, groups):
        """One rollout of row groups of different lengths.

        Each group is ``(s, u_act, u_trans)``: R_i initial states (R_i, n),
        action uniforms (T_i, R_i, n) and at least T_i - 1 transition
        uniforms (., R_i, n). Step k draws the actions with ``u_act[k]``;
        the states of step k+1 are drawn with ``u_trans[k]``. Returns one
        ``(states, actions)`` pair per group, each row's trajectory: shape
        (R_i, T_i, n). Longer groups' rows come first, so the rows still
        running are a prefix; each stretch between two group ends is
        solved in windows of speculative sweeps (``_sweep``, ``_Windows``)
        from the exact states up to it. Each pair equals its group's
        rollout alone, step by step.
        """
        n = self.n
        lengths = [len(u_act) for _, u_act, _ in groups]
        order = sorted(range(len(groups)), key=lengths.__getitem__,
                       reverse=True)
        starts = np.cumsum([0] + [len(groups[g][0]) for g in order])
        ends = [lengths[g] for g in order]
        # one spare step, into which the last step's transitions are drawn;
        # steps not yet drawn hold state 0, the first sweep's guess
        x = np.zeros((ends[0] + 1, starts[-1], 2 * n + 1), dtype=np.int64)
        x[..., -1] = 1
        for g, r0, r1 in zip(order, starts, starts[1:]):
            x[0, r0:r1, :n] = groups[g][0]
        uniforms = [([groups[g][1] for g in order], ends),
                    ([groups[g][2] for g in order], [t - 1 for t in ends])]
        k = 0
        for j in reversed(range(len(order))):
            # steps k..ends[j]-1 of the first j + 1 groups' rows
            end, xr = ends[j], x[:, :starts[j + 1]]
            windows = _Windows(int(starts[j + 1]) * n)
            c1 = k  # the uniforms of steps c0..c1-1 are stacked
            while k < end:
                k1 = min(k + windows.size, end)
                if k1 > c1:
                    c0 = k
                    c1 = min(k + max(STACK_STEPS, 2 * windows.size), end)
                    u_act, u_trans = (_stack_steps(
                        us[:j + 1], ts[:j + 1], starts[:j + 2], c0, c1)
                        for us, ts in uniforms)
                kept = self._sweep(xr[k:k1 + 1], u_act[k - c0:k1 - c0],
                                   u_trans[k - c0:k1 - c0])
                windows.swept(k1 - k, kept)
                k += kept
        # copies: views would keep the (T, R, 2n+1) buffer alive for the
        # rest of the iteration, which pinned the freed TD Q tables in the
        # heap (measured: +23 MB peak RSS on the side-3 wireless grid)
        by_row = x.swapaxes(0, 1)
        out = [None] * len(groups)
        for g, r0, r1 in zip(order, starts, starts[1:]):
            t = lengths[g]
            out[g] = (np.ascontiguousarray(by_row[r0:r1, :t, :n]),
                      np.ascontiguousarray(by_row[r0:r1, :t, n:2 * n]))
        return out


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
