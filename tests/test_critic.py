import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pdmarl.graph import line_graph
from pdmarl.policy import KHopPolicy
from pdmarl.critic import (TDConfig, default_td_config, read_critics,
                           td_draws, td_fit)
from pdmarl.layout import (MAX_Q_CELLS, RunLayout, q_table_layout,
                           q_table_layouts)
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)
from pdmarl.primal_dual import truncated_pg_estimate
from pdmarl.sampling import Simulator, trajectory_draws
from pdmarl import indexing

from helpers import (chain, reward_steps, rng_for, single_cell_mdp,
                     td_tables, uniform_policy)
from oracles import (PairExactSolve, compute_decay_matrix, dense_table,
                     global_transition_matrix, lift_local_reward,
                     lift_neighborhood_reward, n_pairs, td_fit_reference,
                     truncate_q)


def env_reward_columns(cmdp):
    return np.column_stack([lift_neighborhood_reward(cmdp, r)
                            for r in cmdp.rewards])


class TestTDConfig:
    def test_default_schedule_constants(self):
        cfg = default_td_config(0.99)
        want_h = round(max(2.0, 1.0 / (1.0 - np.sqrt(0.99))) / 0.1)
        assert cfg.h == want_h
        assert cfg.k1 == 2 * want_h
        assert cfg.steps == 500

    def test_small_gamma_floor(self):
        cfg = default_td_config(0.0)
        assert cfg.h == 20  # max(2, 1) / 0.1

    def test_step_size_decreasing(self):
        cfg = TDConfig(steps=10, h=5.0, k1=10.0)
        assert cfg.step_size(1) > cfg.step_size(100)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TDConfig(steps=0, h=1.0, k1=1.0)


class TestTDEvaluate:
    def test_zero_rewards_stay_zero(self):
        m = chain(2)
        q = td_tables(m, uniform_policy(m), [np.zeros((2, 2))] * 2, 1,
                      TDConfig(steps=300, h=10.0, k1=20.0), rng_for(0))
        for tab in q:
            np.testing.assert_array_equal(dense_table(tab), 0.0)

    def test_single_cell_fixed_point(self):
        m = single_cell_mdp(0.5)
        cfg = default_td_config(0.5, steps=10_000)
        q = td_tables(m, uniform_policy(m, kappa=0), [np.ones((1, 1))], 0,
                      cfg, rng_for(1))
        assert dense_table(q[0])[0, 0] == pytest.approx(2.0, abs=0.05)

    def test_touches_one_cell_per_step(self):
        m = chain(2)
        pol = uniform_policy(m)
        cfg_a = TDConfig(steps=50, h=10.0, k1=20.0)
        cfg_b = TDConfig(steps=51, h=10.0, k1=20.0)
        rewards = [np.ones((2, 2)), np.ones((2, 2))]
        qa = td_tables(m, pol, rewards, 1, cfg_a, rng_for(2))
        qb = td_tables(m, pol, rewards, 1, cfg_b, rng_for(2))
        for a, b in zip(qa, qb):
            assert np.count_nonzero(dense_table(a) != dense_table(b)) <= 1

    def test_chain_matches_exact_truncated_q(self):
        m = chain(2)
        pol = uniform_policy(m)
        cols = env_reward_columns(m)
        cfg = default_td_config(0.9, steps=100_000)
        q = td_tables(m, pol, [m.rewards[0], m.rewards[1]], 1, cfg,
                      rng_for(3))
        solve = PairExactSolve(m, pol)
        for i in range(2):
            exact = truncate_q(m, solve.q(cols[:, i]), i, 1)
            err = np.max(np.abs(dense_table(q[i]) - dense_table(exact)))
            r_inf = np.max(np.abs(cols[:, i]))
            assert err < 0.1 * r_inf / (1.0 - m.gamma)

    def test_error_decreases_with_more_steps(self):
        m = chain(2)
        pol = uniform_policy(m)
        cols = env_reward_columns(m)
        exact = truncate_q(m, PairExactSolve(m, pol).q(cols[:, 0]), 0, 1)

        def run(K, seed):
            cfg = default_td_config(0.9, steps=K)
            q = td_tables(m, pol, [m.rewards[0], m.rewards[1]], 1, cfg,
                          rng_for(seed))
            return float(np.max(np.abs(dense_table(q[0])
                                       - dense_table(exact))))

        small = np.median([run(2_000, s) for s in range(10)])
        large = np.median([run(20_000, s) for s in range(10)])
        assert large < small

    def test_deterministic_given_stream(self):
        m = chain(3)
        pol = uniform_policy(m)
        cfg = TDConfig(steps=400, h=10.0, k1=20.0)
        qa = td_tables(m, pol, list(m.rewards), 1, cfg, rng_for(4))
        qb = td_tables(m, pol, list(m.rewards), 1, cfg, rng_for(4))
        for a, b in zip(qa, qb):
            np.testing.assert_array_equal(dense_table(a), dense_table(b))


def all_pairs(n):
    """Every global (state, action) of n binary agents, one per step."""
    sa = indexing.decode_table((2,) * (2 * n))
    return sa[:, :n], sa[:, n:]


class TestTDFitSlots:
    """``td_fit``'s sorted slots and lone updates against the dict
    recursion."""

    def check(self, m, S, A, kappa=1):
        S, A = np.asarray(S, dtype=np.int64), np.asarray(A, dtype=np.int64)
        layout = RunLayout(m, uniform_policy(m, kappa), kappa,
                           TDConfig(steps=len(S) - 1, h=10.0, k1=20.0))
        rng = rng_for(len(S))
        shadow = [rng.normal(size=shape) for shape in layout.sa_shapes]
        for rewards in (list(m.rewards), shadow):
            got = td_fit(layout, reward_steps(layout, rewards, S, A), S, A)
            for q, (keys, values) in zip(got, td_fit_reference(
                    layout, rewards, S, A), strict=True):
                assert q.keys.dtype == np.int64
                assert q.keys.tobytes() == keys.tobytes()
                assert q.values.tobytes() == values.tobytes()
        return got

    def test_every_step_revisits_its_cell(self):
        # c_{k+1} = c_k at every step: one stored cell per agent, and the
        # last cell was written earlier
        got = self.check(chain(3), [[0, 1, 1]] * 6, [[1, 0, 1]] * 6)
        assert [len(q.keys) for q in got] == [1, 1, 1]

    def test_last_cell_never_written(self):
        got = self.check(chain(3), [[0, 0, 0]] * 5 + [[1, 1, 1]],
                         [[0, 0, 0]] * 6)
        assert [len(q.keys) for q in got] == [1, 1, 1]
        assert all(q.values[0] != 0.0 for q in got)

    def test_last_cell_written_earlier(self):
        S = [[0, 0, 0], [1, 0, 1], [1, 1, 0], [0, 0, 0]]
        A = [[1, 1, 0], [0, 0, 0], [1, 0, 1], [1, 1, 0]]
        self.check(chain(3), S, A)

    def test_revisit_before_a_first_visit(self):
        # step 1 revisits step 0's cell and reads step 2's, which step 2
        # first writes: 0.0 at step 1, though td_fit writes step 2's lone
        # update before its loop runs step 1
        S = [[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1]]
        A = [[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 1, 1]]
        got = self.check(chain(3), S, A)
        assert [len(q.keys) for q in got] == [2, 2, 2]

    def test_one_step(self):
        got = self.check(chain(3), [[0, 1, 0], [1, 1, 1]],
                         [[1, 0, 0], [0, 1, 1]])
        assert [len(q.keys) for q in got] == [1, 1, 1]

    def test_one_cell_table(self):
        m = single_cell_mdp(0.5)
        [q] = self.check(m, [[0]] * 4, [[0]] * 4, kappa=0)
        assert q.keys.tolist() == [0]

    def test_full_tables(self):
        S, A = all_pairs(3)  # 64 steps visit every global pair
        got = self.check(chain(3), np.vstack([S, S[:1]]),
                         np.vstack([A, A[:1]]))
        assert [len(q.keys) for q in got] == [16, 64, 16]

    def test_sparse_tables(self):
        rng = rng_for(11)
        m = chain(6)
        for kappa in (1, 2):
            got = self.check(m, rng.integers(2, size=(21, 6)),
                             rng.integers(2, size=(21, 6)), kappa)
            assert all(len(q.keys) < dense_table(q).size for q in got)

    def test_wireless_grid_tables(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.99))
        rng = rng_for(12)
        S = rng.integers(2, size=(41, m.n_agents))
        A = rng.integers(np.array(m.local_action_sizes), size=(41, m.n_agents))
        self.check(m, S, A)


class TestTableRead:
    def test_full_and_sparse_reads_give_the_dense_bytes(self):
        S, A = all_pairs(3)
        m = chain(3)
        layout = RunLayout(m, uniform_policy(m), 1,
                           TDConfig(steps=len(S) - 1, h=10.0, k1=20.0))
        cells = layout.q_cells(S, A)
        for i, q in enumerate(td_fit(
                layout, reward_steps(layout, list(m.rewards), S, A), S, A)):
            # every cell stored but the last step's: drop one more, then
            # read the table with every cell stored, and both sparse tables
            dense = dense_table(q)
            full = dataclasses.replace(q, keys=np.arange(dense.size),
                                       values=dense.ravel())
            sparse = dataclasses.replace(q, keys=q.keys[1:],
                                         values=q.values[1:])
            for tab in (full, q, sparse):
                got = tab.read(cells[:, i])
                assert got.dtype == np.float64
                assert got.tobytes() == \
                    dense_table(tab).ravel()[cells[:, i]].tobytes()


class TestStackedRead:
    @pytest.mark.parametrize("env", ["line10", "grid3"])
    def test_stacked_read_is_the_per_agent_read(self, env):
        m = (synthetic_line(SyntheticLineSpec(n=10, gamma=0.99))
             if env == "line10" else
             wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.99)))
        rng = rng_for(7)
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.1)
        # few TD steps, so that the batch reads many cells no step stored
        td = TDConfig(steps=60, h=20.0, k1=40.0)
        layout = RunLayout(m, pol, 1, td)
        sim = layout.simulator
        (S, A), *fits = sim.rollout([trajectory_draws(sim, 5, 125, rng),
                                     td_draws(m, td, rng),
                                     td_draws(m, td, rng)])
        critics = [td_fit(layout, rng.normal(size=(m.n_agents, td.steps)),
                          S_td[0], A_td[0]) for S_td, A_td in fits]
        cells = layout.q_cells(S, A)
        ids = np.moveaxis(cells + layout.q_off[:-1], -1, 0)
        for steps in (slice(None), slice(0, 2)):
            got = read_critics(critics, ids[:, :, steps])
            for q_all, values in zip(critics, got):
                assert np.isin(ids[:, :, steps], q_all.keys,
                               invert=True).any()
                assert values.shape == ids[:, :, steps].shape
                for j, q in enumerate(q_all):
                    want = q.read(cells[:, steps, j])
                    assert values[j].tobytes() == want.tobytes()
                assert np.all(values[~np.isin(ids[:, :, steps],
                                              q_all.keys)] == 0.0)


class TestSparseQTable:
    def grid4(self):
        return wireless_grid(WirelessGridSpec(side=4, deadline=1, gamma=0.99))

    def test_layout_caps_stored_cells_not_dense_cells(self):
        # agent 5 of the side-4 grid has 2^9 x 101250 dense cells at kappa 1
        m = self.grid4()
        nbhd, s_sizes, a_sizes = q_table_layout(m, 5, 1, 500)
        assert indexing.space_size(s_sizes + a_sizes) == 51_840_000
        with pytest.raises(ValueError, match=f"agent 5 would store up to "
                           f"{MAX_Q_CELLS + 1} cells"):
            q_table_layout(m, 5, 1, MAX_Q_CELLS)
        with pytest.raises(ValueError, match="agent 5 would store up to "
                           "51840000 cells"):
            q_table_layout(m, 5, 1)

    def test_layout_rejects_cell_ids_at_2_53(self):
        # one agent with 2^26 states: 2^27 actions give 2^53 cells, the last
        # id 2^53 - 1; one action more gives ids past 2^53
        def one_agent(actions):
            return SimpleNamespace(graph=line_graph(1),
                                   local_state_sizes=(2**26,),
                                   local_action_sizes=(actions,))
        q_table_layout(one_agent(2**27), 0, 0, 500)
        with pytest.raises(ValueError, match=f"agent 0 has {2**53 + 2**26} "
                           "cells, whose flat ids reach 2\\^53, the "
                           "float64-exact bound"):
            q_table_layout(one_agent(2**27 + 1), 0, 0, 500)
        m = chain(32)
        q_table_layout(m, 16, 12, 500)  # 2^50 cells
        with pytest.raises(ValueError, match="ids reach 2\\^53"):
            q_table_layout(m, 16, 13, 500)  # 2^54 cells
        # each agent has at most 2^50 cells at kappa 12, but the stacked ids
        # of all 32 agents reach 2^53
        with pytest.raises(ValueError, match="all 32 agents have .* cells "
                           "together, whose stacked ids reach 2\\^53, the "
                           "float64-exact bound"):
            q_table_layouts(m, 12, 500)
        layouts, off = q_table_layouts(m, 11, 500)
        assert off[-1] == sum(indexing.space_size(s + a)
                              for _, s, a in layouts) < 2**53

    def test_train_path_allocates_no_dense_table(self):
        # agent 5's dense table would take 415 MB
        m = self.grid4()
        rng = rng_for(5)
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng)
        cfg = default_td_config(m.gamma)
        sim = Simulator(m, pol)
        (S, A), (S_f, A_f), (S_g, A_g) = sim.rollout([
            trajectory_draws(sim, 5, 125, rng), td_draws(m, cfg, rng),
            td_draws(m, cfg, rng)])
        shadow = [np.ones((s, a)) for s, a in
                  zip(m.local_state_sizes, m.local_action_sizes)]
        mu = np.full(m.n_agents, 0.5)
        tracemalloc.start()
        try:
            layout = RunLayout(m, pol, 1, cfg)
            q_f = td_fit(layout, reward_steps(layout, list(m.rewards), S_f[0],
                                              A_f[0]), S_f[0], A_f[0])
            q_g = td_fit(layout, reward_steps(layout, shadow, S_g[0], A_g[0]),
                         S_g[0], A_g[0])
            grads = truncated_pg_estimate(layout, S, A, pol, q_f, q_g, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert all(len(q.keys) <= cfg.steps + 1 for q in [*q_f, *q_g])
        assert np.all(np.isfinite(grads))


class TestExactQ:
    def test_zero_reward_zero_q(self):
        m = chain(2)
        q = PairExactSolve(m, uniform_policy(m)).q(np.zeros(16))
        np.testing.assert_array_equal(q, 0.0)

    def test_constant_reward(self):
        m = chain(2, gamma=0.8)
        q = PairExactSolve(m, uniform_policy(m)).q(np.ones(16))
        np.testing.assert_allclose(q, 5.0, rtol=1e-10)

    def test_bellman_residual(self):
        m = chain(2)
        pol = uniform_policy(m)
        rng = np.random.default_rng(np.random.SeedSequence(41))
        r = rng.normal(size=16)
        q = PairExactSolve(m, pol).q(r)
        P = global_transition_matrix(m, pol)
        resid = np.max(np.abs(q - r - m.gamma * (P.T @ q)))
        assert resid < 1e-8
        assert np.max(np.abs(q)) <= np.max(np.abs(r)) / (1 - m.gamma) + 1e-6

    def test_against_value_iteration(self):
        m = chain(2)
        pol = uniform_policy(m)
        r = env_reward_columns(m)[:, 0]
        q = PairExactSolve(m, pol).q(r)
        P = global_transition_matrix(m, pol)
        v = np.zeros(16)
        for _ in range(500):
            v = r + m.gamma * (P.T @ v)
        np.testing.assert_allclose(q, v, atol=1e-8)

    def test_truncated_equals_full_at_diameter(self):
        m = chain(3)
        pol = uniform_policy(m)
        r = env_reward_columns(m)[:, 1]
        q = PairExactSolve(m, pol).q(r)
        trunc = truncate_q(m, q, 1, kappa=2)
        np.testing.assert_allclose(
            dense_table(trunc), q.reshape(8, 8), atol=1e-12)

    def test_truncation_error_nonincreasing_in_kappa(self):
        m = chain(5)
        pol = uniform_policy(m)
        r = env_reward_columns(m)[:, 2]
        q = PairExactSolve(m, pol).q(r)
        s_dec = indexing.decode_table(m.local_state_sizes)
        a_dec = indexing.decode_table(m.local_action_sizes)
        errs = []
        for kappa in (0, 1, 2):
            trunc = truncate_q(m, q, 2, kappa)
            nbhd = list(trunc.nbhd)
            se = s_dec[:, nbhd] @ indexing.radix_weights(trunc.state_sizes)
            ae = a_dec[:, nbhd] @ indexing.radix_weights(trunc.action_sizes)
            approx = dense_table(trunc)[se[:, None], ae[None, :]]
            errs.append(float(np.max(np.abs(approx - q.reshape(32, 32)))))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < errs[0]

    def test_anchor_difference_within_decay_envelope(self):
        m = chain(2)
        pol = uniform_policy(m)
        chi = 2.1
        prof = compute_decay_matrix(m, chi=chi)
        r = env_reward_columns(m)[:, 0]
        m_r = float(np.max(np.abs(r)))
        c0 = 2 * m.gamma * chi * m_r / (2 - m.gamma * chi)
        q = PairExactSolve(m, pol).q(r)
        for kappa in (0, 1):
            a = truncate_q(m, q, 0, kappa, anchor=((0, 0), (0, 0)))
            b = truncate_q(m, q, 0, kappa, anchor=((1, 1), (1, 1)))
            gap = float(np.max(np.abs(dense_table(a) - dense_table(b))))
            assert gap <= c0 * prof.phi0 ** kappa + 1e-9


class TestRewardLifting:
    def test_lift_local_reward_matches_value(self):
        m = chain(2)
        table = np.array([[0.0, 1.0], [2.0, 3.0]])
        flat = lift_local_reward(m, 1, table, np.zeros(n_pairs(m)))
        states = np.ndindex(*m.local_state_sizes)
        for si, s in enumerate(states):
            for ai, a in enumerate(np.ndindex(*m.local_action_sizes)):
                assert flat[si * 4 + ai] == table[s[1], a[1]]

    def test_lift_local_reward_adds_the_gathered_table_in_place(self):
        m = chain(3)
        rng = rng_for(8)
        table, base = rng.normal(size=(2, 2)), rng.normal(size=n_pairs(m))
        s_dec = indexing.decode_table(m.local_state_sizes)[:, 1]
        a_dec = indexing.decode_table(m.local_action_sizes)[:, 1]
        want = base + table[s_dec[:, None], a_dec[None, :]].ravel()
        out = base.copy()
        assert lift_local_reward(m, 1, table, out) is out
        assert out.tobytes() == want.tobytes()

    def test_lift_neighborhood_reward_matches_value(self):
        # the line's head reward: 1.0 when s_0 = 1, else 0, whatever the action
        m = chain(3)
        flat = lift_neighborhood_reward(m, m.rewards[0])
        states = np.ndindex(*m.local_state_sizes)
        for si, s in enumerate(states):
            for ai in range(8):
                assert flat[si * 8 + ai] == (1.0 if s[0] == 1 else 0.0)
