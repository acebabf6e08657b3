import tracemalloc

import numpy as np
import pytest

from pdmarl.graph import DependenceGraph, line_graph
from pdmarl.model import FactoredCMDP, TransitionKernel, LocalReward
from pdmarl.policy import KHopPolicy
from pdmarl.critic import TDConfig, TruncatedQTable
from pdmarl.occupancy import ExactSolve
from pdmarl.envs import WirelessGridSpec, wireless_grid
from pdmarl.utilities import ENTROPY, L2_ACTION, LINEAR, GeneralUtility
from pdmarl.layout import RunLayout, ThetaLayout
from pdmarl.primal_dual import (StepSizes, TrainConfig,
                                dual_update, exact_dual_gradient,
                                exact_lagrangian_gradient,
                                fd_lagrangian_gradient, fosp_metrics,
                                max_linear_over_box_ball, policy_ascent,
                                train, truncated_pg_estimate)

from helpers import (chain, entropy_constraints, flat, rng_for, sample_batch,
                     uniform_policy)
from oracles import (PairExactSolve, as_constraint, dense_table,
                     exact_truncated_pg, global_shadow_rewards,
                     lift_neighborhood_reward, n_pairs, stack_q,
                     truncate_q)


def two_state_single_agent(gamma=0.9):
    g = DependenceGraph(1, frozenset())
    kern = TransitionKernel.from_function(
        lambda S, A: np.where(A == 0, [0.7, 0.3], [0.2, 0.8]),
        0, (0,), (0,), (2,), (2,))
    rew = LocalReward.from_function(lambda cs, ca: cs[..., 0].astype(float),
                                    0, (0,), (), (2,), (2,))
    return FactoredCMDP(graph=g, local_state_sizes=(2,),
                        local_action_sizes=(2,), kernels=(kern,),
                        rewards=(rew,),
                        initial_dist=(np.array([1.0, 0.0]),), gamma=gamma)


class TestDualUpdate:
    def test_satisfied_constraint_zero_multiplier(self):
        mu = dual_update([0.5, 0.01], eta_mu=10.0, mu_bar=100.0, n=2)
        np.testing.assert_array_equal(mu, [0.0, 0.0])

    def test_violated_constraint_arithmetic(self):
        mu = dual_update([-2.0], eta_mu=3.0, mu_bar=10.0, n=1)
        assert mu[0] == pytest.approx(6.0)

    def test_cap_binds(self):
        mu = dual_update([-2.0], eta_mu=3.0, mu_bar=4.0, n=1)
        assert mu[0] == pytest.approx(4.0)

    def test_memoryless(self):
        a = dual_update([-1.0, 0.3], 5.0, 20.0, 2)
        b = dual_update([-1.0, 0.3], 5.0, 20.0, 2)
        np.testing.assert_array_equal(a, b)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dual_update([np.nan], 1.0, 1.0, 1)


class TestTruncatedPGEstimate:
    def zero_q(self, cmdp, kappa):
        # the exact Q-function of zero rewards is zero
        return [truncate_q(cmdp, np.zeros(n_pairs(cmdp)), i, kappa)
                for i in range(cmdp.n_agents)]

    @staticmethod
    def estimate(layout, S, A, pol, q_f, q_g, mu):
        """``truncated_pg_estimate`` of per-agent Q tables."""
        return truncated_pg_estimate(layout, S, A, pol, stack_q(layout, q_f),
                                     stack_q(layout, q_g), mu)

    def test_zero_q_zero_gradient(self):
        m = chain(2)
        pol = uniform_policy(m)
        S, A = sample_batch(m, pol, 4, 10, np.random.default_rng(0))
        q = self.zero_q(m, 1)
        grads = self.estimate(RunLayout(m, pol, 1), S, A, pol, q, q,
                              np.zeros(2))
        np.testing.assert_array_equal(grads, 0.0)

    def test_two_state_reward_is_the_state(self):
        # pairs (s, a) in the order (0,0), (0,1), (1,0), (1,1)
        m = two_state_single_agent()
        np.testing.assert_array_equal(
            lift_neighborhood_reward(m, m.rewards[0]), [0.0, 0.0, 1.0, 1.0])

    def test_single_step_by_hand(self):
        m = two_state_single_agent()
        rng = np.random.default_rng(np.random.SeedSequence(6))
        pol = KHopPolicy.random(m.graph, (2,), (2,), 0, rng)
        qf = TruncatedQTable(agent=0, kappa=0, nbhd=(0,), state_sizes=(2,),
                             action_sizes=(2,), keys=np.arange(4),
                             values=np.array([1.0, -2.0, 0.5, 3.0]))
        # cell (0, 1) is not stored and reads 0.0
        qg = TruncatedQTable(agent=0, kappa=0, nbhd=(0,), state_sizes=(2,),
                             action_sizes=(2,), keys=np.array([0, 2, 3]),
                             values=np.array([0.2, -1.0, 0.4]))
        s, a = 1, 0
        grads = self.estimate(RunLayout(m, pol, 0), np.array([[[s]]]),
                              np.array([[[a]]]), pol, [qf], [qg],
                              np.array([2.0]))
        weight = dense_table(qf)[s, a] + 2.0 * dense_table(qg)[s, a]
        theta = ThetaLayout(pol)
        expected = weight * theta.score_sums(
            pol, np.array([[s]]), np.array([[a]]), np.array([[1.0]]))
        np.testing.assert_allclose(grads, expected, atol=1e-12)

    def test_tables_of_one_agent_share_a_neighborhood(self):
        m = chain(3)
        pol = uniform_policy(m)
        S, A = sample_batch(m, pol, 2, 5, np.random.default_rng(2))
        with pytest.raises(ValueError, match="agent 0 differ in neighborhood"):
            self.estimate(RunLayout(m, pol, 1), S, A, pol,
                          self.zero_q(m, 1), self.zero_q(m, 0), np.zeros(3))

    def test_far_agents_do_not_enter(self):
        m = chain(3)
        pol = uniform_policy(m)
        S, A = sample_batch(m, pol, 8, 15, np.random.default_rng(1))
        q = self.zero_q(m, 0)
        bumped = list(q)
        bumped[2] = TruncatedQTable(agent=2, kappa=0, nbhd=(2,),
                                    state_sizes=(2,), action_sizes=(2,),
                                    keys=np.arange(4), values=np.full(4, 7.0))
        layout = RunLayout(m, pol, 0)
        base, pert = (pol.stack.split(self.estimate(
            layout, S, A, pol, q_f, q, np.zeros(3)))
            for q_f in (q, bumped))
        np.testing.assert_array_equal(base[0], pert[0])
        assert np.any(pert[2] != base[2])

    def test_matches_exact_gradient_with_exact_q(self):
        # kappa covers the whole chain and the Q tables are exact, so the
        # only estimation error left is occupancy sampling noise
        m = chain(2)
        rng = np.random.default_rng(np.random.SeedSequence(42))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.3)
        cons = entropy_constraints(m, 0.3)
        mu = np.array([0.5, 1.5])
        exact = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))

        solve = PairExactSolve(m, pol)
        rf, rg = global_shadow_rewards(solve, None, cons)
        q_f = [truncate_q(m, solve.q(rf[:, j]), j, 1) for j in range(2)]
        q_g = [truncate_q(m, solve.q(rg[:, j]), j, 1) for j in range(2)]

        B = 40_000
        S, A = sample_batch(m, pol, B, 200, rng_for(7))
        est = self.estimate(RunLayout(m, pol, 1), S, A, pol, q_f, q_g, mu)
        err = np.linalg.norm(est - exact)
        assert err < 0.05
        # concentration envelope at failure probability 0.1
        assert err < 3.0 * np.sqrt((2.0 - 8.0 * np.log(0.1)) / B)


class TestExactOracles:
    def test_truncated_pg_at_diameter_equals_exact(self):
        m = chain(3)
        rng = np.random.default_rng(np.random.SeedSequence(10))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.5)
        cons = entropy_constraints(m, 0.2)
        mu = np.array([0.4, 0.0, 2.0])
        a = flat(exact_truncated_pg(m, pol, None, cons, mu, kappa=2))
        b = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))
        np.testing.assert_allclose(a, b, atol=1e-10)

    @staticmethod
    def count_solves(monkeypatch):
        """The ``ExactSolve`` contexts built, and the shape of the right-hand
        side of every numpy solve, in the order they run."""
        built, rhs = [], []

        def counted_init(self, *args, _init=ExactSolve.__init__):
            built.append(1)
            _init(self, *args)

        def counted_solve(a, b, _solve=np.linalg.solve):
            rhs.append(np.shape(b))
            return _solve(a, b)
        monkeypatch.setattr(ExactSolve, "__init__", counted_init)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        return built, rhs

    def test_one_stacked_q_solve_per_gradient(self, monkeypatch):
        built, rhs = self.count_solves(monkeypatch)
        m = chain(4)
        cons = entropy_constraints(m, 0.2)
        # one context solves for the state occupancy, then one Q column: the
        # Lagrangian's, where the dense reference took 2n
        exact_lagrangian_gradient(m, uniform_policy(m), None, cons, np.ones(4))
        assert len(built) == 1
        assert rhs == [(m.n_states,)] * 2

    def test_one_factorization_per_oracle_firing(self, monkeypatch):
        built, rhs = self.count_solves(monkeypatch)
        m = chain(4)
        cfg = TrainConfig(kappa=1, iterations=1, horizon=20, batch_size=2,
                          steps=StepSizes(eta_theta=0.05, eta_mu=10.0),
                          td=TDConfig(steps=50, h=20.0, k1=40.0),
                          oracle_every=1)
        state = train(m, None, entropy_constraints(m, 0.2), cfg, seed=0)
        # the Lagrangian and the dual gradient share one context, and only
        # the Lagrangian solves a Q column
        assert len(built) == 1
        assert rhs == [(m.n_states,)] * 2
        assert state.history[0].E is not None

    @pytest.mark.parametrize("env, limit_mb", [("line10", 40),
                                               ("wireless3", 32)])
    def test_one_firing_allocates_no_pair_array(self, env, limit_mb):
        # one (|S||A|,) float array is 8.4 MB on the 10-agent line and
        # 26.5 MB on the side-3 grid; the state chain, its left-hand side
        # and numpy's copy of it for the solve are 8.4 and 2.1 MB each
        if env == "line10":
            m = chain(10, gamma=0.99)
            objs, cons = None, entropy_constraints(m, 0.25)
        else:
            m = wireless_grid(WirelessGridSpec(side=3, deadline=1,
                                               gamma=0.99))
            objs = [GeneralUtility(kind=ENTROPY, gamma=m.gamma)] * m.n_agents
            cons = [as_constraint(GeneralUtility(kind=L2_ACTION,
                                                 gamma=m.gamma), 0.1)
                    ] * m.n_agents
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng_for(0),
                                scale=0.1)
        mu = np.linspace(0.1, 2.0, m.n_agents)
        tracemalloc.start()
        try:
            solve = ExactSolve(m, pol)
            exact_lagrangian_gradient(m, pol, objs, cons, mu, solve=solve)
            exact_dual_gradient(m, pol, cons, solve=solve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    def test_zero_shadow_rewards_zero_gradient(self):
        m = chain(2)
        pol = uniform_policy(m)
        zero = GeneralUtility(kind=LINEAR, reward=np.zeros((2, 2)))
        objs = [zero, zero]
        cons = [as_constraint(zero, 0.0)] * 2
        for kappa in (0, 1):
            g = flat(exact_truncated_pg(m, pol, objs, cons,
                                        np.ones(2), kappa=kappa))
            np.testing.assert_array_equal(g, 0.0)

    def test_exact_gradient_matches_finite_differences(self):
        m = chain(2)
        rng = np.random.default_rng(np.random.SeedSequence(12))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.4)
        cons = entropy_constraints(m, 0.3)
        mu = np.array([0.3, 0.7])
        exact = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))
        fd = flat(fd_lagrangian_gradient(m, pol, None, cons, mu))
        rel = np.linalg.norm(exact - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4

    def test_objective_only_matches_finite_differences(self):
        m = chain(2)
        rng = np.random.default_rng(np.random.SeedSequence(13))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.6)
        cons = entropy_constraints(m, 0.0)
        mu = np.zeros(2)
        exact = flat(exact_lagrangian_gradient(m, pol, None, cons, mu))
        fd = flat(fd_lagrangian_gradient(m, pol, None, cons, mu))
        rel = np.linalg.norm(exact - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4

    def test_dual_gradient_is_scaled_constraint_value(self):
        m = chain(2)
        pol = uniform_policy(m)
        cons = entropy_constraints(m, 0.1)
        from pdmarl.utilities import utility_value
        occ = ExactSolve(m, pol).local_occupancies
        want = np.array([utility_value(cons[i], occ[i])
                         for i in range(2)]) / 2
        np.testing.assert_allclose(exact_dual_gradient(m, pol, cons), want)


class TestPolicyAscent:
    def test_zero_gradient_identity(self):
        m = chain(2)
        pol = uniform_policy(m)
        out = policy_ascent(pol, np.zeros_like(pol.theta_flat), 0.1)
        for a, b in zip(pol.theta, out.theta):
            np.testing.assert_array_equal(a, b)

    def test_step_then_clamp(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[49.9, 0.0]])])
        out = policy_ascent(pol, np.array([10.0, -1.0]), 1.0)
        np.testing.assert_allclose(out.theta[0], [[50.0, -1.0]])

    def test_zero_step_size_identity(self):
        m = chain(2)
        pol = uniform_policy(m)
        out = policy_ascent(pol, np.ones_like(pol.theta_flat), 0.0)
        for a, b in zip(pol.theta, out.theta):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        m = chain(2)
        pol = uniform_policy(m)
        with pytest.raises(ValueError):
            policy_ascent(pol, np.zeros(pol.theta_flat.size - 1), 0.1)


class TestStationarityMetrics:
    def test_interior_point_gives_gradient_norm(self):
        x = max_linear_over_box_ball(np.array([3.0, 4.0]),
                                     np.full(2, -100.0), np.full(2, 100.0))
        assert x == pytest.approx(5.0, abs=1e-8)

    def test_box_vertex_inside_ball(self):
        x = max_linear_over_box_ball(np.array([10.0, 0.0]),
                                     np.array([-1.0, -1.0]),
                                     np.array([0.3, 1.0]))
        assert x == pytest.approx(3.0)

    def test_clipped_solution_against_grid_search(self):
        g = np.array([3.0, 4.0])
        lower = np.array([-1.0, -1.0])
        upper = np.array([0.6, 1.0])
        got = max_linear_over_box_ball(g, lower, upper)
        v1 = np.linspace(-1.0, 0.6, 200_001)
        v2 = np.minimum(1.0, np.sqrt(np.maximum(0.0, 1.0 - v1 ** 2)))
        brute = np.max(g[0] * v1 + g[1] * v2)
        assert got == pytest.approx(brute, abs=1e-6)

    def test_box_must_contain_origin(self):
        with pytest.raises(ValueError):
            max_linear_over_box_ball(np.ones(2), np.array([0.5, 0.0]),
                                     np.ones(2))

    def test_at_upper_bound_positive_gradient_vanishes(self):
        theta = np.full(3, 50.0)
        X, _, _ = fosp_metrics(np.array([1.0, 2.0, 3.0]), np.zeros(1),
                               theta, np.zeros(1), 50.0, 10.0)
        assert X == pytest.approx(0.0, abs=1e-9)

    def test_satisfied_constraint_at_zero_multiplier(self):
        _, Y, _ = fosp_metrics(np.zeros(2), np.array([0.3, 0.8]),
                               np.zeros(2), np.zeros(2), 50.0, 10.0)
        assert Y == pytest.approx(0.0, abs=1e-9)

    def test_trivial_stationary_point(self):
        X, Y, E = fosp_metrics(np.zeros(4), np.zeros(2), np.zeros(4),
                               np.ones(2), 50.0, 10.0)
        assert E < 1e-12


class TestStepSizes:
    def test_constant_schedule(self):
        s = StepSizes(eta_theta=0.05, eta_mu=3.0)
        assert s.dual_step(0) == s.dual_step(99) == 3.0

    def test_growing_schedule(self):
        s = StepSizes(eta_theta=0.05, eta_mu=2.0, schedule="t_one_third")
        assert s.dual_step(0) == pytest.approx(2.0)
        assert s.dual_step(7) == pytest.approx(4.0)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            StepSizes(eta_theta=0.0, eta_mu=1.0)
        with pytest.raises(ValueError):
            StepSizes(eta_theta=0.1, eta_mu=1.0, schedule="linear")


def small_train_setup(n=3, gamma=0.95, threshold=0.25):
    m = chain(n, gamma=gamma)
    return m, entropy_constraints(m, threshold)


class TestTrain:
    def cfg(self, **kw):
        base = dict(kappa=1, iterations=10, horizon=40, batch_size=3,
                    steps=StepSizes(eta_theta=0.05, eta_mu=10.0))
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_iterations(self):
        m, cons = small_train_setup()
        state = train(m, None, cons, self.cfg(iterations=0), seed=0)
        assert state.iteration == 0
        assert state.history == []

    def test_bit_identical_across_runs(self):
        m, cons = small_train_setup()
        runs = [train(m, None, cons, self.cfg(iterations=5), seed=3)
                for _ in range(2)]
        for ra, rb in zip(runs[0].history, runs[1].history):
            assert ra.objective == rb.objective
            assert ra.g_tilde == rb.g_tilde
            assert ra.mu == rb.mu
        for a, b in zip(runs[0].policy.theta, runs[1].policy.theta):
            np.testing.assert_array_equal(a, b)

    def test_history_record_fields(self):
        m, cons = small_train_setup()
        state = train(m, None, cons, self.cfg(iterations=6), seed=1)
        assert [r.t for r in state.history] == list(range(6))
        for r in state.history:
            assert len(r.g_tilde) == 3 and len(r.mu) == 3
            assert r.violation >= 0.0
            assert all(0.0 <= v <= 100.0 for v in r.mu)
            assert r.X is None and r.E is None

    def test_objective_improves(self):
        m, cons = small_train_setup(n=3, gamma=0.9, threshold=0.1)
        cfg = self.cfg(iterations=60, horizon=60, batch_size=4,
                       steps=StepSizes(eta_theta=0.2, eta_mu=0.0))
        state = train(m, None, cons, cfg, seed=0)
        objs = [r.objective for r in state.history]
        assert np.median(objs[-15:]) > np.median(objs[:15])

    def test_oracle_metrics_populated_on_schedule(self):
        m, cons = small_train_setup(n=2)
        state = train(m, None, cons, self.cfg(iterations=4, oracle_every=2),
                      seed=2)
        for r in state.history:
            if r.t % 2 == 0:
                assert r.X is not None and r.Y is not None and r.E is not None
                assert r.E == pytest.approx(r.X ** 2 + r.Y ** 2)
            else:
                assert r.X is None

    @pytest.mark.parametrize("n, every, status", [
        (11, 1, "skipped: |S| = 2048 exceeds the enumeration cap 1024"),
        (10, 1, "every 1"),
        (4, 1, "every 1"),
        (3, 0, "off"),
    ])
    def test_oracle_status_on_state(self, n, every, status):
        m, cons = small_train_setup(n=n)
        state = train(m, None, cons,
                      self.cfg(iterations=1, oracle_every=every), seed=0)
        assert state.oracle == status
        assert (state.history[0].X is not None) == (status == "every 1")

    def test_initial_policy_respected(self):
        m, cons = small_train_setup(n=2)
        pol = uniform_policy(m)
        state = train(m, None, cons, self.cfg(iterations=0), seed=0,
                      initial_policy=pol)
        for a, b in zip(state.policy.theta, pol.theta):
            np.testing.assert_array_equal(a, b)

    def test_constraint_list_length_checked(self):
        m, cons = small_train_setup(n=3)
        with pytest.raises(ValueError):
            train(m, None, cons[:2], self.cfg(iterations=1), seed=0)
