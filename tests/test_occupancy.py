import numpy as np
import pytest

from pdmarl import indexing
from pdmarl.graph import DependenceGraph
from pdmarl.model import FactoredCMDP, TransitionKernel, LocalReward
from pdmarl.policy import KHopPolicy
from pdmarl.occupancy import (ExactSolve, estimate_local_occupancies,
                              state_marginal)
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)
from pdmarl.primal_dual import exact_dual_gradient, exact_lagrangian_gradient
from pdmarl.utilities import ENTROPY, L2_ACTION, GeneralUtility

from helpers import (PairLayout, chain, entropy_constraints, flat, rng_for,
                     sample_batch, single_cell_mdp, uniform_policy)
from oracles import (DenseExactSolve, PairExactSolve, as_constraint,
                     dense_lagrangian_gradient, flow_balance_residual,
                     global_shadow_rewards, global_transition_matrix,
                     joint_action_probabilities, lift_neighborhood_reward,
                     n_pairs, pair_lagrangian_gradient)


def local_occupancy(S, A, agent, gamma, state_size, action_size):
    """One agent's slice of the stacked estimate, on a batch whose agents
    all have ``state_size`` states and ``action_size`` actions."""
    n = S.shape[-1]
    layout = PairLayout(gamma, (state_size,) * n, (action_size,) * n)
    return indexing.split(estimate_local_occupancies(layout, S, A),
                          layout.sa_shapes)[agent]


def always_one_policy(cmdp, kappa=1):
    pol = uniform_policy(cmdp, kappa)
    tables = []
    for tab in pol.theta:
        t = np.zeros_like(tab)
        t[:, 1] = 50.0
        t[:, 0] = -50.0
        tables.append(t)
    return pol.with_theta(tables)


class TestEmpiricalEstimate:
    def test_single_trajectory_by_hand(self):
        # visits (s,a) = (0,0) then (1,0) with gamma = 0.5
        states = np.array([[[0], [1]]])
        actions = np.array([[[0], [0]]])
        occ = local_occupancy(states, actions, 0, 0.5, 2, 2)
        np.testing.assert_allclose(occ, [[1.0, 0.0], [0.5, 0.0]])
        assert occ.sum() == pytest.approx(1.5)

    def test_identical_trajectories_average_to_one(self):
        states = np.repeat(np.array([[[0], [1], [1]]]), 7, axis=0)
        actions = np.zeros_like(states)
        one = local_occupancy(states[:1], actions[:1], 0, 0.9, 2, 1)
        many = local_occupancy(states, actions, 0, 0.9, 2, 1)
        np.testing.assert_allclose(many, one)

    def test_mass_identity_bit_exact(self):
        m = chain(3, gamma=0.95)
        batch = sample_batch(m, uniform_policy(m), 13, 40,
                             np.random.default_rng(3))
        for i in range(3):
            occ = local_occupancy(*batch, i, 0.95, 2, 2)
            assert occ.sum() == pytest.approx(np.sum(0.95 ** np.arange(40)),
                                              abs=1e-12)

    def test_deterministic_across_runs(self):
        m = chain(3)
        tabs = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(9))
            batch = sample_batch(m, uniform_policy(m), 50, 30, rng)
            tabs.append(local_occupancy(*batch, 1, 0.9, 2, 2))
        np.testing.assert_array_equal(tabs[0], tabs[1])


class TestExactOccupancy:
    def test_single_cell_geometric_series(self):
        m = single_cell_mdp(0.9)
        occ = PairExactSolve(m, uniform_policy(m, kappa=0)).occupancy
        assert occ[0] == pytest.approx(10.0)

    def test_absorbing_two_state_chain(self):
        # s0 -> s1 -> s1 with one action and gamma = 0.5
        g = DependenceGraph(1, frozenset())
        kern = TransitionKernel.from_function(lambda S, A: [0.0, 1.0],
                                              0, (0,), (), (2,), (1,))
        rew = LocalReward.from_function(lambda cs, ca: 0.0, 0, (0,), (),
                                        (2,), (1,))
        m = FactoredCMDP(graph=g, local_state_sizes=(2,),
                         local_action_sizes=(1,), kernels=(kern,),
                         rewards=(rew,),
                         initial_dist=(np.array([1.0, 0.0]),), gamma=0.5)
        occ = PairExactSolve(m, uniform_policy(m, kappa=0)).occupancy
        np.testing.assert_allclose(occ, [1.0, 1.0])

    def test_mass_and_flow_balance(self):
        m = chain(3, gamma=0.85)
        rng = np.random.default_rng(np.random.SeedSequence(5))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, 1, rng, scale=0.7)
        occ = PairExactSolve(m, pol).occupancy
        assert occ.sum() == pytest.approx(1.0 / 0.15, rel=1e-10)
        assert flow_balance_residual(m, pol, occ) < 1e-8

    def test_chain_always_act_one_against_power_series(self):
        # independent oracle: truncated Neumann series of the same system
        m = chain(2)
        pol = always_one_policy(m)
        occ = PairExactSolve(m, pol).occupancy
        P = global_transition_matrix(m, pol)
        rho = m.initial_state_distribution()
        pi = joint_action_probabilities(pol)
        vec = (rho[:, None] * pi).ravel()
        total = np.zeros_like(vec)
        for _ in range(500):
            total += vec
            vec = m.gamma * (P @ vec)
        np.testing.assert_allclose(occ, total, atol=1e-8)
        assert occ.shape == (16,)


class TestMarginals:
    def test_single_agent_identity(self):
        m = single_cell_mdp(0.9)
        [loc] = ExactSolve(m, uniform_policy(m, kappa=0)).local_occupancies
        np.testing.assert_allclose(loc, [[10.0]])

    def test_mass_preserved(self):
        m = chain(3)
        solve = PairExactSolve(m, uniform_policy(m))
        assert len(solve.local_occupancies) == 3
        for loc in solve.local_occupancies:
            assert loc.sum() == pytest.approx(solve.occupancy.sum())

    def test_chain_marginal_matches_direct_sum(self):
        m = chain(2)
        solve = PairExactSolve(m, uniform_policy(m))
        shaped = solve.occupancy.reshape(2, 2, 2, 2)  # (s0, s1, a0, a1)
        np.testing.assert_allclose(solve.local_occupancies[0],
                                   shaped.sum(axis=(1, 3)))
        np.testing.assert_allclose(solve.local_occupancies[1],
                                   shaped.sum(axis=(0, 2)))

    def test_state_marginal_sums_to_one(self):
        m = chain(3, gamma=0.7)
        for loc in ExactSolve(m, uniform_policy(m)).local_occupancies:
            assert state_marginal(loc, 0.7).sum() == pytest.approx(1.0)

    def test_point_mass_marginal(self):
        table = np.zeros((3, 2))
        table[2, 1] = 5.0
        np.testing.assert_allclose(state_marginal(table, 0.8), [0.0, 0.0, 1.0])

    def test_empirical_state_marginal_mass(self):
        m = chain(2, gamma=0.99)
        batch = sample_batch(m, uniform_policy(m), 20, 100,
                             np.random.default_rng(1))
        d = state_marginal(local_occupancy(*batch, 0, 0.99, 2, 2), 0.99)
        assert d.sum() == pytest.approx(1.0 - 0.99 ** 100)


class TestConvergence:
    def test_empirical_matches_exact_moderate_batch(self):
        m = chain(2)
        pol = uniform_policy(m)
        exact = ExactSolve(m, pol).local_occupancies
        batch = sample_batch(m, pol, 2000, 100, rng_for(17))
        for i in range(2):
            emp = local_occupancy(*batch, i, 0.9, 2, 2)
            assert np.linalg.norm(emp - exact[i]) < 0.12

    def test_error_shrinks_with_horizon(self):
        # expectation of the H-truncated estimate misses gamma^H / (1-gamma)
        m = chain(2, gamma=0.9)
        pol = uniform_policy(m)
        exact = ExactSolve(m, pol).local_occupancies[0]
        errs = []
        for H in (5, 20, 80):
            batch = sample_batch(m, pol, 4000, H, rng_for(23))
            emp = local_occupancy(*batch, 0, 0.9, 2, 2)
            errs.append(float(np.abs(emp - exact).sum()))
        assert errs[0] > errs[1] > errs[2]


def close(new, ref):
    """Agreement to 1e-12 of the reference's largest entry."""
    return np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def within_own_terms(err, W, policy, rows):
    """Whether each entry of a flat gradient error ``err`` is at most 1e-14
    of the sum of |W| over its own terms: agent i's entry [e, b] sums W =
    lambda * Q, flat over global pairs, at the states s with ``rows[s, i]``
    = e, times a score in [-1, 1]. Rounding alone gave at most 1.3e-15 (six
    ulps) on the models below, with AVX-512 or without; a relative error of
    1e-9 in one agent's gamma T_i gives 9e-14 on the 10-agent line."""
    per_state = np.abs(W).reshape(len(rows), -1).sum(axis=1)
    bound = np.concatenate([
        np.repeat(np.bincount(r, weights=per_state, minlength=len(probs)),
                  probs.shape[1])
        for probs, r in zip(policy.prob_tables, rows.T)])
    return bool(np.all(np.abs(err) <= 1e-14 * bound))


def pair_level_reference(cmdp, policy, rewards):
    """Occupancy and Q by dense solves over all (s, a) pairs."""
    P = global_transition_matrix(cmdp, policy)
    eye = np.eye(n_pairs(cmdp))
    rho_pi = (cmdp.initial_state_distribution()[:, None]
              * joint_action_probabilities(policy)).ravel()
    lam = np.maximum(np.linalg.solve(eye - cmdp.gamma * P, rho_pi), 0.0)
    return lam, np.linalg.solve(eye - cmdp.gamma * P.T, rewards)


class TestStateChainSolve:
    """The |S| x |S| state-chain solve against the |S||A| pair-level one."""

    @pytest.mark.parametrize("env, kappa, theta", [
        ("line4", 1, "random"), ("line4", 2, "random"),
        ("line4", 1, "boundary"), ("line4", 2, "boundary"),
        ("wireless2", 1, "random"), ("wireless2", 1, "boundary"),
    ])
    def test_matches_pair_level_solve(self, env, kappa, theta):
        if env == "line4":
            m = synthetic_line(SyntheticLineSpec(n=4, gamma=0.99))
        else:
            m = wireless_grid(WirelessGridSpec(side=2, deadline=1, gamma=0.95))
        rng = np.random.default_rng(np.random.SeedSequence(kappa))
        pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                                m.local_action_sizes, kappa, rng, scale=1.0)
        if theta == "boundary":
            # logits at +-theta_bar: action probabilities near e^-100
            pol = pol.with_theta([pol.theta_bound * np.sign(t)
                                  for t in pol.theta])
            assert joint_action_probabilities(pol).min() < 1e-40
        rewards = np.column_stack(
            [lift_neighborhood_reward(m, r) for r in m.rewards]
            + [rng.normal(size=n_pairs(m))])
        lam_ref, q_ref = pair_level_reference(m, pol, rewards)
        solve = PairExactSolve(m, pol)
        assert close(solve.occupancy, lam_ref)
        for j in range(rewards.shape[1]):
            assert close(solve.q(rewards[:, j]), q_ref[:, j])


def random_or_boundary_policy(m, kappa, theta, seed):
    pol = KHopPolicy.random(m.graph, m.local_state_sizes,
                            m.local_action_sizes, kappa, rng_for(seed),
                            scale=1.0)
    if theta == "boundary":
        # logits at +-theta_bar: action probabilities near e^-100
        pol = pol.with_theta([pol.theta_bound * np.sign(t)
                              for t in pol.theta])
    return pol


class TestProductForm:
    """``ExactSolve`` in product form against the dense (S, A, S') solve:
    its pair-level view, and the state-space gradient."""

    @pytest.mark.parametrize("env, kappa", [
        ("line4", 1), ("line4", 2), ("line5", 1), ("line5", 2), ("line6", 1),
        ("line6", 2), ("wireless2", 1), ("wireless2", 2),
        ("wireless2_deadline2", 1)])
    @pytest.mark.parametrize("theta", ["random", "boundary"])
    def test_matches_dense_solve(self, env, kappa, theta):
        # at deadline 1 every grid kernel ignores the action (an unsent
        # packet expires anyway); at deadline 2 the kernel rows read it
        if env.startswith("line"):
            m = synthetic_line(SyntheticLineSpec(n=int(env[4:]), gamma=0.99))
        else:
            m = wireless_grid(WirelessGridSpec(
                side=2, deadline=2 if env.endswith("deadline2") else 1,
                gamma=0.95))
        pol = random_or_boundary_policy(m, kappa, theta, 17 + kappa)
        solve, dense = PairExactSolve(m, pol), DenseExactSolve(m, pol)
        assert close(solve.occupancy, dense.occupancy)
        for new, ref in zip(solve.local_occupancies, dense.local_occupancies):
            assert close(new, ref)
        rewards = [lift_neighborhood_reward(m, r) for r in m.rewards]
        rewards.append(rng_for(kappa).normal(size=n_pairs(m)))
        for r in rewards:
            assert close(solve.q(r), dense.q(r))
        cons = entropy_constraints(m, 0.2)
        mu = np.linspace(0.1, 2.0, m.n_agents)
        assert close(flat(exact_lagrangian_gradient(m, pol, None, cons, mu)),
                     flat(dense_lagrangian_gradient(m, pol, None, cons, mu)))
        # an entropy objective's gradient is a small difference of large
        # terms (rounding noise on the grid), so each entry's error is
        # measured against its own terms
        objs = [GeneralUtility(kind=ENTROPY, gamma=m.gamma)] * m.n_agents
        rf, rg = global_shadow_rewards(dense, objs, cons)
        W = dense.occupancy * dense.q((rf.sum(axis=1) + rg @ mu) / m.n_agents)
        err = (flat(exact_lagrangian_gradient(m, pol, objs, cons, mu))
               - flat(dense_lagrangian_gradient(m, pol, objs, cons, mu)))
        assert within_own_terms(err, W, pol, solve.solve.rows)
        assert close(exact_dual_gradient(m, pol, cons),
                     exact_dual_gradient(m, pol, cons, solve=dense))

    def test_chain_and_flow_balance(self):
        m = chain(4, gamma=0.9)
        solve = ExactSolve(m, random_or_boundary_policy(m, 1, "random", 3))
        M, d = solve.chain, solve.d
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-13)
        assert d.sum() == pytest.approx(10.0, rel=1e-12)
        np.testing.assert_allclose(
            d, m.initial_state_distribution() + m.gamma * M.T @ d, atol=1e-12)


class TestBeyondDense:
    """The state-space gradient against the pair-level one in product form
    (``PairExactSolve``) where the dense (S, A, S') solve cannot reach: it
    needs 8 GB on the 10-agent line. Same rules as ``TestProductForm``."""

    @pytest.mark.parametrize("env, objective", [
        ("line10", "env_reward"), ("line10", "entropy"),
        ("wireless3", "entropy"), ("wireless3", "env_reward")])
    def test_matches_pair_level_gradient(self, env, objective):
        if env == "line10":
            m = synthetic_line(SyntheticLineSpec(n=10, gamma=0.99))
            cons = entropy_constraints(m, 0.2)
        else:
            m = wireless_grid(WirelessGridSpec(side=3, deadline=1,
                                               gamma=0.95))
            cons = entropy_constraints(m, 0.2)
            if objective == "entropy":
                l2 = GeneralUtility(kind=L2_ACTION, gamma=m.gamma)
                cons = [as_constraint(l2, 0.1)] * m.n_agents
        objs = None if objective == "env_reward" else [
            GeneralUtility(kind=ENTROPY, gamma=m.gamma)] * m.n_agents
        pol = random_or_boundary_policy(m, 1, "random", 18)
        mu = np.linspace(0.1, 2.0, m.n_agents)
        ref, W = pair_lagrangian_gradient(m, pol, objs, cons, mu)
        new = flat(exact_lagrangian_gradient(m, pol, objs, cons, mu))
        if objs is None:
            assert close(new, flat(ref))
        else:
            assert within_own_terms(new - flat(ref), W, pol,
                                    ExactSolve(m, pol).rows)
