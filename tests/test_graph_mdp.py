import numpy as np
import pytest

from pdmarl import indexing
from pdmarl.graph import DependenceGraph, khop_neighborhood, line_graph
from pdmarl.model import (FactoredCMDP, TransitionKernel, LocalReward,
                          EnumerationCapExceeded, compute_decay_matrix)
from pdmarl.occupancy import ExactSolve
from pdmarl.policy import KHopPolicy
from pdmarl.sampling import Simulator
from pdmarl.envs import WirelessGridSpec, wireless_grid

from helpers import chain, uniform_policy
from oracles import global_transition_matrix, kernel_rows, n_actions


def lookup(f, s, a):
    """Row of a kernel table at global state/action tuples."""
    return f.table[kernel_rows(f, np.array(s), np.array(a))]


class TestGraph:
    def test_khop_contains_self(self):
        g = line_graph(3)
        assert khop_neighborhood(g, 1, 0) == (1,)

    def test_khop_line_adjacency(self):
        g = line_graph(3)
        assert khop_neighborhood(g, 0, 1) == (0, 1)
        assert khop_neighborhood(g, 1, 1) == (0, 1, 2)

    def test_khop_line_10_agents(self):
        g = line_graph(10)
        assert khop_neighborhood(g, 4, 2) == (2, 3, 4, 5, 6)

    def test_khop_monotone_in_kappa(self):
        g = DependenceGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (1, 4)}))
        for i in range(6):
            for kappa in range(4):
                inner = set(khop_neighborhood(g, i, kappa))
                outer = set(khop_neighborhood(g, i, kappa + 1))
                assert inner <= outer

    def test_disconnected_agents_stay_apart(self):
        g = DependenceGraph(4, frozenset({(0, 1)}))
        assert khop_neighborhood(g, 0, 3) == (0, 1)

    def test_distance_symmetric_zero_diagonal(self):
        g = line_graph(5)
        for i in range(5):
            assert g.distance(i, i) == 0
            for j in range(5):
                assert g.distance(i, j) == g.distance(j, i)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DependenceGraph(2, frozenset({(0, 0)}))

    def test_agent_out_of_range(self):
        with pytest.raises(ValueError):
            khop_neighborhood(line_graph(3), 5, 1)


class TestKernels:
    def test_last_agent_copies_action(self):
        # acting deterministically drives the last agent's state to 1
        m = chain(3)
        kern = m.kernels[2]
        np.testing.assert_allclose(lookup(kern, (0, 0, 0), (0, 0, 1)),
                                   [0.0, 1.0])
        np.testing.assert_allclose(lookup(kern, (1, 1, 1), (0, 0, 0)),
                                   [1.0, 0.0])

    def test_middle_agent_point_eight(self):
        m = chain(3)
        kern = m.kernels[1]
        np.testing.assert_allclose(lookup(kern, (0, 0, 0), (0, 1, 0)),
                                   [0.2, 0.8])
        np.testing.assert_allclose(lookup(kern, (0, 0, 1), (0, 1, 0)),
                                   [0.0, 1.0])
        np.testing.assert_allclose(lookup(kern, (0, 0, 1), (0, 0, 0)),
                                   [1.0, 0.0])

    def test_head_agent_copies_neighbor_state(self):
        m = chain(3)
        kern = m.kernels[0]
        np.testing.assert_allclose(lookup(kern, (0, 0, 0), (1, 1, 1)),
                                   [1.0, 0.0])
        np.testing.assert_allclose(lookup(kern, (0, 1, 0), (0, 0, 0)),
                                   [0.0, 1.0])

    def test_fn_receives_its_dependency_cells_in_row_order(self):
        seen = []

        def fn(S, A):
            seen.append((S, A))
            return np.full((len(S), 3), 1.0 / 3.0)

        # deps given unsorted; cells list s_0, s_2 then a_1, agent order
        kern = TransitionKernel.from_function(fn, 1, (2, 0), (1,),
                                              (2, 3, 4), (5, 2, 3))
        [(S, A)] = seen
        cells = indexing.decode_table((2, 4, 2))
        assert kern.dep_sizes == (2, 4, 2)
        assert S.dtype.kind == A.dtype.kind == "i"
        np.testing.assert_array_equal(S, cells[:, :2])
        np.testing.assert_array_equal(A, cells[:, 2:])

    def test_single_distribution_applies_to_every_cell(self):
        kern = TransitionKernel.from_function(
            lambda S, A: (0.25, 0.75), 0, (0, 1), (0,), (2, 3), (2, 2))
        assert kern.table.shape == (12, 2)
        np.testing.assert_array_equal(kern.table, [[0.25, 0.75]] * 12)

    @pytest.mark.parametrize("out", [
        np.full((4, 3), 1.0 / 3.0), np.full((3, 2), 0.5), np.full(3, 1 / 3),
        np.full((1, 2), 0.5), 1.0], ids=["states", "cells", "flat", "one_row",
                                         "scalar"])
    def test_wrong_shape_names_the_agent(self, out):
        with pytest.raises(ValueError, match=r"kernel of agent 1 returned "
                           r"shape .*, expected \(4, 2\) or \(2,\)"):
            TransitionKernel.from_function(lambda S, A: out, 1, (1,), (1,),
                                           (2, 2), (2, 2))

    @pytest.mark.parametrize("action_deps", [(0,), (0, 1), (1, 2)])
    def test_kernel_reads_only_its_own_action(self, action_deps):
        sizes = (2, 2, 2)
        with pytest.raises(ValueError, match=r"kernel of agent 1 reads the "
                           r"actions of agents .*; it may read only its own"):
            TransitionKernel.from_function(lambda S, A: (0.5, 0.5), 1, (1,),
                                           action_deps, sizes, sizes)
        dep_sizes = (2,) * (1 + len(action_deps))
        with pytest.raises(ValueError, match="kernel of agent 1 reads the "
                           "actions of agents"):
            TransitionKernel(1, (1,), action_deps, dep_sizes,
                             np.full((2 ** len(dep_sizes), 2), 0.5))

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError):
            TransitionKernel.from_function(
                lambda S, A: [0.5, 0.6], 0, (0,), (), (2,), (2,))

    def test_product_transition_is_distribution(self):
        m = chain(3)
        P = global_transition_matrix(m, uniform_policy(m))
        for s in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            for a in [(0, 0, 0), (1, 1, 0)]:
                col = np.ravel_multi_index(s, (2, 2, 2)) * 8 \
                    + np.ravel_multi_index(a, (2, 2, 2))
                # summing out a' leaves the distribution over next states
                dist = P[:, col].reshape(8, 8).sum(axis=1)
                assert abs(dist.sum() - 1.0) < 1e-10
                assert np.all(dist >= 0)

    def test_deterministic_kernel_step(self):
        m = chain(2)
        rng = np.random.default_rng(0)
        [(S, A)] = Simulator(m, uniform_policy(m)).rollout([(
            np.array([[0, 1], [1, 1]]), rng.random((20, 2, 2)),
            rng.random((19, 2, 2)))])
        # agent 1 copies its action, agent 0 copies s_1, on every step
        assert set(A[..., 1].ravel()) == set(S[..., 1].ravel()) == {0, 1}
        assert np.array_equal(S[:, 1:, 1], A[:, :-1, 1])
        assert np.array_equal(S[:, 1:, 0], S[:, :-1, 1])

    def test_step_deterministic_given_stream(self):
        m = chain(4)
        sim = Simulator(m, uniform_policy(m))
        out = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(42))
            [(S, A)] = sim.rollout([(np.zeros((1, 4), dtype=np.int64),
                                     rng.random((31, 1, 4)),
                                     rng.random((30, 1, 4)))])
            out.append((S.tolist(), A.tolist()))
        assert out[0] == out[1]


class TestGlobalTransitionMatrix:
    def test_trivial_single_cell(self):
        g = DependenceGraph(1, frozenset())
        kern = TransitionKernel.from_function(lambda S, A: [1.0], 0, (0,),
                                              (0,), (1,), (1,))
        rew = LocalReward.from_function(lambda cs, ca: 0.0, 0, (0,), (),
                                        (1,), (1,))
        m = FactoredCMDP(graph=g, local_state_sizes=(1,),
                         local_action_sizes=(1,), kernels=(kern,),
                         rewards=(rew,), initial_dist=(np.array([1.0]),),
                         gamma=0.5)
        P = global_transition_matrix(m, uniform_policy(m, kappa=0))
        np.testing.assert_array_equal(P, [[1.0]])

    def test_deterministic_cycle_is_permutation(self):
        g = DependenceGraph(1, frozenset())
        kern = TransitionKernel.from_function(
            lambda S, A: np.where(S == 0, [0.0, 1.0], [1.0, 0.0]),
            0, (0,), (), (2,), (1,))
        rew = LocalReward.from_function(lambda cs, ca: 0.0, 0, (0,), (),
                                        (2,), (1,))
        m = FactoredCMDP(graph=g, local_state_sizes=(2,),
                         local_action_sizes=(1,), kernels=(kern,),
                         rewards=(rew,),
                         initial_dist=(np.array([1.0, 0.0]),), gamma=0.5)
        P = global_transition_matrix(m, uniform_policy(m, kappa=0))
        np.testing.assert_array_equal(P, [[0, 1], [1, 0]])

    def test_chain_16x16_column_stochastic(self):
        m = chain(2)
        P = global_transition_matrix(m, uniform_policy(m))
        assert P.shape == (16, 16)
        np.testing.assert_allclose(P.sum(axis=0), np.ones(16), atol=1e-10)

    def test_random_instances_column_stochastic(self):
        rng = np.random.default_rng(np.random.SeedSequence(11))
        for trial in range(5):
            n = int(rng.integers(1, 4))
            g = line_graph(n)
            ss = tuple(int(rng.integers(2, 4)) for _ in range(n))
            aa = tuple(int(rng.integers(2, 3)) for _ in range(n))
            kernels = []
            for i in range(n):
                deps = tuple(sorted({i} | set(g.neighbors(i))))
                rows = aa[i]
                for j in deps:
                    rows *= ss[j]
                table = rng.random((rows, ss[i])) + 0.05
                table /= table.sum(axis=1, keepdims=True)
                kernels.append(TransitionKernel(i, deps, (i,),
                                                tuple(ss[j] for j in deps)
                                                + (aa[i],), table))
            rewards = tuple(
                LocalReward.from_function(lambda cs, ca: 0.0, i, (i,), (),
                                          ss, aa)
                for i in range(n))
            init = tuple(np.ones(ss[i]) / ss[i] for i in range(n))
            m = FactoredCMDP(graph=g, local_state_sizes=ss,
                             local_action_sizes=aa, kernels=tuple(kernels),
                             rewards=rewards, initial_dist=init, gamma=0.8)
            pol = KHopPolicy.random(g, ss, aa, 1, rng, scale=0.3)
            P = global_transition_matrix(m, pol)
            np.testing.assert_allclose(P.sum(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("m", [
        chain(3), wireless_grid(WirelessGridSpec(side=2, deadline=1, gamma=0.9))
    ], ids=["line3", "wireless2"])
    def test_entries_match_products_of_factor_tables(self, m):
        # reference straight from the raw tables: prod_i kernel_i(s'_i | s, a)
        # times prod_i pi_i(a'_i | s'), rows encoded with ravel_multi_index
        rng = np.random.default_rng(np.random.SeedSequence(13))
        ss, aa = m.local_state_sizes, m.local_action_sizes
        pol = KHopPolicy.random(m.graph, ss, aa, 1, rng, scale=0.5)
        P = global_transition_matrix(m, pol)
        nonzero = 0
        for _ in range(300):
            s, a, s2, a2 = (tuple(int(rng.integers(k)) for k in sizes)
                            for sizes in (ss, aa, ss, aa))
            want = 1.0
            for i, kern in enumerate(m.kernels):
                cell = ([s[j] for j in kern.state_deps]
                        + [a[j] for j in kern.action_deps])
                row = np.ravel_multi_index(cell, kern.dep_sizes)
                want *= kern.table[row][s2[i]]
            for i in range(m.n_agents):
                row = np.ravel_multi_index([s2[j] for j in pol.neighborhood(i)],
                                           pol.nbhd_state_sizes(i))
                want *= pol.prob_tables[i][row][a2[i]]
            out = (np.ravel_multi_index(s2, ss) * n_actions(m)
                   + np.ravel_multi_index(a2, aa))
            col = (np.ravel_multi_index(s, ss) * n_actions(m)
                   + np.ravel_multi_index(a, aa))
            assert P[out, col] == pytest.approx(want, rel=1e-12, abs=0.0)
            nonzero += want > 0
        assert nonzero >= 30

    def test_enumeration_cap(self):
        # 2^10 = 1024 states solve; 2^11 = 2048 exceed the cap
        assert ExactSolve(chain(10), uniform_policy(chain(10))).d.shape == (
            1024,)
        m = chain(11)
        with pytest.raises(EnumerationCapExceeded, match=r"\|S\| = 2048 "
                           r"exceeds the enumeration cap 1024"):
            ExactSolve(m, uniform_policy(m))
        # 2 states, 2^23 actions: a reward that reads the action is read at
        # 2^24 cells, over their cap of 2^22; one that does not, at 2
        wide = DependenceGraph(1, frozenset())
        kern = TransitionKernel.from_function(lambda S, A: (0.5, 0.5), 0,
                                              (0,), (), (2,), (2 ** 23,))
        for action_deps in ((0,), ()):
            rew = LocalReward.from_function(lambda S, A: 0.0, 0, (0,),
                                            action_deps, (2,), (2 ** 23,))
            m = FactoredCMDP(graph=wide, local_state_sizes=(2,),
                             local_action_sizes=(2 ** 23,), kernels=(kern,),
                             rewards=(rew,),
                             initial_dist=(np.array([1.0, 0.0]),), gamma=0.9)
            if action_deps:
                with pytest.raises(EnumerationCapExceeded,
                                   match=r"\|S\|\|A_N\| of agent 0's reward "
                                   r"= 16777216 exceeds the enumeration cap "
                                   r"4194304"):
                    m.check_enumeration_cap()
            else:
                m.check_enumeration_cap()


class TestDecayMatrix:
    def test_decoupled_agents_diagonal(self):
        g = DependenceGraph(2, frozenset({(0, 1)}))
        kernels = tuple(
            TransitionKernel.from_function(
                lambda S, A: np.where(A == 1, [0.3, 0.7], [0.9, 0.1]),
                i, (i,), (i,), (2, 2), (2, 2))
            for i in range(2))
        rewards = tuple(
            LocalReward.from_function(lambda cs, ca: 0.0, i, (i,), (),
                                      (2, 2), (2, 2)) for i in range(2))
        init = (np.array([1.0, 0.0]),) * 2
        m = FactoredCMDP(graph=g, local_state_sizes=(2, 2),
                         local_action_sizes=(2, 2), kernels=kernels,
                         rewards=rewards, initial_dist=init, gamma=0.9)
        prof = compute_decay_matrix(m, chi=3.0)
        assert prof.M[0, 1] == 0.0 and prof.M[1, 0] == 0.0
        assert prof.M[0, 0] > 0 and prof.M[1, 1] > 0

    def test_chain_locality_exact_zero(self):
        prof = compute_decay_matrix(chain(4), chi=3.0)
        n = 4
        for i in range(n):
            for j in range(n):
                if j not in (i, i + 1):
                    assert prof.M[i, j] == 0.0

    def test_chain_2_agent_values(self):
        # brute-force sup of L1 kernel differences by hand:
        # agent 0 reads s_1 only: dist (1,0) vs (0,1) -> M_01 = 2;
        # agent 1 reads a_1 only: dist (1,0) vs (0,1) -> M_11 = 2.
        prof = compute_decay_matrix(chain(2), chi=2.5)
        np.testing.assert_allclose(prof.M, [[0.0, 2.0], [0.0, 2.0]])

    def test_middle_agent_sensitivities(self):
        # by hand from the 1/0.8/0 table: varying a_i at fixed
        # s_{i+1}=1 flips (1,0) to (0,1), so M_ii = 2; varying s_{i+1} at
        # a_i=1 moves (0.2,0.8) to (0,1), so M_{i,i+1} = 0.4.
        prof = compute_decay_matrix(chain(3), chi=3.0)
        assert prof.M[1, 1] == pytest.approx(2.0)
        assert prof.M[1, 2] == pytest.approx(0.4)

    def test_omega_positive_and_phi0(self):
        prof = compute_decay_matrix(chain(3), chi=2.5)
        assert prof.omega > 0
        assert prof.phi0 == pytest.approx(np.exp(-prof.omega))
        assert 0 < prof.phi0 < 1
        # chi = 2.5 >= 2 / 0.9, so the contraction condition fails
        assert not prof.contraction_ok

    def test_infeasible_chi_raises(self):
        with pytest.raises(ValueError, match="omega"):
            compute_decay_matrix(chain(3), chi=1.0)
