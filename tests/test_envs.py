import itertools

import numpy as np
import pytest

from pdmarl import indexing
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, _grid_access,
                         synthetic_line, wireless_grid)
from pdmarl.policy import KHopPolicy

from helpers import sample_batch, uniform_policy
from oracles import PairExactSolve, lift_neighborhood_reward


def lookup(f, s, a):
    """A reward at global state/action tuples."""
    return f.values(np.array(s), np.array(a))


def reference_wireless_reward(cell_s, cell_a, i, deps, access, q):
    """The wireless reward of user i, one dependency cell at a time."""
    pos = {j: k for k, j in enumerate(deps)}
    if cell_a[pos[i]] == 0 or cell_s[pos[i]] == 0:
        return 0.0
    y = access[i][cell_a[pos[i]] - 1]
    for j in deps:
        if j == i or cell_s[pos[j]] == 0 or cell_a[pos[j]] == 0:
            continue
        if access[j][cell_a[pos[j]] - 1] == y:
            return 0.0  # collision at the shared point
    return float(q[y])


def reference_line_kernel(i, n, s_right, a_own):
    """Next-state distribution of line agent i, one cell at a time: the head
    copies s_{i+1}, the tail copies a_i, a middle agent reaches 1 surely
    when it acts and s_{i+1} = 1, with 0.8 when it acts alone."""
    if i == 0:
        p1 = 1.0 if s_right == 1 else 0.0
    elif i == n - 1:
        p1 = 1.0 if a_own == 1 else 0.0
    elif a_own == 1:
        p1 = 1.0 if s_right == 1 else 0.8
    else:
        p1 = 0.0
    return [1.0 - p1, p1]


def reference_wireless_kernel(queue, action, p_i, d):
    """Next-queue distribution of one user, one cell at a time: a
    transmission removes the lowest set bit, every deadline then ticks down
    (bit 0 expires), and a packet arrives at bit d-1 with probability p_i."""
    bits = [b for b in range(d) if queue >> b & 1]
    if action > 0 and bits:
        bits.remove(min(bits))
    ticked = sum(1 << (b - 1) for b in bits if b > 0)
    dist = [0.0] * 2 ** d
    dist[ticked + 2 ** (d - 1)] = p_i
    dist[ticked] = 1.0 - p_i
    return dist


def mean_return(cmdp, policy):
    occ = PairExactSolve(cmdp, policy).occupancy
    vals = [lift_neighborhood_reward(cmdp, r) @ occ for r in cmdp.rewards]
    return float(np.mean(vals))


def deterministic_policy(cmdp, kappa, mappings):
    """kappa-hop policy taking action mappings[i][row] in neighborhood row."""
    pol = KHopPolicy.zeros(cmdp.graph, cmdp.local_state_sizes,
                           cmdp.local_action_sizes, kappa)
    tables = []
    for i, m in enumerate(mappings):
        t = np.full_like(pol.theta[i], -50.0)
        for row, a in enumerate(m):
            t[row, a] = 50.0
        tables.append(t)
    return pol.with_theta(tables)


class TestSyntheticLine:
    def test_reward_values(self):
        m = synthetic_line(SyntheticLineSpec(n=5, gamma=0.9))
        s_on = (1,) * 5
        a = (0,) * 5
        assert lookup(m.rewards[0], s_on, a) == 1.0
        assert lookup(m.rewards[4], s_on, a) == 0.1
        assert lookup(m.rewards[2], (1, 1, 0, 1, 1), a) == 0.0

    def test_custom_reward_levels(self):
        m = synthetic_line(SyntheticLineSpec(n=2, gamma=0.5, reward_head=3.0,
                                             reward_rest=0.7))
        assert lookup(m.rewards[0], (1, 0), (0, 0)) == 3.0
        assert lookup(m.rewards[1], (0, 1), (0, 0)) == 0.7

    def test_head_copies_right_neighbor(self):
        m = synthetic_line(SyntheticLineSpec(n=3, gamma=0.9))
        # dep cell of agent 0 is just s_1
        np.testing.assert_allclose(m.kernels[0].table,
                                   [[1.0, 0.0], [0.0, 1.0]])

    def test_middle_agent_transition_table(self):
        m = synthetic_line(SyntheticLineSpec(n=3, gamma=0.9))
        # rows are (s_2, a_1) cells in order (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_allclose(m.kernels[1].table,
                                   [[1.0, 0.0], [0.2, 0.8],
                                    [1.0, 0.0], [0.0, 1.0]])

    def test_tail_copies_own_action(self):
        m = synthetic_line(SyntheticLineSpec(n=3, gamma=0.9))
        np.testing.assert_allclose(m.kernels[2].table,
                                   [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_kernels_match_per_cell_reference(self, n):
        m = synthetic_line(SyntheticLineSpec(n=n, gamma=0.9))
        for i, kern in enumerate(m.kernels):
            assert kern.state_deps == ((i + 1,) if i < n - 1 else ())
            assert kern.action_deps == ((i,) if i > 0 else ())
            want = [reference_line_kernel(
                        i, n, cell[0] if kern.state_deps else None,
                        cell[-1] if kern.action_deps else None)
                    for cell in itertools.product(*map(range, kern.dep_sizes))]
            assert kern.table.tobytes() == np.array(want).tobytes()

    def test_starts_all_zero(self):
        m = synthetic_line(SyntheticLineSpec(n=4, gamma=0.9))
        for dist in m.initial_dist:
            np.testing.assert_array_equal(dist, [1.0, 0.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticLineSpec(n=1, gamma=0.9)
        with pytest.raises(ValueError):
            SyntheticLineSpec(n=3, gamma=1.0)

    def test_always_act_optimal_among_deterministic_n2(self):
        m = synthetic_line(SyntheticLineSpec(n=2, gamma=0.9))
        best_val = -np.inf
        for m0 in itertools.product(range(2), repeat=4):
            for m1 in itertools.product(range(2), repeat=4):
                pol = deterministic_policy(m, 1, [m0, m1])
                best_val = max(best_val, mean_return(m, pol))
        # ties exist (the head agent's action is irrelevant), so compare values
        greedy = deterministic_policy(m, 1, [(1,) * 4, (1,) * 4])
        assert mean_return(m, greedy) == pytest.approx(best_val)

    def test_always_act_optimal_among_deterministic_n3(self):
        m = synthetic_line(SyntheticLineSpec(n=3, gamma=0.9))
        greedy = deterministic_policy(m, 0, [(1, 1)] * 3)
        target = mean_return(m, greedy)
        for maps in itertools.product(
                itertools.product(range(2), repeat=2), repeat=3):
            val = mean_return(m, deterministic_policy(m, 0, list(maps)))
            assert val <= target + 1e-10


class TestWirelessGrid:
    def test_side5_counts(self):
        spec = WirelessGridSpec(side=5, deadline=3, gamma=0.99)
        assert spec.n_users == 25
        assert spec.n_points == 16

    def test_state_and_action_sizes(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=3, gamma=0.9))
        assert m.local_state_sizes == (8,) * 9
        # corners reach 1 point, edges 2, the center 4
        assert sorted(m.local_action_sizes) == [2, 2, 2, 2, 3, 3, 3, 3, 5]
        assert m.local_action_sizes[4] == 5

    def test_king_adjacency_graph(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.9))
        assert set(m.graph.neighbors(4)) == {0, 1, 2, 3, 5, 6, 7, 8}
        assert set(m.graph.neighbors(0)) == {1, 3, 4}

    def test_reward_dependencies_are_graph_neighbors(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.9))
        for i, rew in enumerate(m.rewards):
            want = tuple(sorted({i} | set(m.graph.neighbors(i))))
            assert rew.state_deps == want
            assert rew.action_deps == want

    def test_collision_zeroes_both_rewards(self):
        spec = WirelessGridSpec(side=2, deadline=1, gamma=0.9,
                                p=(0.5,) * 4, q=(0.7,))
        m = wireless_grid(spec)
        s = (1, 1, 0, 0)
        both = (1, 1, 0, 0)
        assert lookup(m.rewards[0], s, both) == 0.0
        assert lookup(m.rewards[1], s, both) == 0.0
        solo = (1, 0, 0, 0)
        assert lookup(m.rewards[0], s, solo) == pytest.approx(0.7)

    def test_empty_queue_or_idle_earns_nothing(self):
        spec = WirelessGridSpec(side=2, deadline=1, gamma=0.9,
                                p=(0.5,) * 4, q=(0.7,))
        m = wireless_grid(spec)
        assert lookup(m.rewards[0], (0, 0, 0, 0), (1, 0, 0, 0)) == 0.0
        assert lookup(m.rewards[0], (1, 0, 0, 0), (0, 0, 0, 0)) == 0.0

    def test_empty_transmitters_do_not_collide(self):
        spec = WirelessGridSpec(side=2, deadline=1, gamma=0.9,
                                p=(0.5,) * 4, q=(0.7,))
        m = wireless_grid(spec)
        # user 1 transmits from an empty queue: user 0 still succeeds
        assert lookup(m.rewards[0], (1, 0, 0, 0),
                      (1, 1, 1, 1)) == pytest.approx(0.7)

    def test_total_reward_bounded_by_points_exhaustive(self):
        spec = WirelessGridSpec(side=2, deadline=1, gamma=0.9,
                                p=(0.5,) * 4, q=(0.7,))
        m = wireless_grid(spec)
        cap = spec.n_points * 0.7
        for s in itertools.product(range(2), repeat=4):
            for a in itertools.product(range(2), repeat=4):
                total = sum(lookup(r, s, a) for r in m.rewards)
                assert total <= cap + 1e-12

    def test_queue_transition_arithmetic(self):
        spec = WirelessGridSpec(side=2, deadline=3, gamma=0.9,
                                p=(0.25,) * 4, q=(0.7,))
        m = wireless_grid(spec)
        A = m.local_action_sizes[0]
        # queue 0b101, transmit: drop the earliest packet, tick, maybe arrive
        row = m.kernels[0].table[0b101 * A + 1]
        assert row[0b110] == pytest.approx(0.25)
        assert row[0b010] == pytest.approx(0.75)
        # queue 0b101, idle: the deadline-1 packet expires
        row = m.kernels[0].table[0b101 * A + 0]
        assert row[0b110] == pytest.approx(0.25)
        assert row[0b010] == pytest.approx(0.75)
        # queue 0b001, idle: expiry leaves only a possible arrival
        row = m.kernels[0].table[0b001 * A + 0]
        assert row[0b100] == pytest.approx(0.25)
        assert row[0b000] == pytest.approx(0.75)

    @pytest.mark.parametrize("side, deadline", [
        (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
        (4, 1), (4, 2)])
    def test_kernels_match_per_cell_reference(self, side, deadline):
        spec = WirelessGridSpec(side=side, deadline=deadline, gamma=0.9)
        m = wireless_grid(spec)
        p, _ = spec.probabilities()
        for i, kern in enumerate(m.kernels):
            assert kern.state_deps == kern.action_deps == (i,)
            want = [reference_wireless_kernel(s, a, p[i], deadline)
                    for s in range(2 ** deadline)
                    for a in range(m.local_action_sizes[i])]
            assert kern.table.tobytes() == np.array(want).tobytes()

    def test_queues_start_empty(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=2, gamma=0.9))
        for dist in m.initial_dist:
            assert dist[0] == 1.0
            assert dist[1:].sum() == 0.0

    def test_probabilities_seeded_and_ranged(self):
        a = WirelessGridSpec(side=4, deadline=2, gamma=0.9, seed=5)
        b = WirelessGridSpec(side=4, deadline=2, gamma=0.9, seed=5)
        c = WirelessGridSpec(side=4, deadline=2, gamma=0.9, seed=6)
        pa, qa = a.probabilities()
        pb, qb = b.probabilities()
        pc, _ = c.probabilities()
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(qa, qb)
        assert np.any(pa != pc)
        assert np.all((pa > 0.3) & (pa < 0.9))
        assert np.all((qa > 0.3) & (qa < 0.9))

    def test_explicit_probabilities_respected(self):
        spec = WirelessGridSpec(side=2, deadline=1, gamma=0.9,
                                p=(0.4,) * 4, q=(0.8,))
        p, q = spec.probabilities()
        np.testing.assert_array_equal(p, 0.4)
        np.testing.assert_array_equal(q, [0.8])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WirelessGridSpec(side=1, deadline=1, gamma=0.9)
        with pytest.raises(ValueError):
            WirelessGridSpec(side=2, deadline=0, gamma=0.9)
        with pytest.raises(ValueError):
            WirelessGridSpec(side=2, deadline=1, gamma=0.9, p=(0.5,) * 3)
        with pytest.raises(ValueError):
            WirelessGridSpec(side=2, deadline=1, gamma=0.9, q=(1.2,))

    @pytest.mark.parametrize("side, deadline, n_random", [
        (2, 2, None), (3, 1, 10_000)], ids=["side2_all_cells", "side3_random"])
    def test_reward_matches_per_cell_reference(self, side, deadline, n_random):
        # at side 3 this includes the center user, whose 2^9 * 6480 cells
        # were never tabulated
        spec = WirelessGridSpec(side=side, deadline=deadline, gamma=0.9)
        m = wireless_grid(spec)
        _, q = spec.probabilities()
        access = _grid_access(side)
        rng = np.random.default_rng(np.random.SeedSequence(side))
        for rew in m.rewards:
            deps, k = list(rew.state_deps), len(rew.state_deps)
            if n_random is None:
                cells = indexing.decode_table(rew.dep_sizes)
            else:
                cells = rng.integers(0, rew.dep_sizes,
                                     size=(n_random, len(rew.dep_sizes)))
            S = rng.integers(0, m.local_state_sizes,
                             size=(len(cells), m.n_agents))
            A = rng.integers(0, m.local_action_sizes,
                             size=(len(cells), m.n_agents))
            S[:, deps], A[:, deps] = cells[:, :k], cells[:, k:]
            want = [reference_wireless_reward(c[:k], c[k:], rew.agent, deps,
                                              access, q)
                    for c in cells.tolist()]
            np.testing.assert_array_equal(rew.values(S, A), want)
            assert np.count_nonzero(want) > 0

    def test_rollout_runs_and_stays_in_bounds(self):
        m = wireless_grid(WirelessGridSpec(side=3, deadline=2, gamma=0.95))
        pol = uniform_policy(m, kappa=0)
        S, A = sample_batch(m, pol, 3, 20, np.random.default_rng(0))
        assert S.max() < 4
        for i, A_i in enumerate(m.local_action_sizes):
            assert A[:, :, i].max() < A_i
