import numpy as np
import pytest

from pdmarl.graph import line_graph
from pdmarl.policy import (KHopPolicy, induced_khop_policy, load_policy,
                           policy_state_sensitivity, save_policy)
from pdmarl.sampling import InverseCdf


def random_policy(n=3, kappa=1, seed=0, scale=1.0, sizes=2, asizes=2):
    g = line_graph(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return KHopPolicy.random(g, (sizes,) * n, (asizes,) * n, kappa, rng,
                             scale=scale)


class TestDistributions:
    def test_zero_logits_uniform(self):
        pol = KHopPolicy.zeros(line_graph(2), (2, 2), (2, 2), 1)
        np.testing.assert_allclose(pol.action_probabilities(0, (0, 0)),
                                   [0.5, 0.5])

    def test_softmax_arithmetic(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[np.log(3.0), 0.0]])])
        np.testing.assert_allclose(pol.action_probabilities(0, (0,)),
                                   [0.75, 0.25], rtol=1e-12)

    def test_extreme_logits_no_overflow(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[50.0, -50.0]])])
        probs = pol.action_probabilities(0, (0,))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_rows_sum_to_one_strictly_positive(self):
        pol = random_policy(n=4, kappa=2, seed=5, scale=3.0)
        for i in range(4):
            probs = pol.prob_table(i)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(probs > 0)

    def test_factorization_of_joint_log_prob(self):
        pol = random_policy(n=3, kappa=1, seed=2)
        s, a = (1, 0, 1), (0, 1, 1)
        expected = sum(
            np.log(pol.action_probabilities(
                i, pol.nbhd_state_from_global(i, s))[a[i]])
            for i in range(3))
        assert pol.log_joint_probability(s, a) == pytest.approx(expected)

    def test_joint_table_consistent_with_factors(self):
        pol = random_policy(n=2, kappa=1, seed=7)
        joint = pol.joint_action_probabilities()
        np.testing.assert_allclose(joint.sum(axis=1), 1.0, atol=1e-12)
        # spot-check one entry: s = (1, 0), a = (0, 1)
        want = (pol.action_probabilities(0, (1, 0))[0]
                * pol.action_probabilities(1, (1, 0))[1])
        assert joint[2, 1] == pytest.approx(want)


class TestScore:
    def test_uniform_score_by_hand(self):
        pol = KHopPolicy.zeros(line_graph(1), (2,), (2,), 0)
        sc = pol.score(0, (0,), 0)
        np.testing.assert_allclose(sc[0], [0.5, -0.5])
        assert np.linalg.norm(sc) == pytest.approx(np.sqrt(0.5))

    def test_near_deterministic_score_vanishes(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[30.0, -30.0]])])
        sc = pol.score(0, (0,), 0)
        assert np.linalg.norm(sc) < 1e-10

    def test_score_block_sparsity(self):
        pol = random_policy(n=2, kappa=1, seed=3)
        sc = pol.score(0, (1, 1), 0)
        row = pol.encode_nbhd_state(0, (1, 1))
        mask = np.zeros(sc.shape[0], dtype=bool)
        mask[row] = True
        assert np.all(sc[~mask] == 0.0)
        assert np.any(sc[mask] != 0.0)

    def test_score_bound_exhaustive(self):
        pol = random_policy(n=3, kappa=1, seed=11, scale=5.0, asizes=3)
        bound = np.sqrt(2.0)
        for i in range(3):
            probs = pol.prob_table(i)
            for row in range(probs.shape[0]):
                for a in range(probs.shape[1]):
                    vec = -probs[row].copy()
                    vec[a] += 1.0
                    assert np.linalg.norm(vec) <= bound

    def test_score_matches_log_prob_finite_differences(self):
        pol = random_policy(n=2, kappa=1, seed=13)
        i, s_nbhd, a = 0, (1, 0), 1
        sc = pol.score(i, s_nbhd, a)
        h = 1e-6
        fd = np.zeros_like(sc)
        for idx in np.ndindex(sc.shape):
            for sign in (1.0, -1.0):
                theta = [t.copy() for t in pol.theta]
                theta[i][idx] += sign * h
                p = pol.with_theta(theta)
                logp = np.log(p.action_probabilities(i, s_nbhd)[a])
                fd[idx] += sign * logp
        fd /= 2 * h
        np.testing.assert_allclose(sc, fd, atol=1e-6)


def sample_actions(pol, s, u):
    """Joint actions at global state s, one draw per row of uniforms u."""
    rows = [pol.nbhd_rows(i, np.asarray(s)) for i in range(pol.graph.n)]
    cdf = InverseCdf([pol.prob_table(i) for i in range(pol.graph.n)])
    return cdf.draw(np.broadcast_to(rows, u.shape), u)


class TestSampling:
    def test_point_mass_policy(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (3,), 0)
        pol = pol.with_theta([np.array([[-50.0, 50.0, -50.0]])])
        rng = np.random.default_rng(0)
        assert np.all(sample_actions(pol, (0,), rng.random((50, 1))) == 1)

    def test_uniform_frequencies(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (4,), 0)
        rng = np.random.default_rng(np.random.SeedSequence(19))
        draws = sample_actions(pol, (0,), rng.random((100_000, 1)))[:, 0]
        freqs = np.bincount(draws, minlength=4) / len(draws)
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_fixed_seed_reproducible(self):
        pol = random_policy(n=2, kappa=1, seed=1)
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(77))
            seqs.append(sample_actions(pol, (0, 1),
                                       rng.random((200, 2)))[:, 0].tolist())
        assert seqs[0] == seqs[1]


class TestProjection:
    def test_interior_unchanged(self):
        pol = random_policy(seed=4, scale=0.1)
        same = pol.project_params([t.copy() for t in pol.theta])
        for a, b in zip(pol.theta, same.theta):
            np.testing.assert_array_equal(a, b)

    def test_clamps_both_sides(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        out = pol.project_params([np.array([[73.0, -73.0]])])
        np.testing.assert_array_equal(out.theta[0], [[50.0, -50.0]])

    def test_box_invariant_after_random_init(self):
        pol = random_policy(seed=8, scale=100.0)
        for t in pol.theta:
            assert np.all(np.abs(t) <= pol.theta_bound)


class TestInducedPolicy:
    def test_induced_matches_on_anchor_consistent_states(self):
        pol = random_policy(n=3, kappa=2, seed=21)
        anchor = (0, 0, 0)
        ind = induced_khop_policy(pol, 1, anchor)
        # agent 0 with kappa=1 reads (s_0, s_1); the induced policy equals
        # the original evaluated at s_2 = anchor
        for s0 in range(2):
            for s1 in range(2):
                np.testing.assert_allclose(
                    ind.action_probabilities(0, (s0, s1)),
                    pol.action_probabilities(0, (s0, s1, 0)))

    def test_induced_full_radius_is_identity(self):
        pol = random_policy(n=3, kappa=2, seed=22)
        ind = induced_khop_policy(pol, 2, (1, 1, 1))
        for a, b in zip(pol.theta, ind.theta):
            np.testing.assert_array_equal(a, b)

    def test_wider_radius_rejected(self):
        pol = random_policy(n=3, kappa=1, seed=23)
        with pytest.raises(ValueError):
            induced_khop_policy(pol, 2, (0, 0, 0))

    def test_sensitivity_zero_at_own_radius(self):
        pol = random_policy(n=3, kappa=1, seed=24)
        assert policy_state_sensitivity(pol, 1) == 0.0

    def test_sensitivity_decreasing_for_decaying_logits(self):
        g = line_graph(3)
        base = KHopPolicy.zeros(g, (2, 2, 2), (2, 2, 2), 2)
        rng = np.random.default_rng(np.random.SeedSequence(25))
        tables = []
        for i in range(3):
            nbhd = base.neighborhood(i)
            tab = np.zeros_like(base.theta[i])
            for row, s in enumerate(
                    np.ndindex(*[2] * len(nbhd))):
                for pos, j in enumerate(nbhd):
                    w = 0.4 ** g.distance(i, j)
                    tab[row] += w * (2 * s[pos] - 1) * np.array([1.0, -1.0])
            tables.append(tab + 0.1 * rng.normal(size=tab.shape))
        pol = base.with_theta(tables)
        d0 = policy_state_sensitivity(pol, 0)
        d1 = policy_state_sensitivity(pol, 1)
        d2 = policy_state_sensitivity(pol, 2)
        assert d0 > d1 > d2 == 0.0


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        pol = random_policy(n=3, kappa=1, seed=33, sizes=3, asizes=2)
        path = tmp_path / "policy.csv"
        save_policy(pol, path)
        back = load_policy(path)
        assert back.kappa == pol.kappa
        assert back.state_sizes == pol.state_sizes
        assert back.graph.edges == pol.graph.edges
        for a, b in zip(pol.theta, back.theta):
            np.testing.assert_array_equal(a, b)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="header"):
            load_policy(path)

    def test_save_is_deterministic(self, tmp_path):
        pol = random_policy(n=2, kappa=1, seed=34)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_policy(pol, p1)
        save_policy(pol, p2)
        assert p1.read_bytes() == p2.read_bytes()
