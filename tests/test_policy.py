import csv

import numpy as np
import pytest

from pdmarl.graph import line_graph
from pdmarl.policy import KHopPolicy, _softmax_rows, load_policy, save_policy
from pdmarl.layout import ThetaLayout
from pdmarl.sampling import CdfLayout, InverseCdf

from oracles import (induced_khop_policy, joint_action_probabilities,
                     policy_state_sensitivity)


def random_policy(n=3, kappa=1, seed=0, scale=1.0, sizes=2, asizes=2):
    g = line_graph(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return KHopPolicy.random(g, (sizes,) * n, (asizes,) * n, kappa, rng,
                             scale=scale)


def nbhd_row(pol, i, s_nbhd):
    """Reference table row of a neighborhood state, by C-order raveling."""
    return np.ravel_multi_index(s_nbhd, pol.nbhd_state_sizes(i))


def probs_at(pol, i, s_nbhd):
    return pol.prob_tables[i][nbhd_row(pol, i, s_nbhd)]


def score(pol, i, s_nbhd, a):
    """Gradient of log pi_i(a | s_nbhd) w.r.t. theta_i: agent i's slice of
    the trainer's stacked score sum of one sample, unit weight on agent i
    and zero on every other agent (at row 0, action 0)."""
    n = pol.graph.n
    rows, acts, weights = (np.zeros((1, n), dtype=np.int64),
                           np.zeros((1, n), dtype=np.int64), np.zeros((1, n)))
    rows[0, i], acts[0, i], weights[0, i] = nbhd_row(pol, i, s_nbhd), a, 1.0
    theta = ThetaLayout(pol)
    return pol.stack.split(theta.score_sums(pol, rows, acts, weights))[i]


class TestDistributions:
    def test_zero_logits_uniform(self):
        pol = KHopPolicy.zeros(line_graph(2), (2, 2), (2, 2), 1)
        np.testing.assert_allclose(probs_at(pol, 0, (0, 0)),
                                   [0.5, 0.5])

    def test_softmax_arithmetic(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[np.log(3.0), 0.0]])])
        np.testing.assert_allclose(probs_at(pol, 0, (0,)),
                                   [0.75, 0.25], rtol=1e-12)

    def test_extreme_logits_no_overflow(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[50.0, -50.0]])])
        probs = probs_at(pol, 0, (0,))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_rows_sum_to_one_strictly_positive(self):
        pol = random_policy(n=4, kappa=2, seed=5, scale=3.0)
        for i in range(4):
            probs = pol.prob_tables[i]
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(probs > 0)

    def test_stacked_softmax_equals_one_per_table(self):
        # widths 9 and 17 shared by tables of 1 to 4 rows; 2 and 5 alone
        g = line_graph(6)
        rng = np.random.default_rng(8)
        pol = KHopPolicy.random(g, (1, 1, 2, 1, 2, 1), (9, 2, 17, 9, 5, 17),
                                1, rng, scale=5.0)
        assert [len(t) for t in pol.theta] == [1, 2, 2, 4, 2, 2]
        for t, probs in zip(pol.theta, pol.prob_tables):
            assert probs.shape == t.shape
            assert probs.tobytes() == _softmax_rows(t).tobytes()
            assert not probs.flags.writeable

    def test_stacked_probs_and_cdf_equal_per_agent_ops(self):
        # widths 2, 5 and 9, each shared by two agents that are not
        # adjacent, with 16 to 64 rows each: a softmax over rows padded to
        # one width moves some row sums in their last bit
        g = line_graph(6)
        widths = (2, 5, 9, 5, 2, 9)
        rng = np.random.default_rng(11)
        pol = KHopPolicy.random(g, (4,) * 6, widths, 1, rng, scale=3.0)
        assert [len(t) for t in pol.theta] == [16, 64, 64, 64, 64, 16]
        cdf = InverseCdf(CdfLayout(pol.stack.shapes), pol.probs)
        assert cdf.cdf.shape == (288, 8)
        for i, (t, probs) in enumerate(zip(pol.theta, pol.prob_tables)):
            assert probs.tobytes() == _softmax_rows(t).tobytes()
            rows = cdf.cdf[cdf.offsets[i]:cdf.offsets[i] + len(t)]
            want = np.cumsum(_softmax_rows(t), axis=1)[:, :-1]
            assert rows[:, :widths[i] - 1].tobytes() == want.tobytes()
            assert np.all(rows[:, widths[i] - 1:] == 2.0)
        assert not pol.probs.flags.writeable

    def test_joint_table_consistent_with_factors(self):
        pol = random_policy(n=2, kappa=1, seed=7)
        joint = joint_action_probabilities(pol)
        np.testing.assert_allclose(joint.sum(axis=1), 1.0, atol=1e-12)
        # spot-check one entry: s = (1, 0), a = (0, 1)
        want = (probs_at(pol, 0, (1, 0))[0]
                * probs_at(pol, 1, (1, 0))[1])
        assert joint[2, 1] == pytest.approx(want)


class TestScore:
    def test_uniform_score_by_hand(self):
        pol = KHopPolicy.zeros(line_graph(1), (2,), (2,), 0)
        sc = score(pol, 0, (0,), 0)
        np.testing.assert_allclose(sc[0], [0.5, -0.5])
        assert np.linalg.norm(sc) == pytest.approx(np.sqrt(0.5))

    def test_near_deterministic_score_vanishes(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        pol = pol.with_theta([np.array([[30.0, -30.0]])])
        sc = score(pol, 0, (0,), 0)
        assert np.linalg.norm(sc) < 1e-10

    def test_score_block_sparsity(self):
        pol = random_policy(n=2, kappa=1, seed=3)
        sc = score(pol, 0, (1, 1), 0)
        row = nbhd_row(pol, 0, (1, 1))
        mask = np.zeros(sc.shape[0], dtype=bool)
        mask[row] = True
        assert np.all(sc[~mask] == 0.0)
        assert np.any(sc[mask] != 0.0)

    def test_score_bound_exhaustive(self):
        pol = random_policy(n=3, kappa=1, seed=11, scale=5.0, asizes=3)
        bound = np.sqrt(2.0)
        for i in range(3):
            probs = pol.prob_tables[i]
            for row in range(probs.shape[0]):
                for a in range(probs.shape[1]):
                    vec = -probs[row].copy()
                    vec[a] += 1.0
                    assert np.linalg.norm(vec) <= bound

    def test_score_matches_log_prob_finite_differences(self):
        pol = random_policy(n=2, kappa=1, seed=13)
        i, s_nbhd, a = 0, (1, 0), 1
        sc = score(pol, i, s_nbhd, a)
        h = 1e-6
        fd = np.zeros_like(sc)
        for idx in np.ndindex(sc.shape):
            for sign in (1.0, -1.0):
                theta = [t.copy() for t in pol.theta]
                theta[i][idx] += sign * h
                p = pol.with_theta(theta)
                logp = np.log(probs_at(p, i, s_nbhd)[a])
                fd[idx] += sign * logp
        fd /= 2 * h
        np.testing.assert_allclose(sc, fd, atol=1e-6)


def sample_actions(pol, s, u):
    """Joint actions at global state s, one draw per row of uniforms u."""
    rows = np.asarray(s) @ pol.row_weights()
    cdf = InverseCdf.of_tables(pol.prob_tables)
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
        same = pol.with_theta([t.copy() for t in pol.theta])
        for a, b in zip(pol.theta, same.theta):
            np.testing.assert_array_equal(a, b)

    def test_clamps_both_sides(self):
        pol = KHopPolicy.zeros(line_graph(1), (1,), (2,), 0)
        out = pol.with_theta([np.array([[73.0, -73.0]])])
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
                    probs_at(ind, 0, (s0, s1)),
                    probs_at(pol, 0, (s0, s1, 0)))

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

    def test_rows_match_per_entry_writer(self, tmp_path):
        pol = random_policy(n=3, kappa=1, seed=35, sizes=3, asizes=4)
        path = tmp_path / "policy.csv"
        save_policy(pol, path)
        lines = path.read_text().splitlines(keepends=True)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            fh.write(lines[0])
            writer = csv.writer(fh)
            writer.writerow(["agent", "state", "action", "value"])
            for i, tab in enumerate(pol.theta):
                for row in range(tab.shape[0]):
                    for a in range(tab.shape[1]):
                        writer.writerow([i, row, a, repr(float(tab[row, a]))])
        assert path.read_bytes() == want.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        pol = random_policy(n=2, kappa=1, seed=34)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_policy(pol, p1)
        save_policy(pol, p2)
        assert p1.read_bytes() == p2.read_bytes()
