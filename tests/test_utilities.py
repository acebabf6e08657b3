import numpy as np
import pytest

from pdmarl import indexing, utilities
from pdmarl.utilities import (CONSTRAINT, ENTROPY, ENTROPY_FLOOR, L2_ACTION,
                              LINEAR, OBJECTIVE, GeneralUtility, UtilityPass)

from oracles import as_constraint, fd_gradient, shadow_reward, utility_value


def occ(table):
    return np.asarray(table, dtype=float)


class TestValues:
    def test_linear_inner_product(self):
        u = GeneralUtility(kind=LINEAR, reward=np.array([[1.0, 2.0],
                                                         [3.0, 4.0]]))
        assert utility_value(u, occ([[1, 0], [0, 0.5]])) == pytest.approx(3.0)

    def test_linear_all_ones_gives_mass(self):
        u = GeneralUtility(kind=LINEAR, reward=np.ones((2, 2)))
        table = np.full((2, 2), 2.5)  # mass 10 = 1/(1-0.9)
        assert utility_value(u, occ(table)) == pytest.approx(10.0)

    def test_entropy_uniform_two_states(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.0)
        assert utility_value(u, occ([[0.5], [0.5]])) == pytest.approx(
            np.log(2.0))

    def test_entropy_depends_only_on_state_marginal(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.3)
        a = occ([[0.4, 0.2], [0.1, 0.3]])
        b = occ([[0.6, 0.0], [0.0, 0.4]])  # same row sums
        assert utility_value(u, a) == pytest.approx(utility_value(u, b))

    def test_l2_point_mass(self):
        u = GeneralUtility(kind=L2_ACTION, gamma=0.0)
        table = np.zeros((3, 2))
        table[1, 0] = 1.0
        assert utility_value(u, occ(table)) == pytest.approx(0.5)

    def test_l2_depends_only_on_action_marginal(self):
        u = GeneralUtility(kind=L2_ACTION, gamma=0.4)
        a = occ([[0.4, 0.2], [0.1, 0.3]])
        b = occ([[0.5, 0.5], [0.0, 0.0]])
        assert utility_value(u, a) == pytest.approx(utility_value(u, b))

    def test_constraint_subtracts_threshold(self):
        base = GeneralUtility(kind=ENTROPY, gamma=0.0)
        con = as_constraint(base, 0.25)
        table = occ([[0.5], [0.5]])
        assert utility_value(con, table) == pytest.approx(
            utility_value(base, table) - 0.25)
        assert con.role == CONSTRAINT

    def test_nan_occupancy_rejected(self):
        u = GeneralUtility(kind=LINEAR, reward=np.ones((1, 1)))
        with pytest.raises(ValueError, match="NaN"):
            utility_value(u, occ([[np.nan]]))

    @pytest.mark.parametrize("fn", [utility_value, shadow_reward])
    @pytest.mark.parametrize("kind", [LINEAR, ENTROPY, L2_ACTION])
    @pytest.mark.parametrize("entry, reason", [
        (-0.1, "occupancy entries must be nonnegative"),
        (np.nan, "occupancy table contains NaN")], ids=["negative", "nan"])
    def test_bad_entry_rejected(self, fn, kind, entry, reason):
        u = GeneralUtility(kind=kind, reward=np.ones((2, 2)), gamma=0.5)
        table = occ([[0.5, 0.5], [0.5, 0.5]])
        table[1, 0] = entry
        with pytest.raises(ValueError, match=reason):
            fn(u, table)

    def test_linear_requires_reward(self):
        with pytest.raises(ValueError):
            GeneralUtility(kind=LINEAR)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GeneralUtility(kind="quadratic")


class TestShadowRewards:
    def test_linear_shadow_is_reward(self):
        r = np.array([[1.0, -2.0], [0.5, 0.0]])
        u = GeneralUtility(kind=LINEAR, reward=r)
        np.testing.assert_array_equal(
            shadow_reward(u, occ(np.ones((2, 2)))), r)

    def test_entropy_uniform_analytic(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.0)
        sr = shadow_reward(u, occ([[0.5], [0.5]]))
        np.testing.assert_allclose(sr, -(np.log(0.5) + 1.0))

    def test_entropy_floor_keeps_gradient_finite(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.99)
        sr = shadow_reward(u, occ([[1.0, 0.0], [0.0, 0.0]]))
        bound = (1.0 - 0.99) * (abs(np.log(ENTROPY_FLOOR)) + 1.0)
        assert np.all(np.isfinite(sr))
        assert np.max(np.abs(sr)) <= bound + 1e-12

    def test_l2_shadow_is_action_marginal(self):
        u = GeneralUtility(kind=L2_ACTION, gamma=0.5)
        table = np.array([[0.4, 0.1], [0.2, 0.3]])
        sr = shadow_reward(u, occ(table))
        m = table.sum(axis=0)
        np.testing.assert_allclose(sr, 0.25 * m[None, :].repeat(2, 0))

    def test_threshold_does_not_shift_gradient(self):
        base = GeneralUtility(kind=ENTROPY, gamma=0.2)
        con = as_constraint(base, 1.5)
        table = occ([[0.3, 0.1], [0.2, 0.4]])
        np.testing.assert_array_equal(shadow_reward(base, table),
                                      shadow_reward(con, table))


class TestFiniteDifferenceOracle:
    def test_linear_exact_for_any_step(self):
        r = np.array([[2.0, -1.0], [0.3, 0.7]])
        u = GeneralUtility(kind=LINEAR, reward=r)
        for h in (1e-4, 1e-6):
            fd = fd_gradient(u, occ(np.full((2, 2), 0.4)), h=h)
            np.testing.assert_allclose(fd, r, atol=1e-10)

    def test_entropy_matches_analytic_on_uniform(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.0)
        table = occ([[0.25, 0.25], [0.25, 0.25]])
        fd = fd_gradient(u, table, h=1e-6)
        sr = shadow_reward(u, table)
        np.testing.assert_allclose(fd, sr, rtol=1e-5)

    def test_l2_matches_analytic_on_point_mass(self):
        u = GeneralUtility(kind=L2_ACTION, gamma=0.0)
        table = np.zeros((2, 2))
        table[0, 1] = 1.0
        fd = fd_gradient(u, occ(table), h=1e-6)
        sr = shadow_reward(u, occ(table))
        np.testing.assert_allclose(fd, sr, atol=1e-8)

    def test_all_families_on_random_occupancies(self):
        rng = np.random.default_rng(np.random.SeedSequence(31))
        fams = [GeneralUtility(kind=LINEAR,
                               reward=rng.normal(size=(3, 2))),
                GeneralUtility(kind=ENTROPY, gamma=0.9),
                GeneralUtility(kind=L2_ACTION, gamma=0.9)]
        for trial in range(100):
            table = rng.random((3, 2)) + 0.05
            u = fams[trial % 3]
            sr = shadow_reward(u, occ(table))
            fd = fd_gradient(u, occ(table), h=1e-6)
            num = np.abs(sr - fd).max()
            den = max(np.abs(fd).max(), 1e-12)
            assert num / den < 1e-5

    def test_positive_step_required(self):
        u = GeneralUtility(kind=ENTROPY, gamma=0.5)
        with pytest.raises(ValueError):
            fd_gradient(u, occ([[0.5], [0.5]]), h=0.0)


def per_agent(u, occ):
    """One agent's value and shadow reward, each formula written out for
    one (S_i, A_i) table."""
    S, A = occ.shape
    c = 1.0 - u.gamma
    if u.kind == LINEAR:
        value, shadow = float(np.sum(u.reward * occ)), u.reward.copy()
    elif u.kind == ENTROPY:
        d = c * occ.sum(axis=1)
        log = np.log(np.maximum(d, ENTROPY_FLOOR))
        value = float(-np.sum(np.where(d > 0, d * log, 0.0)))
        shadow = c * np.repeat(-(log + 1.0)[:, None], A, axis=1)
    else:
        m = occ.sum(axis=0)
        value = float(0.5 * c ** 2 * np.sum(m ** 2))
        shadow = c ** 2 * np.repeat(m[None, :], S, axis=0)
    return (value - u.threshold if u.role == CONSTRAINT else value), shadow


class TestUtilityPass:
    """The grouped pass against ``per_agent``, bit for bit: tables of every
    (S_i, A_i) with S_i in {2, 8, 16} and A_i in {2, 3, 5}, two or three of
    each, in shuffled agent order."""

    def agents(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(s, a) for s in (2, 8, 16) for a in (2, 3, 5)
                  for _ in range(2 + (s + a) % 2)]
        shapes = [shapes[i] for i in rng.permutation(len(shapes))]
        occs = []
        for s, a in shapes:
            occ = rng.random((s, a)) * rng.choice([1e-3, 1.0, 30.0])
            occ[rng.random((s, a)) < 0.2] = 0.0  # some empty states
            occs.append(occ)
        return rng, shapes, occs

    def utilities(self, rng, kinds, shapes):
        return [GeneralUtility(
            kind=kind, role=(CONSTRAINT, OBJECTIVE)[i % 2],
            reward=rng.normal(size=shape) if kind == LINEAR else None,
            threshold=float(rng.normal()), gamma=(0.9, 0.99)[i % 3 == 0])
            for i, (kind, shape) in enumerate(zip(kinds, shapes))]

    def check(self, utils, shapes, occs):
        values, shadow = UtilityPass(utils, shapes)(
            np.concatenate([o.ravel() for o in occs]))
        want = [per_agent(u, o) for u, o in zip(utils, occs)]
        assert values.tobytes() == np.array([v for v, _ in want]).tobytes()
        for got, (_, w) in zip(indexing.split(shadow, shapes), want):
            assert got.tobytes() == w.tobytes()
        for u, o, (v, w) in zip(utils, occs, want):
            assert utility_value(u, o) == v
            assert shadow_reward(u, o).tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", [LINEAR, ENTROPY, L2_ACTION])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_kind_per_list(self, kind, seed):
        rng, shapes, occs = self.agents(seed)
        utils = self.utilities(rng, [kind] * len(shapes), shapes)
        assert len({(u.threshold, u.role, u.gamma) for u in utils}) > 3
        self.check(utils, shapes, occs)

    def test_mixed_kinds_in_one_list(self):
        rng, shapes, occs = self.agents(3)
        kinds = [(LINEAR, ENTROPY, L2_ACTION)[i % 3] for i in range(len(shapes))]
        self.check(self.utilities(rng, kinds, shapes), shapes, occs)

    def test_one_pass_per_group(self, monkeypatch):
        rng, shapes, occs = self.agents(4)
        calls, evaluate = [], utilities.evaluate

        def counted(kind, gamma, reward, occ):
            calls.append(occ.shape)
            return evaluate(kind, gamma, reward, occ)

        monkeypatch.setattr(utilities, "evaluate", counted)
        u = GeneralUtility(kind=ENTROPY, gamma=0.9)
        UtilityPass([u] * len(shapes), shapes)(
            np.concatenate([o.ravel() for o in occs]))
        assert sorted(calls) == sorted(
            (shapes.count(s),) + s for s in set(shapes))

    @pytest.mark.parametrize("kind", [LINEAR, ENTROPY, L2_ACTION])
    @pytest.mark.parametrize("entry, reason", [
        (-1e-300, "occupancy entries must be nonnegative"),
        (np.nan, "occupancy table contains NaN")], ids=["negative", "nan"])
    def test_bad_entry_rejected(self, kind, entry, reason):
        rng, shapes, occs = self.agents(5)
        utils = self.utilities(rng, [kind] * len(shapes), shapes)
        occs[7][-1, 1] = entry
        with pytest.raises(ValueError, match=reason):
            UtilityPass(utils, shapes)(
                np.concatenate([o.ravel() for o in occs]))

    def test_linear_reward_shape_checked(self):
        u = GeneralUtility(kind=LINEAR, reward=np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"reward table shape \(2, 3\) "
                           r"does not match occupancy shape \(2, 2\)"):
            UtilityPass([u], [(2, 2)])
