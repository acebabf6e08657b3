"""Byte-identity of the simulator and the TD critic, and the inverse-CDF rule.

The golden SHA-256 values were recorded from the per-agent Python loops that
the array simulator replaced; any change to the draw order, the inverse-CDF
rule or the TD float expression order shows up here.
"""

import hashlib

import numpy as np
import pytest

from pdmarl.critic import TDConfig, td_evaluate
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)
from pdmarl.policy import KHopPolicy
from pdmarl.sampling import InverseCdf, Simulator, sample_trajectories
from pdmarl.utilities import ShadowReward


def rng_for(seed, purpose=0):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def build(env, kappa, seed):
    if env == "line4":
        cmdp = synthetic_line(SyntheticLineSpec(n=4, gamma=0.95))
    else:
        cmdp = wireless_grid(WirelessGridSpec(side=2, deadline=1, gamma=0.95))
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, kappa,
                               rng_for(seed), scale=1.0)
    return cmdp, policy


def rewards_of(cmdp, kind, seed):
    if kind == "env":
        return list(cmdp.rewards)
    rng = rng_for(seed, 9)
    return [ShadowReward(table=rng.normal(size=(s, a)))
            for s, a in zip(cmdp.local_state_sizes, cmdp.local_action_sizes)]


def digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


CASES = [(env, kappa, kind, seed)
         for env, kappa in (("line4", 1), ("line4", 2), ("wireless2", 1))
         for kind in ("env", "shadow") for seed in (0, 7)]

# Recorded with the per-agent loops (sampling: B=3, H=20; TD: 300 steps).
SAMPLE_SHA = {
    ('line4', 1, 0): '6e9d54c9987fe6753e46d526e61ad0e2ef0525f1ac2677a62f4465b35c98a468',
    ('line4', 1, 7): 'c3e87bba4eb3594a8457817dc3d30b79b5ccb49aebb29940f2ed4102b25a71b3',
    ('line4', 2, 0): '61e9de679de04528428b62fa70b6b7d9cf0b02744ccdafc7e707ec43fb4aa878',
    ('line4', 2, 7): 'cd3cf728bf242d846be26d1fa89789f3b40759fd68ff81a0160c3d5dfd41e1e0',
    ('wireless2', 1, 0): '572410a9477c7b11a702b6c22fb2dd2ea58b6858347976c08990fd8413db7178',
    ('wireless2', 1, 7): '36157e286f0a8a9982c6139bfa86152e7e5a04ff963055494716805f506d999f',
}
TD_SHA = {
    ('line4', 1, 'env', 0): '83c3800d9cc1407253395d9e3c61843ef83037517aac690264c4c865c94d39ea',
    ('line4', 1, 'env', 7): '9a68a5f866c4437fcbe77e0c1bf9fc5649607f8b5621236d4ef35e1bc072bdd1',
    ('line4', 1, 'shadow', 0): 'ead7f391bad7f84e336445a33dd1493a1a48236ddd14a0fe3b7656c94b02c617',
    ('line4', 1, 'shadow', 7): 'baba0ff8ae55cd4f3aca502b9d92a553c3a678da58f371b21b8378bc74c5665e',
    ('line4', 2, 'env', 0): 'e08444263e7dd15b763710c7a37d052de180c38d11bb90838ab52709b52a753d',
    ('line4', 2, 'env', 7): 'b217a8cd1675585d9befb172feda202893341df9262e2d5428eed06116db82ad',
    ('line4', 2, 'shadow', 0): '9bb0dceae25e8be116a3a6099eb6a237eb1ab8442a9b0122de5d7528b548f82a',
    ('line4', 2, 'shadow', 7): '66d708c3ecc2c4b8eafef118fc3b12d3f979901ce06e650b55d50b4fe7b7fa38',
    ('wireless2', 1, 'env', 0): '17b97348260aa593c63a151dac4217c2eb309a6ce13fa4fc4250f7e03e9ac97c',
    ('wireless2', 1, 'env', 7): '91c9e7e57331f8ce0cbac48afd464be7f607988eb007435650fc7017efcf5f73',
    ('wireless2', 1, 'shadow', 0): '94427737bb5bebdcebced49bbffe7223459f3906e157888f681252c8936b4035',
    ('wireless2', 1, 'shadow', 7): 'b30b09f328d7b9242d6b6e0009ab5ed9adfb73cda2093665ed8058a535d13fe7',
}


@pytest.mark.parametrize("env,kappa,seed",
                         sorted({(e, k, s) for e, k, _, s in CASES}))
def test_sample_trajectories_bytes(env, kappa, seed):
    cmdp, policy = build(env, kappa, seed)
    batch = sample_trajectories(cmdp, policy, 3, 20, rng_for(seed, 1))
    assert digest(batch.states, batch.actions) == SAMPLE_SHA[(env, kappa, seed)]


@pytest.mark.parametrize("env,kappa,kind,seed", CASES)
def test_td_evaluate_bytes(env, kappa, kind, seed):
    cmdp, policy = build(env, kappa, seed)
    tables = td_evaluate(cmdp, policy, rewards_of(cmdp, kind, seed), kappa,
                         TDConfig(steps=300, h=20.0, k1=40.0),
                         rng_for(seed, 2))
    assert digest(*(q.table for q in tables)) == TD_SHA[(env, kappa, kind, seed)]


def reference_pick(row, u):
    """The scalar inverse-CDF rule: first index with u < cumsum, else last."""
    for idx, c in enumerate(np.cumsum(row)):
        if u < c:
            return idx
    return len(row) - 1


def check_against_reference(tables, rows, u):
    got = InverseCdf(tables).draw(rows, u)
    want = [[reference_pick(tables[i][r[i]], v[i]) for i in range(len(tables))]
            for r, v in zip(rows, u)]
    np.testing.assert_array_equal(got, want)
    return got


class TestInverseCdf:
    def test_zero_probability_entries_never_drawn(self):
        tables = [np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]),
                  np.array([[1.0, 0.0], [0.0, 1.0]])]
        u = np.concatenate([np.linspace(0.0, 1.0, 101, endpoint=False),
                            [0.5, np.nextafter(0.5, 0.0)]])
        for r in range(2):
            rows = np.full((len(u), 2), r)
            got = check_against_reference(tables, rows, np.column_stack([u, u]))
            for i, tab in enumerate(tables):
                assert np.all(tab[r][got[:, i]] > 0)

    def test_u_equal_to_a_cdf_value(self):
        tables = [np.array([[0.25, 0.25, 0.5]])]
        u = np.array([[0.0], [0.25], [0.5], [np.nextafter(0.5, 0.0)]])
        got = check_against_reference(tables, np.zeros((4, 1), dtype=int), u)
        assert got[:, 0].tolist() == [0, 1, 2, 1]

    def test_row_summing_below_one_returns_last_index(self):
        tables = [np.array([[0.3, 0.3]]), np.array([[0.2, 0.2, 0.2, 0.2]])]
        u = np.array([[0.9, 0.95], [0.6, 0.8], [0.1, 0.1]])
        got = check_against_reference(tables, np.zeros((3, 2), dtype=int), u)
        assert got.tolist() == [[1, 3], [1, 3], [0, 0]]

    def test_random_tables_of_mixed_widths(self):
        rng = np.random.default_rng(3)
        tables = [rng.dirichlet(np.ones(w), size=m)
                  for w, m in ((2, 4), (5, 1), (3, 8), (1, 2))]
        rows = np.column_stack([rng.integers(len(t), size=500) for t in tables])
        u = rng.random((500, len(tables)))
        # some uniforms exactly on a CDF value
        u[:50, 0] = np.cumsum(tables[0], axis=1)[rows[:50, 0], 0]
        check_against_reference(tables, rows, u)


def test_batch_rows_step_like_single_rows():
    cmdp, policy = build("wireless2", 1, 0)
    sim = Simulator(cmdp, policy)
    rng = rng_for(5)
    s = np.array([[0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]])
    u_act, u_trans = rng.random((3, 4)), rng.random((3, 4))
    a = sim.act(s, u_act)
    s_next = sim.transition(s, a, u_trans)
    for b in range(3):
        assert np.array_equal(sim.act(s[b], u_act[b]), a[b])
        assert np.array_equal(sim.transition(s[b], a[b], u_trans[b]), s_next[b])
