"""Byte-identity of the simulator and the TD critic, and the inverse-CDF rule.

The golden SHA-256 values were recorded from the per-agent Python loops that
the array simulator replaced; any change to the draw order, the inverse-CDF
rule or the TD float expression order shows up here. The windowed rollout
is checked against the stepped one (``oracles.stepped_rollout``), and the
draw calls of a rollout are counted. ``train`` rolls its sampling batch and
both TD trajectories out together; the last tests check that each part
equals the separate call with the same generator.
"""

import hashlib

import numpy as np
import pytest

from pdmarl import indexing, primal_dual, sampling, utilities
from pdmarl import policy as policy_module
from pdmarl.config import (build_env, build_train_config, build_utilities,
                           parse_config_dict)
from pdmarl.critic import TDConfig, TruncatedQTable, td_fit
from pdmarl.layout import RunLayout
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)
from pdmarl.graph import line_graph
from pdmarl.model import FactoredCMDP, LocalReward, TransitionKernel
from pdmarl.policy import KHopPolicy
from pdmarl.primal_dual import StepSizes, TrainConfig, _rng, train
from pdmarl.sampling import (STACK_STEPS, CdfLayout, InverseCdf, Simulator,
                             trajectory_draws)
from pdmarl.utilities import ENTROPY, L2_ACTION, GeneralUtility

from helpers import (perfbench_workloads, reward_steps, sample_batch,
                     td_rollout, td_tables)
from oracles import (as_constraint, dense_table, simulator_weights,
                     stepped_rollout, td_fit_reference)


workloads = perfbench_workloads()


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
    return [rng.normal(size=(s, a))
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
    S, A = sample_batch(cmdp, policy, 3, 20, rng_for(seed, 1))
    assert digest(S, A) == SAMPLE_SHA[(env, kappa, seed)]


@pytest.mark.parametrize("env,kappa,kind,seed", CASES)
def test_td_evaluate_bytes(env, kappa, kind, seed):
    # the hash, and the recursion over one dict per agent
    cmdp, policy = build(env, kappa, seed)
    layout, S, A = td_rollout(cmdp, policy, kappa,
                              TDConfig(steps=300, h=20.0, k1=40.0),
                              rng_for(seed, 2))
    rewards = rewards_of(cmdp, kind, seed)
    tables = td_fit(layout, reward_steps(layout, rewards, S, A), S, A)
    assert digest(*(dense_table(q) for q in tables)) == \
        TD_SHA[(env, kappa, kind, seed)]
    for q, (keys, values) in zip(tables, td_fit_reference(
            layout, rewards, S, A), strict=True):
        assert q.keys.tobytes() == keys.tobytes()
        assert q.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("env,kappa", [("line4", 1), ("line4", 2),
                                       ("wireless2", 1)])
def test_td_tables_read_as_their_dense_form(env, kappa):
    # 13 stored cells at most, fewer than any table's 16 or more
    cmdp, policy = build(env, kappa, 0)
    tables = td_tables(cmdp, policy, rewards_of(cmdp, "shadow", 0), kappa,
                       TDConfig(steps=12, h=20.0, k1=40.0), rng_for(0, 2))
    layout = RunLayout(cmdp, policy, kappa)
    for q in tables:
        dense = dense_table(q)
        assert 0 < len(q.keys) < dense.size
        # every neighborhood cell, the agents outside the neighborhood at 0
        S = np.zeros(dense.shape + (cmdp.n_agents,), dtype=np.int64)
        A = np.zeros_like(S)
        S[..., list(q.nbhd)] = indexing.decode_table(q.state_sizes)[:, None]
        A[..., list(q.nbhd)] = indexing.decode_table(q.action_sizes)[None]
        got = q.read(layout.q_cells(S, A)[..., q.agent])
        assert np.array_equal(got, dense)
        unvisited = np.ones(dense.size, dtype=bool)
        unvisited[q.keys] = False
        assert np.all(got.ravel()[unvisited] == 0.0)


def reference_pick(row, u):
    """The scalar inverse-CDF rule: first index with u < cumsum, else last."""
    for idx, c in enumerate(np.cumsum(row)):
        if u < c:
            return idx
    return len(row) - 1


def check_against_reference(tables, rows, u):
    got = InverseCdf.of_tables(tables).draw(rows, u)
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

    def test_binary_tables_draw_with_one_comparison(self):
        rng = np.random.default_rng(5)
        tables = [rng.dirichlet(np.ones(2), size=m) for m in (3, 1, 6)]
        tables[0][1] = [0.0, 1.0]
        rows = np.column_stack([rng.integers(len(t), size=400) for t in tables])
        u = rng.random((400, 3))
        u[:40, 2] = tables[2][rows[:40, 2], 0]  # exactly on the CDF value
        cdf = InverseCdf.of_tables(tables)
        assert cdf.cdf.shape == (10, 1) and cdf.col is not None
        got = check_against_reference(tables, rows, u)
        assert got.dtype == np.int64
        # written into a strided int64 buffer, its neighbors left alone
        buf = np.full((400, 7), -1, dtype=np.int64)
        cdf.draw_stacked(rows + cdf.offsets, u, out=buf[:, 2:5])
        assert np.array_equal(buf[:, 2:5], got)
        assert np.all(buf[:, :2] == -1) and np.all(buf[:, 5:] == -1)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_bit_count_draws_match_scalar_rule(self, width):
        # width - 1 thresholds pad to 0, 1, 2, 4, 8 or 16 columns: one
        # uint16/32/64 word per row below 9 thresholds, two uint64 above
        rng = np.random.default_rng(width)
        tables = [rng.dirichlet(np.ones(w), size=m)
                  for w, m in ((width, 3), (width, 1), (1 + width // 2, 5))]
        tables[1] *= 0.9  # a row whose cumsum ends below 1.0
        rows = np.column_stack([rng.integers(len(t), size=300) for t in tables])
        u = rng.random((300, 3))
        u[:30, 0] = np.cumsum(tables[0], axis=1)[
            rows[:30, 0], rng.integers(width, size=30)]  # on a threshold
        u[30:40, 1] = 0.95
        cdf = InverseCdf.of_tables(tables)
        t = width - 1
        assert cdf.cdf.shape[1] == (t if t < 3 else 4 if t < 5 else
                                    8 if t < 9 else 16)
        got = check_against_reference(tables, rows, u)
        assert np.all(got[30:40, 1] == width - 1)
        buf = np.full((300, 5), -1, dtype=np.int64)
        cdf.draw_stacked(rows + cdf.offsets, u, out=buf[:, 1:4])
        assert np.array_equal(buf[:, 1:4], got)
        assert np.all(buf[:, 0] == -1) and np.all(buf[:, 4] == -1)


def test_batch_rows_step_like_single_rows():
    cmdp, policy = build("wireless2", 1, 0)
    sim = Simulator(cmdp, policy)
    rng = rng_for(5)
    s = np.array([[0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]])
    u_act, u_trans = rng.random((3, 4)), rng.random((3, 4))
    u_act, u_trans = np.stack([u_act, u_trans]), u_trans[None]
    [(states, actions)] = sim.rollout([(s, u_act, u_trans)])
    for b in range(3):
        [(s_b, a_b)] = sim.rollout([(s[b:b + 1], u_act[:, b:b + 1],
                                     u_trans[:, b:b + 1])])
        assert np.array_equal(s_b[0], states[b])
        assert np.array_equal(a_b[0], actions[b])


# -- open-loop rollouts: kernels whose rows are all equal ---------------------

def equal_rows_model():
    """Three agents on a line whose kernels declare state and action
    dependencies but return one distribution at every cell; the middle
    agent has three states, so its kernel draws by bit count."""
    state_sizes, action_sizes = (2, 3, 2), (2, 3, 2)
    dists = ([0.25, 0.75], [0.2, 0.3, 0.5], [0.6, 0.4])
    kernels = tuple(TransitionKernel.from_function(
        lambda S, A, d=d: np.tile(d, (len(S), 1)), i,
        tuple(j for j in (i - 1, i, i + 1) if 0 <= j < 3), (i,),
        state_sizes, action_sizes) for i, d in enumerate(dists))
    rewards = tuple(LocalReward.from_function(
        lambda S, A: np.where(S[..., 0] == 1, 1.0, 0.0), i, (i,), (),
        state_sizes, action_sizes) for i in range(3))
    initial = tuple(np.eye(s)[0] for s in state_sizes)
    return FactoredCMDP(graph=line_graph(3), local_state_sizes=state_sizes,
                        local_action_sizes=action_sizes, kernels=kernels,
                        rewards=rewards, initial_dist=initial, gamma=0.95)


def model(name):
    if name == "equal_rows":
        return equal_rows_model()
    if name == "line4":
        return synthetic_line(SyntheticLineSpec(n=4, gamma=0.95))
    side, deadline = {"grid2": (2, 1), "grid3": (3, 1),
                      "grid2_d2": (2, 2)}[name]
    return wireless_grid(WirelessGridSpec(side=side, deadline=deadline,
                                          gamma=0.95))


@pytest.mark.parametrize("name,open_loop", [
    ("grid2", True), ("grid3", True), ("equal_rows", True), ("line4", False),
    ("grid2_d2", False)])
def test_open_loop_when_every_kernel_row_is_equal(name, open_loop):
    cmdp = model(name)
    # every kernel declares a state and an action dependency; equal rows
    # alone say that it reads neither
    assert not open_loop or all(k.state_deps and k.action_deps
                                for k in cmdp.kernels)
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, 1, rng_for(0))
    sim = Simulator(cmdp, policy)
    assert sim.open_loop is open_loop
    assert sim.with_policy(policy).open_loop is open_loop


@pytest.mark.parametrize("side,kappa", [(3, 1), (3, 2), (4, 1)])
def test_float_policy_rows_are_the_int64_product(side, kappa):
    cmdp = wireless_grid(WirelessGridSpec(side=side, deadline=1, gamma=0.95))
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, kappa, rng_for(side))
    sim = Simulator(cmdp, policy)
    n = cmdp.n_agents
    # rollout rows [s | a | 1]: random ones, and every state at its largest
    # value, which gives every agent its last policy row
    rng = rng_for(kappa)
    x = np.ones((STACK_STEPS, 7, 2 * n + 1), dtype=np.int64)
    x[..., :n] = rng.integers(np.array(cmdp.local_state_sizes), size=(
        STACK_STEPS, 7, n))
    x[..., n:2 * n] = rng.integers(np.array(cmdp.local_action_sizes),
                                   size=(STACK_STEPS, 7, n))
    x[0, 0, :n] = np.array(cmdp.local_state_sizes) - 1
    act_w, trans_w = simulator_weights(cmdp, policy)
    want = x @ act_w
    for weights, exact in ((sim.act_wf, act_w), (sim.trans_wf, trans_w)):
        assert weights.dtype == np.float64
        assert np.array_equal(weights, exact)
        got = indexing.table_rows(x, weights)
        assert got.dtype == np.int64
        assert np.array_equal(got, x @ exact)
    assert np.array_equal(want[0, 0], sim.policy_cdf.offsets + [
        len(t) - 1 for t in policy.theta])


@pytest.mark.parametrize("name,kappa", [("grid3", 0), ("grid3", 1),
                                        ("equal_rows", 1)])
@pytest.mark.parametrize("pad", [0.5, 0.0, 0.999])
def test_open_loop_rollout_is_the_stepped_one(monkeypatch, name, kappa, pad):
    cmdp = model(name)
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, kappa,
                               rng_for(kappa), scale=1.0)
    sim = Simulator(cmdp, policy)
    assert sim.open_loop
    # a 5-row group, and one-row groups ending inside a later stack of
    # ``STACK_STEPS`` uniforms and at its edge
    rng = rng_for(11)
    groups = random_groups(cmdp, rng, ((5, 20), (1, STACK_STEPS + 6),
                                       (1, 2 * STACK_STEPS)))
    monkeypatch.setattr(sampling, "PAD_U", pad)
    got = assert_rollout_is_the_stepped_one(sim, cmdp, policy, groups)
    # the draws are not all alike
    assert len(np.unique(got[1][0])) > 1 and len(np.unique(got[1][1])) > 1


# -- closed-loop rollouts: windows of speculative sweeps ----------------------

def copying_model(n=4):
    """Agents in pairs (0, 1), (2, 3), ... on a line, each of which takes
    its partner's state as its next state: no next state depends on a
    draw, and two trajectories from different states never merge."""
    sizes = (2,) * n
    kernels = tuple(TransitionKernel.from_function(
        lambda S, A: np.eye(2)[S[:, 0]], i, (i ^ 1,), (), sizes, sizes)
        for i in range(n))
    rewards = tuple(LocalReward.from_function(
        lambda S, A: np.where(S[..., 0] == 1, 1.0, 0.0), i, (i,), (),
        sizes, sizes) for i in range(n))
    initial = tuple(np.full(2, 0.5) for _ in range(n))
    return FactoredCMDP(graph=line_graph(n), local_state_sizes=sizes,
                        local_action_sizes=sizes, kernels=kernels,
                        rewards=rewards, initial_dist=initial, gamma=0.95)


def random_groups(cmdp, rng, shapes):
    """Rollout groups of (rows, steps) ``shapes`` from random initial
    states and uniforms."""
    n, groups = cmdp.n_agents, []
    for rows, T in shapes:
        s = rng.integers(cmdp.local_state_sizes, size=(rows, n))
        groups.append((s, rng.random((T, rows, n)),
                       rng.random((T - 1, rows, n))))
    return groups


def assert_rollout_is_the_stepped_one(sim, cmdp, policy, groups):
    """``sim.rollout(groups)``, checked against ``stepped_rollout`` with the
    int64 weights of ``cmdp`` and ``policy``."""
    got = sim.rollout(groups)
    weights = simulator_weights(cmdp, policy)
    for (S, A), (S_want, A_want), (s, u_act, _) in zip(
            got, stepped_rollout(sim, weights, groups), groups, strict=True):
        assert S.shape == A.shape == u_act.shape[1::-1] + (sim.n,)
        assert S.dtype == A.dtype == np.int64
        assert S.flags.c_contiguous and A.flags.c_contiguous
        assert np.array_equal(S[:, 0], s)
        assert np.array_equal(S, S_want) and np.array_equal(A, A_want)
    return got


def count_draws(monkeypatch):
    """Per ``Simulator.rollout`` call from now on, the ``draw_stacked``
    calls of its policy and kernel CDFs and the uniforms they read."""
    counts, rollout = [], Simulator.rollout

    def counted_rollout(self, groups):
        count = {"calls": 0, "uniforms": 0}

        def counted(draw):
            def wrapper(rows, u, out):
                count["calls"] += 1
                count["uniforms"] += u.size
                return draw(rows, u, out)
            return wrapper

        with monkeypatch.context() as patch:
            for cdf in (self.policy_cdf, self.kernel_cdf):
                patch.setattr(cdf, "draw_stacked", counted(cdf.draw_stacked))
            out = rollout(self, groups)
        counts.append(count)
        return out

    monkeypatch.setattr(Simulator, "rollout", counted_rollout)
    return counts


# groups of unequal lengths: several windows long, ending inside a window,
# two of equal length, and one of a single step
UNEQUAL = ((5, 20), (1, 300), (2, 150), (1, 300), (3, 1))


@pytest.mark.parametrize("name,kappa", [
    ("line4", 0), ("line4", 1), ("line4", 2), ("grid2_d2", 0),
    ("grid2_d2", 1), ("copying", 1)])
@pytest.mark.parametrize("pad", [0.5, 0.0, 0.999])
def test_rollout_is_the_stepped_one(monkeypatch, name, kappa, pad):
    cmdp = copying_model() if name == "copying" else model(name)
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, kappa,
                               rng_for(kappa), scale=1.0)
    sim = Simulator(cmdp, policy)
    assert not sim.open_loop
    groups = random_groups(cmdp, rng_for(12), UNEQUAL)
    monkeypatch.setattr(sampling, "PAD_U", pad)
    assert_rollout_is_the_stepped_one(sim, cmdp, policy, groups)


def test_rollout_that_never_merges_takes_at_most_one_sweep_a_step(
        monkeypatch):
    # every agent copies its partner's state, and no state of these rows
    # is ever all 0, the guess of a step not yet drawn: each sweep keeps
    # only the step it draws from an exact state, T sweeps in all
    cmdp = copying_model()
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, 1, rng_for(0))
    sim = Simulator(cmdp, policy)
    T = 400
    s = np.array([[1, 0, 0, 1], [1, 1, 1, 1]])
    groups = [(s, rng_for(1).random((T, 2, 4)),
               rng_for(2).random((T - 1, 2, 4)))]
    counts = count_draws(monkeypatch)
    [(S, _)] = assert_rollout_is_the_stepped_one(sim, cmdp, policy, groups)
    assert np.array_equal(S[:, 1::2],
                          s[:, None, [1, 0, 3, 2]].repeat(T // 2, axis=1))
    assert counts[0]["calls"] == 2 * T


@pytest.mark.parametrize("rows,steps", [(1500, 30), (300, 60)])
def test_rollout_of_many_rows_is_the_stepped_one(rows, steps):
    cmdp = model("line4")
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, 1, rng_for(4),
                               scale=1.0)
    sim = Simulator(cmdp, policy)
    assert_rollout_is_the_stepped_one(sim, cmdp, policy, random_groups(
        cmdp, rng_for(13), ((rows, steps), (7, 2 * steps))))


# draw calls of the first line10 rollout, 2 per sweep: 24-26 sweeps
# measured at seeds 0 to 5
LINE10_DRAW_CALLS = 2 * 40


@pytest.mark.parametrize("seed", [0, 3])
def test_first_line10_rollout_takes_few_sweeps(monkeypatch, seed):
    # the benchmark's headline line: 10 agents at kappa 1, a batch of 5
    # rows of 125 steps and two TD rows of 501; the stepped loop makes
    # 2 * 501 draw calls
    cfg = parse_config_dict({**workloads.workload_config("line10_k1", seed),
                             "iterations": 1})
    cmdp = build_env(cfg)
    objectives, constraints = build_utilities(cfg, cmdp)
    counts = count_draws(monkeypatch)
    train(cmdp, objectives, constraints, build_train_config(cfg), seed)
    assert len(counts) == 1
    assert counts[0]["calls"] <= LINE10_DRAW_CALLS


# uniforms the 1000-row rollout may read beyond the stepped loop's: four
# steps' worth, two draws each (measured: two steps' worth at six seeds)
MANY_ROWS_EXTRA = 4 * 2 * 1000 * 2


def test_rollout_of_many_rows_steps_as_the_stepped_loop(monkeypatch):
    # 2048 rows of 2 agents hold ``WINDOW_CELLS`` cells a step: the rollout
    # steps from the start; 1000 rows start in windows of 2 steps and fall
    # back to stepping within a few sweeps
    cmdp = synthetic_line(SyntheticLineSpec(n=2, gamma=0.9))
    policy = KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                               cmdp.local_action_sizes, 1, rng_for(5),
                               scale=0.3)
    sim = Simulator(cmdp, policy)
    T = 50
    counts = count_draws(monkeypatch)
    for rows in (2048, 1000):
        sim.rollout([trajectory_draws(sim, rows, T, rng_for(rows))])
    stepped = [{"calls": 2 * T, "uniforms": 2 * T * rows * 2}
               for rows in (2048, 1000)]
    assert counts[0] == stepped[0]
    assert counts[1]["calls"] <= stepped[1]["calls"]
    assert counts[1]["uniforms"] <= stepped[1]["uniforms"] + MANY_ROWS_EXTRA


# -- one stacked rollout per training iteration -------------------------------

def train_setup(env, kappa, horizon, steps):
    """A 2-iteration training of ``build(env, kappa, 0)``'s model: env-reward
    objective on the line, entropy objective on the grid."""
    cmdp, _ = build(env, kappa, 0)
    base = GeneralUtility(kind=ENTROPY, gamma=cmdp.gamma)
    objectives = None if env == "line4" else [base] * cmdp.n_agents
    constraints = [as_constraint(base, 0.25)] * cmdp.n_agents
    cfg = TrainConfig(kappa=kappa, iterations=2, horizon=horizon, batch_size=3,
                      steps=StepSizes(eta_theta=0.05, eta_mu=10.0),
                      td=TDConfig(steps=steps, h=20.0, k1=40.0))
    return cmdp, objectives, constraints, cfg


def recorded_train(monkeypatch, cmdp, objectives, constraints, cfg, seed):
    """Per iteration: the policy, the batch and, per critic, the rewards and
    the Q tables that ``train`` computed."""
    calls, fits = [], []
    fit, estimate = primal_dual.td_fit, primal_dual.truncated_pg_estimate

    def recording_fit(layout, rewards, *args):
        tables = fit(layout, rewards, *args)
        fits.append((rewards, tables))
        return tables

    def recording_estimate(layout, S, A, policy, *args):
        calls.append((policy, (S, A), fits[-2], fits[-1]))
        return estimate(layout, S, A, policy, *args)

    with monkeypatch.context() as patch:
        patch.setattr(primal_dual, "td_fit", recording_fit)
        patch.setattr(primal_dual, "truncated_pg_estimate", recording_estimate)
        state = train(cmdp, objectives, constraints, cfg, seed)
    return state, calls


def metrics(state):
    """What ``train`` reports, without the wall-clock fields."""
    return ([(r.t, r.objective, r.g_tilde, r.violation, r.mu)
             for r in state.history],
            [t.tobytes() for t in state.policy.theta])


# (env, kappa, horizon, TD steps): the TD rows outlast the sampling rows
# where there are more TD steps than the horizon, else the sampling rows
# outlast the TD rows; the last four cross the rollout's stacks of
# ``STACK_STEPS`` uniforms, ending inside a later stack and at its edge, in
# the line's stepped rollout and the side-2 grid's open-loop one
STACKED = [("line4", 1, 20, 30), ("line4", 2, 20, 30), ("wireless2", 1, 20, 30),
           ("line4", 1, 40, 10), ("line4", 1, 70, 150), ("line4", 1, 129, 63),
           ("wireless2", 1, 70, 150), ("wireless2", 1, 129, 63)]


@pytest.mark.parametrize("env,kappa,horizon,steps", STACKED)
def test_stacked_rollout_is_the_separate_calls(monkeypatch, env, kappa,
                                               horizon, steps):
    cmdp, objectives, constraints, cfg = train_setup(env, kappa, horizon, steps)
    seed = 5
    state, calls = recorded_train(monkeypatch, cmdp, objectives, constraints,
                                  cfg, seed)
    assert len(calls) == 2
    for t, (policy, batch, (r_f, q_f), (r_g, q_g)) in enumerate(calls):
        S, A = sample_batch(cmdp, policy, cfg.batch_size, horizon,
                            _rng(seed, 1, t))
        assert np.array_equal(batch[0], S)
        assert np.array_equal(batch[1], A)
        for purpose, rewards, tables in ((2, r_f, q_f), (3, r_g, q_g)):
            alone = td_tables(cmdp, policy, rewards, kappa, cfg.td,
                              _rng(seed, purpose, t))
            for q, q_alone in zip(tables, alone):
                assert np.array_equal(dense_table(q), dense_table(q_alone))

    # the uniforms that pad the shorter rows leave every kept output alone
    for pad in (0.0, 0.999):
        monkeypatch.setattr(sampling, "PAD_U", pad)
        padded_state, padded = recorded_train(monkeypatch, cmdp, objectives,
                                              constraints, cfg, seed)
        assert metrics(padded_state) == metrics(state)
        for (_, batch, (_, q_f), (_, q_g)), (_, b, (_, p_f), (_, p_g)) in zip(
                calls, padded):
            assert np.array_equal(batch[0], b[0])
            assert np.array_equal(batch[1], b[1])
            for q, p in zip([*q_f, *q_g], [*p_f, *p_g]):
                assert np.array_equal(dense_table(q), dense_table(p))


def test_one_simulator_per_run_and_one_rollout_per_iteration(monkeypatch):
    cmdp, objectives, constraints, cfg = train_setup("line4", 1, 20, 30)
    counts = {"build": 0, "rollout": 0}
    init, rollout = Simulator.__init__, Simulator.rollout

    def counted_init(self, *args):
        counts["build"] += 1
        init(self, *args)

    def counted_rollout(self, groups):
        counts["rollout"] += 1
        return rollout(self, groups)

    def counted_layout(self, *args):
        counts["cdf_layout"] += 1
        layout_init(self, *args)

    def counted_cdf(self, *args):
        counts["cdf"] += 1
        cdf_init(self, *args)

    counts["cdf_layout"], layout_init = 0, CdfLayout.__init__
    counts["cdf"], cdf_init = 0, InverseCdf.__init__
    monkeypatch.setattr(Simulator, "__init__", counted_init)
    monkeypatch.setattr(Simulator, "rollout", counted_rollout)
    monkeypatch.setattr(CdfLayout, "__init__", counted_layout)
    monkeypatch.setattr(InverseCdf, "__init__", counted_cdf)
    train(cmdp, objectives, constraints, cfg, seed=0)
    # the run's one simulator lays out its policy, kernel and initial-state
    # CDFs once and builds each once; each iteration builds its policy's CDF
    # once more, in the simulator's policy layout
    assert counts == {"build": 1, "rollout": 2, "cdf_layout": 3, "cdf": 5}


@pytest.mark.parametrize("env", ["line4", "grid3"])
def test_one_reward_call_per_agent_and_one_utility_pass_per_group(
        monkeypatch, env):
    # the side-3 grid's local (S_i, A_i) tables come in three shapes
    if env == "grid3":
        cmdp = wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.95))
        base = GeneralUtility(kind=ENTROPY, gamma=cmdp.gamma)
        objectives = [base] * cmdp.n_agents
        groups = 3
    else:
        cmdp, objectives, _, _ = train_setup(env, 1, 20, 30)
        groups = 1
    constraints = [as_constraint(GeneralUtility(kind=L2_ACTION,
                                                gamma=cmdp.gamma), 0.1)
                   ] * cmdp.n_agents
    cfg = TrainConfig(kappa=1, iterations=3, horizon=20, batch_size=3,
                      steps=StepSizes(eta_theta=0.05, eta_mu=10.0),
                      td=TDConfig(steps=30, h=20.0, k1=40.0))
    assert len(set(zip(cmdp.local_state_sizes,
                       cmdp.local_action_sizes))) == groups
    agents, passes = [], []
    values, evaluate = LocalReward.values, utilities.evaluate

    def counted_values(self, S, A):
        agents.append(self.agent)
        return values(self, S, A)

    def counted_evaluate(kind, gamma, reward, occ):
        passes.append(kind)
        return evaluate(kind, gamma, reward, occ)

    monkeypatch.setattr(LocalReward, "values", counted_values)
    monkeypatch.setattr(utilities, "evaluate", counted_evaluate)
    train(cmdp, objectives, constraints, cfg, seed=0)
    # per iteration: the env-reward objective reads each agent's reward
    # once, and each utility list takes one pass per shape group
    lists = [L2_ACTION] + ([] if objectives is None else [ENTROPY])
    assert sorted(agents) == ([] if objectives else sorted(
        list(range(cmdp.n_agents)) * cfg.iterations))
    assert sorted(passes) == sorted(lists * groups * cfg.iterations)


@pytest.mark.parametrize("env,widths", [("line4", 1), ("grid3", 3)])
def test_critics_read_stacked_and_policy_cdf_built_once(monkeypatch, env,
                                                        widths):
    cmdp = model(env)
    base = GeneralUtility(kind=ENTROPY, gamma=cmdp.gamma)
    constraints = [as_constraint(base, 0.25)] * cmdp.n_agents
    cfg = TrainConfig(kappa=1, iterations=2, horizon=20, batch_size=3,
                      steps=StepSizes(eta_theta=0.05, eta_mu=10.0),
                      td=TDConfig(steps=30, h=20.0, k1=40.0))
    assert len(set(cmdp.local_action_sizes)) == widths
    counts = dict.fromkeys(["q_read", "q_table", "softmax", "policy_cdf"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TruncatedQTable, "read",
                        counted("q_read", TruncatedQTable.read))
    monkeypatch.setattr(TruncatedQTable, "__init__",
                        counted("q_table", TruncatedQTable.__init__))
    monkeypatch.setattr(policy_module, "_softmax_rows",
                        counted("softmax", policy_module._softmax_rows))
    monkeypatch.setattr(InverseCdf, "__init__",
                        counted("policy_cdf", InverseCdf.__init__))
    train(cmdp, [base] * cmdp.n_agents, constraints, cfg, seed=0)
    # per iteration: no per-agent Q table is built or read, the policy's
    # probabilities take one softmax per action-space width, and its CDF is
    # built once; the run's simulator builds the initial policy's, the
    # kernel's and the initial states' CDFs once
    assert counts == {"q_read": 0, "q_table": 0,
                      "softmax": widths * cfg.iterations,
                      "policy_cdf": 3 + cfg.iterations}
