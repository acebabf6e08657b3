"""Tests of the benchmark's own logic: the correctness gate, span self-time
arithmetic, absent names, and seed-determined workload configs."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

TINY = {
    "schema_version": 1, "env": {"name": "synthetic_line", "n": 2},
    "gamma": 0.9, "kappa": 1, "iterations": 3, "horizon": 10,
    "batch_size": 2, "eta_theta": 0.05, "eta_mu": 10.0,
    "objective": {"kind": "env_reward"},
    "constraint": {"kind": "entropy", "threshold": 0.25},
    "td": {"steps": 20}, "oracle_every": 1, "seed": 3,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    from pdmarl.cli import run_experiment
    from pdmarl.config import parse_config_dict

    out = tmp_path_factory.mktemp("run")
    run_experiment(parse_config_dict(TINY), out)
    return out


def _edited_copy(run_dir, tmp_path, column=None, edit=None):
    """Copy of the run whose first metrics row has ``edit`` applied to the
    cell of ``column``."""
    copy = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
    shutil.copytree(run_dir, copy)
    path = copy / "metrics.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    if column is not None:
        k = lines[0].rstrip(b"\r\n").split(b",").index(column)
        body = lines[1].rstrip(b"\r\n")
        cells = body.split(b",")
        cells[k] = edit(cells[k])
        lines[1] = b",".join(cells) + lines[1][len(body):]
    path.write_bytes(b"".join(lines))
    return copy


def _flip_last_digit(cell):
    k = max(i for i, c in enumerate(cell) if chr(c).isdigit())
    return cell[:k] + (b"2" if cell[k:k + 1] == b"1" else b"1") + cell[k + 1:]


def test_gate_accepts_identical_runs(run_dir, tmp_path):
    fp = gate.fingerprint(run_dir, TINY)
    assert all(x is not None for row in fp["oracle"] for x in row)
    again = gate.fingerprint(_edited_copy(run_dir, tmp_path), TINY)
    assert gate.differences(fp, again) == []


def test_gate_rejects_one_changed_byte(run_dir, tmp_path):
    fp = gate.fingerprint(run_dir, TINY)
    edited = _edited_copy(run_dir, tmp_path, b"objective", _flip_last_digit)
    assert gate.differences(fp, gate.fingerprint(edited, TINY)) == \
        ["metrics_masked_sha256"]


def test_gate_compares_oracle_columns_with_tolerance(run_dir, tmp_path):
    fp = gate.fingerprint(run_dir, TINY)
    for factor, differs in ((1 + 1e-12, False), (1 + 1e-6, True)):
        edited = _edited_copy(run_dir, tmp_path, b"X",
                              lambda x: repr(float(x) * factor).encode())
        found = gate.differences(fp, gate.fingerprint(edited, TINY))
        assert bool(found) == differs
        assert all(f.startswith("oracle X at t=0") for f in found)


def test_gate_rejects_broken_invariants(run_dir, tmp_path):
    with pytest.raises(gate.GateError, match="rows"):
        gate.fingerprint(run_dir, dict(TINY, iterations=4))
    for column, value, match in ((b"mu_1", b"-1.0", "outside"),
                                 (b"g_0", b"nan", "non-finite")):
        broken = _edited_copy(run_dir, tmp_path, column, lambda _: value)
        with pytest.raises(gate.GateError, match=match):
            gate.fingerprint(broken, TINY)
    with pytest.raises(gate.GateError, match="theta_bar"):
        gate.fingerprint(run_dir, dict(TINY, theta_bar=1e-300))
    with pytest.raises(gate.GateError, match="measured outside"):
        gate.iteration_ms(run_dir, train_wall_s=1e-9)


def test_self_time_subtracts_union_of_children():
    spans = [
        [0, "parent", 0.0, 10.0, None],
        [1, "a", 1.0, 3.0, 0],
        [2, "b", 2.0, 4.0, 0],    # overlaps a: [1, 4] is covered once
        [3, "c", 8.0, 12.0, 0],   # runs past the parent: only [8, 10] counts
        [4, "d", 1.5, 2.5, 1],    # a grandchild is a's child, not the parent's
    ]
    own = tracing.self_times(spans)
    assert own == {0: 5.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 1.0}


def test_layer_shares_use_self_time():
    trace = {
        "iterations": 2, "bytes_written": 100,
        "counters": {"sampling.agent_steps": 50.0},
        "spans": [
            [0, "primal_dual.train", 0.0, 10.0, None],
            [1, "sampling.sample_trajectories", 0.0, 4.0, 0],
            [2, "critic.td_evaluate", 4.0, 9.0, 0],
            [3, "trace.count", 8.0, 8.5, 2],
        ],
    }
    m = tracing.layer_metrics([trace], untraced_ips=1.2, traced_ips=1.0)
    assert m["share.sampling_td_pct"][0] == pytest.approx(85.0)
    assert m["primal_dual.train.self_ms"][0] == pytest.approx(500.0)
    assert m["sampling.ns_per_agent_step"][0] == pytest.approx(4e9 / 50)
    assert m["critic.td_evaluate.calls"] == (0.5, "calls/iter")
    assert m["model.global_transition_matrix.calls"][0] == 0.0
    assert m["trace.overhead_pct"][0] == pytest.approx(20.0)


def test_missing_names_are_absent_and_present_ones_restored():
    import pdmarl.graph

    original = pdmarl.graph.khop_neighborhood
    tracer = tracing.Tracer()
    tracer.wrap("pdmarl.graph", "no_such_function", "gone")
    tracer.wrap("pdmarl.no_such_module", "fn", "gone")
    tracer.wrap("pdmarl.graph", "khop_neighborhood", "graph.khop",
                count=lambda counters, *_: counters["bad"] + None)
    try:
        graph = pdmarl.graph.line_graph(3)
        assert pdmarl.graph.khop_neighborhood(graph, 0, 1) == (0, 1)
    finally:
        tracer.restore()
    assert pdmarl.graph.khop_neighborhood is original
    assert tracer.absent == ["pdmarl.graph.no_such_function",
                             "pdmarl.no_such_module.fn",
                             "counter of graph.khop"]
    names = [s[1] for s in tracer.spans]
    assert names == ["graph.khop", "trace.count"]
    assert tracer.spans[1][4] is None and tracer.spans[1][3] is not None


def test_same_seed_gives_same_workload_configs():
    for name in WORKLOADS:
        assert workload_config(name, 7) == workload_config(name, 7)
        a, b = workload_config(name, 7), workload_config(name, 8)
        assert a["seed"] == 7 and b["seed"] == 8
        assert {k: v for k, v in a.items() if k != "seed"} == \
            {k: v for k, v in b.items() if k != "seed"}
    with pytest.raises(KeyError):
        workload_config("no_such_workload", 0)
