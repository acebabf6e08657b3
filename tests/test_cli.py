import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdmarl
from pdmarl import policy, primal_dual
from pdmarl.config import (ConfigError, build_env, build_train_config,
                           build_utilities, derived_seed, load_config,
                           parse_config, parse_config_dict, serialize_config)
from pdmarl.cli import (final_quarter_means, main, run_experiment, run_sweep)
from pdmarl.policy import load_policy
from pdmarl.primal_dual import IterationRecord
from pdmarl.utilities import CONSTRAINT, ENTROPY

from helpers import oracle_rows, oracle_values_close


BASE_YAML = """\
schema_version: 1
env:
  name: synthetic_line
  n: 3
gamma: 0.9
kappa: 1
iterations: 8
horizon: 30
batch_size: 3
eta_theta: 0.05
eta_mu: 10.0
objective:
  kind: env_reward
constraint:
  kind: entropy
  threshold: 0.25
td:
  steps: 100
seed: 7
"""


def base_cfg(**updates):
    cfg = parse_config(BASE_YAML)
    return cfg.replace(**updates) if updates else cfg


def run_cli(args, check=False, **env):
    """``pdmarl`` with ``args`` in a fresh interpreter, on this package."""
    src = str(Path(pdmarl.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pdmarl.cli"] + args,
                          env=env, check=check, capture_output=True, text=True)


class TestConfigParsing:
    def test_round_trip_is_stable(self):
        cfg = base_cfg()
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again.raw == cfg.raw
        assert serialize_config(again) == text

    def test_defaults_filled_in(self):
        cfg = base_cfg()
        assert cfg["eta_mu_schedule"] == "constant"
        assert cfg["mu_bar"] == 100.0
        assert cfg["theta_bar"] == 50.0
        assert cfg["oracle_every"] == 0

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(BASE_YAML + "learning_rate: 0.1\n")

    def test_unknown_env_key_named_in_error(self):
        bad = BASE_YAML.replace("  n: 3", "  n: 3\n  width: 4")
        with pytest.raises(ConfigError, match="width"):
            parse_config(bad)

    def test_missing_field_reported(self):
        bad = BASE_YAML.replace("seed: 7\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(bad)

    def test_schema_version_mismatch(self):
        bad = BASE_YAML.replace("schema_version: 1", "schema_version: 2")
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(bad)

    def test_type_errors_rejected(self):
        bad = BASE_YAML.replace("kappa: 1", "kappa: one")
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(bad)
        bad = BASE_YAML.replace("gamma: 0.9", "gamma: true")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(bad)

    def test_constraint_threshold_required(self):
        bad = BASE_YAML.replace("  threshold: 0.25\n", "")
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(bad)

    def test_objective_threshold_forbidden(self):
        bad = BASE_YAML.replace("objective:\n  kind: env_reward",
                                "objective:\n  kind: env_reward\n"
                                "  threshold: 0.1")
        with pytest.raises(ConfigError, match="objective"):
            parse_config(bad)

    def test_bad_enum_values(self):
        with pytest.raises(ConfigError, match="env.name"):
            parse_config(BASE_YAML.replace("name: synthetic_line",
                                           "name: gridworld"))
        with pytest.raises(ConfigError, match="constraint.kind"):
            parse_config(BASE_YAML.replace("kind: entropy", "kind: linear"))
        with pytest.raises(ConfigError, match="eta_mu_schedule"):
            parse_config(BASE_YAML + "eta_mu_schedule: exponential\n")

    def test_td_h_and_k1_must_pair(self):
        bad = BASE_YAML.replace("td:\n  steps: 100", "td:\n  steps: 100\n  h: 5.0")
        with pytest.raises(ConfigError, match="k1"):
            parse_config(bad)

    def test_gamma_range_checked(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(BASE_YAML.replace("gamma: 0.9", "gamma: 1.0"))

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            parse_config_dict([1, 2])


class TestBuilders:
    def test_build_env_synthetic(self):
        m = build_env(base_cfg())
        assert m.n_agents == 3
        assert m.gamma == 0.9

    def test_build_env_wireless(self):
        cfg = base_cfg(env={"name": "wireless_grid", "side": 2,
                            "deadline": 1, "seed": 3})
        m = build_env(cfg)
        assert m.n_agents == 4
        assert m.local_state_sizes == (2,) * 4

    def test_build_utilities_env_reward(self):
        cfg = base_cfg()
        m = build_env(cfg)
        objectives, constraints = build_utilities(cfg, m)
        assert objectives is None
        assert len(constraints) == 3
        for c in constraints:
            assert c.kind == ENTROPY and c.role == CONSTRAINT
            assert c.threshold == 0.25 and c.gamma == 0.9

    def test_build_train_config(self):
        tc = build_train_config(base_cfg())
        assert tc.kappa == 1 and tc.iterations == 8
        assert tc.steps.eta_theta == 0.05 and tc.steps.eta_mu == 10.0
        assert tc.td.steps == 100

    def test_explicit_td_schedule(self):
        cfg = base_cfg(td={"steps": 50, "h": 4.0, "k1": 8.0})
        tc = build_train_config(cfg)
        assert (tc.td.steps, tc.td.h, tc.td.k1) == (50, 4.0, 8.0)

    def test_derived_seeds_distinct_and_stable(self):
        seeds = [derived_seed(7, i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert seeds == [derived_seed(7, i) for i in range(5)]
        assert derived_seed(8, 0) != seeds[0]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunArtifacts:
    def test_artifacts_written(self, tmp_path):
        cfg = base_cfg()
        manifest = run_experiment(cfg, tmp_path / "run")
        out = tmp_path / "run"
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 1 + 8
        assert rows[0] == (["t", "objective", "g_0", "g_1", "g_2",
                            "violation", "mu_0", "mu_1", "mu_2",
                            "X", "Y", "E"])
        timings = read_csv(out / "timings.csv")
        assert timings[0] == ["t", "elapsed_ms", "sample_ms", "occupancy_ms",
                              "td_f_ms", "td_g_ms", "grad_ms", "oracle_ms"]
        assert len(timings) == 9
        for row in timings[1:]:
            elapsed, *phases = map(float, row[1:])
            assert min(phases) >= 0.0 and sum(phases) <= elapsed
        pol = load_policy(out / "policy.csv")
        assert pol.kappa == 1
        with open(out / "manifest.json") as fh:
            on_disk = json.load(fh)
        assert on_disk == manifest
        assert manifest["iterations_completed"] == 8
        assert manifest["oracle"] == "off"
        assert manifest["status"] == "ok"
        assert load_config(out / "config.yaml").raw == cfg.raw

    @pytest.mark.parametrize("n, status", [
        (11, "skipped: |S| = 2048 exceeds the enumeration cap 1024"),
        (10, "every 1"),
        (4, "every 1"),
    ])
    def test_manifest_says_why_oracle_columns_are_blank(self, tmp_path, n,
                                                        status):
        cfg = base_cfg(iterations=1, oracle_every=1,
                       env={"name": "synthetic_line", "n": n})
        assert run_experiment(cfg, tmp_path)["oracle"] == status
        assert json.loads((tmp_path / "manifest.json").read_text())[
            "oracle"] == status

    def test_oracle_fires_on_the_ten_agent_line(self, tmp_path):
        # the headline line: 1024 states, 1048576 pairs
        cfg = base_cfg(iterations=1, oracle_every=1, gamma=0.99,
                       env={"name": "synthetic_line", "n": 10})
        manifest = run_experiment(cfg, tmp_path)
        assert manifest["oracle"] == "every 1"
        row = read_csv(tmp_path / "metrics.csv")[1]
        X, Y, E = map(float, row[-3:])
        assert np.isfinite([X, Y, E]).all()
        assert E == pytest.approx(X * X + Y * Y)
        [timing] = read_csv(tmp_path / "timings.csv")[1:]
        assert float(timing[-1]) < 1000.0  # oracle_ms of the one firing

    def test_oracle_status_on_the_side_three_grid(self, tmp_path):
        # 512 states, 3317760 pairs: within both caps
        cfg = base_cfg(iterations=0, oracle_every=5,
                       env={"name": "wireless_grid", "side": 3,
                            "deadline": 1})
        assert run_experiment(cfg, tmp_path)["oracle"] == "every 5"

    def test_zero_iterations_header_only(self, tmp_path):
        manifest = run_experiment(base_cfg(iterations=0), tmp_path)
        assert read_csv(tmp_path / "metrics.csv") == [
            ["t", "objective", "g_0", "g_1", "g_2", "violation",
             "mu_0", "mu_1", "mu_2", "X", "Y", "E"]]
        assert manifest["iterations_completed"] == 0
        assert np.isnan(manifest["final_return"])

    def test_metrics_byte_identical_across_reruns(self, tmp_path):
        cfg = base_cfg()
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a["metrics_sha256"] == b["metrics_sha256"]
        assert a["policy_sha256"] == b["policy_sha256"]

    def test_oracle_columns_populated_on_schedule(self, tmp_path):
        run_experiment(base_cfg(iterations=4, oracle_every=2,
                                env={"name": "synthetic_line", "n": 2}),
                       tmp_path)
        rows = read_csv(tmp_path / "metrics.csv")
        x_col = rows[0].index("X")
        assert rows[1][x_col] != "" and rows[3][x_col] != ""
        assert rows[2][x_col] == "" and rows[4][x_col] == ""

    def test_final_quarter_means(self):
        hist = [IterationRecord(t=t, objective=float(t), g_tilde=(0.0,),
                                violation=float(t) / 10, mu=(0.0,))
                for t in range(8)]
        ret, vio = final_quarter_means(hist)
        assert ret == pytest.approx(6.5)
        assert vio == pytest.approx(0.65)


class TestSweep:
    def test_kappa_sweep_layout(self, tmp_path):
        cfg = base_cfg(iterations=3)
        manifests = run_sweep(cfg, "kappa", ["0", "1", "2"], tmp_path)
        assert len(manifests) == 3
        for v in ("0", "1", "2"):
            assert (tmp_path / f"kappa_{v}" / "metrics.csv").exists()
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0] == ["kappa", "seed", "final_return", "final_violation"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        seeds = {m["seed"] for m in manifests}
        assert len(seeds) == 3

    def test_threshold_sweep_patches_constraint(self, tmp_path):
        cfg = base_cfg(iterations=2)
        run_sweep(cfg, "threshold", ["0.1", "0.4"], tmp_path)
        sub = load_config(tmp_path / "threshold_0.4" / "config.yaml")
        assert sub["constraint"]["threshold"] == 0.4

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = base_cfg(iterations=3)
        run_sweep(cfg, "kappa", ["0", "1"], tmp_path / "serial")
        run_sweep(cfg, "kappa", ["0", "1"], tmp_path / "parallel",
                  parallel=True)
        for name in ("summary.csv", "kappa_0/metrics.csv",
                     "kappa_1/metrics.csv"):
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "parallel" / name).read_bytes())

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(base_cfg(), "kappa", [], tmp_path)

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(base_cfg(), "gamma", ["0.5"], tmp_path)


class TestMainEntryPoint:
    def write_config(self, tmp_path, text=BASE_YAML):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, BASE_YAML.replace("iterations: 8", "iterations: 2"))
        code = main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "completed 2 iterations" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, BASE_YAML.replace("schema_version: 1",
                                        "schema_version: 9"))
        assert main(["run", "--config", cfg_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_policy_table_over_cap_exit_one(self, tmp_path, capsys):
        # kappa 1 on the side-3 grid gives agent 4 a 4^9-row policy table
        cfg_path = self.write_config(tmp_path, BASE_YAML.replace(
            "  name: synthetic_line\n  n: 3",
            "  name: wireless_grid\n  side: 3\n  deadline: 2"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error")
        for part in ("agent 4", "1310720 entries", "cap of 1000000"):
            assert part in err
        assert not out.exists()

    @pytest.mark.parametrize("edits, reason", [
        ({"td:\n  steps: 100": "td:\n  steps: 0"}, "steps >= 1"),
        ({"td:\n  steps: 100": "td:\n  h: -1.0\n  k1: 1.0"}, "h > 0"),
        ({"  n: 3": "  n: 1"}, "at least 2 agents"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 1\n  deadline: 1"}, "side >= 2"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 2\n  deadline: 1\n  p: [0.5]"},
         "p must have 4 entries"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 2\n  deadline: 1\n"
          "  p: [0.5, 0.5, 0.5, x]"},
         "p entries must be numbers in (0, 1)"),
        # kappa 1 on the side-4 grid gives agent 5 2^9 x 101250 cells, of
        # which a TD fit of 10^7 steps could visit 10^7 + 1
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 4\n  deadline: 1",
          "td:\n  steps: 100": "td:\n  steps: 10000000"},
         "kappa 1 with 10000000 TD steps is too large: truncated Q table of "
         "agent 5 would store up to 10000001 cells, above the cap of "
         "10000000"),
        ({"seed: 7": "seed: -1"}, "seed must be nonnegative"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 2\n  deadline: 1\n  seed: -1"},
         "env.seed must be nonnegative"),
        ({"threshold: 0.25": "threshold: .nan"},
         "field 'threshold' in constraint must be finite, got nan"),
        ({"threshold: 0.25": "threshold: .inf"},
         "field 'threshold' in constraint must be finite, got inf"),
        ({"eta_mu: 10.0": "eta_mu: .nan"}, "'eta_mu' in config root must be "
         "finite"),
        ({"eta_theta: 0.05": "eta_theta: .nan"}, "'eta_theta' in config root "
         "must be finite"),
        ({"eta_theta: 0.05": "eta_theta: .inf"}, "'eta_theta' in config root "
         "must be finite, got inf"),
        ({"seed: 7": "seed: 7\nmu_bar: .nan"}, "'mu_bar' in config root must "
         "be finite"),
        ({"seed: 7": "seed: 7\ntheta_bar: .nan"}, "'theta_bar' in config root "
         "must be finite"),
        ({"td:\n  steps: 100": "td:\n  h: .nan\n  k1: 40.0"},
         "field 'h' in td must be finite, got nan"),
        ({"td:\n  steps: 100": "td:\n  h: .inf\n  k1: 40.0"},
         "field 'h' in td must be finite, got inf"),
        ({"gamma: 0.9": "gamma: 1.0"}, "gamma must be in [0, 1), got 1.0"),
        ({"kappa: 1": "kappa: -1"}, "kappa must be nonnegative"),
        ({"seed: 7": "seed: 7\noracle_every: -1"},
         "oracle_every must be nonnegative"),
        ({"iterations: 8": "iterations: -1"}, "iterations must be nonnegative"),
        ({"horizon: 30": "horizon: 0"}, "horizon must be positive"),
        ({"batch_size: 3": "batch_size: 0"}, "batch_size must be positive"),
        ({"eta_theta: 0.05": "eta_theta: 0.0"}, "eta_theta must be positive"),
        ({"eta_mu: 10.0": "eta_mu: -1.0"}, "eta_mu must be nonnegative"),
        ({"seed: 7": "seed: 7\nmu_bar: 0.0"}, "mu_bar must be positive"),
        ({"seed: 7": "seed: 7\ntheta_bar: -1.0"}, "theta_bar must be positive"),
        ({"seed: 7": "seed: 7\neta_mu_schedule: x"},
         "eta_mu_schedule must be 'constant' or 't_one_third', got 'x'"),
        ({"name: synthetic_line": "name: [1]"},
         "env.name must be one of ['synthetic_line', 'wireless_grid'], "
         "got [1]"),
        ({"name: synthetic_line": "name: {}"},
         "env.name must be one of ['synthetic_line', 'wireless_grid'], "
         "got {}"),
        # a user's kernel reads its 2^deadline queues times its actions
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 2\n  deadline: 18"},
         "env.deadline 18 gives kernels of 524288 dependency cells, above "
         "the cap of 200000"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 2\n  deadline: 107"},
         "env.deadline 107 gives kernels of " + str(2 ** 108)
         + " dependency cells"),
        # the agent count is checked before the graph or any O(n^2) array
        # is built: these once failed with a MemoryError or a traceback
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 100000\n  deadline: 1"},
         "env.side 100000 gives 10000000000 users, above the cap of 1000 "
         "agents"),
        ({"  name: synthetic_line\n  n: 3":
          "  name: wireless_grid\n  side: 10000000000\n  deadline: 1"},
         "env.side 10000000000 gives 100000000000000000000 users"),
        ({"  n: 3": "  n: 100000000000"},
         "env.n 100000000000 is above the cap of 1000 agents"),
    ], ids=["td_steps_0", "td_h_negative", "line_n_1", "grid_side_1",
            "grid_p_short", "grid_p_not_number", "grid_q_table_over_cap",
            "seed_negative", "env_seed_negative", "threshold_nan",
            "threshold_inf", "eta_mu_nan", "eta_theta_nan", "eta_theta_inf",
            "mu_bar_nan", "theta_bar_nan", "td_h_nan", "td_h_inf",
            "gamma_one", "kappa_negative", "oracle_every_negative",
            "iterations_negative", "horizon_0", "batch_size_0", "eta_theta_0",
            "eta_mu_negative", "mu_bar_0", "theta_bar_negative",
            "eta_mu_schedule_unknown", "env_name_list", "env_name_mapping",
            "grid_deadline_18", "grid_deadline_107", "grid_side_100000",
            "grid_side_1e10", "line_n_1e11"])
    def test_bad_env_or_td_exit_one(self, tmp_path, capsys, edits, reason):
        text = BASE_YAML
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg_path = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, reason", [
        ("kappa", "1.5", "sweep axis kappa cannot take the value '1.5'"),
        ("kappa", "abc", "sweep axis kappa cannot take the value 'abc'"),
        ("kappa", "nan", "sweep axis kappa cannot take the value 'nan'"),
        ("kappa", "0,-1", "kappa must be nonnegative"),
        ("eta_mu", "abc", "sweep axis eta_mu cannot take the value 'abc'"),
        ("eta_mu", "nan", "'eta_mu' in config root must be finite"),
        ("kappa", "0,0", "sweep value '0' repeats: two runs would share "
         "kappa_0/"),
    ], ids=["kappa_float", "kappa_word", "kappa_nan", "kappa_negative",
            "eta_mu_word", "eta_mu_nan", "kappa_repeated"])
    def test_bad_sweep_value_exit_one(self, tmp_path, capsys, axis, values,
                                      reason):
        out = tmp_path / "out"
        assert main(["sweep", "--config", self.write_config(tmp_path),
                     "--axis", axis, "--values", values,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("case", ["config_is_dir", "out_is_file",
                                      "out_under_file"])
    def test_os_error_on_config_or_out_is_config_error(self, tmp_path,
                                                       command, case):
        cfg_path = self.write_config(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("")
        config, out, reason = {
            "config_is_dir": (str(tmp_path), tmp_path / "out",
                              f"cannot read config {tmp_path}: "
                              f"{os.strerror(errno.EISDIR)}"),
            "out_is_file": (cfg_path, afile,
                            f"cannot create output directory {afile}: "
                            f"{os.strerror(errno.EEXIST)}"),
            "out_under_file": (cfg_path, afile / "x",
                               f"cannot create output directory {afile}/x: "
                               f"{os.strerror(errno.ENOTDIR)}"),
        }[case]
        axis = ["--axis", "kappa", "--values", "0"] if command == "sweep" else []
        proc = run_cli([command, "--config", config, "--out", str(out)] + axis)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"config error: {reason}"]

    def test_sweep_value_too_large_for_env_exit_one(self, tmp_path, capsys):
        # kappa 0 runs on the side-3, deadline-2 grid; kappa 1 exceeds the
        # policy-table cap, and no run of the sweep may start before that
        cfg_path = self.write_config(tmp_path, BASE_YAML.replace(
            "  name: synthetic_line\n  n: 3",
            "  name: wireless_grid\n  side: 3\n  deadline: 2").replace(
            "iterations: 8", "iterations: 1").replace("horizon: 30",
                                                      "horizon: 2"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--axis", "kappa",
                     "--values", "0,1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: kappa 1 is too large")
        assert not out.exists()

    def test_stacked_q_ids_beyond_int64_exit_one(self, tmp_path, capsys,
                                                 monkeypatch):
        # the 32-agent line at kappa 15: agents 15 and 16 have 2^62 Q cells
        # each, so each table's ids fit int64 and the stacked ids do not. The
        # policy-table cap rejects this config first (2^31-row tables), and
        # every config it admits stacks far below int64; lifted here so that
        # the stacked-id rule is what fails
        monkeypatch.setattr(policy, "MAX_TABLE_ENTRIES", 2**40)

        def no_training(*args):
            raise AssertionError("the 32-agent config reached train")
        monkeypatch.setattr(pdmarl.cli, "train", no_training)
        cfg_path = self.write_config(tmp_path, BASE_YAML.replace(
            "  n: 3", "  n: 32").replace("kappa: 1", "kappa: 15"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: kappa 15 with 100 TD steps is "
                              "too large: the truncated Q tables of all 32 "
                              "agents have ")
        assert "stacked ids do not fit in int64" in err
        assert not out.exists()

    def test_numeric_abort_writes_partial_artifacts(self, tmp_path, capsys,
                                                    monkeypatch):
        cfg_path = self.write_config(tmp_path)
        assert main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "full")]) == 0
        # a NaN policy gradient at iteration 3 of 8
        estimate = primal_dual.truncated_pg_estimate

        def nan_at_three(*args):
            grads = estimate(*args)
            if len(calls) == 3:
                grads[0] = np.full_like(grads[0], np.nan)
            calls.append(1)
            return grads

        calls = []
        monkeypatch.setattr(primal_dual, "truncated_pg_estimate", nan_at_three)
        out = tmp_path / "aborted"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert "numeric abort: NaN in policy gradient at iteration 3" in \
            capsys.readouterr().err
        # the completed iterations, as in the full run
        full_rows = read_csv(tmp_path / "full" / "metrics.csv")
        assert read_csv(out / "metrics.csv") == full_rows[:1 + 3]
        assert len(read_csv(out / "timings.csv")) == 1 + 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "numeric_abort"
        assert manifest["abort_iteration"] == 3
        assert manifest["iterations_completed"] == 3
        assert manifest["abort_reason"] == \
            "NaN in policy gradient at iteration 3"
        assert load_policy(out / "policy.csv").kappa == 1
        full = json.loads((tmp_path / "full" / "manifest.json").read_text())
        assert full["status"] == "ok" and "abort_iteration" not in full

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, BASE_YAML.replace("iterations: 8", "iterations: 1"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seed", "99",
                     "--out", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["seed"] == 99

    def test_sweep_exit_zero(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, BASE_YAML.replace("iterations: 8", "iterations: 1"))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--axis", "eta_mu",
                     "--values", "0,10", "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert "summary" in capsys.readouterr().out

    def test_verify_exit_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out


# SHA-256 of (metrics.csv, policy.csv) for wireless_grid side 2 with the env
# reward as the objective, recorded when the rewards were dense tables; the
# oracle case's metrics were re-recorded when the exact solve took product
# form, when its solves moved from scipy to numpy and when the exact
# gradient moved to state space, and its X, Y, E match the dense solve's
# values before all three.
WIRELESS_ENV_REWARD_SHA = {
    "deadline2": (
        "a80a246c2dd7cbd224af4bf250b06339d9a192e540d165bda209883bd2f7db55",
        "010447df9c09f7366d0ad0c5fcc4804ce32aa295971b199bb870551e26d0b249"),
    "deadline1_oracle2": (
        "80e459f363cd2055fe5a1358d29fe97498c2242d16ff4800d654258fb8c0017c",
        "3c4408a252f8dfeb52f435b1fc69704e74c234615524978d3dff52e359e8e170"),
}
WIRELESS_ENV_REWARD_XYE = {
    "deadline2": (),
    "deadline1_oracle2": (
        (0, 0.12388043747093958, 0.0, 0.01534636278799137),
        (2, 0.12390806999990797, 0.0, 0.015353209811102093)),
}


class TestWirelessEnvReward:
    def grid_yaml(self, env, extra=""):
        return BASE_YAML.replace(
            "  name: synthetic_line\n  n: 3",
            "  name: wireless_grid\n" + env).replace(
            "iterations: 8", "iterations: 4" + extra)

    @pytest.mark.parametrize("case, env, extra", [
        ("deadline2", "  side: 2\n  deadline: 2", ""),
        ("deadline1_oracle2", "  side: 2\n  deadline: 1",
         "\noracle_every: 2"),
    ])
    def test_side2_bytes(self, tmp_path, case, env, extra):
        manifest = run_experiment(parse_config(self.grid_yaml(env, extra)),
                                  tmp_path)
        assert ((manifest["metrics_sha256"], manifest["policy_sha256"])
                == WIRELESS_ENV_REWARD_SHA[case])
        assert oracle_values_close(oracle_rows(tmp_path / "metrics.csv"),
                                   WIRELESS_ENV_REWARD_XYE[case])

    @pytest.mark.parametrize("env, kappa", [
        ("  side: 3\n  deadline: 1", 1), ("  side: 4\n  deadline: 2", 0),
        ("  side: 4\n  deadline: 1", 1),
    ], ids=["side3_deadline1_kappa1", "side4_deadline2_kappa0",
            "side4_deadline1_kappa1"])
    def test_larger_grids_run(self, tmp_path, env, kappa):
        path = tmp_path / "config.yaml"
        path.write_text(self.grid_yaml(env).replace(
            "iterations: 4", "iterations: 2").replace(
            "kappa: 1", f"kappa: {kappa}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 3
        assert all(np.isfinite(float(row[1])) for row in rows[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"


class TestBlasThreads:
    def test_metrics_identical_with_one_and_two_blas_threads(self, tmp_path):
        # the exact-oracle columns X, Y, E are filled on every iteration
        (tmp_path / "config.yaml").write_text(BASE_YAML.replace(
            "n: 3", "n: 4").replace("iterations: 8", "iterations: 2\n"
                                     "oracle_every: 1"))
        metrics = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            run_cli(["run", "--config", str(tmp_path / "config.yaml"),
                     "--out", str(out)], OPENBLAS_NUM_THREADS=threads,
                    check=True)
            metrics.append((out / "metrics.csv").read_bytes())
        assert read_csv(tmp_path / "threads_1" / "metrics.csv")[1][-1] != ""
        assert metrics[0] == metrics[1]
