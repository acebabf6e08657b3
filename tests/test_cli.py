import csv
import json

import numpy as np
import pytest

from pdmarl.config import (ConfigError, build_env, build_train_config,
                           build_utilities, derived_seed, load_config,
                           parse_config, parse_config_dict, serialize_config)
from pdmarl.cli import (final_quarter_means, main, run_experiment, run_sweep)
from pdmarl.policy import load_policy
from pdmarl.primal_dual import IterationRecord
from pdmarl.utilities import CONSTRAINT, ENTROPY


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
        assert load_config(out / "config.yaml").raw == cfg.raw

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
