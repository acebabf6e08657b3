"""Byte goldens of whole training runs.

Each golden is the SHA-256 of ``metrics.csv`` and ``policy.csv`` written by
``run_experiment`` on a small config at one seed. They were recorded from
the trainer whose per-agent loops the stacked array ops replaced, so any
change to the draw order, the float expression order of the occupancy,
TD or score sums, or the policy update shows up here. The exact-oracle
columns X, Y and E of the configs with ``oracle_every`` were re-recorded
when the exact solve took product form, when its LAPACK solves moved from
scipy to numpy, and when the exact gradient moved from global
state-action pairs to state space; ``PARENT_XYE`` holds their values from
the dense solve before all three, which the new ones match to the relative
tolerance 1e-9 (absolute 1e-12) of the benchmark's gate.
"""

import importlib.util
from pathlib import Path

import pytest
import yaml

from pdmarl import config
from pdmarl.cli import run_experiment
from pdmarl.config import parse_config_dict, serialize_config

from helpers import oracle_rows, oracle_values_close

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

_COMMON = {
    "schema_version": 1,
    "gamma": 0.99,
    "horizon": 125,
    "batch_size": 5,
    "eta_theta": 0.05,
    "eta_mu": 10.0,
    "constraint": {"kind": "entropy", "threshold": 0.25},
    "objective": {"kind": "env_reward"},
}
_LINE6 = {"name": "synthetic_line", "n": 6}
_GRID2 = {"name": "wireless_grid", "side": 2, "deadline": 1}

CONFIGS = {
    "line6_k0": {"env": _LINE6, "kappa": 0, "iterations": 5,
                 "oracle_every": 3},
    "line6_k1": {"env": _LINE6, "kappa": 1, "iterations": 5,
                 "oracle_every": 3},
    "line6_k2": {"env": _LINE6, "kappa": 2, "iterations": 5,
                 "oracle_every": 3},
    "line6_l2": {"env": _LINE6, "kappa": 1, "iterations": 5,
                 "oracle_every": 3, "eta_mu_schedule": "t_one_third",
                 "objective": {"kind": "l2_action"},
                 "constraint": {"kind": "l2_action", "threshold": 0.1}},
    "grid2_env": {"env": _GRID2, "kappa": 1, "iterations": 4,
                  "oracle_every": 2},
    "grid2_entropy": {"env": _GRID2, "kappa": 1, "iterations": 4,
                      "oracle_every": 2, "objective": {"kind": "entropy"},
                      "constraint": {"kind": "l2_action", "threshold": 0.1}},
    "grid2_d2_k0": {"env": {**_GRID2, "deadline": 2}, "kappa": 0,
                    "iterations": 4, "objective": {"kind": "entropy"},
                    "td": {"steps": 200}},
    "grid3_env": {"env": {**_GRID2, "side": 3}, "kappa": 1, "iterations": 3},
    # the largest documented config that runs: its kernels, like every
    # deadline-1 grid's, read neither state nor action (an open-loop rollout)
    "grid4_env": {"env": {**_GRID2, "side": 4}, "kappa": 1, "iterations": 3},
    # kernels of more than 2 next states draw with one bit count of a
    # padded comparison row: 7 thresholds fit one word, 15 take two
    "grid2_d3_k1": {"env": {**_GRID2, "deadline": 3}, "kappa": 1,
                    "iterations": 2, "horizon": 20, "batch_size": 2,
                    "td": {"steps": 50}},
    "grid2_d4_k0": {"env": {**_GRID2, "deadline": 4}, "kappa": 0,
                    "iterations": 2, "horizon": 20, "batch_size": 2,
                    "td": {"steps": 50}},
}

# (config, seed) -> (metrics.csv SHA-256, policy.csv SHA-256)
GOLDEN = {
    ("line6_k0", 1): (
        "eb6aa1e5491045f414eb5438d392915471b6a0766dbe5d512a84749b219d05ae",
        "fff8a393369df6fbdb0bb334201158623ffef2eb93a5db1ba231f2105ca9b288"),
    ("line6_k0", 3): (
        "ee26669c6611534c381f2412513cfe46fb4c4e7755e9e3a23785f59cb8c5e782",
        "4a2311c6f8ace67c5de02dd88af845a856b5e367e4e307856401d17714c019bf"),
    ("line6_k1", 1): (
        "97e1f9311f84ffc22b99c782b8ce9e4f22e161815bbc91c0cf014f1543a03657",
        "c91ba8655bcf14900c0395446383e0f292608b937082360086c9431f397a3b69"),
    ("line6_k1", 3): (
        "43425a0b4f2e50fbfa7e05bc0b5a12ecdf80102e756468876711752aa0262313",
        "eab70178d124b0645b3347cbcc04dbb840d83492aac06426143658022333955a"),
    ("line6_k2", 1): (
        "79f846ea006f42b8c69777a3b71e6fb554422ad6dd52d98bfc8a214d833ea1cb",
        "a08a0b230e2f9129d358af0a5233bcfdb58e26e27d9c37e1b997cd41f6665019"),
    ("line6_k2", 3): (
        "9c22448ce849d1b74ceac9afe5eb9d9189a28fb7be36a18c286fe39c6dab09cf",
        "dcf515424387987aee7e2a828efb0fe822d2d90e105dddfc6b7b164bb69b4e9c"),
    ("line6_l2", 1): (
        "c92ec218fa238a8d0937f368cee19f7126a12df8d382cfa9119200b4286a2a66",
        "23e4f5730867c9c7a6645ad34a0f6262b565512578cff5ac1f33a508b39033d2"),
    ("line6_l2", 3): (
        "8d5046977ce80636a7adeabba70437f89f1d8d66e49b9c66bc89e239490af81a",
        "ec53d6588edcd128970d649d0cf324e60623f51863dce01e8303e736c25508db"),
    ("grid2_env", 1): (
        "e678a3b802aebd19daa1379d3f6d6f255aa4822e423caf1b129945e909c1a49d",
        "1ebb6db7fc04d265e987339642baade3742255e87734896b025aca072917f56d"),
    ("grid2_env", 3): (
        "f21e2376c0b2234f72d970531c264d12d5b3b3086eb5e5d22cc3f62256a25257",
        "b652f81724f80192e9397c9a9877b1c9a2b077968454c9b795427cdda6e9dfac"),
    ("grid2_entropy", 1): (
        "a61bf8acccb164f0172fbdbe12647b18e009f03c0c4fd0ca64eb98013a9285bf",
        "bd4ba8a213525a700e9b840087067d8b97ab016ef5a0456685c8de778e8d7c9f"),
    ("grid2_entropy", 3): (
        "fda336f991cb8f01c488c00756485397774c3002dd8a1f6a6539ed1bc98d98ef",
        "a4aca9a89ebe7212b306487bebbc5211d6b485ed7c110e7c49dc22d8256502fb"),
    ("grid2_d2_k0", 1): (
        "10eac986f1ef98d37b030e9b4b643e36427962fd05c0fac8e99d25e76f5322a3",
        "4d286a133f6389a6dfc67f4e9abcc9c7ebf349a35440d9c245c3698f86751177"),
    ("grid2_d2_k0", 3): (
        "d66ddb332973423b1ba5bfe9b4eb287eb9d06be4ae0bee4d5ab233b23e3f6478",
        "a78a977a293349378e34627df617ae1fa3eff5112d382b868a533cb425a79ede"),
    ("grid3_env", 1): (
        "d40ea0b4d177e0caae9f8e82003c5684a4586df2d91e2c96c6a4e56934892df1",
        "520c0ff5eb543a9455db02eb57ac6393ee8dc8d684606957b230939f14eeeefd"),
    ("grid3_env", 3): (
        "8b232cad53d6d19047593c6891b8db96329d0cdbdf34cb844638592863b76ce0",
        "490b7176a87b6512e5b5489e44869706fed9d385c0b18a7b9a45bec94374a18b"),
    ("grid4_env", 0): (
        "3999407cf4121243714baa9b9bd5bd21ac88ebe74476c969525b480e0101952b",
        "59f13f5ab4e0928d41bb8530e9b63c2baef623c9a1262cd1a30b41abcabec584"),
    ("grid4_env", 3): (
        "36eacb4b859d1c1ded1efc37438fe5fab81d08ae972fe858d7b1eee661f2cf9c",
        "548034eb0440371ad1c3fe4c0d9fb681a56cd7bfef1b20340650f3c080d0fae6"),
    ("grid2_d3_k1", 1): (
        "1b659e2190bef1ac340d38ccecd77bb1cb6288cae1fc6fb3ff0a9460a815eb2b",
        "38da01b074a3c7ce7b18838332f3af628f0b07270dad3940d71c97e03f0d7b2d"),
    ("grid2_d3_k1", 3): (
        "794794099ec3a62572f3a3f794ae37360d67532cadfe4c4f701f3b7f2cf727a3",
        "e0bb30225b23bf1219e447ba0b1f99792ac5462bc56cf3c7607958a8edcaeea9"),
    ("grid2_d4_k0", 1): (
        "8c4c1a3dbc3eef1969ac5fc29fe64792080fb49fb29085fe4bbac5d30f87e868",
        "d97101dbddda03c04997dcbd0dd31cbbdb2c0a5a2044021423a2aba740855197"),
    ("grid2_d4_k0", 3): (
        "a51db335d6464fc8cef300e0a2e8b86644d5822c7b0bc2b26f3ba86e0a757d83",
        "cda3fec05b9eeefb1e1fed00ea8a27d1ba9c3d4168ead86138502b0519881508"),
}

# (config, seed) -> (t, X, Y, E) of every oracle row, as the dense exact
# solve over the (S, A, S') kernel with one Q column per shadow reward
# wrote them before the solve took product form
PARENT_XYE = {
    ("grid2_entropy", 1): (
        (0, 2.6614977616853733e-15, 0.0, 7.083570335456252e-30),
        (2, 2.3639539603456755e-15, 0.0, 5.5882783266340036e-30),
    ),
    ("grid2_entropy", 3): (
        (0, 3.258651153678998e-15, 0.0, 1.0618807341373465e-29),
        (2, 2.577086886433002e-15, 0.0, 6.641376820224946e-30),
    ),
    ("grid2_env", 1): (
        (0, 1.358022357609157, 0.0, 1.8442247237663332),
        (2, 1.354033823814357, 0.0, 1.8334075960333291),
    ),
    ("grid2_env", 3): (
        (0, 1.349839571063574, 0.0, 1.8220668676090934),
        (2, 1.3353581127815366, 0.0, 1.783181289371467),
    ),
    ("line6_k0", 1): (
        (0, 4.188228725720186, 0.0, 17.541259858947733),
        (3, 4.1402553518100085, 0.0, 17.141714378191416),
    ),
    ("line6_k0", 3): (
        (0, 4.392243455215781, 0.0, 19.291802569885864),
        (3, 4.3404810618972745, 0.0, 18.83977584868889),
    ),
    ("line6_k1", 1): (
        (0, 2.1595187857246754, 0.0, 4.663521385897776),
        (3, 2.04117807938937, 0.0, 4.166407951779678),
    ),
    ("line6_k1", 3): (
        (0, 2.031865735894187, 0.0, 4.128478368700827),
        (3, 2.033679370905709, 0.0, 4.135851783647441),
    ),
    ("line6_k2", 1): (
        (0, 1.4518717158695793, 0.0, 2.1079314793420765),
        (3, 1.4325769486097095, 0.0, 2.052276713687906),
    ),
    ("line6_k2", 3): (
        (0, 1.4885210648996394, 0.0, 2.2156949606499565),
        (3, 1.476029854584957, 0.0, 2.1786641316260895),
    ),
    ("line6_l2", 1): (
        (0, 0.0021913555140159646, 0.0, 4.802038988808172e-06),
        (3, 0.0022081468700121815, 0.0, 4.875912599544594e-06),
    ),
    ("line6_l2", 3): (
        (0, 0.001357695596492738, 0.0, 1.8433373327357715e-06),
        (3, 0.0013636663914557185, 0.0, 1.8595860271858608e-06),
    ),
}


# (benchmark workload, seed) -> (metrics.csv SHA-256, policy.csv SHA-256)
# of the configs of ``perfbench/workloads.py``, so that the benchmark's
# three workloads keep their bytes at seeds 0 and 3. ``line5_oracle`` has 5
# agents, whose X, Y and E do not depend on the BLAS thread count; its
# metrics.csv hashes were re-recorded when the exact gradient moved to
# state space.
WORKLOAD_GOLDEN = {
    ("line10_k1", 0): (
        "b6f4d671a0fac73233b78158b417a5c137e4082ef8c65ad20590a91df43bacbd",
        "befde6e3b8c74036782ee67e4935f6944f855cffd93c5e0aff79587e19d3366d"),
    ("line10_k1", 3): (
        "b50a3528a934165cce9427759916bc6592b013d51ed0a96173cd819403c14bb8",
        "b4669e26879c813281a8d362e456335ce18b0e559f9763aa8cfba2e4c64aed6e"),
    ("line5_oracle", 0): (
        "95daac98380e822aa3ca2090010b15c408aba32a7d253933348929dc0aa3bcee",
        "da3364535e2e087de5684e023a67a8b0200d9095197f53a9ad26113637fe77fb"),
    ("line5_oracle", 3): (
        "9b28f5559b19a3c3bcdf6ca34c7fd3112c6ef9588e51fe14d3018556d6bb7fb1",
        "784dca6f0e1ed78a448728f7fe3375911f24f754b9b81fdfbf53f96af83cde52"),
    ("wireless3", 0): (
        "893c606a01b1f2d370961561cfde9e9044afe1294dbbb80a836e6b7744518ef7",
        "50c458bdcd814b5dfc2f107153a27f9dab1ddc34ea2ad7eb5078b686c6c8eebf"),
    ("wireless3", 3): (
        "367c7a330c224b5d4522d7a265a3675318ca78751bd13f9654d5fa2c1c85de0d",
        "eb47dcbc84d5d02596c5ee9e1862fb375bc5db3186aeea5c5f5524392d269521"),
}


def hashes(tmp_path, raw):
    manifest = run_experiment(parse_config_dict(raw), tmp_path)
    return manifest["metrics_sha256"], manifest["policy_sha256"]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_run_bytes_match_golden(tmp_path, name, seed):
    raw = {**_COMMON, **CONFIGS[name], "seed": seed}
    assert hashes(tmp_path, raw) == GOLDEN[(name, seed)]
    assert oracle_values_close(oracle_rows(tmp_path / "metrics.csv"),
                               PARENT_XYE.get((name, seed), ()))


@pytest.mark.parametrize("name,seed", sorted(WORKLOAD_GOLDEN))
def test_workload_bytes_match_golden(tmp_path, name, seed):
    raw = workloads.workload_config(name, seed)
    assert hashes(tmp_path, raw) == WORKLOAD_GOLDEN[(name, seed)]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(workloads.WORKLOADS))
def test_config_yaml_same_with_either_dumper(monkeypatch, name):
    raw = ({**_COMMON, **CONFIGS[name], "seed": 1} if name in CONFIGS
           else workloads.workload_config(name, 1))
    cfg = parse_config_dict(raw)
    texts = []
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(config, "YAML_DUMPER", dumper)
        texts.append(serialize_config(cfg).encode())
    assert texts[0] == texts[1]
