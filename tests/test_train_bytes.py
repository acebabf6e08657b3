"""Byte goldens of whole training runs.

Each golden is the SHA-256 of ``metrics.csv`` and ``policy.csv`` written by
``run_experiment`` on a small config at one seed. They were recorded from
the trainer whose per-agent loops the stacked array ops replaced, so any
change to the draw order, the float expression order of the occupancy,
TD or score sums, or the policy update shows up here.
"""

import pytest

from pdmarl.cli import run_experiment
from pdmarl.config import parse_config_dict

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
        "c3de2a2fc3d1e7e38519491eb3ca48731d314f319ad50bf8e8ba8bc5fd70e403",
        "fff8a393369df6fbdb0bb334201158623ffef2eb93a5db1ba231f2105ca9b288"),
    ("line6_k0", 3): (
        "68ba5daea44dfd4e2d69ba756bcdd858f7acdc825f34e5942f8dd0b5440acde0",
        "4a2311c6f8ace67c5de02dd88af845a856b5e367e4e307856401d17714c019bf"),
    ("line6_k1", 1): (
        "b6dd76e753024e98d289c8c78fe8d4344e4f45ec7ba1cbe0f30a56c82f7a7184",
        "c91ba8655bcf14900c0395446383e0f292608b937082360086c9431f397a3b69"),
    ("line6_k1", 3): (
        "742abcdc67e041aa6b89a13909496330713e4eec6f47a0becf62b1267d1f0b13",
        "eab70178d124b0645b3347cbcc04dbb840d83492aac06426143658022333955a"),
    ("line6_k2", 1): (
        "cd3719869b897d238098cd96513fff75b882b2c3b4d4147085b6a1807015c96d",
        "a08a0b230e2f9129d358af0a5233bcfdb58e26e27d9c37e1b997cd41f6665019"),
    ("line6_k2", 3): (
        "7a4086cd1a64bd4d799740a0945e7c6ad6fa10af19e2a0144a6c4f5adaa25365",
        "dcf515424387987aee7e2a828efb0fe822d2d90e105dddfc6b7b164bb69b4e9c"),
    ("line6_l2", 1): (
        "891b4e1664c10c6db7eb391d1eb06a174392b29e2c5f85def81e04b8a4d130c1",
        "23e4f5730867c9c7a6645ad34a0f6262b565512578cff5ac1f33a508b39033d2"),
    ("line6_l2", 3): (
        "9be7db8f58c926d6ce5087bc3a16e74bd824badc3fdb6fb8cc80ce354cec26cc",
        "ec53d6588edcd128970d649d0cf324e60623f51863dce01e8303e736c25508db"),
    ("grid2_env", 1): (
        "dffecd741b8b9e22510a5451afc9ac5fa3c56b57e0173b96b8a32d3397f87df3",
        "1ebb6db7fc04d265e987339642baade3742255e87734896b025aca072917f56d"),
    ("grid2_env", 3): (
        "a9da3b3b232cb5254559dafccc3c09791d3b09e4267719822e4e2f5c9a020d1c",
        "b652f81724f80192e9397c9a9877b1c9a2b077968454c9b795427cdda6e9dfac"),
    ("grid2_entropy", 1): (
        "fce2d89cbae96c66b828f1543340c373e59a0f09c8324d9185d8206ba91690e0",
        "bd4ba8a213525a700e9b840087067d8b97ab016ef5a0456685c8de778e8d7c9f"),
    ("grid2_entropy", 3): (
        "53cea2e13708887d04930bcbe372194b4f9f14dba8cd3dbdda732a27c43c7300",
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


def run_hashes(tmp_path, name, seed):
    cfg = parse_config_dict({**_COMMON, **CONFIGS[name], "seed": seed})
    manifest = run_experiment(cfg, tmp_path)
    return manifest["metrics_sha256"], manifest["policy_sha256"]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_run_bytes_match_golden(tmp_path, name, seed):
    assert run_hashes(tmp_path, name, seed) == GOLDEN[(name, seed)]
