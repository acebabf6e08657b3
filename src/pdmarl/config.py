"""Experiment configuration: a versioned YAML schema with strict key checking,
plus builders turning a parsed config into a model and trainer settings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml
from numpy.random import SeedSequence

from .model import FactoredCMDP
from .policy import table_shapes
from .envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                   wireless_grid)
from .utilities import GeneralUtility, ENTROPY, L2_ACTION, CONSTRAINT, OBJECTIVE
from .critic import TD_STEPS, TDConfig, default_td_config
from .layout import q_table_layouts
from .primal_dual import TrainConfig, StepSizes

SCHEMA_VERSION = 1

ENV_REWARD = "env_reward"


class ConfigError(ValueError):
    pass


_TOP_KEYS = {
    "schema_version": int,
    "env": dict,
    "gamma": float,
    "kappa": int,
    "iterations": int,
    "horizon": int,
    "batch_size": int,
    "eta_theta": float,
    "eta_mu": float,
    "eta_mu_schedule": str,
    "mu_bar": float,
    "theta_bar": float,
    "objective": dict,
    "constraint": dict,
    "td": dict,
    "seed": int,
    "oracle_every": int,
    "out": str,
}
_REQUIRED = {"schema_version", "env", "gamma", "kappa", "iterations",
             "horizon", "batch_size", "eta_theta", "eta_mu", "objective",
             "constraint", "seed"}
_DEFAULTS = {
    "eta_mu_schedule": StepSizes.schedule,
    "mu_bar": TrainConfig.mu_bar,
    "theta_bar": TrainConfig.theta_bar,
    "td": None,
    "oracle_every": TrainConfig.oracle_every,
    "out": None,
}

_ENV_KEYS = {
    "synthetic_line": {"n": int, "reward_head": float, "reward_rest": float},
    "wireless_grid": {"side": int, "deadline": int, "seed": int,
                      "p": list, "q": list},
}
_UTILITY_KEYS = {"kind": str, "threshold": float}
_TD_KEYS = {"steps": int, "h": float, "k1": float}


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _coerce(value, typ, key, where):
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if typ is list and isinstance(value, (list, tuple)):
        value = list(value)
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ConfigError(
            f"field {key!r} in {where} must be {typ.__name__}, "
            f"got {type(value).__name__}")
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"field {key!r} in {where} must be finite, "
                          f"got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict  # normalized mapping; the canonical serialized form

    def __getitem__(self, key):
        return self.raw[key]

    def replace(self, **updates) -> "ExperimentConfig":
        merged = dict(self.raw)
        for key, value in updates.items():
            merged[key] = value
        return parse_config_dict(merged)

    @property
    def seed(self):
        return self.raw["seed"]

    @property
    def out(self):
        return self.raw.get("out")


def parse_config_dict(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, _TOP_KEYS, "config root")
    missing = _REQUIRED - set(data)
    if missing:
        raise ConfigError(f"missing required fields: {sorted(missing)}")
    norm = {}
    for key, value in data.items():
        if value is None and key in _DEFAULTS:
            continue
        norm[key] = _coerce(value, _TOP_KEYS[key], key, "config root")
    for key, dflt in _DEFAULTS.items():
        if key not in norm and dflt is not None:
            norm[key] = dflt

    if norm["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {norm['schema_version']} is not supported "
            f"(expected {SCHEMA_VERSION})")
    if norm["seed"] < 0:
        raise ConfigError("seed must be nonnegative")

    env = dict(norm["env"])
    name = env.pop("name", None)
    if not isinstance(name, str) or name not in _ENV_KEYS:
        raise ConfigError(
            f"env.name must be one of {sorted(_ENV_KEYS)}, got {name!r}")
    _check_keys(env, _ENV_KEYS[name], f"env ({name})")
    for key, value in env.items():
        env[key] = _coerce(value, _ENV_KEYS[name][key], key, "env")
    if env.get("seed", 0) < 0:
        raise ConfigError("env.seed must be nonnegative")
    if name == "synthetic_line" and "n" not in env:
        raise ConfigError("env.n is required for synthetic_line")
    if name == "wireless_grid":
        for key in ("side", "deadline"):
            if key not in env:
                raise ConfigError(f"env.{key} is required for wireless_grid")
    norm["env"] = {"name": name, **env}

    for block_name in ("objective", "constraint"):
        block = dict(norm[block_name])
        _check_keys(block, _UTILITY_KEYS, block_name)
        kind = block.get("kind")
        allowed = ((ENV_REWARD, ENTROPY, L2_ACTION)
                   if block_name == "objective" else (ENTROPY, L2_ACTION))
        if kind not in allowed:
            raise ConfigError(
                f"{block_name}.kind must be one of {allowed}, got {kind!r}")
        if "threshold" in block:
            block["threshold"] = _coerce(block["threshold"], float,
                                         "threshold", block_name)
        if block_name == "constraint" and "threshold" not in block:
            raise ConfigError("constraint.threshold is required")
        if block_name == "objective" and "threshold" in block:
            raise ConfigError("objective must not carry a threshold")
        norm[block_name] = block

    if "td" in norm:
        td = dict(norm["td"])
        _check_keys(td, _TD_KEYS, "td")
        for key, value in td.items():
            td[key] = _coerce(value, _TD_KEYS[key], key, "td")
        if ("h" in td) != ("k1" in td):
            raise ConfigError("td.h and td.k1 must be given together")
        norm["td"] = td

    # build_env and build_train_config make these again; here a bad value
    # fails as a ConfigError, before any output exists. The env spec checks
    # gamma, TrainConfig and StepSizes the trainer's settings.
    for prefix, build in (("invalid env: ", _env_spec),
                          ("invalid td: ", _td_config), ("", _train_config)):
        try:
            build(norm)
        except ValueError as exc:
            raise ConfigError(f"{prefix}{exc}") from exc
    return ExperimentConfig(raw=norm)


def _env_spec(norm):
    """The SyntheticLineSpec or WirelessGridSpec of a normalized config."""
    fields = {k: v for k, v in norm["env"].items() if k != "name"}
    if norm["env"]["name"] == "synthetic_line":
        return SyntheticLineSpec(gamma=norm["gamma"], **fields)
    for key in ("p", "q"):
        if key in fields:
            fields[key] = tuple(fields[key])
    return WirelessGridSpec(gamma=norm["gamma"], **fields)


def _td_config(norm):
    """The TDConfig of a normalized config; without a td block, the one
    ``default_td_config`` derives from gamma."""
    td = norm.get("td", {})
    steps = td.get("steps", TD_STEPS)
    if "h" in td:
        return TDConfig(steps=steps, h=td["h"], k1=td["k1"])
    return default_td_config(norm["gamma"], steps=steps)


def parse_config(text: str) -> ExperimentConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return parse_config_dict(data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    return parse_config(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.raw, sort_keys=True, default_flow_style=False)


def build_env(cfg: ExperimentConfig) -> FactoredCMDP:
    spec = _env_spec(cfg.raw)
    if isinstance(spec, SyntheticLineSpec):
        return synthetic_line(spec)
    return wireless_grid(spec)


def check_table_sizes(cfg: ExperimentConfig, cmdp: FactoredCMDP):
    """Reject a kappa whose policy tables, or the truncated-Q cells one TD
    fit stores, on this env exceed their caps."""
    kappa = cfg["kappa"]
    steps = _td_config(cfg.raw).steps
    try:
        table_shapes(cmdp.graph, cmdp.local_state_sizes,
                     cmdp.local_action_sizes, kappa)
    except ValueError as exc:
        raise ConfigError(f"kappa {kappa} is too large: {exc}") from exc
    try:
        q_table_layouts(cmdp, kappa, steps)
    except ValueError as exc:
        raise ConfigError(f"kappa {kappa} with {steps} TD steps is too "
                          f"large: {exc}") from exc


def build_utilities(cfg: ExperimentConfig, cmdp: FactoredCMDP):
    """Per-agent objective list (None for env reward) and constraint list."""
    n = cmdp.n_agents
    obj = cfg["objective"]
    if obj["kind"] == ENV_REWARD:
        objectives = None
    else:
        objectives = [GeneralUtility(kind=obj["kind"], role=OBJECTIVE,
                                     gamma=cmdp.gamma) for _ in range(n)]
    con = cfg["constraint"]
    constraints = [GeneralUtility(kind=con["kind"], role=CONSTRAINT,
                                  threshold=con["threshold"],
                                  gamma=cmdp.gamma) for _ in range(n)]
    return objectives, constraints


def _train_config(norm):
    """The TrainConfig of a normalized config."""
    return TrainConfig(
        kappa=norm["kappa"], iterations=norm["iterations"],
        horizon=norm["horizon"], batch_size=norm["batch_size"],
        steps=StepSizes(eta_theta=norm["eta_theta"], eta_mu=norm["eta_mu"],
                        schedule=norm["eta_mu_schedule"]),
        mu_bar=norm["mu_bar"], theta_bar=norm["theta_bar"],
        td=_td_config(norm), oracle_every=norm["oracle_every"])


def build_train_config(cfg: ExperimentConfig) -> TrainConfig:
    return _train_config(cfg.raw)


def derived_seed(base_seed: int, index: int) -> int:
    """Stable per-run seed for sweeps, split from the base seed."""
    ss = SeedSequence(entropy=base_seed, spawn_key=(4, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
