"""Correctness gate behind the benchmark's failure count.

A run passes when its `metrics.csv` and `policy.csv` satisfy the trainer's
invariants, match every other run of the same invocation, and, at the
default seed, match the stored reference. The exact-oracle columns X, Y and
E are compared with a relative tolerance, because faster exact solvers may
move them by rounding; every other byte must match.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

ORACLE_COLUMNS = ("X", "Y", "E")  # the last three columns of metrics.csv
ORACLE_RTOL = 1e-9
ORACLE_ATOL = 1e-12


class GateError(Exception):
    """A run's artifacts break an invariant of the trainer."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split_oracle(metrics: bytes):
    """(metrics bytes with the oracle cells blanked, oracle values by row).

    Blank oracle cells read as None."""
    masked, oracle = [], []
    for k, line in enumerate(metrics.splitlines(keepends=True)):
        body = line.rstrip(b"\r\n")
        head, *tail = body.rsplit(b",", len(ORACLE_COLUMNS))
        if len(tail) != len(ORACLE_COLUMNS):
            raise GateError(f"metrics.csv line {k + 1} is too short")
        if k == 0:
            if tail != [c.encode() for c in ORACLE_COLUMNS]:
                raise GateError("metrics.csv does not end with X,Y,E columns")
            masked.append(line)
            continue
        masked.append(head + b"," * len(tail) + line[len(body):])
        oracle.append([float(v) if v else None for v in tail])
    return b"".join(masked), oracle


def _check_metrics(metrics: bytes, iterations: int, mu_bar: float):
    rows = list(csv.reader(io.StringIO(metrics.decode())))
    header, body = rows[0], rows[1:]
    if len(body) != iterations:
        raise GateError(f"metrics.csv has {len(body)} rows, "
                        f"expected {iterations}")
    mu_cols = [k for k, name in enumerate(header) if name.startswith("mu_")]
    for row in body:
        for name, cell in zip(header, row):
            if cell and not math.isfinite(float(cell)):
                raise GateError(f"non-finite {name} at t={row[0]}")
        for k in mu_cols:
            if not 0.0 <= float(row[k]) <= mu_bar:
                raise GateError(f"{header[k]}={row[k]} outside [0, {mu_bar}] "
                                f"at t={row[0]}")


def _check_policy(path: Path, theta_bar: float):
    from pdmarl.policy import load_policy, save_policy

    policy = load_policy(path)
    copy = path.with_name(path.name + ".roundtrip")
    save_policy(policy, copy)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    if not same:
        raise GateError("policy.csv does not round-trip through load_policy")
    worst = max(float(abs(t).max()) for t in policy.theta)
    if worst > theta_bar:
        raise GateError(f"|theta| = {worst} exceeds theta_bar = {theta_bar}")


def fingerprint(out_dir, config: dict) -> dict:
    """Check one run's artifacts against the invariants and return what
    later runs and the reference are compared on."""
    out = Path(out_dir)
    metrics = (out / "metrics.csv").read_bytes()
    masked, oracle = _split_oracle(metrics)
    _check_metrics(metrics, config["iterations"], config.get("mu_bar", 100.0))
    _check_policy(out / "policy.csv", config.get("theta_bar", 50.0))
    return {"metrics_masked_sha256": _sha256(masked), "oracle": oracle,
            "policy_sha256": _sha256((out / "policy.csv").read_bytes())}


def differences(a: dict, b: dict) -> list:
    """What differs between two fingerprints; empty when they agree."""
    found = [key for key in ("metrics_masked_sha256", "policy_sha256")
             if a[key] != b[key]]
    if len(a["oracle"]) != len(b["oracle"]):
        return found + ["oracle row count"]
    for t, (row_a, row_b) in enumerate(zip(a["oracle"], b["oracle"])):
        for name, x, y in zip(ORACLE_COLUMNS, row_a, row_b):
            if (x is None) != (y is None) or (x is not None and not math.isclose(
                    x, y, rel_tol=ORACLE_RTOL, abs_tol=ORACLE_ATOL)):
                found.append(f"oracle {name} at t={t}: {x!r} vs {y!r}")
    return found


def iteration_ms(out_dir, train_wall_s: float) -> list:
    """Per-iteration times from timings.csv; their sum may not exceed the
    wall time measured around the run from outside."""
    with open(Path(out_dir) / "timings.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ms = [float(row[1]) for row in rows]
    if sum(ms) > train_wall_s * 1e3:
        raise GateError(f"timings.csv sums to {sum(ms):.3f} ms, more than "
                        f"the {train_wall_s * 1e3:.3f} ms measured outside")
    return ms
