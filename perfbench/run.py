"""Training-throughput benchmark of the pdmarl trainer.

Each invocation runs one workload for ``--seconds``: it starts one fresh
process after another (``child.py``), each timing the set-up and then one
``pdmarl.cli.run_experiment`` call on the workload's config dict, and checks
every run's artifacts with the correctness gate. With ``--trace 1`` every
other run is traced and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload line10_k1 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --record-reference    # rewrite reference.json

Run it from the repository root; it reads the sources under ``src/`` and
writes only under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
from tracing import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On a 2-vCPU shared VM a second BLAS thread did not speed up the 1024-wide
# oracle solves (0.84 iterations/s with two, 0.85 with one) but widened the
# spread over ten invocations from 0.07 to 0.17: a parallel solve waits for
# whichever vCPU the neighbours slow down.
BLAS_THREADS = 1
MIN_RUNS = 2  # the gate compares every run with the first
RUN_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg():
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def machine_facts():
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
    }


class Invocation:
    """The runs of one workload at one seed, one process at a time."""

    def __init__(self, name, seed, work_dir, reference=None):
        self.config = workload_config(name, seed)
        # the stored fingerprint applies at the default seed only
        self.reference = reference if seed == DEFAULT_SEED else None
        self.work = Path(work_dir)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.env = {**os.environ, **{v: str(BLAS_THREADS) for v in BLAS_VARS}}
        self.runs = []

    def run_once(self, traced):
        k = len(self.runs)
        run_dir = self.work / f"run{k}"
        result_path = self.work / f"run{k}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.config_path),
               str(run_dir), str(result_path)] + (["--trace"] if traced else [])
        record = {"traced": traced}
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            record["error"] = f"timed out after {RUN_TIMEOUT_S} s"
        else:
            if proc.returncode != 0:
                tail = (proc.stderr.strip().splitlines() or [""])[-1]
                record["error"] = f"exit code {proc.returncode}: {tail}"
            else:
                record.update(json.loads(result_path.read_text()))
                self._check(record, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        self.runs.append(record)
        if "error" in record:
            print(f"run {k} failed: {record['error']}", file=sys.stderr)
        return record

    def _check(self, record, run_dir):
        try:
            fp = gate.fingerprint(run_dir, self.config)
            record["iter_ms"] = gate.iteration_ms(run_dir, record["wall_s"])
        except (gate.GateError, ValueError, OSError) as exc:
            record["error"] = f"gate: {exc}"
            return
        firsts = [r["fingerprint"] for r in self.runs if "fingerprint" in r]
        if firsts:
            diff = gate.differences(firsts[0], fp)
            if diff:
                record["error"] = f"gate: differs from the first run: {diff[:3]}"
                return
        if self.reference is not None:
            diff = gate.differences(self.reference, fp)
            if diff:
                record["error"] = f"gate: differs from reference: {diff[:3]}"
                return
        record["fingerprint"] = fp


def iters_per_s(runs):
    """Throughput over the whole window: every run's iterations over the
    wall time of every run_experiment call. Load on a shared machine comes
    in episodes of seconds; a total averages over them where a median of
    runs would jump between them."""
    return (sum(r["iterations"] for r in runs)
            / sum(r["wall_s"] for r in runs))


def end_to_end(ok):
    iter_ms = [ms for r in ok for ms in r["iter_ms"]]
    setup = [r["setup_s"] for r in ok]
    metrics = {
        "iters_per_s": (iters_per_s(ok), "1/s", f"over {len(ok)} runs"),
        "iter_ms.p50": (statistics.median(iter_ms), "ms", f"n={len(iter_ms)} iterations"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "peak_rss_mb": (statistics.median([r["peak_rss_kb"] / 1024 for r in ok]),
                        "MB",
                        f"median of {len(ok)} runs"),
    }
    # printed, not gated: the slow workloads cannot give 100 samples in a run
    p90 = (statistics.quantiles(iter_ms, n=10)[-1]
           if len(iter_ms) >= P90_MIN_SAMPLES else None)
    return metrics, p90, len(iter_ms)


def run_workload(name, seed, seconds, trace):
    """Run one workload; print its report and return the result object, or
    None when no run succeeded."""
    facts = machine_facts()
    facts["loadavg_start"] = loadavg()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        reference = json.loads(REFERENCE.read_text()).get(name)
        inv = Invocation(name, seed, work, reference)
        started = time.perf_counter()
        while (len(inv.runs) < MIN_RUNS
               or time.perf_counter() - started < seconds):
            inv.run_once(traced=bool(trace) and len(inv.runs) % 2 == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = loadavg()
    runs = inv.runs
    ok = [r for r in runs if "error" not in r]
    facts["blas_threads"] = ok[0]["blas_threads"] if ok else None
    failed = len(runs) - len(ok)

    print(f"perfbench {name} seed={seed} trace={trace}: "
          f"{len(runs)} runs, {failed} failed")
    print("machine " + json.dumps(facts, sort_keys=True))
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    absent = []
    if not trace and untraced:
        metrics, p90, n_iter = end_to_end(untraced)
        shown = dict(metrics)
        shown["iter_ms.p90"] = ((p90, "ms", f"n={n_iter} iterations")
                                if p90 is not None else
                                ("n/a", "", f"n={n_iter} < {P90_MIN_SAMPLES}"))
    elif trace and untraced and traced:
        ips = [iters_per_s(group) for group in (untraced, traced)]
        metrics = {key: (value, unit, "")
                   for key, (value, unit) in layer_metrics(traced, *ips).items()}
        shown = metrics
        absent = sorted({a for r in traced for a in r["absent"]})
    else:
        print("no successful run to measure", file=sys.stderr)
        return None
    for key, (value, unit, note) in shown.items():
        print(f"  {key:<45} {value!s:>22} {unit:<12} {note}")
    print(f"  {'error_rate':<45} {failed / len(runs)!s:>22} "
          f"{'':<12} {failed} of {len(runs)} runs failed")
    if absent:
        print("absent: " + ", ".join(absent))

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _note) in metrics.items()},
    }
    report = {"workload": name, "seed": seed, "trace": trace,
              "machine": facts, "absent": absent, "result": result,
              "runs": [{k: v for k, v in r.items() if k != "spans"}
                       for r in runs]}
    if trace:
        report["spans"] = [r["spans"] for r in traced]
    (OUT / f"BENCH_{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(report))
    return result


def record_reference():
    """Store the default-seed fingerprints of every workload."""
    refs = {}
    for name in WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        try:
            inv = Invocation(name, DEFAULT_SEED, work)
            record = inv.run_once(traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if "fingerprint" not in record:
            return 1
        refs[name] = record["fingerprint"]
    REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(refs[name], sort_keys=True)}"
        for name in sorted(refs)) + "\n}\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # raising on SIGTERM lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "pdmarl" / "__init__.py").is_file():
        print(f"perfbench: no pdmarl sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
