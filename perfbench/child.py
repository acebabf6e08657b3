"""One benchmark run in a fresh process.

Times the set-up from config dict to trainable model, then calls
``pdmarl.cli.run_experiment`` once on the workload's config dict, as
``pdmarl run`` does, and writes what it measured as JSON.

    python3 perfbench/child.py CONFIG_JSON OUT_DIR RESULT_JSON [--trace]
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def blas_threads():
    """Threads of each OpenBLAS loaded in this process, by library file."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def main(argv) -> int:
    config_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import pdmarl.cli
    from pdmarl.config import (build_env, build_train_config, build_utilities,
                               parse_config_dict)
    from tracing import Tracer

    data = json.loads(Path(config_path).read_text())
    # once per fresh process, as a user pays it; the parent takes the median
    started = time.perf_counter()
    cfg = parse_config_dict(data)
    cmdp = build_env(cfg)
    build_utilities(cfg, cmdp)
    build_train_config(cfg)
    setup_s = time.perf_counter() - started
    del cfg, cmdp

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    manifest = pdmarl.cli.run_experiment(parse_config_dict(data), out_dir)
    wall_s = time.perf_counter() - started

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "iterations": manifest["iterations_completed"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bytes_written": sum(p.stat().st_size
                             for p in Path(out_dir).iterdir()),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counters=dict(tracer.counters),
                      absent=tracer.absent)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
