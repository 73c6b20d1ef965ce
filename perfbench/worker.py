"""One fresh interpreter of the benchmark.

    python3 perfbench/worker.py setup WORKLOAD WORKDIR
    python3 perfbench/worker.py run WORKLOAD WORKDIR SEED SECONDS TRACE

Both modes first time ``import gausslab.cli`` and the cold constructions the
workload's configurations need (set-up).  ``setup`` stops there; ``run``
then measures operations and prints one JSON object on stdout.  With TRACE
1 the time is split: the first half runs without wrappers, the second half
with span recording, and the per-layer metrics come from the second half.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def machine(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
    }


def main(argv: list[str]) -> int:
    mode, name, workdir = argv[0], argv[1], Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))

    start = perf_counter()
    import gausslab.cli  # noqa: F401  (timed: every CLI process pays for it)
    import_s = perf_counter() - start

    import spans
    import workloads

    seed = int(argv[3]) if mode == "run" else 0
    workload = workloads.BUILDERS[name](workdir, seed)
    trace = mode == "run" and argv[5] == "1"
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.op = spans.SETUP_OP
    start = perf_counter()
    workload.warm()
    setup_s = import_s + perf_counter() - start
    if tracer:
        tracer.op = None
        tracer.uninstall()
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = float(argv[4])
    workload.write_inputs(workdir)
    runner = workloads.Runner(workdir)
    ops = workloads.schedule(workload, seed)
    result = {"import_s": import_s, "setup_s": setup_s, "machine": machine(seed)}
    if not tracer:
        outcomes = workloads.measure(runner, ops, seconds)
    else:
        outcomes = workloads.measure(runner, ops, seconds / 2)
        tracer.install()
        runner.tracer = tracer
        outcomes += workloads.measure(runner, ops, seconds / 2)
        runner.tracer = None
        tracer.uninstall()
        traced = [o for o in outcomes if o.traced]
        rejected = sum(o.leakage.get("rejected", 0) for o in traced)
        result["layers"] = spans.layer_metrics(tracer.spans, len(traced), rejected)
        families: dict[str, set[int]] = {}
        for op, outcome in enumerate(outcomes):  # operation ids count from 0
            if outcome.traced:
                families.setdefault(outcome.family, set()).add(op)
        result["families"] = {family: spans.family_summary(tracer.spans, ops)
                              for family, ops in families.items()}
        trace_dir = workdir.parent / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{name}-seed{seed}.jsonl")
    result["outcomes"] = [asdict(o) for o in outcomes]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
