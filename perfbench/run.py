"""gausslab benchmark: closed-loop CLI verdicts, end-to-end and per layer.

    python3 perfbench/run.py --workload fockspace --seed 1 --seconds 50 --trace 0

Run from the repository root.  One fresh worker interpreter measures the
workload; with ``--trace 0`` two more fresh interpreters repeat the set-up
so ``setup_s`` is a median of three.  The last stdout line is the result
object; the line before it holds the machine block and the run's details.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fockspace", "phasespace")
SETUP_REPEATS = 3
# Time left for the workers beyond the measured seconds: set-up, the last
# operation and, with --trace 0, two more set-up interpreters (about 12 s).
DEADLINE_MARGIN_S = 110.0
# Single-threaded BLAS: with the default two threads on two cores, medians of
# identical runs spread by up to 38%; one thread is as fast and steady.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

# Largest self time each family's traced operations should show (layer
# name prefix).
PREDICTED_LARGEST = {"majorize": "fock.apply.1mode", "wehrl": "husimi.values.",
                     "berezinlieb": "husimi.values.mixed"}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten values
    beyond it; the median (percentile 50) when that would fall below it."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def failed_ratio(outcomes: list[dict]) -> float:
    return sum(bool(o["misses"]) for o in outcomes) / len(outcomes)


def predictions(families: dict) -> list[str]:
    """Lines stating whether the trace matches the benchmark's predictions."""
    lines = []
    for family, expected in PREDICTED_LARGEST.items():
        if family not in families:
            continue
        largest = families[family]["largest_self_time"]
        holds = largest.startswith(expected)
        lines.append(f"largest self time of {family} operations is {largest}, predicted "
                     f"{expected}*: {'holds' if holds else 'does not hold'}")
    if "wehrl" in families:
        calls = families["wehrl"]["fock_apply_calls"]
        lines.append(f"fock.apply calls in wehrl operations: {calls}, predicted 0: "
                     f"{'holds' if calls == 0 else 'does not hold'}")
    return lines


def _worker(args: list[str], deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env={**os.environ, **BLAS_ENV},
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    outcomes = result["outcomes"]
    seconds = [o["seconds"] for o in outcomes]
    value, percentile = tail(seconds)
    verified = sum(o["inputs"] for o in outcomes if not o["misses"])
    metrics = {
        "verdict_s.p50": (statistics.median(seconds), "s"),
        "verdict_s.tail": (value, "s"),
        "inputs_per_s": (verified / sum(seconds), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {"tail_percentile": percentile, "operations": len(outcomes),
               "setup_runs_s": setups}
    return metrics, details


def per_layer(result: dict) -> tuple[dict, dict]:
    outcomes = result["outcomes"]
    traced = [o for o in outcomes if o["traced"]]
    untraced = [o for o in outcomes if not o["traced"]]
    layers = result["layers"]
    lines = predictions(result["families"])
    units = {"calls": "count/op", "self_s": "s/op", "node_evals": "count/op",
             "accept_ratio": "ratio"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "s"))
               for name, value in layers.items()}
    metrics["setup.import_s"] = (result["import_s"], "s")
    metrics["majorization.leakage_max"] = (
        max((o["leakage"].get("max", 0.0) for o in traced), default=0.0), "prob")
    metrics["husimi.tail_mass_max"] = (
        max((o["leakage"].get("max_tail_mass", 0.0) for o in traced), default=0.0), "prob")
    metrics["trace.overhead_s"] = (
        statistics.median(o["seconds"] for o in traced)
        - statistics.median(o["seconds"] for o in untraced), "s")
    metrics["trace.predictions_missed"] = (
        sum("does not hold" in line for line in lines), "count")
    metrics["failed_ratio"] = (failed_ratio(outcomes), "ratio")
    details = {"traced_operations": len(traced), "untraced_operations": len(untraced),
               "families": result["families"], "predictions": lines}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gausslab" / "cli.py").is_file():
        print(f"perfbench: no gausslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    workdir = ROOT / ".perfbench_run" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = _worker(["run", args.workload, str(workdir), str(args.seed),
                          repr(args.seconds), str(args.trace)], deadline)
        if args.trace:
            metrics, details = per_layer(result)
        else:
            setups = [result["setup_s"]] + [
                _worker(["setup", args.workload, str(workdir)], deadline)["setup_s"]
                for _ in range(SETUP_REPEATS - 1)]
            metrics, details = end_to_end(result, setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(o["misses"]) for o in result["outcomes"])
    print(json.dumps({"workload": args.workload, "machine": result["machine"], **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["outcomes"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
