"""The correctness gate: wrong oracles and differing repeats count as failures."""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import run  # noqa: E402
import workloads  # noqa: E402


def _first_operation(tmp_path):
    workload = workloads.fockspace(tmp_path, seed=5)
    workload.write_inputs(tmp_path)
    return next(workloads.schedule(workload, seed=5))


def _ratio(outcomes):
    return run.failed_ratio([dataclasses.asdict(o) for o in outcomes])


def test_gate_passes_the_program_and_bites_on_a_wrong_oracle(tmp_path):
    op = _first_operation(tmp_path)
    runner = workloads.Runner(tmp_path)
    good = runner.run(op)
    assert good.misses == ()
    assert _ratio([good]) == 0.0

    vn, purity = op.config.oracles
    wrong = dataclasses.replace(vn, expected=vn.expected + 1e-6)
    bad_op = dataclasses.replace(
        op, config=dataclasses.replace(op.config, oracles=(wrong, purity)))
    bad = runner.run(bad_op)
    assert len(bad.misses) == 1 and "vonNeumann" in bad.misses[0]
    assert _ratio([good, bad]) == 0.5


def test_repeat_with_different_bytes_fails(tmp_path):
    op = _first_operation(tmp_path)
    runner = workloads.Runner(tmp_path)
    runner.run(op)
    same = runner.run(dataclasses.replace(op, repeat=True))
    assert same.misses == ()
    other_seed = op.argv[:-1] + (str(int(op.argv[-1]) + 1),)
    differs = runner.run(dataclasses.replace(op, argv=other_seed, repeat=True))
    assert differs.misses == ("report bytes differ from the first run of this argv",)
