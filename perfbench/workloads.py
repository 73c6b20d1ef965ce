"""The benchmark's workloads: channel inputs, CLI configurations, schedules
and closed-form oracles.

Each configuration is the argv a user would type for one gausslab verdict.
``schedule`` turns a workload and a seed into the sequence of operations;
``Runner`` executes them in-process through ``gausslab.cli.run`` and checks
each report against the closed form it must match.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from gausslab import channels as ch
from gausslab import cli, fock, husimi, states


@dataclass(frozen=True)
class Oracle:
    """A report value at ``path`` must lie within ``tol`` of ``expected``."""

    path: tuple[str, ...]
    expected: float
    tol: float


@dataclass(frozen=True)
class Config:
    family: str  # the kind of verdict: majorize, twomode, wehrl or berezinlieb
    label: str
    argv: tuple[str, ...]  # without --seed and --out
    seeded: bool
    inputs: int  # Haar samples plus deterministic probes verified per operation
    oracles: tuple[Oracle, ...] = ()


@dataclass(frozen=True)
class Workload:
    channel_files: dict  # file name -> GaugeCovariantChannel
    configs: tuple[Config, ...]
    pattern: tuple[int, ...]  # config indices, repeated in this order
    warm: Callable[[], None]  # the cold constructions every CLI process pays for

    def write_inputs(self, workdir: Path) -> None:
        for name, channel in self.channel_files.items():
            ch.dump_channel(channel, workdir / name)


def _majorize_oracles(channel) -> tuple[Oracle, ...]:
    base = ("results", "optimality")
    return (Oracle(base + ("vonNeumann", "vacuum_value"),
                   states.minimal_output_entropy(channel), 1e-8),
            Oracle(base + ("renyi(2)", "vacuum_value"),
                   -states.output_purity(channel, 2.0), 1e-8))


def _realize(channel, modes: int, cutoff: int):
    return lambda: fock.realize_channel(channel, fock.FockSpace(modes, cutoff))


def _run_all(steps):
    def warm():
        for step in steps:
            step()
    return warm


def _majorize(family: str, label: str, path: Path, channel, samples: int, cutoff: int,
              support: int) -> Config:
    # One-mode sweeps also verify four deterministic probe states.
    probes = 4 if channel.modes == 1 else 0
    return Config(family, f"majorize {label}",
                  ("majorize", str(path), "--samples", str(samples), "--cutoff", str(cutoff),
                   "--support", str(support), "--threads", "1"),
                  seeded=True, inputs=samples + probes, oracles=_majorize_oracles(channel))


def fockspace(workdir: Path, seed: int) -> Workload:
    """The ``majorize`` and ``twomode`` families: no phase-space work."""
    one_mode = {"attenuator-0.6": ch.attenuator_channel(0.6),
                "amplifier-1.5": ch.amplifier_channel(1.5),
                "noise-0.5": ch.classical_noise_channel(0.5)}
    amp = ch.amplifier_channel(math.sqrt(2.0))
    pair = states.tensor_channel(ch.attenuator_channel(0.6), ch.amplifier_channel(1.2))
    chans = {f"{name}.json": c for name, c in one_mode.items()}
    chans.update({"amplifier-sqrt2.json": amp, "attenuator-0.6-x-amplifier-1.2.json": pair})
    amp_path = str(workdir / "amplifier-sqrt2.json")
    configs = (
        *(_majorize("majorize", name, workdir / f"{name}.json", c, 10, 40, 4)
          for name, c in one_mode.items()),
        Config("twomode", "additivity p=2",
               ("additivity", amp_path, amp_path, "--p", "2", "--samples", "4",
                "--cutoff", "30", "--threads", "1"), seeded=True, inputs=4),
        Config("twomode", "additivity p=3",
               ("additivity", amp_path, amp_path, "--p", "3", "--samples", "1",
                "--cutoff", "30", "--threads", "1"), seeded=True, inputs=1),
        _majorize("twomode", "two-mode", workdir / "attenuator-0.6-x-amplifier-1.2.json",
                  pair, 1, 20, 3),
    )
    warm = _run_all([_realize(c, 1, 40) for c in one_mode.values()]
                    + [_realize(amp, 1, 30), _realize(pair, 2, 20)])
    # Per cycle: attenuator and amplifier twice (4/11 of the operations, the
    # fastest), classical noise three times (the next 3/11, so the median
    # falls in the middle of them), the two-mode operations once each and
    # the slowest, additivity at p=3, twice (2/11, which holds the tail).
    return Workload(chans, configs, (0, 2, 1, 4, 2, 3, 0, 4, 1, 2, 5), warm)


def phasespace(workdir: Path, seed: int) -> Workload:
    """The ``wehrl`` and ``berezinlieb`` families: all Husimi work."""
    def wehrl(kind, a0, probe_dim, step):
        return Config("wehrl", f"wehrl {kind}",
                      ("wehrl", "--a0", a0, "--probe-dim", probe_dim, "--grid-step", step,
                       "--samples", "1", "--threads", "1"),
                      seeded=True, inputs=1 + 2,
                      oracles=(Oracle(("results", "coherent_value"),
                                      1.0 + math.log(float(a0) + 0.5), 1e-3),))

    configs = [wehrl("vacuum-ref", "0.5", "16", "0.1"), wehrl("thermal-ref", "1.0", "8", "0.2")]
    cs = ("1.5", "2", "3")
    for c in cs:
        for probe in ("vacuum", "fock1", "coherent:0.7"):
            oracles = ()
            if probe == "vacuum":
                sigma = husimi.measure_reprepare_channel(float(c))
                oracles = (Oracle(("results", "middle"),
                                  states.minimal_output_entropy(sigma), 1e-4),)
            configs.append(Config("berezinlieb", f"berezinlieb c={c} {probe}",
                                  ("berezinlieb", "--c", c, "--probe", probe,
                                   "--cutoff", "128", "--grid-step", "0.1"),
                                  seeded=False, inputs=1, oracles=oracles))
    steps = [_realize(husimi.measure_reprepare_channel(float(c)), 1, 128) for c in cs]
    steps += [lambda: husimi.make_grid(6.0, 0.1), lambda: husimi.make_grid(6.0, 0.2)]
    berezin = list(range(2, len(configs)))
    random.Random(seed).shuffle(berezin)
    # Per cycle: one Berezin-Lieb check (the slowest, so they hold the tail),
    # four vacuum-reference Wehrl sweeps (the fastest and most: the median
    # falls among them) and one thermal-reference sweep.
    pattern = [i for b in berezin for i in (b, 0, 0, 1, 0, 0)]
    return Workload({}, tuple(configs), tuple(pattern), _run_all(steps))


BUILDERS = {"fockspace": fockspace, "phasespace": phasespace}


@dataclass(frozen=True)
class Operation:
    config: Config
    argv: tuple[str, ...]
    repeat: bool  # identical argv to the previous operation: compare report bytes


def schedule(workload: Workload, seed: int):
    """Endless operation sequence.  Every ``--seed`` comes from ``seed``;
    the first operation of each configuration runs twice."""
    rng = random.Random(seed)
    seen = set()
    for index in itertools.cycle(workload.pattern):
        config = workload.configs[index]
        argv = config.argv
        if config.seeded:
            argv += ("--seed", str(rng.randrange(1, 2 ** 31)))
        yield Operation(config, argv, repeat=False)
        if index not in seen:
            seen.add(index)
            yield Operation(config, argv, repeat=True)


@dataclass(frozen=True)
class Outcome:
    family: str
    label: str
    seconds: float
    inputs: int
    misses: tuple[str, ...]
    traced: bool
    leakage: dict


def _lookup(report: dict, path: tuple[str, ...]):
    for key in path:
        report = report[key]
    return report


def check_report(config: Config, code: int | None, data: bytes | None) -> tuple[list[str], dict]:
    """Misses of one verdict: exit code, the report's pass flag, oracles."""
    if code != 0 or data is None:
        return [f"exit code {code}"], {}
    try:
        report = json.loads(data)
    except ValueError:
        return ["report is not JSON"], {}
    misses = [] if report.get("pass") is True else ['report has "pass": false']
    for oracle in config.oracles:
        try:
            value = float(_lookup(report, oracle.path))
        except (KeyError, TypeError, ValueError):
            misses.append(f"{'.'.join(oracle.path)} missing")
            continue
        if not abs(value - oracle.expected) <= oracle.tol:
            misses.append(f"{'.'.join(oracle.path)} = {value!r}, closed form "
                          f"{oracle.expected!r}, tolerance {oracle.tol:g}")
    return misses, report.get("leakage", {})


class Runner:
    """Runs operations one after another and judges each one.  While
    ``tracer`` is set, each operation is a traced operation."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer = None
        self._ops = 0
        self._previous: bytes | None = None

    def run(self, op: Operation) -> Outcome:
        out = self.workdir / f"report-{op.config.label.replace(' ', '_')}.json"
        argv = list(op.argv) + ["--out", str(out)]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        failure = None
        with contextlib.redirect_stderr(err):
            if self.tracer:
                self.tracer.op = self._ops
            start = perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:  # a crashing verdict is a failed operation
                code, failure = None, f"raised {type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
            if self.tracer:
                self.tracer.op = None
        self._ops += 1
        data = out.read_bytes() if out.exists() else None
        misses, leakage = check_report(op.config, code, data)
        if failure:
            misses = [failure]
        if op.repeat and data != self._previous:
            misses.append("report bytes differ from the first run of this argv")
        self._previous = data
        if misses:
            last = err.getvalue().strip().splitlines()[-1:]
            print(f"FAILED {' '.join(argv)}: {'; '.join(misses + last)}", file=sys.stderr)
        return Outcome(op.config.family, op.config.label, seconds, op.config.inputs,
                       tuple(misses), self.tracer is not None, leakage)


def measure(runner: Runner, ops, seconds: float) -> list[Outcome]:
    """Closed loop: run operations from ``ops`` until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    outcomes = []
    for op in ops:
        outcomes.append(runner.run(op))
        if perf_counter() >= deadline:
            break
    return outcomes
