"""Majorization order on output spectra and verification sweeps.

Randomized and probe-driven checks that vacuum (and coherent) inputs
minimize every concave trace functional of the output, that output spectra
are majorized by the vacuum output, that the strict-minimizer conditions
produce strictly positive gaps, and that output purities multiply across
tensor products.  These are statistical verifications at finite cutoff,
not proofs.

One seeded sampling pass, :func:`sampling_pass`, serves every sweep: it
cuts the fixed inputs and the seeded samples into contiguous chunks, maps
them on a thread pool, evaluates each chunk as one batch and redraws the
samples past the leakage budget as one batch per retry round.  Each sample
is labelled by the seed tuple it was drawn from, ``haar[seed,index]`` or,
once redrawn, ``haar[seed,index,retry]``, so every label redraws its state
through :func:`gausslab.fock.random_pure_state`.  :func:`majorization_sweep`
maps the vacuum, the probes and the samples to output spectra through it,
with one Fock stage kernel call (:meth:`gausslab.fock.FockChannel.apply` on
the sequence of inputs) and one stacked :func:`gausslab.fock.spectrum` per
chunk, and reduces them to one vectorized deficit;
:func:`optimality_reports` reduces those same spectra by concave
functionals.  The two-mode :func:`additivity_test` evaluates its states one
per chunk, and the Wehrl sweep (:func:`gausslab.husimi.wehrl_optimality_test`)
goes through the same pass.  Every optimality report, Fock or phase-space,
is built by :meth:`OptimalityReport.from_values`.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import fock
from ._linalg import xlogy
from .channels import GaugeCovariantChannel, strictness_conditions
from .errors import ConditionNotMet, TruncationLeakage
from .states import output_purity, tensor_channel

LEAKAGE_BUDGET = 1e-6
MAJORIZATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Concave functionals on [0, 1] with f(0) = 0.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcaveFunctional:
    """Tagged concave function on [0, 1] with f(0) = 0.

    Kinds: ``von_neumann`` (f = -x ln x), ``renyi`` (f = -x^p, p > 1),
    ``polygonal`` (piecewise-linear through knots, nonincreasing slopes).
    """

    kind: str
    p: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None

    @property
    def label(self) -> str:
        if self.kind == "von_neumann":
            return "vonNeumann"
        if self.kind == "renyi":
            return f"renyi({self.p:g})"
        pts = ",".join(f"({x:g},{y:g})" for x, y in self.knots)
        return f"polygonal[{pts}]"

    @property
    def strictly_concave(self) -> bool:
        return self.kind in ("von_neumann", "renyi")

    def __call__(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if self.kind == "von_neumann":
            out = -xlogy(x, x)
        elif self.kind == "renyi":
            out = -np.power(x, self.p)
        else:
            xs = np.array([k[0] for k in self.knots])
            ys = np.array([k[1] for k in self.knots])
            out = np.interp(x, xs, ys)
        return out if out.ndim else float(out)


def von_neumann_functional() -> ConcaveFunctional:
    return ConcaveFunctional(kind="von_neumann")


def renyi_functional(p: float) -> ConcaveFunctional:
    if not p > 1.0:
        raise ConditionNotMet(f"renyi functional needs p > 1, got {p}")
    return ConcaveFunctional(kind="renyi", p=float(p))


def polygonal_functional(knots) -> ConcaveFunctional:
    pts = tuple((float(x), float(y)) for x, y in knots)
    if pts[0] != (0.0, 0.0):
        raise ConditionNotMet("polygonal functional must start at (0, 0)")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not (np.diff(xs) > 0).all():
        raise ConditionNotMet("polygonal knots must be strictly increasing in x")
    slopes = np.diff(ys) / np.diff(xs)
    if not (np.diff(slopes) <= 1e-12).all():
        raise ConditionNotMet("polygonal slopes must be nonincreasing (concavity)")
    return ConcaveFunctional(kind="polygonal", knots=pts)


def threshold_functional(t: float) -> ConcaveFunctional:
    """f_t(x) = min(x, t): the generating family of the concave order."""
    if not 0.0 < t < 1.0:
        raise ConditionNotMet("threshold must lie strictly inside (0, 1)")
    return polygonal_functional(((0.0, 0.0), (t, t), (1.0, t)))


def default_functionals() -> tuple[ConcaveFunctional, ...]:
    """The acceptance family: von Neumann, Renyi-2, three fixed polygonals."""
    return (
        von_neumann_functional(),
        renyi_functional(2.0),
        threshold_functional(0.1),
        threshold_functional(0.35),
        polygonal_functional(((0.0, 0.0), (0.2, 0.5), (0.6, 0.8), (1.0, 0.9))),
    )


def trace_functional(values, f: ConcaveFunctional):
    """sum_i f(lambda_i) over a spectrum, with 0 ln 0 = 0: a float, or, for
    spectra stacked along the leading axes, one sum per spectrum."""
    out = np.sum(f(np.asarray(values, dtype=float)), axis=-1)
    return out if out.ndim else float(out)


def partial_sum_deficit(a, b):
    """max_m (sum_{i<=m} b_i - sum_{i<=m} a_i); <= 0 means a majorizes b.
    A float, or, for spectra stacked along the leading axes of either
    argument, one deficit per spectrum.  The shorter spectrum is padded
    with zeros."""
    a, b = (np.sort(np.asarray(x, dtype=float), axis=-1)[..., ::-1] for x in (a, b))
    n = max(a.shape[-1], b.shape[-1])
    a, b = (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]) for x in (a, b))
    out = np.max(np.cumsum(b, axis=-1) - np.cumsum(a, axis=-1), axis=-1)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Probe sets and sampling.
# ---------------------------------------------------------------------------

def default_pure_probes(space: fock.FockSpace) -> list[tuple[str, fock.PureState]]:
    """Deterministic one-mode probes: two Fock states and two balanced
    superpositions, each built from checked number states."""
    n0, n1, n2 = (fock.number_state(space, n).amplitudes for n in (0, 1, 2))
    return [
        ("fock(1)", fock.pure_state(space, n1)),
        ("fock(2)", fock.pure_state(space, n2)),
        ("(|0>+|1>)/sqrt2", fock.pure_state(space, (n0 + n1) / np.sqrt(2))),
        ("(|1>+i|2>)/sqrt2", fock.pure_state(space, (n1 + 1j * n2) / np.sqrt(2))),
    ]


@dataclass(frozen=True)
class SampleRow:
    seed: str
    label: str
    functional: str
    value: float
    gap: float
    leakage: float


@dataclass(frozen=True)
class OptimalityReport:
    vacuum_value: float
    best_sampled_value: float
    best_input_descriptor: str
    gap: float
    samples: int
    seed: int
    functional: str
    rejected: int = 0
    rows: tuple[SampleRow, ...] = field(default=(), repr=False)

    @classmethod
    def from_values(cls, vacuum_value: float, values, leakages, inputs, seed: int,
                    functional: str, rejected: int) -> OptimalityReport:
        """The report of the input ``values`` of ``functional`` against
        ``vacuum_value``: one row per input, with its ``leakages`` entry and
        the (seed tag, label) of ``inputs``, the lowest value, the first
        input attaining it and their gap.  The samples are the inputs not
        tagged "probe"."""
        rows = tuple(SampleRow(seed=tag, label=label, functional=functional, value=v,
                               gap=v - vacuum_value, leakage=lk)
                     for (tag, label), v, lk in zip(inputs, values, leakages))
        best_value, best_input = min(((r.value, r.label) for r in rows),
                                     key=lambda vt: vt[0], default=(np.inf, ""))
        return cls(vacuum_value=vacuum_value, best_sampled_value=best_value,
                   best_input_descriptor=best_input, gap=best_value - vacuum_value,
                   samples=sum(r.seed != "probe" for r in rows), seed=seed,
                   functional=functional, rejected=rejected, rows=rows)


@dataclass(frozen=True)
class SweepReport:
    passes: int
    total: int
    worst_deficit: float
    worst_input: str
    seed: int
    rejected: int = 0
    rows: tuple[SampleRow, ...] = field(default=(), repr=False)
    # The vacuum output spectrum and the output spectra behind the rows, one
    # row each, for optimality_reports; arrays, so kept out of == and of the
    # JSON report.
    vacuum_spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)
    spectra: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class StrictGapRow:
    label: str
    kind: str  # "pure" | "mixed" | "coherent"
    value: float
    gap: float


@dataclass(frozen=True)
class StrictGapReport:
    vacuum_value: float
    min_gap: float
    coherent_gap: float
    condition_a: bool
    condition_b: bool
    rows: tuple[StrictGapRow, ...]


@dataclass(frozen=True)
class AdditivityReport:
    bound: float
    vacuum_value: float
    max_sample_value: float
    samples: int
    seed: int
    order: float
    rejected: int = 0
    rows: tuple[SampleRow, ...] = field(default=(), repr=False)


# A chunk of a majorize batch holds at most BATCH_ENTRIES / dim^2 inputs (40
# at d = 40, one two-mode input at d = 20), so its stacked output blocks hold
# at most 1 MB.  Chunk boundaries do not depend on the thread count.
BATCH_ENTRIES = 1 << 16


def sampling_pass(evaluate, fixed, name: str, seed: int, n_samples: int,
                  space: fock.FockSpace, support: int, threads: int, chunk: int):
    """The one seeded sampling pass of every sweep.

    ``evaluate(states) -> (results, leakages)`` maps a batch of states to
    one result and one Fock leakage each.  The inputs ``fixed``, then the
    samples 0 .. n_samples - 1 of ``seed``, Haar states on ``support`` levels
    per mode of ``space``, are cut into contiguous chunks of ``chunk``
    inputs, which ``threads`` map; each chunk is one ``evaluate`` call, the
    same on any thread count.  Sample ``index`` is drawn from the seed tuple
    (seed, index), and the samples of a chunk that leak more than
    :data:`LEAKAGE_BUDGET` are redrawn from (seed, index, retry) as one batch
    per retry round, up to retry 7.

    Returns (results, leakages) over ``fixed`` then the samples, in order,
    the labels of the samples and the number of redraws.  Each label is
    ``name`` and the seed tuple of its sample's last draw,
    ``name[seed,index]`` or ``name[seed,index,retry]``.
    """
    first = len(fixed)

    def draw(seeds) -> list[fock.PureState]:
        return [fock.random_pure_state(t, space, support=support) for t in seeds]

    def run(start: int):
        stop = min(start + chunk, first + n_samples)
        head = list(fixed[start:stop])
        seeds = [()] * len(head) + [(int(seed), i - first) for i in range(max(start, first), stop)]
        results, leakages = (np.array(x) for x in evaluate(head + draw(seeds[len(head):])))
        pending = [j for j in range(len(head), len(seeds)) if not leakages[j] <= LEAKAGE_BUDGET]
        for retry in range(1, 8):
            if not pending:
                break
            for j in pending:
                seeds[j] = seeds[j][:2] + (retry,)
            results[pending], leakages[pending] = evaluate(draw(seeds[j] for j in pending))
            pending = [j for j in pending if not leakages[j] <= LEAKAGE_BUDGET]
        if pending:
            raise TruncationLeakage(
                f"sample ({seed}, {seeds[pending[0]][1]}) exceeded leakage budget "
                f"{LEAKAGE_BUDGET:.1e} after 8 retries"
            )
        return results, leakages, seeds

    starts = range(0, first + n_samples, chunk)
    if threads <= 1:
        parts = list(map(run, starts))
    else:  # BLAS releases the GIL
        from concurrent import futures
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, starts))
    seeds = [t for _, _, chunk_seeds in parts for t in chunk_seeds][first:]
    return (np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            [f"{name}[{','.join(map(str, t))}]" for t in seeds],
            sum(t[2] for t in seeds if len(t) > 2))


def _output_spectra(realized: fock.FockChannel, states):
    """The output spectra of a sequence of pure states, one row each, and
    their leakages ``1 - sum``; of one state or operator, one spectrum."""
    lam = fock.spectrum(realized.apply(states))
    return lam, 1.0 - lam.sum(axis=-1)


def optimality_sweep(ch: GaugeCovariantChannel, fs, n_samples: int, seed: int,
                     cutoff: int = 40) -> list[OptimalityReport]:
    """Search for inputs beating the vacuum on Tr f of the channel output,
    one report per functional f in ``fs``.

    Evaluates Haar samples (occupation-bounded) plus the deterministic probe
    set in one :func:`majorization_sweep`, reduced by
    :func:`optimality_reports`; the gap ``min sampled value - vacuum value``
    should never be significantly negative.
    """
    return optimality_reports(majorization_sweep(ch, n_samples, seed, cutoff=cutoff), fs)


def optimality_reports(sweep: SweepReport, fs) -> list[OptimalityReport]:
    """Reduce the output spectra of one sweep by each functional in ``fs``:
    the vacuum value, the lowest input value (the first input attaining it
    names the report) and their gap."""
    stacked = np.vstack((sweep.vacuum_spectrum, sweep.spectra))
    inputs = [(row.seed, row.label) for row in sweep.rows]
    leakages = [row.leakage for row in sweep.rows]
    reports = []
    for f in fs:
        vacuum_value, *values = trace_functional(stacked, f).tolist()
        reports.append(OptimalityReport.from_values(vacuum_value, values, leakages, inputs,
                                                    sweep.seed, f.label, sweep.rejected))
    return reports


def majorization_sweep(ch: GaugeCovariantChannel, n_samples: int, seed: int,
                       cutoff: int = 40, sample_support: int = 4,
                       threads: int = 1) -> SweepReport:
    """Check that the vacuum-output spectrum majorizes every sampled output.

    The vacuum, the one-mode probes and ``n_samples`` seeded samples
    ``haar[seed,index]`` go through :func:`sampling_pass`, one kernel call
    and one stacked spectrum per chunk of at most
    ``BATCH_ENTRIES / dim^2`` inputs, and the samples that leak past the
    budget are redrawn as ``haar[seed,index,retry]``.  The output spectra are kept on the
    report for :func:`optimality_reports`.  Leakage mass is left as a zero
    tail (never renormalized), which only lowers the sampled partial sums.
    The worst input is the first to reach the largest deficit, and none
    ("") when that deficit is within :data:`MAJORIZATION_TOL`.
    """
    space = fock.FockSpace(ch.modes, cutoff)
    realized = fock.realize_channel(ch, space)
    probes = default_pure_probes(space) if ch.modes == 1 else []
    fixed = [fock.vacuum_state(space)] + [probe for _, probe in probes]
    spectra, leakages, samples, rejected = sampling_pass(
        functools.partial(_output_spectra, realized), fixed, "haar", seed, n_samples, space,
        sample_support, threads, max(1, BATCH_ENTRIES // space.dim ** 2))
    labels = [("probe", tag) for tag, _ in probes] + [(str(seed), tag) for tag in samples]
    deficits = partial_sum_deficit(spectra[0], spectra[1:]).tolist()
    rows = [SampleRow(seed=seed_tag, label=tag, functional="partial-sums",
                      value=deficit, gap=deficit, leakage=lk)
            for (seed_tag, tag), deficit, lk in zip(labels, deficits, leakages[1:].tolist())]
    worst_deficit, worst_input = max(((r.value, r.label) for r in rows),
                                     key=lambda vt: vt[0], default=(-np.inf, ""))
    if worst_deficit <= MAJORIZATION_TOL:  # round-off names no input
        worst_input = ""
    return SweepReport(passes=sum(r.value <= MAJORIZATION_TOL for r in rows), total=len(rows),
                       worst_deficit=worst_deficit, worst_input=worst_input, seed=seed,
                       rejected=rejected, rows=tuple(rows),
                       vacuum_spectrum=spectra[0], spectra=spectra[1:])


def strict_gap_probe(ch: GaugeCovariantChannel, f: ConcaveFunctional,
                     cutoff: int = 40) -> StrictGapReport:
    """Gaps of non-coherent probes over the vacuum value.

    Requires a strictly concave functional and a channel satisfying one of
    the two strict-minimizer conditions; the observed gaps are reported
    without an a-priori threshold.  The vacuum and the pure probes go
    through the channel as one batch.  The coherent probe coherent(0.7) is
    evaluated at cutoff max(cutoff, 80), in one batch with that cutoff's
    vacuum, as the equality sanity check.
    """
    if not f.strictly_concave:
        raise ConditionNotMet(f"{f.label} is not strictly concave")
    strict = strictness_conditions(ch)
    if not (strict.condition_a or strict.condition_b):
        raise ConditionNotMet("channel satisfies neither strict-minimizer condition")

    def values_of(realized: fock.FockChannel, states):
        return trace_functional(_output_spectra(realized, states)[0], f)

    space = fock.FockSpace(ch.modes, cutoff)
    realized = fock.realize_channel(ch, space)
    pure = default_pure_probes(space)
    vac, *pure_values = values_of(realized, [fock.vacuum_state(space)]
                                  + [probe for _, probe in pure]).tolist()
    rows = [StrictGapRow(label=tag, kind="pure", value=v, gap=v - vac)
            for (tag, _), v in zip(pure, pure_values)]
    coh = fock.coherent_state(0.7, space)
    dephased = fock.FockOperator(space=space,
                                 matrix=np.diag(np.abs(coh.amplitudes) ** 2).astype(complex))
    for tag, probe in (("thermal(0.3)", fock.thermal_state(0.3, space)),
                       ("dephased-coherent(0.7)", dephased)):
        v = values_of(realized, probe)
        rows.append(StrictGapRow(label=tag, kind="mixed", value=v, gap=v - vac))
    big_space = fock.FockSpace(ch.modes, max(cutoff, 80))
    vac_big, coh_value = values_of(fock.realize_channel(ch, big_space),
                                   [fock.vacuum_state(big_space),
                                    fock.coherent_state(0.7, big_space)]).tolist()
    rows.append(StrictGapRow(label="coherent(0.7)", kind="coherent",
                             value=coh_value, gap=coh_value - vac_big))
    min_gap = min(r.gap for r in rows if r.kind != "coherent")
    return StrictGapReport(vacuum_value=vac, min_gap=min_gap,
                           coherent_gap=coh_value - vac_big,
                           condition_a=strict.condition_a,
                           condition_b=strict.condition_b, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Additivity of output purities across tensor products.
# ---------------------------------------------------------------------------

def additivity_test(a: GaugeCovariantChannel, b: GaugeCovariantChannel, p: float,
                    n_samples: int, seed: int, cutoff: int = 30,
                    threads: int = 1) -> AdditivityReport:
    """Fock check of nu_p(a (x) b) = nu_p(a) nu_p(b) on entangled inputs.

    Samples Haar two-mode pure states ``haar2[seed,index]`` occupying at
    most 3 levels per mode through :func:`sampling_pass`, one per chunk,
    redrawn past :data:`LEAKAGE_BUDGET` as ``haar2[seed,index,retry]``, applies
    a (x) b stage by stage, per mode, computes Tr out^p with
    :func:`gausslab.fock.trace_power` and compares it to the closed-form
    bound; vacuum (x) vacuum must attain it.
    """
    if a.modes != 1 or b.modes != 1:
        raise ConditionNotMet("additivity_test needs one-mode factors")
    bound = output_purity(a, p) * output_purity(b, p)
    space = fock.FockSpace(2, cutoff)
    realized = fock.realize_channel(tensor_channel(a, b), space)

    def purity_of(states) -> tuple[list[float], list[float]]:
        # chunks of one state: a common box would enlarge every output
        outs = [realized.apply(psi) for psi in states]
        return [fock.trace_power(out, p) for out in outs], [fock.leakage(out) for out in outs]

    values, leakages, labels, rejected = sampling_pass(
        purity_of, [fock.vacuum_state(space)], "haar2", seed, n_samples, space, 3, threads, 1)
    rows = tuple(SampleRow(seed=str(seed), label=label, functional=f"purity(p={p:g})",
                           value=value, gap=value - bound, leakage=lk)
                 for label, value, lk in zip(labels, values[1:].tolist(),
                                             leakages[1:].tolist()))
    return AdditivityReport(bound=bound, vacuum_value=float(values[0]),
                            max_sample_value=max((r.value for r in rows), default=-np.inf),
                            samples=n_samples, seed=seed, order=p,
                            rejected=rejected, rows=rows)


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """Recursively convert dataclass reports / numpy values for json.dump.
    Dataclass fields kept out of equality (a sweep's spectra) are left out."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.compare}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def report_to_json(report, path=None) -> str:
    text = json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def rows_to_csv(rows, path) -> None:
    """One row per sample: seed, input descriptor, functional, value, gap,
    leakage."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "input", "functional", "value", "gap", "leakage"])
        for row in rows:
            writer.writerow([row.seed, row.label, row.functional,
                             repr(row.value), repr(row.gap), repr(row.leakage)])
