"""Generalized Husimi densities and Wehrl-type classical functionals.

One-mode phase-space layer: densities ``p_rho(z) = Tr rho D(z) rho0 D(z)*``
against the measure ``d^2z / pi`` (``rho0`` a gauge-invariant Gaussian
reference, the vacuum giving the ordinary Husimi function), concave
classical functionals by grid quadrature, the measure-reprepare channel,
its smoothing/convolution identity, and the generalized Berezin-Lieb
sandwich.

There is one evaluator, the vacuum-reference density ``<z|rho|z>`` from
closed-form coherent columns ``<m|D(z)|0>``, so arbitrary node sets
(including the rescaled ones used by the sandwich and convolution checks)
need no interpolation.  A thermal reference with ``kappa^2 = a0 + 1/2`` is
reduced to it by gauge-covariant channel duality,
``p^{a0}_rho(z) = kappa^-2 Q_{L[rho]}(z / kappa)``, where ``L`` is the
quantum-limited attenuator of transmission ``1/kappa`` applied as one Fock
stage to the state itself, pure or mixed (:func:`gausslab.fock.apply_kraus`).
:func:`berezin_lieb_fields` makes one pass per input (one channel
application, one evaluation at the rescaled nodes, one smoothing) and the
sandwich, convolution and smoothing checks reduce it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import fock
from ._linalg import log_factorial, next_fast_len, poisson_cdf
from .channels import GaugeCovariantChannel, build_channel
from .errors import (
    DimensionMismatch,
    InvalidState,
    ParameterOutOfRange,
    QuadratureError,
    TailMassTooLarge,
    TruncationLeakage,
)
from .majorization import (
    ConcaveFunctional,
    OptimalityReport,
    SampleRow,
    parallel_map,
    trace_functional,
)

TAIL_BUDGET = 1e-4
NODE_CHUNK = 16384  # nodes per coherent-column build
WEHRL_GROUP = 8  # states per husimi_values call in the Wehrl sweep


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Square Cartesian lattice of spacing ``step`` covering ``|z| <= radius``;
    each node carries weight ``step^2 / pi`` for the measure d^2z/pi."""

    radius: float
    step: float
    axis: np.ndarray
    mask: np.ndarray

    @property
    def weight(self) -> float:
        return self.step ** 2 / np.pi

    @property
    def nodes(self) -> np.ndarray:
        return self.axis[:, None] + 1j * self.axis[None, :]

    def integrate(self, values: np.ndarray) -> float:
        return float(values[self.mask].sum() * self.weight)

    def scaled(self, c: float) -> PhaseSpaceGrid:
        """The same lattice with every node z moved to c z."""
        return PhaseSpaceGrid(radius=c * self.radius, step=c * self.step,
                              axis=c * self.axis, mask=self.mask)


def make_grid(radius: float = 6.0, step: float = 0.05) -> PhaseSpaceGrid:
    if step <= 0:
        raise QuadratureError("grid step must be positive")
    if radius / step > 400:
        raise QuadratureError(f"radius/step = {radius / step:.0f} exceeds 400 per axis")
    n = int(round(radius / step))
    axis = step * np.arange(-n, n + 1)
    nodes = axis[:, None] + 1j * axis[None, :]
    mask = np.abs(nodes) <= radius + 1e-12
    grid = PhaseSpaceGrid(radius=float(radius), step=float(step), axis=axis, mask=mask)
    norm = grid.integrate(np.exp(-np.abs(nodes) ** 2))
    if abs(norm - 1.0) > 1e-6:
        raise QuadratureError(f"vacuum-density quadrature is {norm!r}, expected 1 +/- 1e-6")
    return grid


@dataclass(frozen=True)
class ReferenceState:
    """One-mode gauge-invariant Gaussian reference with correlation a0 >= 1/2;
    realized as the Fock-diagonal geometric state with N0 = a0 - 1/2."""

    a0: float

    def __post_init__(self):
        if self.a0 < 0.5 - 1e-12:
            raise ParameterOutOfRange(f"reference correlation a0 = {self.a0} below 1/2")

    @property
    def n_mean(self) -> float:
        return max(self.a0 - 0.5, 0.0)


@dataclass(frozen=True)
class HusimiField:
    grid: PhaseSpaceGrid
    values: np.ndarray
    tail_mass: float

    def integral(self) -> float:
        return self.grid.integrate(self.values)


def _as_reference(ref) -> ReferenceState:
    return ref if isinstance(ref, ReferenceState) else ReferenceState(float(ref))


def _coherent_columns(z_flat: np.ndarray, dim: int) -> np.ndarray:
    """phi_0[i, m] = <m| D(z_i) |0> = e^{-|z|^2/2} z^m / sqrt(m!).

    The magnitude is one real exp of its logarithm, finite where the factor
    e^{-|z|^2/2} alone underflows (|z|^2/2 > 745); the phase is the running
    product u^m, u = z/|z| (u = 0 at z = 0 leaves only the m = 0 entry).
    """
    r = np.abs(z_flat)
    nonzero = r > 0
    logr = np.log(np.where(nonzero, r, 1.0))
    half_r2 = -0.5 * r ** 2
    half_log_factorial = 0.5 * log_factorial(np.arange(dim))
    u = z_flat / np.where(nonzero, r, 1.0)
    cols = np.empty((dim, z_flat.size), dtype=np.complex128)
    phase = np.ones(z_flat.size, dtype=np.complex128)
    for m in range(dim):
        np.multiply(phase, np.exp(half_r2 + m * logr - half_log_factorial[m]), out=cols[m])
        phase *= u
    return cols.T


def _column_factors(state) -> np.ndarray:
    """Columns b_j with state = sum_j b_j b_j^dag: the amplitudes of a pure
    state, sqrt(w) v over the eigenpairs of a mixed one."""
    if isinstance(state, fock.PureState):
        return state.amplitudes[:, None]
    w, v = np.linalg.eigh(0.5 * (state.matrix + state.matrix.conj().T))
    keep = w > 1e-15
    return v[:, keep] * np.sqrt(w[keep])


def husimi_values(state, ref, z_nodes: np.ndarray) -> np.ndarray:
    """p(z) = Tr[state . D(z) rho0 D(z)*] at arbitrary complex nodes.

    ``state`` is one state, or a sequence of pure or mixed states on one
    space, which gives one row of values per state.  Per chunk of nodes the
    coherent columns, cropped to the highest occupied level, are built once
    and multiplied with the stacked column factors of every state at once.

    A thermal reference reduces to the vacuum one by attenuator duality:
    p(z) = kappa^-2 Q_{L[state]}(z / kappa) with kappa^2 = a0 + 1/2, where L
    is the quantum-limited attenuator of transmission 1/kappa and Q the
    vacuum-reference density <w| . |w>.
    """
    ref = _as_reference(ref)
    batch = not isinstance(state, (fock.PureState, fock.FockOperator))
    states = list(state) if batch else [state]
    space = states[0].space
    if space.modes != 1:
        raise DimensionMismatch("husimi evaluation is one-mode")
    if any(s.space != space for s in states):
        raise DimensionMismatch("batched husimi evaluation needs states on one space")
    z_flat = np.asarray(z_nodes, dtype=np.complex128).ravel()
    scale = 1.0
    if ref.n_mean > 0:
        kappa = float(np.sqrt(ref.a0 + 0.5))
        attenuator = fock.attenuator_kraus(1.0 / kappa, space)
        states = [fock.apply_kraus(attenuator, s) for s in states]
        z_flat, scale = z_flat / kappa, kappa ** -2
    blocks = [_column_factors(s) for s in states]
    edges = np.cumsum([0] + [b.shape[1] for b in blocks])
    stacked = np.hstack(blocks)
    stacked = stacked[:1 + int(np.flatnonzero(stacked.any(axis=1)).max(initial=0))]
    out = np.empty((len(states), z_flat.size))
    for start in range(0, z_flat.size, NODE_CHUNK):
        sl = slice(start, min(start + NODE_CHUNK, z_flat.size))
        # columns at conj(z) are the conjugated <m|D(z)|0>
        weights = np.abs(_coherent_columns(z_flat[sl].conj(), len(stacked)) @ stacked) ** 2
        for row in range(len(states)):
            out[row, sl] = weights[:, edges[row]:edges[row + 1]].sum(axis=1)
    out *= scale
    for values in out:
        if values.max(initial=0.0) > 1.0 + 1e-8:
            raise InvalidState(f"husimi density exceeds 1: max {values.max():.6f}")
    return out.reshape(out.shape[:batch] + np.shape(z_nodes))


def _occupation_probabilities(state) -> np.ndarray:
    if isinstance(state, fock.PureState):
        return np.abs(state.amplitudes) ** 2
    return np.clip(np.real(np.diagonal(state.matrix)), 0.0, None)


def estimate_tail_mass(state, ref, grid: PhaseSpaceGrid) -> float:
    """Gaussian-envelope estimate of the density mass outside the grid disc.

    The number-state density with reference width N0 has off-disc mass
    T(n) ~= Q(n + 1, R^2/(N0 + 1)); coherences are bounded through
    |rho_mn| <= sqrt(rho_mm rho_nn), giving (sum_n sqrt(P(n) T(n)))^2.
    """
    ref = _as_reference(ref)
    prob = _occupation_probabilities(state)
    tails = poisson_cdf(grid.radius ** 2 / (ref.n_mean + 1.0), prob.size)
    return float(np.sum(np.sqrt(prob * tails)) ** 2)


def husimi_density(state, ref, grid: PhaseSpaceGrid,
                   tail_budget: float = TAIL_BUDGET):
    """Generalized Husimi density of a one-mode state on the grid, a
    :class:`HusimiField`; a sequence of states gives a list of fields, every
    tail mass checked, in order, before one :func:`husimi_values` call.

    With the vacuum reference (a0 = 1/2) this is exactly <z|rho|z>.
    """
    ref = _as_reference(ref)
    batch = not isinstance(state, (fock.PureState, fock.FockOperator))
    states = list(state) if batch else [state]
    tails = [estimate_tail_mass(s, ref, grid) for s in states]
    for tail in tails:
        if tail > tail_budget:
            raise TailMassTooLarge(
                f"estimated off-grid mass {tail:.2e} exceeds budget {tail_budget:.1e}"
            )
    values = husimi_values(states if batch else state, ref, grid.nodes)
    fields = [HusimiField(grid, v, tail) for v, tail in zip(values if batch else [values], tails)]
    return fields if batch else fields[0]


def classical_functional(field: HusimiField, f: ConcaveFunctional) -> float:
    """Quadrature of f(p(z)) against d^2z/pi over the grid disc.

    Requires f(0) = 0 so the off-grid tail contributes only through the
    (budgeted) tail mass."""
    return float(np.sum(f(field.values[field.grid.mask])) * field.grid.weight)


def normal_density(a: float, grid: PhaseSpaceGrid) -> HusimiField:
    """Normal density q_a(z) = (2a)^{-1} e^{-|z|^2/(2a)} against d^2z/pi."""
    if a <= 0:
        raise ParameterOutOfRange("normal density needs a > 0")
    values = np.exp(-np.abs(grid.nodes) ** 2 / (2.0 * a)) / (2.0 * a)
    return HusimiField(grid=grid, values=values, tail_mass=float(np.exp(-grid.radius ** 2 / (2 * a))))


def measure_reprepare_channel(c: float, a0: float = 0.5,
                              a0p: float = 0.5) -> GaugeCovariantChannel:
    """Heterodyne-measure-then-reprepare channel: K = c, mu = a0' + c^2 a0."""
    if c <= 0:
        raise ParameterOutOfRange("scaling constant c must be positive")
    ref = _as_reference(a0)
    refp = _as_reference(a0p)
    return build_channel(np.array([[c]]), np.array([[refp.a0 + c ** 2 * ref.a0]]))


def _measure_reprepare_output(state, c: float, a0: float, a0p: float,
                              cutoff: int, leakage_budget: float) -> fock.FockOperator:
    space = fock.FockSpace(1, cutoff)
    realized = fock.realize_channel(measure_reprepare_channel(c, a0, a0p), space)
    if state.space.cutoff != cutoff:  # crop or pad the amplitudes or the operator
        x = state.amplitudes if isinstance(state, fock.PureState) else state.matrix
        m = min(state.space.cutoff, cutoff)
        state = type(state)(space, np.pad(x[(slice(m),) * x.ndim], [(0, cutoff - m)] * x.ndim))
    out = realized.apply(state)
    lk = fock.leakage(out)
    if lk > leakage_budget:
        raise TruncationLeakage(
            f"measure-reprepare output leaks {lk:.2e} > {leakage_budget:.1e}; raise the cutoff"
        )
    return out


@dataclass(frozen=True)
class BerezinLiebFields:
    """The fields every Berezin-Lieb reduction of one input reads.

    ``sigma`` is the measure-reprepare output Phi_c[state] and ``spectrum``
    its eigenvalues, ``p_in`` the a0-density of the input on the grid nodes,
    ``p_bar_scaled`` the a0'-density of sigma at the rescaled nodes c z and
    ``smoothed`` the lattice convolution p_in * q_{a0'/c^2}.
    """

    c: float
    grid: PhaseSpaceGrid
    sigma: fock.FockOperator
    spectrum: np.ndarray
    p_in: np.ndarray
    p_bar_scaled: np.ndarray
    smoothed: np.ndarray


def berezin_lieb_fields(state, c: float, a0: float, a0p: float, grid: PhaseSpaceGrid,
                        cutoff: int = 128,
                        leakage_budget: float = TAIL_BUDGET) -> BerezinLiebFields:
    """One pass: one channel application, the input density on the grid, the
    output density at the rescaled nodes and one smoothing, for the sandwich,
    the convolution identity and the smoothing limit to reduce."""
    p_in = husimi_values(state, a0, grid.nodes)
    total = grid.integrate(p_in)
    if abs(total - 1.0) > 1e-3:
        raise QuadratureError(f"lower-symbol mass on the grid is {total!r}, expected 1")
    sigma = _measure_reprepare_output(state, c, a0, a0p, cutoff, leakage_budget)
    return BerezinLiebFields(c=c, grid=grid, sigma=sigma, spectrum=fock.spectrum(sigma),
                             p_in=p_in, p_bar_scaled=husimi_values(sigma, a0p, c * grid.nodes),
                             smoothed=smooth_field(p_in, c, a0p, grid))


@dataclass(frozen=True)
class BerezinLiebReport:
    lower: float
    middle: float
    upper: float
    c: float
    functional: str

    @property
    def min_slack(self) -> float:
        return min(self.middle - self.lower, self.upper - self.middle)

    def sandwiched(self, slack: float = 1e-3) -> bool:
        return self.min_slack >= -slack


def berezin_lieb_check(fields: BerezinLiebFields, f: ConcaveFunctional) -> BerezinLiebReport:
    """Sandwich for the measure-reprepare output sigma = Phi_c[state]:

        int f(lower symbol) <= Tr f(sigma) <= int f(upper symbol),

    with lower symbol c^{-2} p_state(z/c) and upper symbol the a0'-Husimi
    density of sigma.  Both integrals are pulled back to the base grid by
    the substitution z -> c z (jacobian c^2), so no enlarged grid is needed.
    """
    c, grid = fields.c, fields.grid
    lower = c ** 2 * grid.integrate(np.asarray(f(fields.p_in / c ** 2)))
    middle = trace_functional(fields.spectrum, f)
    upper = c ** 2 * grid.integrate(np.asarray(f(fields.p_bar_scaled)))
    return BerezinLiebReport(lower=lower, middle=middle, upper=upper, c=c,
                             functional=f.label)


@dataclass(frozen=True)
class ConvolutionReport:
    sup_deviation: float
    c: float


def convolution_check(fields: BerezinLiebFields) -> ConvolutionReport:
    """Identity  p_bar(z) = c^{-2} (p_state * q_{a0'/c^2})(z/c).

    The left side is the upper symbol evaluated at the rescaled nodes c u;
    the right side is a lattice convolution on the base grid.  Returns the
    sup-norm deviation over the grid disc.
    """
    c = fields.c
    dev = np.abs(fields.p_bar_scaled - c ** -2 * fields.smoothed)[fields.grid.mask].max()
    return ConvolutionReport(sup_deviation=float(dev), c=c)


def smooth_field(p_in: np.ndarray, c: float, a0p: float,
                 grid: PhaseSpaceGrid) -> np.ndarray:
    """(p_in * q_{a0'/c^2})(z) on the grid, by FFT lattice convolution: the
    full linear convolution of the two grid-shaped fields, zero-padded to fast
    real-FFT lengths, cropped to its centred window of the grid's shape."""
    kernel = normal_density(_as_reference(a0p).a0 / c ** 2, grid).values
    padded = [next_fast_len(2 * n - 1) for n in p_in.shape]
    conv = np.fft.irfft2(np.fft.rfft2(p_in, padded) * np.fft.rfft2(kernel, padded), padded)
    return conv[tuple(slice((n - 1) // 2, (n - 1) // 2 + n) for n in p_in.shape)] * grid.weight


def smoothing_deviation(fields: BerezinLiebFields, f: ConcaveFunctional) -> float:
    """| int f(p) - int f(p * q_{a0'/c^2}) |, the quantity driven to zero by
    large c in the smoothing limit."""
    grid = fields.grid
    return abs(grid.integrate(np.asarray(f(fields.p_in)))
               - grid.integrate(np.asarray(f(fields.smoothed))))


def wehrl_optimality_test(a0: float, n_samples: int, seed: int,
                          grid: PhaseSpaceGrid, f: ConcaveFunctional,
                          probe_dim: int = 16, cutoff: int | None = None,
                          threads: int = 1) -> OptimalityReport:
    """Classical-functional minimality of coherent states.

    Evaluates int f(p_rho) for Fock probes and Haar samples (bounded
    occupation) against the vacuum-input value, which equals the value of
    every coherent input by translation invariance.  The inputs (indices 0-2
    the vacuum, fock(1), fock(2), then the samples) are evaluated in groups
    of :data:`WEHRL_GROUP` states, one :func:`husimi_density` call per group.
    """
    cutoff = cutoff or max(2 * probe_dim, 32)
    space = fock.FockSpace(1, cutoff)

    def evaluate(indices) -> list[tuple[float, float]]:
        group = [fock.number_state(space, index) if index < 3 else fock.random_pure_state(
            [int(seed), index - 3], space, support=probe_dim) for index in indices]
        return [(classical_functional(field, f), field.tail_mass)
                for field in husimi_density(group, a0, grid)]

    total = 3 + n_samples
    groups = [range(start, min(start + WEHRL_GROUP, total))
              for start in range(0, total, WEHRL_GROUP)]
    (vacuum_value, _), *results = [r for chunk in parallel_map(evaluate, groups, threads)
                                   for r in chunk]
    labels = ([(f"fock({n})", "probe") for n in (1, 2)]
              + [(f"haar[{seed},{idx}]", str(seed)) for idx in range(n_samples)])
    rows = tuple(SampleRow(seed=seed_tag, label=label, functional=f.label, value=value,
                           gap=value - vacuum_value, leakage=tail)
                 for (label, seed_tag), (value, tail) in zip(labels, results))
    best = min(rows, key=lambda row: row.value)
    return OptimalityReport(vacuum_value=vacuum_value, best_sampled_value=best.value,
                            best_input_descriptor=best.label, gap=best.gap,
                            samples=n_samples, seed=seed, functional=f.label,
                            rejected=0, rows=rows)


def field_to_csv(field: HusimiField, path) -> None:
    """Dump (x, y, p) rows over the grid disc for external plotting."""
    grid = field.grid
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "p"])
        xs = grid.axis
        for i in range(xs.size):
            for j in range(xs.size):
                if grid.mask[i, j]:
                    writer.writerow([repr(float(xs[i])), repr(float(xs[j])),
                                     repr(float(field.values[i, j]))])
