"""Generalized Husimi densities and Wehrl-type classical functionals.

One-mode phase-space layer: densities ``p_rho(z) = Tr rho D(z) rho0 D(z)*``
against the measure ``d^2z / pi`` (``rho0`` a gauge-invariant Gaussian
reference, the vacuum giving the ordinary Husimi function), concave
classical functionals by grid quadrature, the measure-reprepare channel,
its smoothing/convolution identity, and the generalized Berezin-Lieb
sandwich.

There is one evaluator, :func:`husimi_values`, of the vacuum-reference
density ``<z|rho|z>`` in closed form at any node, so arbitrary node sets
(including the rescaled ones used by the sandwich and convolution checks)
need no interpolation.  A pure state is evaluated on the coherent columns
``<m|D(z)|0>``.  An operator is evaluated in polar form, by gauge
covariance: ``Q(r e^{i theta}) = sum_k e^{ik theta} g_k(r)`` with one radial
function per occupied diagonal k, taken at the distinct radii of the nodes,
and no eigensolve.  Both read one radial table ``e^{-r^2/2} r^n / sqrt(n!)``
built in log space.  A lattice ``x[:, None] + 1j * x[None, :]`` with a
symmetric axis (``x == -x[::-1]``, checked exactly; ``c * grid.nodes`` is
one) is folded onto its wedge ``0 <= y <= x``: the quarter turn
``z -> i z`` is the gauge rotation ``e^{i pi N/2}`` and ``z -> conj(z)`` is
conjugation, so every node is one of the 8 images ``i^q w``,
``conj(i^q w)`` of a wedge node ``w``.  Coherent columns are built at the
wedge only, with the 8 images as phased amplitude columns of one product,
and operators take their distinct radii from the wedge.  What depends on
the lattice alone (its images, the node-to-image map, the distinct wedge
radii and each node's index among them) is one read-only plan per lattice,
cached by its exact axis; grids are cached too, both with
:data:`gausslab.fock.CACHE_SIZE` entries.  A thermal reference with
``kappa^2 = a0 + 1/2`` is reduced to it by gauge-covariant channel duality,
``p^{a0}_rho(z) = kappa^-2 Q_{L[rho]}(z / kappa)``, where ``L`` is the
quantum-limited attenuator of transmission ``1/kappa`` applied as one Fock
stage to the state itself, pure or mixed (:func:`gausslab.fock.apply_kraus`).
:func:`berezin_lieb_fields` makes one pass per input (one channel
application, one evaluation at the rescaled nodes, one smoothing) and the
sandwich and convolution checks reduce it.  The smoothing is separable: the
normal density factorizes into its x and y parts, so it is two real matrix
products with one Toeplitz matrix.  The Wehrl sweep draws and maps its
inputs through the one seeded sampling pass of the Fock sweeps
(:func:`gausslab.majorization.sampling_pass`), each sample labelled by the
seed tuple it is drawn from, and evaluates each chunk of them with one
:func:`husimi_density` call.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fock
from ._linalg import log_factorial, poisson_cdf, readonly
from .channels import GaugeCovariantChannel, build_channel
from .errors import (
    DimensionMismatch,
    InvalidState,
    ParameterOutOfRange,
    QuadratureError,
    TailMassTooLarge,
    TruncationLeakage,
)
from .majorization import ConcaveFunctional, OptimalityReport, sampling_pass, trace_functional

TAIL_BUDGET = 1e-4
NODE_CHUNK = 16384  # wedge nodes per coherent-column build, nodes per Poisson table
WEHRL_GROUP = 8  # states per chunk of the Wehrl sweep, one husimi_values call each


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

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The lattice ``axis[:, None] + 1j * axis[None, :]``, built once per
        grid and read-only."""
        return readonly(self.axis[:, None] + 1j * self.axis[None, :])

    def integrate(self, values: np.ndarray) -> float:
        return float(values[self.mask].sum() * self.weight)

    def scaled(self, c: float) -> PhaseSpaceGrid:
        """The same lattice with every node z moved to c z."""
        return PhaseSpaceGrid(radius=c * self.radius, step=c * self.step,
                              axis=c * self.axis, mask=self.mask)


@functools.lru_cache(maxsize=fock.CACHE_SIZE)
def make_grid(radius: float = 6.0, step: float = 0.05) -> PhaseSpaceGrid:
    """The grid of ``radius`` and ``step``, checked to integrate the vacuum
    density to 1 within 1e-6.  Grids are cached (:data:`fock.CACHE_SIZE`
    entries, shared by every caller, their arrays read-only); a rejected
    grid is not, so its error is raised on every call."""
    if step <= 0:
        raise QuadratureError("grid step must be positive")
    if radius / step > 400:
        raise QuadratureError(f"radius/step = {radius / step:.0f} exceeds 400 per axis")
    n = int(round(radius / step))
    axis = readonly(step * np.arange(-n, n + 1))
    r = np.abs(axis[:, None] + 1j * axis[None, :])
    grid = PhaseSpaceGrid(radius=float(radius), step=float(step), axis=axis,
                          mask=readonly(r <= radius + 1e-12))
    norm = grid.integrate(np.exp(-r ** 2))
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


def _radial_rows(r: np.ndarray, dim: int):
    """The rows n < dim of T[n, i] = e^{-r_i^2/2} r_i^n / sqrt(n!) at radii
    r_i >= 0, one at a time.

    Each row is one real exp of its logarithm, finite where the factor
    e^{-r^2/2} alone underflows (r^2/2 > 745); at r = 0 the logarithm
    ln r = -inf makes every row n > 0 exactly 0.
    """
    with np.errstate(divide="ignore"):
        logr = np.log(r)
    half_r2 = -0.5 * r ** 2
    half_log_factorial = 0.5 * log_factorial(np.arange(dim))
    yield np.exp(half_r2)
    for n in range(1, dim):
        yield np.exp(half_r2 + n * logr - half_log_factorial[n])


def _coherent_columns(z_flat: np.ndarray, dim: int) -> np.ndarray:
    """phi_0[i, m] = <m| D(z_i) |0> = e^{-|z|^2/2} z^m / sqrt(m!): the
    :func:`_radial_rows` at |z| times the running product u^m, u = z/|z|
    (u = 0 at z = 0)."""
    r = np.abs(z_flat)
    u = z_flat / np.where(r > 0, r, 1.0)
    cols = np.empty((dim, z_flat.size), dtype=np.complex128)
    phase = np.ones(z_flat.size, dtype=np.complex128)
    for row, magnitude in zip(cols, _radial_rows(r, dim)):
        np.multiply(phase, magnitude, out=row)
        phase *= u
    return cols.T


def _diagonals(rho: fock.FockOperator) -> np.ndarray:
    """D[n, k] = h[n, n + k] sqrt(n! / (n + k)!) for n < s and k < w, read
    off the stored diagonals of rho (box s, width w), where
    h = (rho + rho^dag) / 2 and D is zero past the box (n + k >= s), as
    are the stored entries there.  rho[n + k, n] is Y[w - 1 - k, n + k]:
    the rows of offsets -k shifted left by k, read as one strided view of
    a zero-padded copy."""
    Y, (box,), (width,) = rho.diagonals, rho.boxes, rho.widths
    padded = np.zeros((width, box + width), dtype=np.complex128)
    padded[:, :box] = Y[width - 1::-1]
    row, col = padded.strides
    lower = np.ndarray((box, width), padded.dtype, padded, 0, (col, row + col))
    half_log_factorial = 0.5 * log_factorial(np.arange(box + width))
    n, k = np.arange(box)[:, None], np.arange(width)
    out = np.add(Y[width - 1:].T, lower.conj(), out=np.empty((box, width), np.complex128))
    out *= 0.5
    out *= np.exp(half_log_factorial[n] - half_log_factorial[n + k])
    return out


def _polar_values(diagonals: np.ndarray, poisson: np.ndarray, inv: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
    """Q(z) = <z|rho|z> = Re G_0(r) + 2 Re sum_{k>=1} G_k(r) z^k at nodes z.

    ``poisson`` is the table P[n, i] = e^{-r_i^2} r_i^{2n} / n! at distinct
    radii r_i, and node j has radius r_{inv[j]}.  G = P^T D, D the
    :func:`_diagonals` of rho, is one real product on D's float64 view, and
    the sum over k is Horner's scheme in z over the rows of G^T."""
    s, w = diagonals.shape
    g = (poisson[:s].T @ diagonals.view(np.float64)).view(np.complex128).T.copy()
    values = g[0].real[inv]
    if w > 1:
        acc = g[w - 1][inv]
        for k in range(w - 2, 0, -1):
            acc *= z
            acc += g[k][inv]
        acc *= z
        values += 2.0 * acc.real
    return values


# (-i)^k by k mod 4: <m|D(i^q w)|0> is (i^q)^m <m|D(w)|0>, and the columns are
# taken at conjugated nodes
_QUARTER_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])


@dataclass(frozen=True)
class _NodePlan:
    """What :func:`husimi_values` derives from its nodes alone, read-only.

    ``images`` are flat node indices (images, W): row 0 the wedge, the
    nodes at which coherent columns are built and whose radii are sorted,
    every other row a symmetry image of them with the same radii.  ``source``
    maps each flat node to the flat index, in ``images``, of one image that
    lands on it.  Each
    of ``chunks`` is a slice of :data:`NODE_CHUNK` flat nodes, the distinct
    wedge radii its nodes take, ascending, and each node's index among them.
    """

    images: np.ndarray
    source: np.ndarray
    chunks: tuple[tuple[slice, np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, z_flat: np.ndarray, images: np.ndarray) -> _NodePlan:
        source = np.empty(z_flat.size, dtype=np.intp)
        source[images.ravel()] = np.arange(images.size)
        # the distinct radii come from one sort of the wedge's, which are
        # also those of its images, and each node's index from its wedge node
        radii, inv = np.unique(np.abs(z_flat[images[0]]), return_inverse=True)
        radius = np.empty(z_flat.size, dtype=np.intp)
        radius[images] = inv
        chunks = []
        for start in range(0, z_flat.size, NODE_CHUNK):
            sl = slice(start, start + NODE_CHUNK)
            present = np.zeros(radii.size, dtype=bool)
            present[radius[sl]] = True
            chunks.append((sl, readonly(radii[present]),
                           readonly((np.cumsum(present) - 1)[radius[sl]])))
        return cls(readonly(images), readonly(source), tuple(chunks))


@functools.lru_cache(maxsize=fock.CACHE_SIZE)
def _lattice_plan(axis: bytes) -> _NodePlan:
    """The plan of the lattice on the symmetric axis x (its float64 bytes),
    cached (:data:`fock.CACHE_SIZE` entries).

    Negating an axis entry is reversing the axis, so the 8 rows of its
    images hold the nodes i^q w (row q < 4) and conj(i^q w) (row 4 + q) of
    each wedge node w exactly.  They cover every node; the wedge's edges
    (b = 0, b = a and the centre) appear in several rows.
    """
    x = np.frombuffer(axis)
    n, centre = x.size, x.size // 2
    a = np.repeat(np.arange(n - centre), np.arange(1, n - centre + 1))
    b = np.arange(a.size) - a * (a + 1) // 2  # 0 <= b <= a, a-major
    a, b = a + centre, b + centre
    ma, mb = n - 1 - a, n - 1 - b  # the axis indices of -x[a], -x[b]
    an, bn, man, mbn = a * n, b * n, ma * n, mb * n
    images = np.empty((8, a.size), dtype=np.intp)
    for row, (i, j) in zip(images, (
            (an, b), (mbn, a), (man, mb), (bn, ma),  # w, i w, -w, -i w
            (an, mb), (mbn, ma), (man, b), (bn, a))):  # their conjugates
        np.add(i, j, out=row)
    return _NodePlan.build((x[:, None] + 1j * x[None, :]).ravel(), images)


def _node_plan(z: np.ndarray) -> _NodePlan:
    """The plan of the nodes ``z``.

    A lattice ``z = x[:, None] + 1j * x[None, :]`` whose axis is symmetric
    (``x == -x[::-1]``), both checked exactly, folds onto its wedge, the W
    nodes at axis offsets 0 <= b <= a from the centre, and has its cached
    :func:`_lattice_plan`.  Any other node array, including one with a
    non-finite node, is its own wedge, with one row of images, and gets a
    plan built for this call alone."""
    if z.ndim == 2 and z.shape[0] == z.shape[1]:
        x = z.real[:, 0]
        if (np.array_equal(x, -x[::-1]) and (z.real == x[:, None]).all()
                and (z.imag == x[None, :]).all()):
            return _lattice_plan(x.tobytes())
    return _NodePlan.build(z.ravel(), np.arange(z.size)[None, :])


def _image_amplitudes(stacked: np.ndarray, images: int) -> np.ndarray:
    """The amplitude columns whose products with the columns at conj(w)
    give <v|psi> at every image v of w, state-major: a_m (-i)^{qm} for
    v = i^q w, then conj(a_m) (-i)^{qm} for v = conj(i^q w); no phase at all
    when the only image is w itself."""
    if images == 1:
        return stacked
    phases = _QUARTER_PHASES[np.outer(np.arange(len(stacked)), np.arange(4)) % 4]
    return np.concatenate([stacked[:, :, None] * phases[:, None, :],
                           stacked.conj()[:, :, None] * phases[:, None, :]],
                          axis=2).reshape(len(stacked), -1)


def husimi_values(state, ref, z_nodes: np.ndarray) -> np.ndarray:
    """p(z) = Tr[state . D(z) rho0 D(z)*] at arbitrary complex nodes.

    ``state`` is one state, or a sequence of pure or mixed states on one
    space, which gives one row of values per state.

    A lattice (a square node array ``x[:, None] + 1j * x[None, :]`` with
    ``x == -x[::-1]``, such as ``c * grid.nodes``) is folded onto its wedge
    0 <= y <= x by gauge covariance: a quarter turn z -> i z is the gauge
    rotation e^{i pi N/2} and z -> conj(z) is conjugation, so every node is
    one of the 8 images i^q w, conj(i^q w) of a wedge node w.  What the
    evaluation derives from a lattice alone, its images among them, is its
    cached :func:`_lattice_plan` (:func:`_node_plan`).  Any other node array
    is its own wedge, with one image, and its plan is built for the call and
    not kept.

    - Pure states are evaluated on coherent columns.  Per chunk of
      :data:`NODE_CHUNK` wedge nodes the columns <m|D(w)|0>, cropped to the
      highest occupied level, are built once and multiplied with the
      amplitudes of every pure state in each of its 8 gauge images
      (:func:`_image_amplitudes`), stacked as the columns of one product;
      every node then reads its value off one image that lands on it.
    - Operators are evaluated in polar form at every node, by gauge
      covariance: Q(r e^{i theta}) = sum_{|k|<w} e^{ik theta} g_k(r) over
      the w occupied diagonals (:func:`_polar_values`).  The plan holds the
      distinct radii of each chunk of :data:`NODE_CHUNK` nodes and each
      node's index among them.  Per chunk a Poisson table is built once at
      those radii, and each operator is one product of it with its
      weighted diagonals.  There is no eigensolve.

    A thermal reference reduces to the vacuum one by attenuator duality:
    p(z) = kappa^-2 Q_{L[state]}(z / kappa) with kappa^2 = a0 + 1/2, where L
    is the quantum-limited attenuator of transmission 1/kappa and Q the
    vacuum-reference density <w| . |w>.  The attenuated states are
    operators, so a thermal reference always takes the polar form; z / kappa
    is a lattice when z is.

    Raises InvalidState on a non-finite amplitude, operator entry or node,
    and on a density above 1 + 1e-8 or below -1e-8; round-off negatives
    above -1e-8 are set to 0.
    """
    ref = _as_reference(ref)
    batch = not isinstance(state, (fock.PureState, fock.FockOperator))
    states = list(state) if batch else [state]
    space = states[0].space
    if space.modes != 1:
        raise DimensionMismatch("husimi evaluation is one-mode")
    if any(s.space != space for s in states):
        raise DimensionMismatch("batched husimi evaluation needs states on one space")
    if not all(np.isfinite(s.amplitudes if isinstance(s, fock.PureState) else s.diagonals).all()
               for s in states):
        raise InvalidState("husimi evaluation of a state with a non-finite entry")
    z_flat = np.asarray(z_nodes, dtype=np.complex128).ravel()
    if not np.isfinite(z_flat).all():
        raise InvalidState("husimi evaluation at a non-finite node")
    scale = 1.0
    if ref.n_mean > 0:
        kappa = float(np.sqrt(ref.a0 + 0.5))
        attenuator = fock.attenuator_kraus(1.0 / kappa, space)
        states = [fock.apply_kraus(attenuator, s) for s in states]
        z_flat, scale = z_flat / kappa, kappa ** -2
    plan = _node_plan(z_flat.reshape(np.shape(z_nodes)))
    images = plan.images
    out = np.empty((len(states), z_flat.size))
    pure = [row for row, s in enumerate(states) if isinstance(s, fock.PureState)]
    if pure:
        stacked = np.stack([states[row].amplitudes for row in pure], axis=1)
        stacked = stacked[:1 + int(np.flatnonzero(stacked.any(axis=1)).max(initial=0))]
        amplitudes = _image_amplitudes(stacked, len(images)).T
        imaged = np.empty((len(pure),) + images.shape)  # (state, image, wedge node)
        for start in range(0, images.shape[1], NODE_CHUNK):
            wedge = z_flat[images[0, start:start + NODE_CHUNK]]
            block = imaged[:, :, start:start + NODE_CHUNK]
            # columns at conj(w) are the conjugated <m|D(w)|0>
            product = (amplitudes @ _coherent_columns(wedge.conj(), len(stacked)).T).reshape(
                block.shape)
            np.square(product.real, out=block)
            block += np.square(product.imag)
        # each node reads one of the images that land on it
        out[pure] = imaged.reshape(len(pure), -1).take(plan.source, axis=1)
    operators = [(row, _diagonals(s)) for row, s in enumerate(states)
                 if isinstance(s, fock.FockOperator)]
    if operators:
        box = max(diagonals.shape[0] for _, diagonals in operators)
        for sl, radii, inv in plan.chunks:
            poisson = np.empty((box, radii.size))
            for level, magnitude in zip(poisson, _radial_rows(radii, box)):
                np.square(magnitude, out=level)
            for row, diagonals in operators:
                out[row, sl] = _polar_values(diagonals, poisson, inv, z_flat[sl])
    out *= scale
    for values in out:
        if not values.max(initial=0.0) <= 1.0 + 1e-8:
            raise InvalidState(f"husimi density exceeds 1: max {values.max():.6f}")
        if not values.min(initial=0.0) >= -1e-8:
            raise InvalidState(f"husimi density is negative: min {values.min():.3e}")
    np.maximum(out, 0.0, out=out)
    return out.reshape(out.shape[:batch] + np.shape(z_nodes))


def _occupation_probabilities(state) -> np.ndarray:
    if isinstance(state, fock.PureState):
        return np.abs(state.amplitudes) ** 2
    diagonal = np.real(state.diagonals[state.widths[0] - 1])  # the box's, zero past it
    return np.clip(np.pad(diagonal, (0, state.space.cutoff - diagonal.size)), 0.0, None)


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


def husimi_density(state, ref, grid: PhaseSpaceGrid):
    """Generalized Husimi density of a one-mode state on the grid, a
    :class:`HusimiField`; a sequence of states gives a list of fields, every
    tail mass checked against :data:`TAIL_BUDGET`, in order, before one
    :func:`husimi_values` call.

    With the vacuum reference (a0 = 1/2) this is exactly <z|rho|z>.
    """
    ref = _as_reference(ref)
    batch = not isinstance(state, (fock.PureState, fock.FockOperator))
    states = list(state) if batch else [state]
    tails = [estimate_tail_mass(s, ref, grid) for s in states]
    for tail in tails:
        if tail > TAIL_BUDGET:
            raise TailMassTooLarge(
                f"estimated off-grid mass {tail:.2e} exceeds budget {TAIL_BUDGET:.1e}"
            )
    values = husimi_values(states if batch else state, ref, grid.nodes)
    fields = [HusimiField(grid, v, tail) for v, tail in zip(values if batch else [values], tails)]
    return fields if batch else fields[0]


def classical_functional(field: HusimiField, f: ConcaveFunctional) -> float:
    """Quadrature of f(p(z)) against d^2z/pi over the grid disc.

    Requires f(0) = 0 so the off-grid tail contributes only through the
    (budgeted) tail mass."""
    return float(np.sum(f(field.values[field.grid.mask])) * field.grid.weight)


def measure_reprepare_channel(c: float, a0: float = 0.5,
                              a0p: float = 0.5) -> GaugeCovariantChannel:
    """Heterodyne-measure-then-reprepare channel: K = c, mu = a0' + c^2 a0."""
    if c <= 0:
        raise ParameterOutOfRange("scaling constant c must be positive")
    ref = _as_reference(a0)
    refp = _as_reference(a0p)
    return build_channel(np.array([[c]]), np.array([[refp.a0 + c ** 2 * ref.a0]]))


def _measure_reprepare_output(state, c: float, a0: float, a0p: float,
                              cutoff: int) -> fock.FockOperator:
    space = fock.FockSpace(1, cutoff)
    realized = fock.realize_channel(measure_reprepare_channel(c, a0, a0p), space)
    if state.space.cutoff != cutoff:  # crop or pad the amplitudes or the operator
        x = state.amplitudes if isinstance(state, fock.PureState) else state.matrix
        m = min(state.space.cutoff, cutoff)
        state = type(state)(space, np.pad(x[(slice(m),) * x.ndim], [(0, cutoff - m)] * x.ndim))
    out = realized.apply(state)
    lk = fock.leakage(out)
    if lk > TAIL_BUDGET:
        raise TruncationLeakage(
            f"measure-reprepare output leaks {lk:.2e} > {TAIL_BUDGET:.1e}; raise the cutoff"
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
                        cutoff: int = 128) -> BerezinLiebFields:
    """One pass: one channel application, the input density on the grid, the
    output density at the rescaled nodes and one smoothing, for the sandwich
    and the convolution identity to reduce."""
    p_in = husimi_values(state, a0, grid.nodes)
    total = grid.integrate(p_in)
    if abs(total - 1.0) > 1e-3:
        raise QuadratureError(f"lower-symbol mass on the grid is {total!r}, expected 1")
    sigma = _measure_reprepare_output(state, c, a0, a0p, cutoff)
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


# smoothing offsets below this are set to zero: a product of two numbers
# below it is subnormal
_SUBNORMAL_PRODUCTS = np.sqrt(np.finfo(float).tiny)


def smooth_field(p_in: np.ndarray, c: float, a0p: float,
                 grid: PhaseSpaceGrid) -> np.ndarray:
    """(p_in * q_{a0'/c^2})(z) on the grid, the lattice convolution of the
    input with the normal density, as the separable product T p_in T^T:
    q_a(z) = e^{-|z|^2/2a} / 2a factorizes into its x and y parts, so T is
    the n x n Toeplitz matrix T[i, j] = e^{-(step (i - j))^2 / 2a}, one
    strided view of its 2n - 1 offsets.  Offsets below sqrt(tiny), about
    1e-154, are set to zero: their products with the field would be
    subnormal, and subnormal arithmetic is about 100x slower."""
    a = _as_reference(a0p).a0 / c ** 2
    n = p_in.shape[0]
    offsets = np.exp(-(grid.step * np.arange(1 - n, n)) ** 2 / (2.0 * a))
    offsets[offsets < _SUBNORMAL_PRODUCTS] = 0.0
    toeplitz = sliding_window_view(offsets, n)[::-1]  # [i, j] = offsets[n - 1 - i + j]
    return toeplitz @ p_in @ toeplitz.T * (grid.weight / (2.0 * a))


def wehrl_optimality_test(a0: float, n_samples: int, seed: int,
                          grid: PhaseSpaceGrid, f: ConcaveFunctional,
                          probe_dim: int = 16, threads: int = 1) -> OptimalityReport:
    """Classical-functional minimality of coherent states.

    Evaluates int f(p_rho) for Fock probes and Haar samples (bounded
    occupation) against the vacuum-input value, which equals the value of
    every coherent input by translation invariance.  The inputs go through
    the one :func:`gausslab.majorization.sampling_pass`: the vacuum, fock(1)
    and fock(2) fixed, then the samples ``haar[seed,index]``, each drawn from
    its label's seed tuple on ``probe_dim`` levels, at cutoff
    max(2 probe_dim, 32), in chunks of :data:`WEHRL_GROUP` states, one
    :func:`husimi_density` call per chunk.  A pure state on its own space
    loses nothing to the Fock cutoff, so nothing is redrawn, and an input
    over the tail budget raises TailMassTooLarge.
    """
    space = fock.FockSpace(1, max(2 * probe_dim, 32))

    def evaluate(states) -> tuple[list[tuple[float, float]], np.ndarray]:
        results = [(classical_functional(field, f), field.tail_mass)
                   for field in husimi_density(states, a0, grid)]
        return results, np.zeros(len(results))

    fixed = [fock.vacuum_state(space)] + [fock.number_state(space, n) for n in (1, 2)]
    results, _, labels, rejected = sampling_pass(evaluate, fixed, "haar", seed, n_samples,
                                                 space, probe_dim, threads, WEHRL_GROUP)
    (vacuum_value, _), *rows = results.tolist()
    values, tails = zip(*rows)
    inputs = [("probe", f"fock({n})") for n in (1, 2)] + [(str(seed), tag) for tag in labels]
    return OptimalityReport.from_values(vacuum_value, values, tails, inputs, seed, f.label,
                                        rejected)


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
