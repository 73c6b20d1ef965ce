"""Truncated number-basis simulator.

Brute-force oracle for the closed forms in :mod:`gausslab.states`:
coherent and thermal states, one-mode quantum-limited
attenuator/amplifier channels realized through unitary dilations
(beamsplitter and two-mode squeezer with vacuum ancilla), gauge rotations,
transposition, complementary outputs, and exact output spectra.

Both quantum-limited channels have closed-form Kraus operators with the
ancilla vacuum in and ``|l>`` out (Mari-Giovannetti-Holevo, Nat. Commun. 5,
3826 (2014)): the attenuator of transmission k has
``A_l[n-l, n] = (-1)^l sqrt(C(n, l)) k^(n-l) (1 - k^2)^(l/2)`` (the sign of
the beamsplitter dilation), the amplifier of gain kappa has
``A_l[n+l, n] = sqrt(C(n+l, l)) kappa^-(n+1) (1 - kappa^-2)^(l/2)``.  Both
are evaluated in log space, and the amplifier bands are exact up to the
cutoff, where they are cropped.  The complementary output and the dilation
marginals read the same amplitudes past the cutoff.

Gauge covariance organizes the channel layer.  Each Kraus operator of a
quantum-limited stage is one band, ``A_l |n> = c_l[n] |n -/+ l>``, and the
bands do not overlap, so a stage is stored as its band sum
``G = sum_l A_l``: A_l is the diagonal -/+l of G.  A gauge-covariant channel
maps each diagonal ``rho[n, n+k]`` into the same output diagonal, so a
channel given per mode as a gauge phase and its stages (attenuator, then
amplifier) acts diagonal by diagonal: the phase multiplies diagonal k by
``e^{-i phase k}`` and each stage multiplies it by a matrix read off G.
Band sums sit in an LRU cache.

Operators are stored the same way.  A :class:`FockOperator` holds its
occupied photon-number diagonals ``Y[k, x] = rho[x, x + k]`` over per-mode
offsets |k_j| < w_j and rows x_j < b_j, with the box b and the width w of
each mode; every entry outside them is zero.  An input occupying the first
s levels of a mode has box and width at most s there.  The stage kernel maps
Y to the output's Y: a mode's stages act on its axes (k_j, x_j) as one real
batched product, with the other modes' axes as columns, and the width is
kept; the amplifier fills the box to the cutoff, the attenuator keeps it.
Consumers read Y: the leakage sums its k = 0 diagonal, trace powers are sums
over it and its banded square, and spectra check and symmetrize it on the
diagonals, then eigensolve the dense block of the box alone and pad it with
zeros.  The dense matrix is derived on demand.  An
operator built from a dense matrix outside the kernel (thermal states,
probes, tests) is read into that form by one scan of its nonzero mask.
A batch of pure states goes through the kernel as one stack: their
densities share the batch's largest box and width and are stacked along a
trailing sample axis of Y, which the kernel carries as more columns, and
:func:`spectrum` returns one row per sample.

Truncation policy: operations report the trace deficit (leakage) and never
renormalize silently; callers enforce their own leakage budgets.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._linalg import log_factorial, readonly, unitary_expm, xlogy
from .channels import GaugeCovariantChannel
from .errors import (
    AmplitudeTooLarge,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidState,
    NotDiagonal,
    NotHermitian,
    ParameterOutOfRange,
)

DIM_GUARD = 4096
# entries per LRU cache; one verdict or criterion uses at most six.  A Kraus
# entry holds at most 5 d^2 floats: its band sum and that tiled 2 x 2.
CACHE_SIZE = 8


@dataclass(frozen=True)
class FockSpace:
    """Truncated Fock space: 1 or 2 modes, ``cutoff`` levels per mode."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise DimensionMismatch("only 1- or 2-mode Fock spaces are supported")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.cutoff ** self.modes > DIM_GUARD:
            raise DimensionTooLarge(
                f"total dimension {self.cutoff ** self.modes} exceeds guard {DIM_GUARD}"
            )

    @property
    def dim(self) -> int:
        return self.cutoff ** self.modes


@dataclass(frozen=True)
class PureState:
    space: FockSpace
    amplitudes: np.ndarray


class FockOperator:
    """An operator on a Fock space, stored as its occupied photon-number
    diagonals: ``diagonals[k..., x...] = rho[x, x + k]`` (read-only), with
    one offset axis per mode first, index i for offset k_j = i - (w_j - 1),
    |k_j| < w_j, then one row axis per mode, x_j < b_j.  ``boxes`` are the
    b_j and ``widths`` the w_j; every entry of rho outside them is zero, and
    so is every stored entry whose column x + k leaves the box.  Regrouping
    the offset axes by k_1 + k_2 gives the total-photon-number offsets.
    A stack of operators, the output of :meth:`FockChannel.apply` on a
    sequence of pure states, carries one more axis, the sample, last; only
    :func:`spectrum` reads stacks.

    ``FockOperator(space, matrix)`` reads a dense matrix into this form with
    one :func:`_structure` scan; channel outputs come from
    :meth:`from_diagonals`.  :attr:`matrix` is derived on each access."""

    __slots__ = ("space", "diagonals", "boxes", "widths")

    def __init__(self, space: FockSpace, matrix):
        m = np.ascontiguousarray(matrix, dtype=np.complex128)
        if m.shape != (space.dim, space.dim):
            raise DimensionMismatch(f"expected a {space.dim} x {space.dim} matrix, got {m.shape}")
        boxes, widths = _structure(m, space)
        block = m.reshape((space.cutoff,) * (2 * space.modes))[
            tuple(slice(b) for b in boxes) * 2]
        self._set(space, _gather(block, widths), boxes, widths)

    @classmethod
    def from_diagonals(cls, space: FockSpace, diagonals: np.ndarray,
                       boxes: tuple[int, ...], widths: tuple[int, ...]) -> FockOperator:
        op = cls.__new__(cls)
        op._set(space, diagonals, boxes, widths)
        return op

    def _set(self, space, diagonals, boxes, widths):
        self.space, self.diagonals = space, readonly(diagonals)
        self.boxes, self.widths = tuple(boxes), tuple(widths)

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix, built anew on each access."""
        d, modes = self.space.cutoff, self.space.modes
        out = np.zeros((d,) * (2 * modes), dtype=np.complex128)
        out[tuple(slice(b) for b in self.boxes) * 2] = _box_block(
            self.diagonals, self.boxes, self.widths).reshape(self.boxes * 2)
        return out.reshape(self.space.dim, self.space.dim)


@dataclass(frozen=True)
class OneModeChannelKraus:
    """Kraus list of a one-mode quantum-limited channel in the number basis,
    as its band sum G = sum_l A_l (real, read-only).  The bands do not
    overlap: A_l is the diagonal of G below (amplifier) or above
    (attenuator) the main one by l, cropped to the cutoff.  ``parameter`` is
    the attenuation k or the gain kappa."""

    kind: str  # "attenuator" | "amplifier"
    parameter: float
    space: FockSpace
    band_sum: np.ndarray  # (cutoff, cutoff)

    @functools.cached_property
    def rolled_band_sum(self) -> np.ndarray:
        """W, read-only: the rolled view W[k, i, j] = G[(k+i) % d, (k+j) % d]
        of one copy of G tiled 2 x 2 (4 d^2 entries).  The kernel multiplies
        W by G itself, contiguous: 1.3x (d = 40) to 1.6x (d = 128) faster
        than by the strided corner of the tiled copy."""
        d = self.space.cutoff
        tiled = readonly(np.tile(self.band_sum, (2, 2)))
        row, col = tiled.strides
        return as_strided(tiled, (d, d, d), (row + col, row, col), writeable=False)


def pure_state(space: FockSpace, amplitudes, normalize: bool = False) -> PureState:
    amp = np.asarray(amplitudes, dtype=np.complex128).ravel()
    if amp.size != space.dim:
        raise DimensionMismatch(f"expected {space.dim} amplitudes, got {amp.size}")
    norm = np.linalg.norm(amp)
    if normalize:
        amp = amp / norm
    elif abs(norm - 1.0) > 1e-10:
        raise InvalidState(f"state norm {norm!r} differs from 1 beyond 1e-10")
    return PureState(space=space, amplitudes=amp)


def vacuum_state(space: FockSpace) -> PureState:
    amp = np.zeros(space.dim, dtype=np.complex128)
    amp[0] = 1.0
    return PureState(space=space, amplitudes=amp)


def number_state(space: FockSpace, occupation) -> PureState:
    """|n> on one mode, |n_1, ..., n_M> (one occupation per mode) on M modes;
    an occupation outside the space raises ParameterOutOfRange."""
    levels = tuple(int(n) for n in np.atleast_1d(occupation))
    try:
        idx = np.ravel_multi_index(levels, (space.cutoff,) * space.modes)
    except ValueError:
        raise ParameterOutOfRange(
            f"occupation {levels} lies outside {space.modes} mode(s) of {space.cutoff} levels"
        ) from None
    amp = np.zeros(space.dim, dtype=np.complex128)
    amp[idx] = 1.0
    return PureState(space=space, amplitudes=amp)


def density(psi: PureState) -> FockOperator:
    return FockOperator(space=psi.space, matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()))


def coherent_state(zeta: complex, space: FockSpace) -> PureState:
    """Coherent vector with amplitudes e^{-|z|^2/2} z^n / sqrt(n!), renormalized.

    Guard: |zeta|^2 <= cutoff/4 keeps the truncated tail below ~1e-8.
    """
    if space.modes != 1:
        raise DimensionMismatch("coherent_state is one-mode; tensor states explicitly")
    zeta = complex(zeta)
    if abs(zeta) ** 2 > space.cutoff / 4.0:
        raise AmplitudeTooLarge(
            f"|zeta|^2 = {abs(zeta)**2:.3f} exceeds cutoff/4 = {space.cutoff / 4.0}"
        )
    n = np.arange(space.cutoff)
    if zeta == 0:
        return vacuum_state(space)
    logmag = -0.5 * abs(zeta) ** 2 + n * np.log(abs(zeta)) - 0.5 * log_factorial(n)
    amp = np.exp(logmag) * np.exp(1j * n * np.angle(zeta))
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > 1e-8:
        raise AmplitudeTooLarge(f"truncated coherent state lost {1 - norm:.2e} of its norm")
    return PureState(space=space, amplitudes=amp / norm)


def gauge_rotation(phi: float, space: FockSpace) -> FockOperator:
    """Diagonal e^{i n phi} in the total photon number n."""
    n = np.arange(space.cutoff, dtype=float)
    total = n if space.modes == 1 else np.add.outer(n, n).ravel()
    return FockOperator(space=space, matrix=np.diag(np.exp(1j * phi * total)))


def thermal_state(n_mean: float, space: FockSpace) -> FockOperator:
    """Fock-diagonal geometric state with mean photon number ``n_mean``.

    Raw truncated weights; the trace deficit is the thermal tail.
    """
    if space.modes != 1:
        raise DimensionMismatch("thermal_state is one-mode")
    if n_mean < 0:
        raise ParameterOutOfRange("mean photon number must be >= 0")
    n = np.arange(space.cutoff, dtype=float)
    if n_mean == 0:
        w = np.zeros(space.cutoff)
        w[0] = 1.0
    else:
        w = np.exp(n * np.log(n_mean / (n_mean + 1.0)) - np.log(n_mean + 1.0))
    return FockOperator(space=space, matrix=np.diag(w).astype(np.complex128))


def random_pure_state(seed, space: FockSpace, support: int | None = None) -> PureState:
    """Haar-random vector on the (optionally occupation-bounded) subspace.

    ``support`` caps the per-mode occupation; amplitudes outside are zero.
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    d = space.cutoff
    s = d if support is None else min(int(support), d)
    box = (s,) * space.modes
    grid = np.zeros((d,) * space.modes, dtype=np.complex128)
    grid[tuple(map(slice, box))] = rng.standard_normal(box) + 1j * rng.standard_normal(box)
    amp = grid.ravel()
    return PureState(space=space, amplitudes=amp / np.linalg.norm(amp))


def _center(widths: tuple[int, ...]) -> tuple[int, ...]:
    """The index of offset 0 on the offset axes of a diagonal form."""
    return tuple(w - 1 for w in widths)


def leakage(rho: FockOperator) -> float:
    """Probability mass pushed past the cutoff: 1 - Tr rho, the sum of the
    k = 0 diagonal."""
    return float(1.0 - np.real(np.sum(rho.diagonals[_center(rho.widths)])))


def _padded_box(boxes: tuple[int, ...], widths: tuple[int, ...], trailing: tuple[int, ...] = ()):
    """A zero box block whose column axes are padded by w_j - 1 on both
    sides, with ``trailing`` sample axes last, and the index of the box's
    columns in it."""
    padded = np.zeros(boxes + tuple(b + 2 * w - 2 for b, w in zip(boxes, widths)) + trailing,
                      dtype=np.complex128)
    return padded, (slice(None),) * len(boxes) + tuple(
        slice(w - 1, w - 1 + b) for b, w in zip(boxes, widths))


def _diagonal_view(padded: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """V[k..., x..., s...] = padded[x..., x + k + w - 1..., s...]: the
    diagonal form's entries inside a :func:`_padded_box`, as one writeable
    strided view.  Distinct (k, x) are distinct entries, and a column that
    leaves the box lands in the padding."""
    modes = len(widths)
    strides = padded.strides
    return np.ndarray(tuple(2 * w - 1 for w in widths) + padded.shape[:modes]
                      + padded.shape[2 * modes:], padded.dtype, padded, 0,
                      strides[modes:2 * modes]
                      + tuple(strides[j] + strides[modes + j] for j in range(modes))
                      + strides[2 * modes:])


def _gather(block: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """The diagonal form of a dense box block, axes (x..., column...,
    sample...)."""
    modes = len(widths)
    padded, box = _padded_box(block.shape[:modes], widths, block.shape[2 * modes:])
    padded[box] = block
    return _diagonal_view(padded, widths).copy()


def _box_block(y: np.ndarray, boxes: tuple[int, ...], widths: tuple[int, ...]) -> np.ndarray:
    """The dense block on the box of the diagonal form y of one operator, as
    a prod(boxes)-square matrix: the inverse of :func:`_gather`, built for
    :attr:`FockOperator.matrix` and the dense square of :func:`trace_power`."""
    padded, box = _padded_box(boxes, widths)
    _diagonal_view(padded, widths)[...] = y
    size = int(np.prod(boxes))
    return padded[box].reshape(size, size)


def _structure(m: np.ndarray, space: FockSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(boxes, widths) of a contiguous complex128 matrix, from one scan of
    its nonzero mask.  Per mode j, over the nonzero entries
    m[(m_1, m_2), (n_1, n_2)]: the box is one past the highest level m_j or
    n_j that any of them touches, so every entry outside the box is zero,
    and the width is one past the largest |m_j - n_j|.  The operator is
    Fock-diagonal exactly when every width is 1; the zero operator has box
    and width 1.  Only a matrix built outside the stage kernel is scanned
    (:class:`FockOperator`).  Each entry's (real, imaginary) pair of mask
    bytes is read as one uint16, and the mask is reduced over the other
    mode's axes leading axis first (the fast order)."""
    d, modes = space.cutoff, space.modes
    nonzero = ((m.view(np.float64) != 0).view(np.uint16) != 0).reshape((d,) * (2 * modes))
    boxes, widths = [], []
    for j in range(modes):
        plane = nonzero
        for removed, axis in enumerate(a for a in range(2 * modes) if a % modes != j):
            plane = plane.any(axis=axis - removed)
        rows, cols = np.nonzero(plane)
        boxes.append(int(max(rows.max(), cols.max())) + 1 if rows.size else 1)
        widths.append(int(np.abs(rows - cols).max()) + 1 if rows.size else 1)
    return tuple(boxes), tuple(widths)


def _mirror(y: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """M[k..., x..., s...] = y[-k..., x + k..., s...] = rho[x + k, x] on the
    offsets k_1 <= 0 of the first mode (index i_1 < w_1, as in y) and all
    offsets of the others: the lower half of the diagonal form of rho^T
    (conjugated, of rho^dag), zero where x + k leaves the box.  One strided
    view of a copy of y's offsets -k, reversed, with the row axes padded by
    w_j - 1 where x + k can leave the box: below on the first mode, on both
    sides on the others."""
    modes = len(widths)
    boxes, trailing = y.shape[modes:2 * modes], y.shape[2 * modes:]
    below = tuple(w - 1 for w in widths)
    above = (0,) + below[1:]
    padded = np.zeros((widths[0],) + y.shape[1:modes]
                      + tuple(b + lo + hi for b, lo, hi in zip(boxes, below, above)) + trailing,
                      dtype=np.complex128)
    padded[(slice(None),) * modes + tuple(slice(lo, lo + b) for b, lo in zip(boxes, below))
           ] = y[(slice(None, widths[0] - 2 if widths[0] > 1 else None, -1),)
                 + (slice(None, None, -1),) * (modes - 1)]
    strides = padded.strides
    return np.ndarray(padded.shape[:modes] + boxes + trailing, padded.dtype, padded, 0,
                      tuple(strides[j] + strides[modes + j] for j in range(modes))
                      + strides[modes:])


def _checked_diagonal(diagonal: np.ndarray) -> None:
    """:func:`spectrum`'s checks on a Fock-diagonal operator's diagonal (or
    each row of a stack of them): finite, real and not below -1e-8."""
    if not np.isfinite(diagonal).all():
        raise InvalidState("operator has a non-finite entry")
    _check_spectrum(2.0 * np.abs(diagonal.imag).max(axis=-1), diagonal.real.min(axis=-1))


def _check_spectrum(defects, lowest) -> None:
    """Raise for the first operator of a stack whose Hermiticity defect
    exceeds 1e-10 or whose lowest eigenvalue is below -1e-8."""
    defects, lowest = np.atleast_1d(defects), np.atleast_1d(lowest)
    skew, negative = ~(defects <= 1e-10), ~(lowest >= -1e-8)
    bad = np.flatnonzero(skew | negative)
    if bad.size:
        first = bad[0]
        if skew[first]:
            raise NotHermitian(f"operator is not Hermitian: defect {defects[first]:.3e}")
        raise InvalidState(f"operator has eigenvalue {lowest[first]:.3e} below -1.0e-08")


def spectrum(rho: FockOperator) -> np.ndarray:
    """Real eigenvalues, descending; negatives above -1e-8 are set to 0.  A
    stack of operators gives one row per sample, each checked on its own.

    The checks run on the diagonal form, and no dense copy of rho is made:
    every stored entry is checked to be finite, and the Hermiticity defect
    max |rho - rho^dag| and the Hermitian part (rho + rho^dag) / 2 are taken
    entry by entry against the :func:`_mirror` of the diagonals, on the
    offsets k_1 <= 0 of the first mode alone: the defect at -k is that at k,
    and these offsets hold the lower triangle of the block, all that
    ``eigvalsh`` reads.  Only that Hermitian part is written into a dense
    block, that of the occupied box, one per stack, and eigensolved, the
    rest of the spectrum being zeros.
    The two-mode output of a support-s input behind an attenuator on one
    mode is an s d block, not d^2.  An operator whose entries off the
    diagonal are all zero is read off its diagonal, with no eigensolve; in a
    stack the others share one stacked eigensolve.  Raises InvalidState on a
    non-finite entry or an eigenvalue below -1e-8, NotHermitian on a
    Hermiticity defect above 1e-10."""
    y, boxes, widths = rho.diagonals, rho.boxes, rho.widths
    stacked = y.ndim > 2 * rho.space.modes
    if not stacked:
        y = y[..., None]
    if not np.isfinite(y).all():
        raise InvalidState("operator has a non-finite entry")
    samples, size = y.shape[-1], int(np.prod(boxes))
    center = _center(widths)
    if stacked and max(widths) > 1:  # which samples have entries off the diagonal
        off = y != 0
        off[center] = False
        full = off.reshape(-1, samples).any(axis=0)
    else:
        full = np.full(samples, max(widths) > 1)
    diagonal = y[center].reshape(size, samples).T[~full]
    w = np.empty((samples, size))
    defects = np.empty(samples)
    # |m - m^dag| is 2 |Im m[n, n]| on a Fock-diagonal operator
    defects[~full] = 2.0 * np.abs(diagonal.imag).max(axis=-1)
    w[~full] = np.sort(diagonal.real, axis=-1)[:, ::-1]
    if full.any():  # the Hermitian part, formed on the diagonals of its dense block
        y = y if full.all() else y[..., full]
        lower = y[:widths[0]]  # the offsets k_1 <= 0
        padded, box = _padded_box(boxes, widths, y.shape[-1:])
        hermitian = np.conjugate(_mirror(y, widths),
                                 out=_diagonal_view(padded, widths)[:widths[0]])
        defects[full] = np.abs(lower - hermitian).reshape(-1, y.shape[-1]).max(axis=0)
        hermitian += lower
        hermitian *= 0.5
        block = np.moveaxis(padded[box].reshape(size, size, -1), -1, 0)
        w[full] = np.linalg.eigvalsh(block if stacked else block[0])[..., ::-1]
    _check_spectrum(defects, w[:, -1])  # before padding, which puts zeros last
    out = np.zeros((samples, rho.space.dim))
    out[:, :size] = w
    out = np.clip(out, 0.0, None)
    return out if stacked else out[0]


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum(a * conj(b)) over complex arrays of one shape, as one dot
    product per row of the float views and a pairwise sum of the rows:
    as accurate as np.sum of the products (np.vdot runs one BLAS
    accumulation and loses two digits on a 900 x 900 operator) and
    2.6x faster than np.sum(np.abs(a) ** 2)."""
    a, b = (np.ascontiguousarray(x, dtype=np.complex128).view(np.float64) for x in (a, b))
    return float(np.einsum("...j,...j->...", a, b).sum())


# A vectorized multiply-add over numpy arrays costs about as much as this
# many multiply-adds inside a complex matrix product (5-7 ns against
# 0.16-0.2 ns per entry at dimension 900, one OpenBLAS thread): the banded
# square of trace_power is taken only when it is cheaper at that rate.
_ELEMENTWISE_COST = 32


def _banded_square(Y: np.ndarray, widths: tuple[int, ...], low: tuple[int, ...],
                   high: tuple[int, ...]):
    """(Y, S): an operator's diagonal form, on a padded grid, and that of
    its square at the offsets low_j <= k_j <= high_j, formed on the
    diagonals alone: no dense block is made.

    Y holds offsets |k_j| < w_j (see :class:`FockOperator`); here it is
    copied once onto a grid whose row axes are padded by w_j - 1 on both
    sides, and the grid flattened, so that shifting x by an offset a is
    shifting the flat index by one number.  The square's entry
    (x, x + a + c) sums m[x, x + a] m[x + a, x + a + c] over a: per offset a,
    in order, one multiply of Y[a] by Y[c] for every c with
    low_j <= a_j + c_j <= high_j, into one reused product buffer, then one
    add into S[a + c].  The grids of all offsets lie end to end, with a
    zero margin of the largest shift on both sides, so the c that differ in
    the last mode alone are one contiguous run of whole grids, shifted:
    each multiply and add covers such a run.  Where a shifted grid leaves
    its offset it meets the zero padding of Y[a], which adds nothing.
    Index i of an offset axis is offset i - (w_j - 1) in Y and i + low_j in
    S; the square's own offsets reach 2 w_j - 2 either way."""
    modes = len(widths)
    offsets = Y.shape[:modes]
    grid = tuple(b + 2 * w - 2 for b, w in zip(Y.shape[modes:], widths))
    n, count = int(np.prod(grid)), int(np.prod(offsets))
    strides = [int(np.prod(grid[j + 1:])) for j in range(modes)]
    margin = sum((w - 1) * stride for w, stride in zip(widths, strides))
    flat = np.zeros(count * n + 2 * margin, dtype=np.complex128)
    padded = flat[margin:margin + count * n].reshape(offsets + grid)
    padded[(slice(None),) * modes + tuple(slice(w - 1, 1 - w or None) for w in widths)] = Y
    # rows[i] = flat[i:i + n], so rows[i:i + k n:n] is k grids from flat[i]
    rows = as_strided(flat, (len(flat) - n + 1, n), (flat.itemsize,) * 2, writeable=False)
    S = np.zeros(tuple(h - lo + 1 for lo, h in zip(low, high)) + (n,), dtype=np.complex128)
    targets = S.reshape(-1, n)
    scratch = np.empty((S.shape[-2], n), dtype=np.complex128)  # each product, contiguous
    y_rows = [int(np.prod(offsets[j + 1:])) for j in range(modes)]
    s_rows = [int(np.prod(S.shape[j + 1:-1])) for j in range(modes)]
    for a in np.ndindex(*offsets):
        row = rows[margin + n * sum(i * r for i, r in zip(a, y_rows))]
        shift = margin + sum((i - w + 1) * stride for i, w, stride in zip(a, widths, strides))
        # the Y index c whose a + c is S index 0, then the c that land in S
        base = [2 * w - 2 + lo_k - i for i, w, lo_k in zip(a, widths, low)]
        c = [range(max(0, o), min(2 * w - 1, o + size))
             for o, w, size in zip(base, widths, S.shape)]
        first, k = c[-1][0], len(c[-1])
        for lead in itertools.product(*c[:-1]):
            y0 = shift + n * (sum(i * r for i, r in zip(lead, y_rows)) + first)
            s0 = sum((i - o) * r for i, o, r in zip(lead + (first,), base, s_rows))
            target = targets[s0:s0 + k]
            target += np.multiply(row, rows[y0:y0 + k * n:n], out=scratch[:k])
    return padded.reshape(offsets + (n,)), S


def trace_power(rho: FockOperator, p: float) -> float:
    """Tr rho^p of a state.  Orders 2, 3 and 4 first pass :func:`spectrum`'s
    checks on the diagonal alone: finite, real and not below -1e-8.  Order 2
    is then sum |rho|^2 over the stored diagonals.  Orders 3 and 4 of an
    operator with off-diagonal entries are Re sum((rho @ rho) * conj(rho))
    and sum |rho @ rho|^2, with the square formed diagonal by diagonal
    (:func:`_banded_square`) or, where that is dearer, as one dense product
    of the box block.  These forms take the operator to be Hermitian, as
    every channel output is.  Both orders form the square S only on the
    half-space k_j >= 0 of the widest mode j, order 3 only on the operator's
    own offsets: rho and S are Hermitian, so the offsets -k hold the entries
    of k conjugated, and Re sum(S * conj(rho)) and sum |S|^2 are each the
    k_j = 0 slab plus twice the rest.  Any
    other order, and any Fock-diagonal operator, sums :func:`spectrum` to
    the power p, with its checks.  Raises InvalidState when the result is
    not finite."""
    Y, widths, d = rho.diagonals, rho.widths, rho.space.cutoff
    if p in (2, 3, 4):  # the diagonal's checks only: no eigensolve
        _checked_diagonal(Y[_center(widths)].ravel())
    if p == 2:
        value = _real_inner(Y, Y)
    elif p in (3, 4) and max(widths) > 1:
        offsets = np.prod([2 * w - 1 for w in widths])
        padded = np.prod([d + 2 * w - 2 for w in widths])
        if _ELEMENTWISE_COST * offsets ** 2 * padded < rho.space.dim ** 3:
            reach = tuple((w - 1) * (1 if p == 3 else 2) for w in widths)
            half = widths.index(max(widths))
            low = tuple(0 if j == half else -r for j, r in enumerate(reach))
            Y, S = _banded_square(Y, widths, low, reach)
            # Tr rho^3 pairs S with rho over the same offsets, Tr rho^4 with S
            T = Y[(slice(None),) * half + (slice(widths[half] - 1, None),)] if p == 3 else S
            slab = (slice(None),) * half + (slice(0, 1),)
            rest = (slice(None),) * half + (slice(1, None),)
            value = _real_inner(S[slab], T[slab]) + 2.0 * _real_inner(S[rest], T[rest])
        else:
            block = _box_block(Y, rho.boxes, widths)
            square = block @ block
            value = _real_inner(square, block if p == 3 else square)
    else:
        value = float(np.sum(spectrum(rho) ** p))
    if not np.isfinite(value):
        raise InvalidState(f"Tr rho^{p:g} is not finite: {value}")
    return value


def transpose_state(rho: FockOperator) -> FockOperator:
    """Transposition in the number basis (spectrum preserving)."""
    return FockOperator(space=rho.space, matrix=rho.matrix.T.copy())


def _kraus_table(kind: str, parameter: float, labels: int, d: int) -> np.ndarray:
    """amp[l, n] = <n -/+ l, l| U |n, 0> for l < labels, n < d, in closed form.

    Attenuator, k = parameter:  (-1)^l sqrt(C(n, l)) k^(n-l) (1 - k^2)^(l/2),
    zero for l > n.  Amplifier, kappa = parameter:
    sqrt(C(n+l, l)) kappa^-(n+1) (1 - kappa^-2)^(l/2), not cropped: the output
    level n + l may pass any cutoff.  Magnitudes are exp of log sums, with
    0 log 0 = 0, so k in {0, 1} and kappa = 1 give exact zeros and ones.
    """
    l = np.arange(labels, dtype=float)[:, None]
    n = np.arange(d, dtype=float)[None, :]
    if kind == "attenuator":
        m = np.maximum(n - l, 0.0)  # output level; l > n is masked below
        log_amp = (0.5 * (log_factorial(n) - log_factorial(l) - log_factorial(m))
                   + xlogy(m, parameter) + 0.5 * xlogy(l, (1.0 - parameter) * (1.0 + parameter)))
        return np.where(l <= n, (-1.0) ** l * np.exp(log_amp), 0.0)
    log_kappa = np.log(parameter)
    log_amp = (0.5 * (log_factorial(n + l) - log_factorial(l) - log_factorial(n))
               - (n + 1.0) * log_kappa + 0.5 * xlogy(l, -np.expm1(-2.0 * log_kappa)))
    return np.exp(log_amp)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _banded_kraus(kind: str, parameter: float, d: int) -> OneModeChannelKraus:
    """The band sum G[n -/+ l, n] = amp[l, n] (:func:`_kraus_table`), cropped
    to the cutoff: one scatter of the table's nonzero entries."""
    amp = _kraus_table(kind, parameter, d, d)
    l, n = np.nonzero(amp)  # the attenuator's table vanishes for l > n
    rows = n - l if kind == "attenuator" else n + l
    keep = rows < d
    G = np.zeros((d, d))
    G[rows[keep], n[keep]] = amp[l[keep], n[keep]]
    return OneModeChannelKraus(kind, parameter, FockSpace(1, d), readonly(G))


def attenuator_kraus(k: float, space: FockSpace) -> OneModeChannelKraus:
    """Kraus operators of the quantum-limited attenuator, k in [0, 1].

    A_l = <l| U |0> on the ancilla, with U the beamsplitter dilation
    exp(theta (a^dag b - a b^dag)), cos(theta) = k, ancilla in vacuum, in
    closed form (see :func:`_kraus_table`).
    """
    if space.modes != 1:
        raise DimensionMismatch("attenuator_kraus builds one-mode channels")
    if not 0.0 <= k <= 1.0:
        raise ParameterOutOfRange(f"attenuation must lie in [0, 1], got {k}")
    return _banded_kraus("attenuator", float(k), space.cutoff)


def amplifier_kraus(kappa: float, space: FockSpace) -> OneModeChannelKraus:
    """Kraus operators of the quantum-limited amplifier, kappa >= 1.

    A_l = <l| U |0> on the ancilla, with U the two-mode squeezer dilation
    exp(r (a^dag b^dag - a b)), cosh(r) = kappa, ancilla in vacuum, in
    closed form and cropped to the cutoff.  Guard: kappa^2 - 1 <= cutoff/8
    keeps the vacuum-output thermal tail inside the cutoff.
    """
    if space.modes != 1:
        raise DimensionMismatch("amplifier_kraus builds one-mode channels")
    if kappa < 1.0:
        raise ParameterOutOfRange(f"gain must satisfy kappa >= 1, got {kappa}")
    if kappa ** 2 - 1.0 > space.cutoff / 8.0:
        raise ParameterOutOfRange(
            f"kappa^2 - 1 = {kappa**2 - 1:.3f} exceeds cutoff/8 = {space.cutoff / 8.0}"
        )
    return _banded_kraus("amplifier", float(kappa), space.cutoff)


def kraus_completeness_defect(kraus: OneModeChannelKraus, n_max: int) -> float:
    """max |sum_l A_l^dag A_l - I| over the occupation block n <= n_max; the
    bands do not overlap, so the sum is diagonal with the squared norms of
    the band sum's columns."""
    weights = np.sum(kraus.band_sum[:, : n_max + 1] ** 2, axis=0)
    return float(np.abs(weights - 1.0).max())


def apply_kraus(kraus, state: PureState | FockOperator) -> FockOperator:
    """sum_l A_l rho A_l^dag, rho a pure state's density or an operator.

    ``kraus`` is a OneModeChannelKraus or a sequence of per-mode
    OneModeChannelKraus entries, one per mode (None leaves a mode
    untouched), applied as the :class:`FockChannel` with zero phases.
    Trace deficit is reported via :func:`leakage`.
    """
    if isinstance(kraus, OneModeChannelKraus):
        kraus = (kraus,)
    stages = tuple(() if stage is None else (stage,) for stage in kraus)
    return FockChannel(state.space, (0.0,) * state.space.modes, stages).apply(state)


def complementary_output(kappa: float, rho: FockOperator) -> FockOperator:
    """Environment output of the amplifier dilation.

    Applies the dilation unitary to rho (x) |0><0|, traces out the system
    over the full dilation range, and returns the ancilla state cropped to
    the cutoff.
    """
    space = rho.space
    if space.modes != 1:
        raise DimensionMismatch("complementary_output is one-mode")
    if kappa < 1.0:
        raise ParameterOutOfRange(f"gain must satisfy kappa >= 1, got {kappa}")
    d = space.cutoff
    amp = _kraus_table("amplifier", float(kappa), d, d)
    matrix = rho.matrix  # derived from the diagonals on every access
    out = np.zeros((d, d), dtype=np.complex128)
    for m in range(2 * d - 1):  # system output level n + l
        ns = np.arange(max(0, m - d + 1), min(m, d - 1) + 1)
        ls = m - ns
        w = amp[ls, ns]
        out[np.ix_(ls, ls)] += np.outer(w, w) * matrix[np.ix_(ns, ns)]
    return FockOperator(space=space, matrix=out)


def amplifier_dilation_marginals(kappa: float, psi: PureState) -> tuple[FockOperator, FockOperator]:
    """Both marginals of U (psi (x) |0>), on the doubled space.

    Returns (system output, ancilla output) as operators with cutoff 2d;
    their nonzero spectra coincide exactly for any pure input.
    """
    space = psi.space
    if space.modes != 1:
        raise DimensionMismatch("amplifier_dilation_marginals is one-mode")
    if kappa < 1.0:
        raise ParameterOutOfRange(f"gain must satisfy kappa >= 1, got {kappa}")
    d = space.cutoff
    big = FockSpace(1, 2 * d)
    amp = _kraus_table("amplifier", float(kappa), 2 * d, d)
    ls, ns = np.nonzero(np.add.outer(np.arange(2 * d), np.arange(d)) < 2 * d)
    omega = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    omega[ns + ls, ls] = psi.amplitudes[ns] * amp[ls, ns]
    sys_out = omega @ omega.conj().T
    anc_out = omega.T @ omega.conj()
    return (FockOperator(space=big, matrix=sys_out),
            FockOperator(space=big, matrix=anc_out))


def beamsplitter_unitary(theta: float, space: FockSpace) -> FockOperator:
    """Two-mode beamsplitter exp(theta (a^dag b - a b^dag)) on the truncated
    space; exact on total-photon sectors that fit under the cutoff."""
    if space.modes != 2:
        raise DimensionMismatch("beamsplitter_unitary needs a two-mode space")
    d = space.cutoff
    U = np.zeros((d * d, d * d), dtype=np.complex128)
    for total in range(2 * d - 1):
        jmin = max(0, total - d + 1)
        jmax = min(total, d - 1)
        js = np.arange(jmin, jmax + 1)
        sub = np.array([-theta * np.sqrt((j + 1.0) * (total - j)) for j in js[:-1]])
        block = unitary_expm(np.diag(sub, -1) - np.diag(sub, 1))
        idx = (total - js) * d + js
        U[np.ix_(idx, idx)] = block
    return FockOperator(space=space, matrix=U)


# ---------------------------------------------------------------------------
# Realization of gauge-covariant channels as per-mode phases and stages.
# ---------------------------------------------------------------------------

def _pure_diagonals(amplitudes: np.ndarray, space: FockSpace):
    """(Y, boxes, widths) of the density of a pure state's amplitudes, or of
    a stack of states' densities when ``amplitudes`` carries a trailing
    sample axis, formed on the box of the amplitudes only: per mode, the box
    is one past the highest level occupied in any sample and the width one
    past the distance between the lowest and the highest, as
    :func:`_structure` would read them off the density."""
    d, modes = space.cutoff, space.modes
    x = amplitudes.reshape((d,) * modes + amplitudes.shape[1:])
    nonzero = x != 0
    boxes, widths = [], []
    for j in range(modes):
        levels = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(x.ndim) if a != j)))
        boxes.append(int(levels[-1]) + 1 if levels.size else 1)
        widths.append(int(levels[-1] - levels[0]) + 1 if levels.size else 1)
    sub = x[tuple(slice(b) for b in boxes)]
    block = sub[(slice(None),) * modes + (None,) * modes] * sub.conj()[(None,) * modes]
    return _gather(block, widths), tuple(boxes), tuple(widths)


def _apply_stages(phases, stages, y: np.ndarray, boxes: tuple[int, ...],
                  widths: tuple[int, ...], space: FockSpace):
    """The one channel-application path: the diagonal form y of the input
    (see :class:`FockOperator`) to that of the output, and its boxes.  Per
    mode, a gauge phase and a tuple of quantum-limited stages (phase 0 and
    no stages leave the mode alone).  The mode's axes (k, x) lead, the
    other modes' axes and a stack's sample axis are the columns: the phase
    multiplies offset k by
    e^{-i phase k}, and a stage with band sum G maps offset k by
    G * W[k mod d] (see :attr:`OneModeChannelKraus.rolled_band_sum`), which
    is blockdiag(S[c], S[d-c]) with S[c] = G[:d-c, :d-c] * G[c:, c:] (each
    band keeps its shift), c = k mod d.  G is triangular, upper for the
    attenuator and lower for the amplifier, so the cross blocks vanish, and
    a diagonal's entries inside the cutoff map to entries inside it:
    S[k] for k >= 0, S[-k] on rows -k.. for k < 0.  The columns are the
    input's box, the rows are the box for the attenuator and the cutoff for
    the amplifier.  G is real, so each stage is one real batched product on
    the float view of the diagonals.  Widths are kept.  When the 2 w - 1
    offsets outnumber the d cyclic diagonals, they are folded onto them
    first, so no stage matrix is formed twice."""
    d, modes = space.cutoff, space.modes
    boxes = list(boxes)
    for mode, (phase, mode_stages) in enumerate(zip(phases, stages)):
        if not (phase or mode_stages):
            continue
        order = (mode, modes + mode) + tuple(a for a in range(y.ndim)
                                              if a not in (mode, modes + mode))
        w = widths[mode]
        offsets = np.arange(1 - w, w)
        ym = np.ascontiguousarray(y.transpose(order))
        rest = ym.shape[2:]
        ym = ym.reshape(len(offsets), boxes[mode], -1)
        if phase:
            ym = ym * np.exp(-1j * phase * offsets)[:, None, None]
        folded = len(offsets) > d
        if folded:  # offsets k and k - d, on disjoint rows, share cyclic diagonal k
            cyclic = np.zeros((d,) + ym.shape[1:], dtype=np.complex128)
            cyclic[:w] = ym[w - 1:]
            cyclic[d - w + 1:] += ym[:w - 1]
            ym = cyclic
        rows = boxes[mode]
        for stage in mode_stages:
            G, W = stage.band_sum, stage.rolled_band_sum
            width, rows = rows, d if stage.kind == "amplifier" else rows
            M = W[np.arange(d) if folded else offsets % d, :rows, :width]
            M *= G[:rows, :width]
            ym = (M @ ym.view(np.float64)).view(np.complex128)
            del M  # before the next stage allocates: two alive made full-support applies 2x slower
        if folded:  # each offset keeps the rows where its column stays inside the cutoff
            inside = np.add.outer(offsets, np.arange(rows))
            ym = np.where(((inside >= 0) & (inside < d))[:, :, None], ym[offsets % d], 0)
        boxes[mode] = rows
        y = ym.reshape((len(offsets), rows) + rest).transpose(
            [order.index(a) for a in range(len(order))])
    return np.ascontiguousarray(y), tuple(boxes)


@dataclass(frozen=True)
class FockChannel:
    """A channel materialized per mode as a gauge phase and a tuple of
    quantum-limited stages (attenuator, then amplifier), unit stages left
    out; each stage's ``parameter`` is its attenuation or gain.  A mode with
    phase 0 and no stages is left alone."""

    space: FockSpace
    phases: tuple[float, ...]
    stages: tuple[tuple[OneModeChannelKraus, ...], ...]

    def __post_init__(self):
        modes = self.space.modes
        if len(self.phases) != modes or len(self.stages) != modes:
            raise DimensionMismatch(f"need {modes} per-mode phases and stage tuples, got "
                                    f"{len(self.phases)} and {len(self.stages)}")
        if any(stage.space.cutoff != self.space.cutoff for mode in self.stages for stage in mode):
            raise DimensionMismatch("Kraus cutoff does not match the space")

    def apply(self, state: PureState | FockOperator | Sequence[PureState]) -> FockOperator:
        """The output of a pure state (through its density, formed on the
        state's occupied box only) or an operator, in diagonal form.  A
        sequence of pure states is applied as one stack (see
        :class:`FockOperator`): one kernel pass over the densities of all of
        them, on the batch's largest box and width."""
        batch = not isinstance(state, (PureState, FockOperator))
        if any(s.space != self.space for s in (state if batch else (state,))):
            raise DimensionMismatch("operator lives on a different space")
        if isinstance(state, FockOperator):
            y, boxes, widths = state.diagonals, state.boxes, state.widths
        else:
            amplitudes = (np.stack([s.amplitudes for s in state], axis=-1) if batch
                          else state.amplitudes)
            y, boxes, widths = _pure_diagonals(amplitudes, self.space)
        y, boxes = _apply_stages(self.phases, self.stages, y, boxes, widths, self.space)
        return FockOperator.from_diagonals(self.space, y, boxes, widths)


def realize_channel(ch: GaugeCovariantChannel, space: FockSpace) -> FockChannel:
    """Materialize a channel as rotation + attenuator + amplifier stages.

    Multimode channels must be diagonal (tensor products of one-mode
    channels); general multimode unitary envelopes are out of scope here
    and handled analytically in :mod:`gausslab.channels`.
    """
    if ch.modes != space.modes:
        raise DimensionMismatch(f"channel on {ch.modes} modes, space on {space.modes}")
    if ch.modes > 1:
        if (np.abs(ch.K - np.diag(np.diagonal(ch.K))).max() > 1e-12
                or np.abs(ch.mu - np.diag(np.diagonal(ch.mu))).max() > 1e-12):
            raise NotDiagonal("multimode realization needs diagonal K and mu")
    phases, stages, one = [], [], FockSpace(1, space.cutoff)
    for j in range(ch.modes):
        kj = complex(ch.K[j, j])
        mj = float(np.real(ch.mu[j, j]))
        gain = max(float(np.sqrt(mj + (abs(kj) ** 2 + 1.0) / 2.0)), 1.0)
        k1 = min(abs(kj) / gain, 1.0)
        phases.append(float(np.angle(kj)) if abs(kj) > 0 else 0.0)
        stages.append(((attenuator_kraus(k1, one),) if k1 < 1.0 - 1e-14 else ())
                      + ((amplifier_kraus(gain, one),) if gain > 1.0 + 1e-14 else ()))
    return FockChannel(space, tuple(phases), tuple(stages))
