"""Truncated number-basis simulator.

Brute-force oracle for the closed forms in :mod:`gausslab.states`:
displacement operators and coherent states, one-mode quantum-limited
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
``e^{-i phase k}`` and each stage multiplies it by a matrix read off G.  An
input occupying the first s levels of a mode has nonzero diagonals only for
|k| < s, so only those are multiplied, by the first s columns of the stage
matrices.  Band sums sit in an LRU cache.  The output keeps that structure:
it is nonzero only on the diagonals |m_j - n_j| < s of each mode, and only
in the first s levels of a mode behind an attenuator alone.  One scan of an operator's nonzero mask reads
both, per mode the occupied box and the diagonal width; applies crop a
mixed input to its box, trace powers are formed on the occupied diagonals,
and spectra eigensolve the box's block alone and pad it with zeros.

Truncation policy: operations report the trace deficit (leakage) and never
renormalize silently; callers enforce their own leakage budgets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._linalg import log_factorial, unitary_expm, xlogy
from .channels import GaugeCovariantChannel
from .errors import (
    AmplitudeTooLarge,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidState,
    NotDiagonal,
    NotHermitian,
    ParameterOutOfRange,
    TruncationLeakage,
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


@dataclass(frozen=True)
class FockOperator:
    space: FockSpace
    matrix: np.ndarray


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
        tiled = _readonly(np.tile(self.band_sum, (2, 2)))
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
    amp = np.zeros(space.dim, dtype=np.complex128)
    if space.modes == 1:
        idx = int(occupation)
    else:
        n1, n2 = occupation
        idx = int(n1) * space.cutoff + int(n2)
    amp[idx] = 1.0
    return PureState(space=space, amplitudes=amp)


def tensor_pure(a: PureState, b: PureState) -> PureState:
    if a.space.modes != 1 or b.space.modes != 1 or a.space.cutoff != b.space.cutoff:
        raise DimensionMismatch("tensor_pure needs two one-mode states of equal cutoff")
    space = FockSpace(2, a.space.cutoff)
    return PureState(space=space, amplitudes=np.kron(a.amplitudes, b.amplitudes))


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


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=np.complex128)
    ns = np.arange(1, cutoff)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def displacement_matrix(z: complex, space: FockSpace) -> FockOperator:
    """exp(z a^dag - conj(z) a), truncated at the cutoff (one mode)."""
    if space.modes != 1:
        raise DimensionMismatch("displacement_matrix is one-mode")
    z = complex(z)
    if abs(z) ** 2 > space.cutoff / 4.0:
        raise AmplitudeTooLarge(
            f"|z|^2 = {abs(z)**2:.3f} exceeds cutoff/4 = {space.cutoff / 4.0}"
        )
    a = annihilation(space.cutoff)
    return FockOperator(space=space, matrix=unitary_expm(z * a.conj().T - np.conj(z) * a))


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
    if space.modes == 1:
        sub = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        amp = np.zeros(d, dtype=np.complex128)
        amp[:s] = sub
    else:
        sub = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        grid = np.zeros((d, d), dtype=np.complex128)
        grid[:s, :s] = sub
        amp = grid.ravel()
    return PureState(space=space, amplitudes=amp / np.linalg.norm(amp))


def mean_photon(obj: PureState | FockOperator) -> tuple[float, ...]:
    """Per-mode mean occupation numbers."""
    if isinstance(obj, PureState):
        prob = np.abs(obj.amplitudes) ** 2
        space = obj.space
    else:
        prob = np.real(np.diagonal(obj.matrix))
        space = obj.space
    d = space.cutoff
    n = np.arange(d, dtype=float)
    if space.modes == 1:
        return (float(prob @ n),)
    grid = prob.reshape(d, d)
    return (float(grid.sum(axis=1) @ n), float(grid.sum(axis=0) @ n))


def leakage(rho: FockOperator) -> float:
    """Probability mass pushed past the cutoff: 1 - Tr rho."""
    return float(1.0 - np.real(np.trace(rho.matrix)))


def require_leakage(rho: FockOperator, budget: float = 1e-6) -> FockOperator:
    lk = leakage(rho)
    if lk > budget:
        raise TruncationLeakage(f"truncation leakage {lk:.3e} exceeds budget {budget:.1e}")
    return rho


def _structure(m: np.ndarray, space: FockSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(boxes, widths) of a contiguous complex128 operator, from one scan of
    its nonzero mask.  Per mode j, over the nonzero entries
    m[(m_1, m_2), (n_1, n_2)]: the box is one past the highest level m_j or
    n_j that any of them touches, so every entry outside the box is zero,
    and the width is one past the largest |m_j - n_j|.  The operator is
    Fock-diagonal exactly when every width is 1; the zero operator has box
    and width 1.  By gauge covariance a channel output of an input that
    occupies s levels of a mode has width at most s there, and box s behind
    an attenuator alone.  Each entry's (real, imaginary) pair of mask bytes
    is read as one uint16, and the mask is reduced over the other mode's
    axes leading axis first (the fast order)."""
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


def _box_spectrum(m: np.ndarray, space: FockSpace, boxes: tuple[int, ...],
                  widths: tuple[int, ...], clamp: float) -> np.ndarray:
    """:func:`spectrum` of m, given its :func:`_structure`."""
    d, modes = space.cutoff, space.modes
    box = tuple(slice(b) for b in boxes)
    diagonal = max(widths) == 1
    block = (np.diagonal(m).reshape((d,) * modes)[box].ravel() if diagonal
             else m.reshape((d,) * (2 * modes))[box * 2].reshape(np.prod(boxes), -1))
    # every entry outside the box is zero, so these checks cover the operator
    if not np.isfinite(block).all():
        raise InvalidState("operator has a non-finite entry")
    if diagonal:  # |m - m^dag| is 2 |Im m[n, n]|
        defect = 2.0 * float(np.abs(block.imag).max())
        w = np.sort(block.real)[::-1]
    else:  # one adjoint copy for the defect and the Hermitian part
        adjoint = block.conj().T
        defect = float(np.abs(block - adjoint).max())
        w = np.linalg.eigvalsh(0.5 * (block + adjoint))[::-1]
    if not defect <= 1e-10:
        raise NotHermitian(f"operator is not Hermitian: defect {defect:.3e}")
    if not w[-1] >= -clamp:  # before padding, which puts zeros last
        raise InvalidState(f"operator has eigenvalue {w[-1]:.3e} below -{clamp:.1e}")
    if len(w) < len(m):
        w = np.concatenate([w, np.zeros(len(m) - len(w))])
    return np.clip(w, 0.0, None)


def spectrum(rho: FockOperator, clamp: float = 1e-8) -> np.ndarray:
    """Real eigenvalues, descending; negatives above -clamp are set to 0.

    Only the operator's occupied box (:func:`_structure`) is read: it is
    checked for finite entries and Hermiticity there, and its block alone is
    eigensolved, the rest of the spectrum being zeros.  The two-mode output
    of a support-s input behind an attenuator on one mode is an s d block,
    not d^2.  A Fock-diagonal operator's spectrum is read off its diagonal.
    Raises InvalidState on a non-finite entry or an eigenvalue below -clamp,
    NotHermitian on a Hermiticity defect above 1e-10."""
    m = np.ascontiguousarray(rho.matrix, dtype=np.complex128)
    return _box_spectrum(m, rho.space, *_structure(m, rho.space), clamp)


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


def _banded_square(m: np.ndarray, widths: tuple[int, ...], d: int):
    """(Y, S): the occupied photon-number diagonals of m and of m @ m.

    Y[k, x] = m[x, x + k] for per-mode offsets |k_j| < w_j, zero where
    x + k leaves the cutoff, with x stored at x_j + w_j - 1 of a grid padded
    by w_j - 1 on both sides and flattened, so that shifting x by an offset
    a is shifting the flat index by one number.  The square's entry
    (x, x + a + c) sums m[x, x + a] m[x + a, x + a + c] over a: per offset
    a, one multiply-add of Y[a] into every S[a + c], prod_j (2 w_j - 1) of them.
    S holds offsets |k_j| < 2 w_j - 1; index i of an offset axis is offset
    i - (w_j - 1) in Y and i - 2 (w_j - 1) in S."""
    modes = len(widths)
    rho = m.reshape((d,) * (2 * modes))
    x = np.arange(d)
    rows, cols, inside = [], [], True
    for j, w in enumerate(widths):
        at_k, at_x = [1] * (2 * modes), [1] * (2 * modes)
        at_k[j] = at_x[modes + j] = -1
        row = x.reshape(at_x)
        col = row + np.arange(1 - w, w).reshape(at_k)
        inside = inside & (col >= 0) & (col < d)
        rows.append(row)
        cols.append(np.clip(col, 0, d - 1))
    Y = np.pad(np.where(inside, rho[tuple(rows + cols)], 0),
               [(0, 0)] * modes + [(w - 1, w - 1) for w in widths])
    offsets, grid = Y.shape[:modes], Y.shape[modes:]
    Y = Y.reshape(offsets + (-1,))
    n = Y.shape[-1]
    strides = [int(np.prod(grid[j + 1:])) for j in range(modes)]
    S = np.zeros(tuple(2 * k - 1 for k in offsets) + (n,), dtype=np.complex128)
    for a in np.ndindex(*offsets):
        shift = sum((i - w + 1) * stride for i, w, stride in zip(a, widths, strides))
        lo, hi = max(0, -shift), n - max(0, shift)
        window = tuple(slice(i, i + k) for i, k in zip(a, offsets))
        S[window + (slice(lo, hi),)] += Y[a + (slice(lo, hi),)] * Y[..., lo + shift:hi + shift]
    return Y, S


def trace_power(rho: FockOperator, p: float) -> float:
    """Tr rho^p of a state.  Orders 2, 3 and 4 first pass :func:`spectrum`'s
    checks on the diagonal alone: finite, real and not below -1e-8.  Order 2
    is then sum |rho|^2.  Orders 3 and 4 of an operator with off-diagonal
    entries come from its occupied photon-number diagonals
    (:func:`_structure`): Re sum((rho @ rho) * conj(rho)) and sum |rho @ rho|^2,
    with the square formed diagonal by diagonal (:func:`_banded_square`) or,
    where that is dearer, as one dense product.  These forms take the operator
    to be Hermitian, as every channel output is.  Any other order, and any
    Fock-diagonal operator, sums :func:`spectrum` to the power p, with its
    checks.  Raises InvalidState when the result is not finite."""
    m, d = np.ascontiguousarray(rho.matrix, dtype=np.complex128), rho.space.cutoff
    if p in (2, 3, 4):  # the diagonal's checks only: no scan, no eigensolve
        _box_spectrum(m, rho.space, (d,) * rho.space.modes, (1,) * rho.space.modes, 1e-8)
    if p == 2:
        value = _real_inner(m, m)
    else:
        boxes, widths = _structure(m, rho.space)
        if p in (3, 4) and max(widths) > 1:
            offsets = np.prod([2 * w - 1 for w in widths])
            padded = np.prod([d + 2 * w - 2 for w in widths])
            if _ELEMENTWISE_COST * offsets ** 2 * padded < rho.space.dim ** 3:
                Y, S = _banded_square(m, widths, d)
                value = (_real_inner(S, S) if p == 4 else
                         _real_inner(S[tuple(slice(w - 1, 3 * w - 2) for w in widths)], Y))
            else:
                square = m @ m
                value = _real_inner(square, m if p == 3 else square)
        else:
            value = float(np.sum(_box_spectrum(m, rho.space, boxes, widths, 1e-8) ** p))
    if not np.isfinite(value):
        raise InvalidState(f"Tr rho^{p:g} is not finite: {value}")
    return value


def transpose_state(rho: FockOperator) -> FockOperator:
    """Transposition in the number basis (spectrum preserving)."""
    return FockOperator(space=rho.space, matrix=rho.matrix.T.copy())


def _readonly(a: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller: freeze them."""
    a.flags.writeable = False
    return a


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
    return OneModeChannelKraus(kind, parameter, FockSpace(1, d), _readonly(G))


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
    out = np.zeros((d, d), dtype=np.complex128)
    for m in range(2 * d - 1):  # system output level n + l
        ns = np.arange(max(0, m - d + 1), min(m, d - 1) + 1)
        ls = m - ns
        w = amp[ls, ns]
        out[np.ix_(ls, ls)] += np.outer(w, w) * rho.matrix[np.ix_(ns, ns)]
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

def _extent(occupied: np.ndarray) -> int:
    """One past the last occupied level of a 1-D mask, at least 1."""
    levels = np.flatnonzero(occupied)
    return int(levels[-1]) + 1 if levels.size else 1


def _occupied_block(state: PureState | FockOperator) -> np.ndarray:
    """The input's density on its occupied box, axes [m1, (m2,) n1, (n2)]:
    mode j keeps its first s_j levels, s_j one past the highest level any
    nonzero entry touches (as a row or a column index), so every entry
    outside the box is zero.  A pure state's box is read off its amplitudes
    and only the box of its density is formed."""
    d, modes = state.space.cutoff, state.space.modes
    if isinstance(state, FockOperator):
        m = np.ascontiguousarray(state.matrix, dtype=np.complex128)
        boxes, _ = _structure(m, state.space)
        return m.reshape((d,) * (2 * modes))[tuple(slice(b) for b in boxes) * 2]
    x = state.amplitudes.reshape((d,) * modes)
    nonzero = x != 0
    sub = x[tuple(slice(_extent(nonzero.any(axis=tuple(a for a in range(modes) if a != j))))
                  for j in range(modes))]
    return np.multiply.outer(sub, sub.conj())


@functools.lru_cache(maxsize=CACHE_SIZE)
def _cyclic_columns(d: int) -> np.ndarray:
    """cols[k, n] = (n + k) % d: the column of entry n of cyclic diagonal k."""
    n = np.arange(d)
    return _readonly((n + n[:, None]) % d)


def _apply_stages(phases, stages, block: np.ndarray, space: FockSpace) -> np.ndarray:
    """The one channel-application path, on the input's occupied box (see
    :func:`_occupied_block`).  Per mode, a gauge phase and a tuple of
    quantum-limited stages (phase 0 and no stages leave the mode alone).
    For a mode of support s, the only cyclic diagonals x[n, (n+k) % d] that
    can be nonzero are |k| < s (k < s or k > d - s), and only for n < s:
    each is gathered, multiplied by e^{-i phase (col - row)} and by each
    stage's matrix, and scattered back; the other output diagonals stay
    zero by gauge covariance.  A stage with band sum G maps cyclic diagonal
    k by G * W[k] (see :attr:`OneModeChannelKraus.rolled_band_sum`), which
    is blockdiag(S[k], S[d-k]) with S[k] = G[:d-k, :d-k] * G[k:, k:] (each
    band keeps its shift): G is triangular, upper for the attenuator and
    lower for the amplifier, so the cross blocks vanish.  The attenuator
    keeps the row box s, the amplifier fills the cutoff; a mode that keeps
    its box is cropped back to it while a later mode is still to be
    processed.  G is real, so each stage is one real batched product on the
    float view of the diagonals.  At full support s = d this is every
    diagonal at full width."""
    d, modes = space.cutoff, space.modes
    levels, cols = np.arange(d), _cyclic_columns(d)
    busy = [mode for mode in range(modes) if phases[mode] or stages[mode]]
    x = block
    for mode, (phase, mode_stages) in enumerate(zip(phases, stages)):
        if mode not in busy:
            continue
        order = (mode, modes + mode) + tuple(a for a in range(2 * modes) if a % modes != mode)
        xm = x.transpose(order)  # [m, n, rest]
        s, rest = xm.shape[0], xm.shape[2:]
        full = 2 * s > d  # the 2s - 1 diagonals |k| < s are all d of them
        ks = levels if full else np.concatenate([levels[:s], levels[d - s + 1:]])
        if s < d:  # pad the column axis so the cyclic gather can index it
            xm = np.concatenate([xm, np.zeros((s, d - s) + rest, dtype=xm.dtype)], axis=1)
        kcols = cols[ks, :s]
        y = xm[levels[:s], kcols].reshape(len(ks), s, -1)
        if phase:
            y *= np.exp(-1j * phase * (kcols - levels[:s]))[:, :, None]
        rows = s
        for stage in mode_stages:
            G, W = stage.band_sum, stage.rolled_band_sum
            width, rows = rows, d if stage.kind == "amplifier" else rows
            M = W[ks, :rows, :width]
            M *= G[:rows, :width]
            y = (M @ y.view(np.float64)).view(np.complex128)
            del M  # before the next stage allocates: two alive made full-support applies 2x slower
        shape = list(x.shape)
        shape[mode] = shape[modes + mode] = d
        out = np.zeros(shape, dtype=np.complex128)
        out.transpose(order)[levels[:rows], cols[ks, :rows]] = y.reshape((len(ks), rows) + rest)
        x = out
        if rows < d and mode != busy[-1]:  # the next mode's gather runs over this box only
            box = [slice(None)] * (2 * modes)
            box[mode] = box[modes + mode] = slice(rows)
            x = out[tuple(box)]
    if x.shape != (d,) * (2 * modes):  # a mode left alone keeps its box
        x = np.pad(x, [(0, d - n) for n in x.shape])
    return x.reshape(space.dim, space.dim)


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

    def apply(self, state: PureState | FockOperator) -> FockOperator:
        """The output of a pure state (through its density, formed on the
        state's occupied box only) or an operator."""
        if state.space != self.space:
            raise DimensionMismatch("operator lives on a different space")
        return FockOperator(space=self.space, matrix=_apply_stages(
            self.phases, self.stages, _occupied_block(state), self.space))


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
