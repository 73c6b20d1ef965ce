"""Gauge-invariant Gaussian states and closed-form output spectra.

A gauge-invariant Gaussian state on ``s`` modes is a Hermitian correlation
matrix ``alpha >= I/2`` (vacuum = I/2).  Its density-operator spectrum is
the product-geometric law over mode occupations built from the thermal
photon numbers ``N_j = eig_j(alpha) - 1/2``, which yields closed forms for
the von Neumann and Renyi output entropies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ._linalg import HERMITICITY_TOL, as_complex_matrix, require_hermitian, xlogy
from .channels import GaugeCovariantChannel, build_channel
from .errors import DimensionMismatch, InvalidOrder, InvalidState

STATE_TOL = 1e-10


@dataclass(frozen=True)
class GaugeInvariantGaussianState:
    modes: int
    alpha: np.ndarray


@dataclass(frozen=True)
class ThermalSpectrum:
    """Per-mode thermal photon numbers, descending, clamped at 0."""

    photon_numbers: tuple[float, ...]


def gaussian_state(alpha, tol: float = STATE_TOL) -> GaugeInvariantGaussianState:
    """Validate ``alpha``: Hermitian within 1e-12 and ``alpha >= I/2 - tol``."""
    alpha = as_complex_matrix(alpha)
    alpha = require_hermitian(alpha, HERMITICITY_TOL, name="alpha")
    low = float(np.linalg.eigvalsh(alpha)[0])
    if low < 0.5 - tol:
        raise InvalidState(f"alpha has eigenvalue {low:.6e} below the vacuum bound 1/2")
    return GaugeInvariantGaussianState(modes=alpha.shape[0], alpha=alpha)


def vacuum(modes: int) -> GaugeInvariantGaussianState:
    if modes < 1:
        raise DimensionMismatch("mode count must be >= 1")
    return GaugeInvariantGaussianState(modes=modes, alpha=0.5 * np.eye(modes, dtype=np.complex128))


def apply_channel(ch: GaugeCovariantChannel,
                  st: GaugeInvariantGaussianState) -> GaugeInvariantGaussianState:
    """Exact channel action on correlation matrices: alpha' = K alpha K* + mu."""
    if ch.modes != st.modes:
        raise DimensionMismatch(f"channel on {ch.modes} modes, state on {st.modes}")
    alpha = ch.K @ st.alpha @ ch.K.conj().T + ch.mu
    return gaussian_state(alpha)


def thermal_spectrum(st: GaugeInvariantGaussianState) -> ThermalSpectrum:
    """N_j = eig_j(alpha) - 1/2, descending; values in [-1e-10, 0) clamp to 0."""
    n = np.linalg.eigvalsh(st.alpha)[::-1] - 0.5
    if n[-1] < -STATE_TOL:
        raise InvalidState(f"negative photon number {n[-1]:.3e}")
    return ThermalSpectrum(photon_numbers=tuple(float(x) for x in np.clip(n, 0.0, None)))


def eigenvalue_list(spec: ThermalSpectrum, m: int) -> np.ndarray:
    """The m largest density-operator eigenvalues, descending.

    Eigenvalues are ``prod_j N_j^{n_j} / (N_j + 1)^{n_j + 1}`` over occupation
    tuples; best-first search over the tuple lattice returns the exact top-m
    without full enumeration (per-mode sequences are decreasing).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = np.asarray(spec.photon_numbers, dtype=float)
    s = n.size
    base = float(np.prod(1.0 / (n + 1.0)))
    ratio = n / (n + 1.0)
    heap = [(-base, (0,) * s)]
    seen = {(0,) * s}
    out: list[float] = []
    while heap and len(out) < m:
        negval, occ = heapq.heappop(heap)
        out.append(-negval)
        for j in range(s):
            if ratio[j] <= 0.0:
                continue
            child = occ[:j] + (occ[j] + 1,) + occ[j + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (negval * ratio[j], child))
    out.extend([0.0] * (m - len(out)))
    return np.asarray(out)


def _g(n: np.ndarray) -> np.ndarray:
    """(N+1) ln(N+1) - N ln N = ln(1+N) + N ln(1 + 1/N), 0 at N = 0; the
    second form does not cancel at large N."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log1p(n) + xlogy(n, 1.0 / n, np.log1p)


def _log_power_gap(n: np.ndarray, p: float) -> np.ndarray:
    """ln[(N+1)^p - N^p] = p ln(1+N) + ln(1 - (N/(N+1))^p), 0 at N = 0.

    Evaluated as (p-1) ln(1+N) + ln(1 - N expm1(-(p-1) ln(1 + 1/N))), the same
    value, which neither overflows at large p N nor loses the relative
    precision that the Renyi forms need when they divide it by p - 1."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore"):
        tail = -n * np.expm1(-(p - 1.0) * np.log1p(1.0 / n))
    return (p - 1.0) * np.log1p(n) + np.log1p(tail)


def von_neumann_entropy(st: GaugeInvariantGaussianState) -> float:
    """Entropy in nats: sum_j [(N_j+1) ln(N_j+1) - N_j ln N_j]."""
    n = np.asarray(thermal_spectrum(st).photon_numbers)
    return float(_g(n).sum())


def renyi_entropy(st: GaugeInvariantGaussianState, p: float) -> float:
    """Order-p Renyi entropy in nats, p > 1:
    (1/(p-1)) sum_j ln[(N_j+1)^p - N_j^p]."""
    if not p > 1.0:
        raise InvalidOrder(f"Renyi order must satisfy p > 1, got {p}")
    n = np.asarray(thermal_spectrum(st).photon_numbers)
    return float(_log_power_gap(n, p).sum() / (p - 1.0))


def _output_photon_numbers(ch: GaugeCovariantChannel) -> np.ndarray:
    alpha = ch.mu + 0.5 * ch.gram()
    n = np.linalg.eigvalsh(0.5 * (alpha + alpha.conj().T)) - 0.5
    return np.clip(n, 0.0, None)


def output_purity(ch: GaugeCovariantChannel, p: float) -> float:
    """Maximal output purity nu_p = Tr Phi[|0><0|]^p, p > 1.

    Computed as ``det[(alpha + I/2)^p - (alpha - I/2)^p]^{-1}`` with
    ``alpha = mu + K K*/2``, via eigenvalues.  The reciprocal is forced by
    Tr rho^p <= 1; :func:`purity_determinant` exposes the bare determinant.
    """
    if not p > 1.0:
        raise InvalidOrder(f"Renyi order must satisfy p > 1, got {p}")
    return float(np.exp(-_log_power_gap(_output_photon_numbers(ch), p).sum()))


def purity_determinant(ch: GaugeCovariantChannel, p: float) -> float:
    """det[(alpha + I/2)^p - (alpha - I/2)^p] with alpha = mu + K K*/2."""
    if not p > 1.0:
        raise InvalidOrder(f"Renyi order must satisfy p > 1, got {p}")
    return float(np.exp(_log_power_gap(_output_photon_numbers(ch), p).sum()))


def minimal_output_renyi(ch: GaugeCovariantChannel, p: float) -> float:
    """(1/(1-p)) ln nu_p, the minimal output Renyi entropy in nats."""
    if not p > 1.0:
        raise InvalidOrder(f"Renyi order must satisfy p > 1, got {p}")
    return float(_log_power_gap(_output_photon_numbers(ch), p).sum() / (p - 1.0))


def minimal_output_entropy(ch: GaugeCovariantChannel) -> float:
    """Output von Neumann entropy of the vacuum input, in nats."""
    return float(_g(_output_photon_numbers(ch)).sum())


def tensor_channel(a: GaugeCovariantChannel, b: GaugeCovariantChannel) -> GaugeCovariantChannel:
    """Parallel composition: block-direct-sum of K and of mu."""
    s = a.modes + b.modes
    K = np.zeros((s, s), dtype=np.complex128)
    mu = np.zeros((s, s), dtype=np.complex128)
    K[:a.modes, :a.modes] = a.K
    K[a.modes:, a.modes:] = b.K
    mu[:a.modes, :a.modes] = a.mu
    mu[a.modes:, a.modes:] = b.mu
    return build_channel(K, mu)
