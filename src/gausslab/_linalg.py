"""Small shared numerical helpers, NumPy only."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotHermitian

HERMITICITY_TOL = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Check Hermiticity entrywise and return the exactly Hermitian part."""
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol:
        raise NotHermitian(f"{name} is not Hermitian: max |m - m*| = {defect:.3e} > {tol:.1e}")
    return 0.5 * (m + m.conj().T)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def psd_sqrt(m: np.ndarray, clamp: float = 1e-12) -> np.ndarray:
    """Principal Hermitian square root.

    Eigenvalues in [-clamp, 0) are clamped to 0 to absorb rounding; a more
    negative eigenvalue raises ValueError.
    """
    w, v = np.linalg.eigh(m)
    if w[0] < -clamp:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def spectral_abs(m: np.ndarray) -> np.ndarray:
    """|M| = sqrt(M^2) for Hermitian M."""
    w, v = np.linalg.eigh(m)
    return (v * np.abs(w)) @ v.conj().T


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def readonly(a: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller: freeze them."""
    a.flags.writeable = False
    return a


def unitary_expm(g: np.ndarray) -> np.ndarray:
    """exp(g) for anti-Hermitian g, from the eigh of the Hermitian -i g."""
    w, v = np.linalg.eigh(-1j * g)
    return (v * np.exp(1j * w)) @ v.conj().T


@functools.lru_cache(maxsize=4)
def _log_factorials(size: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1.0) for k in range(size)])


def log_factorial(n) -> np.ndarray:
    """ln n! at integer-valued n >= 0, from a cached table of math.lgamma
    (a running sum of logs is 5-8x less accurate by n = 400), sized to a
    power of two above max n and at least 1024."""
    n = np.asarray(n).astype(np.intp)
    return _log_factorials(1 << max(int(n.max(initial=0)).bit_length(), 10))[n]


def xlogy(x, y, log=np.log) -> np.ndarray:
    """x log(y), and 0 where x = 0 whatever y is; log=np.log1p gives x ln(1 + y)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(x, 0), 0.0, x * log(y))


def poisson_cdf(x: float, size: int) -> np.ndarray:
    """P(N <= n) for N ~ Poisson(x) and n < size, the regularized incomplete
    gamma function Q(n + 1, x), as a running log-sum of the Poisson terms."""
    k = np.arange(size)
    return np.exp(np.logaddexp.accumulate(xlogy(k, x) - x - log_factorial(k)))

