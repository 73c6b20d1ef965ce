"""The NumPy forms of the special functions the library needs, against SciPy."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import gammaincc, gammaln, xlog1py, xlogy
from conftest import annihilation, displacement_matrix

from gausslab import _linalg, fock


def test_log_factorial_matches_gammaln():
    n = np.arange(3 * fock.DIM_GUARD + 1)
    reference = gammaln(n + 1.0)
    got = _linalg.log_factorial(n)
    assert np.array_equal(got[:2], [0.0, 0.0])
    np.testing.assert_allclose(got, reference, rtol=1e-14, atol=0)


def scipy_kraus_table(kind: str, parameter: float, labels: int, d: int) -> np.ndarray:
    """The Kraus amplitude table in its SciPy form (gammaln, xlogy)."""
    l = np.arange(labels, dtype=float)[:, None]
    n = np.arange(d, dtype=float)[None, :]
    if kind == "attenuator":
        m = np.maximum(n - l, 0.0)
        log_amp = (0.5 * (gammaln(n + 1.0) - gammaln(l + 1.0) - gammaln(m + 1.0))
                   + xlogy(m, parameter) + 0.5 * xlogy(l, (1.0 - parameter) * (1.0 + parameter)))
        return np.where(l <= n, (-1.0) ** l * np.exp(log_amp), 0.0)
    log_kappa = np.log(parameter)
    log_amp = (0.5 * (gammaln(n + l + 1.0) - gammaln(l + 1.0) - gammaln(n + 1.0))
               - (n + 1.0) * log_kappa + 0.5 * xlogy(l, -np.expm1(-2.0 * log_kappa)))
    return np.exp(log_amp)


@pytest.mark.parametrize("kind,parameter", [("attenuator", 0.0), ("attenuator", 0.3),
                                            ("attenuator", 1.0), ("amplifier", 1.0),
                                            ("amplifier", 1.5), ("amplifier", 3.0)])
def test_kraus_table_matches_scipy_form(kind, parameter):
    # Both forms exponentiate sums of log-factorials of size up to ln 254! ~ 1.1e3,
    # whose last place is 2.3e-13; gammaln and math.lgamma are each within a few
    # places of the exact value, so the amplitudes agree to about that relative
    # accuracy, and to 1e-13 of the largest amplitude.
    got = fock._kraus_table(kind, parameter, 128, 128)
    reference = scipy_kraus_table(kind, parameter, 128, 128)
    assert np.array_equal(got == 0, reference == 0)
    assert np.array_equal(np.sign(got), np.sign(reference))
    nonzero = reference != 0
    assert np.all(np.abs(got - reference)[nonzero] <= 5e-13 * np.abs(reference[nonzero]))
    assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()


def test_xlogy_matches_scipy_without_warnings():
    x = np.array([0.0, 0.0, 0.0, 1e-300, 0.5, 3.0, 7.0])
    y = np.array([0.0, np.inf, 1.0, 1e-300, 0.25, 2.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_linalg.xlogy(x, y), xlogy(x, y))
        with np.errstate(divide="ignore"):
            inverse = 1.0 / np.array([0.0, 1e-8, 0.5, 3.0, 1e12])
        got = _linalg.xlogy(1.0 / inverse, inverse, np.log1p)
    np.testing.assert_allclose(got, xlog1py(1.0 / inverse, inverse), rtol=1e-15, atol=0)


@pytest.mark.parametrize("radius", [6.0, 12.0])
@pytest.mark.parametrize("n_mean", [0.0, 0.25, 0.5, 1.5])
def test_poisson_cdf_matches_gammaincc(radius, n_mean):
    x = radius ** 2 / (n_mean + 1.0)
    reference = gammaincc(np.arange(128) + 1.0, x)
    np.testing.assert_allclose(_linalg.poisson_cdf(x, 128), reference, rtol=1e-13, atol=0)


def test_unitary_expm_matches_scipy_expm():
    space = fock.FockSpace(1, 40)
    a = annihilation(space.cutoff)
    z = 1.1 - 0.7j
    reference = sla.expm(z * a.conj().T - np.conj(z) * a)
    assert np.abs(displacement_matrix(z, space).matrix - reference).max() < 1e-13
    d, theta = 6, 0.8
    u = fock.beamsplitter_unitary(theta, fock.FockSpace(2, d)).matrix
    for total in range(2 * d - 1):
        js = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        sub = -theta * np.sqrt((js[:-1] + 1.0) * (total - js[:-1]))
        idx = (total - js) * d + js
        block = sla.expm(np.diag(sub, -1) - np.diag(sub, 1))
        assert np.abs(u[np.ix_(idx, idx)] - block).max() < 1e-13
