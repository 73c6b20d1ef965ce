import numpy as np
import pytest

from gausslab import fock
from gausslab._linalg import unitary_expm
from gausslab.channels import (
    amplifier_channel,
    attenuator_channel,
    classical_noise_channel,
)
from gausslab.errors import AmplitudeTooLarge, DimensionMismatch
from gausslab.fock import FockOperator, FockSpace


@pytest.fixture(scope="session")
def space40():
    return fock.FockSpace(1, 40)


@pytest.fixture(scope="session")
def att06():
    return attenuator_channel(0.6)


@pytest.fixture(scope="session")
def amp15():
    return amplifier_channel(1.5)


@pytest.fixture(scope="session")
def noise05():
    return classical_noise_channel(0.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def dense_ops(kraus: fock.OneModeChannelKraus) -> list[np.ndarray]:
    """Dense Kraus matrices A_l of a Kraus list, one per nonzero band of its
    band sum: the diagonal above (attenuator) or below (amplifier) the main
    one by l."""
    sign = 1 if kraus.kind == "attenuator" else -1
    bands = [np.diag(np.diagonal(kraus.band_sum, sign * l), sign * l)
             for l in range(kraus.space.cutoff)]
    return [a for a in bands if a.any()]



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
