import numpy as np
import pytest

from gausslab import fock
from gausslab.channels import (
    amplifier_channel,
    attenuator_channel,
    classical_noise_channel,
)


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

