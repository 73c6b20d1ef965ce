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
    """Dense Kraus matrices A_l of a banded Kraus list, one per shift."""
    total = kraus.band_sum()
    return [np.diag(np.diagonal(total, -s), -s) for s in kraus.shifts]


def mode_stages(realized: fock.FockChannel, mode: int = 0) -> tuple:
    """(attenuator kraus | None, amplifier kraus | None) of one mode of a
    realized channel, rebuilt from its pipeline; a unit stage is None."""
    k, kappa = realized.pipelines[mode].attenuation, realized.pipelines[mode].gain
    one = fock.FockSpace(1, realized.space.cutoff)
    return (fock.attenuator_kraus(k, one) if k < 1.0 - 1e-14 else None,
            fock.amplifier_kraus(kappa, one) if kappa > 1.0 + 1e-14 else None)
