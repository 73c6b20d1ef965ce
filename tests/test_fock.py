import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import dense_ops

from gausslab import fock
from gausslab.husimi import measure_reprepare_channel
from gausslab.channels import (
    amplifier_channel,
    attenuator_channel,
    build_channel,
    classical_noise_channel,
    decompose,
    random_channel,
)
from gausslab.errors import (
    AmplitudeTooLarge,
    DimensionMismatch,
    InvalidState,
    NotDiagonal,
    NotHermitian,
    ParameterOutOfRange,
    TruncationLeakage,
)
from gausslab.states import apply_channel, gaussian_state, tensor_channel


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self, space40):
        psi = fock.coherent_state(0.0, space40)
        assert psi.amplitudes[0] == 1.0
        assert np.abs(psi.amplitudes[1:]).max() == 0.0

    def test_ground_amplitude(self, space40):
        psi = fock.coherent_state(1.0, space40)
        assert abs(psi.amplitudes[0]) == pytest.approx(np.exp(-0.5), abs=1e-10)

    @pytest.mark.parametrize("zeta", [0.5, 1.0 + 0.5j, 2.0, -1.4j])
    def test_mean_photon_number(self, space40, zeta):
        psi = fock.coherent_state(zeta, space40)
        assert fock.mean_photon(psi)[0] == pytest.approx(abs(zeta) ** 2, abs=1e-8)

    def test_amplitude_guard(self, space40):
        with pytest.raises(AmplitudeTooLarge):
            fock.coherent_state(4.0, space40)


class TestDisplacement:
    def test_zero_is_identity(self, space40):
        d = fock.displacement_matrix(0.0, space40)
        assert np.abs(d.matrix - np.eye(40)).max() < 1e-14

    def test_displaces_vacuum_to_coherent(self, space40):
        z = 0.8 - 0.3j
        d = fock.displacement_matrix(z, space40)
        target = fock.coherent_state(z, space40).amplitudes
        assert np.abs(d.matrix[:, 0] - target).max() < 1e-8

    def test_composition_phase(self, space40):
        z1, z2 = 0.4 + 0.1j, -0.2 + 0.3j
        d1 = fock.displacement_matrix(z1, space40).matrix
        d2 = fock.displacement_matrix(z2, space40).matrix
        d12 = fock.displacement_matrix(z1 + z2, space40).matrix
        phase = np.exp(-1j * np.imag(np.conj(z1) * z2))
        block = slice(0, 10)
        assert np.abs((d1 @ d2)[block, block] - (phase * d12)[block, block]).max() < 1e-6

    def test_unitary_on_low_photon_block(self, space40):
        d = fock.displacement_matrix(1.1, space40).matrix
        gram = d.conj().T @ d
        assert np.abs(gram[:10, :10] - np.eye(10)).max() < 1e-8


class TestAttenuatorKraus:
    def test_unit_transmission_is_identity(self, space40):
        kraus = fock.attenuator_kraus(1.0, space40)
        assert len(dense_ops(kraus)) == 1
        assert np.abs(dense_ops(kraus)[0] - np.eye(40)).max() < 1e-12

    def test_single_photon_balanced_split(self, space40):
        kraus = fock.attenuator_kraus(np.sqrt(0.5), space40)
        out = fock.apply_kraus(kraus, fock.density(fock.number_state(space40, 1)))
        assert out.matrix[1, 1].real == pytest.approx(0.5, abs=1e-12)
        assert out.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_coherent_input_attenuates(self, space40):
        k, zeta = 0.7, 1.5
        kraus = fock.attenuator_kraus(k, space40)
        out = fock.apply_kraus(kraus, fock.density(fock.coherent_state(zeta, space40)))
        target = fock.coherent_state(k * zeta, space40).amplitudes
        fidelity = np.real(target.conj() @ out.matrix @ target)
        assert fidelity >= 1 - 1e-8

    def test_vacuum_invariant(self, space40):
        kraus = fock.attenuator_kraus(0.3, space40)
        out = fock.apply_kraus(kraus, fock.density(fock.vacuum_state(space40)))
        assert abs(out.matrix[0, 0] - 1.0) < 1e-10
        assert np.abs(out.matrix).sum() == pytest.approx(1.0, abs=1e-10)

    def test_completeness_within_margin(self, space40):
        kraus = fock.attenuator_kraus(0.6, space40)
        assert fock.kraus_completeness_defect(kraus, 30) < 1e-8

    def test_parameter_guard(self, space40):
        with pytest.raises(ParameterOutOfRange):
            fock.attenuator_kraus(1.2, space40)

    def test_zero_transmission_maps_to_vacuum(self, space40):
        kraus = fock.attenuator_kraus(0.0, space40)
        out = fock.apply_kraus(kraus, fock.density(fock.number_state(space40, 7)))
        assert out.matrix[0, 0] == 1.0
        assert np.abs(out.matrix).sum() == 1.0


class TestAmplifierKraus:
    def test_unit_gain_is_identity(self, space40):
        kraus = fock.amplifier_kraus(1.0, space40)
        assert len(dense_ops(kraus)) == 1
        assert np.abs(dense_ops(kraus)[0] - np.eye(40)).max() < 1e-12

    def test_vacuum_becomes_thermal(self, space40):
        kraus = fock.amplifier_kraus(np.sqrt(2), space40)
        out = fock.apply_kraus(kraus, fock.density(fock.vacuum_state(space40)))
        diag = np.real(np.diagonal(out.matrix))
        expected = 0.5 ** (np.arange(40) + 1)
        assert np.abs(diag - expected).max() < 1e-6
        off = out.matrix - np.diag(np.diagonal(out.matrix))
        assert np.abs(off).max() < 1e-12

    def test_coherent_covariance(self, space40):
        kappa, zeta = 1.4, 0.8
        kraus = fock.amplifier_kraus(kappa, space40)
        out = fock.apply_kraus(kraus, fock.density(fock.coherent_state(zeta, space40)))
        # alpha' = kappa^2/2 + (kappa^2 - 1)/2, on top of the displaced mean
        n_out = fock.mean_photon(out)[0]
        expected = kappa ** 2 * abs(zeta) ** 2 + (kappa ** 2 - 1)
        assert n_out == pytest.approx(expected, abs=1e-6)

    def test_completeness_low_occupation(self, space40):
        kraus = fock.amplifier_kraus(1.2, space40)
        assert fock.kraus_completeness_defect(kraus, 5) < 1e-8

    def test_tail_guard(self):
        with pytest.raises(ParameterOutOfRange):
            fock.amplifier_kraus(3.0, fock.FockSpace(1, 40))

    @pytest.mark.parametrize("kappa,d,step", [(1.5, 40, 1), (np.sqrt(10.0), 128, 8)],
                             ids=["kappa1.5-d40", "kappa^2=10-d128"])
    def test_bands_match_wide_squeezer_block(self, kappa, d, step):
        # every band entry A_l[n + l, n] below the cutoff, against a squeezer
        # block 8d wide, whose edge reflection no longer reaches the bands; at
        # d = 128 every eighth input level (one block costs about 0.1 s)
        G = fock.amplifier_kraus(kappa, fock.FockSpace(1, d)).band_sum
        for n in range(0, d, step):
            ref = squeezer_column(kappa, n, 8 * d)
            assert np.abs(G[n:, n] - ref[: d - n]).max() < 1e-12


def squeezer_column(kappa: float, n: int, width: int) -> np.ndarray:
    """<n + l, l| exp(r (a^dag b^dag - a b)) |n, 0> for l < width, cosh(r) =
    kappa: the photon-difference-n block of the two-mode squeezer, cut at
    ancilla level width - 1 and exponentiated through eigh of its
    phase-rotated (real symmetric) tridiagonal form."""
    r = float(np.arccosh(kappa))
    j = np.arange(width - 1)
    lam, w = sla.eigh_tridiagonal(np.zeros(width), -r * np.sqrt((n + j + 1.0) * (j + 1.0)))
    col = np.conj(1j ** np.arange(width)) * (w @ (np.exp(-1j * lam) * w[0]))
    assert np.abs(col.imag).max() < 1e-12
    return col.real


class TestApplyKraus:
    def test_two_mode_product_channel_factorizes(self):
        d = 8
        one = fock.FockSpace(1, d)
        att = fock.attenuator_kraus(0.7, one)
        amp = fock.amplifier_kraus(1.1, one)
        a = fock.coherent_state(0.4, one)
        b = fock.number_state(one, 1)
        rho2 = fock.density(fock.tensor_pure(a, b))
        out2 = fock.apply_kraus([att, amp], rho2)
        out_a = fock.apply_kraus(att, fock.density(a))
        out_b = fock.apply_kraus(amp, fock.density(b))
        assert np.abs(out2.matrix - np.kron(out_a.matrix, out_b.matrix)).max() < 1e-10

    def test_two_mode_matches_kron_oracle(self):
        d = 6
        one = fock.FockSpace(1, d)
        two = fock.FockSpace(2, d)
        att = fock.attenuator_kraus(0.5, one)
        psi = fock.random_pure_state(3, two)
        rho = fock.density(psi)
        out = fock.apply_kraus([None, att], rho)
        oracle = np.zeros_like(rho.matrix)
        for a in dense_ops(att):
            big = np.kron(np.eye(d), a)
            oracle += big @ rho.matrix @ big.conj().T
        assert np.abs(out.matrix - oracle).max() < 1e-12

    def test_cutoff_mismatch(self, space40):
        kraus = fock.attenuator_kraus(0.5, fock.FockSpace(1, 20))
        with pytest.raises(DimensionMismatch):
            fock.apply_kraus(kraus, fock.density(fock.vacuum_state(space40)))

    @pytest.mark.parametrize("modes,kraus", [
        (1, lambda att, amp: amp),
        (2, lambda att, amp: [att, amp]),
        (2, lambda att, amp: [None, amp]),
        (2, lambda att, amp: [att, None]),
    ], ids=["one-mode", "two-mode", "none-first", "none-second"])
    def test_pure_state_is_its_density(self, modes, kraus):
        one = fock.FockSpace(1, 12)
        stages = kraus(fock.attenuator_kraus(0.7, one), fock.amplifier_kraus(1.3, one))
        psi = fock.random_pure_state(9, fock.FockSpace(modes, 12), support=4)
        assert np.array_equal(fock.apply_kraus(stages, psi).matrix,
                              fock.apply_kraus(stages, fock.density(psi)).matrix)

    def test_one_mode_list_on_two_modes(self):
        kraus = fock.attenuator_kraus(0.5, fock.FockSpace(1, 8))
        with pytest.raises(DimensionMismatch):
            fock.apply_kraus(kraus, fock.vacuum_state(fock.FockSpace(2, 8)))


class TestFockChannel:
    @pytest.mark.parametrize("phases,stages", [
        ((0.0, 0.0), ((8,), (6,))),
        ((0.0,), ((8,), ())),
        ((0.0, 0.0, 0.0), ((8,), ())),
        ((0.0, 0.0), ((8,),)),
        ((0.0, 0.0), ((8,), (), ())),
    ], ids=["stage-cutoff", "one-phase", "three-phases", "one-stage-tuple",
            "three-stage-tuples"])
    def test_rejects_stages_that_do_not_fit(self, phases, stages):
        stages = tuple(tuple(fock.attenuator_kraus(0.5, fock.FockSpace(1, d)) for d in mode)
                       for mode in stages)
        with pytest.raises(DimensionMismatch):
            fock.FockChannel(fock.FockSpace(2, 8), phases, stages)


def on_mode(a: np.ndarray, x: np.ndarray, mode: int) -> np.ndarray:
    """A x A^dag with A acting on one mode of x, axes [m1, (m2,) n1, (n2)]."""
    modes = x.ndim // 2
    x = np.moveaxis(np.tensordot(a, x, axes=(1, mode)), 0, mode)
    return np.moveaxis(np.tensordot(a.conj(), x, axes=(1, modes + mode)), 0, modes + mode)


def dense_sandwich(realized, rho: np.ndarray) -> np.ndarray:
    """Reference for a product channel: per mode, gauge phase, then
    sum_l A_l rho A_l^dag per stage with the dense Kraus matrices."""
    d, modes = realized.space.cutoff, realized.space.modes
    x = rho.reshape((d,) * (2 * modes))
    for mode, (phase, stages) in enumerate(zip(realized.phases, realized.stages)):
        x = on_mode(np.diag(np.exp(1j * phase * np.arange(d))), x, mode)
        for stage in stages:
            x = sum(on_mode(a, x, mode) for a in dense_ops(stage))
    return x.reshape(rho.shape)


def operator_pair(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitian and a non-Hermitian operator with decaying entries."""
    rng = np.random.default_rng(seed)
    psi = fock.random_pure_state(seed, fock.FockSpace(1, d), support=8)
    decay = np.exp(-np.add.outer(np.arange(d), np.arange(d)) / 8.0)
    other = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * decay
    return np.outer(psi.amplitudes, psi.amplitudes.conj()), other


PHASE_CHANNEL = build_channel(np.diag([0.5 * np.exp(0.7j)]), np.diag([0.6]))
GAUGE_CHANNEL = build_channel(np.diag([np.exp(0.7j)]), np.diag([0.0]))  # both stages unit
LOSS_CHANNEL = build_channel(np.diag([0.0]), np.diag([0.5]))  # everything to the vacuum


def boxed_inputs(space: fock.FockSpace, box: tuple[int, ...], seed: int) -> list:
    """(state, dense density) pairs that vanish outside the first box[j]
    levels of each mode j: a pure state, a Hermitian and a non-Hermitian
    operator, and two operators whose rows and columns occupy different
    boxes (one row level, or one column level, per mode)."""
    rng = np.random.default_rng(seed)
    d, modes = space.cutoff, space.modes
    inside = tuple(slice(s) for s in box)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = np.zeros((d,) * modes, dtype=complex)
    grid[inside] = noise(box)
    psi = fock.pure_state(space, grid, normalize=True)
    other = np.zeros((d,) * (2 * modes), dtype=complex)
    other[inside * 2] = noise(box * 2)
    other = other.reshape(space.dim, space.dim)
    mixed = other @ other.conj().T
    rows = np.zeros((d,) * (2 * modes), dtype=complex)
    rows[inside + (slice(1),) * modes] = noise(box + (1,) * modes)
    rows = rows.reshape(space.dim, space.dim)
    ops = [mixed / np.trace(mixed), other, rows, rows.T.copy()]
    return [(psi, fock.density(psi).matrix)] + [(fock.FockOperator(space, m), m) for m in ops]


class TestTransferKernel:
    @pytest.mark.parametrize("ch,d", [
        (attenuator_channel(0.6), 40),
        (amplifier_channel(1.5), 40),
        (classical_noise_channel(0.5), 40),
        (PHASE_CHANNEL, 40),
        (measure_reprepare_channel(3.0), 128),
        (GAUGE_CHANNEL, 40),
        (LOSS_CHANNEL, 40),
    ], ids=["attenuator", "amplifier", "classical-noise", "phase", "measure-reprepare",
            "gauge", "loss"])
    def test_matches_dense_sandwich(self, ch, d):
        realized = fock.realize_channel(ch, fock.FockSpace(1, d))
        for rho in operator_pair(d, 41):
            out = realized.apply(fock.FockOperator(realized.space, rho)).matrix
            assert np.abs(out - dense_sandwich(realized, rho)).max() < 1e-12

    @pytest.mark.parametrize("space,box", [
        (fock.FockSpace(1, 12), (1,)),
        (fock.FockSpace(1, 12), (2,)),
        (fock.FockSpace(1, 12), (3,)),
        (fock.FockSpace(1, 12), (12,)),
        (fock.FockSpace(2, 8), (1, 1)),
        (fock.FockSpace(2, 8), (2, 2)),
        (fock.FockSpace(2, 8), (3, 3)),
        (fock.FockSpace(2, 8), (8, 8)),
        (fock.FockSpace(2, 8), (1, 3)),
        (fock.FockSpace(2, 8), (3, 2)),
        (fock.FockSpace(2, 8), (8, 2)),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"{v.modes}mode")
    @pytest.mark.parametrize("first", [PHASE_CHANNEL, GAUGE_CHANNEL, LOSS_CHANNEL],
                             ids=["phase", "gauge", "loss"])
    def test_support_aware_apply_matches_dense_sandwich(self, space, box, first):
        ch = (first if space.modes == 1
              else tensor_channel(first, classical_noise_channel(0.5)))
        realized = fock.realize_channel(ch, space)
        for state, rho in boxed_inputs(space, box, 17):
            out = realized.apply(state).matrix
            assert np.abs(out - dense_sandwich(realized, rho)).max() < 1e-12

    def test_untouched_mode_keeps_its_box(self):
        space = fock.FockSpace(2, 8)
        att = fock.attenuator_kraus(0.5, fock.FockSpace(1, 8))
        for state, rho in boxed_inputs(space, (3, 2), 5):
            op = state if isinstance(state, fock.FockOperator) else fock.density(state)
            oracle = sum(on_mode(a, rho.reshape((8,) * 4), 1) for a in dense_ops(att))
            out = fock.apply_kraus([None, att], op).matrix
            assert np.abs(out - oracle.reshape(64, 64)).max() < 1e-12

    def test_realization_holds_no_cubic_array(self):
        d = 128
        realized = fock.realize_channel(measure_reprepare_channel(3.0), fock.FockSpace(1, d))
        realized.apply(fock.vacuum_state(realized.space))  # builds what apply caches
        sizes, todo = [], [realized]
        while todo:
            obj = todo.pop()
            if isinstance(obj, np.ndarray):
                while getattr(obj, "base", None) is not None:  # views: their memory's owner
                    obj = obj.base
                sizes.append(obj.size)
            elif isinstance(obj, (tuple, list)):
                todo.extend(obj)
            elif hasattr(obj, "__dict__"):
                todo.extend(vars(obj).values())
        assert sizes and max(sizes) <= 4 * d * d

    @pytest.mark.parametrize("builder,param,n_max", [(fock.attenuator_kraus, 0.6, 30),
                                                     (fock.amplifier_kraus, 1.2, 5),
                                                     (fock.amplifier_kraus, 1.5, 39)])
    def test_completeness_defect_matches_dense(self, space40, builder, param, n_max):
        kraus = builder(param, space40)
        total = sum(a.conj().T @ a for a in dense_ops(kraus))
        dense = np.abs(total[: n_max + 1, : n_max + 1] - np.eye(n_max + 1)).max()
        assert abs(fock.kraus_completeness_defect(kraus, n_max) - dense) <= 1e-14 + 1e-9 * dense

    def test_caches_stay_bounded(self):
        space = fock.FockSpace(1, 8)
        for i in range(fock.CACHE_SIZE + 3):
            fock.realize_channel(attenuator_channel(0.05 * (i + 1)), space)
        fock.realize_channel(attenuator_channel(0.5), space).apply(fock.vacuum_state(space))
        for cache in (fock._banded_kraus, fock._cyclic_columns):
            info = cache.cache_info()
            assert info.maxsize == fock.CACHE_SIZE
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("ch,space", [
        (classical_noise_channel(0.5), fock.FockSpace(1, 40)),
        (tensor_channel(attenuator_channel(0.6), amplifier_channel(1.2)), fock.FockSpace(2, 12)),
    ], ids=["one-mode", "two-mode"])
    def test_pure_input_is_its_density(self, ch, space):
        realized = fock.realize_channel(ch, space)
        psi = fock.random_pure_state(7, space, support=4)
        assert np.array_equal(realized.apply(psi).matrix,
                              realized.apply(fock.density(psi)).matrix)

    @pytest.mark.parametrize("state", [
        fock.vacuum_state(fock.FockSpace(1, 24)),
        fock.density(fock.vacuum_state(fock.FockSpace(2, 20))),
    ], ids=["pure", "mixed"])
    def test_rejects_state_on_another_space(self, state):
        realized = fock.realize_channel(attenuator_channel(0.6), fock.FockSpace(1, 20))
        with pytest.raises(DimensionMismatch):
            realized.apply(state)


class TestGaugeRotation:
    def test_zero_phase_is_identity(self, space40):
        u = fock.gauge_rotation(0.0, space40)
        assert np.abs(u.matrix - np.eye(40)).max() == 0.0

    def test_rotates_coherent_states(self, space40):
        phi, zeta = 0.9, 1.1 + 0.2j
        u = fock.gauge_rotation(phi, space40)
        rotated = u.matrix @ fock.coherent_state(zeta, space40).amplitudes
        target = fock.coherent_state(np.exp(1j * phi) * zeta, space40).amplitudes
        assert abs(np.vdot(target, rotated)) ** 2 >= 1 - 1e-8

    @pytest.mark.parametrize("builder,param", [(fock.attenuator_kraus, 0.6),
                                               (fock.amplifier_kraus, 1.3)])
    def test_channels_are_gauge_covariant(self, space40, builder, param):
        kraus = builder(param, space40)
        psi = fock.random_pure_state(17, space40, support=5)
        rho = fock.density(psi)
        out = fock.apply_kraus(kraus, rho)
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            u = fock.gauge_rotation(phi, space40).matrix
            lhs = fock.apply_kraus(kraus, fock.FockOperator(space40, u @ rho.matrix @ u.conj().T))
            rhs = u @ out.matrix @ u.conj().T
            assert np.abs(lhs.matrix - rhs).max() < 1e-8


class TestTranspose:
    def test_diagonal_fixed(self, space40):
        rho = fock.thermal_state(0.7, space40)
        assert np.abs(fock.transpose_state(rho).matrix - rho.matrix).max() == 0.0

    def test_coherent_conjugates(self, space40):
        zeta = 0.6 + 0.4j
        rho = fock.density(fock.coherent_state(zeta, space40))
        out = fock.transpose_state(rho)
        target = fock.density(fock.coherent_state(np.conj(zeta), space40))
        assert np.abs(out.matrix - target.matrix).max() < 1e-8

    def test_spectrum_invariant(self, space40):
        psi = fock.random_pure_state(5, space40, support=8)
        kraus = fock.attenuator_kraus(0.8, space40)
        rho = fock.apply_kraus(kraus, fock.density(psi))
        assert np.abs(fock.spectrum(rho) - fock.spectrum(fock.transpose_state(rho))).max() < 1e-10


class TestComplementary:
    def test_unit_gain_gives_vacuum(self, space40):
        psi = fock.random_pure_state(11, space40, support=6)
        out = fock.complementary_output(1.0, fock.density(psi))
        assert abs(out.matrix[0, 0] - 1.0) < 1e-12
        assert np.abs(out.matrix).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kappa", [1.2, 1.5, 2.0])
    def test_representation_identity(self, space40, kappa):
        psi = fock.random_pure_state(23, space40, support=5)
        rho = fock.density(psi)
        lhs = fock.complementary_output(kappa, rho)
        k_tilde = np.sqrt(1 - kappa ** -2)
        stage1 = fock.apply_kraus(fock.attenuator_kraus(k_tilde, space40), rho)
        stage2 = fock.apply_kraus(fock.amplifier_kraus(kappa, space40), stage1)
        rhs = fock.transpose_state(stage2)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-6

    @pytest.mark.parametrize("dilation", [
        lambda psi: fock.complementary_output(0.9, fock.density(psi)),
        lambda psi: fock.amplifier_dilation_marginals(0.9, psi),
    ], ids=["complementary", "marginals"])
    def test_rejects_gain_below_one(self, space40, dilation):
        with pytest.raises(ParameterOutOfRange):
            dilation(fock.vacuum_state(space40))

    def test_marginal_spectra_coincide(self, space40):
        psi = fock.random_pure_state(29, space40, support=5)
        sys_out, anc_out = fock.amplifier_dilation_marginals(1.5, psi)
        assert np.abs(fock.spectrum(sys_out) - fock.spectrum(anc_out)).max() < 1e-8

    def test_marginals_match_kraus_paths(self, space40):
        kappa = 1.5
        psi = fock.random_pure_state(31, space40, support=5)
        sys_out, anc_out = fock.amplifier_dilation_marginals(kappa, psi)
        via_kraus = fock.apply_kraus(fock.amplifier_kraus(kappa, space40),
                                     fock.density(psi))
        assert np.abs(sys_out.matrix[:40, :40] - via_kraus.matrix).max() < 1e-9
        via_comp = fock.complementary_output(kappa, fock.density(psi))
        assert np.abs(anc_out.matrix[:40, :40] - via_comp.matrix).max() < 1e-9


class TestSpectrum:
    def test_pure_state(self, space40):
        lam = fock.spectrum(fock.density(fock.coherent_state(0.9, space40)))
        assert lam[0] == pytest.approx(1.0, abs=1e-9)
        assert lam[1] < 1e-9

    def test_balanced_split(self, space40):
        kraus = fock.attenuator_kraus(np.sqrt(0.5), space40)
        out = fock.apply_kraus(kraus, fock.density(fock.number_state(space40, 1)))
        lam = fock.spectrum(out)
        assert np.allclose(lam[:2], [0.5, 0.5], atol=1e-10)

    def test_thermal_geometric(self, space40):
        lam = fock.spectrum(fock.thermal_state(1.0, space40))
        assert np.abs(lam - 0.5 ** (np.arange(40) + 1)).max() < 1e-10

    def test_rejects_non_hermitian(self, space40):
        mat = np.zeros((40, 40), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            fock.spectrum(fock.FockOperator(space40, mat))

    def test_diagonal_read_off_its_entries(self, space40):
        w = np.linspace(0.2, -5e-9, 40)
        lam = fock.spectrum(fock.FockOperator(space40, np.diag(w[::-1]).astype(complex)))
        assert np.array_equal(lam, np.clip(w, 0.0, None))

    def test_diagonal_below_clamp_is_invalid(self, space40):
        w = np.zeros(40)
        w[:2] = [0.6, 0.4 + 2e-8]
        w[7] = -2e-8
        with pytest.raises(InvalidState):
            fock.spectrum(fock.FockOperator(space40, np.diag(w).astype(complex)))

    def test_diagonal_rejects_non_hermitian(self, space40):
        mat = np.diag(np.full(40, 1 / 40)).astype(complex)
        mat[3, 3] += 1e-6j
        with pytest.raises(NotHermitian):
            fock.spectrum(fock.FockOperator(space40, mat))


def _hermitian_with_spectrum(w, seed=0):
    """U diag(w) U^dag for a random unitary U: a dense Hermitian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(w),) * 2)
                        + 1j * rng.standard_normal((len(w),) * 2))
    return (q * np.asarray(w)) @ q.conj().T


class TestStructureScan:
    """fock._structure: per mode, the occupied box and the diagonal width."""

    @staticmethod
    def scan(ch, space, state):
        return fock._structure(fock.realize_channel(ch, space).apply(state).matrix, space)

    def test_attenuator_mode_keeps_its_box(self):
        space = fock.FockSpace(2, 20)
        pair = tensor_channel(attenuator_channel(0.6), attenuator_channel(0.7))
        assert self.scan(pair, space, fock.random_pure_state(1, space, support=3)) == (
            (3, 3), (3, 3))
        one = fock.FockSpace(1, 40)
        assert self.scan(attenuator_channel(0.6), one,
                         fock.random_pure_state(2, one, support=4)) == ((4,), (4,))

    def test_amplifier_mode_fills_the_cutoff(self):
        space = fock.FockSpace(2, 20)
        for ch, boxes in ((tensor_channel(attenuator_channel(0.6), amplifier_channel(1.2)),
                           (3, 20)),
                          (tensor_channel(amplifier_channel(1.2), attenuator_channel(0.6)),
                           (20, 3))):
            assert self.scan(ch, space, fock.random_pure_state(1, space, support=3)) == (
                boxes, (3, 3))

    @pytest.mark.parametrize("space", [fock.FockSpace(1, 12), fock.FockSpace(2, 6)])
    def test_zero_operator(self, space):
        zero = np.zeros((space.dim,) * 2, dtype=complex)
        assert fock._structure(zero, space) == ((1,) * space.modes, (1,) * space.modes)

    def test_column_index_widens_the_box(self, space40):
        # rows occupy the first 3 levels, the entry m[0, 9] column 9 alone
        m = np.diag(np.r_[0.5, 0.3, 0.2, np.zeros(37)]).astype(complex)
        m[0, 9] = 1e-3
        assert fock._structure(m, space40) == ((10,), (10,))
        with pytest.raises(NotHermitian):
            fock.spectrum(fock.FockOperator(space40, m))

    def test_two_mode_column_index_widens_the_box(self):
        space = fock.FockSpace(2, 10)
        m = np.zeros((100, 100), dtype=complex)
        m[:4, :4] = _hermitian_with_spectrum([0.4, 0.3, 0.2, 0.1])  # levels (0, 0..3)
        m[1, 7 * 10 + 2] = 1e-3  # (0, 1) -> (7, 2); its adjoint entry is missing
        assert fock._structure(m, space) == ((8, 4), (8, 4))
        with pytest.raises(NotHermitian):
            fock.spectrum(fock.FockOperator(space, m))


class TestBoxSpectrum:
    """spectrum eigensolves the occupied box only and pads with zeros."""

    @pytest.mark.parametrize("ch,space,state", [
        (tensor_channel(attenuator_channel(0.6), amplifier_channel(1.2)), fock.FockSpace(2, 20),
         lambda s: fock.random_pure_state(1, s, support=3)),
        (tensor_channel(amplifier_channel(1.2), attenuator_channel(0.6)), fock.FockSpace(2, 20),
         lambda s: fock.random_pure_state(1, s, support=3)),
        (attenuator_channel(0.6), fock.FockSpace(1, 40),
         lambda s: fock.random_pure_state(2, s, support=4)),
        (tensor_channel(amplifier_channel(np.sqrt(2)), amplifier_channel(np.sqrt(2))),
         fock.FockSpace(2, 20), lambda s: fock.random_pure_state(3, s, support=3)),
    ], ids=["att0.6-amp1.2", "amp1.2-att0.6", "one-mode-att-support4", "full-box"])
    def test_matches_dense_eigensolve(self, ch, space, state):
        out = fock.realize_channel(ch, space).apply(state(space))
        reference = np.clip(np.linalg.eigvalsh(out.matrix)[::-1], 0.0, None)
        lam = fock.spectrum(out)
        assert lam.shape == reference.shape
        assert np.all(np.diff(lam) <= 0)
        assert np.abs(lam - reference).max() <= 1e-15

    def test_eigensolves_the_box_block(self, monkeypatch):
        space = fock.FockSpace(2, 20)
        out = fock.realize_channel(
            tensor_channel(attenuator_channel(0.6), amplifier_channel(1.2)), space
        ).apply(fock.random_pure_state(1, space, support=3))
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        assert fock.spectrum(out).shape == (400,)
        assert shapes == [(60, 60)]

    @pytest.mark.parametrize("padded", [False, True])
    def test_eigenvalue_below_clamp_inside_the_box_is_invalid(self, space40, padded):
        m = np.zeros((40, 40), dtype=complex)
        size = 4 if padded else 40
        w = np.r_[0.6, 0.4 + 2e-8, np.zeros(size - 3), -2e-8]
        m[:size, :size] = _hermitian_with_spectrum(w)
        assert fock._structure(m, space40)[0] == (size,)
        with pytest.raises(InvalidState):
            fock.spectrum(fock.FockOperator(space40, m))

    def test_negatives_above_clamp_clip_to_a_descending_spectrum(self, space40):
        m = np.zeros((40, 40), dtype=complex)
        m[:4, :4] = _hermitian_with_spectrum([0.6, 0.4 + 5e-9, 0.0, -5e-9])
        lam = fock.spectrum(fock.FockOperator(space40, m))
        assert np.all(np.diff(lam) <= 0) and lam.min() == 0.0
        assert lam[:2] == pytest.approx([0.6, 0.4], abs=1e-8)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.1, np.nan)])
    def test_non_finite_diagonal_entry_is_invalid(self, space40, value):
        m = np.diag(np.full(40, 1 / 40)).astype(complex)
        m[3, 3] = value
        with pytest.raises(InvalidState):
            fock.spectrum(fock.FockOperator(space40, m))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_off_the_diagonal_is_invalid(self, space40, value):
        m = np.zeros((40, 40), dtype=complex)
        m[:4, :4] = _hermitian_with_spectrum([0.4, 0.3, 0.2, 0.1])
        m[1, 2] = m[2, 1] = value
        with pytest.raises(InvalidState):
            fock.spectrum(fock.FockOperator(space40, m))


class TestTracePower:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
    @pytest.mark.parametrize("input_kind", ["sample", "vacuum"])
    def test_matches_eigenvalue_sum(self, p, input_kind):
        space = fock.FockSpace(2, 14)
        realized = fock.realize_channel(
            tensor_channel(amplifier_channel(1.2), attenuator_channel(0.7)), space)
        state = (fock.random_pure_state(5, space, support=3) if input_kind == "sample"
                 else fock.vacuum_state(space))
        out = realized.apply(state)
        diagonal = np.array_equal(out.matrix, np.diag(np.diagonal(out.matrix)))
        assert diagonal == (input_kind == "vacuum")
        lam = np.clip(np.linalg.eigvalsh(out.matrix), 0.0, None)
        assert fock.trace_power(out, p) == pytest.approx(np.sum(lam ** p), abs=1e-12)

    def test_one_mode_output(self, space40):
        out = fock.realize_channel(classical_noise_channel(0.5), space40).apply(
            fock.random_pure_state(2, space40, support=4))
        lam = np.clip(np.linalg.eigvalsh(out.matrix), 0.0, None)
        for p in (2.0, 3.0, 4.0, 2.5):
            assert fock.trace_power(out, p) == pytest.approx(np.sum(lam ** p), abs=1e-12)

    SQRT2_PAIR = tensor_channel(amplifier_channel(np.sqrt(2)), amplifier_channel(np.sqrt(2)))

    @staticmethod
    def vacuum_times_haar(space):
        one = fock.FockSpace(1, space.cutoff)
        return fock.tensor_pure(fock.vacuum_state(one), fock.random_pure_state(3, one, support=3))

    @pytest.mark.parametrize("ch,space,state,boxes,widths,banded", [
        (SQRT2_PAIR, fock.FockSpace(2, 30), lambda s: fock.random_pure_state(1, s, support=3),
         (30, 30), (3, 3), True),
        (tensor_channel(amplifier_channel(1.5), attenuator_channel(0.7)), fock.FockSpace(2, 40),
         lambda s: fock.random_pure_state(2, s, support=3), (40, 3), (3, 3), True),
        (SQRT2_PAIR, fock.FockSpace(2, 30), vacuum_times_haar, (30, 30), (1, 3), True),
        (tensor_channel(amplifier_channel(1.2), attenuator_channel(0.7)), fock.FockSpace(2, 8),
         lambda s: fock.random_pure_state(4, s), (8, 8), (8, 8), False),
        (amplifier_channel(1.5), fock.FockSpace(1, 40),
         lambda s: fock.coherent_state(1.0 + 0.5j, s), (40,), (40,), False),
    ], ids=["sqrt2-pair-d30", "amp1.5-att0.7-d40", "vacuum-haar3", "full-support-d8",
            "one-mode-coherent"])
    def test_diagonals_match_dense_product(self, monkeypatch, ch, space, state, boxes, widths,
                                           banded):
        out = fock.realize_channel(ch, space).apply(state(space))
        assert fock._structure(out.matrix, space) == (boxes, widths)
        calls = []
        square = fock._banded_square
        monkeypatch.setattr(fock, "_banded_square", lambda *a: calls.append(a) or square(*a))
        m = out.matrix
        dense = m @ m  # the reference: one dense product
        for p, reference in ((3, np.real(np.sum(dense * m.conj()))),
                             (4, np.real(np.sum(dense * dense.conj())))):
            assert fock.trace_power(out, p) == pytest.approx(reference, rel=1e-14, abs=0)
        assert len(calls) == (2 if banded else 0)

    def test_banded_order_three_holds_no_dense_array(self):
        space = fock.FockSpace(2, 30)
        out = fock.realize_channel(self.SQRT2_PAIR, space).apply(
            fock.random_pure_state(1, space, support=3))
        tracemalloc.start()
        try:
            fock.trace_power(out, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.matrix.nbytes  # one 900 x 900 complex array: 13 MB

    @pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
    def test_fock_diagonal_below_clamp_is_invalid(self, space40, p):
        negative = np.diag(np.r_[1.0 + 1e-6, np.zeros(38), -1e-6]).astype(complex)
        with pytest.raises(InvalidState):
            fock.trace_power(fock.FockOperator(space40, negative), p)

    @pytest.mark.parametrize("p", [2, 3, 4, 2.5])
    def test_non_finite_operator_is_invalid(self, space40, p):
        # a Hermitian 3 x 3 block with a NaN coherence: order 2 reads no mask,
        # orders 3 and 4 take the banded square, 2.5 the spectrum
        m = np.zeros((40, 40), dtype=complex)
        m[:3, :3] = [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05j], [0.0, -0.05j, 0.2]]
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(InvalidState):
            fock.trace_power(fock.FockOperator(space40, m), p)

    @pytest.mark.parametrize("p", [2, 2.5, 3, 4])
    @pytest.mark.parametrize("diagonal,error", [((1.2, -0.2), InvalidState),
                                                ((0.7 + 0.5j, 0.3), NotHermitian)],
                             ids=["negative", "imaginary"])
    def test_every_order_checks_the_diagonal(self, space40, p, diagonal, error):
        # a two-level block with coherences: orders 3 and 4 take the banded
        # square, which assumes a Hermitian state, so the diagonal is checked
        # first, as at order 2
        m = np.zeros((40, 40), dtype=complex)
        m[0, 0], m[1, 1] = diagonal
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(error):
            fock.trace_power(fock.FockOperator(space40, m), p)

    def test_non_integer_order_rejects_non_hermitian(self, space40):
        skew = np.diag(np.full(40, 1 / 40)).astype(complex)
        skew[0, 1] = 1e-6
        with pytest.raises(NotHermitian):
            fock.trace_power(fock.FockOperator(space40, skew), 2.5)


class TestRandomStates:
    def test_deterministic_per_seed(self, space40):
        a = fock.random_pure_state(99, space40)
        b = fock.random_pure_state(99, space40)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self, space40):
        psi = fock.random_pure_state(7, space40)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_haar_mean_occupation(self):
        space = fock.FockSpace(1, 20)
        means = [fock.mean_photon(fock.random_pure_state(i, space))[0]
                 for i in range(1000)]
        assert np.mean(means) == pytest.approx((20 - 1) / 2, rel=0.05)


class TestRealizeChannel:
    def test_leakage_policy(self, space40):
        kraus = fock.amplifier_kraus(1.5, space40)
        out = fock.apply_kraus(kraus, fock.density(fock.number_state(space40, 8)))
        assert fock.leakage(out) > 1e-6
        with pytest.raises(TruncationLeakage):
            fock.require_leakage(out, 1e-6)

    def test_covariance_consistency_with_exact_action(self, space40):
        # thermal inputs with N <= 2 through one-mode channels; the oracle is
        # applied to the truncated input's actual covariance, and (channel, N)
        # pairs keep the output leakage inside the 1e-6 budget
        cases = [(attenuator_channel(0.6), (0.0, 1.0, 2.0)),
                 (amplifier_channel(1.3), (0.0,)),
                 (classical_noise_channel(0.8), (0.0, 1.0))]
        for ch, n_means in cases:
            realized = fock.realize_channel(ch, space40)
            for n_mean in n_means:
                rho = fock.thermal_state(n_mean, space40)
                out = fock.require_leakage(realized.apply(rho), 1e-6)
                alpha_in = fock.mean_photon(rho)[0] + 0.5
                alpha_fock = fock.mean_photon(out)[0] + 0.5
                exact = apply_channel(ch, gaussian_state(np.diag([alpha_in])))
                assert abs(alpha_fock - exact.alpha[0, 0].real) < 1e-6

    def test_complex_transmission_uses_gauge_phase(self, space40):
        phi = 0.7
        ch = build_channel(np.diag([0.5 * np.exp(1j * phi)]), np.diag([0.375]))
        realized = fock.realize_channel(ch, space40)
        zeta = 1.0
        out = realized.apply(fock.coherent_state(zeta, space40))
        target = fock.coherent_state(0.5 * np.exp(1j * phi) * zeta, space40).amplitudes
        fidelity = np.real(target.conj() @ out.matrix @ target)
        assert fidelity >= 1 - 1e-8

    def test_factorization_is_the_papers(self):
        # Phi = Amp(K2) o Att(K1) (channels.decompose): per mode the stage
        # parameters are |K1_jj| and K2_jj and the gauge phase is arg K1_jj,
        # an omitted stage counting as 1; cutoff 64 admits every drawn gain
        rng = np.random.default_rng(2014)
        cases = [(random_channel(rng, 1), fock.FockSpace(1, 64)) for _ in range(50)]
        cases += [(tensor_channel(first, second), fock.FockSpace(2, 20))
                  for first, second in ((attenuator_channel(0.6), amplifier_channel(1.2)),
                                        (amplifier_channel(1.2), attenuator_channel(0.6)))]
        for ch, space in cases:
            realized = fock.realize_channel(ch, space)
            factors = decompose(ch)
            K1, K2 = factors.attenuator.K, factors.amplifier.K
            for j in range(space.modes):
                params = {stage.kind: stage.parameter for stage in realized.stages[j]}
                assert abs(params.get("attenuator", 1.0) - abs(K1[j, j])) <= 1e-14
                assert abs(params.get("amplifier", 1.0) - K2[j, j]) <= 1e-14
                assert abs(realized.phases[j] - np.angle(K1[j, j])) <= 1e-14

    def test_rejects_correlated_two_mode(self):
        k = np.array([[0.5, 0.1], [0.0, 0.5]])
        ch = build_channel(k, np.eye(2))
        with pytest.raises(NotDiagonal):
            fock.realize_channel(ch, fock.FockSpace(2, 8))


class TestBeamsplitter:
    def test_matches_attenuator_kraus(self):
        d = 12
        theta = np.arccos(0.6)
        u = fock.beamsplitter_unitary(theta, fock.FockSpace(2, d)).matrix
        kraus = fock.attenuator_kraus(0.6, fock.FockSpace(1, d))
        # A_l[m, n] = <m, l| U |n, 0>
        assert len(dense_ops(kraus)) == d
        for l, a in enumerate(dense_ops(kraus)):
            for n in range(d):
                m = n - l
                if m < 0:
                    continue
                assert u[m * d + l, n * d + 0] == pytest.approx(a[m, n], abs=1e-10)

    def test_unitary_on_protected_sectors(self):
        d = 10
        u = fock.beamsplitter_unitary(0.8, fock.FockSpace(2, d)).matrix
        psi = fock.tensor_pure(fock.number_state(fock.FockSpace(1, d), 2),
                               fock.number_state(fock.FockSpace(1, d), 1))
        out = u @ psi.amplitudes
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestFockSpaceGuards:
    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fock.FockSpace(2, 65)

    def test_mode_guard(self):
        with pytest.raises(DimensionMismatch):
            fock.FockSpace(3, 8)
