import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import fock
from gausslab.channels import (
    amplifier_channel,
    attenuator_channel,
    build_channel,
    classical_noise_channel,
    identity_channel,
    random_channel,
)
from gausslab.errors import DimensionMismatch, InvalidOrder, InvalidState
from gausslab.states import (
    ThermalSpectrum,
    apply_channel,
    eigenvalue_list,
    gaussian_state,
    minimal_output_entropy,
    minimal_output_renyi,
    output_purity,
    purity_determinant,
    renyi_entropy,
    tensor_channel,
    thermal_spectrum,
    vacuum,
    von_neumann_entropy,
)


class TestStates:
    def test_vacuum_correlation(self):
        st1 = vacuum(1)
        assert st1.alpha[0, 0] == 0.5
        st2 = vacuum(2)
        assert np.allclose(st2.alpha, 0.5 * np.eye(2))

    def test_vacuum_entropy_zero(self):
        assert von_neumann_entropy(vacuum(2)) == pytest.approx(0.0, abs=1e-14)

    def test_below_vacuum_rejected(self):
        with pytest.raises(InvalidState):
            gaussian_state(np.diag([0.4]))


class TestApplyChannel:
    def test_vacuum_output_covariance(self, rng):
        ch = random_channel(rng, 3)
        out = apply_channel(ch, vacuum(3))
        expected = ch.mu + 0.5 * ch.K @ ch.K.conj().T
        assert np.abs(out.alpha - expected).max() < 1e-12

    def test_identity_fixes_state(self):
        st0 = gaussian_state(np.diag([1.3, 0.8]))
        out = apply_channel(identity_channel(2), st0)
        assert np.abs(out.alpha - st0.alpha).max() < 1e-14

    def test_attenuator_fixes_vacuum(self):
        out = apply_channel(attenuator_channel(0.37), vacuum(1))
        assert out.alpha[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_mode_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(identity_channel(2), vacuum(1))

    def test_outputs_stay_physical(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 4))
            ch = random_channel(rng, s)
            alpha = 0.5 * np.eye(s) + 0.3 * np.abs(rng.standard_normal()) * np.eye(s)
            out = apply_channel(ch, gaussian_state(alpha))
            assert np.linalg.eigvalsh(out.alpha)[0] >= 0.5 - 1e-10


class TestSpectra:
    def test_vacuum_photon_numbers(self):
        spec = thermal_spectrum(vacuum(2))
        assert spec.photon_numbers == (0.0, 0.0)

    def test_one_mode_offset(self):
        spec = thermal_spectrum(gaussian_state(np.diag([1.5])))
        assert spec.photon_numbers[0] == pytest.approx(1.0, abs=1e-14)

    def test_amplified_vacuum(self):
        kappa = 1.8
        out = apply_channel(amplifier_channel(kappa), vacuum(1))
        spec = thermal_spectrum(out)
        assert spec.photon_numbers[0] == pytest.approx(kappa ** 2 - 1, abs=1e-12)

    def test_eigenvalue_list_pure(self):
        lam = eigenvalue_list(ThermalSpectrum((0.0,)), 3)
        assert np.allclose(lam, [1.0, 0.0, 0.0])

    def test_eigenvalue_list_geometric(self):
        lam = eigenvalue_list(ThermalSpectrum((1.0,)), 3)
        assert np.allclose(lam, [0.5, 0.25, 0.125])

    def test_eigenvalue_list_two_modes(self):
        lam = eigenvalue_list(ThermalSpectrum((1.0, 1.0)), 4)
        assert np.allclose(lam, [0.25, 0.125, 0.125, 0.0625])

    def test_eigenvalue_list_matches_fock_spectrum(self):
        n_mean = 0.8
        lam = eigenvalue_list(ThermalSpectrum((n_mean,)), 10)
        rho = fock.thermal_state(n_mean, fock.FockSpace(1, 40))
        assert np.allclose(lam, fock.spectrum(rho)[:10], atol=1e-10)


    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e3)), min_size=1, max_size=3),
           st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_eigenvalue_list_descending_with_sum_at_most_one(self, photons, m):
        lam = eigenvalue_list(ThermalSpectrum(tuple(photons)), m)
        assert lam.shape == (m,)
        assert np.all(np.diff(lam) <= 0.0)
        assert lam.min() >= 0.0
        assert lam.sum() <= 1.0 + 1e-12


class TestEntropies:
    def test_von_neumann_closed_form(self):
        st1 = gaussian_state(np.diag([1.5]))
        assert von_neumann_entropy(st1) == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_von_neumann_additive_over_modes(self):
        st2 = gaussian_state(np.diag([1.5, 1.5]))
        assert von_neumann_entropy(st2) == pytest.approx(4 * np.log(2), abs=1e-12)

    def test_renyi_two(self):
        st1 = gaussian_state(np.diag([1.5]))
        assert renyi_entropy(st1, 2.0) == pytest.approx(np.log(3), abs=1e-12)

    def test_renyi_rejects_low_order(self):
        with pytest.raises(InvalidOrder):
            renyi_entropy(vacuum(1), 1.0)

    def test_renyi_approaches_von_neumann(self, rng):
        eps = 1e-4
        for _ in range(20):
            n = rng.uniform(0.0, 2.0, size=2)
            st2 = gaussian_state(np.diag(n + 0.5))
            bound = 10 * eps * (1 + np.sum(n ** 2))
            assert abs(renyi_entropy(st2, 1 + eps) - von_neumann_entropy(st2)) <= bound


class TestLogSpaceClosedForms:
    """Where the power forms overflow ((N+1)^p at large p N) or cancel
    ((N+1) ln(N+1) - N ln N at large N, and Renyi orders near 1), against
    mpmath at 50 digits."""

    def test_renyi_at_large_gain_and_order(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            n = mp.mpf(40.0 ** 2 - 1)
            expected = mp.log((n + 1) ** 400 - n ** 400) / 399
        value = minimal_output_renyi(amplifier_channel(40.0), 400)
        assert value == pytest.approx(float(expected), rel=1e-14)

    def test_large_photon_number(self):
        mp = pytest.importorskip("mpmath")
        ch = classical_noise_channel(1e8)
        p = 1.0 + 1e-7
        with mp.workdps(50):
            n, q = mp.mpf(1e8), mp.mpf(p)
            von_neumann = (n + 1) * mp.log(n + 1) - n * mp.log(n)
            renyi = mp.log((n + 1) ** q - n ** q) / (q - 1)
        assert minimal_output_entropy(ch) == pytest.approx(float(von_neumann), rel=1e-14)
        assert minimal_output_renyi(ch, p) == pytest.approx(float(renyi), rel=1e-13)
        assert minimal_output_renyi(ch, p) < minimal_output_entropy(ch)

    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=3),
           st.floats(1.0 + 1e-9, 50.0), st.floats(1.0 + 1e-9, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_renyi_nonincreasing_in_order_and_below_von_neumann(self, log10_photons, p, q):
        state = gaussian_state(np.diag([10.0 ** x + 0.5 for x in log10_photons]))
        low, high = sorted((p, q))
        s_low, s_high = renyi_entropy(state, low), renyi_entropy(state, high)
        vn = von_neumann_entropy(state)
        assert s_high <= s_low + 1e-12 * max(1.0, s_low)
        assert s_low <= vn + 1e-12 * max(1.0, vn)


    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=3),
           st.floats(1.0, 1.0 + 1e-3, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_renyi_limit_at_order_one(self, log10_photons, p):
        # S_vN - S_p = (p - 1) Var(ln lambda) / 2 + O((p - 1)^2), and the
        # variance of ln lambda over a geometric spectrum is at most 1 per mode
        state = gaussian_state(np.diag([10.0 ** x + 0.5 for x in log10_photons]))
        vn = von_neumann_entropy(state)
        gap = vn - renyi_entropy(state, p)
        slack = 1e-12 * max(1.0, vn)
        assert -slack <= gap <= (p - 1.0) * len(log10_photons) + slack


class TestOutputPurity:
    def test_identity_has_unit_purity(self):
        for p in (1.5, 2.0, 3.0):
            assert output_purity(identity_channel(2), p) == pytest.approx(1.0, abs=1e-14)

    def test_amplifier_gain_sqrt2(self):
        assert output_purity(amplifier_channel(np.sqrt(2)), 2.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_determinant_is_reciprocal(self, rng):
        ch = random_channel(rng, 2)
        for p in (1.5, 2.0, 3.0):
            assert purity_determinant(ch, p) * output_purity(ch, p) == pytest.approx(1.0, rel=1e-12)

    def test_against_fock_oracle(self):
        ch = amplifier_channel(np.sqrt(2))
        space = fock.FockSpace(1, 60)
        realized = fock.realize_channel(ch, space)
        lam = fock.spectrum(realized.apply(fock.vacuum_state(space)))
        for p in (1.5, 2.0, 3.0):
            assert abs(float(np.sum(lam ** p)) - output_purity(ch, p)) < 1e-8


class TestTensorChannel:
    def test_identity_blocks(self):
        out = tensor_channel(identity_channel(1), identity_channel(1))
        assert np.allclose(out.K, np.eye(2))
        assert np.allclose(out.mu, 0.0)

    def test_block_assembly(self):
        out = tensor_channel(attenuator_channel(0.5), amplifier_channel(2.0))
        assert np.allclose(np.diagonal(out.K), [0.5, 2.0])
        assert np.allclose(np.diagonal(out.mu), [0.375, 1.5])

    def test_purity_multiplicativity(self, rng):
        for _ in range(50):
            a = random_channel(rng, int(rng.integers(1, 3)))
            b = random_channel(rng, int(rng.integers(1, 3)))
            for p in (1.5, 2.0, 3.0):
                assert output_purity(tensor_channel(a, b), p) == pytest.approx(
                    output_purity(a, p) * output_purity(b, p), rel=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_renyi_additivity_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        a = random_channel(rng, 1)
        b = random_channel(rng, 2)
        for p in (1.5, 2.0, 3.0):
            lhs = minimal_output_renyi(tensor_channel(a, b), p)
            rhs = minimal_output_renyi(a, p) + minimal_output_renyi(b, p)
            assert lhs == pytest.approx(rhs, abs=1e-12)
