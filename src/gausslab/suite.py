"""Acceptance/verification suite.

Each criterion is a pure function returning a :class:`CriterionResult`;
``run_all`` executes them in order.  ``scale`` multiplies the sample counts
(and coarsens the phase-space grid) so the same definitions back both the
full acceptance run and the fast CLI selftest.  All randomness is seeded;
identical configurations produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import fock, husimi as hu, majorization as mj
from .channels import (
    ChannelClass,
    amplifier_channel,
    attenuator_channel,
    classical_noise_channel,
    classify,
    decompose,
    random_channel,
)
from .states import minimal_output_renyi, output_purity, tensor_channel

SUITE_SEED = 20240917


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.name} ({self.runtime_s:.1f}s)"


def _scaled(n: int, scale: float, floor: int = 5) -> int:
    return max(floor, int(round(n * scale)))


def _suite_channels() -> dict:
    return {
        "attenuator(0.6)": attenuator_channel(0.6),
        "amplifier(1.5)": amplifier_channel(1.5),
        "classical-noise(0.5)": classical_noise_channel(0.5),
    }


def criterion_1_decomposition_roundtrip(scale: float = 1.0) -> CriterionResult:
    """Quantum-limited factorization reproduces the channel entrywise."""
    t0 = time.time()
    n = _scaled(200, scale, floor=40)
    rng = np.random.default_rng(SUITE_SEED)
    worst = 0.0
    class_ok = True
    for i in range(n):
        s = int(rng.integers(1, 4))
        ch = random_channel(rng, s)
        dec = decompose(ch)
        rec = dec.reconstruct()
        worst = max(worst,
                    float(np.abs(rec.K - ch.K).max()),
                    float(np.abs(rec.mu - ch.mu).max()))
        class_ok &= classify(dec.attenuator, tol=1e-10) in (
            ChannelClass.QUANTUM_LIMITED_ATTENUATOR, ChannelClass.IDENTITY)
        class_ok &= classify(dec.amplifier, tol=1e-10) in (
            ChannelClass.QUANTUM_LIMITED_AMPLIFIER, ChannelClass.IDENTITY)
    passed = worst <= 1e-10 and class_ok
    return CriterionResult(1, "decomposition round trip", passed, time.time() - t0,
                           {"channels": n, "worst_entry_error": worst,
                            "factors_quantum_limited": class_ok})


def criterion_2_purity_oracle(scale: float = 1.0) -> CriterionResult:
    """Closed-form output purity matches the Fock brute force at cutoff 60."""
    t0 = time.time()
    space = fock.FockSpace(1, 60)
    worst = 0.0
    table = {}
    for name, ch in _suite_channels().items():
        realized = fock.realize_channel(ch, space)
        lam = fock.spectrum(realized.apply(fock.vacuum_state(space)))
        for p in (1.5, 2.0, 3.0):
            brute = float(np.sum(lam ** p))
            closed = output_purity(ch, p)
            err = abs(brute - closed)
            table[f"{name},p={p:g}"] = err
            worst = max(worst, err)
    return CriterionResult(2, "purity formula vs Fock oracle", worst <= 1e-8,
                           time.time() - t0, {"worst_error": worst, "errors": table})


def criterion_3_vacuum_optimality(scale: float = 1.0) -> CriterionResult:
    """No sampled input beats the vacuum on any suite functional, and the
    vacuum output spectrum majorizes every sampled output.

    Coherent probes are excluded here; their (looser) equality band is
    criterion 4.
    """
    t0 = time.time()
    n = _scaled(500, scale, floor=30)
    fs = mj.default_functionals()
    worst_gap = np.inf
    worst_deficit = -np.inf
    details = {}
    for name, ch in _suite_channels().items():
        sweep = mj.majorization_sweep(ch, n_samples=n, seed=SUITE_SEED + 3, cutoff=40)
        gap = min(rep.gap for rep in mj.optimality_reports(sweep, fs))
        details[name] = {"min_gap": gap, "majorization_passes": sweep.passes,
                         "majorization_total": sweep.total,
                         "worst_deficit": sweep.worst_deficit}
        worst_gap = min(worst_gap, gap)
        worst_deficit = max(worst_deficit, sweep.worst_deficit)
    passed = worst_gap >= -1e-8 and worst_deficit <= 1e-8
    return CriterionResult(3, "vacuum optimality and majorization sweep", passed,
                           time.time() - t0,
                           {"samples_per_channel": n, "worst_gap": worst_gap,
                            "worst_partial_sum_deficit": worst_deficit,
                            "channels": details})


def criterion_4_coherent_equality(scale: float = 1.0) -> CriterionResult:
    """Coherent inputs give the vacuum value of every suite functional."""
    t0 = time.time()
    space = fock.FockSpace(1, 60)
    fs = mj.default_functionals()
    worst = 0.0
    for name, ch in _suite_channels().items():
        realized = fock.realize_channel(ch, space)
        vac = fock.spectrum(realized.apply(fock.vacuum_state(space)))
        for zeta in (0.5, 1.0, 0.5j, 1.0j):
            lam = fock.spectrum(realized.apply(fock.coherent_state(zeta, space)))
            for f in fs:
                worst = max(worst, abs(mj.trace_functional(lam, f)
                                       - mj.trace_functional(vac, f)))
    return CriterionResult(4, "coherent-input equality", worst <= 1e-6,
                           time.time() - t0, {"worst_deviation": worst})


def criterion_5_complementary(scale: float = 1.0) -> CriterionResult:
    """Complementary representation and dilation-marginal spectra symmetry."""
    t0 = time.time()
    n_probes = _scaled(20, scale, floor=6)
    space = fock.FockSpace(1, 40)
    worst_op = 0.0
    worst_spec = 0.0
    for kappa in (1.2, 1.5, 2.0):
        k_tilde = float(np.sqrt(1.0 - kappa ** -2))
        att = fock.attenuator_kraus(k_tilde, space)
        amp = fock.amplifier_kraus(kappa, space)
        for i in range(n_probes):
            psi = fock.random_pure_state([SUITE_SEED + 5, i], space, support=5)
            rho = fock.density(psi)
            lhs = fock.complementary_output(kappa, rho)
            rhs = fock.transpose_state(fock.apply_kraus(amp, fock.apply_kraus(att, rho)))
            worst_op = max(worst_op, float(np.abs(lhs.matrix - rhs.matrix).max()))
            sys_out, anc_out = fock.amplifier_dilation_marginals(kappa, psi)
            worst_spec = max(worst_spec, float(np.abs(
                fock.spectrum(sys_out) - fock.spectrum(anc_out)).max()))
    passed = worst_op <= 1e-6 and worst_spec <= 1e-8
    return CriterionResult(5, "complementary channel representation", passed,
                           time.time() - t0,
                           {"probes_per_gain": n_probes,
                            "worst_operator_deviation": worst_op,
                            "worst_spectra_deviation": worst_spec})


def criterion_6_renyi_additivity(scale: float = 1.0) -> CriterionResult:
    """Closed-form Renyi additivity plus the entangled-input Fock bound."""
    t0 = time.time()
    rng = np.random.default_rng(SUITE_SEED + 6)
    n_pairs = _scaled(50, scale, floor=10)
    worst_closed = 0.0
    for _ in range(n_pairs):
        a = random_channel(rng, int(rng.integers(1, 3)))
        b = random_channel(rng, int(rng.integers(1, 3)))
        for p in (1.5, 2.0, 3.0):
            lhs = minimal_output_renyi(tensor_channel(a, b), p)
            rhs = minimal_output_renyi(a, p) + minimal_output_renyi(b, p)
            worst_closed = max(worst_closed, abs(lhs - rhs))
    n_samples = _scaled(100, scale, floor=10)
    amp = amplifier_channel(np.sqrt(2.0))
    rep = mj.additivity_test(amp, amp, 2.0, n_samples=n_samples,
                             seed=SUITE_SEED + 6, cutoff=30)
    vac_err = abs(rep.vacuum_value - 1.0 / 9.0)
    passed = (worst_closed <= 1e-12 and vac_err <= 1e-6
              and rep.max_sample_value <= rep.bound + 1e-8)
    return CriterionResult(6, "Renyi additivity", passed, time.time() - t0,
                           {"closed_form_pairs": n_pairs,
                            "worst_closed_form_defect": worst_closed,
                            "vacuum_purity_error": vac_err,
                            "entangled_samples": n_samples,
                            "max_sample_purity": rep.max_sample_value,
                            "bound": rep.bound})


def criterion_7_strict_gaps(scale: float = 1.0) -> CriterionResult:
    """Strict-minimizer conditions produce strictly positive probe gaps."""
    t0 = time.time()
    cases = {
        "condition_b:amplifier(1.5)": amplifier_channel(1.5),
        "condition_a:classical-noise(0.5)": classical_noise_channel(0.5),
    }
    details = {}
    passed = True
    for name, ch in cases.items():
        for f in (mj.von_neumann_functional(), mj.renyi_functional(2.0)):
            rep = mj.strict_gap_probe(ch, f)
            key = f"{name},{f.label}"
            details[key] = {"min_gap": rep.min_gap, "coherent_gap": rep.coherent_gap}
            passed &= rep.min_gap > 1e-4 and abs(rep.coherent_gap) <= 1e-6
    return CriterionResult(7, "strict-gap probes", passed, time.time() - t0, details)


def criterion_8_wehrl_minimum(scale: float = 1.0) -> CriterionResult:
    """Classical (Wehrl) entropy is minimized by coherent states at a0=1/2."""
    t0 = time.time()
    step = 0.05 if scale >= 0.99 else 0.1
    grid = hu.make_grid(6.0, step)
    f = mj.von_neumann_functional()
    n = _scaled(100, scale, floor=12)
    rep = hu.wehrl_optimality_test(0.5, n_samples=n, seed=SUITE_SEED + 8,
                                   grid=grid, f=f, probe_dim=16)
    coherent_err = abs(rep.vacuum_value - 1.0)
    fock1 = next(r.value for r in rep.rows if r.label == "fock(1)")
    fock1_err = abs(fock1 - 1.5772156649015328)
    passed = (coherent_err <= 1e-3 and fock1_err <= 2e-3 and rep.gap >= -1e-3)
    return CriterionResult(8, "Wehrl minimum", passed, time.time() - t0,
                           {"samples": n, "coherent_value_error": coherent_err,
                            "fock1_error": fock1_err, "min_gap": rep.gap})


def criterion_9_berezin_lieb(scale: float = 1.0) -> CriterionResult:
    """Sandwich inequalities and the smoothing convolution identity."""
    t0 = time.time()
    step = 0.05 if scale >= 0.99 else 0.1
    grid = hu.make_grid(6.0, step)
    space = fock.FockSpace(1, 40)
    probes = {
        "vacuum": fock.vacuum_state(space),
        "fock(1)": fock.number_state(space, 1),
        "coherent(0.7)": fock.coherent_state(0.7, space),
    }
    fs = (mj.von_neumann_functional(), mj.renyi_functional(2.0))
    cs = (1.5, 2.0, 3.0) if scale >= 0.99 else (1.5, 3.0)
    worst_slack = np.inf
    worst_conv = 0.0
    for c in cs:
        for probe in probes.values():
            fields = hu.berezin_lieb_fields(probe, c, 0.5, 0.5, grid)
            worst_conv = max(worst_conv, hu.convolution_check(fields).sup_deviation)
            for f in fs:
                worst_slack = min(worst_slack, hu.berezin_lieb_check(fields, f).min_slack)
    passed = worst_slack >= -1e-3 and worst_conv <= 2e-3
    return CriterionResult(9, "Berezin-Lieb sandwich and convolution identity",
                           passed, time.time() - t0,
                           {"c_values": list(cs), "worst_sandwich_slack": worst_slack,
                            "worst_convolution_deviation": worst_conv})


def criterion_10_gauge_covariance(scale: float = 1.0) -> CriterionResult:
    """Fock-realized channels commute with gauge rotations."""
    t0 = time.time()
    space = fock.FockSpace(1, 40)
    channels = dict(_suite_channels())
    channels["measure-reprepare(c=2)"] = hu.measure_reprepare_channel(2.0)
    psi = fock.random_pure_state(SUITE_SEED + 10, space, support=5)
    rho = fock.density(psi)
    worst = 0.0
    for ch in channels.values():
        realized = fock.realize_channel(ch, space)
        out = realized.apply(rho)
        for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            u = fock.gauge_rotation(phi, space).matrix
            rotated_in = fock.FockOperator(space, u @ rho.matrix @ u.conj().T)
            lhs = realized.apply(rotated_in).matrix
            rhs = u @ out.matrix @ u.conj().T
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CriterionResult(10, "gauge covariance", worst <= 1e-8,
                           time.time() - t0, {"worst_deviation": worst})


def criterion_11_majorization_equivalence(scale: float = 1.0) -> CriterionResult:
    """Partial-sum majorization agrees with the threshold-functional family
    on an exhaustive grid of length-4 probability vectors."""
    t0 = time.time()
    q = 12
    vecs = []
    for i in range(q + 1):
        for j in range(q - i + 1):
            for k in range(q - i - j + 1):
                l = q - i - j - k
                vecs.append(sorted((i, j, k, l), reverse=True))
    a = np.array(vecs, dtype=float) / q
    cums = np.cumsum(a, axis=1)
    maj = np.all(cums[:, None, :] >= cums[None, :, :] - 1e-12, axis=2)
    ts = np.arange(1, q + 1, dtype=float) / q
    mins = np.minimum(a[:, :, None], ts[None, None, :]).sum(axis=1)
    fam = np.all(mins[:, None, :] <= mins[None, :, :] + 1e-12, axis=2)
    disagreements = int(np.sum(maj != fam))
    pairs = maj.size
    return CriterionResult(11, "majorization vs concave-sum family", disagreements == 0,
                           time.time() - t0,
                           {"pairs": pairs, "disagreements": disagreements})


ALL_CRITERIA = (
    criterion_1_decomposition_roundtrip,
    criterion_2_purity_oracle,
    criterion_3_vacuum_optimality,
    criterion_4_coherent_equality,
    criterion_5_complementary,
    criterion_6_renyi_additivity,
    criterion_7_strict_gaps,
    criterion_8_wehrl_minimum,
    criterion_9_berezin_lieb,
    criterion_10_gauge_covariance,
    criterion_11_majorization_equivalence,
)


def run_all(scale: float = 1.0, verbose: bool = False) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn(scale)
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
