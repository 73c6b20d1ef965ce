import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import annihilation, dense_ops
from hypothesis import strategies as st

from gausslab import fock
from gausslab import husimi as hu
from gausslab import majorization as mj
from gausslab.channels import (
    GaugeCovariantChannel,
    amplifier_channel,
    attenuator_channel,
    identity_channel,
)
from gausslab.errors import ConditionNotMet, InvalidState, NotHermitian, TruncationLeakage
from gausslab.majorization import (
    LEAKAGE_BUDGET,
    MAJORIZATION_TOL,
    ConcaveFunctional,
    partial_sum_deficit,
    trace_functional,
)
from gausslab.states import output_purity, tensor_channel


def majorizes(a, b, tol: float = MAJORIZATION_TOL) -> bool:
    """True iff every descending partial sum of ``a`` dominates ``b`` - tol."""
    return partial_sum_deficit(a, b) <= tol


def concave_order_agrees(a, b, tol: float = 1e-12) -> bool:
    """Threshold-family criterion: sum min(a_i, t) <= sum min(b_i, t) for all
    t in the union of component values (sufficient for piecewise-linear
    comparison at equal totals)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.union1d(a, b)
    ts = ts[ts > 0]
    sa = np.minimum(a[:, None], ts[None, :]).sum(axis=0)
    sb = np.minimum(b[:, None], ts[None, :]).sum(axis=0)
    return bool((sa <= sb + tol).all())


def optimize_input(ch: GaugeCovariantChannel, f: ConcaveFunctional,
                   init: fock.PureState, max_iters: int = 60,
                   step: float = 0.1, support: int | None = None,
                   leakage_budget: float = LEAKAGE_BUDGET) -> tuple[fock.PureState, float]:
    """Greedy coordinate descent on Tr f(channel output) over pure inputs.

    Perturbs real/imaginary amplitude components (on the leading ``support``
    levels) with renormalization and keeps strict improvements; the step
    halves when a full pass stalls.  Candidates whose output leaks past the
    budget are rejected, so truncation cannot masquerade as low entropy.
    A counterexample hunter, not a global optimizer.
    """
    space = init.space
    realized = fock.realize_channel(ch, space)
    if support is None:
        support = min(8, space.dim)

    def value_of(vec: np.ndarray) -> float:
        lam = fock.spectrum(realized.apply(fock.PureState(space=space, amplitudes=vec)))
        if float(1.0 - lam.sum()) > leakage_budget:
            return np.inf
        return trace_functional(lam, f)

    best_vec = init.amplitudes.copy()
    best_val = value_of(best_vec)
    for _ in range(max_iters):
        improved = False
        for idx in range(support):
            for delta in (step, -step, 1j * step, -1j * step):
                cand = best_vec.copy()
                cand[idx] += delta
                cand /= np.linalg.norm(cand)
                val = value_of(cand)
                if val < best_val - 1e-12:
                    best_vec, best_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return fock.pure_state(space, best_vec), best_val


def coherent_fit(psi: fock.PureState) -> tuple[complex, float]:
    """Best coherent amplitude (= <a>) and the fidelity to that coherent state."""
    d = psi.space.cutoff
    a = annihilation(d)
    zeta = complex(psi.amplitudes.conj() @ (a @ psi.amplitudes))
    target = fock.coherent_state(zeta, psi.space)
    fid = abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2
    return zeta, float(fid)


class TestConcaveFunctionals:
    def test_trace_functional_pure(self):
        assert mj.trace_functional([1.0, 0.0, 0.0], mj.von_neumann_functional()) == 0.0

    def test_trace_functional_renyi(self):
        assert mj.trace_functional([0.5, 0.5], mj.renyi_functional(2.0)) == pytest.approx(-0.5)

    def test_trace_functional_von_neumann(self):
        assert mj.trace_functional([0.5, 0.5], mj.von_neumann_functional()) == pytest.approx(np.log(2))

    def test_polygonal_validation(self):
        with pytest.raises(ConditionNotMet):
            mj.polygonal_functional(((0.0, 0.1), (1.0, 1.0)))
        with pytest.raises(ConditionNotMet):
            # convex knots
            mj.polygonal_functional(((0.0, 0.0), (0.5, 0.1), (1.0, 0.9)))

    def test_threshold_functional_shape(self):
        f = mj.threshold_functional(0.3)
        assert f(0.1) == pytest.approx(0.1)
        assert f(0.9) == pytest.approx(0.3)

    def test_renyi_order_guard(self):
        with pytest.raises(ConditionNotMet):
            mj.renyi_functional(1.0)


class TestMajorizes:
    def test_pure_majorizes_everything(self):
        assert majorizes([1, 0], [0.5, 0.5])

    def test_not_reflexive_downward(self):
        assert not majorizes([0.5, 0.5], [1, 0])

    def test_partial_sums_example(self):
        assert majorizes([0.6, 0.3, 0.1], [0.5, 0.4, 0.1])

    def test_unequal_lengths_pad_with_zeros(self):
        assert majorizes([0.7, 0.3], [0.5, 0.3, 0.2])

    def test_stacked_spectra_give_the_deficit_of_each_row(self):
        # one deficit per row, bit for bit the deficit of that row alone
        rng = np.random.default_rng(3)
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(5), size=4)
        stacked = partial_sum_deficit(a, b)
        assert stacked.shape == (4,)
        assert stacked.tolist() == [partial_sum_deficit(a, row) for row in b]
        assert partial_sum_deficit(b, a).tolist() == [partial_sum_deficit(row, a) for row in b]

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_equivalent_to_threshold_family(self, xs, ys):
        a = np.sort(np.array(xs) / np.sum(xs))[::-1]
        b = np.sort(np.array(ys) / np.sum(ys))[::-1]
        assert majorizes(a, b, tol=1e-12) == concave_order_agrees(a, b)


class TestPolygonalApproximation:
    def test_entropy_interpolants_increase_from_below(self):
        # chords of a concave function sit below it; nested knot refinements
        # increase the interpolant pointwise
        lam = np.array([0.45, 0.3, 0.15, 0.07, 0.03])
        vn = mj.von_neumann_functional()
        target = mj.trace_functional(lam, vn)
        previous = -np.inf
        for n in (4, 8, 16, 32):
            xs = np.linspace(0.0, 1.0, n + 1)
            knots = tuple(zip(xs, vn(xs)))
            value = mj.trace_functional(lam, mj.polygonal_functional(knots))
            assert previous < value <= target
            previous = value


class TestVacuumOptimality:
    def test_identity_channel_trivial(self):
        rep, = mj.optimality_sweep(identity_channel(1), (mj.von_neumann_functional(),),
                                   n_samples=10, seed=2, cutoff=24)
        assert rep.vacuum_value == pytest.approx(0.0, abs=1e-10)
        assert rep.gap >= -1e-10

    def test_attenuator_sweep(self, att06):
        rep, = mj.optimality_sweep(att06, (mj.von_neumann_functional(),),
                                   n_samples=60, seed=5, cutoff=40)
        assert rep.vacuum_value == pytest.approx(0.0, abs=1e-10)
        assert rep.gap >= -1e-8
        assert rep.rejected == 0

    def test_amplifier_vacuum_value_matches_purity(self, amp15):
        rep, = mj.optimality_sweep(amp15, (mj.renyi_functional(2.0),),
                                   n_samples=30, seed=5, cutoff=40)
        assert rep.vacuum_value == pytest.approx(-output_purity(amp15, 2.0), abs=1e-9)
        assert rep.gap >= -1e-8

    def test_gap_invariant_across_functional_family(self, noise05):
        reports = mj.optimality_sweep(noise05, mj.default_functionals(),
                                      n_samples=40, seed=7, cutoff=40)
        for rep in reports:
            assert rep.gap >= -1e-8

    def test_report_gap_definition(self, amp15):
        rep, = mj.optimality_sweep(amp15, (mj.von_neumann_functional(),),
                                   n_samples=5, seed=3, cutoff=40)
        assert rep.gap == rep.best_sampled_value - rep.vacuum_value

    def test_two_mode_tensor_channel(self, att06):
        ch = tensor_channel(att06, amplifier_channel(1.2))
        sweep = mj.majorization_sweep(ch, n_samples=15, seed=19, cutoff=24,
                                      sample_support=3)
        rep, = mj.optimality_reports(sweep, (mj.von_neumann_functional(),))
        assert rep.gap >= -1e-8
        assert sweep.passes == sweep.total


class TestMajorizationSweep:
    def test_attenuator_probes_pass(self, att06):
        rep = mj.majorization_sweep(att06, n_samples=40, seed=11, cutoff=40)
        assert rep.passes == rep.total
        assert rep.worst_deficit <= 1e-8

    def test_amplifier_vacuum_majorizes_fock_one(self):
        kappa = np.sqrt(2)
        space = fock.FockSpace(1, 40)
        amp = fock.amplifier_kraus(kappa, space)
        vac_out = fock.spectrum(fock.apply_kraus(amp, fock.density(fock.vacuum_state(space))))
        one_out = fock.spectrum(fock.apply_kraus(amp, fock.density(fock.number_state(space, 1))))
        assert np.allclose(vac_out[:3], [0.5, 0.25, 0.125], atol=1e-10)
        assert majorizes(vac_out, one_out)

    def test_amplifier_statistical_run(self, amp15):
        rep = mj.majorization_sweep(amp15, n_samples=100, seed=13, cutoff=40)
        assert rep.passes == rep.total == 100 + 4
        assert rep.worst_deficit <= 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_round_off_deficit_names_no_input(self, att06, seed):
        # the attenuator's vacuum output is pure: every deficit is round-off
        # (up to about 7e-16), which names no worst input
        rep = mj.majorization_sweep(att06, n_samples=10, seed=seed, cutoff=40)
        assert 0 < rep.worst_deficit <= MAJORIZATION_TOL
        assert rep.worst_input == ""

    def test_failing_deficit_names_its_input(self, monkeypatch, amp15):
        # a pure output spectrum for the second probe, fock(2), is not
        # majorized by the thermal vacuum output of amplifier(1.5)
        spectrum = fock.spectrum

        def faulty(rho):
            lam = spectrum(rho)  # one row per input: the vacuum, fock(1), fock(2), ...
            lam[2] = 0.0
            lam[2, 0] = 1.0
            return lam

        monkeypatch.setattr(fock, "spectrum", faulty)
        rep = mj.majorization_sweep(amp15, n_samples=3, seed=1, cutoff=40)
        assert rep.worst_deficit > MAJORIZATION_TOL
        assert rep.worst_input == "fock(2)"
        assert rep.passes == rep.total - 1

    def test_threads_do_not_change_results(self, monkeypatch, amp15):
        # threads map the chunks of one batch (four inputs each when chunk is
        # 4), each chunk with its own redraw rounds (cutoff 35 redraws); the
        # spectra, which == skips, must match bit for bit
        for n_samples, seed, cutoff in ((16, 3, 40), (6, 1, 35)):
            for chunk in (None, 4):
                with monkeypatch.context() as patch:
                    if chunk:
                        patch.setattr(mj, "BATCH_ENTRIES", chunk * cutoff ** 2)
                    a, b = (mj.majorization_sweep(amp15, n_samples=n_samples, seed=seed,
                                                  cutoff=cutoff, threads=threads)
                            for threads in (1, 4))
                assert a == b
                assert (a.rejected > 0) == (cutoff == 35)
                assert a.vacuum_spectrum.tobytes() == b.vacuum_spectrum.tobytes()
                assert a.spectra.shape == b.spectra.shape == (4 + n_samples, cutoff)
                for x, y in zip(a.spectra, b.spectra):
                    assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_retry_exhaustion_names_the_lowest_sample(self, threads):
        # at cutoff 10 every draw of sample 0 through amplifier(1.5) leaks
        with pytest.raises(TruncationLeakage) as err:
            mj.majorization_sweep(amplifier_channel(1.5), 3, 1, cutoff=10, threads=threads)
        assert str(err.value) == ("sample (1, 0) exceeded leakage budget 1.0e-06 "
                                  "after 8 retries")


class TestOptimizeInput:
    def test_vacuum_is_local_minimum(self, amp15):
        space = fock.FockSpace(1, 32)
        best, value = optimize_input(amp15, mj.von_neumann_functional(),
                                        fock.vacuum_state(space), max_iters=8, step=0.05)
        realized = fock.realize_channel(amp15, space)
        vac_value = mj.trace_functional(
            fock.spectrum(realized.apply(fock.vacuum_state(space))),
            mj.von_neumann_functional())
        assert value >= vac_value - 1e-6

    def test_descends_to_coherent_state(self, amp15):
        space = fock.FockSpace(1, 32)
        best, value = optimize_input(amp15, mj.von_neumann_functional(),
                                        fock.number_state(space, 1),
                                        max_iters=50, step=0.2, support=6)
        realized = fock.realize_channel(amp15, space)
        vac_value = mj.trace_functional(
            fock.spectrum(realized.apply(fock.vacuum_state(space))),
            mj.von_neumann_functional())
        assert value >= vac_value - 1e-6
        _, fidelity = coherent_fit(best)
        assert fidelity > 0.99

    def test_random_start_on_composite_channel(self, noise05):
        space = fock.FockSpace(1, 32)
        init = fock.random_pure_state(42, space, support=5)
        best, value = optimize_input(noise05, mj.von_neumann_functional(),
                                        init, max_iters=30, step=0.15, support=6)
        realized = fock.realize_channel(noise05, space)
        vac_value = mj.trace_functional(
            fock.spectrum(realized.apply(fock.vacuum_state(space))),
            mj.von_neumann_functional())
        assert value >= vac_value - 1e-6


class TestStrictGapProbe:
    # frozen observed gaps (seeded deterministic probes, cutoff 40)
    LOCKED = {
        ("amp", "vonNeumann"): 0.14055646427005297,
        ("amp", "renyi(2)"): 0.032798833819236206,
        ("noise", "vonNeumann"): 0.17095140778193185,
        ("noise", "renyi(2)"): 0.06250000000001665,
    }

    @pytest.mark.parametrize("key,f", [
        ("vonNeumann", mj.von_neumann_functional()),
        ("renyi(2)", mj.renyi_functional(2.0)),
    ])
    def test_amplifier_condition_b(self, amp15, key, f):
        rep = mj.strict_gap_probe(amp15, f)
        assert rep.condition_b and not rep.condition_a
        assert rep.min_gap > 1e-4
        assert rep.min_gap == pytest.approx(self.LOCKED[("amp", key)], abs=1e-9)
        assert abs(rep.coherent_gap) <= 1e-6

    @pytest.mark.parametrize("key,f", [
        ("vonNeumann", mj.von_neumann_functional()),
        ("renyi(2)", mj.renyi_functional(2.0)),
    ])
    def test_classical_noise_condition_a(self, noise05, key, f):
        rep = mj.strict_gap_probe(noise05, f)
        assert rep.condition_a and not rep.condition_b
        assert rep.min_gap > 1e-4
        assert rep.min_gap == pytest.approx(self.LOCKED[("noise", key)], abs=1e-9)
        assert abs(rep.coherent_gap) <= 1e-6

    def test_mixed_probes_report_positive_gaps(self, amp15):
        rep = mj.strict_gap_probe(amp15, mj.von_neumann_functional())
        mixed = [r for r in rep.rows if r.kind == "mixed"]
        assert len(mixed) == 2
        assert all(r.gap > 1e-4 for r in mixed)

    def test_requires_strict_condition(self):
        with pytest.raises(ConditionNotMet):
            mj.strict_gap_probe(attenuator_channel(0.0), mj.von_neumann_functional())

    def test_requires_strictly_concave_functional(self, amp15):
        with pytest.raises(ConditionNotMet):
            mj.strict_gap_probe(amp15, mj.threshold_functional(0.3))


def _composite_kraus(ch, cutoff: int, support: int) -> list[np.ndarray]:
    """Dense one-mode Kraus list of ``ch`` (amplifier after attenuator after
    phase), attenuator labels trimmed to the sampled occupation support."""
    realized = fock.realize_channel(ch, fock.FockSpace(1, cutoff))
    ops = [np.diag(np.exp(1j * realized.phases[0] * np.arange(cutoff)))]
    for stage in realized.stages[0]:
        bands = dense_ops(stage)
        ops = [B @ A for B in (bands[: support + 1] if stage.kind == "attenuator" else bands)
               for A in ops]
    return ops


def _gram_purity(ops_a, ops_b, psi, p: float) -> tuple[float, float]:
    """Tr ((a (x) b)[psi])^p and the leakage, from the Gram matrix of the
    Kraus images (A (x) B) psi, which shares the output's nonzero spectrum."""
    mat = psi.amplitudes.reshape(len(ops_a[0]), -1)
    v = np.stack([(A @ mat @ B.T).ravel() for A in ops_a for B in ops_b])
    gram = v @ v.conj().T
    if p == 2.0:
        value = float(np.sum(np.abs(gram) ** 2))
    else:
        value = float(np.sum(np.clip(np.linalg.eigvalsh(gram), 0.0, None) ** p))
    return value, 1.0 - float(np.real(np.trace(gram)))


class TestAdditivity:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_outputs_stay_on_their_diagonals(self, monkeypatch, p):
        # no output is made dense or rescanned: at d = 30 a dense output is
        # one 900 x 900 complex array, 13 MB
        calls = []
        for name in ("_box_block", "_structure"):
            original = getattr(fock, name)
            monkeypatch.setattr(fock, name, lambda *a, original=original, name=name:
                                calls.append(name) or original(*a))
        amp = amplifier_channel(np.sqrt(2))
        tracemalloc.start()
        try:
            rep = mj.additivity_test(amp, amp, p, n_samples=2, seed=1, cutoff=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 900 * 900 * 16
        assert rep.max_sample_value <= rep.bound + 1e-8

    @pytest.mark.parametrize("gains,p,cutoff", [
        ((np.sqrt(2), np.sqrt(2)), 1.5, 28),
        ((np.sqrt(2), np.sqrt(2)), 2.0, 28),
        ((np.sqrt(2), np.sqrt(2)), 3.0, 28),
        ((np.sqrt(2), np.sqrt(2)), 4.0, 28),
        ((1.5, 0.7), 2.0, 40),
        ((1.5, 0.7), 4.0, 40),
    ])
    def test_matches_dense_kraus_gram_reference(self, gains, p, cutoff):
        # same seeded draws and redraws as additivity_test, evaluated through
        # dense composite Kraus lists instead of the transfer kernel; at
        # cutoff 28 some draws through the sqrt2 amplifiers leak and are redrawn
        a, b = (amplifier_channel(g) if g > 1 else attenuator_channel(g) for g in gains)
        n_samples, seed, support = 3, 2, 3
        rep = mj.additivity_test(a, b, p, n_samples=n_samples, seed=seed, cutoff=cutoff)
        ops_a, ops_b = _composite_kraus(a, cutoff, support), _composite_kraus(b, cutoff, support)
        space = fock.FockSpace(2, cutoff)
        vacuum, _ = _gram_purity(ops_a, ops_b, fock.vacuum_state(space), p)
        values, rejected = [], 0
        for idx in range(n_samples):
            for retry in range(8):
                psi = fock.random_pure_state([seed, idx, retry], space, support=support)
                value, leakage = _gram_purity(ops_a, ops_b, psi, p)
                if leakage <= mj.LEAKAGE_BUDGET:
                    break
                rejected += 1
            values.append(value)
        assert rep.vacuum_value == pytest.approx(vacuum, abs=1e-12)
        assert [r.value for r in rep.rows] == pytest.approx(values, abs=1e-12)
        assert rep.rejected == rejected

    def test_identity_pair(self):
        rep = mj.additivity_test(identity_channel(1), identity_channel(1), 2.0,
                                 n_samples=10, seed=3, cutoff=16)
        assert rep.bound == pytest.approx(1.0)
        assert rep.vacuum_value == pytest.approx(1.0, abs=1e-10)
        assert rep.max_sample_value <= 1.0 + 1e-10

    def test_twin_amplifiers(self):
        amp = amplifier_channel(np.sqrt(2))
        rep = mj.additivity_test(amp, amp, 2.0, n_samples=20, seed=5, cutoff=30)
        assert rep.bound == pytest.approx(1 / 9)
        assert rep.vacuum_value == pytest.approx(1 / 9, abs=1e-8)
        assert rep.max_sample_value <= rep.bound + 1e-8

    def test_mixed_pair_below_bound(self, amp15, att06):
        rep = mj.additivity_test(amp15, attenuator_channel(0.7), 2.0,
                                 n_samples=20, seed=9, cutoff=40)
        assert rep.max_sample_value <= rep.bound + 1e-8

    def test_non_integer_order(self):
        amp = amplifier_channel(np.sqrt(2))
        rep = mj.additivity_test(amp, amp, 1.5, n_samples=5, seed=5, cutoff=30)
        assert rep.vacuum_value == pytest.approx(rep.bound, abs=1e-7)
        assert rep.max_sample_value <= rep.bound + 1e-8

    @pytest.mark.parametrize("defect,error", [("skew", NotHermitian), ("negative", InvalidState)])
    def test_non_integer_order_checks_each_output(self, monkeypatch, defect, error):
        # a faulty output must fail as it does in majorize, not be clipped
        apply = fock.FockChannel.apply

        def faulty(self, state):
            out = apply(self, state).matrix.copy()
            if defect == "skew":
                out[0, 1] += 1e-6
            else:
                out[-1, -1] -= 1e-6
            return fock.FockOperator(self.space, out)

        monkeypatch.setattr(fock.FockChannel, "apply", faulty)
        amp = amplifier_channel(np.sqrt(2))
        with pytest.raises(error):
            mj.additivity_test(amp, amp, 2.5, n_samples=1, seed=1, cutoff=12)

    def test_rejects_multimode_factors(self):
        two_mode = attenuator_channel([0.5, 0.5])
        with pytest.raises(ConditionNotMet):
            mj.additivity_test(two_mode, identity_channel(1), 2.0,
                               n_samples=1, seed=1, cutoff=8)


class TestSampleLabels:
    """Each sample row's label is the seed tuple of its state: the state that
    random_pure_state draws from the tuple, evaluated on its own, gives the
    row's value, also where the sweep redrew it."""

    @staticmethod
    def seed_tuples(rows, name):
        tuples = [tuple(int(v) for v in row.label[len(name) + 1:-1].split(","))
                  for row in rows if row.seed != "probe"]
        assert all(row.label == f"{name}[{','.join(map(str, t))}]"
                   for row, t in zip((r for r in rows if r.seed != "probe"), tuples))
        return tuples

    def test_majorize(self):
        ch, cutoff, support = amplifier_channel(1.5), 35, 4
        rep = mj.majorization_sweep(ch, 6, 1, cutoff=cutoff, sample_support=support)
        tuples = self.seed_tuples(rep.rows, "haar")
        assert [t[:2] for t in tuples] == [(1, idx) for idx in range(6)]
        assert sum(t[2] for t in tuples if len(t) > 2) == rep.rejected > 0
        space = fock.FockSpace(1, cutoff)
        realized = fock.realize_channel(ch, space)
        for row, t in zip(rep.rows[4:], tuples):
            psi = fock.random_pure_state(t, space, support=support)
            out = fock.spectrum(realized.apply(psi))
            assert row.value == pytest.approx(partial_sum_deficit(rep.vacuum_spectrum, out),
                                              abs=1e-14)

    def test_additivity(self):
        amp, p, cutoff = amplifier_channel(np.sqrt(2)), 2.0, 28
        rep = mj.additivity_test(amp, amp, p, n_samples=12, seed=1, cutoff=cutoff)
        tuples = self.seed_tuples(rep.rows, "haar2")
        assert [t[:2] for t in tuples] == [(1, idx) for idx in range(12)]
        assert sum(t[2] for t in tuples if len(t) > 2) == rep.rejected > 0
        space = fock.FockSpace(2, cutoff)
        realized = fock.realize_channel(tensor_channel(amp, amp), space)
        for row, t in zip(rep.rows, tuples):
            out = realized.apply(fock.random_pure_state(t, space, support=3))
            assert row.value == fock.trace_power(out, p)
            assert row.leakage == fock.leakage(out)

    def test_wehrl(self):
        f = mj.von_neumann_functional()
        grid = hu.make_grid(6.0, 0.2)
        rep = hu.wehrl_optimality_test(0.5, 9, 4, grid, f, probe_dim=8)
        tuples = self.seed_tuples(rep.rows, "haar")
        assert tuples == [(4, idx) for idx in range(9)]  # nothing is redrawn
        space = fock.FockSpace(1, 32)
        for row, t in zip(rep.rows[2:], tuples):
            field = hu.husimi_density(fock.random_pure_state(t, space, support=8), 0.5, grid)
            assert row.value == pytest.approx(hu.classical_functional(field, f), abs=1e-14)


class TestSerialization:
    def test_report_json_roundtrip(self, tmp_path, att06):
        rep, = mj.optimality_sweep(att06, (mj.von_neumann_functional(),),
                                   n_samples=5, seed=1, cutoff=24)
        path = tmp_path / "report.json"
        text = mj.report_to_json(rep, path)
        assert path.read_text() == text
        assert '"vacuum_value"' in text

    def test_rows_to_csv(self, tmp_path, att06):
        rep, = mj.optimality_sweep(att06, (mj.von_neumann_functional(),),
                                   n_samples=5, seed=1, cutoff=24)
        path = tmp_path / "rows.csv"
        mj.rows_to_csv(rep.rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,input,functional,value,gap,leakage"
        assert len(lines) == 1 + len(rep.rows)
