import numpy as np
import pytest
import scipy.fft
from scipy.special import digamma, gammaln

from gausslab import fock
from gausslab import husimi as hu
from gausslab._linalg import log_factorial
from gausslab import majorization as mj
from gausslab.channels import classify, ChannelClass, decompose
from gausslab.errors import (
    InvalidState,
    ParameterOutOfRange,
    QuadratureError,
    TailMassTooLarge,
)
from gausslab.husimi import BerezinLiebFields
from gausslab.majorization import ConcaveFunctional

VN = mj.von_neumann_functional()


def closed_form_columns(z_flat: np.ndarray, dim: int) -> np.ndarray:
    """<m| D(z) |0> = e^{-|z|^2/2} z^m / sqrt(m!) as one complex exp of its
    logarithm per entry, independent of the library's column builder."""
    m = np.arange(dim)
    r = np.abs(z_flat)
    theta = np.angle(z_flat)
    logr = np.log(np.where(r > 0, r, 1.0))
    logmag = -0.5 * r[:, None] ** 2 + m[None, :] * logr[:, None] - 0.5 * gammaln(m + 1.0)[None, :]
    cols = np.exp(logmag) * np.exp(1j * m[None, :] * theta[:, None])
    cols[r == 0, :] = 0.0
    cols[r == 0, 0] = 1.0
    return cols


def reference_husimi_values(state, a0: float, z_nodes: np.ndarray) -> np.ndarray:
    """The thermal-reference density as a sum over displaced number states,
    p(z) = sum_k q_k |<k| D(z)* psi>|^2 with geometric weights q_k of mean
    N0 = a0 - 1/2 cut at 1e-18, raising D(z)|0> by D(z)|k+1> = (a^dag -
    conj(z)) D(z)|k> / sqrt(k+1).  The raising recursion cancels large terms,
    so it is accurate only while the input's support and |z| stay moderate."""
    n0 = a0 - 0.5
    if n0 == 0.0:
        weights = np.ones(1)
    else:
        k_max = int(np.ceil(np.log(1e-18 * (n0 + 1.0)) / np.log(n0 / (n0 + 1.0))))
        k = np.arange(k_max + 1, dtype=float)
        weights = np.exp(k * np.log(n0 / (n0 + 1.0)) - np.log(n0 + 1.0))
    z = np.asarray(z_nodes, dtype=np.complex128).ravel()
    if isinstance(state, fock.PureState):
        factors = state.amplitudes.conj()[None, :]  # rows psi^dag, as sqrt(w) v^dag below
    else:
        w, v = np.linalg.eigh(0.5 * (state.matrix + state.matrix.conj().T))
        keep = w > 1e-15
        factors = np.sqrt(w[keep])[:, None] * v[:, keep].T.conj()
    dim = state.space.cutoff
    roots = np.sqrt(np.arange(1, dim))
    phi = closed_form_columns(z, dim)
    out = np.zeros(z.size)
    for k, qk in enumerate(weights):
        if k > 0:
            raised = np.empty_like(phi)
            raised[:, 0] = -np.conj(z) * phi[:, 0]
            raised[:, 1:] = roots[None, :] * phi[:, :-1] - np.conj(z)[:, None] * phi[:, 1:]
            phi = raised / np.sqrt(float(k))
        out += qk * (np.abs(phi.conj() @ factors.T.conj()) ** 2).sum(axis=1)
    return out.reshape(np.shape(z_nodes))


def gaussian_smeared_q(rho: fock.FockOperator, a0: float, z_nodes, order: int = 100):
    """The thermal-reference density as the vacuum density <w|rho|w> averaged
    over w = z + u with u Gaussian of variance N0 = a0 - 1/2 (the P-function
    of the thermal reference), by Gauss-Hermite quadrature of ``order``^2
    points; each term is a closed-form coherent column, so it stays accurate
    for any support and |z|."""
    x, w = np.polynomial.hermite.hermgauss(order)
    u = (np.sqrt(a0 - 0.5) * (x[:, None] + 1j * x[None, :])).ravel()
    weight = (w[:, None] * w[None, :]).ravel() / np.pi
    out = []
    for z in np.ravel(z_nodes):
        phi = closed_form_columns(z + u, rho.space.cutoff)
        q = np.real(np.sum((phi.conj() @ rho.matrix) * phi, axis=1))
        out.append(weight @ q)
    return np.array(out)


def normal_density(a: float, grid: hu.PhaseSpaceGrid) -> hu.HusimiField:
    """Normal density q_a(z) = (2a)^{-1} e^{-|z|^2/(2a)} against d^2z/pi: the
    two-dimensional smoothing kernel, the reference for the separable one."""
    if a <= 0:
        raise ParameterOutOfRange("normal density needs a > 0")
    values = np.exp(-np.abs(grid.nodes) ** 2 / (2.0 * a)) / (2.0 * a)
    return hu.HusimiField(grid=grid, values=values,
                          tail_mass=float(np.exp(-grid.radius ** 2 / (2 * a))))


@pytest.fixture(scope="module")
def grid():
    return hu.make_grid(6.0, 0.05)


@pytest.fixture(scope="module")
def space(space40):
    return space40


class TestGrid:
    def test_vacuum_quadrature_normalized(self, grid):
        total = grid.integrate(np.exp(-np.abs(grid.nodes) ** 2))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_resolution_guard(self):
        with pytest.raises(QuadratureError):
            hu.make_grid(6.0, 0.01)


class TestCoherentColumns:
    """The library's builder (real exp of the log magnitude, phase by a
    running product) against the closed form."""

    @pytest.mark.parametrize("nodes,dim", [
        (hu.make_grid(6.0, 0.1).nodes.ravel(), 32),
        (3.0 * hu.make_grid(6.0, 0.1).nodes.ravel(), 128),
        (np.zeros(1, dtype=np.complex128), 8),
        (np.array([40.0, 30.0 + 30.0j]), 2048),
    ], ids=["grid-d32", "3grid-d128", "origin", "far-d2048"])
    def test_matches_closed_form(self, nodes, dim):
        got = hu._coherent_columns(nodes, dim)
        assert got.shape == (nodes.size, dim)
        assert np.abs(got - closed_form_columns(nodes, dim)).max() <= 1e-12

    def test_far_nodes_do_not_underflow(self):
        # e^{-|z|^2/2} underflows at |z| = 40, so a recurrence started from
        # it would give 0 where the entries reach 0.0999
        got = hu._coherent_columns(np.array([40.0, 30.0 + 30.0j]), 2048)
        assert np.abs(got).max(axis=1) == pytest.approx([0.0999, 0.0970], abs=1e-4)


class TestBatchedEvaluation:
    """A sequence of states gives one row per state, equal to evaluating each
    state on its own."""

    @pytest.fixture(scope="class")
    def coarse(self):
        return hu.make_grid(6.0, 0.2)

    @pytest.fixture(scope="class")
    def batch(self, space):
        sigma = fock.realize_channel(hu.measure_reprepare_channel(0.7), space).apply(
            fock.number_state(space, 1))
        return [fock.vacuum_state(space), fock.random_pure_state(5, space, support=8),
                sigma, fock.number_state(space, 3), fock.thermal_state(0.4, space),
                fock.coherent_state(0.7, space)]

    @pytest.mark.parametrize("a0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_per_state_calls(self, coarse, batch, a0, scale):
        nodes = scale * coarse.nodes
        got = hu.husimi_values(batch, a0, nodes)
        assert got.shape == (len(batch),) + nodes.shape
        for row, state in zip(got, batch):
            assert np.abs(row - hu.husimi_values(state, a0, nodes)).max() <= 1e-12

    def test_checks_each_state(self, coarse, space):
        doubled = fock.PureState(space=space, amplitudes=2.0 * fock.vacuum_state(space).amplitudes)
        with pytest.raises(InvalidState):
            hu.husimi_values([fock.vacuum_state(space), doubled], 0.5, coarse.nodes)


def gauge_images_of(w: np.ndarray) -> list[np.ndarray]:
    """i^q w for q = 0..3, then conj(i^q w), with the quarter turns as exact
    coordinate swaps and negations."""
    turns = [w, -w.imag + 1j * w.real, -w, w.imag - 1j * w.real]
    return turns + [t.conj() for t in turns]


class TestGaugeWedge:
    """On a lattice, values are built on the wedge 0 <= y <= x and read off
    at the other nodes through the 8 gauge images; they equal the same
    nodes evaluated one by one, as a flat array."""

    @pytest.fixture(scope="class")
    def batches(self, space):
        sigma = fock.realize_channel(hu.measure_reprepare_channel(0.7), space).apply(
            fock.number_state(space, 1))
        pure = [fock.vacuum_state(space), fock.random_pure_state(5, space, support=8),
                fock.coherent_state(0.7 - 0.3j, space), fock.number_state(space, 3)]
        operators = [sigma, fock.thermal_state(0.4, space),
                     fock.density(fock.random_pure_state(6, space, support=6))]
        return {"pure": pure, "operators": operators,
                "mixed": [pure[1], operators[0], pure[2], operators[2], pure[0]]}

    @pytest.mark.parametrize("kind", ["pure", "operators", "mixed"])
    @pytest.mark.parametrize("a0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 3.0])
    def test_lattice_matches_flat_nodes(self, monkeypatch, batches, kind, a0, c):
        nodes = c * hu.make_grid(6.0, 0.1).nodes
        folds, plan_of = [], hu._node_plan
        monkeypatch.setattr(hu, "_node_plan",
                            lambda z: folds.append(plan_of(z).images.shape) or plan_of(z))
        got = hu.husimi_values(batches[kind], a0, nodes)
        assert folds == [(8, 61 * 62 // 2)]  # also at z / kappa for a0 > 1/2
        flat = hu.husimi_values(batches[kind], a0, nodes.ravel())
        assert got.shape == (len(batches[kind]),) + nodes.shape
        assert np.abs(got - flat.reshape(got.shape)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["pure", "operators", "mixed"])
    def test_wedge_over_several_chunks(self, batches, kind):
        nodes = hu.make_grid(6.0, 0.02).nodes
        wedge = hu._node_plan(nodes).images.shape[1]
        assert wedge == 301 * 302 // 2 == 45451
        assert -(-wedge // hu.NODE_CHUNK) == 3
        got = hu.husimi_values(batches[kind], 0.5, nodes)
        flat = hu.husimi_values(batches[kind], 0.5, nodes.ravel())
        assert np.abs(got - flat.reshape(got.shape)).max() <= 1e-15

    @pytest.mark.parametrize("nodes", [
        hu.make_grid(6.0, 0.1).nodes,
        1.5 * hu.make_grid(6.0, 0.1).nodes,
        hu.make_grid(6.0, 0.2).nodes / np.sqrt(1.5),  # the thermal z / kappa
        hu.make_grid(6.0, 0.02).nodes,
        (lambda x: x[:, None] + 1j * x[None, :])(0.3 * (np.arange(-6, 6) + 0.5)),
        np.zeros((1, 1), dtype=np.complex128),
    ], ids=["grid", "1.5grid", "thermal", "fine", "even-axis", "single"])
    def test_images_cover_every_node_exactly(self, nodes):
        images = hu._node_plan(nodes).images
        n = nodes.shape[0]
        half = n - n // 2
        assert images.shape == (8, half * (half + 1) // 2)
        flat = nodes.ravel()
        w = flat[images[0]]
        assert (w.imag >= 0).all() and (w.imag <= w.real).all()  # the wedge
        assert np.array_equal(np.unique(images), np.arange(nodes.size))
        for row, expected in zip(images, gauge_images_of(w)):
            assert np.array_equal(flat[row].real, expected.real)
            assert np.array_equal(flat[row].imag, expected.imag)

    @pytest.fixture(scope="class")
    def lattice(self):
        return hu.make_grid(6.0, 0.2)

    @pytest.mark.parametrize("case", ["ulp", "half-step-shift", "rectangular", "one-d"])
    def test_other_node_sets_are_evaluated_node_by_node(self, monkeypatch, batches, lattice,
                                                        case):
        x = lattice.axis
        nodes = {
            "ulp": lambda: lattice.nodes.copy(),
            "half-step-shift": lambda: (x + 0.1)[:, None] + 1j * (x + 0.1)[None, :],
            "rectangular": lambda: x[:, None] + 1j * x[None, 1:-1],
            "one-d": lambda: lattice.nodes[30],
        }[case]()
        if case == "ulp":
            nodes[7, 40] = np.nextafter(nodes[7, 40].real, 1.0) + 1j * nodes[7, 40].imag
        images = hu._node_plan(nodes).images
        assert np.array_equal(images, np.arange(nodes.size)[None, :])
        built = []
        columns = hu._coherent_columns
        monkeypatch.setattr(hu, "_coherent_columns",
                            lambda z, dim: built.append(z.size) or columns(z, dim))
        got = hu.husimi_values(batches["mixed"], 0.5, nodes)
        assert built == [nodes.size]
        flat = hu.husimi_values(batches["mixed"], 0.5, nodes.ravel())
        assert np.array_equal(got, flat.reshape(got.shape))

    @pytest.mark.parametrize("kind", ["pure", "operators"])
    def test_nan_node_raises(self, batches, lattice, kind):
        nodes = lattice.nodes.copy()
        nodes[3, 3] = np.nan
        assert hu._node_plan(nodes).images.shape[0] == 1
        with pytest.raises(InvalidState):
            hu.husimi_values(batches[kind], 0.5, nodes)


class TestCaches:
    """Grids and lattice plans are built once per process: the caches are
    bounded, their arrays read-only, and values do not depend on them."""

    @pytest.fixture(scope="class")
    def batch(self, space):
        sigma = fock.realize_channel(hu.measure_reprepare_channel(0.7), space).apply(
            fock.number_state(space, 1))
        return [fock.vacuum_state(space), fock.random_pure_state(5, space, support=8), sigma,
                fock.thermal_state(0.4, space)]

    def test_caches_stay_bounded(self, batch):
        for i in range(fock.CACHE_SIZE + 3):
            grid = hu.make_grid(6.0, 0.2 + 0.01 * i)
            hu.husimi_values(batch, 0.5, grid.nodes)
        for cache in (hu.make_grid, hu._lattice_plan):
            info = cache.cache_info()
            assert info.maxsize == fock.CACHE_SIZE
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("step", [0.2, 0.02], ids=["one-chunk", "23-chunks"])
    def test_cached_arrays_are_read_only(self, space, step):
        grid = hu.make_grid(6.0, step)
        plan = hu._lattice_plan(grid.axis.tobytes())
        assert hu._node_plan(grid.nodes) is plan
        assert len(plan.chunks) == -(-grid.nodes.size // hu.NODE_CHUNK)
        arrays = [grid.axis, grid.mask, grid.nodes, plan.images, plan.source]
        arrays += [a for _, radii, inv in plan.chunks for a in (radii, inv)]
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("radius,step", [(6.0, 0.0), (6.0, -0.1), (6.0, 0.01), (2.0, 0.1)],
                             ids=["zero-step", "negative-step", "radius-over-step",
                                  "quadrature"])
    def test_rejected_grids_raise_on_every_call(self, radius, step):
        for _ in range(3):
            with pytest.raises(QuadratureError):
                hu.make_grid(radius, step)

    def test_values_do_not_depend_on_the_cache(self, batch):
        # (scale, a0): grid, 1.5 grid, 2 grid, and the thermal z / kappa of the grid
        cases = [(1.0, 0.5), (1.5, 0.5), (2.0, 0.5), (1.0, 1.0)]

        def values(scale, a0):
            return hu.husimi_values(batch, a0, scale * hu.make_grid(6.0, 0.2).nodes)

        cold = {}
        for case in cases:
            hu.make_grid.cache_clear()
            hu._lattice_plan.cache_clear()
            cold[case] = values(*case)
        for case in cases[::-1]:
            assert np.array_equal(values(*case), cold[case])
        for i in range(fock.CACHE_SIZE):  # evict every plan above
            hu.husimi_values(batch[0], 0.5, (3.0 + 0.1 * i) * hu.make_grid(6.0, 0.2).nodes)
        assert hu._lattice_plan.cache_info().currsize == fock.CACHE_SIZE
        for case in cases[1::2] + cases[::2]:
            assert np.array_equal(values(*case), cold[case])

    @pytest.mark.parametrize("a0", [0.5, 1.0])
    def test_other_node_arrays_add_no_plan(self, batch, a0):
        nodes = hu.make_grid(6.0, 0.2).nodes
        hu._lattice_plan.cache_clear()
        for z in (nodes.ravel(), nodes[:, 1:-1], nodes + 0.1, nodes[30]):
            hu.husimi_values(batch, a0, z)
        info = hu._lattice_plan.cache_info()
        assert (info.currsize, info.misses) == (0, 0)


def eigh_husimi_values(state: fock.FockOperator, a0: float, z_nodes) -> np.ndarray:
    """The operator density by eigenpairs: the columns sqrt(w) v over the
    eigenpairs of the Hermitian part with w > 1e-15, each evaluated on the
    library's coherent columns, after the same attenuator for a0 > 1/2."""
    z = np.asarray(z_nodes, dtype=np.complex128).ravel()
    scale = 1.0
    if a0 > 0.5:
        kappa = np.sqrt(a0 + 0.5)
        state = fock.apply_kraus(fock.attenuator_kraus(1.0 / kappa, state.space), state)
        z, scale = z / kappa, kappa ** -2
    w, v = np.linalg.eigh(0.5 * (state.matrix + state.matrix.conj().T))
    keep = w > 1e-15
    factors = v[:, keep] * np.sqrt(w[keep])
    columns = hu._coherent_columns(z.conj(), state.space.cutoff)
    return scale * (np.abs(columns @ factors) ** 2).sum(axis=1)


def loop_diagonals(rho: fock.FockOperator) -> np.ndarray:
    """D[n, k] = h[n, n + k] sqrt(n! / (n + k)!), h = (rho + rho^dag) / 2,
    one offset k at a time from the stored diagonals: the reference for the
    evaluator's strided form."""
    Y, (box,), (width,) = rho.diagonals, rho.boxes, rho.widths
    half_log_factorial = 0.5 * log_factorial(np.arange(box))
    out = np.zeros((box, width), dtype=np.complex128)
    for k in range(width):
        upper, lower = Y[width - 1 + k, :box - k], Y[width - 1 - k, k:]
        out[:box - k, k] = 0.5 * (upper + lower.conj()) * np.exp(
            half_log_factorial[:box - k] - half_log_factorial[k:])
    return out


class TestPolarEvaluation:
    """Operators are evaluated in polar form, one radial function per
    occupied diagonal, and agree with the eigenpair evaluation they replace
    from the origin to nodes where e^{-|z|^2/2} underflows."""

    @pytest.fixture(scope="class")
    def space128(self):
        return fock.FockSpace(1, 128)

    @pytest.fixture(scope="class")
    def operators(self, space128):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))

        def density(b):
            m = b @ b.conj().T
            return fock.FockOperator(space=space128, matrix=m / np.trace(m).real)

        return {
            "diagonal": fock.FockOperator(space=space128, matrix=np.diag(
                rng.dirichlet(np.ones(128))).astype(np.complex128)),
            "banded": density(np.triu(np.tril(a, 1), -1)),  # tridiagonal b: width 3
            "full": density(a),
        }

    @pytest.fixture(scope="class")
    def nodes(self):
        radii = np.array([0.0, 1e-3, 5.0, 18.0, 40.0, 300.0])
        angles = np.random.default_rng(12).uniform(0.0, 2.0 * np.pi, (radii.size, 5))
        return (radii[:, None] * np.exp(1j * angles)).ravel()

    @pytest.mark.parametrize("kind", ["diagonal", "banded", "full", "attenuated"])
    def test_weighted_diagonals_match_loop(self, operators, space128, kind):
        rho = operators.get(kind) or fock.apply_kraus(fock.attenuator_kraus(0.8, space128),
                                                      fock.random_pure_state(3, space128,
                                                                             support=8))
        assert np.array_equal(hu._diagonals(rho), loop_diagonals(rho))

    @pytest.mark.parametrize("a0", [0.5, 1.0])
    @pytest.mark.parametrize("kind,width", [("diagonal", 1), ("banded", 3), ("full", 128)])
    def test_matches_eigenpair_evaluation(self, operators, nodes, kind, width, a0):
        rho = operators[kind]
        assert fock._structure(rho.matrix, rho.space)[1] == (width,)
        got = hu.husimi_values(rho, a0, nodes)
        assert np.isfinite(got).all()
        assert np.abs(got - eigh_husimi_values(rho, a0, nodes)).max() <= 1e-15

    @pytest.mark.parametrize("a0", [0.5, 1.0])
    def test_mixed_batch_rows_are_separate_calls(self, operators, space128, a0):
        # bitwise: an operator row is its own call, and the pure rows are the
        # pure states' own batch (their stacked columns share one crop there;
        # alone, each would be cropped to its support and rounded differently)
        nodes = 2.0 * hu.make_grid(6.0, 0.2).nodes
        pure = [fock.vacuum_state(space128), fock.random_pure_state(5, space128, support=8),
                fock.coherent_state(0.7, space128)]
        batch = [pure[0], operators["banded"], pure[1], operators["diagonal"], pure[2],
                 operators["full"]]
        got = hu.husimi_values(batch, a0, nodes)
        assert np.array_equal(got[[0, 2, 4]], hu.husimi_values(pure, a0, nodes))
        for row, kind in zip(got[[1, 3, 5]], ("banded", "diagonal", "full")):
            assert np.array_equal(row, hu.husimi_values(operators[kind], a0, nodes))


class TestNonFiniteInput:
    """A NaN in the state or the nodes raises instead of passing the density
    check, which a NaN density would not fail."""

    @pytest.mark.parametrize("a0", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["pure-amplitude", "operator-diagonal", "node"])
    def test_raises_invalid_state(self, space, case, a0):
        nodes = np.array([0.5 + 0.25j, -1.0j, 2.0])
        state = fock.number_state(space, 1)
        if case == "pure-amplitude":
            amplitudes = state.amplitudes.copy()
            amplitudes[2] = np.nan
            state = fock.PureState(space=space, amplitudes=amplitudes)
        elif case == "operator-diagonal":
            matrix = fock.thermal_state(0.5, space).matrix.copy()
            matrix[3, 3] = np.nan
            state = fock.FockOperator(space=space, matrix=matrix)
        else:
            nodes[1] = np.nan
        with pytest.raises(InvalidState):
            hu.husimi_values(state, a0, nodes)


class TestHusimiDensity:
    def test_vacuum_closed_form(self, grid, space):
        field = hu.husimi_density(fock.vacuum_state(space), 0.5, grid)
        inside = np.abs(grid.nodes) <= 3.0
        expected = np.exp(-np.abs(grid.nodes) ** 2)
        assert np.abs(field.values - expected)[inside].max() < 1e-6
        assert field.integral() == pytest.approx(1.0, abs=1e-4)

    def test_fock_one_closed_form(self, grid, space):
        field = hu.husimi_density(fock.number_state(space, 1), 0.5, grid)
        inside = np.abs(grid.nodes) <= 3.0
        r2 = np.abs(grid.nodes) ** 2
        assert np.abs(field.values - r2 * np.exp(-r2))[inside].max() < 1e-6

    def test_coherent_with_thermal_reference(self, grid, space):
        field = hu.husimi_density(fock.coherent_state(0.7, space), 1.2, grid)
        assert field.integral() + field.tail_mass == pytest.approx(1.0, abs=1e-4)
        assert field.values.max() <= 1.0 + 1e-8
        # radial gaussian centered at the coherent amplitude
        peak = grid.nodes.ravel()[np.argmax(field.values)]
        assert abs(peak - 0.7) < 0.1

    def test_thermal_reference_widens_vacuum(self, grid, space):
        n0 = 0.5
        field = hu.husimi_density(fock.vacuum_state(space), 0.5 + n0, grid)
        expected = np.exp(-np.abs(grid.nodes) ** 2 / (n0 + 1)) / (n0 + 1)
        assert np.abs(field.values - expected).max() < 1e-10

    def test_tail_estimate_is_conservative(self, grid, space):
        st = fock.number_state(space, 12)
        est = hu.estimate_tail_mass(st, 1.0, grid)
        true_tail = 1.0 - grid.integrate(hu.husimi_values(st, 1.0, grid.nodes))
        assert est >= true_tail

    def test_tail_budget_enforced(self, space):
        small = hu.make_grid(4.0, 0.05)
        with pytest.raises(TailMassTooLarge):
            hu.husimi_density(fock.number_state(space, 14), 0.5, small)


class TestThermalReferenceDuality:
    """husimi_values evaluates a thermal reference as kappa^-2 times the
    vacuum density of the attenuated input at z / kappa."""

    @pytest.fixture(scope="class")
    def coarse(self):
        return hu.make_grid(6.0, 0.2)

    @pytest.mark.parametrize("a0", [0.75, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize("kind", ["number", "haar", "coherent", "measure-reprepare"])
    def test_matches_displaced_number_state_sum(self, coarse, space, a0, scale, kind):
        state = {
            "number": lambda: fock.number_state(space, 3),
            "haar": lambda: fock.random_pure_state(5, space, support=8),
            "coherent": lambda: fock.coherent_state(0.7, space),
            # mixed, occupying about one photon: the recursion stays accurate
            "measure-reprepare": lambda: fock.realize_channel(
                hu.measure_reprepare_channel(0.7), space).apply(
                    fock.number_state(space, 1)),
        }[kind]()
        nodes = scale * coarse.nodes
        got = hu.husimi_values(state, a0, nodes)
        assert np.abs(got - reference_husimi_values(state, a0, nodes)).max() <= 1e-12

    def test_broad_mixed_input_at_large_reference(self, coarse, space):
        # the measure-reprepare output of coherent(0.7) at c = 2 spreads over
        # about six photons; at a0 = 2 the displaced-number-state sum is off
        # by 4e-2 at the rescaled nodes, the duality is not
        sigma = fock.realize_channel(hu.measure_reprepare_channel(2.0), space).apply(
            fock.coherent_state(0.7, space))
        nodes = (2.0 * coarse.nodes)[coarse.mask][::97]
        got = hu.husimi_values(sigma, 2.0, nodes)
        assert np.abs(got - gaussian_smeared_q(sigma, 2.0, nodes)).max() <= 1e-12


class TestClassicalFunctional:
    def test_vacuum_wehrl_is_one(self, grid, space):
        field = hu.husimi_density(fock.vacuum_state(space), 0.5, grid)
        assert hu.classical_functional(field, VN) == pytest.approx(1.0, abs=1e-3)

    def test_fock_one_wehrl(self, grid, space):
        field = hu.husimi_density(fock.number_state(space, 1), 0.5, grid)
        expected = 2.0 - digamma(2.0)  # = 1 + Euler's gamma
        assert hu.classical_functional(field, VN) == pytest.approx(expected, abs=1e-3)

    def test_renyi_two_bounded(self, grid, space):
        field = hu.husimi_density(fock.coherent_state(0.4, space), 0.5, grid)
        value = hu.classical_functional(field, mj.renyi_functional(2.0))
        assert -1.0 <= value <= 0.0


class TestNormalDensity:
    def test_half_matches_vacuum_husimi(self, grid):
        q = normal_density(0.5, grid)
        assert np.abs(q.values - np.exp(-np.abs(grid.nodes) ** 2)).max() < 1e-12

    def test_normalization_and_variance(self, grid):
        for a in (0.25, 0.5, 1.3):
            q = normal_density(a, grid)
            assert q.integral() == pytest.approx(1.0, abs=1e-6)
            var = grid.integrate(np.abs(grid.nodes) ** 2 * q.values)
            assert var == pytest.approx(2 * a, abs=1e-4)

    def test_concentrates_as_width_shrinks(self, grid):
        q = normal_density(0.01, grid)
        outside = np.abs(grid.nodes) > 0.5
        mass_outside = q.values[outside & grid.mask].sum() * grid.weight
        assert mass_outside < 1e-5


class TestMeasureReprepare:
    def test_unit_scaling_gives_classical_noise(self):
        ch = hu.measure_reprepare_channel(1.0)
        assert ch.K[0, 0] == pytest.approx(1.0)
        assert ch.mu[0, 0] == pytest.approx(1.0)

    def test_always_valid(self):
        for c in (0.3, 1.0, 2.5, 5.0):
            ch = hu.measure_reprepare_channel(c, 0.5, 0.5)
            assert classify(ch) in (ChannelClass.ATTENUATOR, ChannelClass.AMPLIFIER,
                                    ChannelClass.GENERAL)

    def test_decomposition_oracle_at_c3(self):
        dec = decompose(hu.measure_reprepare_channel(3.0))
        assert dec.amplifier.K[0, 0] == pytest.approx(np.sqrt(10), abs=1e-12)
        assert dec.attenuator.K[0, 0] == pytest.approx(3 / np.sqrt(10), abs=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ParameterOutOfRange):
            hu.measure_reprepare_channel(0.0)

    def test_rejects_sub_vacuum_reference(self):
        with pytest.raises(ParameterOutOfRange):
            hu.measure_reprepare_channel(1.0, a0=0.3)


class TestUpperSymbol:
    def test_unit_scaling_closed_form(self, grid, space):
        # Phi_1[vacuum] is thermal with alpha = 3/2; its vacuum-reference
        # density is (1/2) exp(-|z|^2/2)
        fields = hu.berezin_lieb_fields(fock.vacuum_state(space), 1.0, 0.5, 0.5, grid,
                                        cutoff=64)
        field = hu.husimi_density(fields.sigma, 0.5, grid)
        expected = 0.5 * np.exp(-np.abs(grid.nodes) ** 2 / 2.0)
        assert np.abs(field.values - expected).max() < 1e-6

    @pytest.mark.parametrize("probe_builder,c", [
        (lambda sp: fock.vacuum_state(sp), 2.0),
        (lambda sp: fock.number_state(sp, 1), 2.0),
        (lambda sp: fock.coherent_state(0.7, sp), 1.5),
    ])
    def test_convolution_identity(self, grid, space, probe_builder, c):
        rep = hu.convolution_check(hu.berezin_lieb_fields(probe_builder(space), c, 0.5, 0.5,
                                                          grid))
        assert rep.sup_deviation <= 2e-3


class TestSmoothField:
    @pytest.mark.parametrize("c,a0p", [(1.5, 0.5), (2.0, 0.5), (3.0, 1.0)])
    def test_matches_scipy_fft_reference(self, grid, space, c, a0p):
        p_in = hu.husimi_density(fock.coherent_state(0.7, space), 0.5, grid).values
        kernel = normal_density(a0p / c ** 2, grid).values
        padded = [scipy.fft.next_fast_len(2 * n - 1, real=True) for n in p_in.shape]
        conv = scipy.fft.irfft2(scipy.fft.rfft2(p_in, padded) * scipy.fft.rfft2(kernel, padded),
                                padded)
        window = tuple(slice((n - 1) // 2, (n - 1) // 2 + n) for n in p_in.shape)
        reference = conv[window] * grid.weight
        assert np.abs(hu.smooth_field(p_in, c, a0p, grid) - reference).max() < 1e-12


class TestBerezinLieb:
    def test_vacuum_sandwich_von_neumann(self, grid, space):
        c = 2.0
        rep = hu.berezin_lieb_check(
            hu.berezin_lieb_fields(fock.vacuum_state(space), c, 0.5, 0.5, grid), VN)
        assert rep.sandwiched(1e-3)
        # middle equals the closed form for the thermal output N = c^2
        n = c ** 2
        expected = (n + 1) * np.log(n + 1) - n * np.log(n)
        assert rep.middle == pytest.approx(expected, abs=1e-6)

    def test_fock_one_sandwich_renyi(self, grid, space):
        rep = hu.berezin_lieb_check(
            hu.berezin_lieb_fields(fock.number_state(space, 1), 2.0, 0.5, 0.5, grid),
            mj.renyi_functional(2.0))
        assert rep.sandwiched(1e-3)

    def test_linear_functional_collapses(self, grid, space):
        f = mj.polygonal_functional(((0.0, 0.0), (1.0, 1.0)))
        rep = hu.berezin_lieb_check(
            hu.berezin_lieb_fields(fock.vacuum_state(space), 2.0, 0.5, 0.5, grid), f)
        for value in (rep.lower, rep.middle, rep.upper):
            assert value == pytest.approx(1.0, abs=1e-3)

    def test_quadrature_guard_when_grid_misses_mass(self, space):
        small = hu.make_grid(4.0, 0.05)
        with pytest.raises(QuadratureError):
            hu.berezin_lieb_check(
                hu.berezin_lieb_fields(fock.number_state(space, 20), 2.0, 0.5, 0.5, small), VN)


def smoothing_deviation(fields: BerezinLiebFields, f: ConcaveFunctional) -> float:
    """| int f(p) - int f(p * q_{a0'/c^2}) |, the quantity driven to zero by
    large c in the smoothing limit."""
    grid = fields.grid
    return abs(grid.integrate(np.asarray(f(fields.p_in)))
               - grid.integrate(np.asarray(f(fields.smoothed))))


class TestSmoothingLimit:
    def test_deviation_decreases_with_c(self, grid, space):
        poly = mj.polygonal_functional(((0.0, 0.0), (0.2, 0.5), (0.6, 0.8), (1.0, 0.9)))
        probes = [fock.vacuum_state(space), fock.number_state(space, 1),
                  fock.coherent_state(0.7, space)]
        for probe in probes:
            devs = [smoothing_deviation(hu.berezin_lieb_fields(probe, c, 0.5, 0.5, grid),
                                           poly)
                    for c in (1.5, 2.0, 3.0)]
            assert devs[0] > devs[1] > devs[2]


class TestWehrlOptimality:
    def test_vacuum_reference_sweep(self, grid):
        rep = hu.wehrl_optimality_test(0.5, n_samples=25, seed=21, grid=grid, f=VN)
        assert rep.vacuum_value == pytest.approx(1.0, abs=1e-3)
        assert rep.gap >= -1e-3
        fock1 = next(r.value for r in rep.rows if r.label == "fock(1)")
        assert fock1 == pytest.approx(2.0 - digamma(2.0), abs=1e-3)

    @pytest.mark.parametrize("a0,probe_dim", [(0.5, 16), (1.0, 8)])
    def test_rows_match_per_state_densities(self, a0, probe_dim):
        # 3 + 7 inputs span two chunks of the sweep; each row is the input's
        # own density reduced, with the samples drawn from the seeds (21, idx)
        assert 3 + 7 > hu.WEHRL_GROUP
        grid = hu.make_grid(6.0, 0.2)
        rep = hu.wehrl_optimality_test(a0, n_samples=7, seed=21, grid=grid, f=VN,
                                       probe_dim=probe_dim)
        space = fock.FockSpace(1, 32)
        inputs = [fock.number_state(space, 1), fock.number_state(space, 2)] + [
            fock.random_pure_state([21, idx], space, support=probe_dim) for idx in range(7)]
        vacuum = hu.classical_functional(hu.husimi_density(fock.vacuum_state(space), a0, grid), VN)
        assert rep.vacuum_value == pytest.approx(vacuum, abs=1e-12)
        assert [r.label for r in rep.rows] == ["fock(1)", "fock(2)"] + [
            f"haar[21,{idx}]" for idx in range(7)]
        for row, state in zip(rep.rows, inputs):
            field = hu.husimi_density(state, a0, grid)
            assert row.value == pytest.approx(hu.classical_functional(field, VN), abs=1e-12)
            assert row.leakage == field.tail_mass

    def test_thermal_reference_sweep(self, grid):
        rep = hu.wehrl_optimality_test(1.0, n_samples=10, seed=21, grid=grid, f=VN,
                                       probe_dim=8)
        assert rep.vacuum_value == pytest.approx(1.0 + np.log(1.5), abs=1e-3)
        assert rep.gap >= -1e-3

    def test_translation_invariance(self, grid, space):
        v_coh = hu.classical_functional(
            hu.husimi_density(fock.coherent_state(0.8, space), 0.5, grid), VN)
        v_vac = hu.classical_functional(
            hu.husimi_density(fock.vacuum_state(space), 0.5, grid), VN)
        assert abs(v_coh - v_vac) < 1e-3


class TestFieldDump:
    def test_csv_rows(self, tmp_path, space):
        grid = hu.make_grid(4.0, 0.5)
        field = hu.husimi_density(fock.vacuum_state(space), 0.5, grid)
        path = tmp_path / "field.csv"
        hu.field_to_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,p"
        assert len(lines) == 1 + int(grid.mask.sum())
        x, y, p = (float(v) for v in lines[1].split(","))  # plain numbers
        assert (x, y) == (-4.0, 0.0) and p == pytest.approx(np.exp(-16.0))
