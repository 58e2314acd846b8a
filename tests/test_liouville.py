import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavsinglet import effective, liouville
from cavsinglet.cli import GENERATORS
from cavsinglet.errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericalInstabilityError,
)
from cavsinglet.hilbert import build_space, excitation_count, named_state
from cavsinglet.liouville import (
    CONVERGED_DISTANCE,
    TRACE_TOL,
    LiouvillianMatrix,
    Mixture,
    _hermitian_order,
    _real_form,
    _rotated,
    evolve_spectral,
    fidelity,
    from_real,
    full_generator,
    ground_state_vectors,
    mixed_ground_state,
    propagate,
    sample_grid,
    spectral_gap,
    spectral_modes,
    steady_state,
    superpose,
    symmetric_basis,
    time_to_convergence,
    to_real,
    unvec,
    vec,
    vectorize,
    vectorize_sum,
)
from cavsinglet.model import TERMS, MasterEquation, SystemParams
from cavsinglet.schemes import (
    SchemeId,
    cavity_rates_for_cooperativity,
    components,
    preset,
)
from oracles import (
    apply_generator,
    build_master_equation,
    complex_form,
    state_populations,
    symmetric_states,
    validate_density,
)


def assert_matches_states(traj, lv, rho0, ref, tol=1e-8):
    """The trajectory's populations, and the states ``evolve_spectral`` gives
    at its times, agree with the reference states ``ref`` within tol."""
    assert np.abs(evolve_spectral(lv, rho0, traj.times) - ref).max() < tol
    want, got = state_populations(ref, traj.space), traj.populations()
    assert max(np.abs(got[k] - want[k]).max() for k in want) < tol


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Independent oracle for the distances that time_to_convergence uses."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


@pytest.fixture
def eig_inputs(monkeypatch):
    """The matrices passed to ``np.linalg.eig``, in call order."""
    seen, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: seen.append(m) or eig(m))
    return seen


def rk4_states(mat, rho0, t_final, dt):
    """Fixed-step 4th-order Runge-Kutta states at every step: an independent
    reference for the exact evolution."""
    n_steps = round(t_final / dt)
    h = t_final / n_steps
    v = vec(rho0)
    out = [v]
    for _ in range(n_steps):
        k1 = mat @ v
        k2 = mat @ (v + 0.5 * h * k1)
        k3 = mat @ (v + 0.5 * h * k2)
        k4 = mat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(v)
    return unvec(np.array(out), rho0.shape[0])


def random_master_equation(space, rng, n_lindblads=3):
    d = space.dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    ls = {}
    for k in range(n_lindblads):
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ls[f"l{k}"] = 0.3 * y
    return MasterEquation(space, 0.5 * (x + x.conj().T), ls)


class TestVectorize:
    def test_action_matches_direct_evaluation(self, rng):
        space = build_space(1, 1)
        me = random_master_equation(space, rng)
        mat = complex_form(vectorize(me))
        for _ in range(4):
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            direct = apply_generator(me, rho)
            via_matrix = unvec(mat @ vec(rho), 12)
            assert np.abs(direct - via_matrix).max() < 1e-12

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
    )
    def test_matches_apply_generator_over_cli_domain(
            self, scheme, log10_c, omega_over_gamma):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            params = preset(scheme, gamma=gamma, kappa=kappa,
                            Omega=omega_over_gamma * gamma)
            models = [
                build_master_equation(params, build_space(1, 1)),
                build_master_equation(params.replace(n_max=2), build_space(2, 2)),
                effective.reduce(params),
                effective.reduce_dressed(params),
            ]
        rng = np.random.default_rng(11)
        for me in models:
            mat = complex_form(vectorize(me))
            d = me.dim
            # WS entries reach ~100, so the tolerance scales with ||L||
            tol = 1e-12 * np.linalg.norm(mat, 1)
            for _ in range(2):
                x = rng.normal(size=(d, 2 * d)).view(complex)
                rho = x @ x.conj().T
                rho /= np.trace(rho)
                direct = apply_generator(me, rho)
                assert np.abs(unvec(mat @ vec(rho), d) - direct).max() <= tol
            assert np.abs(vec(np.eye(d)).conj() @ mat).max() <= tol

    def test_trace_left_null_vector(self, s1_liouvillian):
        d = s1_liouvillian.dim
        tr = vec(np.eye(d)).conj()
        residual = np.abs(tr @ complex_form(s1_liouvillian)).max()
        assert residual < 1e-10

    def test_zero_generator(self):
        space = build_space(1, 1)
        me = MasterEquation(space, np.zeros((12, 12)), {})
        with pytest.raises(DegenerateSteadyStateError) as err:
            spectral_gap(vectorize(me))
        assert err.value.steady_dim == 144


def dense_hermitian_basis_map(d: int) -> np.ndarray:
    """T with T vec(rho) = (rho_ii, sqrt2 Re rho_ij, sqrt2 Im rho_ij for
    i < j), one row per coordinate, built from matrix units."""
    def unit(i, j):
        e = np.zeros((d, d), dtype=complex)
        e[i, j] = 1.0
        return vec(e)

    pairs = list(zip(*np.triu_indices(d, 1)))
    rows = [unit(i, i) for i in range(d)]
    rows += [(unit(i, j) + unit(j, i)) / np.sqrt(2) for i, j in pairs]
    rows += [-1j * (unit(i, j) - unit(j, i)) / np.sqrt(2) for i, j in pairs]
    return np.array(rows)


def real_coordinates_map(space) -> np.ndarray:
    """The dense map that ``to_real`` applies: T (V (x) V), vec(rho) to the
    real coordinates of V rho V (V is real and symmetric)."""
    v = symmetric_states(space)
    return dense_hermitian_basis_map(space.dim) @ np.kron(v, v)


def rotated(me: MasterEquation) -> MasterEquation:
    """The master equation with H and the jumps in the ``symmetric_basis``,
    as ``vectorize`` rotates them."""
    labels = me.space.labels
    return MasterEquation(me.space, _rotated(me.H, labels),
                          {k: _rotated(op, labels) for k, op in me.lindblads.items()})


def column_stacked(me: MasterEquation) -> np.ndarray:
    """The column-stacked L assembled in full from the jump operators'
    (K x d^2)^H (K x d^2) product, laid out as ``[i, k, j, l]``: the oracle
    for the bits of ``vectorize``'s real form."""
    h = me.H
    d = h.shape[0]
    jumps = np.array(list(me.lindblads.values()), dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), jumps, axes=([0, 1], [0, 1]))
    flat = jumps.reshape(-1, d * d)
    blocks = flat.conj().T @ flat
    blocks[::d + 1] -= 1j * h_eff.reshape(-1)
    blocks[:, ::d + 1] += 1j * h_eff.conj().reshape(-1, 1)
    return blocks.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def oracle_models() -> dict:
    """Master equations of every phase-fixed scheme, an asymmetric and a
    two-photon model, and an effective one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regime warnings from preset
        params = {s: preset(s) for s in ("S1", "S0", "T1", "T0", "WS")}
    models = {s: build_master_equation(p) for s, p in params.items()}
    models["T0 alpha=0.05"] = build_master_equation(params["T0"].replace(alpha=0.05))
    models["S1 n_max=2"] = build_master_equation(params["S1"].replace(n_max=2))
    models["S1 two excitations"] = build_master_equation(
        params["S1"].replace(n_max=2), build_space(2, 2))
    models["S1 effective"] = effective.reduce(params["S1"])
    return models


def in_hermitian_order(mat: np.ndarray, d: int) -> np.ndarray:
    """A column-stacked L's rows and columns in the order of the real
    coordinates, the layout ``_real_form`` reads."""
    order = _hermitian_order(d)[0]
    return mat[np.ix_(order, order)]


class TestRealForm:
    @pytest.mark.parametrize("name", list(oracle_models()))
    def test_bit_identical_to_column_stacked_oracle(self, name):
        # R is the real form of L in the symmetric basis; complex_form
        # rotates it back to the product basis
        me = oracle_models()[name]
        mat, d = column_stacked(me), me.dim
        lv = vectorize(me)
        assert np.array_equal(lv.real_form(), _real_form(
            in_hermitian_order(column_stacked(rotated(me)), d), d))
        assert np.abs(complex_form(lv) - mat).max() <= 1e-15 * np.abs(mat).max()

    def test_weighted_sum_bit_identical_to_summed_oracle(self):
        # the mixture's effective gap sums its components' generators
        terms = [(c.weight, effective.reduce(c.params))
                 for c in components("T0S0_mix")]
        mat, d = sum(w * column_stacked(me) for w, me in terms), terms[0][1].dim
        assert np.array_equal(vectorize_sum(terms).real_form(),
                              _real_form(in_hermitian_order(mat, d), d))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
    )
    def test_matches_dense_similarity_over_cli_domain(
            self, scheme, log10_c, omega_over_gamma):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            params = preset(scheme, gamma=gamma, kappa=kappa,
                            Omega=omega_over_gamma * gamma)
        lv = vectorize(build_master_equation(params))
        t, mat = real_coordinates_map(lv.space), complex_form(lv)
        assert np.abs(t @ t.conj().T - np.eye(len(t))).max() < 1e-15
        norm_l = np.linalg.norm(mat, 1)
        dense = t @ mat @ t.conj().T
        assert lv.real_form().dtype == float
        assert np.abs(lv.real_form() - dense).max() <= 1e-13 * norm_l
        # same spectrum: every eigenvalue of R has one of L next to it
        ref = np.linalg.eigvals(mat)
        for a, b in ((lv.eigenvalues(), ref), (ref, lv.eigenvalues())):
            assert np.abs(a[:, None] - b[None, :]).min(axis=1).max() <= 1e-11 * norm_l

    def test_coordinates_round_trip(self, rng):
        space = build_space(1, 1)
        lv = vectorize(random_master_equation(space, rng))
        x = rng.normal(size=(12, 24)).view(complex)
        rho = x @ x.conj().T
        t = real_coordinates_map(space)
        coords = t @ vec(rho)
        assert np.abs(coords.imag).max() < 1e-12
        back = from_real(coords.real, space)
        assert np.abs(back - vec(rho)).max() < 1e-12
        # to_real is T (V (x) V) itself, on any vector, Hermitian or not
        v = rng.normal(size=144 * 2).view(complex)
        assert np.abs(to_real(v, space) - t @ v).max() < 1e-12
        assert np.abs(from_real(to_real(v, space), space) - v).max() < 1e-12
        # and on a stack of them, as eigenvectors are mapped
        stack = rng.normal(size=(144, 6)).view(complex)
        assert np.abs(from_real(stack, space) - t.conj().T @ stack).max() < 1e-12
        # a random Lindblad generator preserves Hermiticity as well
        assert np.abs((t @ complex_form(lv) @ t.conj().T).imag).max() < 1e-12


REFERENCE = dict(C=256.0 / 15.0, omega_frac=0.2, alpha=0.0, b=0.0, beta=0.01,
                 Delta=0.6, delta=0.4, omega_mw=0.01, n_max=1)


class TestFullGenerator:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        C=st.floats(10.0, 1000.0),
        omega_frac=st.floats(0.0, 1.0),
        phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
        alpha=st.floats(-0.3, 0.3, exclude_min=True, exclude_max=True),
        b=st.floats(-0.1, 0.1),
        beta=st.floats(-0.1, 0.1),
        Delta=st.floats(-1000.0, 1000.0),
        delta=st.floats(-2.0, 2.0),
        omega_mw=st.floats(0.0, 0.5),
        n_max=st.sampled_from([1, 2]),
    )
    @example(phi=0.0, **REFERENCE)
    @example(phi=np.pi, **REFERENCE)
    def test_term_sum_matches_vectorized_model(
            self, C, omega_frac, phi, alpha, b, beta, Delta, delta, omega_mw, n_max):
        gamma, kappa = cavity_rates_for_cooperativity(C)
        params = SystemParams(gamma=gamma, kappa=kappa, Omega=omega_frac * gamma / 2,
                              Omega_MW=omega_mw, Delta=Delta, delta=delta, beta=beta,
                              phi=phi, alpha=alpha, b=b, n_max=n_max)
        lv, ref = full_generator(params), vectorize(build_master_equation(params))
        r = ref.real_form()
        assert np.abs(lv.real_form() - r).max() <= 1e-14 * np.abs(r).max()
        assert [m.shape for _, m in lv.blocks()] == [m.shape for _, m in ref.blocks()]

    def test_forms_cached_once_per_space_and_read_only(self, monkeypatch):
        monkeypatch.setattr(liouville, "_TERM_FORMS", {})
        calls, build = [], liouville.vectorize
        monkeypatch.setattr(liouville, "vectorize", lambda me: calls.append(me) or build(me))
        params = SystemParams(Omega=0.1, Omega_MW=0.05)
        first = full_generator(params)
        forms = liouville._TERM_FORMS[first.space]
        full_generator(params.replace(Omega=0.2))
        assert len(calls) == len(TERMS)
        assert liouville._TERM_FORMS[first.space] is forms
        full_generator(params.replace(n_max=2))
        assert len(calls) == 2 * len(TERMS) and len(liouville._TERM_FORMS) == 2
        assert not any(a.flags.writeable for a in (*forms, first.real_form()))


def exchange_operator(space, parity: bool) -> np.ndarray:
    """U, the atom swap, times (-1)^excitations if ``parity``, on the
    product states."""
    u = np.zeros((space.dim, space.dim))
    for k, (a, b, n) in enumerate(space.labels):
        sign = (-1.0) ** excitation_count((a, b, n)) if parity else 1.0
        u[space.index((b, a, n)), k] = sign
    return u


def one_block_steady_vector(lv) -> np.ndarray:
    """Column 0 of the inverse of the whole trace-bordered real form."""
    b = lv.real_form().copy()
    b[0] = 0.0
    b[0, :lv.dim] = 1.0
    return from_real(np.linalg.inv(b)[:, 0], lv.space)


class TestExchangeSectors:
    @pytest.mark.parametrize("n_max,cap", [(1, 1), (1, None), (2, 2)])
    def test_symmetric_basis_diagonalizes_both_candidates(self, n_max, cap, rng):
        space = build_space(n_max, cap)
        basis = symmetric_basis(space.labels)
        assert symmetric_basis(space.labels) is basis  # cached per space's labels
        pairs, candidates = basis
        assert not any(a.flags.writeable for a in (*pairs, *sum(candidates, ())))
        v = symmetric_states(space)
        assert np.abs(v.T @ v - np.eye(space.dim)).max() < 1e-15
        assert np.array_equal(v[:, 0], np.eye(space.dim)[0])  # |0,0,0> stays first
        # the paper's pairs: the first label of each is its sum, the second
        # its difference
        for name, label in (("T", "01"), ("S", "10"), ("T0", "0e"), ("S0", "e0"),
                            ("T1", "1e"), ("S1", "e1")):
            column = v[:, space.index((*label, 0))]
            assert np.abs(column - named_state(space, name)).max() < 1e-15
        x = rng.normal(size=(3, space.dim, 2 * space.dim)).view(complex)
        assert np.abs(_rotated(x, space.labels) - v.T @ x @ v).max() < 1e-14
        t = real_coordinates_map(space)
        for parity, (p, even, odd) in zip((False, True), candidates):
            u = exchange_operator(space, parity)
            assert np.abs(v.T @ u @ v - np.diag(p)).max() < 1e-15
            # rho -> U rho U^H is +1 on the even coordinates, -1 on the odd
            q = t @ np.kron(u, u) @ t.conj().T
            sign = np.zeros(len(q))
            sign[even], sign[odd] = 1.0, -1.0
            assert np.abs(q - np.diag(sign)).max() < 1e-14
            assert even[0] == 0  # rho_00 leads the even sector

    @pytest.mark.parametrize("scheme", ["S1", "S0", "T1", "T0", "WS"])
    def test_ground_basis_has_two_sectors(self, scheme):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            params = preset(scheme)
        pairs, candidates = symmetric_basis(effective.GROUND.labels)
        assert pairs is None  # (00, T, 11, S) is the symmetric basis already
        assert [(len(even), len(odd)) for _, even, odd in candidates] == [(10, 6)] * 2
        lv = vectorize(effective.reduce(params))
        # WS's +-b shift couples S to T
        assert [len(m) for _, m in lv.blocks()] == ([16] if scheme == "WS" else [10, 6])
        ref = np.linalg.eigvals(lv.real_form())
        for x, y in ((lv.eigenvalues(), ref), (ref, lv.eigenvalues())):
            assert np.abs(x[:, None] - y[None, :]).min(axis=1).max() \
                <= 1e-14 * np.abs(ref).max()

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
        alpha=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
        b=st.one_of(st.none(), st.floats(0.005, 0.05)),  # None: the preset's
    )
    @example(scheme="S0", log10_c=3.0, omega_over_gamma=0.05, alpha=0.0, b=None)
    def test_split_over_cli_domain(self, scheme, log10_c, omega_over_gamma, alpha, b):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            params = preset(scheme, gamma=gamma, kappa=kappa,
                            Omega=omega_over_gamma * gamma)
        params = params.replace(alpha=alpha, b=params.b if b is None else b)
        lv = vectorize(build_master_equation(params))
        blocks = lv.blocks()
        # WS (the +-b shift), any alpha != 0 and any b != 0 break the swap
        if scheme == "WS" or alpha != 0.0 or b is not None:
            assert len(blocks) == 1 and blocks[0][0] is None
            assert spectral_gap(lv).sectors == ()
            return
        sizes = {"T0": (80, 64), "T1": (80, 64), "S1": (72, 72), "S0": (72, 72)}
        assert tuple(len(m) for _, m in blocks) == sizes[scheme]
        norm_l = np.linalg.norm(complex_form(lv), 1)
        ref = np.linalg.eigvals(lv.real_form())
        for x, y in ((lv.eigenvalues(), ref), (ref, lv.eigenvalues())):
            assert np.abs(x[:, None] - y[None, :]).min(axis=1).max() <= 1e-11 * norm_l
        report = spectral_gap(lv)
        assert report.sectors[0] == report.gap
        w, inv = lv.bordered_inverse()[0]
        x = np.zeros(len(lv.real_form()))
        x[w] = inv[:, 0]
        split = from_real(x, lv.space)
        assert np.abs(split - one_block_steady_vector(lv)).max() <= 1e-12


class TestSteadyState:
    def test_pure_decay_is_degenerate(self):
        # without drives every ground-sector operator is stationary:
        # 4 populations plus 12 coherences
        params = SystemParams(Omega=0.0, Omega_MW=0.0, Delta=0.0, delta=0.0)
        lv = vectorize(build_master_equation(params))
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(lv)
        assert err.value.steady_dim == 16

    @pytest.mark.parametrize("writeable", [True, False])
    def test_bordered_inverse_keeps_the_flag_of_an_unsplit_r(self, s1_master, writeable):
        # an unsplit R is its own first block, whose row 0 the solve swaps
        # out and back; a diagonal R commutes with both candidates, so
        # rho_00 is coupled to a coordinate odd under both
        d = s1_master.dim
        expected = np.diag(-1.0 - np.arange(d * d, dtype=float))
        odd = [o for _, _, o in symmetric_basis(s1_master.space.labels)[1]]
        expected[0, np.intersect1d(*odd)[0]] = 1.0
        r = expected.copy()
        r.flags.writeable = writeable
        lv = LiouvillianMatrix(s1_master.space, r)
        [(w, block)] = lv.blocks()
        assert w is None and block is r
        lv.bordered_inverse()
        assert r.flags.writeable is writeable
        assert np.array_equal(r, expected)

    def test_s1_fidelity_reference_value(self, s1_steady, s1_master):
        fid = fidelity(s1_steady, named_state(s1_master.space, "S"))
        assert fid == pytest.approx(0.925, abs=0.01)

    def test_residual_and_structure(self, s1_steady, s1_liouvillian):
        residual = np.linalg.norm(complex_form(s1_liouvillian) @ vec(s1_steady))
        assert residual < 1e-9
        validate_density(s1_steady)  # hermitian, unit trace, positive

    def test_long_time_propagation_converges(self, strong_drive_run):
        me, lv, traj, states, rho_ss = strong_drive_run
        assert trace_distance(states[-1], rho_ss) < 1e-6

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
    )
    @example(scheme="WS", log10_c=3.0, omega_over_gamma=0.05)  # smallest gap
    def test_unique_over_cli_domain(self, scheme, log10_c, omega_over_gamma):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            params = preset(scheme, gamma=gamma, kappa=kappa,
                            Omega=omega_over_gamma * gamma)
        lv = vectorize(build_master_equation(params))
        rho = validate_density(steady_state(lv))
        mat = complex_form(lv)
        norm_l = np.linalg.norm(mat, 1)
        x = vec(rho)
        assert np.linalg.norm(mat @ x) <= 1e-10 * norm_l * np.linalg.norm(x)
        # the check steady_state makes, on the real form: never looser
        r, x_real = lv.real_form(), to_real(x, lv.space)
        bound = 0.125e-10 * np.linalg.norm(r, 1) * np.linalg.norm(x_real)
        assert np.linalg.norm(r @ x_real) <= bound <= 1e-10 * norm_l * np.linalg.norm(x)
        report = spectral_gap(lv)
        stationary = abs(report.eigenvalues[0].real)
        assert stationary <= 10 * np.finfo(float).eps * norm_l < report.gap


class TestSpectrum:
    def test_gap_matches_weak_driving_rate(self, s1_params, s1_liouvillian):
        report = spectral_gap(s1_liouvillian)
        weak = s1_params.Omega ** 2 / (12 * s1_params.gamma)
        assert abs(report.gap - weak) / max(report.gap, weak) < 0.15

    def test_conjugate_pairing(self, s1_liouvillian):
        ev = spectral_gap(s1_liouvillian).eigenvalues
        worst = max(min(abs(z.conjugate() - w) for w in ev) for z in ev)
        assert worst < 1e-10

    def test_sorted_by_abs_real(self, s1_liouvillian):
        re = np.abs(spectral_gap(s1_liouvillian).eigenvalues.real)
        assert np.all(np.diff(re) >= -1e-18)

    def test_gap_consistent_with_decay_fit(self, strong_drive_run):
        me, lv, traj, states, rho_ss = strong_drive_run
        gap = spectral_gap(lv).gap
        dist = np.array([
            np.linalg.norm(states[i] - rho_ss)
            for i in range(len(traj.times))
        ])
        sel = (traj.times > 700) & (dist > 1e-10)
        slope = np.polyfit(traj.times[sel], np.log(dist[sel]), 1)[0]
        assert abs(-slope - gap) / gap < 0.2

    def test_gap_reuses_an_existing_eigensystem(self, monkeypatch):
        # the block an evolution decomposed gives its eig values; the gap
        # reads that block alone, and eigvals runs on the other one alone
        for scheme in (SchemeId.S1, SchemeId.T0):
            lv = vectorize(build_master_equation(preset(scheme)))
            even, odd = (m for _, m in lv.blocks())
            evolve_spectral(lv, mixed_ground_state(lv.space), [1.0])
            seen, eigvals = [], np.linalg.eigvals
            monkeypatch.setattr(np.linalg, "eigvals",
                                lambda m: seen.append(m) or eigvals(m))
            gap = lv.gap()
            assert seen == []
            values = lv.eigenvalues()
            monkeypatch.undo()
            assert len(seen) == 1 and seen[0] is odd
            assert gap == sorted(abs(values[:len(even)].real))[1]
            ref = np.linalg.eig(even)[0]
            ref[np.argmin(abs(ref))] = 0.0  # the stationary one, made exact
            assert np.array_equal(values[:len(even)], ref)
            assert spectral_gap(lv).gap == sorted(abs(values.real))[1]


@pytest.fixture(scope="module")
def strong_drive_run():
    """The model, its generator, its trajectory, the states at the
    trajectory's times and the steady state."""
    params = preset(SchemeId.S1, Omega=0.375 / 2)
    me = build_master_equation(params)
    lv = vectorize(me)
    rho_ss = steady_state(lv)
    rho0 = mixed_ground_state(me.space)
    traj = propagate(me, rho0, 2400.0, 0.05)
    return me, lv, traj, evolve_spectral(lv, rho0, traj.times), rho_ss


class TestPropagate:
    def test_zero_time_returns_initial(self, s1_master):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 0.0, 0.1)
        assert len(traj.times) == 1
        want, got = state_populations(rho0[None], s1_master.space), traj.populations()
        assert max(abs(got[k] - want[k]).max() for k in want) < 1e-15

    def test_trace_and_positivity_along_trajectory(self, strong_drive_run):
        _, _, traj, states, _ = strong_drive_run
        assert np.abs(traj.diagonal.sum(axis=1) - 1).max() < 1e-8
        assert np.abs(np.einsum("nii->n", states) - 1).max() < 1e-8
        for state in states[:: max(1, len(states) // 25)]:
            assert np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() > -1e-6

    def test_singlet_population_grows_toward_steady(self, strong_drive_run):
        me, _, traj, _, rho_ss = strong_drive_run
        p_s = traj.populations()["P_S"]
        # envelope growth from the mixed start toward the stationary value
        assert p_s[0] == pytest.approx(0.25, abs=1e-10)
        coarse = p_s[:: len(p_s) // 12]
        assert np.all(np.diff(coarse) > -0.01)
        assert abs(p_s[-1] - fidelity(rho_ss, named_state(me.space, "S"))) < 1e-4

    def test_matches_reference_rk4(self, s1_master, s1_liouvillian):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 50.0, 0.05)
        ref = rk4_states(complex_form(s1_liouvillian), rho0, 50.0, 0.05)
        assert len(traj.times) == len(ref)  # 1000 steps: every one sampled
        assert_matches_states(traj, s1_liouvillian, rho0, ref)

    @pytest.mark.parametrize("scheme", [SchemeId.T0, SchemeId.S1])
    def test_asymmetric_start_matches_reference_rk4(self, scheme, eig_inputs):
        # |0,1,0><0,1,0| is not swap-invariant, so both sectors evolve
        me = build_master_equation(preset(scheme))
        lv = vectorize(me)
        assert len(lv.blocks()) == 2
        psi = np.zeros(me.dim)
        psi[me.space.index(("0", "1", 0))] = 1.0
        rho0 = np.outer(psi, psi).astype(complex)
        # RK4's own error at dt = 0.05 is 4e-8 on T0, so the reference takes
        # 2000 steps, every second one sampled
        traj = propagate(me, rho0, 50.0, 0.025)
        assert [len(m) for m in eig_inputs] == [len(m) for _, m in lv.blocks()]
        ref = rk4_states(complex_form(lv), rho0, 50.0, 0.025)[::2]
        assert len(traj.times) == len(ref)
        assert_matches_states(traj, lv, rho0, ref)

    def test_undriven_model_evolves(self):
        # 16 stationary states, so no single one for the evolution to keep
        me = build_master_equation(preset(SchemeId.S1).replace(Omega=0.0))
        rho0 = mixed_ground_state(me.space)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(vectorize(me))
        traj = propagate(me, rho0, 5.0, 0.025)
        ref = rk4_states(complex_form(vectorize(me)), rho0, 5.0, 0.025)
        assert_matches_states(traj, vectorize(me), rho0, ref)

    def test_large_dt_only_coarsens_the_grid(self, s1_master):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 10.0, 4.0)
        assert traj.dt == pytest.approx(10.0 / 3.0)
        assert traj.times == pytest.approx([0.0, 10.0 / 3.0, 20.0 / 3.0, 10.0])
        ref = propagate(s1_master, rho0, 10.0, 0.05)
        assert np.abs(traj.diagonal[-1] - ref.diagonal[-1]).max() < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "T0S0_mix", "WS"]),
        start=st.sampled_from(["mixed", "00", "T", "11", "S"]),
        method=st.sampled_from(["full", "effective", "dressed_effective"]),
        t_final=st.floats(1.0, 4000.0),
    )
    def test_populations_are_those_of_the_states(self, scheme, start, method, t_final):
        # R's diagonal coordinates against the states of the from_real readout,
        # read with the named ground vectors
        model = Mixture([(c.weight, GENERATORS[method](c.params))
                         for c in components(scheme)])
        if start == "mixed":
            rho0 = mixed_ground_state(model.space)
        else:
            v = ground_state_vectors(model.space)[start]
            rho0 = np.outer(v, v.conj())
        traj = propagate(model, rho0, t_final, t_final / 40)
        got = traj.populations()
        want = state_populations(evolve_spectral(model, rho0, traj.times), model.space)
        assert max(np.abs(got[k] - want[k]).max() for k in want) <= 1e-13
        if method != "full":
            assert np.all(got["P_excited_total"] == 0.0)

    def test_trace_drift_raises(self):
        # lowering R's rho_00 diagonal entry leaks trace; the undriven model
        # has no unique stationary state, so the decomposition imposes none
        me = build_master_equation(preset(SchemeId.S1).replace(Omega=0.0))
        r = vectorize(me).real_form().copy()
        r[0, 0] -= 1e-6
        rho0 = mixed_ground_state(me.space)
        with pytest.raises(NumericalInstabilityError, match="trace drifted"):
            propagate(LiouvillianMatrix(me.space, r), rho0, 100.0, 0.5)
        # the same model conserves the trace
        propagate(LiouvillianMatrix(me.space, vectorize(me).real_form()), rho0, 100.0, 0.5)

    def test_sample_grid(self, s1_master):
        # 80,000 steps of h = 0.05, every 80th one sampled
        traj = propagate(s1_master, mixed_ground_state(s1_master.space), 4000.0, 0.05)
        assert traj.dt == 0.05
        assert len(traj.times) == 1001
        assert traj.times[1] == 80 * 0.05 and traj.times[-1] == 4000.0

    def test_rejects_bad_arguments(self, s1_master):
        rho0 = mixed_ground_state(s1_master.space)
        with pytest.raises(ValueError):
            propagate(s1_master, rho0, 1.0, 0.0)
        with pytest.raises(ValueError):  # no evolution backwards in time
            propagate(s1_master, rho0, -1.0, 0.1)
        other = mixed_ground_state(build_space(1, None))
        with pytest.raises(DimensionMismatchError):
            propagate(s1_master, other, 1.0, 0.1)
        # NaN passes every comparison-based check; inf has no step count
        for t_final, dt in ((np.nan, 0.05), (np.inf, 0.05), (1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                sample_grid(t_final, dt)


class TestFidelity:
    def test_pure_state(self, s1_master):
        s = named_state(s1_master.space, "S")
        rho = np.outer(s, s.conj())
        assert fidelity(rho, s) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self, s1_master):
        d = s1_master.space.dim
        rho = np.eye(d) / d
        s = named_state(s1_master.space, "S")
        assert fidelity(rho, s) == pytest.approx(1 / d)

    def test_warns_on_imaginary_part(self, s1_master):
        space = s1_master.space
        psi = named_state(space, "S")
        mat = np.eye(space.dim, dtype=complex) / space.dim
        i, j = space.index(("0", "1", 0)), space.index(("1", "0", 0))
        mat[i, j] += 1e-4j  # not Hermitian: <psi|rho|psi> picks up Im part
        with pytest.warns(UserWarning, match="imaginary"):
            fidelity(mat, psi)

    def test_mixed_ground_state(self, s1_master):
        rho = mixed_ground_state(s1_master.space)
        assert np.trace(rho).real == pytest.approx(1.0)
        for name in ("00", "T", "11", "S"):
            assert fidelity(rho, named_state(s1_master.space, name)) == \
                pytest.approx(0.25)


class TestSpectralEvolution:
    def test_matches_rk4(self, s1_master, s1_liouvillian):
        rho0 = mixed_ground_state(s1_master.space)
        ref = rk4_states(complex_form(s1_liouvillian), rho0, 50.0, 0.05)
        states = evolve_spectral(s1_liouvillian, rho0, [25.0, 50.0])
        assert np.abs(states - ref[[500, 1000]]).max() < 1e-8

    def test_initial_slope_matches_apply_generator(self, s1_master, s1_liouvillian):
        x = np.random.default_rng(7).normal(size=(12, 24)).view(complex)
        rho = x @ x.conj().T
        rho0 = rho / np.trace(rho)
        h = 1e-4
        before, after = evolve_spectral(s1_liouvillian, rho0, [-h, h])
        slope = (after - before) / (2.0 * h)
        assert np.abs(slope - apply_generator(s1_master, rho0)).max() < 1e-6

    def test_defective_generator_raises(self, s1_master):
        # rho_ab decays at rate 1 + a + b, which preserves Hermiticity; a
        # 2x2 Jordan block feeding rho_00 from rho_11 at the same rate has a
        # single eigenvector, so V is singular.  R's coordinates start with
        # rho_00, rho_11, ..., then sqrt2 Re and sqrt2 Im of rho_ab, a < b.
        d = s1_master.dim
        a, b = np.triu_indices(d, 1)
        r = np.diag(-(1.0 + np.concatenate([2.0 * np.arange(d), a + b, a + b])))
        r[1, 1] = r[0, 0]
        r[0, 1] = 1.0
        lv = LiouvillianMatrix(s1_master.space, r)
        rho0 = mixed_ground_state(s1_master.space)
        with pytest.raises(NumericalInstabilityError, match=r"cond\(V\)"):
            evolve_spectral(lv, rho0, [1.0])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
    )
    def test_real_form_singular_values_are_those_of_v(
            self, scheme, log10_c, omega_over_gamma):
        # [V_real, sqrt2 Re V_+, sqrt2 Im V_+] is V times a unitary
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            lv = full_generator(preset(scheme, gamma=gamma, kappa=kappa,
                                       Omega=omega_over_gamma * gamma))
        for b in range(len(lv.blocks())):
            e = lv._eigenblock(b)
            ref = np.linalg.svd(e.vectors, compute_uv=False)
            assert len(e.singular) == len(ref)
            assert np.abs(np.sort(e.singular) - np.sort(ref)).max() <= 1e-12 * ref.max()
            cond = e.singular.max() / e.singular.min()
            assert cond == pytest.approx(ref.max() / ref.min(), rel=1e-12)

    def test_time_to_convergence(self, strong_drive_run):
        me, lv, traj, _, rho_ss = strong_drive_run
        rho0 = mixed_ground_state(me.space)
        t_conv = time_to_convergence(lv, rho0, rho_ss)
        states = evolve_spectral(lv, rho0, [0.99 * t_conv, 1.01 * t_conv])
        d_before = trace_distance(states[0], rho_ss)
        d_after = trace_distance(states[1], rho_ss)
        assert d_after <= 0.0101
        assert d_before >= 0.0099

    @pytest.mark.parametrize("scheme", [SchemeId.S1, SchemeId.S0, SchemeId.T1,
                                        SchemeId.T0, SchemeId.WS, SchemeId.MIX])
    def test_time_to_convergence_matches_per_sample_loop(self, scheme, monkeypatch):
        # the bisection over the grid must give the same crossing, bit for
        # bit, as a scan of one trace distance per grid sample (the table1
        # CSV depends on it), from at most 20 samples; a mixture's distance
        # is its own state's
        for C in (None, 10.0, 1000.0):  # None: Omega = 0.1 g, the reference cavity
            if C is None:
                comps = components(scheme, Omega=0.1)
            else:
                gamma, kappa = cavity_rates_for_cooperativity(C)
                comps = components(scheme, gamma=gamma, kappa=kappa)
            lv, ref_lv = (Mixture([(c.weight, vectorize(build_master_equation(c.params)))
                                   for c in comps]) for _ in range(2))
            rho0, rho_ss = mixed_ground_state(lv.space), lv.steady_state()

            def distances(times):
                return [trace_distance(s, rho_ss)
                        for s in evolve_spectral(ref_lv, rho0, times)]

            distances([0.0])  # as in time_to_convergence, the gap reuses eig values
            t_hi = 30.0 / ref_lv.gap()
            grid = np.geomspace(t_hi * 1e-4, t_hi, 160)
            i = next(i for i, d in enumerate(distances(grid)) if d <= 0.01)
            lo, hi = (0.0 if i == 0 else grid[i - 1]), grid[i]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if distances([mid])[0] <= 0.01 else (mid, hi)
                if hi - lo <= 1e-3 * hi:
                    break
            samples, eigvalsh = [], np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: samples.append(
                np.prod(np.shape(a)[:-2], dtype=int)) or eigvalsh(a))
            assert time_to_convergence(lv, rho0, rho_ss) == hi, C
            monkeypatch.undo()
            assert sum(samples) <= 20


def two_block_evolution(lv, rho0, times) -> np.ndarray:
    """exp(L t) rho0 through the dense T (V (x) V) of the real coordinates
    and an ``eig`` of every block R[W, W]: the reference for evolutions
    that decompose only the blocks the start has a share in."""
    t_map = real_coordinates_map(lv.space)
    y0 = t_map @ vec(rho0)
    y = 0.0
    for w, m in lv.blocks():
        values, v = np.linalg.eig(m)
        c = np.linalg.solve(v, y0[w])
        y = y + (np.exp(np.multiply.outer(times, values)) * c) @ v.T @ t_map[w].conj()
    return unvec(y, lv.dim)


class TestEvenSectorEvolution:
    @pytest.mark.parametrize("start", ["mixed", "00", "T", "11", "S"])
    @pytest.mark.parametrize("scheme", ["S1", "S0", "T1", "T0"])
    def test_symmetric_start_decomposes_the_even_block_alone(
            self, scheme, start, eig_inputs):
        lv = vectorize(build_master_equation(preset(scheme)))
        (_, even), (_, odd) = lv.blocks()
        if start == "mixed":
            rho0 = mixed_ground_state(lv.space)
        else:
            v = ground_state_vectors(lv.space)[start]
            rho0 = np.outer(v, v.conj())
        times = np.array([0.0, 1.0, 30.0, 300.0, 3000.0])
        states = evolve_spectral(lv, rho0, times)
        assert len(eig_inputs) == 1 and eig_inputs[0] is even
        assert not any(m is odd for m in eig_inputs)
        ref = two_block_evolution(lv, rho0, times)
        assert np.abs(states - ref).max() <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "T0S0_mix", "WS"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
        start=st.sampled_from(["mixed", "00", "T", "11", "S"]),
    )
    @example(scheme="WS", log10_c=3.0, omega_over_gamma=0.05, start="mixed")
    def test_contraction_trace_and_positivity_over_cli_domain(
            self, scheme, log10_c, omega_over_gamma, start):
        # exp(L t) is CPTP and fixes rho_ss: the trace distance to rho_ss
        # never grows, the trace stays 1 and no eigenvalue goes negative
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            comps = components(scheme, g=1.0, gamma=gamma, kappa=kappa,
                               Omega=omega_over_gamma * gamma)
        for comp in comps:  # a mixture's components, each on its own
            lv = vectorize(build_master_equation(comp.params))
            if start == "mixed":
                rho0 = mixed_ground_state(lv.space)
            else:
                v = ground_state_vectors(lv.space)[start]
                rho0 = np.outer(v, v.conj())
            rho_ss = steady_state(lv)
            t_hi = 30.0 / spectral_gap(lv).gap
            times = np.concatenate([[0.0], np.geomspace(t_hi * 1e-6, t_hi, 60)])
            states = evolve_spectral(lv, rho0, times)
            dist = [trace_distance(s, rho_ss) for s in states]
            assert np.diff(dist).max() <= 1e-12
            assert dist[-1] <= 1e-9  # exp(-30) of the start's distance
            assert np.abs(np.einsum("nii->n", states) - 1.0).max() <= TRACE_TOL
            herm = 0.5 * (states + states.conj().swapaxes(1, 2))
            assert np.linalg.eigvalsh(herm).min() >= -1e-9


def signed_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` that also tells 0.0 from -0.0."""
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in ((a.real, b.real), (a.imag, b.imag)))


class TestMixture:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        first=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        second=st.sampled_from(["S1", "S0", "T1", "T0", "WS"]),
        weight=st.floats(0.01, 0.99),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
        start=st.sampled_from(["mixed", "00", "T", "11", "S"]),
    )
    @example(first="T0", second="S0", weight=0.5, log10_c=3.0, omega_over_gamma=0.05,
             start="mixed")
    @example(first="WS", second="S1", weight=0.3, log10_c=3.0, omega_over_gamma=0.05,
             start="S")
    def test_weighted_sum_of_its_parts(self, first, second, weight, log10_c,
                                       omega_over_gamma, start):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings from preset
            parts = [(w, full_generator(preset(s, gamma=gamma, kappa=kappa,
                                               Omega=omega_over_gamma * gamma)))
                     for w, s in ((weight, first), (1.0 - weight, second))]
        model = Mixture(parts)
        if start == "mixed":
            rho0 = mixed_ground_state(model.space)
        else:
            v = ground_state_vectors(model.space)[start]
            rho0 = np.outer(v, v.conj())
        t_hi = 30.0 / model.gap()
        times = np.array([0.0, 1.0, 1e-2 * t_hi, t_hi])
        states = evolve_spectral(model, rho0, times)
        ref = parts[0][0] * evolve_spectral(parts[0][1], rho0, times)
        ref += parts[1][0] * evolve_spectral(parts[1][1], rho0, times)
        assert np.abs(states - ref).max() <= 1e-12
        rho_ss = model.steady_state()
        assert trace_distance(states[-1], rho_ss) <= CONVERGED_DISTANCE
        assert abs(np.trace(states[-1]) - 1.0) <= TRACE_TOL
        assert abs(np.trace(rho_ss) - 1.0) <= 1e-12
        # the spectrum is the parts' together, its sector gaps their minima
        report, reports = model.spectrum(), [spectral_gap(lv) for _, lv in parts]
        assert np.array_equal(np.sort_complex(report.eigenvalues), np.sort_complex(
            np.concatenate([r.eigenvalues for r in reports])))
        assert report.gap == min(r.gap for r in reports)
        assert report.sectors == tuple(map(min, zip(*(r.sectors for r in reports))))
        # one part of weight 1 is that part, bit for bit
        lv = parts[0][1]
        one = Mixture([(1.0, lv)])
        modes = spectral_modes(lv.blocks(), to_real(vec(rho0), lv.space), lv._eigenblock,
                               lambda v: from_real(v, lv.space))
        assert signed_equal(one.solution(rho0)(times), superpose(modes)(times))
        assert signed_equal(one.steady_state(), steady_state(lv))
