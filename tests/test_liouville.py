import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavsinglet import effective
from cavsinglet.errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericalInstabilityError,
)
from cavsinglet.hilbert import OperatorMatrix, build_space, named_state
from cavsinglet.liouville import (
    DensityMatrix,
    LiouvillianMatrix,
    apply_generator,
    evolve_spectral,
    fidelity,
    mixed_ground_state,
    propagate,
    spectral_gap,
    steady_state,
    time_to_convergence,
    trajectory_csv_rows,
    unvec,
    vec,
    vectorize,
)
from cavsinglet.model import MasterEquation, SystemParams, build_master_equation
from cavsinglet.schemes import SchemeId, cavity_rates_for_cooperativity, preset


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Independent oracle for the distances that time_to_convergence uses."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def rk4_states(mat, rho0, t_final, dt):
    """Fixed-step 4th-order Runge-Kutta states at every step: an independent
    reference for the exact evolution."""
    n_steps = round(t_final / dt)
    h = t_final / n_steps
    v = vec(rho0.mat)
    out = [v]
    for _ in range(n_steps):
        k1 = mat @ v
        k2 = mat @ (v + 0.5 * h * k1)
        k3 = mat @ (v + 0.5 * h * k2)
        k4 = mat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(v)
    return unvec(np.array(out), rho0.mat.shape[0])


def random_master_equation(space, rng, n_lindblads=3):
    d = space.dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = OperatorMatrix(space, 0.5 * (x + x.conj().T))
    ls = {}
    for k in range(n_lindblads):
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ls[f"l{k}"] = OperatorMatrix(space, 0.3 * y)
    return MasterEquation(H=h, lindblads=ls)


class TestVectorize:
    def test_action_matches_direct_evaluation(self, rng):
        space = build_space(1, 1)
        me = random_master_equation(space, rng)
        lv = vectorize(me)
        for _ in range(4):
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            direct = apply_generator(me, rho)
            via_matrix = unvec(lv.mat @ vec(rho), 12)
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
            pm = effective.partition(params)
            models = [
                build_master_equation(params, build_space(1, 1)),
                build_master_equation(params.replace(n_max=2), build_space(2, 2)),
                effective.reduce(pm).as_master_equation(),
                effective.reduce_dressed(pm).as_master_equation(),
            ]
        rng = np.random.default_rng(11)
        for me in models:
            lv = vectorize(me)
            d = me.dim
            # WS entries reach ~100, so the tolerance scales with ||L||
            tol = 1e-12 * np.linalg.norm(lv.mat, 1)
            for _ in range(2):
                x = rng.normal(size=(d, 2 * d)).view(complex)
                rho = x @ x.conj().T
                rho /= np.trace(rho)
                direct = apply_generator(me, rho)
                assert np.abs(unvec(lv.mat @ vec(rho), d) - direct).max() <= tol
            assert np.abs(vec(np.eye(d)).conj() @ lv.mat).max() <= tol

    def test_trace_left_null_vector(self, s1_liouvillian):
        d = s1_liouvillian.dim
        tr = vec(np.eye(d)).conj()
        residual = np.abs(tr @ s1_liouvillian.mat).max()
        assert residual < 1e-10

    def test_zero_generator(self):
        space = build_space(1, 1)
        me = MasterEquation(
            H=OperatorMatrix(space, np.zeros((12, 12))), lindblads={}
        )
        with pytest.raises(DegenerateSteadyStateError) as err:
            spectral_gap(vectorize(me))
        assert err.value.steady_dim == 144


class TestSteadyState:
    def test_pure_decay_is_degenerate(self):
        # without drives every ground-sector operator is stationary:
        # 4 populations plus 12 coherences
        params = SystemParams(Omega=0.0, Omega_MW=0.0, Delta=0.0, delta=0.0)
        lv = vectorize(build_master_equation(params))
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(lv)
        assert err.value.steady_dim == 16

    def test_s1_fidelity_reference_value(self, s1_steady, s1_master):
        fid = fidelity(s1_steady, named_state(s1_master.space, "S"))
        assert fid == pytest.approx(0.925, abs=0.01)

    def test_residual_and_structure(self, s1_steady, s1_liouvillian):
        residual = np.linalg.norm(s1_liouvillian.mat @ vec(s1_steady.mat))
        assert residual < 1e-9
        s1_steady.validate()  # hermitian, unit trace, positive

    def test_long_time_propagation_converges(self, strong_drive_run):
        me, lv, traj, rho_ss = strong_drive_run
        assert trace_distance(traj.final().mat, rho_ss.mat) < 1e-6

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
        rho = steady_state(lv).validate()
        norm_l = np.linalg.norm(lv.mat, 1)
        x = vec(rho.mat)
        assert np.linalg.norm(lv.mat @ x) <= 1e-10 * norm_l * np.linalg.norm(x)
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
        me, lv, traj, rho_ss = strong_drive_run
        gap = spectral_gap(lv).gap
        dist = np.array([
            np.linalg.norm(traj.states[i] - rho_ss.mat)
            for i in range(len(traj.times))
        ])
        sel = (traj.times > 700) & (dist > 1e-10)
        slope = np.polyfit(traj.times[sel], np.log(dist[sel]), 1)[0]
        assert abs(-slope - gap) / gap < 0.2

    def test_gap_reuses_an_existing_eigensystem(self, monkeypatch):
        lv = vectorize(build_master_equation(preset(SchemeId.S1)))
        values = lv.eigensystem().values
        monkeypatch.setattr(scipy.linalg, "eigvals", None)  # must not be called
        assert np.array_equal(lv.eigenvalues(), values)
        assert spectral_gap(lv).gap == sorted(abs(values.real))[1]


@pytest.fixture(scope="module")
def strong_drive_run():
    params = preset(SchemeId.S1, Omega=0.375 / 2)
    me = build_master_equation(params)
    lv = vectorize(me)
    rho_ss = steady_state(lv)
    traj = propagate(me, mixed_ground_state(me.space), 2400.0, 0.05)
    return me, lv, traj, rho_ss


class TestPropagate:
    def test_zero_time_returns_initial(self, s1_master):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 0.0, 0.1)
        assert len(traj.times) == 1
        assert np.array_equal(traj.states[0], rho0.mat)

    def test_trace_and_positivity_along_trajectory(self, strong_drive_run):
        _, _, traj, _ = strong_drive_run
        traces = np.einsum("nii->n", traj.states).real
        assert np.abs(traces - 1).max() < 1e-8
        for state in traj.states[:: max(1, len(traj.states) // 25)]:
            assert np.linalg.eigvalsh(0.5 * (state + state.conj().T)).min() > -1e-6

    def test_singlet_population_grows_toward_steady(self, strong_drive_run):
        me, _, traj, rho_ss = strong_drive_run
        p_s = traj.populations()["P_S"]
        # envelope growth from the mixed start toward the stationary value
        assert p_s[0] == pytest.approx(0.25, abs=1e-10)
        coarse = p_s[:: len(p_s) // 12]
        assert np.all(np.diff(coarse) > -0.01)
        assert abs(p_s[-1] - fidelity(rho_ss, named_state(me.space, "S"))) < 1e-4

    def test_matches_reference_rk4(self, s1_master, s1_liouvillian):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 50.0, 0.05)
        ref = rk4_states(s1_liouvillian.mat, rho0, 50.0, 0.05)
        assert traj.states.shape == ref.shape  # 1000 steps: every one sampled
        assert np.abs(traj.states - ref).max() < 1e-8

    def test_large_dt_only_coarsens_the_grid(self, s1_master):
        rho0 = mixed_ground_state(s1_master.space)
        traj = propagate(s1_master, rho0, 10.0, 4.0)
        assert traj.dt == pytest.approx(10.0 / 3.0)
        assert traj.times == pytest.approx([0.0, 10.0 / 3.0, 20.0 / 3.0, 10.0])
        ref = propagate(s1_master, rho0, 10.0, 0.05)
        assert np.abs(traj.states[-1] - ref.states[-1]).max() < 1e-10

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
        other = mixed_ground_state(build_space(1, None))
        with pytest.raises(DimensionMismatchError):
            propagate(s1_master, other, 1.0, 0.1)

    def test_csv_rows(self, s1_master):
        traj = propagate(s1_master, mixed_ground_state(s1_master.space), 5.0, 0.05)
        header, rows = trajectory_csv_rows(traj)
        assert header == ["t", "P_00", "P_T", "P_11", "P_S",
                          "P_excited_total", "fidelity"]
        assert rows[0][1:5] == pytest.approx([0.25, 0.25, 0.25, 0.25])
        assert all(len(r) == 7 for r in rows)


class TestFidelity:
    def test_pure_state(self, s1_master):
        s = named_state(s1_master.space, "S")
        assert fidelity(DensityMatrix.pure(s), s) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self, s1_master):
        d = s1_master.space.dim
        rho = DensityMatrix(s1_master.space, np.eye(d) / d)
        s = named_state(s1_master.space, "S")
        assert fidelity(rho, s) == pytest.approx(1 / d)

    def test_warns_on_imaginary_part(self, s1_master):
        space = s1_master.space
        psi = named_state(space, "S")
        mat = np.eye(space.dim, dtype=complex) / space.dim
        i, j = space.index(("0", "1", 0)), space.index(("1", "0", 0))
        mat[i, j] += 1e-4j  # not Hermitian: <psi|rho|psi> picks up Im part
        rho = DensityMatrix(space, mat)
        with pytest.warns(UserWarning, match="imaginary"):
            fidelity(rho, psi)

    def test_mixed_ground_state(self, s1_master):
        rho = mixed_ground_state(s1_master.space)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        for name in ("00", "T", "11", "S"):
            assert fidelity(rho, named_state(s1_master.space, name)) == \
                pytest.approx(0.25)


class TestSpectralEvolution:
    def test_matches_rk4(self, s1_master, s1_liouvillian):
        rho0 = mixed_ground_state(s1_master.space)
        ref = rk4_states(s1_liouvillian.mat, rho0, 50.0, 0.05)
        states = evolve_spectral(s1_liouvillian, rho0, [25.0, 50.0])
        assert np.abs(states - ref[[500, 1000]]).max() < 1e-8

    def test_initial_slope_matches_apply_generator(self, s1_master, s1_liouvillian):
        x = np.random.default_rng(7).normal(size=(12, 24)).view(complex)
        rho = x @ x.conj().T
        rho0 = DensityMatrix(s1_master.space, rho / np.trace(rho))
        h = 1e-4
        before, after = evolve_spectral(s1_liouvillian, rho0, [-h, h])
        slope = (after - before) / (2.0 * h)
        assert np.abs(slope - apply_generator(s1_master, rho0.mat)).max() < 1e-6

    def test_defective_generator_raises(self, s1_master):
        # a 2x2 Jordan block has a single eigenvector, so V is singular
        mat = np.diag(-np.arange(1.0, 145.0)).astype(complex)
        mat[1, 1] = mat[0, 0]
        mat[0, 1] = 1.0
        lv = LiouvillianMatrix(space=s1_master.space, mat=mat)
        rho0 = mixed_ground_state(s1_master.space)
        with pytest.raises(NumericalInstabilityError, match=r"cond\(V\)"):
            evolve_spectral(lv, rho0, [1.0])

    def test_time_to_convergence(self, strong_drive_run):
        me, lv, traj, rho_ss = strong_drive_run
        rho0 = mixed_ground_state(me.space)
        t_conv = time_to_convergence(lv, rho0, rho_ss)
        states = evolve_spectral(lv, rho0, [0.99 * t_conv, 1.01 * t_conv])
        d_before = trace_distance(states[0], rho_ss.mat)
        d_after = trace_distance(states[1], rho_ss.mat)
        assert d_after <= 0.0101
        assert d_before >= 0.0099

    @pytest.mark.parametrize("scheme", [SchemeId.S1, SchemeId.T0, SchemeId.WS])
    def test_time_to_convergence_matches_per_sample_loop(self, scheme):
        # the stacked eigvalsh must give the same crossing, bit for bit, as
        # one trace distance per sample (the table1 CSV depends on it)
        me = build_master_equation(preset(scheme, Omega=0.1))
        lv, ref_lv = vectorize(me), vectorize(me)
        rho0, rho_ss = mixed_ground_state(me.space), steady_state(lv)
        solution = ref_lv.eigensystem().solution(vec(rho0.mat))

        def distances(times):
            return [trace_distance(s, rho_ss.mat)
                    for s in unvec(solution(times), ref_lv.dim)]

        t_hi = 30.0 / spectral_gap(ref_lv).gap
        grid = np.geomspace(t_hi * 1e-4, t_hi, 160)
        i = next(i for i, d in enumerate(distances(grid)) if d <= 0.01)
        lo, hi = (0.0 if i == 0 else grid[i - 1]), grid[i]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if distances([mid])[0] <= 0.01 else (mid, hi)
            if hi - lo <= 1e-3 * hi:
                break
        assert time_to_convergence(lv, rho0, rho_ss) == hi
