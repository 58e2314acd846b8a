import math

import numpy as np
import pytest

from cavsinglet import effective, liouville
from cavsinglet.effective import (
    GROUND_LABELS,
    build_hnh,
    effective_rates,
    ground_hamiltonian_block,
    invert_hnh,
    partition,
    reduce,
    reduce_dressed,
)
from cavsinglet.hilbert import named_state
from cavsinglet.model import SystemParams, build_master_equation
from cavsinglet.schemes import SchemeId, preset
from oracles import (
    SingularPropagatorError,
    closed_form_propagators,
    ground_projector,
    validate_partition,
)

SQ2 = math.sqrt(2.0)


def ground_unit(name):
    v = np.zeros(4, dtype=complex)
    v[GROUND_LABELS.index(name)] = 1.0
    return v


def random_drive_free_params(rng):
    """Valid parameters without microwave mixing, where the excited-state
    blocks are exactly the closed-form ones."""
    return SystemParams(
        g=1.0,
        gamma=10 ** rng.uniform(-2, 0),
        kappa=10 ** rng.uniform(-2, 0),
        Delta=rng.uniform(-3, 3),
        delta=rng.uniform(-3, 3),
        beta=rng.uniform(-0.5, 0.5),
        Omega=rng.uniform(0.001, 0.2),
        Omega_MW=0.0,
        phi=math.pi,
    )


class TestPartition:
    def test_projectors_and_drive_structure(self, s1_params):
        pm = validate_partition(partition(s1_params))
        pg = ground_projector(pm.ground)
        pe = np.zeros((12, 12))
        pe[pm.excited_idx, pm.excited_idx] = 1.0
        assert np.abs(pg + pe - np.eye(12)).max() < 1e-14
        assert np.abs(pg @ pe).max() < 1e-14
        assert len(pm.excited_idx) == 8

    def test_ground_basis_order(self, s1_params):
        pm = partition(s1_params)
        assert pm.ground.labels == ("00", "T", "11", "S")
        overlap = pm.ground.embed.conj().T @ named_state(pm.space, "S")
        assert np.allclose(overlap, [0, 0, 0, 1])


class TestNonHermitianHamiltonian:
    def test_decay_part_identity(self, s1_params):
        pm = partition(s1_params)
        hnh = build_hnh(pm)
        decay = sum(op.conj().T @ op for op in pm.lindblads.values())
        idx = pm.excited_idx
        block = (pm.H0 - 0.5j * decay)[np.ix_(idx, idx)]
        assert np.abs(hnh[np.ix_(idx, idx)] - block).max() == 0.0

    def test_dark_state_energy(self, s1_params):
        pm = partition(s1_params)
        hnh = build_hnh(pm)
        s1 = named_state(pm.space, "S1")
        want = s1_params.Delta + s1_params.beta - 0.5j * s1_params.gamma
        assert s1.conj() @ (hnh @ s1) == pytest.approx(want)

    def test_eigenvalues_decay(self, s1_params):
        pm = partition(s1_params)
        idx = pm.excited_idx
        block = build_hnh(pm)[np.ix_(idx, idx)]
        assert np.linalg.eigvals(block).imag.max() < 0.0


class TestClosedFormPropagators:
    def test_vanishing_coupling_limit(self):
        p = SystemParams(g=1e-8, gamma=0.3, kappa=0.2, Delta=1.0, delta=0.7,
                         beta=0.2)
        cd = closed_form_propagators(p)
        for n in (1, 2):
            prev = cd.Delta_t[1] if n == 2 else cd.Delta_t[0]
            assert cd.Delta_eff[n] == pytest.approx(prev, rel=1e-12)
            assert cd.delta_eff[n] == pytest.approx(cd.delta_t[n], rel=1e-12)

    def test_negligible_detuning_limit(self):
        p = SystemParams(gamma=1e-9, kappa=1e-9, Delta=0.0, delta=0.0, beta=0.0)
        cd = closed_form_propagators(p)
        assert cd.g_eff[1] == pytest.approx(1.0, rel=1e-12)
        assert cd.g_eff[2] == pytest.approx(SQ2, rel=1e-12)

    def test_dark_state_propagator_at_preset(self, s1_params):
        cd = closed_form_propagators(s1_params)
        strong = 1.0 / cd.Delta_eff[0]
        assert abs(strong - 2j / s1_params.gamma) < 0.08 * abs(strong)
        assert 1.0 / cd.g_eff[2] == pytest.approx(1 / (SQ2 * s1_params.g), rel=0.01)

    def test_convention_delta_minus_one(self):
        p = SystemParams(Delta=0.5, beta=0.2)
        cd = closed_form_propagators(p)
        # dark-state block uses Delta_{-1} = Delta_1
        assert cd.Delta_eff[0] == cd.Delta_t[1]

    def test_singular_denominator_raises(self):
        p = SystemParams(g=1.0, gamma=1e-13, kappa=1e-13, Delta=2.0, delta=0.5,
                         beta=0.0)
        with pytest.raises(SingularPropagatorError) as err:
            closed_form_propagators(p)
        assert err.value.block == 1


class TestInverse:
    def test_diagonal_inverse(self):
        # with a negligible coupling the excited block is diagonal
        p = SystemParams(g=1e-10, gamma=0.3, kappa=0.2, Delta=1.0, delta=0.5,
                         Omega=0.1)
        pm = partition(p)
        hnh = build_hnh(pm)
        inv = invert_hnh(hnh, pm.excited_idx)
        idx = pm.excited_idx
        want = np.diag(1.0 / np.diag(hnh[np.ix_(idx, idx)]))
        assert np.abs(inv[np.ix_(idx, idx)] - want).max() < 1e-9

    def test_block_entries_match_closed_forms(self, rng):
        worst = 0.0
        for _ in range(25):
            p = random_drive_free_params(rng)
            pm = partition(p)
            inv = invert_hnh(build_hnh(pm), pm.excited_idx)
            cd = closed_form_propagators(p)
            sp = pm.space
            pairs = [
                (named_state(sp, "T0"), named_state(sp, "T0"), 1 / cd.Delta_eff[1]),
                (named_state(sp, "S1"), named_state(sp, "S1"), 1 / cd.Delta_eff[0]),
                (named_state(sp, "T", 1), named_state(sp, "T0"), 1 / cd.g_eff[1]),
                (named_state(sp, "11", 1), named_state(sp, "T1"), 1 / cd.g_eff[2]),
                (named_state(sp, "00", 1), named_state(sp, "00", 1),
                 1 / cd.delta_eff[0]),
            ]
            for bra, ket, want in pairs:
                got = bra.conj() @ (inv @ ket)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-10

    def test_blocks_are_orthogonal(self, rng):
        p = random_drive_free_params(rng)
        pm = partition(p)
        inv = invert_hnh(build_hnh(pm), pm.excited_idx)
        sp = pm.space
        cross = [
            (named_state(sp, "S1"), named_state(sp, "T0")),
            (named_state(sp, "00", 1), named_state(sp, "T1")),
            (named_state(sp, "T", 1), named_state(sp, "S0")),
            (named_state(sp, "S", 1), named_state(sp, "T0")),
        ]
        for bra, ket in cross:
            assert abs(bra.conj() @ (inv @ ket)) < 1e-12


class TestReduce:
    def test_no_drive_reduces_to_ground_hamiltonian(self, s1_params):
        pm = partition(s1_params.replace(Omega=0.0))
        model = reduce(pm)
        assert np.abs(model.H_eff - ground_hamiltonian_block(pm)).max() < 1e-14
        for op in model.L_effs.values():
            assert np.abs(op).max() == 0.0

    def test_engineered_rates(self, s1_params):
        model = reduce(partition(s1_params))
        r = effective_rates(s1_params)
        s, t, e11 = ground_unit("S"), ground_unit("T"), ground_unit("11")
        gamma_eff = sum(
            abs(s.conj() @ model.L_effs[f"gamma0_{j}"] @ t) ** 2 for j in (1, 2)
        ) / 2
        kappa_eff = abs(e11.conj() @ model.L_effs["kappa"] @ s) ** 2
        assert gamma_eff == pytest.approx(r["gamma_eff"], rel=0.05)
        assert kappa_eff == pytest.approx(r["kappa_eff"], rel=0.05)

    def test_suppression_hierarchy(self, s1_params):
        cd = closed_form_propagators(s1_params)
        strong = abs(1 / cd.Delta_eff[0])
        weak = max(abs(1 / cd.g_eff[1]), abs(1 / cd.g_eff[2]))
        assert strong / weak > math.sqrt(s1_params.cooperativity())

    def test_effective_steady_state_matches_full(self, s1_params, s1_steady,
                                                 s1_master):
        model = reduce(partition(s1_params))
        me = model.as_master_equation()
        rho = liouville.steady_state(liouville.vectorize(me))
        fid_eff = rho[3, 3].real
        fid_full = liouville.fidelity(s1_steady, named_state(s1_master.space, "S"))
        assert abs(fid_eff - fid_full) < 0.01

    def test_hermitian_h_eff(self, s1_params):
        model = reduce(partition(s1_params))
        assert np.abs(model.H_eff - model.H_eff.conj().T).max() < 1e-12


class TestReduceDressed:
    def test_zero_energies_match_plain_reduction(self, s1_params):
        # reduce is the zero-energy dressed reduction; the reference is the
        # plain formula H_eff = -1/2 V- (H_NH^-1 + h.c.) V+ + H_g,
        # L_eff = L H_NH^-1 V+ with one unshifted propagator
        pm = partition(s1_params)
        plain = reduce(pm)
        inv = invert_hnh(build_hnh(pm), pm.excited_idx)
        vp, vm = pm.V_plus, pm.V_minus
        h_ref = pm.ground.restrict(-0.5 * vm @ (inv + inv.conj().T) @ vp) \
            + ground_hamiltonian_block(pm)
        assert plain.dressed is False and plain.ground_energies is None
        assert np.abs(plain.H_eff - h_ref).max() < 1e-13
        for name, op in pm.lindblads.items():
            l_ref = pm.ground.restrict(op @ inv @ vp)
            assert np.abs(plain.L_effs[name] - l_ref).max() < 1e-13

    def test_ground_energies(self, s1_params):
        pm = partition(s1_params)
        model = reduce_dressed(pm)
        a = s1_params.Omega_MW / math.sqrt(s1_params.Omega_MW ** 2 + s1_params.beta ** 2)
        b = s1_params.beta / math.sqrt(s1_params.Omega_MW ** 2 + s1_params.beta ** 2)
        split = b * s1_params.beta + a * s1_params.Omega_MW
        want = sorted([s1_params.beta - split, s1_params.beta, s1_params.beta,
                       s1_params.beta + split])
        assert np.allclose(sorted(model.ground_energies), want, atol=1e-12)

    def test_shifted_dark_propagators(self, s1_params):
        # <S1|(H_NH - E)^-1|S1> = (-i gamma/2 -+ sqrt(3/2) Omega_MW)^-1
        pm = partition(s1_params)
        idx = pm.excited_idx
        hnh = build_hnh(pm)[np.ix_(idx, idx)]
        s1 = named_state(pm.space, "S1")[idx]
        split = math.sqrt(1.5) * s1_params.Omega_MW
        for sign in (+1.0, -1.0):
            energy = s1_params.beta + sign * split
            inv = np.linalg.inv(hnh - energy * np.eye(len(idx)))
            got = s1.conj() @ inv @ s1
            want = 1.0 / (-0.5j * s1_params.gamma - sign * split)
            assert abs(got - want) / abs(want) < 1e-3

    def test_state_resolved_pump_rates(self):
        # T+- rates are reduced by gamma^2/(gamma^2 + 6 Omega_MW^2)
        # relative to Tr; quoted in the text as gamma^2/(gamma^2+Omega_MW^2),
        # which contradicts the propagators one line above
        params = preset(SchemeId.S1, Omega=0.375 / 2)
        pm = partition(params)
        model = reduce_dressed(pm)
        hg = ground_hamiltonian_block(pm)
        evals, evecs = np.linalg.eigh(hg)
        s = ground_unit("S")
        t = ground_unit("T")
        rates, t_weights, shifts = [], [], []
        for i in range(4):
            vecg = evecs[:, i]
            if abs(vecg @ s) > 0.99:
                continue  # the singlet eigenvector
            amp = sum(
                abs(s.conj() @ model.L_effs[f"gamma0_{j}"] @ vecg) ** 2
                for j in (1, 2)
            )
            rates.append(amp)
            t_weights.append(abs(vecg @ t) ** 2)
            shifts.append(evals[i] - params.beta)
        r = effective_rates(params)
        for rate, w, shift in zip(rates, t_weights, shifts):
            reduction = (params.gamma / 2) ** 2 / ((params.gamma / 2) ** 2 + shift ** 2)
            want = 2 * r["gamma_eff"] * w * reduction
            assert rate == pytest.approx(want, rel=0.08)


class TestDressedShufflingOperators:
    def test_weak_limit(self, s1_params):
        params = s1_params.replace(Omega_MW=0.0, beta=0.0)
        dressed = effective.simplified_dark_state_operators(params, dressed=True)
        weak = effective.simplified_dark_state_operators(params, dressed=False)
        for name in ("gamma0_1", "gamma0_2", "gamma1_1", "gamma1_2"):
            assert np.abs(dressed.L_effs[name] - weak.L_effs[name]).max() < 1e-15
        # the cavity line keeps its singlet-feed term even at zero microwave
        s, g00 = ground_unit("S"), ground_unit("00")
        r = effective_rates(params)
        feed = s.conj() @ dressed.L_effs["kappa"] @ g00
        assert feed == pytest.approx(-2 * math.sqrt(r["kappa_eff"]))

    def test_activated_channel_stays_weak(self):
        for frac in (0.1, 0.3, 0.5):
            params = preset(SchemeId.S1, Omega=frac * 0.375)
            r = effective_rates(params)
            assert r["gamma_a"] < 0.1 * r["gamma_d"]

    def test_chi_matches_numeric_reduction(self):
        params = preset(SchemeId.S1, Omega=0.375 / 2)
        numeric = reduce_dressed(partition(params))
        r = effective_rates(params)
        s, g00 = ground_unit("S"), ground_unit("00")
        got = s.conj() @ numeric.L_effs["gamma0_1"] @ g00
        assert abs(got - (-r["chi_a"])) < 0.05 * abs(r["chi_a"])

    def test_trajectory_against_full_model(self):
        # Fig-5c-style check; the printed closed forms track the full
        # dynamics to 0.04 here, while the propagator-shifted numeric
        # reduction reaches 0.03 (asserted in the acceptance suite)
        params = preset(SchemeId.S1, Omega=0.375 / 2)
        me_full = build_master_equation(params)
        traj_full = liouville.propagate(
            me_full, liouville.mixed_ground_state(me_full.space), 1500.0, 0.1
        )
        me_shuf = effective.simplified_dark_state_operators(
            params, dressed=True).as_master_equation()
        traj_shuf = liouville.propagate(
            me_shuf, liouville.mixed_ground_state(me_shuf.space), 1500.0, 0.1
        )
        p_full = traj_full.populations()["P_S"]
        p_shuf = traj_shuf.populations()["P_S"]
        assert np.abs(p_full - p_shuf).max() < 0.04


class TestEffectiveRates:
    def test_closed_forms(self):
        p = SystemParams(g=2.0, gamma=0.5, kappa=0.3, Omega=0.04, Omega_MW=0.02)
        r = effective_rates(p)
        assert r["gamma_eff"] == pytest.approx(0.04 ** 2 / (8 * 0.5))
        assert r["kappa_eff"] == pytest.approx(0.3 * 0.04 ** 2 / (8 * 4.0))
        eta = (0.25 + 2 * 0.0004) / (0.25 + 6 * 0.0004)
        assert r["eta"] == pytest.approx(eta)
        assert r["gamma_d"] == pytest.approx(r["gamma_eff"] * eta)
        assert r["gamma_a"] == pytest.approx(abs(r["chi_a"]) ** 2)

    def test_json_dump(self, s1_params):
        model = reduce(partition(s1_params))
        text = model.to_json(rates={"gamma_eff": 1.0})
        assert '"L_effs"' in text and '"rates"' in text
