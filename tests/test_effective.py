import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsinglet import effective, liouville, schemes
from cavsinglet.effective import (
    GROUND_LABELS,
    effective_rates,
    elimination_blocks,
    reduce,
    reduce_dressed,
)
from cavsinglet.hilbert import build_space, named_state
from cavsinglet.liouville import _rotated
from cavsinglet.model import SystemParams
from cavsinglet.schemes import SchemeId, cavity_rates_for_cooperativity, preset
from oracles import (
    SingularPropagatorError,
    build_Hg,
    build_master_equation,
    build_V,
    closed_form_propagators,
    excited_indices,
    excited_position,
    ground_embedding,
    non_hermitian_hamiltonian,
    plain_reduction,
    propagator,
    symmetric_states,
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


class TestBlocks:
    def test_index_sets_and_drive_structure(self, s1_params):
        # V+ only raises from the ground sector, so its excited-from-ground
        # block is all of it
        space = build_space(1, 1)
        blocks = elimination_blocks(s1_params)
        e = excited_indices(space)
        g = [space.index(lb) for lb in (("0", "0", 0), ("0", "1", 0),
                                         ("1", "1", 0), ("1", "0", 0))]
        assert sorted([*g, *e]) == list(range(12)) and len(e) == 8
        vp = _rotated(build_V(s1_params, space)[0], space.labels)
        scale = np.abs(vp).max()
        assert np.abs(vp[np.ix_(g, g)]).max() == 0.0
        assert np.abs(vp[np.ix_(e, e)]).max() == 0.0
        assert np.abs(blocks.V_plus - vp[np.ix_(e, g)]).max() <= 1e-16 * scale

    def test_ground_basis_order(self):
        # the symmetric basis at the ground index set is (00, T, 11, S)
        assert effective.GroundBasis().labels == ("00", "T", "11", "S")
        space = build_space(1, 1)
        v, embed = symmetric_states(space), ground_embedding(space)
        for k, lb in enumerate((("0", "0", 0), ("0", "1", 0), ("1", "1", 0),
                                ("1", "0", 0))):
            assert np.abs(v[:, space.index(lb)] - embed[:, k]).max() < 1e-15

    def test_ground_block_matches_product_basis(self, s1_params):
        space = build_space(1, 1)
        embed = ground_embedding(space)
        ref = embed.conj().T @ build_Hg(s1_params, space) @ embed
        assert np.abs(elimination_blocks(s1_params).H_g - ref).max() \
            <= 1e-15 * np.abs(ref).max()


class TestNonHermitianHamiltonian:
    def test_decay_part_identity(self, s1_params):
        # H_NH = P_e (H_g + H_e - i/2 sum_k L_k^dag L_k) P_e, rotated
        space = build_space(1, 1)
        e = excited_indices(space)
        ref = _rotated(non_hermitian_hamiltonian(s1_params, space),
                       space.labels)[np.ix_(e, e)]
        hnh = elimination_blocks(s1_params).H_NH
        assert np.abs(hnh - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_dark_state_energy(self, s1_params):
        blocks = elimination_blocks(s1_params)
        k = excited_position("S1")
        want = s1_params.Delta + s1_params.beta - 0.5j * s1_params.gamma
        assert blocks.H_NH[k, k] == pytest.approx(want)

    def test_eigenvalues_decay(self, s1_params):
        assert np.linalg.eigvals(elimination_blocks(s1_params).H_NH).imag.max() < 0.0


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
        hnh = elimination_blocks(p).H_NH
        want = np.diag(1.0 / np.diag(hnh))
        assert np.abs(np.linalg.inv(hnh) - want).max() < 1e-9

    def test_block_entries_match_closed_forms(self, rng):
        worst = 0.0
        for _ in range(25):
            p = random_drive_free_params(rng)
            blocks = elimination_blocks(p)
            cd = closed_form_propagators(p)
            pairs = [
                ("T0", "T0", 1 / cd.Delta_eff[1]),
                ("S1", "S1", 1 / cd.Delta_eff[0]),
                ("T+1", "T0", 1 / cd.g_eff[1]),
                ("11+1", "T1", 1 / cd.g_eff[2]),
                ("00+1", "00+1", 1 / cd.delta_eff[0]),
            ]
            for bra, ket, want in pairs:
                got = propagator(blocks, bra, ket)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-10

    def test_blocks_are_orthogonal(self, rng):
        blocks = elimination_blocks(random_drive_free_params(rng))
        for bra, ket in (("S1", "T0"), ("00+1", "T1"), ("T+1", "S0"), ("S+1", "T0")):
            assert abs(propagator(blocks, bra, ket)) < 1e-12


class TestReduce:
    def test_no_drive_reduces_to_ground_hamiltonian(self, s1_params):
        params = s1_params.replace(Omega=0.0)
        model = reduce(params)
        embed = ground_embedding(build_space(1, 1))
        hg = embed.conj().T @ build_Hg(params, build_space(1, 1)) @ embed
        assert np.abs(model.H_eff - hg).max() < 1e-14
        for op in model.L_effs.values():
            assert np.abs(op).max() == 0.0

    def test_engineered_rates(self, s1_params):
        model = reduce(s1_params)
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
        model = reduce(s1_params)
        me = model.as_master_equation()
        rho = liouville.steady_state(liouville.vectorize(me))
        fid_eff = rho[3, 3].real
        fid_full = liouville.fidelity(s1_steady, named_state(s1_master.space, "S"))
        assert abs(fid_eff - fid_full) < 0.01

    def test_hermitian_h_eff(self, s1_params):
        model = reduce(s1_params)
        assert np.abs(model.H_eff - model.H_eff.conj().T).max() < 1e-12


class TestReduceDressed:
    def test_zero_energies_match_plain_reduction(self, s1_params):
        # reduce is the zero-energy dressed reduction; the reference is the
        # plain formula H_eff = -1/2 V- (H_NH^-1 + h.c.) V+ + H_g,
        # L_eff = L H_NH^-1 V+ with one unshifted propagator, on the
        # full-size product-basis operators
        plain = reduce(s1_params)
        h_ref, l_refs = plain_reduction(s1_params)
        assert plain.dressed is False and plain.ground_energies is None
        assert np.abs(plain.H_eff - h_ref).max() < 1e-13
        assert list(plain.L_effs) == list(l_refs)
        for name, l_ref in l_refs.items():
            assert np.abs(plain.L_effs[name] - l_ref).max() < 1e-13

    def test_ground_energies(self, s1_params):
        model = reduce_dressed(s1_params)
        a = s1_params.Omega_MW / math.sqrt(s1_params.Omega_MW ** 2 + s1_params.beta ** 2)
        b = s1_params.beta / math.sqrt(s1_params.Omega_MW ** 2 + s1_params.beta ** 2)
        split = b * s1_params.beta + a * s1_params.Omega_MW
        want = sorted([s1_params.beta - split, s1_params.beta, s1_params.beta,
                       s1_params.beta + split])
        assert np.allclose(sorted(model.ground_energies), want, atol=1e-12)

    def test_shifted_dark_propagators(self, s1_params):
        # <S1|(H_NH - E)^-1|S1> = (-i gamma/2 -+ sqrt(3/2) Omega_MW)^-1
        blocks = elimination_blocks(s1_params)
        hnh, k = blocks.H_NH, excited_position("S1")
        split = math.sqrt(1.5) * s1_params.Omega_MW
        for sign in (+1.0, -1.0):
            energy = s1_params.beta + sign * split
            got = np.linalg.inv(hnh - energy * np.eye(len(hnh)))[k, k]
            want = 1.0 / (-0.5j * s1_params.gamma - sign * split)
            assert abs(got - want) / abs(want) < 1e-3

    def test_state_resolved_pump_rates(self):
        # T+- rates are reduced by gamma^2/(gamma^2 + 6 Omega_MW^2)
        # relative to Tr; quoted in the text as gamma^2/(gamma^2+Omega_MW^2),
        # which contradicts the propagators one line above
        params = preset(SchemeId.S1, Omega=0.375 / 2)
        model = reduce_dressed(params)
        evals, evecs = np.linalg.eigh(elimination_blocks(params).H_g)
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


def full_and_effective(scheme, log10_c, omega_over_gamma):
    """The full and the plain effective generator of ``scheme`` at C =
    10^log10_c and Omega = omega_over_gamma gamma."""
    gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regime warnings from preset
        params = preset(scheme, gamma=gamma, kappa=kappa, Omega=omega_over_gamma * gamma)
    return (liouville.full_generator(params),
            liouville.vectorize(reduce(params).as_master_equation()))


class TestEffectiveAgainstFull:
    """The plain reduction sets every ground energy to zero in its
    propagators.  The presets scale those energies (Omega_MW, beta) with the
    drive, so against the excited linewidth the reduction misses the full
    model at first order in Omega/gamma.  Measured over C in [10, 1000]:
    the sector gaps to 0.285 Omega/gamma relative and the fidelity to 0.051
    Omega/gamma, both worst at C = 10 and still linear at Omega = gamma/500.
    WS's far detuning Delta >= 20 g leaves (Omega/gamma)^2: 1.42 of it in
    the fidelity.  Its +-b shift couples S to T, so it has no sectors."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T0", "T1"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.005, 0.1),
    )
    def test_sector_gaps_and_fidelity(self, scheme, log10_c, omega_over_gamma):
        full, eff = full_and_effective(scheme, log10_c, omega_over_gamma)
        sectors_full = liouville.spectral_gap(full).sectors
        sectors_eff = liouville.spectral_gap(eff).sectors
        assert len(sectors_full) == len(sectors_eff) == 2
        for f, e in zip(sectors_full, sectors_eff):
            assert abs(e - f) <= 0.35 * omega_over_gamma * f
        fid_eff = liouville.steady_state(eff)[3, 3].real
        assert abs(schemes.steady_fidelity(full) - fid_eff) <= 0.07 * omega_over_gamma

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(log10_c=st.floats(1.0, 3.0), omega_over_gamma=st.floats(0.02, 0.1))
    def test_ws_fidelity(self, log10_c, omega_over_gamma):
        full, eff = full_and_effective("WS", log10_c, omega_over_gamma)
        fid_eff = liouville.steady_state(eff)[3, 3].real
        assert abs(schemes.steady_fidelity(full) - fid_eff) \
            <= 2.0 * omega_over_gamma ** 2


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
        numeric = reduce_dressed(params)
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
        model = reduce(s1_params)
        text = model.to_json(rates={"gamma_eff": 1.0})
        assert '"L_effs"' in text and '"rates"' in text
