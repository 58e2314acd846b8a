import itertools
import math

import numpy as np
import pytest

from cavsinglet.hilbert import build_space, named_state
from cavsinglet.model import SystemParams, make_space
from cavsinglet.schemes import SchemeId, preset
from oracles import (
    apply_generator,
    basis_vector,
    build_He,
    build_Hg,
    build_V,
    build_hamiltonian,
    build_lindblads,
    build_master_equation,
)

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def space():
    return build_space(1, 1)


def kept(full, space):
    """The block of a full-product-space matrix on the labels with at most
    ``space.max_excitations`` excitations, indexed by its own enumeration of
    the atom1-major product ordering."""
    labels = itertools.product("01e", "01e", range(space.n_max + 1))
    keep = [k for k, (a1, a2, n) in enumerate(labels)
            if space.max_excitations is None
            or (a1 == "e") + (a2 == "e") + n <= space.max_excitations]
    return full[np.ix_(keep, keep)]


def brute_force_Hg(params, space):
    """Independent construction of the ground Hamiltonian by explicit kron."""
    flip = np.zeros((3, 3), dtype=complex)
    flip[1, 0] = 1.0
    p1 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    eye3, eye2 = np.eye(3), np.eye(params.n_max + 1)
    mw = 0.5 * params.Omega_MW * (flip + flip.T)
    full = (
        np.kron(mw + (params.beta + params.b) * p1, np.kron(eye3, eye2))
        + np.kron(eye3, np.kron(mw + (params.beta - params.b) * p1, eye2))
    )
    return kept(full, space)


def brute_force_master_equation(params, space):
    """Independent construction of H and the jump operators from np.kron on
    the full product space, restricted to ``space``."""
    eye3, eyef = np.eye(3), np.eye(params.n_max + 1)

    def unit(upper, lower):
        op = np.zeros((3, 3), dtype=complex)
        op["01e".index(upper), "01e".index(lower)] = 1.0
        return op

    def atom(op, site):
        pair = (op, eye3) if site == 1 else (eye3, op)
        return np.kron(np.kron(*pair), eyef)

    a = np.kron(np.eye(9), np.diag(np.sqrt(np.arange(1.0, params.n_max + 1)), k=1))
    ad = a.conj().T
    h = params.delta * ad @ a
    couplings = (params.g * (1 + params.alpha), params.g * (1 - params.alpha))
    phases = (1.0, np.exp(1j * params.phi))
    for site, sign, gj, phase in zip((1, 2), (1.0, -1.0), couplings, phases):
        mw = atom(unit("1", "0"), site)
        exchange = gj * ad @ atom(unit("1", "e"), site)
        drive = 0.5 * params.Omega * phase * atom(unit("e", "0"), site)
        h = h + 0.5 * params.Omega_MW * (mw + mw.conj().T) \
            + (params.beta + sign * params.b) * atom(unit("1", "1"), site) \
            + params.Delta * atom(unit("e", "e"), site) \
            + exchange + exchange.conj().T + drive + drive.conj().T
    jumps = {"kappa": math.sqrt(params.kappa) * a}
    for target in "01":
        for site in (1, 2):
            jumps[f"gamma{target}_{site}"] = \
                math.sqrt(params.gamma / 2) * atom(unit(target, "e"), site)
    return kept(h, space), {k: kept(v, space) for k, v in jumps.items()}


class TestGroundHamiltonian:
    def test_zero_without_drives(self, space):
        params = SystemParams(Omega_MW=0.0, beta=0.0, b=0.0)
        assert not build_Hg(params, space).any()

    def test_triplet_coupling_matches_brute_force(self, space):
        params = SystemParams(Omega_MW=0.2, beta=0.05)
        hg = build_Hg(params, space)
        assert np.abs(hg - brute_force_Hg(params, space)).max() < 1e-15
        t = named_state(space, "T")
        g00 = named_state(space, "00")
        # two-atom expansion gives Omega_MW/sqrt(2), not the bare Omega_MW/2
        assert t.conj() @ (hg @ g00) == pytest.approx(params.Omega_MW / SQ2)

    def test_antisymmetric_shift_couples_singlet_triplet(self, space):
        params = SystemParams(Omega_MW=0.0, beta=0.0, b=0.07)
        hg = build_Hg(params, space)
        s, t = named_state(space, "S"), named_state(space, "T")
        assert s.conj() @ (hg @ t) == pytest.approx(-0.07)
        assert s.conj() @ (hg @ s) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian(self, space):
        params = SystemParams(Omega_MW=0.3, beta=0.1, b=0.02)
        hg = build_Hg(params, space)
        assert np.abs(hg - hg.conj().T).max() <= 1e-12


class TestExcitedHamiltonian:
    def test_zero_case(self, space):
        # g cannot vanish; a tiny value stands in for the g = 0 limit
        params = SystemParams(g=1e-14, Delta=0.0, delta=0.0)
        assert np.abs(build_He(params, space)).max() < 1e-13

    def test_exchange_couplings(self, space):
        params = SystemParams(Delta=0.4, delta=0.3)
        he = build_He(params, space)
        pairs = [
            ("T0", named_state(space, "T", photon=1), 1.0),
            ("S0", named_state(space, "S", photon=1), 1.0),
            ("T1", named_state(space, "11", photon=1), SQ2),
        ]
        for name, cavity_state, coeff in pairs:
            amp = named_state(space, name).conj() @ (he @ cavity_state)
            assert amp == pytest.approx(coeff * params.g), name

    def test_asymmetric_couplings(self, space):
        params = SystemParams(alpha=0.1)
        he = build_He(params, space)
        up1 = he[space.index(("e", "0", 0)), space.index(("1", "0", 1))]
        up2 = he[space.index(("0", "e", 0)), space.index(("0", "1", 1))]
        assert up1 == pytest.approx(1.1)
        assert up2 == pytest.approx(0.9)

    def test_dark_state_decouples_at_alpha_zero(self, space):
        he = build_He(SystemParams(), space)
        s1 = named_state(space, "S1")
        for name in ("00", "T", "11", "S"):
            amp = s1.conj() @ (he @ named_state(space, name, photon=1))
            assert abs(amp) < 1e-15, name

    def test_dark_state_fails_at_alpha_nonzero(self, space):
        # asymmetry couples the dark state to the cavity-excited 11 state
        # with strength -sqrt(2) g alpha
        he = build_He(SystemParams(alpha=0.1), space)
        s1 = named_state(space, "S1")
        amp = s1.conj() @ (he @ named_state(space, "11", photon=1))
        assert amp == pytest.approx(-math.sqrt(2) * 0.1)


class TestDrive:
    def test_zero_drive(self, space):
        vp, vm = build_V(SystemParams(Omega=0.0), space)
        assert not vp.any() and not vm.any()

    def test_phase_pi_crosses_sectors(self, space):
        params = SystemParams(Omega=0.1, phi=math.pi)
        vp, vm = build_V(params, space)
        t, s = named_state(space, "T"), named_state(space, "S")
        s1, t1 = named_state(space, "S1"), named_state(space, "T1")
        assert s1.conj() @ (vp @ t) == pytest.approx(-params.Omega / 2)
        assert abs(t1.conj() @ (vp @ s)) == pytest.approx(params.Omega / 2)
        assert abs(t1.conj() @ (vp @ t)) < 1e-15
        assert np.array_equal(vm, vp.conj().T)

    def test_phase_zero_stays_in_sector(self, space):
        params = SystemParams(Omega=0.1, phi=0.0)
        vp, _ = build_V(params, space)
        t0 = named_state(space, "T0")
        g00 = named_state(space, "00")
        assert t0.conj() @ (vp @ g00) == pytest.approx(params.Omega / SQ2)
        s0 = named_state(space, "S0")
        assert abs(s0.conj() @ (vp @ g00)) < 1e-15


class TestLindblads:
    def test_labels_and_branching(self, space):
        params = SystemParams(gamma=0.4, kappa=0.2)
        ops = build_lindblads(params, space)
        assert set(ops) == {"kappa", "gamma0_1", "gamma0_2", "gamma1_1", "gamma1_2"}
        total = sum(op.conj().T @ op for op in ops.values())
        e_state = basis_vector(space, ("e", "0", 0))
        rate = e_state.conj() @ total @ e_state
        assert rate == pytest.approx(params.gamma)

    def test_cavity_decay_action(self, space):
        params = SystemParams(kappa=0.25)
        lk = build_lindblads(params, space)["kappa"]
        out = lk @ named_state(space, "S", photon=1)
        expect = math.sqrt(params.kappa) * named_state(space, "S", photon=0)
        assert np.allclose(out, expect, atol=1e-15)


class TestMasterEquation:
    def test_blocks_inert_without_drives(self, space):
        params = SystemParams(Omega=0.0, Omega_MW=0.0, Delta=0.3, delta=0.2)
        me = build_master_equation(params, space)
        idx = [space.index((a1, a2, 0)) for a1 in "01" for a2 in "01"]
        other = [i for i in range(space.dim) if i not in idx]
        assert np.abs(me.H[np.ix_(idx, other)]).max() == 0.0

    def test_trace_preservation(self, space, rng):
        me = build_master_equation(SystemParams(Omega=0.1, Omega_MW=0.05), space)
        for _ in range(5):
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            assert abs(np.trace(apply_generator(me, rho))) < 1e-12

    def test_hermiticity_preservation(self, space, rng):
        me = build_master_equation(
            SystemParams(Omega=0.2, Omega_MW=0.1, phi=1.3, Delta=0.5), space
        )
        for _ in range(5):
            x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            rho = 0.5 * (x + x.conj().T)
            out = apply_generator(me, rho)
            assert np.abs(out - out.conj().T).max() < 1e-12

    def test_hamiltonian_is_sum_of_blocks(self, space):
        params = SystemParams(Omega=0.1, Omega_MW=0.05, Delta=0.2, delta=0.1,
                              beta=0.03, phi=math.pi)
        vp, vm = build_V(params, space)
        total = build_Hg(params, space) + build_He(params, space) + vp + vm
        assert np.array_equal(build_hamiltonian(params, space), total)


class TestSharedSpace:
    @pytest.mark.parametrize("n_max, cap", [(1, 1), (2, 2)])
    def test_presets_in_turn_match_kron_reference(self, n_max, cap):
        shared = build_space(n_max, cap)
        first = preset(SchemeId.S1, Omega=0.05).replace(alpha=0.02, delta=-0.01)
        second = preset(SchemeId.WS, Omega=0.02)
        # every row of the term table nonzero, at a drive phase off 0 and pi
        every = preset(SchemeId.T0, Omega_MW=0.02).replace(
            phi=1.0, b=0.01, alpha=0.05, beta=0.003)
        for params in (first, second, every, first):
            params = params.replace(n_max=n_max)
            me = build_master_equation(params, shared)
            h_ref, jumps_ref = brute_force_master_equation(params, shared)
            assert np.abs(me.H - h_ref).max() < 1e-15
            assert set(me.lindblads) == set(jumps_ref)
            for name, op in me.lindblads.items():
                assert np.abs(op - jumps_ref[name]).max() < 1e-15, name


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(g=0.0)
        with pytest.raises(ValueError):
            SystemParams(alpha=1.0)
        with pytest.raises(ValueError):
            SystemParams(Omega=-0.1)
        with pytest.raises(ValueError):
            SystemParams(n_max=0)

    @pytest.mark.parametrize("field", ["g", "gamma", "Omega", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        # every comparison with NaN is false, so NaN passed the range checks
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SystemParams(**{field: value})

    def test_cooperativity(self):
        p = SystemParams(g=1.0, gamma=3 / 8, kappa=5 / 32)
        assert p.cooperativity() == pytest.approx(256 / 15)

    def test_phase_normalized(self):
        assert SystemParams(phi=2 * math.pi + 0.5).phi == pytest.approx(0.5)

    def test_to_dict_keys(self):
        assert set(SystemParams().to_dict()) == {
            "g", "gamma", "kappa", "Omega", "Omega_MW", "Delta", "delta", "beta",
            "phi", "alpha", "b", "n_max"}

    def test_make_space_default(self):
        assert make_space(SystemParams()).dim == 12
