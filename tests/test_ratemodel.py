import math

import numpy as np
import pytest

from cavsinglet import liouville
from cavsinglet.effective import effective_rates, elimination_blocks
from cavsinglet.ratemodel import build_dressed_basis, build_rates, evolve, singlet_pump_rates
from cavsinglet.schemes import SchemeId, cavity_rates_for_cooperativity, preset
from rate_diagnostics import (
    RecyclingDivergenceError,
    dressed_populations,
    recycling_model,
    slow_left_eigenvector,
    slowest_rate,
    steady_populations,
)
from oracles import build_master_equation, validate_rates

C_REF = 256.0 / 15.0
SQ2 = math.sqrt(2.0)


class TestDressedBasis:
    def test_optimal_detuning_shares(self):
        db = build_dressed_basis(0.2, 0.2 / SQ2)
        assert db.A == pytest.approx(math.sqrt(2 / 3))
        assert db.B == pytest.approx(math.sqrt(1 / 3))
        # each dressed state carries an equal third of the bare triplet
        t_weights = db.transform()[:3, 1] ** 2
        assert np.allclose(t_weights, 1 / 3)

    def test_zero_detuning_limit(self):
        db = build_dressed_basis(0.2, 0.0)
        # Tr becomes (|00> - |11>)/sqrt(2) over the (00, 11, T) span
        assert np.allclose(db.vectors[2], [1 / SQ2, -1 / SQ2, 0.0])

    def test_orthonormal(self):
        db = build_dressed_basis(0.13, 0.07)
        gram = db.vectors @ db.vectors.T
        assert np.abs(gram - np.eye(3)).max() < 1e-12
        u = db.transform()
        assert np.abs(u @ u.T - np.eye(4)).max() < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            build_dressed_basis(0.0, 0.0)

    def test_diagonalizes_ground_hamiltonian(self, s1_params):
        hg = elimination_blocks(s1_params).H_g
        u = build_dressed_basis(s1_params.Omega_MW, s1_params.beta).transform()
        diag = u @ hg @ u.T
        off = np.abs(diag - np.diag(np.diag(diag))).max()
        assert off < 1e-12
        split = (s1_params.beta ** 2 / math.sqrt(s1_params.Omega_MW ** 2
                                                 + s1_params.beta ** 2)
                 + s1_params.Omega_MW ** 2 / math.sqrt(s1_params.Omega_MW ** 2
                                                       + s1_params.beta ** 2))
        want = [s1_params.beta + split, s1_params.beta - split,
                s1_params.beta, s1_params.beta]
        assert np.allclose(np.diag(diag).real, want, atol=1e-14)


class TestRateMatrix:
    def test_structure(self, s1_params):
        for dressed in (False, True):
            rm = validate_rates(build_rates(s1_params, dressed=dressed))
            assert rm.matrix.shape == (4, 4)
            assert np.abs(rm.matrix.sum(axis=0)).max() < 1e-16

    def test_weak_driving_steady_state(self, s1_params):
        pops = steady_populations(build_rates(s1_params))
        # exact balance of pump and drain; approaches 3/(2C) at large C
        assert 1 - pops[3] == pytest.approx(3 / (2 * C_REF + 3), rel=1e-9)
        assert 1 - pops[3] == pytest.approx(1.5 / C_REF, rel=0.1)

    def test_slowest_rate_weak(self, s1_params):
        rate, _ = slowest_rate(build_rates(s1_params))
        weak = s1_params.Omega ** 2 / (12 * s1_params.gamma)
        assert rate == pytest.approx(weak * (1 + 1.5 / C_REF), rel=1e-9)
        assert rate == pytest.approx(weak, rel=0.15)

    def test_slow_mode_is_uniform_triplet_functional(self):
        # the slowly decaying collective coordinate (left eigenvector) is the
        # equal triplet mixture; its singlet admixture scales as 3/(2C)
        gamma, kappa = cavity_rates_for_cooperativity(100.0)
        p = preset(SchemeId.S1, gamma=gamma, kappa=kappa, Omega=gamma / 10)
        left = slow_left_eigenvector(build_rates(p))
        uniform = np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3)
        assert abs(left @ uniform) > 0.999

    def test_dressed_steady_state_error(self):
        gamma, kappa = cavity_rates_for_cooperativity(300.0)
        p = preset(SchemeId.S1, gamma=gamma, kappa=kappa, Omega=gamma / 2)
        err = 1 - steady_populations(build_rates(p, dressed=True))[3]
        eta = (gamma ** 2 + 2 * p.Omega_MW ** 2) / (gamma ** 2 + 6 * p.Omega_MW ** 2)
        assert err == pytest.approx(1.5 / 300.0 / eta, rel=0.02)

    def test_pump_rates(self, s1_params):
        pumps = singlet_pump_rates(s1_params, dressed=True)
        r = effective_rates(s1_params)
        reduction = s1_params.gamma ** 2 / (s1_params.gamma ** 2
                                            + 6 * s1_params.Omega_MW ** 2)
        want = 2 * r["gamma_eff"] / 3 * np.array([reduction, reduction, 1.0])
        assert np.allclose(pumps, want, rtol=1e-12)
        # averaged pump reproduces the eta-weighted rate-equation row
        assert pumps.sum() / 3 == pytest.approx(
            s1_params.Omega ** 2 / (12 * s1_params.gamma) * r["eta"], rel=1e-12
        )

    def test_population_conservation_in_evolution(self, s1_params):
        rm = build_rates(s1_params, dressed=True)
        times = np.linspace(0.0, 2000.0, 50)
        pops = evolve(rm, np.full(4, 0.25), times)
        assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-12


class TestAgainstFullModel:
    def test_trajectories_match_at_weak_driving(self, s1_params):
        me = build_master_equation(s1_params)
        rho0 = liouville.mixed_ground_state(me.space)
        traj = liouville.propagate(me, rho0, 4000.0, 0.1)
        states = liouville.evolve_spectral(liouville.vectorize(me), rho0, traj.times)
        db = build_dressed_basis(s1_params.Omega_MW, s1_params.beta)
        full = dressed_populations(states, me.space, db)
        rate = evolve(build_rates(s1_params, dressed=True),
                      np.full(4, 0.25), traj.times)
        assert np.abs(full - rate).max() < 0.02

    def test_dressed_populations_of_mixed_state(self, s1_params):
        me = build_master_equation(s1_params)
        rho0 = liouville.mixed_ground_state(me.space)
        db = build_dressed_basis(s1_params.Omega_MW, s1_params.beta)
        pops = dressed_populations(rho0[np.newaxis], me.space, db)
        assert np.allclose(pops, 0.25, atol=1e-14)


class TestRecycling:
    def test_requires_microwave(self, s1_params):
        with pytest.raises(RecyclingDivergenceError):
            recycling_model(s1_params.replace(Omega_MW=0.0))

    def test_error_vanishes_with_strong_shuffling(self, s1_params):
        errs = [
            recycling_model(s1_params.replace(Omega_MW=mw))["error"]
            for mw in (0.01, 0.05, 0.2)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_closed_form_identity(self):
        # 12 kappa_eff gamma_d / Omega_MW^2 equals the third combined-error
        # term times the dressing factor eta
        p = preset(SchemeId.S1, Omega=0.375 / 2)
        out = recycling_model(p)
        r = effective_rates(p)
        third_term = 3 * p.kappa * p.Omega ** 4 / (
            16 * p.g ** 2 * p.gamma * p.Omega_MW ** 2
        )
        assert out["error"] == pytest.approx(third_term * r["eta"], rel=1e-12)

    def test_steady_population_balance(self, s1_params):
        out = recycling_model(s1_params)
        r = effective_rates(s1_params)
        pump = s1_params.Omega_MW ** 2 / (12 * r["gamma_d"])
        assert out["P_S"] == pytest.approx(pump / (pump + r["kappa_eff"]))
