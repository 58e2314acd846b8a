import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsinglet import effective, liouville, schemes
from cavsinglet.errors import NoValidDriveError, NumericalInstabilityError
from cavsinglet.liouville import full_generator
from cavsinglet.schemes import (
    SCHEMES,
    SchemeId,
    asymmetry_error,
    cavity_rates_for_cooperativity,
    combined_error_s1,
    components,
    drive_for_dynamic_error,
    fidelity_response,
    full_model,
    gap_analytic,
    gap_s1_exact,
    needs_confinement,
    optimal_drive_for_time,
    parse_scheme,
    preset,
    static_error,
    steady_fidelity,
    ws_analytics,
    ws_optimal_b,
)
from oracles import error_vs_drive_s1, full_fidelity

C_REF = 256.0 / 15.0
SQ2 = math.sqrt(2.0)


def full_gap(scheme, **preset_args):
    return full_model(components(scheme, **preset_args)).gap()


class TestPresets:
    def test_dark_state_scheme_relations(self, s1_params):
        p = s1_params
        assert p.Omega_MW == pytest.approx(p.Omega / 2 ** 1.25)
        assert p.beta == pytest.approx(p.Omega_MW / SQ2)
        assert p.delta == pytest.approx(-p.beta)
        assert p.Delta == 0.0
        assert p.phi == pytest.approx(math.pi)

    def test_cavity_shift_compensation(self):
        for scheme, product in (("T0", 1.0), ("S0", 1.0), ("T1", 2.0)):
            p = preset(scheme)
            assert p.delta * p.Delta == pytest.approx(product * p.g ** 2)
        assert preset("T0").Delta == pytest.approx(math.sqrt(0.375 / 0.15625))
        assert preset("T1").Delta == pytest.approx(math.sqrt(2 * 0.375 / 0.15625))

    def test_phases_and_microwave(self):
        assert preset("T0").phi == 0.0
        assert preset("S0").phi == pytest.approx(math.pi)
        assert preset("T0").Omega_MW == pytest.approx(preset("T0").Omega / 3)
        assert preset("T1").beta == pytest.approx(preset("T1").Omega_MW / SQ2)

    def test_ws_relations(self):
        p = preset("WS")
        assert p.delta == 0.0
        assert p.beta == pytest.approx(-p.Omega ** 2 / (4 * p.Delta))
        assert p.b == pytest.approx(ws_optimal_b(p.g, p.gamma, p.kappa, p.Omega_MW))
        assert p.Delta * p.kappa > 3.0

    def test_ws_regime_warning(self):
        with pytest.warns(UserWarning, match="regime"):
            preset("WS", Delta=5.0)

    def test_perturbative_warning(self):
        with pytest.warns(UserWarning, match="perturbative"):
            preset("S1", Omega=0.375)

    def test_parse_scheme(self):
        assert parse_scheme("mix") is SchemeId.MIX
        assert parse_scheme("T0S0_mix") is SchemeId.MIX
        assert parse_scheme("s1") is SchemeId.S1
        assert parse_scheme(SchemeId.WS) is SchemeId.WS
        with pytest.raises(ValueError):
            parse_scheme("S2")

    def test_confinement_flags(self):
        assert needs_confinement("S1") and needs_confinement("S0")
        for scheme in ("T0", "T1", "mix", "WS"):
            assert not needs_confinement(scheme)

    def test_cavity_rates_for_cooperativity(self):
        gamma, kappa = cavity_rates_for_cooperativity(C_REF)
        assert gamma == pytest.approx(0.375)
        assert kappa == pytest.approx(0.15625)
        gamma, kappa = cavity_rates_for_cooperativity(100.0)
        assert gamma / kappa == pytest.approx(12 / 5)
        assert 1.0 / (gamma * kappa) == pytest.approx(100.0)


class TestStaticError:
    def test_reference_values(self):
        assert static_error("S1", C_REF) == pytest.approx(0.0879, abs=1e-4)
        assert static_error("WS", C_REF) == pytest.approx(0.2568, abs=1e-4)
        assert static_error("S0", C_REF) == pytest.approx(3.5 / C_REF)
        assert static_error("T1", C_REF) == pytest.approx(4.5 / C_REF)
        assert static_error("T0", C_REF) == pytest.approx(5.5 / C_REF)
        assert static_error("mix", C_REF) == pytest.approx(4.5 / C_REF)

    def test_limits_and_scaling(self):
        for scheme in SchemeId:
            assert static_error(scheme, 1e12) < 1e-5
        for scheme in ("S1", "S0", "T0", "T1", "mix"):
            assert static_error(scheme, 40.0) * 40 == pytest.approx(
                static_error(scheme, 400.0) * 400
            )
        assert static_error("WS", 40.0) * math.sqrt(40) == pytest.approx(
            static_error("WS", 400.0) * math.sqrt(400)
        )
        with pytest.raises(ValueError):
            static_error("S1", 0.0)


class TestAnalyticGap:
    def test_weak_driving_limit(self):
        assert gap_s1_exact(0.1, 0.4, 0.0) == pytest.approx(0.01 / (12 * 0.4))

    def test_exact_form_expansion_order(self):
        # exact vs (Omega^2/12 gamma) eta deviates at fourth order in
        # Omega_MW/gamma: quartering Omega_MW shrinks it by ~256
        gamma, omega = 0.375, 0.0375
        devs = []
        for mw in (0.02, 0.005):
            eta = (gamma ** 2 + 2 * mw ** 2) / (gamma ** 2 + 6 * mw ** 2)
            exact = gap_s1_exact(omega, gamma, mw)
            devs.append(abs(exact - omega ** 2 / (12 * gamma) * eta))
        assert devs[0] / devs[1] == pytest.approx(256, rel=0.1)

    def test_coefficients(self):
        p = preset("T0")
        w = p.Omega ** 2 / p.gamma
        assert gap_analytic("T0", p) == pytest.approx((2 - math.sqrt(3)) / 8 * w)
        assert gap_analytic("T1", preset("T1")) == pytest.approx(w / 48)
        assert gap_analytic("S0", preset("S0")) == pytest.approx(
            (5 - math.sqrt(5)) / 16 * w
        )
        # the mixture coefficient is exactly the average of the endpoint
        # coefficients, close to the quoted 1/10
        mix_coef = (9 - 2 * math.sqrt(3) - math.sqrt(5)) / 32
        avg = 0.5 * ((2 - math.sqrt(3)) / 8 + (5 - math.sqrt(5)) / 16)
        assert mix_coef == pytest.approx(avg, rel=1e-15)
        assert abs(mix_coef - 0.1) < 4e-3
        assert gap_analytic("mix", preset("T0")) == pytest.approx(mix_coef * w)

    def test_ws_gap_is_third_of_pump(self):
        p = preset("WS")
        assert gap_analytic("WS", p) == pytest.approx(
            ws_analytics(p)["pump_rate"] / 3.0
        )

    def test_numeric_gap_agreement_at_moderate_driving(self):
        # leading-order formulas; compared at C = 50 where the subleading
        # 1/C corrections sit below the stated 25 percent
        gamma, kappa = cavity_rates_for_cooperativity(50.0)
        for scheme in ("S1", "T0", "T1", "S0"):
            p = preset(scheme, gamma=gamma, kappa=kappa, Omega=gamma / 5)
            num = full_gap(scheme, gamma=gamma, kappa=kappa, Omega=gamma / 5)
            ana = gap_analytic(scheme, p)
            assert abs(num - ana) / max(num, ana) < 0.25, scheme

    def test_ws_numeric_gap_within_factor_two(self):
        # the uniform-shuffling estimate kappa_eff_S / 3 overestimates the
        # gap because the cavity cascade skews the bright-state populations;
        # see the decisions ledger
        gamma, kappa = cavity_rates_for_cooperativity(50.0)
        p = preset("WS", gamma=gamma, kappa=kappa, Omega=gamma / 5)
        num = full_gap("WS", gamma=gamma, kappa=kappa, Omega=gamma / 5)
        ana = gap_analytic("WS", p)
        assert 0.5 < num / ana < 2.0


class TestCombinedError:
    def test_static_limit(self, s1_params):
        out = combined_error_s1(s1_params.replace(Omega=0.0, Omega_MW=0.0))
        assert out["total"] == pytest.approx(out["static"])
        assert out["static"] == pytest.approx(1.5 / C_REF)

    def test_optimal_microwave_balances_terms(self):
        p = preset("S1", Omega=0.375 / 2)
        out = combined_error_s1(p)
        assert out["dressing"] == pytest.approx(out["recycling"], rel=1e-12)
        # the optimum sits at Omega / 2^(5/4): neighbours are worse
        for factor in (0.8, 1.25):
            other = combined_error_s1(p.replace(Omega_MW=p.Omega_MW * factor))
            assert other["total"] > out["total"]

    def test_combined_identity_at_optimum(self):
        p = preset("S1", Omega=0.375 / 2)
        out = combined_error_s1(p)
        dynamic = out["dressing"] + out["recycling"]
        want = (1.5 / C_REF) * SQ2 * (p.Omega / p.gamma) ** 2
        assert dynamic == pytest.approx(want, rel=1e-12)
        assert out["total"] == pytest.approx(0.1190, abs=2e-4)

    def test_full_liouvillian_agreement(self):
        p = preset("S1", Omega=0.375 / 2)
        err = 1.0 - steady_fidelity(full_generator(p))
        formula = (1.5 / C_REF) * (1 + SQ2 * (p.Omega / p.gamma) ** 2)
        assert abs(err - formula) < 0.02


class TestOptimalDrive:
    def test_long_time_limit(self, s1_params):
        out = optimal_drive_for_time(1e9, s1_params)
        assert out["error"] == pytest.approx(1.5 / C_REF, rel=1e-4)

    def test_short_time_raises(self, s1_params):
        with pytest.raises(NoValidDriveError):
            optimal_drive_for_time(5.0, s1_params)

    def test_reference_time_values(self, s1_params):
        # at t = 1e3/g the closed form gives Omega_opt = 0.154 g and error
        # 0.113 (fidelity 0.887); the numeric integration beats 0.90 and is
        # checked in the acceptance suite
        out = optimal_drive_for_time(1000.0, s1_params)
        assert out["Omega_opt"] == pytest.approx(0.15355, abs=2e-4)
        assert out["error"] == pytest.approx(0.1127, abs=2e-3)

    def test_grid_search_confirms_minimum(self, s1_params):
        t = 1000.0
        out = optimal_drive_for_time(t, s1_params)
        at_opt = error_vs_drive_s1(out["Omega_opt"], t, s1_params)
        assert at_opt == pytest.approx(out["error"], rel=1e-9)
        for omega in np.linspace(0.5, 1.5, 21) * out["Omega_opt"]:
            assert error_vs_drive_s1(float(omega), t, s1_params) >= at_opt - 1e-12


class TestWsAnalytics:
    def test_no_pumping_without_shift(self):
        p = preset("WS").replace(b=0.0)
        out = ws_analytics(p)
        assert out["pump_rate"] == 0.0
        assert out["overlap_error"] == 0.0

    def test_terms_equal_at_optimal_shift(self):
        out = ws_analytics(preset("WS"))
        assert abs(out["overlap_error"] - out["spontaneous_error"]) \
            <= 1e-6 * out["overlap_error"]

    def test_total_error_asymptotics(self):
        gamma, kappa = cavity_rates_for_cooperativity(1e4)
        p = preset("WS", gamma=gamma, kappa=kappa)
        out = ws_analytics(p)
        assert out["total_error"] == pytest.approx(1.5 / math.sqrt(2e4), rel=0.02)

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            ws_analytics(preset("WS").replace(Delta=2.0))


class TestSchemeTable:
    def test_every_scheme_has_a_row(self):
        assert set(SCHEMES) == set(SchemeId)
        for scheme, row in SCHEMES.items():
            assert sum(w for w, _ in row.components) == 1.0, scheme
            for _, part in row.components:
                assert SCHEMES[part].components == ((1.0, part),), scheme

    def test_mixture_rules_are_weighted_means(self):
        p = preset("T0", Omega=0.05)
        for scheme, row in SCHEMES.items():
            if row.preset is not None:
                continue
            for C in (10.0, C_REF, 1000.0):
                mean = sum(w * static_error(part, C) for w, part in row.components)
                assert static_error(scheme, C) == mean
            mean = sum(w * gap_analytic(part, p) for w, part in row.components)
            assert gap_analytic(scheme, p) == mean
        w2 = p.Omega ** 2 / p.gamma
        assert static_error("mix", C_REF) == pytest.approx(4.5 / C_REF, rel=1e-15)
        assert gap_analytic("mix", p) == pytest.approx(
            (9 - 2 * math.sqrt(3) - math.sqrt(5)) / 32 * w2, rel=1e-15)

    def test_mixture_has_no_single_preset(self):
        with pytest.raises(ValueError, match="T0.*S0"):
            preset("mix")

    def test_components_carry_overrides(self):
        comps = components("T1", {"alpha": 0.1}, Omega=0.05)
        assert [(c.weight, c.scheme) for c in comps] == [(1.0, SchemeId.T1)]
        assert comps[0].params == preset("T1", Omega=0.05).replace(alpha=0.1)


class TestMixture:
    def test_endpoints(self):
        # the random-phase scheme mixes the phi = 0 (T0) and phi = pi (S0)
        # configurations with equal weights
        comps = components("mix", Omega=0.05)
        assert [(c.weight, c.scheme) for c in comps] == [
            (0.5, SchemeId.T0), (0.5, SchemeId.S0)]
        assert comps[0].params == preset("T0", Omega=0.05)
        assert comps[1].params == preset("S0", Omega=0.05)
        assert comps[0].params.phi == 0.0
        assert comps[1].params.phi == pytest.approx(math.pi)

    def test_uniform_average(self):
        # the mixture fidelity is the endpoint mean, not the uniform average
        # over the relative phase, which is higher and would miss the 0.797
        # benchmark by more than its 0.015 tolerance
        f_t0, f_s0 = full_fidelity("T0"), full_fidelity("S0")
        f_mix = full_fidelity("mix")
        assert f_mix == pytest.approx(0.5 * (f_t0 + f_s0), abs=2e-16)
        base = preset("T0")
        uniform = np.mean([steady_fidelity(full_generator(base.replace(phi=phi)))
                           for phi in np.linspace(0.0, 2 * math.pi, 16, endpoint=False)])
        assert uniform == pytest.approx(0.8126, abs=1e-3)
        assert abs(f_mix - 0.797) <= 0.015 < abs(uniform - 0.797)


class TestAsymmetry:
    def test_values(self):
        assert asymmetry_error(0.0) == 0.0
        assert asymmetry_error(0.1) == pytest.approx(0.03)
        assert asymmetry_error(-0.2) == asymmetry_error(0.2)

    def test_warning_outside_validity(self):
        with pytest.warns(UserWarning):
            asymmetry_error(0.4)


class TestNumericBenchmarks:
    def test_static_error_convergence(self):
        # numeric steady-state error approaches the closed form within 20
        # percent over C in [30, 300]
        prefactors = {"S1": 1.5, "S0": 3.5, "T0": 5.5, "T1": 4.5}
        for C in (30.0, 300.0):
            gamma, kappa = cavity_rates_for_cooperativity(C)
            for scheme, pref in prefactors.items():
                err = 1.0 - full_fidelity(
                    scheme, gamma=gamma, kappa=kappa, Omega=gamma / 10
                )
                assert abs(err * C / pref - 1.0) < 0.20, (scheme, C)

    @pytest.mark.parametrize("scheme", ["S1", "S0", "T1", "T0", "WS"])
    @pytest.mark.parametrize("reduction", [effective.reduce, effective.reduce_dressed])
    def test_steady_fidelity_of_an_effective_generator(self, scheme, reduction):
        # the ground basis has no photon number: S is its last basis state
        lv = liouville.vectorize(reduction(preset(scheme)))
        want = liouville.steady_state(lv)[3, 3]
        assert abs(want.imag) < 1e-15
        assert steady_fidelity(lv) == min(1.0, max(0.0, want.real))

    def test_dark_state_scheme_dominates(self):
        # best static error and best numeric fidelity at the reference cavity
        others = ("S0", "T0", "T1", "mix", "WS")
        for C in (C_REF, 100.0):
            for other in others:
                assert static_error("S1", C) < static_error(other, C)
        fid_s1 = full_fidelity("S1")
        for other in others:
            assert fid_s1 > full_fidelity(other), other

    def test_drive_for_two_percent_dynamic_error(self):
        omega, fid_weak, model = drive_for_dynamic_error("S1")
        assert fid_weak == full_fidelity("S1")
        p = preset("S1", Omega=omega)
        [(weight, lv)] = model.parts
        assert weight == 1.0
        assert np.array_equal(lv.real_form(), full_generator(p).real_form())
        out = combined_error_s1(p)
        assert out["total"] - out["static"] == pytest.approx(0.02, rel=1e-6)
        # search path on a numeric scheme, measured from the weak-drive
        # fidelity it returns
        omega_t0, fid_weak, model = drive_for_dynamic_error("T0")
        assert fid_weak == full_fidelity("T0")
        # the model returned is the one at the drive found
        [(_, lv)] = model.parts
        assert steady_fidelity(lv) == full_fidelity("T0", Omega=omega_t0)
        err = 1.0 - full_fidelity("T0", Omega=omega_t0)
        assert err - (1.0 - fid_weak) == pytest.approx(0.02, rel=1e-3)

    @pytest.mark.parametrize("scheme", ["S1", "S0", "T1", "T0", "WS"])
    def test_fidelity_solve_peak_allocation(self, scheme):
        # one solve at the default truncation holds R and its blocks, 490-573
        # KiB (~620 KiB while each solve vectorized a built model); three
        # complex d^4 arrays at once (1,268 KiB) made every solve fault its
        # pages back in after the allocator trimmed them
        params = preset(scheme)
        # warm-up: cached spaces, sectors and indices
        steady_fidelity(full_generator(params))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            steady_fidelity(full_generator(params))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 700 * 1024


def bisected_drive(scheme, gamma, kappa, weak):
    """Reference for the drive search: linear bisection of the dynamic error
    on [gamma/10, gamma 1.5^k], k the fewest that bracket 2%, down to a 1e-5
    relative bracket."""
    def error(omega):
        return weak - full_fidelity(scheme, gamma=gamma, kappa=kappa,
                                              Omega=omega)

    lo, hi = gamma / 10.0, gamma
    while error(hi) < 0.02:
        hi *= 1.5
    while hi - lo >= 1e-5 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if error(mid) < 0.02 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.filterwarnings("ignore:Omega = .* exceeds gamma/2")
class TestDriveSearch:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        scheme=st.sampled_from(["S1", "S0", "T1", "T0", "WS", "T0S0_mix"]),
        log10_c=st.floats(1.0, 3.0),
        omega_over_gamma=st.floats(0.05, 0.5),
    )
    def test_fidelity_slope_matches_central_differences(
            self, scheme, log10_c, omega_over_gamma):
        gamma, kappa = cavity_rates_for_cooperativity(10.0 ** log10_c)
        omega, step = omega_over_gamma * gamma, 1e-4 * omega_over_gamma * gamma
        _, fidelity, slope = fidelity_response(scheme, omega, gamma=gamma, kappa=kappa)
        assert fidelity == full_fidelity(scheme, gamma=gamma, kappa=kappa, Omega=omega)
        up, down = (full_fidelity(scheme, gamma=gamma, kappa=kappa, Omega=omega + s)
                    for s in (step, -step))
        # 1e-5 relative: the central difference's own error, its truncation
        # and the solves' rounding over 2 step, reached 6.2e-7 (WS at C =
        # 1000, Omega = gamma/2); most agree to 1e-8 or better
        assert slope == pytest.approx((up - down) / (2.0 * step), rel=1e-5)

    @pytest.mark.parametrize("C", [C_REF, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("scheme", ["S0", "T1", "T0", "T0S0_mix", "WS"])
    def test_hits_the_target_and_matches_bisection(self, scheme, C, monkeypatch):
        gamma, kappa = cavity_rates_for_cooperativity(C)
        build, solved = liouville.full_generator, []
        monkeypatch.setattr(liouville, "full_generator",
                            lambda params: solved.append(params) or build(params))
        omega, weak, _ = drive_for_dynamic_error(scheme, gamma=gamma, kappa=kappa)
        # counting the weak drive; three at the reference cavity
        assert len(solved) <= 4 * len(components(scheme))
        if C == C_REF:
            assert len(solved) == 3 * len(components(scheme))
        monkeypatch.undo()
        err = weak - full_fidelity(scheme, gamma=gamma, kappa=kappa,
                                             Omega=omega)
        assert err == pytest.approx(0.02, rel=1e-3)
        assert omega == pytest.approx(bisected_drive(scheme, gamma, kappa, weak),
                                      rel=1e-3)

    def test_other_warnings_propagate(self, monkeypatch):
        solved = []

        def response(scheme, omega, gamma, **cavity):  # the components, as the model
            solved.append(omega)
            warnings.warn("probe warning")
            return (components(scheme, Omega=omega, gamma=gamma, **cavity),
                    1.0 - 25.0 * (omega / gamma) ** 4, -100.0 * omega ** 3 / gamma ** 4)

        monkeypatch.setattr(schemes, "fidelity_response", response)
        with pytest.warns(UserWarning, match="probe warning") as caught:
            omega, weak, _ = drive_for_dynamic_error("T0")
        # every solve's warning, the search's as well as the weak drive's,
        # and none of the preset's about the bracket top
        messages = [str(w.message) for w in caught]
        assert messages.count("probe warning") == len(solved) > 2
        assert not [m for m in messages if "exceeds gamma/2" in m]
        # dynamic error 25 ((Omega/gamma)^4 - 1/10^4): no quadratic, so the
        # first step misses it
        assert omega / preset("T0").gamma == pytest.approx(math.sqrt(0.03), rel=1e-3)

    def test_a_jump_over_the_target_ends_the_search(self, monkeypatch):
        # an error that jumps past 2% gives bisection nothing to converge to
        solved = []

        def response(scheme, omega, gamma, **cavity):
            solved.append(omega)
            return None, 0.9 - 0.04 * (omega > 0.3 * gamma), 0.0

        monkeypatch.setattr(schemes, "fidelity_response", response)
        with pytest.raises(NumericalInstabilityError, match="did not converge"):
            drive_for_dynamic_error("T0")
        assert len(solved) == 1 + schemes.DRIVE_SOLVES

    def test_unbracketed_target_raises(self, monkeypatch):
        monkeypatch.setattr(schemes, "fidelity_response", lambda scheme, omega, **cavity: (
            components(scheme, Omega=omega, **cavity), 0.9, 0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="could not bracket"):
                drive_for_dynamic_error("WS")
        # the bracket top, 10 gamma, is solved with the preset's warning caught
        assert not [w for w in caught if "exceeds gamma/2" in str(w.message)]
