"""Driving presets for the six preparation schemes and their closed-form
benchmarks: static errors, spectral gaps, combined driving errors, optimal
drives and the asymmetric-shift scheme analytics.

Scheme names follow the excited state that mediates the engineered decay
(S1, S0, T0, T1), plus the random-phase T0/S0 mixture and the adapted
asymmetric-shift (WS) scheme.  Each scheme is one row of ``SCHEMES``:
weighted phase-fixed components, preset, static-error and analytic-gap
rules, and the confinement flag.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from typing import Callable, NamedTuple

from . import effective, liouville, ratemodel
from .errors import NoValidDriveError, NumericalInstabilityError
from .model import SystemParams

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# Table-style reference cavity: (g, gamma, kappa) = (1, 3/8, 5/32),
# cooperativity 256/15, gamma/kappa = 12/5.
DEFAULT_GAMMA_OVER_G = 3.0 / 8.0
DEFAULT_KAPPA_OVER_G = 5.0 / 32.0
GAMMA_KAPPA_RATIO = DEFAULT_GAMMA_OVER_G / DEFAULT_KAPPA_OVER_G  # 12/5

# Driving-induced error at which the benchmark table reads the gap and the
# convergence time.
DYNAMIC_ERROR = 0.02

# Relative step of the central differences of the presets' coefficients in
# Omega: truncation ~1e-10 and rounding ~1e-11 relative.
DRIVE_STEP = 1e-5

# Omega_MW / Omega of the S0, T0 and T1 presets (optimal between 1/2 and 1/3)
MW_RATIO = 1.0 / 3.0

# Most solves the drive search makes after the weak drive's; bisection alone
# meets the 1e-3 rule in about 13.
DRIVE_SOLVES = 40


class SchemeId(str, enum.Enum):
    S1 = "S1"
    S0 = "S0"
    T0 = "T0"
    T1 = "T1"
    MIX = "T0S0_mix"
    WS = "WS"

    def __str__(self):
        return self.value


_NAMES = {key: m for m in SchemeId for key in (m.value.lower(), m.name.lower())}
_NAMES["t0s0"] = SchemeId.MIX


def parse_scheme(name: str | SchemeId) -> SchemeId:
    if isinstance(name, SchemeId):
        return name
    try:
        return _NAMES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


def cavity_rates_for_cooperativity(C: float, g: float = 1.0) -> tuple[float, float]:
    """(gamma, kappa) with gamma/kappa = 12/5 and g^2/(gamma kappa) = C."""
    if C <= 0:
        raise ValueError("cooperativity must be positive")
    gamma = g * math.sqrt(GAMMA_KAPPA_RATIO / C)
    return gamma, gamma / GAMMA_KAPPA_RATIO


def ws_optimal_b(g: float, gamma: float, kappa: float, Omega_MW: float) -> float:
    """Shift b at which the spontaneous and overlap error terms are equal.

    Root of 128 g^2 y^2 = 3 gamma kappa Omega_MW^2 (4 y + 3 Omega_MW^2)
    with y = b^2; asymptotically b = sqrt(3) Omega_MW (gamma kappa / g^2)^(1/4)
    / 2^(7/4).
    """
    gk = gamma * kappa
    a2 = 128.0 * g * g
    a1 = -12.0 * gk * Omega_MW ** 2
    a0 = -9.0 * gk * Omega_MW ** 4
    y = (-a1 + math.sqrt(a1 * a1 - 4.0 * a2 * a0)) / (2.0 * a2)
    return math.sqrt(y)


def gap_s1_exact(Omega: float, gamma: float, Omega_MW: float) -> float:
    """Slowest rate-equation eigenvalue of the dark-state scheme, valid
    through the increased-driving regime."""
    m2 = Omega_MW ** 2
    root = math.sqrt(9.0 * gamma ** 4 + 84.0 * gamma ** 2 * m2 + 324.0 * m2 * m2)
    return (
        Omega ** 2
        * (5.0 * gamma ** 2 + 18.0 * m2 - root)
        / (24.0 * gamma * (gamma ** 2 + 6.0 * m2))
    )


def combined_error_s1(params: SystemParams) -> dict[str, float]:
    """Static, dressing and recycling error of the dark-state scheme."""
    g, gamma, kappa = params.g, params.gamma, params.kappa
    Omega, Omega_MW = params.Omega, params.Omega_MW
    static = 1.5 * gamma * kappa / g ** 2
    dressing = 6.0 * kappa * Omega_MW ** 2 / (g ** 2 * gamma)
    if Omega_MW > 0:
        recycling = 3.0 * kappa * Omega ** 4 / (16.0 * g ** 2 * gamma * Omega_MW ** 2)
    else:
        recycling = math.inf if Omega > 0 else 0.0
    return {
        "static": static,
        "dressing": dressing,
        "recycling": recycling,
        "total": static + dressing + recycling,
    }


def optimal_drive_for_time(t: float, params: SystemParams) -> dict[str, float]:
    """Drive strength minimizing the preparation error at fixed time t."""
    g, gamma, kappa = params.g, params.gamma, params.kappa
    f = 3.0 * kappa / (_SQRT2 * g * g * gamma)
    r = 12.0 * gamma
    arg = 4.0 * f * r / (3.0 * t)
    if arg >= 1.0:
        raise NoValidDriveError(
            f"t = {t:.4g} too short: optimal-drive log argument {arg:.4g} >= 1"
        )
    omega_opt = math.sqrt(-(r / t) * math.log(arg))
    error = 1.5 / params.cooperativity() + (f * r / t) * (
        1.0 + math.log(3.0 * t / (4.0 * f * r))
    )
    return {"Omega_opt": omega_opt, "error": error}


def ws_analytics(params: SystemParams) -> dict[str, float]:
    """Pump rate, overlap and spontaneous error terms of the WS scheme.

    Evaluated at the model's shift ``params.b``; ``b_opt`` is the exact
    trade-off root where the two error terms coincide.
    """
    g, gamma, kappa = params.g, params.gamma, params.kappa
    Omega, Omega_MW, Delta, b = params.Omega, params.Omega_MW, params.Delta, params.b
    if Delta * kappa < 3.0 * g * g:
        warnings.warn(
            f"WS analytics outside regime of validity: Delta kappa = "
            f"{Delta * kappa:.3g} g^2",
            stacklevel=2,
        )
    denom = 2.0 * b * b + Omega_MW ** 2
    pump = 4.0 * b * b * g * g * Omega ** 2 / (Delta ** 2 * kappa * denom)
    overlap_error = 2.0 * b * b / denom
    if b != 0.0:
        spont = (
            3.0 * gamma * kappa * (4.0 * b * b + 3.0 * Omega_MW ** 2) * Omega_MW ** 2
            / (64.0 * g * g * denom * b * b)
        )
    else:
        spont = math.inf if Omega_MW > 0 else 0.0
    return {
        "pump_rate": pump,
        "overlap_error": overlap_error,
        "spontaneous_error": spont,
        "total_error": overlap_error + spont,
        "b_opt": ws_optimal_b(g, gamma, kappa, Omega_MW),
    }


def asymmetry_error(alpha: float) -> float:
    """Fidelity loss from asymmetric atom-cavity couplings g (1 +/- alpha)."""
    if abs(alpha) > 0.3:
        warnings.warn(
            f"asymmetry error evaluated outside validity range: alpha = {alpha}",
            stacklevel=2,
        )
    return 3.0 * alpha * alpha


# -- the scheme table ---------------------------------------------------------


def _s1_rule(g, gamma, kappa, Omega, Omega_MW, Delta) -> dict:
    omega_mw = Omega / 2.0 ** 1.25 if Omega_MW is None else Omega_MW
    beta = omega_mw / _SQRT2
    return dict(Omega_MW=omega_mw, Delta=0.0, delta=-beta, beta=beta, phi=math.pi)


def _cavity_rule(photons, phi, g, gamma, kappa, Omega, Omega_MW, Delta) -> dict:
    # S0 and T0 (one photon) and T1 (two, with the microwave detuned by
    # Omega_MW / sqrt 2): the cavity detuning compensates photons g^2 / Delta
    delta_l = g * math.sqrt(photons * gamma / kappa) if Delta is None else Delta
    if delta_l == 0.0:
        raise ValueError(f"the cavity detuning {photons} g^2 / Delta needs Delta != 0")
    omega_mw = Omega * MW_RATIO if Omega_MW is None else Omega_MW
    return dict(Omega_MW=omega_mw, Delta=delta_l, delta=photons * g * g / delta_l,
                beta=(photons - 1) * omega_mw / _SQRT2, phi=phi)


def _ws_rule(g, gamma, kappa, Omega, Omega_MW, Delta) -> dict:
    # Far-detuned drive, resonant cavity, compensated microwave detuning and
    # the trade-off shift b.  Delta must satisfy Delta >> g and
    # Delta kappa >> g^2; the default scales with 1/kappa so the second
    # condition survives cooperativity sweeps.
    omega_mw = Omega if Omega_MW is None else Omega_MW
    if Delta is None:
        Delta = max(20.0 * g, 16.0 * g * g / kappa)
    if Delta * kappa < 3.0 * g * g or Delta < 10.0 * g:
        warnings.warn(
            f"WS regime violated: Delta kappa = {Delta * kappa:.3g} g^2, "
            f"Delta = {Delta:.3g} g",
            stacklevel=3,
        )
    return dict(Omega_MW=omega_mw, Delta=Delta, delta=0.0,
                beta=-Omega ** 2 / (4.0 * Delta), phi=0.0,
                b=ws_optimal_b(g, gamma, kappa, omega_mw))


class Scheme(NamedTuple):
    """One row of the scheme table: weighted phase-fixed components and the
    confinement flag.  A phase-fixed scheme is its own single component and
    carries its rules (preset parameters, static error as a function of C,
    closed-form gap at given parameters); a mixture has none, and its static
    error and analytic gap are the weighted means of its components'.  The
    optimal drive at fixed time, the asymmetry error and the dressed
    rate-equation evolution (``ratemodel.bare_populations``) are derived for
    S1 alone, so only its row has them."""

    components: tuple[tuple[float, SchemeId], ...]
    needs_confinement: bool
    preset: Callable[..., dict] | None = None
    static_error: Callable[[float], float] | None = None
    gap: Callable[[SystemParams], float] | None = None
    optimal_drive: Callable[[float, SystemParams], dict] | None = None
    asymmetry_error: Callable[[float], float] | None = None
    rate_populations: Callable | None = None


SCHEMES = {
    SchemeId.S1: Scheme(
        ((1.0, SchemeId.S1),), True, _s1_rule, lambda C: 1.5 / C,
        lambda p: gap_s1_exact(p.Omega, p.gamma, p.Omega_MW),
        optimal_drive_for_time, asymmetry_error,
        ratemodel.bare_populations),
    SchemeId.S0: Scheme(
        ((1.0, SchemeId.S0),), True, functools.partial(_cavity_rule, 1, math.pi),
        lambda C: 3.5 / C, lambda p: (5.0 - _SQRT5) / 16.0 * (p.Omega ** 2 / p.gamma)),
    SchemeId.T0: Scheme(
        ((1.0, SchemeId.T0),), False, functools.partial(_cavity_rule, 1, 0.0),
        lambda C: 5.5 / C, lambda p: (2.0 - _SQRT3) / 8.0 * (p.Omega ** 2 / p.gamma)),
    SchemeId.T1: Scheme(
        ((1.0, SchemeId.T1),), False, functools.partial(_cavity_rule, 2, 0.0),
        lambda C: 4.5 / C, lambda p: p.Omega ** 2 / p.gamma / 48.0),
    # random relative phase: the equal-weight mixture of the phi = 0 (T0)
    # and phi = pi (S0) configurations
    SchemeId.MIX: Scheme(((0.5, SchemeId.T0), (0.5, SchemeId.S0)), False),
    # WS gap: one third of the pump rate into the entangled dark state.  The
    # large-b simplification 2 g^2 Omega^2 / (3 Delta^2 kappa) does not
    # apply at the trade-off shift, where b << Omega_MW.
    SchemeId.WS: Scheme(
        ((1.0, SchemeId.WS),), False, _ws_rule, lambda C: 1.5 / math.sqrt(2.0 * C),
        lambda p: ws_analytics(p)["pump_rate"] / 3.0),
}


def needs_confinement(scheme: SchemeId | str) -> bool:
    return SCHEMES[parse_scheme(scheme)].needs_confinement


def preset(
    scheme: SchemeId | str,
    g: float = 1.0,
    gamma: float | None = None,
    kappa: float | None = None,
    Omega: float | None = None,
    Omega_MW: float | None = None,
    Delta: float | None = None,
) -> SystemParams:
    """Fully populated parameters for one phase-fixed scheme.

    Defaults: the reference cavity rates, weak driving Omega = gamma/10,
    and the per-scheme detuning rules, which take a given Omega_MW and
    Delta as inputs.  A mixture has no single model and raises
    ``ValueError``; ``components`` gives its parts.
    """
    scheme = parse_scheme(scheme)
    row = SCHEMES[scheme]
    if row.preset is None:
        parts = " + ".join(f"{w:g} {s}" for w, s in row.components)
        raise ValueError(f"{scheme} is the mixture {parts} and has no single "
                         f"model; run its components separately")
    gamma = DEFAULT_GAMMA_OVER_G * g if gamma is None else gamma
    kappa = DEFAULT_KAPPA_OVER_G * g if kappa is None else kappa
    Omega = gamma / 10.0 if Omega is None else Omega
    if Omega > gamma / 2.0 + 1e-15:
        warnings.warn(
            f"Omega = {Omega:.4g} exceeds gamma/2; outside the perturbative range",
            stacklevel=2,
        )
    return SystemParams(g=g, gamma=gamma, kappa=kappa, Omega=Omega, **row.preset(
        g, gamma, kappa, Omega, Omega_MW, Delta))


class Component(NamedTuple):
    """One phase-fixed configuration of a scheme, with its weight."""

    weight: float
    scheme: SchemeId
    params: SystemParams


def components(scheme: SchemeId | str, overrides: dict | None = None,
               **preset_args) -> list[Component]:
    """The weighted phase-fixed models of ``scheme``: each component's
    ``preset(component, **preset_args)``, with ``overrides`` replaced."""
    return [Component(w, part, preset(part, **preset_args).replace(**overrides or {}))
            for w, part in SCHEMES[parse_scheme(scheme)].components]


def _row_rule(scheme: SchemeId | str, rule: str, arg) -> float:
    row = SCHEMES[parse_scheme(scheme)]
    if getattr(row, rule) is None:
        return sum(w * _row_rule(part, rule, arg) for w, part in row.components)
    return getattr(row, rule)(arg)


def static_error(scheme: SchemeId | str, C: float) -> float:
    """Cooperativity-limited steady-state error of each scheme."""
    if C <= 0:
        raise ValueError("cooperativity must be positive")
    return _row_rule(scheme, "static_error", C)


def gap_analytic(scheme: SchemeId | str, params: SystemParams) -> float:
    """Closed-form spectral gap of each scheme at its preset.  A mixture's
    components share the cavity and the drive, the only parameters their
    rules read, so their rules are all evaluated at ``params``."""
    return _row_rule(scheme, "gap", params)


def _derived_rule(scheme: SchemeId | str, rule: str, what: str) -> Callable:
    """``scheme``'s rule, or ``ValueError`` naming the rows that have one."""
    found = getattr(SCHEMES[parse_scheme(scheme)], rule)
    if found is None:
        have = ", ".join(str(s) for s, row in SCHEMES.items() if getattr(row, rule))
        raise ValueError(f"the {what} is derived for {have} only")
    return found


def optimal_drive(scheme: SchemeId | str, t: float,
                  params: SystemParams) -> dict[str, float]:
    """The scheme's closed-form optimal drive at fixed time t; ``ValueError``
    for a scheme whose row has none."""
    return _derived_rule(scheme, "optimal_drive", "optimal-drive closed form")(t, params)


def rate_populations(scheme: SchemeId | str) -> Callable:
    """The scheme's dressed rate-equation evolution, ``(params, p0, times)``
    to bare populations; ``ValueError`` if it has none."""
    return _derived_rule(scheme, "rate_populations", "rate model")


def analytic_asymmetry_error(scheme: SchemeId | str, alpha: float) -> float:
    """The scheme's closed-form asymmetry error; NaN if its row has none."""
    rule = SCHEMES[parse_scheme(scheme)].asymmetry_error
    return math.nan if rule is None else rule(alpha)


# -- numeric workflows shared by the CLI and the test suite -----------------

def steady_fidelity(lv: liouville.LiouvillianMatrix) -> float:
    """Singlet fidelity of the generator's steady state."""
    return liouville.fidelity(liouville.steady_state(lv),
                              liouville.ground_state_vectors(lv.space)["S"])


def full_model(comps: list[Component]) -> liouville.Mixture:
    """The scheme's full model: the ``Mixture`` of its components'
    generators, with their weights."""
    return liouville.Mixture([(c.weight, liouville.full_generator(c.params))
                              for c in comps])


def mixture_fidelity(model: liouville.Mixture) -> float:
    """Weighted mean of the parts' ``steady_fidelity``, as one minus the
    weighted mean error."""
    return 1.0 - sum(w * (1.0 - steady_fidelity(lv)) for w, lv in model.parts)


def effective_gap(comps: list[Component]) -> float:
    """Gap of the phase-averaged generator, the weighted sum of the
    components' ``effective.reduce`` generators: the like-for-like
    counterpart of the analytic gap, the weighted mean of the components'
    closed forms derived from the same effective operators."""
    return liouville.vectorize_sum([
        (c.weight, effective.reduce(c.params)) for c in comps]).gap()


def fidelity_response(scheme: SchemeId | str, omega: float,
                      **cavity) -> tuple[liouville.Mixture, float, float]:
    """The scheme's ``full_model`` at drive ``omega`` (its ``components``
    at the ``cavity`` rates), its ``mixture_fidelity``, and that fidelity's
    derivative in Omega along the presets: the weighted <S| d rho |S> of the
    parts' ``liouville.steady_state_derivative``, whose coefficient
    derivatives are central differences of the presets alone, at omega (1
    +- ``DRIVE_STEP``)."""
    model = full_model(components(scheme, Omega=omega, **cavity))
    up, down = omega * (1.0 + DRIVE_STEP), omega * (1.0 - DRIVE_STEP)
    slope = 0.0
    for (w, lv), hi, lo in zip(model.parts, components(scheme, Omega=up, **cavity),
                               components(scheme, Omega=down, **cavity)):
        dc = (liouville.coefficients(hi.params) - liouville.coefficients(lo.params))
        s = liouville.ground_state_vectors(lv.space)["S"]
        d_rho = liouville.steady_state_derivative(lv, dc / (up - down))
        slope += w * (s.conj() @ d_rho @ s).real
    return model, mixture_fidelity(model), slope


def drive_for_dynamic_error(
    scheme: SchemeId | str,
    g: float = 1.0,
    gamma: float | None = None,
    kappa: float | None = None,
) -> tuple[float, float, liouville.Mixture]:
    """Drive strength at which the dynamic (driving-induced) error reaches
    ``DYNAMIC_ERROR``, the weak-drive (Omega = gamma/10) fidelity that the
    dynamic error is measured from, and the scheme's ``full_model`` at that
    drive, the last one the search solved.

    S1 inverts its closed form.  Otherwise each ``fidelity_response`` also
    gives the error's slope.  The first step fits the dynamic error a
    (Omega^2 - (gamma/10)^2) of perturbation theory to the weak drive's
    slope; then Newton runs on log(error) against log(Omega).  A bracket
    [gamma/10, 10 gamma] in log Omega is the safeguard: a step that leaves
    it, or that has no positive error and slope to start from (WS is no
    power law), bisects it, or solves its top while no drive has reached
    the target.  It returns the first solved drive whose error is within
    1e-3 relative of the target.
    """
    scheme = parse_scheme(scheme)
    gamma = DEFAULT_GAMMA_OVER_G * g if gamma is None else gamma
    kappa = DEFAULT_KAPPA_OVER_G * g if kappa is None else kappa
    C = g * g / (gamma * kappa)
    cavity, weak_drive = dict(g=g, gamma=gamma, kappa=kappa), gamma / 10.0
    with warnings.catch_warnings():
        # steps may exceed the preset's gamma/2
        warnings.filterwarnings("ignore", message="Omega = .* exceeds gamma/2")
        _, weak, slope = fidelity_response(scheme, weak_drive, **cavity)
        if scheme is SchemeId.S1:
            # dynamic error (3/2C) sqrt(2) (Omega/gamma)^2 at the optimal microwave
            omega = gamma * math.sqrt(DYNAMIC_ERROR * 2.0 * C / (3.0 * _SQRT2))
            return omega, weak, fidelity_response(scheme, omega, **cavity)[0]

        lo, hi = math.log(weak_drive), math.log(10.0 * gamma)
        reached = False  # whether a solved drive, hi, reached the target
        x = lo + 0.5 * math.log1p(2.0 * DYNAMIC_ERROR / (-slope * weak_drive)) \
            if slope < 0.0 else math.nan
        for _ in range(DRIVE_SOLVES):
            if not lo < x < hi:
                x = 0.5 * (lo + hi) if reached else hi
            model, fidelity, slope = fidelity_response(scheme, math.exp(x), **cavity)
            error = weak - fidelity
            if abs(error - DYNAMIC_ERROR) <= 1e-3 * DYNAMIC_ERROR:
                return math.exp(x), weak, model
            if error >= DYNAMIC_ERROR:
                hi, reached = x, True
            elif x == hi:
                raise ValueError(
                    f"could not bracket a {DYNAMIC_ERROR:.3g} dynamic error for "
                    f"{scheme} (reached Omega = {math.exp(hi):.3g})")
            else:
                lo = x
            # d log(error) / d log(Omega) = -Omega slope / error
            x += math.log(DYNAMIC_ERROR / error) * error / (-slope * math.exp(x)) \
                if error > 0.0 and slope < 0.0 else math.nan
    raise NumericalInstabilityError(
        f"the drive search for {scheme} did not converge in {DRIVE_SOLVES} solves")
