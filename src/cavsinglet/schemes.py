"""Driving presets for the six preparation schemes and their closed-form
benchmarks: static errors, spectral gaps, combined driving errors, optimal
drives and the asymmetric-shift scheme analytics.

Scheme names follow the excited state that mediates the engineered decay
(S1, S0, T0, T1), plus the random-phase T0/S0 mixture and the adapted
asymmetric-shift (WS) scheme.
"""

from __future__ import annotations

import enum
import math
import warnings

from . import liouville
from .errors import NoValidDriveError
from .hilbert import named_state
from .model import SystemParams, build_master_equation

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# Table-style reference cavity: (g, gamma, kappa) = (1, 3/8, 5/32),
# cooperativity 256/15, gamma/kappa = 12/5.
DEFAULT_GAMMA_OVER_G = 3.0 / 8.0
DEFAULT_KAPPA_OVER_G = 5.0 / 32.0
GAMMA_KAPPA_RATIO = DEFAULT_GAMMA_OVER_G / DEFAULT_KAPPA_OVER_G  # 12/5


class SchemeId(str, enum.Enum):
    S1 = "S1"
    S0 = "S0"
    T0 = "T0"
    T1 = "T1"
    MIX = "T0S0_mix"
    WS = "WS"

    def __str__(self):
        return self.value


_ALIASES = {"mix": SchemeId.MIX, "t0s0": SchemeId.MIX, "t0s0_mix": SchemeId.MIX}


def parse_scheme(name: str | SchemeId) -> SchemeId:
    if isinstance(name, SchemeId):
        return name
    key = name.strip()
    for member in SchemeId:
        if key.lower() == member.value.lower() or key.lower() == member.name.lower():
            return member
    if key.lower() in _ALIASES:
        return _ALIASES[key.lower()]
    raise ValueError(f"unknown scheme {name!r}")


# Schemes driven by a transverse laser with a fixed relative phase need the
# atoms confined transversally; cavity-driven and random-phase schemes do not.
NEEDS_CONFINEMENT = {
    SchemeId.S1: True,
    SchemeId.S0: True,
    SchemeId.T0: False,
    SchemeId.T1: False,
    SchemeId.MIX: False,
    SchemeId.WS: False,
}


def needs_confinement(scheme: SchemeId | str) -> bool:
    return NEEDS_CONFINEMENT[parse_scheme(scheme)]


def cavity_rates_for_cooperativity(
    C: float, g: float = 1.0, ratio: float = GAMMA_KAPPA_RATIO
) -> tuple[float, float]:
    """(gamma, kappa) with gamma/kappa = ratio and g^2/(gamma kappa) = C."""
    if C <= 0:
        raise ValueError("cooperativity must be positive")
    gamma = g * math.sqrt(ratio / C)
    return gamma, gamma / ratio


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


def preset(
    scheme: SchemeId | str,
    g: float = 1.0,
    gamma: float | None = None,
    kappa: float | None = None,
    Omega: float | None = None,
    Omega_MW: float | None = None,
    Delta: float | None = None,
    mw_ratio: float = 1.0 / 3.0,
) -> SystemParams:
    """Fully populated parameters for one scheme.

    Defaults: the reference cavity rates, weak driving Omega = gamma/10,
    and the per-scheme detuning rules.  ``mw_ratio`` sets Omega_MW/Omega
    for the T0/T1/S0/mixture schemes (optimal between 1/2 and 1/3; the
    simulations use 1/3).
    """
    scheme = parse_scheme(scheme)
    if gamma is None:
        gamma = DEFAULT_GAMMA_OVER_G * g
    if kappa is None:
        kappa = DEFAULT_KAPPA_OVER_G * g
    if Omega is None:
        Omega = gamma / 10.0
    if Omega > gamma / 2.0 + 1e-15:
        warnings.warn(
            f"Omega = {Omega:.4g} exceeds gamma/2; outside the perturbative range",
            stacklevel=2,
        )

    common = dict(g=g, gamma=gamma, kappa=kappa, Omega=Omega)
    if scheme is SchemeId.S1:
        omega_mw = Omega / 2.0 ** 1.25 if Omega_MW is None else Omega_MW
        beta = omega_mw / _SQRT2
        return SystemParams(
            **common, Omega_MW=omega_mw, Delta=0.0, delta=-beta, beta=beta,
            phi=math.pi,
        )
    if scheme in (SchemeId.S0, SchemeId.T0, SchemeId.MIX):
        delta_l = g * math.sqrt(gamma / kappa) if Delta is None else Delta
        omega_mw = Omega * mw_ratio if Omega_MW is None else Omega_MW
        phi = math.pi if scheme is SchemeId.S0 else 0.0
        return SystemParams(
            **common, Omega_MW=omega_mw, Delta=delta_l, delta=g * g / delta_l,
            beta=0.0, phi=phi,
        )
    if scheme is SchemeId.T1:
        delta_l = g * math.sqrt(2.0 * gamma / kappa) if Delta is None else Delta
        omega_mw = Omega * mw_ratio if Omega_MW is None else Omega_MW
        return SystemParams(
            **common, Omega_MW=omega_mw, Delta=delta_l, delta=2.0 * g * g / delta_l,
            beta=omega_mw / _SQRT2, phi=0.0,
        )
    # WS: far-detuned drive, resonant cavity, compensated microwave detuning
    # and the trade-off shift b.  Delta must satisfy Delta >> g and
    # Delta kappa >> g^2; the default scales with 1/kappa so the second
    # condition survives cooperativity sweeps.
    omega_mw = Omega if Omega_MW is None else Omega_MW
    if Delta is None:
        Delta = max(20.0 * g, 16.0 * g * g / kappa)
    if Delta * kappa < 3.0 * g * g or Delta < 10.0 * g:
        warnings.warn(
            f"WS regime violated: Delta kappa = {Delta * kappa:.3g} g^2, "
            f"Delta = {Delta:.3g} g",
            stacklevel=2,
        )
    return SystemParams(
        **common, Omega_MW=omega_mw, Delta=Delta, delta=0.0,
        beta=-Omega ** 2 / (4.0 * Delta), phi=0.0,
        b=ws_optimal_b(g, gamma, kappa, omega_mw),
    )


def static_error(scheme: SchemeId | str, C: float) -> float:
    """Cooperativity-limited steady-state error of each scheme."""
    if C <= 0:
        raise ValueError("cooperativity must be positive")
    scheme = parse_scheme(scheme)
    prefactors = {
        SchemeId.S1: 1.5,
        SchemeId.S0: 3.5,
        SchemeId.T1: 4.5,
        SchemeId.MIX: 4.5,
        SchemeId.T0: 5.5,
    }
    if scheme is SchemeId.WS:
        return 1.5 / math.sqrt(2.0 * C)
    return prefactors[scheme] / C


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


def gap_analytic(scheme: SchemeId | str, params: SystemParams) -> float:
    """Closed-form spectral gap of each scheme at its preset."""
    scheme = parse_scheme(scheme)
    w2_over_gamma = params.Omega ** 2 / params.gamma
    if scheme is SchemeId.S1:
        return gap_s1_exact(params.Omega, params.gamma, params.Omega_MW)
    if scheme is SchemeId.T0:
        return (2.0 - _SQRT3) / 8.0 * w2_over_gamma
    if scheme is SchemeId.T1:
        return w2_over_gamma / 48.0
    if scheme is SchemeId.S0:
        return (5.0 - _SQRT5) / 16.0 * w2_over_gamma
    if scheme is SchemeId.MIX:
        return (9.0 - 2.0 * _SQRT3 - _SQRT5) / 32.0 * w2_over_gamma
    # WS: one third of the pump rate into the entangled dark state.  The
    # large-b simplification 2 g^2 Omega^2 / (3 Delta^2 kappa) does not
    # apply at the trade-off shift, where b << Omega_MW.
    return ws_analytics(params)["pump_rate"] / 3.0


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


def error_vs_drive_s1(Omega: float, t: float, params: SystemParams) -> float:
    """Preparation error after time t at drive Omega, from a completely
    mixed ground-state start: static + dressing/recycling + residual decay."""
    g, gamma, kappa = params.g, params.gamma, params.kappa
    f = 3.0 * kappa / (_SQRT2 * g * g * gamma)
    r = 12.0 * gamma
    return 1.5 / params.cooperativity() + f * Omega ** 2 \
        + 0.75 * math.exp(-(Omega ** 2) * t / r)


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


def mix_error_and_gap(params: SystemParams, phi: float | None = None) -> dict[str, float]:
    """Random-relative-phase combination of the T0 and S0 schemes.

    The drive excites 00 into T0 with amplitude 1 + e^{i phi} and into S0
    with 1 - e^{i phi}, so the engineered channels carry weights
    cos^2(phi/2) (T0 route) and sin^2(phi/2) (S0 route); ``phi=None``
    averages uniformly, giving equal weights.
    """
    C = params.cooperativity()
    w2_over_gamma = params.Omega ** 2 / params.gamma
    if phi is None:
        w_t0 = 0.5
    else:
        w_t0 = math.cos(0.5 * phi) ** 2
    w_s0 = 1.0 - w_t0
    error = (w_t0 * 5.5 + w_s0 * 3.5) / C
    gap = (w_t0 * (2.0 - _SQRT3) / 8.0 + w_s0 * (5.0 - _SQRT5) / 16.0) * w2_over_gamma
    return {"error": error, "gap": gap}


def asymmetry_error(alpha: float) -> float:
    """Fidelity loss from asymmetric atom-cavity couplings g (1 +/- alpha)."""
    if abs(alpha) > 0.3:
        warnings.warn(
            f"asymmetry error evaluated outside validity range: alpha = {alpha}",
            stacklevel=2,
        )
    return 3.0 * alpha * alpha


# -- numeric workflows shared by the CLI and the test suite -----------------

def numeric_fidelity(params: SystemParams) -> float:
    """Full-model steady-state fidelity with the singlet."""
    me = build_master_equation(params)
    rho = liouville.steady_state(liouville.vectorize(me))
    return liouville.fidelity(rho, named_state(me.space, "S", photon=0))


def numeric_gap(params: SystemParams) -> float:
    me = build_master_equation(params)
    return liouville.spectral_gap(liouville.vectorize(me)).gap


def scheme_numeric_fidelity(
    scheme: SchemeId | str,
    g: float = 1.0,
    gamma: float | None = None,
    kappa: float | None = None,
    Omega: float | None = None,
) -> float:
    """Steady-state fidelity of one scheme from the full model.

    The random-phase mixture has no phase-fixed Liouvillian; its fidelity is
    the uniform phase average, computed from the two endpoint models.
    """
    scheme = parse_scheme(scheme)
    if scheme is SchemeId.MIX:
        errs = [
            1.0 - numeric_fidelity(preset(s, g=g, gamma=gamma, kappa=kappa, Omega=Omega))
            for s in (SchemeId.T0, SchemeId.S0)
        ]
        return 1.0 - 0.5 * sum(errs)
    return numeric_fidelity(
        preset(scheme, g=g, gamma=gamma, kappa=kappa, Omega=Omega))


def drive_for_dynamic_error(
    scheme: SchemeId | str,
    target: float = 0.02,
    g: float = 1.0,
    gamma: float | None = None,
    kappa: float | None = None,
) -> float:
    """Drive strength at which the dynamic (driving-induced) error reaches
    ``target``, by inversion for S1 and bisection on the numeric steady-state
    error otherwise."""
    scheme = parse_scheme(scheme)
    if gamma is None:
        gamma = DEFAULT_GAMMA_OVER_G * g
    if kappa is None:
        kappa = DEFAULT_KAPPA_OVER_G * g
    C = g * g / (gamma * kappa)
    if scheme is SchemeId.S1:
        # dynamic error (3/2C) sqrt(2) (Omega/gamma)^2 at the optimal microwave
        return gamma * math.sqrt(target * 2.0 * C / (3.0 * _SQRT2))

    weak = 1.0 - scheme_numeric_fidelity(
        scheme, g=g, gamma=gamma, kappa=kappa, Omega=gamma / 10.0
    )

    def dynamic_error(omega: float) -> float:
        err = 1.0 - scheme_numeric_fidelity(
            scheme, g=g, gamma=gamma, kappa=kappa, Omega=omega
        )
        return err - weak

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lo, hi = gamma / 10.0, gamma
        f_hi = dynamic_error(hi)
        tries = 0
        while f_hi < target and tries < 6:
            hi *= 1.5
            f_hi = dynamic_error(hi)
            tries += 1
        if f_hi < target:
            raise ValueError(
                f"could not bracket a {target:.3g} dynamic error for {scheme} "
                f"(reached Omega = {hi:.3g})"
            )
        while hi - lo >= 1e-3 * hi:
            mid = 0.5 * (lo + hi)
            if dynamic_error(mid) < target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)
