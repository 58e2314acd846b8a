"""Classical rate-equation model of the dark-state scheme in the
microwave-dressed ground basis.

The three dressed triplet states and the singlet carry the populations;
transition rates are the squared matrix elements of the closed-form
effective decay operators transformed into the dressed basis.  The rate
ODEs are solved in closed form through the 4x4 eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .effective import effective_rates, simplified_dark_state_operators
from .liouville import Eigenblock, spectral_modes, superpose
from .model import SystemParams

_SQRT2 = math.sqrt(2.0)


def _mixing(Omega_MW: float, beta: float) -> tuple[float, float]:
    """(A, B) = (Omega_MW, beta) / sqrt(Omega_MW^2 + beta^2), the mixing
    amplitudes of the dressed basis: T is A/sqrt 2 of T+ and T-, B of Tr."""
    norm2 = Omega_MW ** 2 + beta ** 2
    if norm2 == 0.0:
        raise ValueError("dressed basis undefined for Omega_MW = beta = 0")
    return Omega_MW / math.sqrt(norm2), beta / math.sqrt(norm2)


def build_dressed_basis(Omega_MW: float, beta: float) -> np.ndarray:
    """Orthonormal 4x4 change of basis, rows the dressed states (T+, T-, Tr,
    S), columns the ``GROUND`` order (00, T, 11, S); degenerate for both
    drives zero."""
    a, b = _mixing(Omega_MW, beta)
    return np.array([
        [-0.5 * (b - 1.0), a / _SQRT2, 0.5 * (b + 1.0), 0.0],   # T+
        [-0.5 * (b + 1.0), a / _SQRT2, 0.5 * (b - 1.0), 0.0],   # T-
        [a / _SQRT2, b, -a / _SQRT2, 0.0],                      # Tr
        [0.0, 0.0, 0.0, 1.0],                                   # S
    ])


def singlet_pump_rates(params: SystemParams, dressed: bool = False) -> np.ndarray:
    """Per-dressed-state decay rates into the singlet (both emission
    channels summed).

    Each dressed triplet state of energy E_l is pumped through the dark
    excited state with the shifted propagator (-i gamma/2 - (E_l - beta))^-1;
    at the optimal microwave detuning the shifts are 0 and
    -+ sqrt(3/2) Omega_MW, reducing the T+- rates by
    gamma^2 / (gamma^2 + shift^2) relative to Tr.
    """
    a, b = _mixing(params.Omega_MW, params.beta)
    gamma_eff = effective_rates(params)["gamma_eff"]
    gamma = params.gamma
    weights = np.array([a * a / 2.0, a * a / 2.0, b * b])  # |<T|T_l>|^2
    shifts = np.array([
        +(b * params.beta + a * params.Omega_MW),
        -(b * params.beta + a * params.Omega_MW),
        0.0,
    ])
    if dressed:
        reduction = (gamma / 2.0) ** 2 / ((gamma / 2.0) ** 2 + shifts ** 2)
    else:
        reduction = np.ones(3)
    return 2.0 * gamma_eff * weights * reduction


def build_rates(params: SystemParams, dressed: bool = False) -> np.ndarray:
    """Population rate matrix over (T+, T-, Tr, S); columns sum to zero.

    The singlet row uses the per-dressed-state pump rates (state-shifted
    propagators when ``dressed=True``) and the cavity drain kappa_eff; the
    triplet shuffling rates are the squared matrix elements of the
    spontaneous-emission operators transformed into the dressed basis.  The
    cavity channel's coherent feeding of the singlet from 00 is a
    coherence-level process outside the rate description.
    """
    u = build_dressed_basis(params.Omega_MW, params.beta)
    jumps = simplified_dark_state_operators(params, dressed=dressed).lindblads
    w = np.zeros((4, 4))
    w_kappa = np.abs(u @ jumps["kappa"] @ u.conj().T) ** 2
    for name, op in jumps.items():
        if name != "kappa":
            w += np.abs(u @ op @ u.conj().T) ** 2
    # exact per-state gamma pumps replace the transformed ones; the cavity
    # operator contributes its drain and (dressed) singlet-feed rates on top
    w[3, :3] = singlet_pump_rates(params, dressed)
    w += w_kappa
    np.fill_diagonal(w, 0.0)
    return w - np.diag(w.sum(axis=0))


def evolve(rates: np.ndarray, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Populations at the given times, from the eigendecomposition."""
    return superpose(spectral_modes([(None, rates)], p0,
                                    lambda b: Eigenblock.of(rates)))(times).real


def bare_populations(params: SystemParams, p0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """(00, T, 11, S) populations at the given times from the bare ones p0,
    under the dressed rate matrix: dressed populations map to and from bare
    ones through the squared basis-change amplitudes (a diagonal-density
    approximation)."""
    weights = build_dressed_basis(params.Omega_MW, params.beta) ** 2
    return evolve(build_rates(params, dressed=True), weights @ p0, times) @ weights
