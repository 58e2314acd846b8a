"""Classical rate-equation model of the dark-state scheme in the
microwave-dressed ground basis.

The three dressed triplet states and the singlet carry the populations;
transition rates are the squared matrix elements of the closed-form
effective decay operators transformed into the dressed basis.  The rate
ODEs are solved in closed form through the 4x4 eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effective import GROUND_LABELS, effective_rates, simplified_dark_state_operators
from .liouville import Eigenblock, spectral_modes, superpose
from .model import SystemParams

DRESSED_ORDER = ("T+", "T-", "Tr", "S")

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DressedBasis:
    """Dressed triplet combinations of (00, 11, T) under microwave driving.

    A = Omega_MW / sqrt(Omega_MW^2 + beta^2), B = beta / sqrt(...), and the
    rows of ``vectors`` are T+, T-, Tr over the span ordered (00, 11, T).
    """

    A: float
    B: float
    vectors: np.ndarray

    def transform(self) -> np.ndarray:
        """4x4 change of basis, rows (T+, T-, Tr, S), columns (00, T, 11, S)."""
        u = np.zeros((4, 4))
        col = {name: GROUND_LABELS.index(name) for name in ("00", "11", "T")}
        for row in range(3):
            c00, c11, ct = self.vectors[row]
            u[row, col["00"]] = c00
            u[row, col["11"]] = c11
            u[row, col["T"]] = ct
        u[3, GROUND_LABELS.index("S")] = 1.0
        return u


def build_dressed_basis(Omega_MW: float, beta: float) -> DressedBasis:
    """Orthonormal dressed triplet triple; degenerate for both drives zero."""
    norm2 = Omega_MW ** 2 + beta ** 2
    if norm2 == 0.0:
        raise ValueError("dressed basis undefined for Omega_MW = beta = 0")
    a = Omega_MW / math.sqrt(norm2)
    b = beta / math.sqrt(norm2)
    vectors = np.array([
        [-0.5 * (b - 1.0), 0.5 * (b + 1.0), a / _SQRT2],   # T+
        [-0.5 * (b + 1.0), 0.5 * (b - 1.0), a / _SQRT2],   # T-
        [a / _SQRT2, -a / _SQRT2, b],                      # Tr
    ])
    return DressedBasis(A=a, B=b, vectors=vectors)


@dataclass(frozen=True)
class RateMatrix:
    """Population rate matrix over (T+, T-, Tr, S); columns sum to zero."""

    matrix: np.ndarray
    states: tuple[str, ...] = DRESSED_ORDER


def singlet_pump_rates(params: SystemParams, dressed: bool = False) -> np.ndarray:
    """Per-dressed-state decay rates into the singlet (both emission
    channels summed).

    Each dressed triplet state of energy E_l is pumped through the dark
    excited state with the shifted propagator (-i gamma/2 - (E_l - beta))^-1;
    at the optimal microwave detuning the shifts are 0 and
    -+ sqrt(3/2) Omega_MW, reducing the T+- rates by
    gamma^2 / (gamma^2 + shift^2) relative to Tr.
    """
    db = build_dressed_basis(params.Omega_MW, params.beta)
    rates = effective_rates(params)
    gamma_eff = rates["gamma_eff"]
    gamma = params.gamma
    a, b = db.A, db.B
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


def build_rates(params: SystemParams, dressed: bool = False) -> RateMatrix:
    """Population rate matrix over (T+, T-, Tr, S).

    The singlet row uses the per-dressed-state pump rates (state-shifted
    propagators when ``dressed=True``) and the cavity drain kappa_eff; the
    triplet shuffling rates are the squared matrix elements of the
    spontaneous-emission operators transformed into the dressed basis.  The
    cavity channel's coherent feeding of the singlet from 00 is a
    coherence-level process outside the rate description.
    """
    db = build_dressed_basis(params.Omega_MW, params.beta)
    u = db.transform()
    eff = simplified_dark_state_operators(params, dressed=dressed)
    w = np.zeros((4, 4))
    w_kappa = np.abs(u @ eff.L_effs["kappa"] @ u.conj().T) ** 2
    for name, op in eff.L_effs.items():
        if name != "kappa":
            w += np.abs(u @ op @ u.conj().T) ** 2
    # exact per-state gamma pumps replace the transformed ones; the cavity
    # operator contributes its drain and (dressed) singlet-feed rates on top
    w[3, :3] = singlet_pump_rates(params, dressed)
    w += w_kappa
    np.fill_diagonal(w, 0.0)
    rates = w - np.diag(w.sum(axis=0))
    return RateMatrix(matrix=rates)


def evolve(rm: RateMatrix, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Populations at the given times, from the eigendecomposition."""
    return superpose(spectral_modes([(None, rm.matrix)], p0,
                                    lambda b: Eigenblock.of(rm.matrix)))(times).real
