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
from .errors import RecyclingDivergenceError
from .liouville import Eigensystem, ground_state_vectors
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

    def validate(self) -> "RateMatrix":
        m = self.matrix
        off = m - np.diag(np.diag(m))
        if off.min() < -1e-14:
            raise ValueError("negative off-diagonal rate")
        if np.abs(m.sum(axis=0)).max() > 1e-14 * max(np.abs(m).max(), 1.0):
            raise ValueError("columns do not sum to zero")
        return self


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


def steady_populations(rm: RateMatrix) -> np.ndarray:
    """Stationary population vector (unit sum) of the rate matrix."""
    evals, evecs = np.linalg.eig(rm.matrix)
    i = int(np.argmin(np.abs(evals)))
    p = np.real(evecs[:, i])
    p = p / p.sum()
    return p


def slowest_rate(rm: RateMatrix) -> tuple[float, np.ndarray]:
    """Slowest nonzero decay rate and its (real) eigenvector."""
    evals, evecs = np.linalg.eig(rm.matrix)
    order = np.argsort(np.abs(evals.real))
    i = order[1]
    vec = np.real(evecs[:, i])
    vec = vec / np.linalg.norm(vec)
    return float(-evals[i].real), vec


def slow_left_eigenvector(rm: RateMatrix) -> np.ndarray:
    """Left eigenvector of the slowest mode: the collective coordinate that
    decays at the gap rate.  With equal singlet pumps it is the uniform
    triplet mixture."""
    evals, evecs = np.linalg.eig(rm.matrix.T)
    order = np.argsort(np.abs(evals.real))
    vec = np.real(evecs[:, order[1]])
    return vec / np.linalg.norm(vec)


def evolve(rm: RateMatrix, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Populations at the given times, from the eigendecomposition."""
    return Eigensystem.of([(None, rm.matrix)]).solution(p0)(times).real


def recycling_model(params: SystemParams) -> dict[str, float]:
    """Two-state bottleneck model of the 11 -> T -> S recycling.

    After eliminating the rapidly dephasing T, the singlet is pumped from 11
    at Omega_MW^2 / (12 gamma_d) and drained at kappa_eff, giving the
    closed-form recycling error 12 kappa_eff gamma_d / Omega_MW^2.
    """
    if params.Omega_MW <= 0:
        raise RecyclingDivergenceError(
            "recycling rate vanishes for Omega_MW = 0"
        )
    rates = effective_rates(params)
    gamma_d = float(np.real(rates["gamma_d"]))
    kappa_eff = float(np.real(rates["kappa_eff"]))
    pump = params.Omega_MW ** 2 / (12.0 * gamma_d)
    return {
        "P_S": pump / (pump + kappa_eff),
        "error": 12.0 * kappa_eff * gamma_d / params.Omega_MW ** 2,
    }


def dressed_populations(states: np.ndarray, space, db: DressedBasis) -> np.ndarray:
    """Dressed-basis populations (T+, T-, Tr, S) from density matrices.

    ``states`` has shape (n, d, d) over ``space``; the dressed vectors are
    embedded at zero photons.
    """
    ground = ground_state_vectors(space)
    base = np.column_stack([ground[name] for name in GROUND_LABELS])
    dressed_vecs = db.transform() @ base.T  # rows are dressed kets in full space
    out = np.empty((states.shape[0], 4))
    for k in range(4):
        v = dressed_vecs[k]
        out[:, k] = np.einsum("i,nij,j->n", v.conj(), states, v).real
    return out
