"""Rate-model diagnostics that only the tests use: the stationary
populations, the slowest mode and its left eigenvector, the two-state
recycling bottleneck and dressed-basis populations of full-model states."""

import numpy as np

from cavsinglet.effective import GROUND_LABELS, effective_rates
from cavsinglet.liouville import ground_state_vectors
from cavsinglet.model import SystemParams


class RecyclingDivergenceError(ValueError):
    """The recycling bottleneck model diverges without microwave driving."""


def steady_populations(rates: np.ndarray) -> np.ndarray:
    """Stationary population vector (unit sum) of the rate matrix."""
    evals, evecs = np.linalg.eig(rates)
    i = int(np.argmin(np.abs(evals)))
    p = np.real(evecs[:, i])
    p = p / p.sum()
    return p


def slowest_rate(rates: np.ndarray) -> tuple[float, np.ndarray]:
    """Slowest nonzero decay rate and its (real) eigenvector."""
    evals, evecs = np.linalg.eig(rates)
    order = np.argsort(np.abs(evals.real))
    i = order[1]
    vec = np.real(evecs[:, i])
    vec = vec / np.linalg.norm(vec)
    return float(-evals[i].real), vec


def slow_left_eigenvector(rates: np.ndarray) -> np.ndarray:
    """Left eigenvector of the slowest mode: the collective coordinate that
    decays at the gap rate.  With equal singlet pumps it is the uniform
    triplet mixture."""
    evals, evecs = np.linalg.eig(rates.T)
    order = np.argsort(np.abs(evals.real))
    vec = np.real(evecs[:, order[1]])
    return vec / np.linalg.norm(vec)


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


def dressed_populations(states: np.ndarray, space, u: np.ndarray) -> np.ndarray:
    """Dressed-basis populations (T+, T-, Tr, S) from density matrices.

    ``states`` has shape (n, d, d) over ``space``; ``u`` is
    ``build_dressed_basis``'s change of basis, its dressed vectors embedded
    at zero photons.
    """
    ground = ground_state_vectors(space)
    base = np.column_stack([ground[name] for name in GROUND_LABELS])
    dressed_vecs = u @ base.T  # rows are dressed kets in full space
    out = np.empty((states.shape[0], 4))
    for k in range(4):
        v = dressed_vecs[k]
        out[:, k] = np.einsum("i,nij,j->n", v.conj(), states, v).real
    return out
