"""Oracles and validators that only the tests use: the master equation's
right-hand side evaluated directly, basis vectors, and the structural
checks of density matrices, partitioned models and rate matrices."""

import numpy as np

from cavsinglet.effective import GroundBasis, PartitionedModel
from cavsinglet.errors import NumericalInstabilityError
from cavsinglet.hilbert import HilbertSpace, Label, StateVector
from cavsinglet.liouville import DensityMatrix, Trajectory
from cavsinglet.model import MasterEquation
from cavsinglet.ratemodel import RateMatrix


def apply_generator(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] plus the dissipators, from the operators themselves: the
    independent oracle for the vectorized generator."""
    h = me.H.mat
    out = -1j * (h @ rho - rho @ h)
    for op in me.lindblads.values():
        l = op.mat
        ldl = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def basis_vector(space: HilbertSpace, label: Label) -> StateVector:
    if label not in space.index_map:
        raise ValueError(f"label {label} is excluded from this space")
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(label)] = 1.0
    return StateVector(space, v)


def final_state(traj: Trajectory) -> DensityMatrix:
    return DensityMatrix(traj.space, traj.states[-1])


def validate_density(rho: DensityMatrix) -> DensityMatrix:
    """rho itself if Hermitian, unit-trace and (numerically) positive."""
    scale = max(float(np.abs(rho.mat).max()), 1e-300)
    if float(np.abs(rho.mat - rho.mat.conj().T).max()) > 1e-10 * max(scale, 1.0):
        raise NumericalInstabilityError("density matrix is not Hermitian")
    if abs(np.trace(rho.mat) - 1.0) > 1e-10:
        raise NumericalInstabilityError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho.mat + rho.mat.conj().T))
    if w.min() < -1e-8:
        raise NumericalInstabilityError(
            f"density matrix has negative eigenvalue {w.min():.3e}"
        )
    return rho


def ground_projector(ground: GroundBasis) -> np.ndarray:
    return ground.embed @ ground.embed.conj().T


def validate_partition(pm: PartitionedModel, tol: float = 1e-12) -> PartitionedModel:
    """pm itself if V+ only raises from the ground sector and V- = V+^dag."""
    pg = ground_projector(pm.ground)
    pe = np.eye(pm.space.dim) - pg
    scale = max(pm.V_plus.norm(), 1.0)
    vp = pm.V_plus.mat
    if float(np.abs(pg @ vp @ pg).max()) > tol * scale:
        raise NumericalInstabilityError("V+ has ground-to-ground elements")
    if float(np.abs(pe @ vp @ pe).max()) > tol * scale:
        raise NumericalInstabilityError("V+ has excited-to-excited elements")
    if float(np.abs(pm.V_minus.mat - vp.conj().T).max()) > tol * scale:
        raise NumericalInstabilityError("V- is not the adjoint of V+")
    return pm


def validate_rates(rm: RateMatrix) -> RateMatrix:
    """rm itself if its off-diagonal rates are >= 0 and its columns sum to 0."""
    m = rm.matrix
    off = m - np.diag(np.diag(m))
    if off.min() < -1e-14:
        raise ValueError("negative off-diagonal rate")
    if np.abs(m.sum(axis=0)).max() > 1e-14 * max(np.abs(m).max(), 1.0):
        raise ValueError("columns do not sum to zero")
    return rm
