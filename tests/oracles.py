"""Oracles and validators that only the tests use: the master equation's
right-hand side evaluated directly, the complex form of a generator, the
closed-form propagator entries of the excited sector, S1's closed-form
error against the drive, a scheme's full-model fidelity, basis vectors, and
the structural checks of density matrices, partitioned models and rate
matrices."""

import math
from dataclasses import dataclass

import numpy as np

from cavsinglet.effective import GroundBasis, PartitionedModel
from cavsinglet.errors import NumericalInstabilityError
from cavsinglet.hilbert import HilbertSpace, Label
from cavsinglet.liouville import LiouvillianMatrix, from_real
from cavsinglet.model import MasterEquation, SystemParams
from cavsinglet.ratemodel import RateMatrix
from cavsinglet.schemes import components, full_model, mixture_fidelity


def apply_generator(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] plus the dissipators, from the operators themselves: the
    independent oracle for the vectorized generator."""
    h = me.H
    out = -1j * (h @ rho - rho @ h)
    for l in me.lindblads.values():
        ldl = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def complex_form(lv: LiouvillianMatrix) -> np.ndarray:
    """The column-stacked L = F R F^H on the space's own basis of the
    generator's real form R, F = ``from_real``, formed as (F (F R)^H)^H."""
    half = from_real(lv.real_form(), lv.space).conj().T
    return from_real(half, lv.space).conj().T


class SingularPropagatorError(RuntimeError):
    """A closed-form propagator denominator is numerically singular."""

    def __init__(self, block: int, value: complex):
        super().__init__(
            f"near-singular propagator denominator D_{block} = {value:.3e}"
        )
        self.block = block


@dataclass(frozen=True)
class ComplexDetunings:
    """Closed-form propagator entries of the excited-sector blocks.

    Delta_t[n] and delta_t[n] are the complex detunings Delta_n - i gamma/2
    and delta_n - i kappa/2 of the atomic- and cavity-excited states with n
    atoms in level 1.  Delta_eff / delta_eff / g_eff are the loop- and
    transition-like inverse-propagator denominators of the n-excitation
    blocks; the n = 0 entries describe the uncoupled dark states (with the
    convention Delta_{-1} = Delta_1, so Delta_eff[0] is the dark-state
    energy itself).
    """

    Delta_t: dict[int, complex]
    delta_t: dict[int, complex]
    Delta_eff: dict[int, complex]
    delta_eff: dict[int, complex]
    g_eff: dict[int, complex]
    D: dict[int, complex]


def closed_form_propagators(params: SystemParams) -> ComplexDetunings:
    """Loop- and transition-like propagator denominators of the three
    interacting and two dark excited subspaces: the oracle for the entries
    of the numerically inverted non-Hermitian Hamiltonian."""
    g = params.g
    gamma, kappa = params.gamma, params.kappa
    Delta_t = {n: params.Delta + n * params.beta - 0.5j * gamma for n in (0, 1, 2)}
    delta_t = {n: params.delta + n * params.beta - 0.5j * kappa for n in (0, 1, 2)}
    Delta_prev = {0: Delta_t[1], 1: Delta_t[0], 2: Delta_t[1]}  # Delta_{-1} = Delta_1
    D = {n: n * g * g - delta_t[n] * Delta_prev[n] for n in (0, 1, 2)}
    for n in (1, 2):
        if abs(D[n]) < 1e-12 * g * g:
            raise SingularPropagatorError(n, D[n])
    Delta_eff = {n: Delta_prev[n] - (n * g * g / delta_t[n] if n else 0.0)
                 for n in (0, 1, 2)}
    delta_eff = {n: delta_t[n] - (n * g * g / Delta_prev[n] if n else 0.0)
                 for n in (0, 1, 2)}
    g_eff = {n: math.sqrt(n) * g - delta_t[n] * Delta_prev[n] / (math.sqrt(n) * g)
             for n in (1, 2)}
    return ComplexDetunings(Delta_t, delta_t, Delta_eff, delta_eff, g_eff, D)


def error_vs_drive_s1(Omega: float, t: float, params: SystemParams) -> float:
    """Preparation error after time t at drive Omega, from a completely
    mixed ground-state start: static + dressing/recycling + residual decay."""
    g, gamma, kappa = params.g, params.gamma, params.kappa
    f = 3.0 * kappa / (math.sqrt(2.0) * g * g * gamma)
    r = 12.0 * gamma
    return 1.5 / params.cooperativity() + f * Omega ** 2 \
        + 0.75 * math.exp(-(Omega ** 2) * t / r)


def full_fidelity(scheme, **preset_args) -> float:
    """The steady-state singlet fidelity of the scheme's full model."""
    return mixture_fidelity(full_model(components(scheme, **preset_args)))


def basis_vector(space: HilbertSpace, label: Label) -> np.ndarray:
    if label not in space.index_map:
        raise ValueError(f"label {label} is excluded from this space")
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(label)] = 1.0
    return v


def validate_density(rho: np.ndarray) -> np.ndarray:
    """rho itself if Hermitian, unit-trace and (numerically) positive."""
    scale = max(float(np.abs(rho).max()), 1e-300)
    if float(np.abs(rho - rho.conj().T).max()) > 1e-10 * max(scale, 1.0):
        raise NumericalInstabilityError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise NumericalInstabilityError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
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
    vp = pm.V_plus
    scale = max(float(np.abs(vp).max()), 1.0)
    if float(np.abs(pg @ vp @ pg).max()) > tol * scale:
        raise NumericalInstabilityError("V+ has ground-to-ground elements")
    if float(np.abs(pe @ vp @ pe).max()) > tol * scale:
        raise NumericalInstabilityError("V+ has excited-to-excited elements")
    if float(np.abs(pm.V_minus - vp.conj().T).max()) > tol * scale:
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
