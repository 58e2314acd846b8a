"""Adiabatic elimination of the decaying singly-excited manifold.

Builds the non-Hermitian propagator of the excited states, its closed-form
block entries, and the ground-manifold effective Hamiltonian and decay
operators, in both the plain and the microwave-dressed variants.

The ground sector is the span of the four zero-photon, zero-excitation
states ordered (00, T, 11, S); everything else (atomic excitations and
cavity-excited ground combinations) belongs to the eliminated sector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstabilityError, SingularPropagatorError
from .hilbert import HilbertSpace, OperatorMatrix, excitation_count, named_state
from .model import (
    MasterEquation,
    SystemParams,
    build_Hg,
    build_He,
    build_lindblads,
    build_V,
    make_space,
)

GROUND_LABELS = ("00", "T", "11", "S")

_SQRT2 = math.sqrt(2.0)


class GroundBasis:
    """Four-state ground sector of a parent space, ordered (00, T, 11, S)."""

    def __init__(self, parent: HilbertSpace):
        self.parent = parent
        self.labels = GROUND_LABELS
        self.embed = np.column_stack(
            [named_state(parent, name, photon=0).vec for name in GROUND_LABELS]
        )

    @property
    def dim(self) -> int:
        return 4

    def __eq__(self, other):
        if not isinstance(other, GroundBasis):
            return NotImplemented
        return self.parent == other.parent

    def __hash__(self):
        return hash(("ground", self.parent))

    def __repr__(self):
        return f"GroundBasis(parent={self.parent!r})"

    def restrict(self, full_matrix: np.ndarray) -> np.ndarray:
        """Project a parent-space matrix onto the 4x4 ground block."""
        return self.embed.conj().T @ full_matrix @ self.embed


@dataclass(frozen=True)
class PartitionedModel:
    """Drive-free Hamiltonian, drive terms and decay channels, partitioned."""

    params: SystemParams
    space: HilbertSpace
    ground: GroundBasis
    H0: OperatorMatrix          # H_g + H_e, every non-drive coupling
    V_plus: OperatorMatrix
    V_minus: OperatorMatrix
    lindblads: dict[str, OperatorMatrix]
    excited_idx: np.ndarray


def partition(params: SystemParams, space: HilbertSpace | None = None) -> PartitionedModel:
    """Split the full model into ground sector, excited sector and drive."""
    if space is None:
        space = make_space(params)
    ground = GroundBasis(space)
    v_plus, v_minus = build_V(params, space)
    excited_idx = np.array(
        [i for i, lb in enumerate(space.labels) if excitation_count(lb) > 0], dtype=int
    )
    return PartitionedModel(
        params=params,
        space=space,
        ground=ground,
        H0=build_Hg(params, space) + build_He(params, space),
        V_plus=v_plus,
        V_minus=v_minus,
        lindblads=build_lindblads(params, space),
        excited_idx=excited_idx,
    )


def build_hnh(pm: PartitionedModel) -> OperatorMatrix:
    """Non-Hermitian Hamiltonian of the excited sector.

    P_e (H0 - i/2 sum_k L_k^dag L_k) P_e, kept as a full-dimension matrix
    supported on the excited block.
    """
    decay = sum(
        op.mat.conj().T @ op.mat for op in pm.lindblads.values()
    )
    full = pm.H0.mat - 0.5j * decay
    idx = pm.excited_idx
    out = np.zeros_like(full)
    out[np.ix_(idx, idx)] = full[np.ix_(idx, idx)]
    return OperatorMatrix(pm.space, out)


def invert_hnh(hnh: OperatorMatrix, excited_idx: np.ndarray) -> OperatorMatrix:
    """Inverse of a (possibly energy-shifted) non-Hermitian Hamiltonian on
    its excited block; the one propagator inverse of both reductions."""
    block = hnh.mat[np.ix_(excited_idx, excited_idx)]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalInstabilityError(
            f"excited block is numerically singular (cond ~ {cond:.2e})"
        )
    inv_block = np.linalg.inv(block)
    out = np.zeros_like(hnh.mat)
    out[np.ix_(excited_idx, excited_idx)] = inv_block
    return OperatorMatrix(hnh.space, out)


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
    interacting and two dark excited subspaces."""
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


class EffectiveModel:
    """Ground-sector effective Hamiltonian and decay operators."""

    def __init__(
        self,
        ground: GroundBasis,
        H_eff: np.ndarray,
        L_effs: dict[str, np.ndarray],
        dressed: bool = False,
        ground_energies: tuple[float, ...] | None = None,
    ):
        self.ground = ground
        self.H_eff = np.asarray(H_eff, dtype=complex)
        self.L_effs = {k: np.asarray(v, dtype=complex) for k, v in L_effs.items()}
        self.dressed = dressed
        self.ground_energies = ground_energies

    def as_master_equation(self) -> MasterEquation:
        h = 0.5 * (self.H_eff + self.H_eff.conj().T)
        return MasterEquation(
            H=OperatorMatrix(self.ground, h),
            lindblads={
                k: OperatorMatrix(self.ground, v) for k, v in self.L_effs.items()
            },
        )

    def to_json(self, rates: dict | None = None) -> str:
        def matdump(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]

        payload = {
            "basis": list(self.ground.labels),
            "dressed": self.dressed,
            "H_eff": matdump(self.H_eff),
            "L_effs": {k: matdump(v) for k, v in self.L_effs.items()},
        }
        if self.ground_energies is not None:
            payload["ground_energies"] = list(self.ground_energies)
        if rates:
            payload["rates"] = rates
        return json.dumps(payload, indent=1)


def reduce(pm: PartitionedModel) -> EffectiveModel:
    """Second-order effective model: the dressed reduction with every ground
    energy set to zero, so one propagator H_NH^(-1) serves all ground states."""
    model = reduce_dressed(pm, ground_energies=np.zeros(pm.ground.dim))
    return EffectiveModel(model.ground, model.H_eff, model.L_effs)


def ground_hamiltonian_block(pm: PartitionedModel) -> np.ndarray:
    return pm.ground.restrict(pm.H0.mat)


def _dark_projector(pm: PartitionedModel) -> np.ndarray:
    """Projector onto excited states untouched by the atom-cavity exchange."""
    zero_drive = pm.params.replace(Omega=0.0, Omega_MW=0.0, Delta=0.0,
                                   delta=0.0, beta=0.0, b=0.0)
    ac = build_He(zero_drive, pm.space).mat
    idx = pm.excited_idx
    # the exchange block is Hermitian: its null space is the eigenspace of
    # the eigenvalues that vanish on the block's own scale
    w, v = np.linalg.eigh(ac[np.ix_(idx, idx)])
    null = v[:, np.abs(w) <= 1e-12 * max(np.abs(w).max(), 1.0)]
    proj = np.zeros((pm.space.dim, pm.space.dim), dtype=complex)
    proj[np.ix_(idx, idx)] = null @ null.conj().T
    return proj


def reduce_dressed(
    pm: PartitionedModel,
    ground_energies: np.ndarray | None = None,
    retain: str = "all",
) -> EffectiveModel:
    """Effective model with ground-state energies kept in the propagators.

    Each ground eigenstate l of energy E_l is excited through the shifted
    propagator (H_NH - E_l)^(-1).  ``retain="all"`` keeps the shift in every
    propagator entry; ``retain="dark"`` keeps it only inside the dark
    (cavity-uncoupled) excited subspace, mimicking the selective treatment
    where only the engineered-strong propagators are shifted.
    """
    if retain not in ("all", "dark"):
        raise ValueError(f"retain must be 'all' or 'dark', got {retain!r}")
    hg_block = ground_hamiltonian_block(pm)
    evals, evecs = np.linalg.eigh(hg_block)
    if ground_energies is not None:
        evals = np.asarray(ground_energies, dtype=float)
    idx = pm.excited_idx
    hnh = build_hnh(pm).mat
    vp = pm.V_plus.mat
    g = pm.ground
    dark = _dark_projector(pm)[np.ix_(idx, idx)] if retain == "dark" else None

    # Group degenerate energies: the summed projector over a degenerate set
    # is basis independent.
    scale = max(float(np.abs(evals).max()), 1.0)
    groups: list[tuple[float, list[int]]] = []
    for i, e in enumerate(evals):
        for j, (e0, members) in enumerate(groups):
            if abs(e - e0) <= 1e-12 * scale:
                members.append(i)
                break
        else:
            groups.append((float(e), [i]))

    kernel = np.zeros((pm.space.dim, pm.space.dim), dtype=complex)
    for e0, members in groups:
        proj4 = sum(
            np.outer(evecs[:, i], evecs[:, i].conj()) for i in members
        )
        proj_full = g.embed @ proj4 @ g.embed.conj().T
        shifted = hnh.copy()
        shifted[np.ix_(idx, idx)] -= e0 * (np.eye(len(idx)) if dark is None else dark)
        inv = invert_hnh(OperatorMatrix(pm.space, shifted), idx).mat
        kernel += inv @ vp @ proj_full

    half = pm.V_minus.mat @ kernel
    h_eff = g.restrict(-0.5 * (half + half.conj().T)) + hg_block
    l_effs = {
        name: g.restrict(op.mat @ kernel) for name, op in pm.lindblads.items()
    }
    return EffectiveModel(
        g, h_eff, l_effs, dressed=True, ground_energies=tuple(float(e) for e in evals)
    )


def effective_rates(params: SystemParams) -> dict[str, complex]:
    """Scalar rates of the dark-state scheme's engineered decay.

    gamma_eff and kappa_eff are the weak-driving singlet pump and loss
    rates; gamma_d and chi_a extend them to finite microwave dressing with
    eta the dressing reduction factor.
    """
    g, gamma, kappa = params.g, params.gamma, params.kappa
    Omega, Omega_MW = params.Omega, params.Omega_MW
    gamma_eff = Omega ** 2 / (8.0 * gamma)
    kappa_eff = kappa * Omega ** 2 / (8.0 * g ** 2)
    eta = (gamma ** 2 + 2.0 * Omega_MW ** 2) / (gamma ** 2 + 6.0 * Omega_MW ** 2)
    gamma_d = gamma_eff * eta
    chi_a = (
        Omega * Omega_MW / (2.0 * math.sqrt(gamma))
        * (gamma - 1j * _SQRT2 * Omega_MW)
        / (gamma ** 2 + 6.0 * Omega_MW ** 2)
    )
    return {
        "gamma_eff": gamma_eff,
        "kappa_eff": kappa_eff,
        "eta": eta,
        "gamma_d": gamma_d,
        "chi_a": chi_a,
        "gamma_a": abs(chi_a) ** 2,
    }


def _ground_unit(name: str) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[GROUND_LABELS.index(name)] = 1.0
    return v


def _ket_bra(ket: str, bra: str) -> np.ndarray:
    return np.outer(_ground_unit(ket), _ground_unit(bra).conj())


def simplified_dark_state_operators(
    params: SystemParams, space: HilbertSpace | None = None, dressed: bool = True
) -> EffectiveModel:
    """Closed-form ground-sector operators of the dark-state scheme.

    With ``dressed=False`` these are the bare engineered-decay operators
    (rates gamma_eff, kappa_eff); with ``dressed=True`` the microwave
    dressing renormalizes the singlet pump to gamma_d, activates the
    chi_a channels, and adds the cavity-mediated feeding of the singlet
    from 00.
    """
    if space is None:
        space = make_space(params)
    ground = GroundBasis(space)
    r = effective_rates(params)
    sq_gd = math.sqrt(r["gamma_d"])
    sq_ge = math.sqrt(r["gamma_eff"])
    sq_ke = math.sqrt(r["kappa_eff"])
    chi = r["chi_a"]

    l_effs: dict[str, np.ndarray] = {}
    if not dressed:
        for site, sign in ((1, +1.0), (2, -1.0)):
            l_effs[f"gamma0_{site}"] = (
                sign * 1j * sq_ge * _ket_bra("T", "T") + 1j * sq_ge * _ket_bra("S", "T")
            )
            l_effs[f"gamma1_{site}"] = sign * 1j * _SQRT2 * sq_ge * _ket_bra("11", "T")
        l_effs["kappa"] = sq_ke * _ket_bra("11", "S")
    else:
        for site, sign in ((1, +1.0), (2, -1.0)):
            l_effs[f"gamma0_{site}"] = (
                sign * 1j * sq_gd * _ket_bra("T", "T")
                + 1j * sq_gd * _ket_bra("S", "T")
                - sign * chi * _ket_bra("T", "00")
                - chi * _ket_bra("S", "00")
                - sign * np.conj(chi) * _ket_bra("T", "11")
                - np.conj(chi) * _ket_bra("S", "11")
            )
            l_effs[f"gamma1_{site}"] = (
                -sign * _SQRT2 * chi * _ket_bra("11", "00")
                - sign * _SQRT2 * np.conj(chi) * _ket_bra("11", "11")
                + sign * 1j * _SQRT2 * sq_gd * _ket_bra("11", "T")
            )
        l_effs["kappa"] = sq_ke * _ket_bra("11", "S") - 2.0 * sq_ke * _ket_bra("S", "00")

    coupling = params.Omega_MW / _SQRT2
    h_eff = coupling * (
        _ket_bra("00", "T") + _ket_bra("T", "00")
        + _ket_bra("T", "11") + _ket_bra("11", "T")
    )
    h_eff += params.beta * (
        2.0 * _ket_bra("11", "11") + _ket_bra("T", "T") + _ket_bra("S", "S")
    )
    return EffectiveModel(ground, h_eff, l_effs, dressed=dressed)
