"""Adiabatic elimination of the decaying singly-excited manifold.

Builds the non-Hermitian propagator of the excited states and the
ground-manifold effective Hamiltonian and decay operators, in both the plain
and the microwave-dressed variants.

The ground sector is the span of the four zero-photon, zero-excitation
states ordered (00, T, 11, S); everything else (atomic excitations and
cavity-excited ground combinations) belongs to the eliminated sector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstabilityError
from .hilbert import HilbertSpace, excitation_count, named_state
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
            [named_state(parent, name, photon=0) for name in GROUND_LABELS]
        )

    @property
    def dim(self) -> int:
        return 4

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
    H0: np.ndarray          # H_g + H_e, every non-drive coupling
    V_plus: np.ndarray
    V_minus: np.ndarray
    lindblads: dict[str, np.ndarray]
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


def build_hnh(pm: PartitionedModel) -> np.ndarray:
    """Non-Hermitian Hamiltonian of the excited sector.

    P_e (H0 - i/2 sum_k L_k^dag L_k) P_e, kept as a full-dimension matrix
    supported on the excited block.
    """
    decay = sum(op.conj().T @ op for op in pm.lindblads.values())
    full = pm.H0 - 0.5j * decay
    idx = pm.excited_idx
    out = np.zeros_like(full)
    out[np.ix_(idx, idx)] = full[np.ix_(idx, idx)]
    return out


def invert_hnh(hnh: np.ndarray, excited_idx: np.ndarray) -> np.ndarray:
    """Inverse of a (possibly energy-shifted) non-Hermitian Hamiltonian on
    its excited block; the one propagator inverse of both reductions."""
    block = hnh[np.ix_(excited_idx, excited_idx)]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalInstabilityError(
            f"excited block is numerically singular (cond ~ {cond:.2e})"
        )
    inv_block = np.linalg.inv(block)
    out = np.zeros_like(hnh)
    out[np.ix_(excited_idx, excited_idx)] = inv_block
    return out


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
        return MasterEquation(self.ground, h, self.L_effs)

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
    return pm.ground.restrict(pm.H0)


def reduce_dressed(
    pm: PartitionedModel,
    ground_energies: np.ndarray | None = None,
) -> EffectiveModel:
    """Effective model with ground-state energies kept in the propagators.

    Each ground eigenstate l of energy E_l is excited through the shifted
    propagator (H_NH - E_l)^(-1), the shift covering the whole excited block.
    """
    hg_block = ground_hamiltonian_block(pm)
    evals, evecs = np.linalg.eigh(hg_block)
    if ground_energies is not None:
        evals = np.asarray(ground_energies, dtype=float)
    idx = pm.excited_idx
    hnh = build_hnh(pm)
    vp = pm.V_plus
    g = pm.ground

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
        shifted[np.ix_(idx, idx)] -= e0 * np.eye(len(idx))
        inv = invert_hnh(shifted, idx)
        kernel += inv @ vp @ proj_full

    half = pm.V_minus @ kernel
    h_eff = g.restrict(-0.5 * (half + half.conj().T)) + hg_block
    l_effs = {
        name: g.restrict(op @ kernel) for name, op in pm.lindblads.items()
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
