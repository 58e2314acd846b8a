"""Adiabatic elimination of the decaying singly-excited manifold by the
effective operator formalism (Reiter & Soerensen, PRA 85, 032111 (2012)),
in both the plain and the microwave-dressed variants.

The reduction reads three pieces of the model off the ``TERMS`` rows, each
row's operator rotated once into the ``symmetric_basis`` and restricted by
index sets: the non-Hermitian Hamiltonian H_NH on the excited sector, V+
from the ground sector to it, and the jumps back.  In that basis the ground
sector, the four zero-photon, zero-excitation states ordered (00, T, 11,
S), is the index set of (0,0,0), (0,1,0), (1,1,0) and (1,0,0); the excited
sector (atomic excitations and cavity-excited ground combinations) is every
label with an excitation.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalInstabilityError
from .hilbert import excitation_count
from .liouville import GROUND_LABELS, _rotated, ground_coordinates
from .model import TERMS, MasterEquation, SystemParams, make_space

_SQRT2 = math.sqrt(2.0)


class GroundBasis:
    """The four-state ground sector ordered (00, T, 11, S), the space of an
    effective model; it is its own ``symmetric_basis``."""

    labels = GROUND_LABELS
    dim = 4


GROUND = GroundBasis()


class Blocks(NamedTuple):
    """The pieces of the reduction in the ``symmetric_basis``: H_g on the
    ground sector, H_NH = H - (i/2) sum_k L_k^dag L_k on the excited one
    (its labels in the space's order), V+ from ground to excited, and each
    jump from excited to ground."""

    H_g: np.ndarray
    H_NH: np.ndarray
    V_plus: np.ndarray
    jumps: dict[str, np.ndarray]


def elimination_blocks(params: SystemParams) -> Blocks:
    """The ``Blocks`` of params' model, each ``TERMS`` row's operator rotated
    and restricted to the sectors before the rows are summed."""
    space = make_space(params)
    g = ground_coordinates(space)
    e = np.array([i for i, lb in enumerate(space.labels) if excitation_count(lb)])
    rows, jumps = {"H": [], "V": []}, {}
    for kind, coefficient, operator in TERMS:
        c, op = coefficient(params), operator(space)
        if kind == "jumps":
            jumps.update((name, math.sqrt(c) * l) for name, l in op.items())
        else:
            rows["V" if kind == "V" else "H"].append(c * op)
    h, v, ls = (_rotated(np.array(x), space.labels)
                for x in (rows["H"], rows["V"], list(jumps.values())))
    # each row's half of its Hermitian term, restricted, then summed
    h_g = h[:, g[:, None], g].sum(axis=0)
    h_e = h[:, e[:, None], e].sum(axis=0)
    ls = ls[..., e]  # each jump's columns on the excited sector
    h_nh = h_e + h_e.conj().T \
        - 0.5j * np.tensordot(ls.conj(), ls, axes=([0, 1], [0, 1]))
    return Blocks(h_g + h_g.conj().T, h_nh, v[:, e[:, None], g].sum(axis=0),
                  dict(zip(jumps, ls[:, g])))


class EffectiveModel:
    """Ground-sector effective Hamiltonian and decay operators."""

    ground = GROUND

    def __init__(
        self,
        H_eff: np.ndarray,
        L_effs: dict[str, np.ndarray],
        dressed: bool = False,
        ground_energies: tuple[float, ...] | None = None,
    ):
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


def _reduced(blocks: Blocks, energies: np.ndarray, vectors: np.ndarray) -> tuple:
    """H_eff and the L_effs of the ground states ``vectors`` (columns) of
    energies E_l: each is excited through its shifted propagator, K = sum_l
    (H_NH - E_l)^(-1) V+ v_l v_l^dag, one batched solve; then H_eff = -1/2
    (V- K + h.c.) + H_g and L_eff = L K.  A shifted block with cond > 1e14
    raises ``NumericalInstabilityError``."""
    shifted = blocks.H_NH - energies[:, None, None] * np.eye(len(blocks.H_NH))
    cond = np.linalg.cond(shifted).max()
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalInstabilityError(
            f"excited block is numerically singular (cond ~ {cond:.2e})"
        )
    rhs = (blocks.V_plus @ vectors).T[..., None]
    kernel = np.linalg.solve(shifted, rhs)[..., 0].T @ vectors.conj().T
    half = blocks.V_plus.conj().T @ kernel
    h_eff = -0.5 * (half + half.conj().T) + blocks.H_g
    return h_eff, {name: op @ kernel for name, op in blocks.jumps.items()}


def reduce(params: SystemParams) -> EffectiveModel:
    """Second-order effective model: the dressed reduction with every ground
    energy set to zero, so one propagator H_NH^(-1) serves all ground states."""
    return EffectiveModel(*_reduced(elimination_blocks(params), np.zeros(4), np.eye(4)))


def reduce_dressed(params: SystemParams) -> EffectiveModel:
    """Effective model with ground-state energies kept in the propagators.

    Each ground eigenstate l of energy E_l is excited through the shifted
    propagator (H_NH - E_l)^(-1), the shift covering the whole excited block.
    """
    blocks = elimination_blocks(params)
    energies, vectors = np.linalg.eigh(blocks.H_g)
    return EffectiveModel(*_reduced(blocks, energies, vectors), dressed=True,
                          ground_energies=tuple(float(e) for e in energies))


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
    params: SystemParams, dressed: bool = True
) -> EffectiveModel:
    """Closed-form ground-sector operators of the dark-state scheme.

    With ``dressed=False`` these are the bare engineered-decay operators
    (rates gamma_eff, kappa_eff); with ``dressed=True`` the microwave
    dressing renormalizes the singlet pump to gamma_d, activates the
    chi_a channels, and adds the cavity-mediated feeding of the singlet
    from 00.
    """
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
    return EffectiveModel(h_eff, l_effs, dressed=dressed)
