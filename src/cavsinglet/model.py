"""Rotating-frame Hamiltonians and decay channels for two driven
three-level atoms in a lossy single-mode cavity.

All rates are angular frequencies in units of the mean atom-cavity coupling
``g`` (the presets set g = 1).  The model is one table, ``TERMS``: each row
a real coefficient of the parameters times an operator formed from the
space's cached read-only operators on the retained basis.  That is exact:
every product formed from them (a^dag sigma_1e and a^dag a here, L^dag L in
``vectorize`` and the excited-sector elimination) lowers the excitation
count before it raises it, so its intermediate state is retained whenever
its endpoints are.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import HilbertSpace, build_space

_PARAM_KEYS = (
    "g", "gamma", "kappa", "Omega", "Omega_MW", "Delta", "delta",
    "beta", "phi", "alpha", "b", "n_max",
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemParams:
    """Physical rates, detunings, phases and asymmetries of one model.

    Fields
    ------
    g : mean atom-cavity coupling rate (per-atom couplings g (1 +/- alpha))
    gamma : excited-state population decay rate
    kappa : cavity photon loss rate
    Omega : optical Rabi frequency of the 0 -> e drive
    Omega_MW : microwave/Raman Rabi frequency between the ground states
    Delta : optical drive detuning on the e levels
    delta : cavity detuning
    beta : microwave detuning (energy of level 1)
    phi : relative drive phase between the atoms, stored in [0, 2 pi)
    alpha : relative coupling asymmetry, |alpha| < 1
    b : antisymmetric shift of level 1 (+b on atom 1, -b on atom 2)
    n_max : highest cavity Fock state of the associated space
    """

    g: float = 1.0
    gamma: float = 0.375
    kappa: float = 0.15625
    Omega: float = 0.0
    Omega_MW: float = 0.0
    Delta: float = 0.0
    delta: float = 0.0
    beta: float = 0.0
    phi: float = 0.0
    alpha: float = 0.0
    b: float = 0.0
    n_max: int = 1

    def __post_init__(self):
        for key in _PARAM_KEYS:  # NaN would pass every comparison below
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.g <= 0 or self.gamma <= 0 or self.kappa <= 0:
            raise ValueError("g, gamma and kappa must be positive")
        if self.Omega < 0 or self.Omega_MW < 0:
            raise ValueError("Omega and Omega_MW must be non-negative")
        if abs(self.alpha) >= 1:
            raise ValueError(f"|alpha| must be < 1, got {self.alpha}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)

    def cooperativity(self) -> float:
        return self.g ** 2 / (self.gamma * self.kappa)

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _PARAM_KEYS}


def make_space(params: SystemParams, max_excitations: int | None = 1) -> HilbertSpace:
    """Default simulation space: ground plus singly-excited states."""
    return build_space(params.n_max, max_excitations)


def _pair(upper: str, lower: str, sign: float = 1.0):
    """Half of |upper><lower|_1 + sign |upper><lower|_2."""
    return lambda s: 0.5 * (s.transition(1, upper, lower)
                            + sign * s.transition(2, upper, lower))


def _exchange(site: int):
    return lambda s: s.annihilator().conj().T @ s.transition(site, "1", "e")


# The full model, one row per real coefficient c of the parameters: (part,
# c, operator).  A Hamiltonian row's operator is A, half of its Hermitian
# term c (A + A^dag), and the drive rows ("V") sum to V+.  A "jumps" row's
# operator is its named jump operators L, each entering as sqrt(c) L.
TERMS = (
    ("Hg", lambda p: p.Omega_MW, _pair("1", "0")),
    ("Hg", lambda p: p.beta, _pair("1", "1")),
    ("Hg", lambda p: p.b, _pair("1", "1", -1.0)),
    ("He", lambda p: p.delta,
     lambda s: 0.5 * (s.annihilator().conj().T @ s.annihilator())),
    ("He", lambda p: p.Delta, _pair("e", "e")),
    ("He", lambda p: p.g * (1 + p.alpha), _exchange(1)),
    ("He", lambda p: p.g * (1 - p.alpha), _exchange(2)),
    ("V", lambda p: p.Omega, lambda s: 0.5 * s.transition(1, "e", "0")),
    ("V", lambda p: p.Omega * math.cos(p.phi), lambda s: 0.5 * s.transition(2, "e", "0")),
    ("V", lambda p: p.Omega * math.sin(p.phi),
     lambda s: 0.5j * s.transition(2, "e", "0")),
    ("jumps", lambda p: p.kappa, lambda s: {"kappa": s.annihilator()}),
    ("jumps", lambda p: p.gamma / 2.0, lambda s: {
        f"gamma{t}_{site}": s.transition(site, t, "e") for t in "01" for site in (1, 2)}),
)


@dataclass(frozen=True)
class MasterEquation:
    """A Hamiltonian plus labeled Lindblad operators, full or effective,
    as (dim, dim) arrays on the basis of ``space`` (a ``HilbertSpace`` or
    an effective model's ``GroundBasis``)."""

    space: object
    H: np.ndarray
    lindblads: dict[str, np.ndarray]

    def __post_init__(self):
        for name, op in [("H", self.H), *self.lindblads.items()]:
            if np.shape(op) != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"{name} has shape {np.shape(op)}, not that of a space of "
                    f"dim {self.dim}")
        h = self.H
        if not np.abs(h - h.conj().T).max() <= 1e-12 * max(np.abs(h).max(), 1.0):
            raise ValueError("Hamiltonian is not Hermitian")

    @property
    def dim(self) -> int:
        return self.space.dim


def term_equations(space: HilbertSpace) -> list[MasterEquation]:
    """Each ``TERMS`` row alone at unit coefficient, in order."""
    zero, out = np.zeros((space.dim, space.dim), dtype=complex), []
    for kind, _, operator in TERMS:
        if kind == "jumps":
            out.append(MasterEquation(space, zero, operator(space)))
        else:
            a = operator(space)
            out.append(MasterEquation(space, a + a.conj().T, {}))
    return out
