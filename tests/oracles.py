"""Oracles and validators that only the tests use: the full-size model
builders (the ground, excited, drive and jump operators of the ``TERMS``
rows, summed on the whole space), the plain effective-operator formula on
them, the master equation's right-hand side evaluated directly, the
complex form of a generator, the ``symmetric_basis`` states, the
closed-form propagator entries of the excited sector, S1's closed-form
error against the drive, a scheme's full-model fidelity, S1's rate-model
populations in the bare ground basis, basis vectors,
populations read off density matrices, and the structural checks of density matrices and rate matrices."""

import math
from dataclasses import dataclass

import numpy as np

from cavsinglet.errors import NumericalInstabilityError
from cavsinglet.hilbert import HilbertSpace, Label, excitation_count, named_state
from cavsinglet.liouville import (
    LiouvillianMatrix,
    from_real,
    ground_state_vectors,
    symmetric_basis,
)
from cavsinglet.model import TERMS, MasterEquation, SystemParams, make_space
from cavsinglet.ratemodel import build_rates, evolve
from cavsinglet.schemes import components, full_model, mixture_fidelity


def _hamiltonian(part: str, params: SystemParams, space: HilbertSpace) -> np.ndarray:
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for kind, coefficient, half in TERMS:
        if kind == part:
            a = coefficient(params) * half(space)
            h += a + a.conj().T
    return h


def build_Hg(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Ground-manifold Hamiltonian: microwave coupling plus level-1 shifts.

    H_g = Omega_MW/2 sum_j (|1><0|_j + h.c.) + sum_j (beta + s_j b)|1><1|_j
    with s_1 = +1, s_2 = -1, so that <S|H_g|T> = -b.
    """
    return _hamiltonian("Hg", params, space)


def build_He(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """Excited-manifold Hamiltonian: detunings plus the atom-cavity exchange.

    Per-atom couplings are g (1 + alpha) and g (1 - alpha).
    """
    return _hamiltonian("He", params, space)


def build_V(params: SystemParams, space: HilbertSpace) -> tuple[np.ndarray, np.ndarray]:
    """Optical drive split into the excitation part V+ and V- = V+ adjoint.

    V+ = Omega/2 (|e><0|_1 + e^{i phi} |e><0|_2); phi = pi crosses the
    triplet and singlet sectors, phi = 0 stays within them.
    """
    v_plus = sum(c(params) * half(space) for kind, c, half in TERMS if kind == "V")
    return v_plus, v_plus.conj().T


def build_lindblads(params: SystemParams, space: HilbertSpace) -> dict[str, np.ndarray]:
    """Cavity loss and spontaneous emission with equal gamma/2 branching."""
    return {name: math.sqrt(c(params)) * op
            for kind, c, jumps in TERMS if kind == "jumps"
            for name, op in jumps(space).items()}


def build_hamiltonian(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    v_plus, v_minus = build_V(params, space)
    return build_Hg(params, space) + build_He(params, space) + v_plus + v_minus


def build_master_equation(
    params: SystemParams, space: HilbertSpace | None = None
) -> MasterEquation:
    """Full Lindblad model on the truncated space."""
    if space is None:
        space = make_space(params)
    return MasterEquation(space, build_hamiltonian(params, space),
                          build_lindblads(params, space))


def ground_embedding(space: HilbertSpace) -> np.ndarray:
    """Columns |00>, |T>, |11>, |S> with no photon, on the space's basis."""
    return np.column_stack([named_state(space, name) for name in ("00", "T", "11", "S")])


def excited_indices(space: HilbertSpace) -> np.ndarray:
    return np.array([i for i, lb in enumerate(space.labels) if excitation_count(lb)])


def non_hermitian_hamiltonian(params: SystemParams, space: HilbertSpace) -> np.ndarray:
    """H_g + H_e - (i/2) sum_k L_k^dag L_k on the whole space."""
    decay = sum(op.conj().T @ op for op in build_lindblads(params, space).values())
    return build_Hg(params, space) + build_He(params, space) - 0.5j * decay


def plain_reduction(params: SystemParams) -> tuple[np.ndarray, dict]:
    """The plain effective operators on the ground sector, H_eff = -1/2 V-
    (H_NH^-1 + h.c.) V+ + H_g and L_eff = L H_NH^-1 V+, from the full-size
    product-basis operators, H_NH inverted on its excited block and zero
    elsewhere."""
    space = make_space(params)
    e = excited_indices(space)
    hnh = non_hermitian_hamiltonian(params, space)
    inv = np.zeros_like(hnh)
    inv[np.ix_(e, e)] = np.linalg.inv(hnh[np.ix_(e, e)])
    vp, vm = build_V(params, space)
    embed = ground_embedding(space)
    h = -0.5 * vm @ (inv + inv.conj().T) @ vp + build_Hg(params, space) \
        + build_He(params, space)
    return embed.conj().T @ h @ embed, {
        name: embed.conj().T @ op @ inv @ vp @ embed
        for name, op in build_lindblads(params, space).items()}


# The symmetric-basis labels of the named excited states (a photon added to
# a ground state is "+1"): a pair's first label is its sum, its second its
# difference.
EXCITED_LABELS = {"T0": ("0", "e", 0), "S0": ("e", "0", 0), "T1": ("1", "e", 0),
                  "S1": ("e", "1", 0), "00+1": ("0", "0", 1), "T+1": ("0", "1", 1),
                  "11+1": ("1", "1", 1), "S+1": ("1", "0", 1)}


def excited_position(name: str) -> int:
    """The row of H_NH in ``effective.Blocks`` of a named excited state:
    H_NH's rows are the excited labels in the space's order."""
    space = make_space(SystemParams())
    return [space.labels[i] for i in excited_indices(space)].index(EXCITED_LABELS[name])


def propagator(blocks, bra: str, ket: str) -> complex:
    """<bra| H_NH^-1 |ket> of the named excited states, from the excited
    block of an ``effective.Blocks``."""
    return np.linalg.inv(blocks.H_NH)[excited_position(bra), excited_position(ket)]


def symmetric_states(space) -> np.ndarray:
    """V, whose columns are the ``symmetric_basis`` states, assembled from
    its ``pairs`` (the identity for the ground basis)."""
    pairs = symmetric_basis(space.labels)[0]
    if pairs is None:
        return np.eye(space.dim)
    partner, swap, scale = pairs
    k = np.arange(space.dim)
    v = np.diag(swap)
    v[partner, k] += 1.0
    return v * np.sqrt(np.diag(scale))


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


def rate_populations(params: SystemParams, p0: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    """S1's dressed rate-model populations of (00, T, 11, S), as the rate
    rows of ``trajectory`` were formed: the dressed triplet states over the
    (00, 11, T) span laid out in the ground order, and bare populations mapped
    to dressed ones and back through the squared amplitudes."""
    norm2 = params.Omega_MW ** 2 + params.beta ** 2
    a, b = params.Omega_MW / math.sqrt(norm2), params.beta / math.sqrt(norm2)
    vectors = np.array([
        [-0.5 * (b - 1.0), 0.5 * (b + 1.0), a / math.sqrt(2.0)],   # T+
        [-0.5 * (b + 1.0), 0.5 * (b - 1.0), a / math.sqrt(2.0)],   # T-
        [a / math.sqrt(2.0), -a / math.sqrt(2.0), b],              # Tr
    ])
    u = np.zeros((4, 4))
    u[:3, [0, 2, 1]] = vectors  # columns 00, 11, T of (00, T, 11, S)
    u[3, 3] = 1.0
    weights = u ** 2
    return evolve(build_rates(params, dressed=True), weights @ p0, times) @ weights


def basis_vector(space: HilbertSpace, label: Label) -> np.ndarray:
    if label not in space.index_map:
        raise ValueError(f"label {label} is excluded from this space")
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(label)] = 1.0
    return v


def state_populations(states: np.ndarray, space) -> dict[str, np.ndarray]:
    """``Trajectory.populations``' columns read off density matrices of shape
    (n, dim, dim): <v|rho|v> for the named ground vectors, and the trace's
    remainder as the excited total."""
    out = {f"P_{name}": np.einsum("i,nij,j->n", v.conj(), states, v).real
           for name, v in ground_state_vectors(space).items()}
    out["P_excited_total"] = np.einsum("nii->n", states).real - sum(out.values())
    out["fidelity"] = out["P_S"]
    return out


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


def validate_rates(m: np.ndarray) -> np.ndarray:
    """The rate matrix m itself if its off-diagonal rates are >= 0 and its
    columns sum to 0."""
    off = m - np.diag(np.diag(m))
    if off.min() < -1e-14:
        raise ValueError("negative off-diagonal rate")
    if np.abs(m.sum(axis=0)).max() > 1e-14 * max(np.abs(m).max(), 1.0):
        raise ValueError("columns do not sum to zero")
    return m
