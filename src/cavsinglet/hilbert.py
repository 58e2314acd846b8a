"""Tensor-product basis and dense complex operator algebra for two
three-level atoms sharing a single cavity mode.

Basis labels are triples ``(atom1, atom2, photon)`` with atomic levels
``"0"``, ``"1"``, ``"e"``.  The ordering is atom1-major, then atom2, then
photon number ascending; a truncation rule may drop labels whose total
excitation number (atoms in ``e`` plus photons) exceeds a cap.  All objects
are immutable after construction and safe to share between threads.

``build_space`` returns one shared ``HilbertSpace`` per ``(n_max,
max_excitations)``.  The space caches its parameter-independent embedded
operators (``atom_op_full``, ``annihilator_full``): each is computed on first
use, marked read-only, and only then published with ``dict.setdefault``, so
no cached array is ever written.  Threads that race on a first use may both
compute it; the first stored copy wins and every caller gets that one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

ATOM_LEVELS = ("0", "1", "e")

Label = tuple[str, str, int]

_SQRT2 = math.sqrt(2.0)


def excitation_count(label: Label) -> int:
    """Total excitation number of a product label."""
    a1, a2, n = label
    return int(a1 == "e") + int(a2 == "e") + n


class HilbertSpace:
    """Product space atom1 x atom2 x cavity with an optional excitation cap.

    Parameters
    ----------
    n_max : int
        Highest Fock state kept for the cavity mode (n_max + 1 Fock states).
    max_excitations : int or None
        Keep only labels with at most this many total excitations; ``None``
        keeps the full product basis.
    """

    def __init__(self, n_max: int, max_excitations: int | None = None):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        if max_excitations is not None and max_excitations < 1:
            raise ValueError(
                f"max_excitations must be >= 1 or None, got {max_excitations}"
            )
        self.n_max = n_max
        self.max_excitations = max_excitations
        self.full_labels: tuple[Label, ...] = tuple(
            (a1, a2, n)
            for a1 in ATOM_LEVELS
            for a2 in ATOM_LEVELS
            for n in range(n_max + 1)
        )
        if max_excitations is None:
            kept = self.full_labels
        else:
            kept = tuple(
                lb for lb in self.full_labels
                if excitation_count(lb) <= max_excitations
            )
        self.labels: tuple[Label, ...] = kept
        self.index_map: dict[Label, int] = {lb: i for i, lb in enumerate(kept)}
        self._full_index = {lb: i for i, lb in enumerate(self.full_labels)}
        self._keep = np.array([self._full_index[lb] for lb in kept], dtype=int)
        self._kept_block = np.ix_(self._keep, self._keep)
        self._operators: dict = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def full_dim(self) -> int:
        return len(self.full_labels)

    def __eq__(self, other):
        if not isinstance(other, HilbertSpace):
            return NotImplemented
        return (
            self.n_max == other.n_max
            and self.max_excitations == other.max_excitations
        )

    def __hash__(self):
        return hash((self.n_max, self.max_excitations))

    def __repr__(self):
        return (
            f"HilbertSpace(n_max={self.n_max}, "
            f"max_excitations={self.max_excitations}, dim={self.dim})"
        )

    def contains(self, label: Label) -> bool:
        return label in self.index_map

    def index(self, label: Label) -> int:
        return self.index_map[label]

    # -- full-space <-> truncated-space transport ---------------------------

    def restrict(self, full_matrix: np.ndarray) -> np.ndarray:
        """Project a full-product-space matrix onto the retained basis."""
        return full_matrix[self._kept_block]

    def expand(self, matrix: np.ndarray) -> np.ndarray:
        """Zero-pad a truncated-space matrix back into the full product space."""
        out = np.zeros((self.full_dim, self.full_dim), dtype=complex)
        out[self._kept_block] = matrix
        return out

    # -- single-site operators in the full product space --------------------

    def _cached(self, key, build) -> np.ndarray:
        """Read-only result of ``build()``, computed once per ``key``."""
        op = self._operators.get(key)
        if op is None:
            op = build()
            op.flags.writeable = False
            op = self._operators.setdefault(key, op)
        return op

    def atom_op_full(self, op3: np.ndarray, site: int) -> np.ndarray:
        """Embed a 3x3 atomic operator at atom ``site`` (1 or 2), full space.

        The result is cached per operator and site, and read-only.
        """
        op3 = np.asarray(op3, dtype=complex)
        if op3.shape != (3, 3):
            raise DimensionMismatchError(f"atomic operator must be 3x3, got {op3.shape}")
        if site not in (1, 2):
            raise ValueError(f"site must be 1 or 2, got {site}")

        def embed():
            atoms = (op3, np.eye(3)) if site == 1 else (np.eye(3), op3)
            return np.kron(np.kron(*atoms), np.eye(self.n_max + 1))

        return self._cached(("atom", site, op3.tobytes()), embed)

    def photon_op_full(self, opf: np.ndarray) -> np.ndarray:
        """Embed an (n_max+1) x (n_max+1) cavity operator, full space."""
        opf = np.asarray(opf, dtype=complex)
        nf = self.n_max + 1
        if opf.shape != (nf, nf):
            raise DimensionMismatchError(
                f"cavity operator must be {nf}x{nf}, got {opf.shape}"
            )
        return np.kron(np.eye(9), opf)

    def annihilator_full(self) -> np.ndarray:
        """Cavity annihilation operator a in the full product space (cached,
        read-only)."""
        return self._cached("a", lambda: self.photon_op_full(
            np.diag(np.sqrt(np.arange(1.0, self.n_max + 1)), k=1)))

    @staticmethod
    def atom_transition(upper: str, lower: str) -> np.ndarray:
        """3x3 matrix |upper><lower| in the (0, 1, e) level ordering."""
        op = np.zeros((3, 3), dtype=complex)
        op[ATOM_LEVELS.index(upper), ATOM_LEVELS.index(lower)] = 1.0
        return op


_SPACES: dict[tuple[int, int | None], HilbertSpace] = {}


def build_space(n_max: int = 1, max_excitations: int | None = None) -> HilbertSpace:
    """The shared tensor-product space for ``(n_max, max_excitations)``, with
    deterministic basis ordering."""
    key = (n_max, max_excitations)
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES.setdefault(key, HilbertSpace(n_max, max_excitations))
    return space


class OperatorMatrix:
    """Dense complex operator over a fixed basis.

    Supports +, -, scalar *, / and the operator product via ``@``.  Mixing
    operators from different spaces raises ``DimensionMismatchError``.
    """

    __slots__ = ("space", "mat")

    def __init__(self, space, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not fit space of dim {space.dim}"
            )
        self.space = space
        self.mat = mat

    def _check(self, other: "OperatorMatrix"):
        if self.space != other.space:
            raise DimensionMismatchError("operators live on different spaces")

    def __add__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat - other.mat)

    def __neg__(self):
        return OperatorMatrix(self.space, -self.mat)

    def __mul__(self, scalar):
        return OperatorMatrix(self.space, self.mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return OperatorMatrix(self.space, self.mat / scalar)

    def __matmul__(self, other):
        self._check(other)
        return OperatorMatrix(self.space, self.mat @ other.mat)

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def norm(self) -> float:
        """Largest absolute entry."""
        return float(np.abs(self.mat).max()) if self.mat.size else 0.0

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(self.norm(), 1.0)
        return float(np.abs(self.mat - self.mat.conj().T).max()) <= tol * scale

    def matrix_element(self, bra: "StateVector", ket: "StateVector") -> complex:
        if bra.space != self.space or ket.space != self.space:
            raise DimensionMismatchError("states live on a different space")
        return complex(bra.vec.conj() @ (self.mat @ ket.vec))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a @ b - b @ a


def tensor_embed(space: HilbertSpace, op: np.ndarray, site: str) -> OperatorMatrix:
    """Place a single-site operator at ``site`` with identities elsewhere,
    projected onto the truncated basis.

    ``site`` is one of ``"atom1"``, ``"atom2"``, ``"cavity"``.  Products of
    separately embedded operators differ from the embedding of the product
    whenever the intermediate state is truncated away; compose in the full
    space first when that matters.
    """
    if site == "atom1":
        full = space.atom_op_full(op, 1)
    elif site == "atom2":
        full = space.atom_op_full(op, 2)
    elif site == "cavity":
        full = space.photon_op_full(op)
    else:
        raise ValueError(f"unknown site {site!r}")
    return OperatorMatrix(space, space.restrict(full))


class StateVector:
    """Unit-norm dense state over a fixed basis."""

    __slots__ = ("space", "vec")

    def __init__(self, space, vec, normalize: bool = False):
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (space.dim,):
            raise DimensionMismatchError(
                f"vector shape {vec.shape} does not fit space of dim {space.dim}"
            )
        nrm = float(np.linalg.norm(vec))
        if normalize:
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / nrm
            nrm = 1.0
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state vector is not normalized, |v| = {nrm!r}")
        self.space = space
        self.vec = vec

    def overlap(self, other: "StateVector") -> complex:
        if self.space != other.space:
            raise DimensionMismatchError("states live on different spaces")
        return complex(self.vec.conj() @ other.vec)

    def outer(self) -> OperatorMatrix:
        return OperatorMatrix(self.space, np.outer(self.vec, self.vec.conj()))


def basis_vector(space: HilbertSpace, label: Label) -> StateVector:
    if not space.contains(label):
        raise ValueError(f"label {label} is excluded from this space")
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(label)] = 1.0
    return StateVector(space, v)


# Two-atom combinations as amplitudes on (atom1, atom2) pairs.  The
# triplet/singlet pairs T/S live in the ground manifold, T0/S0/T1/S1 carry
# one atomic excitation.
_TWO_ATOM_STATES: dict[str, dict[tuple[str, str], complex]] = {
    "00": {("0", "0"): 1.0},
    "11": {("1", "1"): 1.0},
    "T": {("0", "1"): 1 / _SQRT2, ("1", "0"): 1 / _SQRT2},
    "S": {("0", "1"): 1 / _SQRT2, ("1", "0"): -1 / _SQRT2},
    "T0": {("0", "e"): 1 / _SQRT2, ("e", "0"): 1 / _SQRT2},
    "S0": {("0", "e"): 1 / _SQRT2, ("e", "0"): -1 / _SQRT2},
    "T1": {("1", "e"): 1 / _SQRT2, ("e", "1"): 1 / _SQRT2},
    "S1": {("1", "e"): 1 / _SQRT2, ("e", "1"): -1 / _SQRT2},
}

STATE_NAMES = tuple(_TWO_ATOM_STATES) + ("psiS", "psi1")


def named_state(
    space: HilbertSpace,
    name: str,
    photon: int = 0,
    b: float = 0.0,
    Omega_MW: float = 0.0,
) -> StateVector:
    """Return a named two-atom state tensored with a cavity Fock state.

    ``psiS`` and ``psi1`` are the dark and bright combinations of ``11`` and
    ``S`` under a ground Hamiltonian with microwave coupling ``Omega_MW`` and
    antisymmetric level shift ``b``:

        psiS = (sqrt(2) b |11> + Omega_MW |S>) / sqrt(2 b^2 + Omega_MW^2)
        psi1 = (Omega_MW |11> - sqrt(2) b |S>) / sqrt(2 b^2 + Omega_MW^2)

    The sqrt(2) weight on ``b`` makes psiS a zero eigenvector of the actual
    triplet-singlet coupling (microwave matrix element Omega_MW/sqrt(2),
    singlet-triplet matrix element -b); at b = 0 psiS reduces to the singlet.
    """
    if photon < 0 or photon > space.n_max:
        raise ValueError(f"photon number {photon} outside 0..{space.n_max}")
    if name in _TWO_ATOM_STATES:
        pairs = _TWO_ATOM_STATES[name]
    elif name in ("psiS", "psi1"):
        norm = math.sqrt(2.0 * b * b + Omega_MW * Omega_MW)
        if norm == 0.0:
            raise ValueError(f"{name} requires b or Omega_MW nonzero")
        s_amp = _TWO_ATOM_STATES["S"]
        if name == "psiS":
            w11, ws = _SQRT2 * b / norm, Omega_MW / norm
        else:
            w11, ws = Omega_MW / norm, -_SQRT2 * b / norm
        pairs = {("1", "1"): w11}
        for k, amp in s_amp.items():
            pairs[k] = pairs.get(k, 0.0) + ws * amp
    else:
        raise ValueError(f"unknown state name {name!r}")

    v = np.zeros(space.dim, dtype=complex)
    for (a1, a2), amp in pairs.items():
        label = (a1, a2, photon)
        if not space.contains(label):
            raise ValueError(f"state {name!r} with photon={photon} is excluded "
                             f"by the truncation (label {label})")
        v[space.index(label)] = amp
    return StateVector(space, v)
