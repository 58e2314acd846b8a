"""Tensor-product basis, single-site operators and named states for two
three-level atoms sharing a single cavity mode.  Operators and states are
plain complex arrays on a space's retained basis.

Basis labels are triples ``(atom1, atom2, photon)`` with atomic levels
``"0"``, ``"1"``, ``"e"``.  The ordering is atom1-major, then atom2, then
photon number ascending; a truncation rule may drop labels whose total
excitation number (atoms in ``e`` plus photons) exceeds a cap.  All objects
are immutable after construction and safe to share between threads.

``build_space`` returns one shared ``HilbertSpace`` per ``(n_max,
max_excitations)``.  The space builds its parameter-independent operators
(``transition``, ``annihilator``) directly on the retained labels: each is
computed on first use, marked read-only, and only then published with
``dict.setdefault``, so no cached array is ever written.  Threads that race
on a first use may both compute it; the first stored copy wins and every
caller gets that one.
"""

from __future__ import annotations

import math

import numpy as np

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
        self.labels: tuple[Label, ...] = tuple(
            (a1, a2, n)
            for a1 in ATOM_LEVELS
            for a2 in ATOM_LEVELS
            for n in range(n_max + 1)
            if max_excitations is None
            or excitation_count((a1, a2, n)) <= max_excitations
        )
        self.index_map: dict[Label, int] = {lb: i for i, lb in enumerate(self.labels)}
        self._operators: dict = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return (
            f"HilbertSpace(n_max={self.n_max}, "
            f"max_excitations={self.max_excitations}, dim={self.dim})"
        )

    def index(self, label: Label) -> int:
        return self.index_map[label]

    # -- single-site operators on the retained basis -------------------------

    def _cached(self, key, image) -> np.ndarray:
        """Read-only matrix taking each retained label to ``amp |out>``, where
        ``(out, amp) = image(label)``, and to nothing unless ``out`` is
        retained; built once per ``key``."""
        op = self._operators.get(key)
        if op is None:
            op = np.zeros((self.dim, self.dim), dtype=complex)
            for j, label in enumerate(self.labels):
                out, amp = image(label)
                if amp and out in self.index_map:
                    op[self.index_map[out], j] = amp
            op.flags.writeable = False
            op = self._operators.setdefault(key, op)
        return op

    def transition(self, site: int, upper: str, lower: str) -> np.ndarray:
        """|upper><lower| on atom ``site`` (1 or 2), identity elsewhere
        (cached, read-only)."""
        if site not in (1, 2) or not {upper, lower} <= set(ATOM_LEVELS):
            raise ValueError(f"no transition |{upper}><{lower}| on atom {site}")

        def image(label):
            out = list(label)
            out[site - 1] = upper
            return tuple(out), float(label[site - 1] == lower)

        return self._cached(("atom", site, upper, lower), image)

    def annihilator(self) -> np.ndarray:
        """Cavity annihilation operator a (cached, read-only)."""
        return self._cached("a", lambda lb: ((lb[0], lb[1], lb[2] - 1), math.sqrt(lb[2])))


_SPACES: dict[tuple[int, int | None], HilbertSpace] = {}


def build_space(n_max: int = 1, max_excitations: int | None = None) -> HilbertSpace:
    """The shared tensor-product space for ``(n_max, max_excitations)``, with
    deterministic basis ordering."""
    key = (n_max, max_excitations)
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES.setdefault(key, HilbertSpace(n_max, max_excitations))
    return space


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


def named_state(space: HilbertSpace, name: str, photon: int = 0) -> np.ndarray:
    """Return a named two-atom state tensored with a cavity Fock state, as
    a unit vector on the basis of ``space``."""
    if photon < 0 or photon > space.n_max:
        raise ValueError(f"photon number {photon} outside 0..{space.n_max}")
    if name not in _TWO_ATOM_STATES:
        raise ValueError(f"unknown state name {name!r}")
    v = np.zeros(space.dim, dtype=complex)
    for (a1, a2), amp in _TWO_ATOM_STATES[name].items():
        label = (a1, a2, photon)
        if label not in space.index_map:
            raise ValueError(f"state {name!r} with photon={photon} is excluded "
                             f"by the truncation (label {label})")
        v[space.index(label)] = amp
    return v
