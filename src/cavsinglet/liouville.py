"""Dense Liouvillian machinery: vectorization, steady states, spectra,
exact time evolution and fidelities.

Vectorization is column-stacking throughout: ``vec(rho) =
rho.reshape(-1, order="F")`` and the superoperator of ``A rho B`` is
``kron(B.T, A)``.  Factorizations run on a generator's real form in the
orthonormal Hermitian operator basis (see ``LiouvillianMatrix``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NotHermiticityPreservingError,
    NumericalInstabilityError,
)
from .hilbert import StateVector, excitation_count, named_state
from .model import MasterEquation

# Above this condition number of the eigenvector matrix, V (c * exp(w t))
# loses the digits the trace check relies on.  Every scheme over the
# domain the CLI accepts stays below 4e3 (S1 at C = 1000, Omega = gamma/2).
MAX_EIGENVECTOR_COND = 1e8

# Largest |tr(rho(t)) - 1| tolerated on any propagated sample.
TRACE_TOL = 1e-8

# Trace distance to the steady state at which ``time_to_convergence`` stops.
CONVERGED_DISTANCE = 0.01

# Largest real or imaginary part of conj(L) - P L P, relative to L's, that
# the real form of a hand-built generator may drop (P swaps rho_ij and
# rho_ji).
HERMITICITY_TOL = 1e-12

# Sample times evaluated per block, so that the temporaries stay a fraction
# of the (times x dim^2) result.
TIME_CHUNK = 128


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of ``vec``; a stack of vectors (..., dim^2) gives (..., dim, dim)."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(v.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


@dataclass(frozen=True)
class Eigensystem:
    """Right eigenpairs ``L V = V diag(values)`` of a diagonalizable generator."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, blocks) -> "Eigensystem":
        """Eigenpairs of sum W M W^T from its blocks ``[(W, M), ...]`` (W
        orthonormal, ``None`` for a lone block); ``NumericalInstabilityError``
        if the block-diagonal V has cond(V) above ``MAX_EIGENVECTOR_COND``."""
        pairs = [np.linalg.eig(m) for _, m in blocks]
        sv = np.concatenate([np.linalg.svd(v, compute_uv=False) for _, v in pairs])
        cond = sv.max() / sv.min()
        if not cond <= MAX_EIGENVECTOR_COND:
            raise NumericalInstabilityError(
                f"generator is not safely diagonalizable: cond(V) = {cond:.3e} "
                f"exceeds {MAX_EIGENVECTOR_COND:.0e}"
            )
        vectors = np.hstack([v if w is None else w @ v
                             for (w, _), (_, v) in zip(blocks, pairs)])
        return cls(np.concatenate([w for w, _ in pairs]).astype(complex, copy=False),
                   vectors.astype(complex, copy=False))

    def solution(self, v0: np.ndarray):
        """Exact solution of dv/dt = L v with v(0) = v0.

        Solves V c = v0 once and returns a function mapping an array of
        times to the rows v(t) = V (c * exp(w t)), shape (len(times), n).
        """
        coeff = np.linalg.solve(self.vectors, np.asarray(v0, dtype=complex))

        def at(times) -> np.ndarray:
            t = np.asarray(times, dtype=float)
            out = np.empty((len(t), len(coeff)), dtype=complex)
            for i in range(0, len(t), TIME_CHUNK):
                x = np.exp(np.multiply.outer(t[i:i + TIME_CHUNK], self.values))
                x *= coeff
                np.matmul(x, self.vectors.T, out=out[i:i + TIME_CHUNK])
            return out

        return at


@functools.lru_cache(maxsize=None)
def _hermitian_order(d: int) -> tuple[np.ndarray, np.ndarray]:
    """vec indices of rho_ii, then of rho_ij and of rho_ji for i < j (the
    entries of vec(rho) that each real coordinate reads), and the flat
    indices of a d^2 x d^2 matrix taken in that order on both axes."""
    i, j = np.triu_indices(d, 1)
    order = np.concatenate([np.arange(d) * (d + 1), i + j * d, j + i * d])
    return _readonly(order), _readonly(order[:, None] * (d * d) + order)


def from_real(x: np.ndarray, d: int) -> np.ndarray:
    """T^H x along axis 0: real coordinates (or complex combinations of
    them, such as eigenvectors) back to column-stacked vectors."""
    n = (d * d - d) // 2
    re = math.sqrt(0.5) * x[d:d + n]
    im = 1j * math.sqrt(0.5) * x[d + n:]
    out = np.empty(x.shape, dtype=complex)
    out[_hermitian_order(d)[0]] = np.concatenate([x[:d], re + im, re - im])
    return out


def _in_hermitian_order(mat: np.ndarray, d: int) -> np.ndarray:
    return mat.take(_hermitian_order(d)[1])


def _hermiticity_defect(m: np.ndarray, d: int) -> float:
    """Largest real or imaginary part of conj(L) - P L P, with P swapping
    rho_ij and rho_ji, for L given as ``_in_hermitian_order`` returns it:
    what the real form drops.  Block by block, P swaps upper and lower."""
    n = (d * d - d) // 2
    D, U, Lo = slice(0, d), slice(d, d + n), slice(d + n, None)
    return max(np.abs(m[D, D].imag).max(), *(
        np.abs((m[a] - m[b].conj()).view(float)).max()
        for a, b in (((D, Lo), (D, U)), ((Lo, D), (U, D)),
                     ((Lo, U), (U, Lo)), ((Lo, Lo), (U, U)))))


def _real_form(m: np.ndarray, d: int) -> np.ndarray:
    """R = T L T^H, with T the unitary map from vec(rho) to the real
    coordinates (rho_ii, sqrt2 Re rho_ij, sqrt2 Im rho_ij for i < j), for L
    given as ``_in_hermitian_order`` returns it.

    R is real and has the spectrum of L exactly when L preserves
    Hermiticity, conj(L) = P L P.  It is read off the diag and upper rows
    of L by index arithmetic; the lower rows are taken to be their
    conjugate images, as ``_hermiticity_defect`` checks.
    """
    n = (d * d - d) // 2
    D, U, Lo = slice(0, d), slice(d, d + n), slice(d + n, None)
    r2 = math.sqrt(2.0)
    du, ud, uu, ul = m[D, U], m[U, D], m[U, U], m[U, Lo]
    out = np.empty((d * d, d * d))
    out[D, D] = m[D, D].real
    np.multiply(r2, du.real, out=out[D, U])
    np.multiply(-r2, du.imag, out=out[D, Lo])
    np.multiply(r2, ud.real, out=out[U, D])
    np.multiply(r2, ud.imag, out=out[Lo, D])
    np.add(uu.real, ul.real, out=out[U, U])
    np.subtract(ul.imag, uu.imag, out=out[U, Lo])
    np.add(uu.imag, ul.imag, out=out[Lo, U])
    np.subtract(uu.real, ul.real, out=out[Lo, Lo])
    return _readonly(out)


_SECTORS: dict = {}  # per space, published with setdefault like its operators


def _exchange_sectors(space) -> tuple:
    """``(take, sign, (W_even, W_odd))`` per candidate exchange symmetry U,
    the atom swap and the swap times (-1)^excitations (none without atoms).

    (U rho U^H)_ij = s_i s_j rho_pi(i)pi(j) is, on the real coordinates, the
    signed permutation (Q x)_k = sign_k x_perm(k); an Im coordinate's sign
    also flips when pi(i) > pi(j).  ``R.take(take)`` is R_perm(k)perm(l).
    W_even and W_odd span Q = +1 and -1 with fixed coordinates and sums or
    differences of swapped pairs, in coordinate order, so W_even starts
    with rho_00."""
    cached = _SECTORS.get(space)
    if cached is not None or not all(isinstance(lb, tuple) for lb in space.labels):
        return cached or ()
    d = space.dim
    swap = np.array([space.index_map[(b, a, n)] for a, b, n in space.labels])
    i, j = np.triu_indices(d, 1)
    si, sj = swap[i], swap[j]
    pair = np.empty((d, d), dtype=int)
    pair[i, j] = pair[j, i] = np.arange(len(i))
    perm = np.concatenate([swap, d + pair[si, sj], d + len(i) + pair[si, sj]])
    take = _readonly(perm[:, None] * (d * d) + perm)
    out, excited = [], (-1.0) ** np.array([excitation_count(lb) for lb in space.labels])
    for s in (np.ones(d), excited):
        sign = _readonly(np.concatenate(
            [np.ones(d), s[i] * s[j], np.where(si > sj, -1.0, 1.0) * s[i] * s[j]]))
        bases = []
        for parity in (1.0, -1.0):
            cols, partner, flip = _sector_coordinates(perm, sign, parity)
            h = np.where(partner == cols, 0.5, math.sqrt(0.5))
            w = np.zeros((d * d, len(cols)))
            w[cols, np.arange(len(cols))] = h
            w[partner, np.arange(len(cols))] += flip * h
            bases.append(_readonly(w))
        out.append((take, sign, tuple(bases)))
    return _SECTORS.setdefault(space, tuple(out))


def _sector_coordinates(perm, sign, parity: float) -> tuple:
    """Per basis vector of Q's ``parity`` sector, in coordinate order: its
    leading coordinate k, the partner perm(k) and the partner's relative
    sign parity sign_k.  The vector is e_k for a fixed coordinate (perm(k) =
    k), else (e_k + flip e_perm(k)) / sqrt 2."""
    k = np.arange(len(perm))
    lead = k[(perm > k) | ((perm == k) & (sign == parity))]
    return lead, perm[lead], parity * sign[lead]


@dataclass(frozen=True)
class LiouvillianMatrix:
    """dim^2 x dim^2 generator acting on column-stacked density matrices.

    ``mat`` is the complex column-stacked matrix.  Every factorization runs
    on the ``blocks()`` of its real form ``real_form()`` = T L T^H in the
    orthonormal Hermitian operator basis, a unitary similarity, so spectra
    and eigenvector conditioning are those of L at real-arithmetic cost.
    The blocks are the two exchange sectors (80 + 64 or 72 + 72 for the
    default 144) when the atom swap, alone or times (-1)^excitations,
    commutes with L, else R itself.  All are computed on first use and
    kept: ``bordered_inverse()`` serves the steady state and the uniqueness
    test, ``eigensystem()`` time evolution, and ``eigenvalues()`` gaps, from
    the eigensystem when one was built first, else from the cheaper ``eigvals``.
    """

    space: object
    mat: np.ndarray
    _real: np.ndarray | None = field(default=None, init=False, repr=False)
    _blocks: list | None = field(default=None, init=False, repr=False)
    _bordered: tuple | None = field(default=None, init=False, repr=False)
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False)
    _eigensystem: Eigensystem | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    def real_form(self) -> np.ndarray:
        """The real form (read-only); see ``_real_form``.

        Raises ``NotHermiticityPreservingError`` if ``mat`` misses
        conj(L) = P L P by more than ``HERMITICITY_TOL``, since the real
        form would drop that part.
        """
        if self._real is None:
            m = _in_hermitian_order(self.mat, self.dim)
            dropped = _hermiticity_defect(m, self.dim)
            if not dropped <= HERMITICITY_TOL * np.abs(m.view(float)).max():
                raise NotHermiticityPreservingError(
                    f"conj(L) differs from P L P by {dropped:.3e}: "
                    f"not a Lindblad generator")
            object.__setattr__(self, "_real", _real_form(m, self.dim))
        return self._real

    def blocks(self) -> list:
        """``(W, M)`` pairs with R = sum W M W^T: the blocks W^T R W of the
        first ``_exchange_sectors`` symmetry Q whose dropped coupling,
        (R - Q R Q^T) / 2, is within ``HERMITICITY_TOL`` of max|R| (a drive
        phase of pi misses exactness by ~1e-17), else ``[(None, R)]``.
        W^T R W = W^T S W for the part S of R that commutes with Q, so its
        entries are (S_kl + flip_l S_k,perm(l)) c_k c_l on the leading
        coordinates of ``_sector_coordinates``, c = sqrt(1/2) where fixed,
        else 1: no matrix product."""
        if self._blocks is None:
            r = self.real_form()
            blocks, sectors = [(None, r)], _exchange_sectors(self.space)
            if sectors:  # both candidates permute alike; only their signs differ
                gathered = r.take(sectors[0][0])
                perm = sectors[0][0][0] % len(r)  # take[0] = perm[0] n + perm
                tol = 2 * HERMITICITY_TOL * max(r.max(), -r.min())
            for take, sign, bases in sectors:
                sym = sign[:, None] * gathered
                sym *= sign  # Q R Q^T
                sym -= r
                if max(sym.max(), -sym.min()) <= tol:
                    sym *= 0.5
                    sym += r  # S = (R + Q R Q^T) / 2
                    blocks = []
                    for parity, w in zip((1.0, -1.0), bases):
                        lead, partner, flip = _sector_coordinates(perm, sign, parity)
                        rows = sym[lead]
                        c = np.where(partner == lead, math.sqrt(0.5), 1.0)
                        m = (rows[:, partner] * flip + rows[:, lead]) * c[:, None]
                        m *= c
                        blocks.append((w, _readonly(m)))
                    break
            object.__setattr__(self, "_blocks", blocks)
        return self._blocks

    def bordered_inverse(self) -> list:
        """``(W, B^-1)`` per block of B, the real form with row 0 (rho_00,
        first in the first block) replaced by the trace functional, both
        exchange-invariant, so B splits as R does.

        Column 0 of the first inverse is the unit-trace stationary state (the
        trace-bordered solve of QuTiP's ``steadystate``).  It is unique iff
        the exact reciprocal condition number 1 / (||B||_1 ||B^-1||_1) of the
        block-diagonal B is at least machine epsilon; otherwise, or if B is
        singular, ``DegenerateSteadyStateError`` reports the nullity of L.
        """
        if self._bordered is None:
            bases, bs = zip(*[(w, m.copy()) for w, m in self.blocks()])
            trace = (np.arange(len(self.mat)) < self.dim).astype(float)
            bs[0][0] = trace if bases[0] is None else trace @ bases[0]
            try:
                invs = [_readonly(np.linalg.inv(b)) for b in bs]
                rcond = 1.0 / (max(np.linalg.norm(b, 1) for b in bs)
                               * max(np.linalg.norm(inv, 1) for inv in invs))
                pairs = list(zip(bases, invs))
            except np.linalg.LinAlgError:
                pairs, rcond = None, 0.0
            object.__setattr__(self, "_bordered", (pairs, float(rcond)))
        pairs, rcond = self._bordered
        if not rcond >= np.finfo(float).eps:
            raise DegenerateSteadyStateError(
                self.mat.shape[0] - int(np.linalg.matrix_rank(self.real_form())))
        return pairs

    def eigenvalues(self) -> np.ndarray:
        """The eigensystem's values if it exists, else the blocks' ``eigvals``
        in block order; kept."""
        if self._eigenvalues is None:
            if self._eigensystem is not None:
                values = self._eigensystem.values
            else:
                try:
                    values = np.concatenate(
                        [np.linalg.eigvals(m) for _, m in self.blocks()]).astype(complex)
                except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                    raise NumericalInstabilityError(
                        f"eigendecomposition failed: {exc}") from exc
            object.__setattr__(self, "_eigenvalues", _readonly(values))
        return self._eigenvalues

    def eigensystem(self) -> Eigensystem:
        """Eigenpairs of the blocks, with the eigenvectors mapped back to
        column-stacked vectors (cond(V) is unchanged: T and W are unitary)."""
        if self._eigensystem is None:
            es = Eigensystem.of(self.blocks())
            vectors = from_real(es.vectors, self.dim)
            object.__setattr__(self, "_eigensystem", Eigensystem(es.values, vectors))
        return self._eigensystem


def apply_generator(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """Direct evaluation of -i[H, rho] plus the dissipators.

    Kept as an independent oracle for the vectorized generator.
    """
    h = me.H.mat
    out = -1j * (h @ rho - rho @ h)
    for op in me.lindblads.values():
        l = op.mat
        ldl = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def vectorize(me: MasterEquation) -> LiouvillianMatrix:
    """Column-stacking superoperator of the master equation,

        L = sum_k conj(L_k) (x) L_k - i I (x) H_eff + i conj(H_eff) (x) I,

    with H_eff = H - (i/2) sum_k L_k^dag L_k, assembled in one pass.

    Seen as a (d, d, d, d) array ``[i, j, k, l]`` (row ``i d + j``, column
    ``k d + l``), the jump sum is one (K x d^2)^H (K x d^2) product laid out
    as ``[i, k, j, l]``.  There the two H_eff terms are strided row and
    column slices (``i == k`` and ``j == l``), added before one transposing
    copy, so no Kronecker product is formed.
    """
    h = me.H.mat
    d = h.shape[0]
    jumps = np.array([op.mat for op in me.lindblads.values()],
                     dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), jumps, axes=([0, 1], [0, 1]))
    flat = jumps.reshape(-1, d * d)
    # (flat^H flat)[(i, k), (j, l)] = sum_n conj(L_n[i, k]) L_n[j, l]
    blocks = flat.conj().T @ flat
    blocks[::d + 1] -= 1j * h_eff.reshape(-1)
    blocks[:, ::d + 1] += 1j * h_eff.conj().reshape(-1, 1)
    mat = blocks.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    lv = LiouvillianMatrix(space=me.space, mat=mat)
    # ``MasterEquation`` checks that H is Hermitian, so L preserves
    # Hermiticity by construction and its real form needs no check
    object.__setattr__(lv, "_real", _real_form(_in_hermitian_order(mat, d), d))
    return lv


@dataclass(frozen=True)
class SpectrumReport:
    """Liouvillian eigenvalues sorted by |Re| ascending, with the gap and,
    for a generator split by ``LiouvillianMatrix.blocks``, the gap of each
    sector (even, odd): the stationary eigenvalue is even."""

    eigenvalues: np.ndarray
    gap: float
    sectors: tuple[float, ...] = ()


def spectral_gap(lv: LiouvillianMatrix) -> SpectrumReport:
    """|Re| of the slowest decaying eigenvalue of the generator.

    Uniqueness of the stationary state is checked on
    ``lv.bordered_inverse()`` (``DegenerateSteadyStateError`` otherwise);
    the single eigenvalue with the smallest |Re| is then the stationary one,
    and the next gives the gap.
    """
    lv.bordered_inverse()
    eigs = lv.eigenvalues()
    even, *odd = np.split(np.abs(eigs.real),
                          np.cumsum([len(m) for _, m in lv.blocks()])[:-1])
    sectors = (float(np.sort(even)[1]), float(odd[0].min())) if odd else ()
    eigs = eigs[np.argsort(np.abs(eigs.real), kind="stable")]
    return SpectrumReport(eigenvalues=eigs, gap=float(abs(eigs[1].real)),
                          sectors=sectors)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, (numerically) positive state."""

    space: object
    mat: np.ndarray

    def validate(self) -> "DensityMatrix":
        scale = max(float(np.abs(self.mat).max()), 1e-300)
        if float(np.abs(self.mat - self.mat.conj().T).max()) > 1e-10 * max(scale, 1.0):
            raise NumericalInstabilityError("density matrix is not Hermitian")
        if abs(np.trace(self.mat) - 1.0) > 1e-10:
            raise NumericalInstabilityError("density matrix trace differs from 1")
        w = np.linalg.eigvalsh(0.5 * (self.mat + self.mat.conj().T))
        if w.min() < -1e-8:
            raise NumericalInstabilityError(
                f"density matrix has negative eigenvalue {w.min():.3e}"
            )
        return self


def _is_ground_basis(space) -> bool:
    return all(isinstance(lb, str) for lb in space.labels)


def ground_state_vectors(space) -> dict[str, np.ndarray]:
    """Unit vectors of the four zero-photon ground combinations."""
    names = ("00", "T", "11", "S")
    if _is_ground_basis(space):
        out = {}
        for name in names:
            v = np.zeros(space.dim, dtype=complex)
            v[space.labels.index(name)] = 1.0
            out[name] = v
        return out
    return {name: named_state(space, name, photon=0).vec for name in names}


def mixed_ground_state(space) -> DensityMatrix:
    """Equal classical mixture of 00, T, 11 and S (the standard start)."""
    vectors = ground_state_vectors(space)
    mat = sum(np.outer(v, v.conj()) for v in vectors.values()) / 4.0
    return DensityMatrix(space, mat)


def steady_state(lv: LiouvillianMatrix) -> DensityMatrix:
    """Unique stationary state, column 0 of ``lv.bordered_inverse()[0]``
    mapped back to vec form, Hermitized and trace-normalized.

    Raises ``NumericalInstabilityError`` if the solution leaves a relative
    residual ||L x|| (on the complex ``lv.mat``) above 1e-10 ||L|| ||x|| or
    has an eigenvalue below -1e-6.
    """
    w, inv = lv.bordered_inverse()[0]
    x = from_real(inv[:, 0] if w is None else w @ inv[:, 0], lv.dim)
    residual = np.linalg.norm(lv.mat @ x)
    bound = 1e-10 * np.linalg.norm(lv.mat, 1) * np.linalg.norm(x)
    if not residual <= bound:
        raise NumericalInstabilityError(
            f"steady-state residual {residual:.3e} exceeds {bound:.3e}"
        )
    rho = unvec(x, lv.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-6:
        raise NumericalInstabilityError(
            f"steady state has negative eigenvalue {w.min():.3e}"
        )
    return DensityMatrix(lv.space, rho)


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix evolution."""

    space: object
    times: np.ndarray
    states: np.ndarray  # (n_samples, dim, dim)
    dt: float

    def final(self) -> DensityMatrix:
        return DensityMatrix(self.space, self.states[-1])

    def populations(self) -> dict[str, np.ndarray]:
        """Ground populations, total excited population and singlet fidelity."""
        vectors = ground_state_vectors(self.space)
        out: dict[str, np.ndarray] = {"t": self.times}
        total = np.zeros(len(self.times))
        for name, v in vectors.items():
            p = np.einsum("i,nij,j->n", v.conj(), self.states, v).real
            out[f"P_{name}"] = p
            total += p
        out["P_excited_total"] = np.einsum("nii->n", self.states).real - total
        out["fidelity"] = out["P_S"]
        return out


def sample_grid(t_final: float, dt: float) -> tuple[np.ndarray, float]:
    """Uniform sample times on [0, t_final] and their step.

    ``dt`` only places the samples: the run is cut into
    ``n = ceil(t_final / dt)`` steps of ``h = t_final / n`` and sampled
    every ``n // 1000`` steps and at the last one.
    """
    if dt <= 0 or t_final < 0:
        raise ValueError(f"need dt > 0 and t_final >= 0, got {dt}, {t_final}")
    if t_final == 0:
        return np.array([0.0]), dt
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    steps = np.arange(0, n_steps + 1, max(1, n_steps // 1000))
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps * h, h


def propagate(
    me: MasterEquation,
    rho0: DensityMatrix,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Exact evolution of the master equation on the ``sample_grid``, from
    the generator's eigensystem, so the states carry no step-size error; a
    ``NumericalInstabilityError`` is raised if any sample's trace leaves 1
    by more than ``TRACE_TOL``.
    """
    times, h = sample_grid(t_final, dt)
    if rho0.space != me.space:
        raise DimensionMismatchError("initial state lives on a different space")
    if t_final == 0:
        return Trajectory(me.space, times, rho0.mat[np.newaxis].copy(), h)
    states = evolve_spectral(vectorize(me), rho0, times)
    drift = float(np.abs(np.einsum("nii->n", states) - 1.0).max())
    if not drift <= TRACE_TOL:
        raise NumericalInstabilityError(
            f"trace drifted by {drift:.3e} (> {TRACE_TOL:.0e}) during evolution"
        )
    return Trajectory(me.space, times, states, h)


def fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi>, clamped to [0, 1]."""
    if rho.space != psi.space:
        raise DimensionMismatchError("state and density matrix spaces differ")
    value = complex(psi.vec.conj() @ (rho.mat @ psi.vec))
    if abs(value.imag) > 1e-10:
        warnings.warn(
            f"fidelity has imaginary part {value.imag:.3e}", stacklevel=2
        )
    return float(min(1.0, max(0.0, value.real)))


def evolve_spectral(lv: LiouvillianMatrix, rho0: DensityMatrix, times) -> np.ndarray:
    """States exp(L t) rho0 at the given times, shape (len(times), dim, dim),
    from the generator's cached eigensystem."""
    return unvec(lv.eigensystem().solution(vec(rho0.mat))(times), lv.dim)


def time_to_convergence(
    lv: LiouvillianMatrix,
    rho0: DensityMatrix,
    rho_ss: DensityMatrix,
) -> float:
    """First time with trace distance to the steady state <= 0.01.

    The eigensystem is built before the gap is read, so the gap comes from
    its eigenvalues and the generator is decomposed once.
    """
    solution = lv.eigensystem().solution(vec(rho0.mat))
    gap = spectral_gap(lv).gap

    def distances(times) -> np.ndarray:
        w = np.linalg.eigvalsh(unvec(solution(times), lv.dim) - rho_ss.mat)
        return 0.5 * np.abs(w).sum(axis=-1)

    t_hi = 30.0 / gap
    grid = np.geomspace(t_hi * 1e-4, t_hi, 160)
    for i, dist in enumerate(distances(grid)):
        if dist <= CONVERGED_DISTANCE:
            lo = 0.0 if i == 0 else grid[i - 1]
            hi = grid[i]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if distances([mid])[0] <= CONVERGED_DISTANCE:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-3 * hi:
                    break
            return float(hi)
    raise NumericalInstabilityError(
        f"no convergence to trace distance {CONVERGED_DISTANCE} within t = {t_hi:.3e}"
    )


def trajectory_csv_rows(traj: Trajectory) -> tuple[list[str], list[list[float]]]:
    """Header and rows for the standard trajectory CSV layout."""
    pops = traj.populations()
    header = ["t", "P_00", "P_T", "P_11", "P_S", "P_excited_total", "fidelity"]
    return header, np.column_stack([pops[c] for c in header]).tolist()
