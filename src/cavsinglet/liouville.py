"""Dense Liouvillian machinery: vectorization, steady states, spectra,
exact time evolution and fidelities.

Vectorization is column-stacking throughout: ``vec(rho) =
rho.reshape(-1, order="F")`` and the superoperator of ``A rho B`` is
``kron(B.T, A)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericalInstabilityError,
)
from .hilbert import StateVector, named_state
from .model import MasterEquation

# Above this condition number of the eigenvector matrix, V (c * exp(w t))
# loses the digits the trace check relies on.  Every scheme over the
# domain the CLI accepts stays below 4e3 (S1 at C = 1000, Omega = gamma/2).
MAX_EIGENVECTOR_COND = 1e8

# Largest |tr(rho(t)) - 1| tolerated on any propagated sample.
TRACE_TOL = 1e-8

# Trace distance to the steady state at which ``time_to_convergence`` stops.
CONVERGED_DISTANCE = 0.01

# Sample times evaluated per block, so that the temporaries stay a fraction
# of the (times x dim^2) result.
TIME_CHUNK = 128


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
    def of(cls, mat: np.ndarray) -> "Eigensystem":
        """Raises ``NumericalInstabilityError`` for a (nearly) defective ``mat``."""
        # numpy's LAPACK, like the matrix products that use the result:
        # calling scipy's copy as well would touch a second BLAS workspace.
        values, vectors = np.linalg.eig(mat)
        cond = np.linalg.cond(vectors)
        if not cond <= MAX_EIGENVECTOR_COND:
            raise NumericalInstabilityError(
                f"generator is not safely diagonalizable: cond(V) = {cond:.3e} "
                f"exceeds {MAX_EIGENVECTOR_COND:.0e}"
            )
        return cls(values.astype(complex, copy=False),
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


@dataclass(frozen=True)
class LiouvillianMatrix:
    """dim^2 x dim^2 generator acting on column-stacked density matrices.

    Its factorizations are computed on first use and kept: ``bordered_lu()``
    serves the steady state and the uniqueness test, ``eigensystem()`` serves
    time evolution, and ``eigenvalues()`` serves gaps, from the eigensystem
    when one was built first and otherwise from ``eigvals`` (about half the
    cost of ``eig``).
    """

    space: object
    mat: np.ndarray
    _bordered: tuple | None = field(default=None, init=False, repr=False)
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False)
    _eigensystem: Eigensystem | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    def bordered_lu(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of L with row 0 replaced by the trace functional vec(I).

        Solving against e_0 gives the unit-trace stationary state (the
        trace-bordered solve of QuTiP's ``steadystate``).  The stationary
        state is unique iff the factors' reciprocal condition estimate is at
        least machine epsilon; otherwise ``DegenerateSteadyStateError``
        reports the nullity of L.
        """
        if self._bordered is None:
            a = self.mat.copy()
            a[0] = vec(np.eye(self.dim))
            lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
            gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
            rcond, _ = gecon(lu, np.linalg.norm(a, 1))
            object.__setattr__(self, "_bordered", (lu, piv, float(rcond)))
        lu, piv, rcond = self._bordered
        if not rcond >= np.finfo(float).eps:
            raise DegenerateSteadyStateError(
                self.mat.shape[0] - int(np.linalg.matrix_rank(self.mat)))
        return lu, piv

    def eigenvalues(self) -> np.ndarray:
        """The eigensystem's values if it exists, else ``eigvals``; kept."""
        if self._eigenvalues is None:
            if self._eigensystem is not None:
                values = self._eigensystem.values
            else:
                try:
                    values = scipy.linalg.eigvals(self.mat)
                except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                    raise NumericalInstabilityError(
                        f"eigendecomposition failed: {exc}") from exc
            values.flags.writeable = False
            object.__setattr__(self, "_eigenvalues", values)
        return self._eigenvalues

    def eigensystem(self) -> Eigensystem:
        if self._eigensystem is None:
            object.__setattr__(self, "_eigensystem", Eigensystem.of(self.mat))
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
    ``k d + l``), the jump sum is one (K x d^2)^H (K x d^2) product and the
    two H_eff terms are added into the ``[i, :, i, :]`` and ``[:, j, :, j]``
    slices, so no Kronecker product is formed.
    """
    h = me.H.mat
    d = h.shape[0]
    jumps = np.array([op.mat for op in me.lindblads.values()],
                     dtype=complex).reshape(-1, d, d)
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), jumps, axes=([0, 1], [0, 1]))
    flat = jumps.reshape(-1, d * d)
    # (flat^H flat)[(i, k), (j, l)] = sum_n conj(L_n[i, k]) L_n[j, l]
    blocks = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).copy()
    r = np.arange(d)
    blocks[r, :, r, :] -= 1j * h_eff
    blocks[:, r, :, r] += 1j * h_eff.conj()
    return LiouvillianMatrix(space=me.space, mat=blocks.reshape(d * d, d * d))


@dataclass(frozen=True)
class SpectrumReport:
    """Liouvillian eigenvalues sorted by |Re| ascending, with the gap."""

    eigenvalues: np.ndarray
    gap: float


def spectral_gap(lv: LiouvillianMatrix) -> SpectrumReport:
    """|Re| of the slowest decaying eigenvalue of the generator.

    Uniqueness of the stationary state is checked on ``lv.bordered_lu()``
    (``DegenerateSteadyStateError`` otherwise); the single eigenvalue with
    the smallest |Re| is then the stationary one, and the next gives the gap.
    """
    lv.bordered_lu()
    eigs = lv.eigenvalues()
    eigs = eigs[np.argsort(np.abs(eigs.real), kind="stable")]
    return SpectrumReport(eigenvalues=eigs, gap=float(abs(eigs[1].real)))


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

    @classmethod
    def pure(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.space, np.outer(state.vec, state.vec.conj()))


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
    """Unique stationary state, from the trace-bordered solve of
    ``lv.bordered_lu()``, Hermitized and trace-normalized.

    Raises ``NumericalInstabilityError`` if the solution leaves a relative
    residual ||L x|| above 1e-10 ||L|| ||x|| or has an eigenvalue below -1e-6.
    """
    rhs = np.zeros(lv.mat.shape[0], dtype=complex)
    rhs[0] = 1.0
    x = scipy.linalg.lu_solve(lv.bordered_lu(), rhs, check_finite=False)
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


def propagate(
    me: MasterEquation,
    rho0: DensityMatrix,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Exact evolution of the master equation on a uniform sample grid.

    ``dt`` only places the samples: the run is cut into
    ``n = ceil(t_final / dt)`` steps of ``h = t_final / n`` and sampled
    every ``n // 1000`` steps and at the last one.  The states come from
    the generator's eigensystem, so they carry no step-size error; a
    ``NumericalInstabilityError`` is raised if any sample's trace leaves
    1 by more than ``TRACE_TOL``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rho0.space != me.space:
        raise DimensionMismatchError("initial state lives on a different space")
    if t_final == 0:
        return Trajectory(me.space, np.array([0.0]),
                          rho0.mat[np.newaxis].copy(), dt)
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    steps = np.arange(0, n_steps + 1, max(1, n_steps // 1000))
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = steps * h
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
    rows = [
        [float(pops[c][i]) for c in header] for i in range(len(traj.times))
    ]
    return header, rows
