"""Dense Liouvillian machinery: vectorization, steady states, spectra,
exact time evolution and fidelities.

Vectorization is column-stacking throughout: ``vec(rho) =
rho.reshape(-1, order="F")`` and the superoperator of ``A rho B`` is
``kron(B.T, A)``.  Factorizations run on a generator's real form in the
orthonormal Hermitian operator basis over the ``symmetric_basis`` (see
``LiouvillianMatrix``), where each exchange sector is a set of coordinates.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NumericalInstabilityError,
)
from .hilbert import excitation_count, named_state
from .model import TERMS, MasterEquation, SystemParams, make_space, term_equations

# Above this condition number of the eigenvector matrix, V (c * exp(w t))
# loses the digits the trace check relies on.  Every scheme over the
# domain the CLI accepts stays below 4e3 (S1 at C = 1000, Omega = gamma/2).
MAX_EIGENVECTOR_COND = 1e8

# Largest |tr(rho(t)) - 1| tolerated on any propagated sample.
TRACE_TOL = 1e-8

# Trace distance to the steady state at which ``time_to_convergence`` stops.
CONVERGED_DISTANCE = 0.01

# Largest coupling between two exchange sectors, relative to max|R|, that
# ``LiouvillianMatrix.blocks`` may drop when it splits R.
SECTOR_COUPLING_TOL = 1e-12


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
class Eigenblock:
    """Right eigenpairs ``M V = V diag(values)`` of one real block and V's
    singular values."""

    values: np.ndarray
    vectors: np.ndarray
    singular: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray, stationary=None) -> "Eigenblock":
        """``stationary = (trace, x)`` holds the trace functional and the
        unique stationary state (trace @ M = 0, M x = 0, trace @ x = 1) of
        a trace-preserving generator's block, x solved more accurately than
        ``eig`` finds it.  The eigenvalue nearest 0 then becomes 0 with
        eigenvector x, and the other eigenvectors lose the multiple of x
        that carries their trace.  ``eig`` misses both by ~eps ||M|| / gap,
        which put the evolution's limit 0.2 (trace distance) off the steady
        state for WS at C = 1000, Omega = gamma/20, where the gap is 5e-12.

        ``eig`` of a real M returns each complex column V_+ (Im w > 0) next
        to its conjugate, so V times a unitary is the real [V_real, sqrt2 Re
        V_+, sqrt2 Im V_+], whose real SVD gives V's singular values at about
        half the cost of the complex one."""
        values, vectors = np.linalg.eig(m)
        values, vectors = values.astype(complex), vectors.astype(complex)
        if stationary is not None:
            trace, x = stationary
            s = np.argmin(np.abs(values))
            values[s] = 0.0
            traces = trace @ vectors
            traces[s] = 0.0
            vectors -= np.outer(x, traces)
            vectors[:, s] = x / np.linalg.norm(x)
        upper = vectors[:, values.imag > 0.0] * math.sqrt(2.0)
        real = np.hstack([vectors[:, values.imag == 0.0].real, upper.real, upper.imag])
        return cls(values, vectors, np.linalg.svd(real, compute_uv=False))


def spectral_modes(blocks: list, y0: np.ndarray, eigenblock,
                   readout=lambda v: v) -> list:
    """Modes ``(w_b, c_b, readout(V_b))`` of the exact solution of dy/dt =
    R y, y(0) = y0, for R given by its ``[(W, M), ...]``, the blocks M =
    R[W, W] on the index sets W (``None`` for a lone block): ``readout``
    maps a block's eigenvectors, placed at their coordinates W of y0's, to
    the output coordinates.

    Only a block whose share y0[W] has a nonzero entry is decomposed, by
    ``eigenblock(b)``, and solved, V_b c_b = y0[W].  Raises
    ``NumericalInstabilityError`` if cond(V) over those blocks exceeds
    ``MAX_EIGENVECTOR_COND``.
    """
    used = []
    for b, (w, _) in enumerate(blocks):
        share = y0 if w is None else y0[w]
        if share.any():
            used.append((w, eigenblock(b), share))
    sv = np.concatenate([e.singular for _, e, _ in used])
    cond = sv.max() / sv.min()
    if not cond <= MAX_EIGENVECTOR_COND:
        raise NumericalInstabilityError(
            f"generator is not safely diagonalizable: cond(V) = {cond:.3e} "
            f"exceeds {MAX_EIGENVECTOR_COND:.0e}"
        )
    return [(e.values, np.linalg.solve(e.vectors, share),
             readout(_scattered(e.vectors, w, len(y0)))) for w, e, share in used]


def superpose(modes: list):
    """The function of an array of times giving the rows sum mapped (c *
    exp(w t)) over the ``[(w, c, mapped), ...]`` of ``spectral_modes``."""
    values = np.concatenate([w for w, _, _ in modes])
    coeff = np.concatenate([c for _, c, _ in modes])
    vectors = np.hstack([m for _, _, m in modes])

    def at(times) -> np.ndarray:
        x = np.exp(np.multiply.outer(np.asarray(times, dtype=float), values))
        x *= coeff
        return x @ vectors.T

    return at


@functools.lru_cache(maxsize=None)
def _hermitian_order(d: int) -> tuple[np.ndarray, np.ndarray]:
    """vec indices of rho_ii, then of rho_ij and of rho_ji for i < j (the
    entries of vec(rho) that each real coordinate reads), and the flat
    indices of a d^2 x d^2 matrix's rows rho_ii and rho_ij, columns in that
    order, in ``_generator_rows``'s layout."""
    i, j = np.triu_indices(d, 1)
    order = np.concatenate([np.arange(d) * (d + 1), i + j * d, j + i * d])
    rows = order[:d + len(i)]  # entry (r, c) at (r // d, c // d, r % d, c % d)
    return _readonly(order), _readonly(
        (rows // d * d ** 3 + rows % d * d)[:, None] + order // d * d * d + order % d)


@functools.lru_cache(maxsize=None)
def symmetric_basis(labels: tuple) -> tuple:
    """``(pairs, candidates)``: the columns of a real symmetric orthogonal
    V, and per candidate exchange symmetry U (the atom swap, then the swap
    times (-1)^excitations) each column's parity p and the ``(even, odd)``
    real coordinates: U is diagonal there, and rho_ij has parity p_i p_j.

    V pairs each product label (a, b, n), a != b, with its ``partner`` (b,
    a, n): the first in label order becomes their sum, the second their
    difference (``swap`` parity -1), over sqrt 2.  A label with a == b is
    its own partner and stays, so |0,0,0> is still first.  ``pairs =
    (partner, swap, scale)``: V_ii = swap_i c_i, V_partner(i),i += c_i, with
    c_i^2 = 1/2, or 1/4 where fixed, and ``scale`` = c c^T.  The ground
    basis (00, T, 11, S) is that basis already: ``pairs`` is ``None`` (V =
    1), and S is odd.  Built once per space's labels, read-only."""
    d, k = len(labels), np.arange(len(labels))
    if all(isinstance(lb, str) for lb in labels):
        pairs, excited = None, np.ones(d)
        swap = np.array([-1.0 if lb == "S" else 1.0 for lb in labels])
    else:
        index = {lb: n for n, lb in enumerate(labels)}
        partner = np.array([index[(b, a, n)] for a, b, n in labels])
        swap = np.where(partner < k, -1.0, 1.0)
        c2 = np.where(partner == k, 0.25, 0.5)  # exact, so scale is correctly rounded
        pairs = tuple(map(_readonly, (partner, swap, np.sqrt(np.outer(c2, c2)))))
        excited = (-1.0) ** np.array([excitation_count(lb) for lb in labels])
    i, j = np.triu_indices(d, 1)
    candidates = []
    for p in (swap, swap * excited):
        parity = np.concatenate([np.ones(d), p[i] * p[j], p[i] * p[j]])
        candidates.append(tuple(map(_readonly, (
            p, np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)))))
    return pairs, tuple(candidates)


def _rotated(x: np.ndarray, labels: tuple) -> np.ndarray:
    """V X V (= V^T X V) for each X on the last two axes of x, V that of
    the ``symmetric_basis`` of ``labels``, formed elementwise, so that every
    exact cancellation leaves an exact zero (X^T gives (V X V)^T)."""
    pairs = symmetric_basis(labels)[0]
    if pairs is None:
        return x
    partner, swap, scale = pairs
    y = x * swap
    y += x[..., partner]
    x = y * swap[:, None]
    x += y[..., partner, :]
    x *= scale
    return x


def _scattered(x: np.ndarray, rows, n: int) -> np.ndarray:
    """x's rows placed at coordinates ``rows`` of n (all, if ``None``)."""
    if rows is None:
        return x
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    out[rows] = x
    return out


def _from_coordinates(x: np.ndarray, d: int) -> np.ndarray:
    """T^H x along axis 0: real coordinates (or complex combinations of
    them, such as eigenvectors) to column-stacked vectors vec(V^T rho V) in
    the ``symmetric_basis``."""
    n = (d * d - d) // 2
    re = math.sqrt(0.5) * x[d:d + n]
    im = 1j * math.sqrt(0.5) * x[d + n:]
    out = np.empty(x.shape[::-1], dtype=complex).T  # a transposed stack, for from_real
    out[_hermitian_order(d)[0]] = np.concatenate([x[:d], re + im, re - im])
    return out


def from_real(x: np.ndarray, space) -> np.ndarray:
    """``_from_coordinates`` rotated out of the ``symmetric_basis``: real
    coordinates back to column-stacked vectors on the space's own basis."""
    d = space.dim
    out = _from_coordinates(x, d).T  # each vec(X) read row-major is X^T
    return _rotated(out.reshape(-1, d, d), space.labels).reshape(x.shape[::-1]).T


def to_real(v: np.ndarray, space) -> np.ndarray:
    """T vec(V^T rho V) for a column-stacked vector v = vec(rho) on the
    space's own basis: the inverse of ``from_real``."""
    d = space.dim
    n = (d * d - d) // 2
    x = _rotated(np.asarray(v, dtype=complex).reshape(d, d), space.labels)
    x = x.reshape(-1)[_hermitian_order(d)[0]]
    up, lo = x[d:d + n], x[d + n:]
    return np.concatenate([x[:d], math.sqrt(0.5) * (up + lo),
                           -1j * math.sqrt(0.5) * (up - lo)])


def _real_form(m: np.ndarray, d: int) -> np.ndarray:
    """R = T L T^H, with T the unitary map from vec(rho) to the real
    coordinates (rho_ii, sqrt2 Re rho_ij, sqrt2 Im rho_ij for i < j), for
    L's rows rho_ii and rho_ij (i < j), columns in ``_hermitian_order``.

    R is real and has the spectrum of L because a Lindblad generator
    preserves Hermiticity, conj(L) = P L P with P swapping rho_ij and
    rho_ji.  It is read off those rows by index arithmetic; the rows rho_ji
    are their conjugate images.
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


class LiouvillianMatrix:
    """dim^2 x dim^2 generator L on column-stacked density matrices, held as
    its real form R = ``real_form()`` alone: ``_real_form`` of L in the
    ``symmetric_basis`` (``from_real`` and ``to_real`` map vectors between
    R's coordinates and vec(rho) on the space's own basis).  Factorizations
    run on the ``blocks()`` of R: the two exchange sectors (80 + 64 or 72 +
    72 of 144, 10 + 6 of an effective model's 16) when the atom swap, alone
    or times (-1)^excitations, commutes with L, else R itself.  All are
    kept: ``bordered_inverse()`` serves the steady state and the uniqueness
    test, and an ``Eigenblock`` per block that an evolution's start has a
    share in serves ``solution()`` (a symmetric start decomposes the even
    block alone); ``gap()`` and ``eigenvalues()`` run ``eigvals`` on the
    blocks they read and that are not decomposed.
    """

    def __init__(self, space, real: np.ndarray):
        self.space, self.dim, self._real = space, space.dim, real
        self._blocks, self._bordered, self._eigenvalues, self._eigenblocks = (
            None, None, {}, {})

    def real_form(self) -> np.ndarray:
        """The real form R, as given."""
        return self._real

    def blocks(self) -> list:
        """``(W, M)`` pairs with M = R[W, W] for an index array W: the even
        and odd coordinates of the first ``symmetric_basis`` candidate
        whose cross blocks R[even, odd] and R[odd, even], the coupling the
        split drops, are within ``SECTOR_COUPLING_TOL`` of max|R| (a drive
        phase of pi misses exactness by ~1e-17), else ``[(None, R)]``."""
        if self._blocks is None:
            r = self.real_form()
            self._blocks = [(None, r)]
            tol = SECTOR_COUPLING_TOL * max(r.max(), -r.min())
            for _, even, odd in symmetric_basis(self.space.labels)[1]:
                top, bottom = r[even], r[odd]
                cross = top[:, odd], bottom[:, even]
                if max(max(c.max(), -c.min()) for c in cross) <= tol:
                    self._blocks = [(even, _readonly(top[:, even])),
                                    (odd, _readonly(bottom[:, odd]))]
                    break
        return self._blocks

    def _trace(self) -> np.ndarray:
        """The trace functional on the first block (the odd one has none)."""
        w = self.blocks()[0][0]
        return ((np.arange(self.dim ** 2) if w is None else w) < self.dim).astype(float)

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
            bases, bs = zip(*self.blocks())
            # row 0 swapped in and back: copying an unsplit R made solves fault
            first, row, writeable = bs[0], bs[0][0].copy(), bs[0].flags.writeable
            first.flags.writeable = True
            first[0] = self._trace()
            try:
                invs = [_readonly(np.linalg.inv(b)) for b in bs]
                rcond = 1.0 / (max(np.linalg.norm(b, 1) for b in bs)
                               * max(np.linalg.norm(inv, 1) for inv in invs))
                pairs = list(zip(bases, invs))
            except np.linalg.LinAlgError:
                pairs, rcond = None, 0.0
            finally:
                first[0] = row
                first.flags.writeable = writeable
            self._bordered = pairs, float(rcond)
        pairs, rcond = self._bordered
        if not rcond >= np.finfo(float).eps:
            raise DegenerateSteadyStateError(
                self.dim ** 2 - int(np.linalg.matrix_rank(self.real_form())))
        return pairs

    def _values(self, b: int) -> np.ndarray:
        """Block b's ``eig`` values if it is decomposed, else its ``eigvals``."""
        if b not in self._eigenvalues:
            try:
                values = self._eigenblocks[b].values if b in self._eigenblocks \
                    else np.linalg.eigvals(self.blocks()[b][1]).astype(complex)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
                raise NumericalInstabilityError(
                    f"eigendecomposition failed: {exc}") from exc
            self._eigenvalues[b] = values
        return self._eigenvalues[b]

    def eigenvalues(self) -> np.ndarray:
        """``_values`` of every block, in block order."""
        return np.concatenate([self._values(b) for b in range(len(self.blocks()))])

    def gap(self) -> float:
        """The first block's second smallest |Re|, after the unique (by
        ``bordered_inverse()``) stationary state's: the even sector of a
        split R, in which every exchange-symmetric start relaxes."""
        self.bordered_inverse()
        return float(np.sort(np.abs(self._values(0).real))[1])

    def _eigenblock(self, b: int) -> Eigenblock:
        """Block b's eigenpairs, in R's coordinates.  The first block's
        conserve the trace, with the state of ``bordered_inverse()``, unless
        that is not unique (an undriven model)."""
        if b not in self._eigenblocks:
            try:
                stationary = (self._trace(), self.bordered_inverse()[0][1][:, 0]) \
                    if b == 0 else None
            except DegenerateSteadyStateError:
                stationary = None
            self._eigenblocks[b] = Eigenblock.of(self.blocks()[b][1], stationary)
        return self._eigenblocks[b]

    def solution(self, rho0: np.ndarray, readout=None):
        """exp(L t) vec(rho0), a function of an array of times: the
        ``Mixture.solution`` of this generator alone."""
        return Mixture([(1.0, self)]).solution(rho0, readout)


def _generator_rows(me: MasterEquation) -> np.ndarray:
    """Rows rho_ii and rho_ij (i < j) of ``vectorize``'s L, all that
    ``_real_form`` reads, columns in Hermitian order, for H and the jumps
    rotated into the ``symmetric_basis`` (V A V).  Seen as a (d, d, d, d)
    array ``[i, j, k, l]`` (row ``i d + j``, column ``k d + l``), L's jump
    sum is one (K x d^2)^H (K x d^2) product laid out as ``[i, k, j, l]``,
    where the H_eff terms are strided row and column slices (``i == k`` and
    ``j == l``); the rows are gathered from it, forming no Kronecker product
    and no column-stacked L."""
    d, labels = me.dim, me.space.labels
    h = _rotated(me.H, labels)
    jumps = _rotated(np.array(list(me.lindblads.values()), dtype=complex).reshape(
        -1, d, d), labels)
    h_eff = h - 0.5j * np.tensordot(jumps.conj(), jumps, axes=([0, 1], [0, 1]))
    flat = jumps.reshape(-1, d * d)
    # (flat^H flat)[(i, k), (j, l)] = sum_n conj(L_n[i, k]) L_n[j, l]
    gram = flat.conj().T @ flat
    gram[::d + 1] -= 1j * h_eff.reshape(-1)
    gram[:, ::d + 1] += 1j * h_eff.conj().reshape(-1, 1)
    return gram.take(_hermitian_order(d)[1])


def vectorize(me: MasterEquation) -> LiouvillianMatrix:
    """Column-stacking superoperator of the master equation,

        L = sum_k conj(L_k) (x) L_k - i I (x) H_eff + i conj(H_eff) (x) I,

    with H_eff = H - (i/2) sum_k L_k^dag L_k, as the real form of
    ``_generator_rows``, made once their (d^2 x d^2) product is freed.  It
    needs no Hermiticity check: ``MasterEquation`` checks that H is Hermitian.
    """
    return LiouvillianMatrix(me.space, _real_form(_generator_rows(me), me.dim))


def vectorize_sum(terms: list) -> LiouvillianMatrix:
    """sum_c w_c L_c of ``[(w_c, me_c), ...]``, summed before its real form."""
    space = terms[0][1].space
    return LiouvillianMatrix(space, _real_form(
        sum(w * _generator_rows(me) for w, me in terms), space.dim))


_TERM_FORMS: dict = {}  # per space, published with setdefault


def _term_forms(space) -> tuple:
    """``(nonzero, reals)``: the flat indices of the union of the ``TERMS``
    rows' real forms' nonzeros (1,532 of 20,736 at dim 12), and each row's
    values there.  ``vectorize``d once per space, on first use, read-only."""
    forms = _TERM_FORMS.get(space)
    if forms is None:
        # one row's R at a time, so that the peak stays a solve's
        rows, union = [], np.zeros(space.dim ** 4, dtype=bool)
        for me in term_equations(space):
            r = vectorize(me).real_form().reshape(-1)
            rows.append((r != 0, r[r != 0]))
            union |= rows[-1][0]
        reals, where = np.zeros((len(rows), union.sum())), np.cumsum(union) - 1
        for row, (nz, values) in zip(reals, rows):
            row[where[nz]] = values
        forms = _TERM_FORMS.setdefault(
            space, (_readonly(np.flatnonzero(union)), _readonly(reals)))
    return forms


def coefficients(params: SystemParams) -> np.ndarray:
    """The ``TERMS`` coefficients c_k of params: ``full_generator``'s R is
    sum_k c_k F_k, for the real forms F_k of ``_term_forms``."""
    return np.array([c(params) for _, c, _ in TERMS])


def full_generator(params: SystemParams) -> LiouvillianMatrix:
    """The generator of the full ``TERMS`` model of params, formed as the
    ``coefficients``' product with the ``_term_forms``, scattered into R."""
    space = make_space(params)
    nonzero, reals = _term_forms(space)
    r = np.zeros(space.dim ** 4)
    r[nonzero] = coefficients(params) @ reals
    return LiouvillianMatrix(space, _readonly(r.reshape(space.dim ** 2, -1)))


def steady_state_derivative(lv: LiouvillianMatrix, dc: np.ndarray) -> np.ndarray:
    """d rho of ``steady_state(lv)``, to first order, when the
    ``coefficients`` of the ``full_generator`` lv move by dc: the steady
    state's linear response (Albert, Bradlyn, Fraas & Jiang, PRX 6, 041031
    (2016)).  R x = 0 with tr x = 1 gives B dx = -(dR x) with the trace row
    zeroed (tr dx = 0), for the B of ``bordered_inverse()``, whose inverse
    is held, and dR = sum_k dc_k F_k, applied to x on its nonzeros alone."""
    n, pairs = lv.dim ** 2, lv.bordered_inverse()
    x = _scattered(pairs[0][1][:, 0], pairs[0][0], n)
    nonzero, reals = _term_forms(lv.space)
    rows, cols = np.divmod(nonzero, n)
    rhs = -np.bincount(rows, weights=(dc @ reals) * x[cols], minlength=n)
    rhs[0] = 0.0  # rho_00, the row B replaces by the trace
    dx = np.zeros(n)
    for w, inv in pairs:
        w = slice(None) if w is None else w
        dx[w] = inv @ rhs[w]
    return unvec(from_real(dx, lv.space), lv.dim)


@dataclass(frozen=True)
class SpectrumReport:
    """Liouvillian eigenvalues sorted by |Re| ascending, with the gap and,
    for a generator split by ``LiouvillianMatrix.blocks``, the gap of each
    sector (even, odd): the stationary eigenvalue and the gap are even."""

    eigenvalues: np.ndarray
    gap: float
    sectors: tuple[float, ...] = ()


def spectral_gap(lv: LiouvillianMatrix) -> SpectrumReport:
    """The generator's ``Mixture.spectrum``."""
    return Mixture([(1.0, lv)]).spectrum()


class Mixture:
    """A static mixture sum_c w_c rho_c, each part rho_c evolving under its
    own generator L_c, given as ``[(w_c, L_c), ...]``: a scheme's full model,
    one part of weight 1.0 for a phase-fixed scheme.  ``propagate`` and
    ``time_to_convergence`` take it as they take a ``LiouvillianMatrix``."""

    def __init__(self, parts: list):
        self.parts = parts
        self.space, self.dim = parts[0][1].space, parts[0][1].dim

    def steady_state(self) -> np.ndarray:
        """sum_c w_c ``steady_state(L_c)``, summed from the first term, so
        that one part's -0.0 entries keep their sign."""
        return functools.reduce(np.add, (w * steady_state(lv) for w, lv in self.parts))

    def solution(self, rho0: np.ndarray, readout=None):
        """sum_c w_c exp(L_c t) vec(rho0), a function of an array of times.
        The parts' modes are read out by ``readout(V)`` from R's
        coordinates, by default by ``from_real`` to the space's own basis."""
        y0 = to_real(vec(rho0), self.space)
        readout = readout or functools.partial(from_real, space=self.space)
        return superpose([(values, w * c, mapped) for w, lv in self.parts
                          for values, c, mapped in spectral_modes(
                              lv.blocks(), y0, lv._eigenblock, readout)])

    def gap(self) -> float:
        """The smallest of the parts' ``gap()``."""
        return min(lv.gap() for _, lv in self.parts)

    def spectrum(self) -> SpectrumReport:
        """The parts' eigenvalues, the gap and, if every part splits, the
        sector gaps: the odd one is the parts' smallest odd |Re| (that
        sector holds no stationary state)."""
        gap, eigs = self.gap(), [lv.eigenvalues() for _, lv in self.parts]
        odd = [np.abs(e[len(lv.blocks()[0][1]):].real)
               for e, (_, lv) in zip(eigs, self.parts)]
        eigs = np.concatenate(eigs)
        return SpectrumReport(
            eigenvalues=eigs[np.argsort(np.abs(eigs.real), kind="stable")], gap=gap,
            sectors=(gap, float(min(o.min() for o in odd))) if all(map(len, odd)) else ())


GROUND_LABELS = ("00", "T", "11", "S")


def ground_coordinates(space) -> np.ndarray:
    """Indices of (00, T, 11, S) among the space's ``symmetric_basis`` states:
    a ground basis's own labels, else (0,0,0), (0,1,0), (1,1,0) and (1,0,0),
    a pair's first label becoming its sum, its second its difference."""
    labels = GROUND_LABELS if isinstance(space.labels[0], str) else (
        ("0", "0", 0), ("0", "1", 0), ("1", "1", 0), ("1", "0", 0))
    return np.array([space.labels.index(lb) for lb in labels])


def ground_state_vectors(space) -> dict[str, np.ndarray]:
    """Unit vectors of the four zero-photon ground combinations."""
    if isinstance(space.labels[0], str):  # a ground basis, labelled GROUND_LABELS
        return dict(zip(GROUND_LABELS, np.eye(space.dim, dtype=complex)))
    return {name: named_state(space, name, photon=0) for name in GROUND_LABELS}


def mixed_ground_state(space) -> np.ndarray:
    """Equal classical mixture of 00, T, 11 and S (the standard start)."""
    vectors = ground_state_vectors(space).values()
    return sum(np.outer(v, v.conj()) for v in vectors) / 4.0


def steady_state(lv: LiouvillianMatrix) -> np.ndarray:
    """Unique stationary state, column 0 of ``lv.bordered_inverse()[0]``
    mapped back to vec form, Hermitized and trace-normalized.

    Raises ``NumericalInstabilityError`` if the real solution x leaves ||R x||
    = ||L vec(rho)|| (T and V are unitary) above 1e-10 (||R||_1 / 8) ||x|| <=
    1e-10 ||L||_1 ||x|| (T (V (x) V) has 1-norm 2 sqrt 2, and so has its
    inverse), or has an eigenvalue below -1e-6.
    """
    w, inv = lv.bordered_inverse()[0]
    x = _scattered(inv[:, 0], w, lv.dim ** 2)
    residual = np.linalg.norm(lv.real_form() @ x)
    bound = 0.125e-10 * np.linalg.norm(lv.real_form(), 1) * np.linalg.norm(x)
    if not residual <= bound:
        raise NumericalInstabilityError(
            f"steady-state residual {residual:.3e} exceeds {bound:.3e}"
        )
    rho = unvec(from_real(x, lv.space), lv.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-6:
        raise NumericalInstabilityError(
            f"steady state has negative eigenvalue {w.min():.3e}"
        )
    return rho


@dataclass(frozen=True)
class Trajectory:
    """Sampled populations: each sample's diagonal of rho in the space's
    ``symmetric_basis``, R's first dim coordinates, in which 00, T, 11 and
    S are basis states (``ground_coordinates``)."""

    space: object
    times: np.ndarray
    diagonal: np.ndarray  # (n_samples, dim), real
    dt: float

    def populations(self) -> dict[str, np.ndarray]:
        """Ground populations, total excited population (the other
        coordinates' sum, none for a ground basis) and singlet fidelity."""
        ground = ground_coordinates(self.space)
        out = {"t": self.times} | {f"P_{name}": self.diagonal[:, k]
                                   for name, k in zip(GROUND_LABELS, ground)}
        out["P_excited_total"] = np.delete(self.diagonal, ground, axis=1).sum(axis=1)
        out["fidelity"] = out["P_S"]
        return out


def sample_grid(t_final: float, dt: float) -> tuple[np.ndarray, float]:
    """Uniform sample times on [0, t_final] and their step.

    ``dt`` only places the samples: the run is cut into
    ``n = ceil(t_final / dt)`` steps of ``h = t_final / n`` and sampled
    every ``n // 1000`` steps and at the last one.
    """
    if not (0 < dt < math.inf and 0 <= t_final < math.inf):
        raise ValueError(f"need finite t_final >= 0 and dt > 0, got t_final = "
                         f"{t_final}, dt = {dt}")
    if t_final == 0:
        return np.array([0.0]), dt
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    h = t_final / n_steps
    steps = np.arange(0, n_steps + 1, max(1, n_steps // 1000))
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps * h, h


def propagate(
    me: MasterEquation | LiouvillianMatrix | Mixture,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Exact evolution of the master equation, or of its generator or
    mixture, on the ``sample_grid``: its ``solution`` read on R's diagonal
    coordinates alone, forming no state.  Raises ``NumericalInstabilityError``
    if any sample's trace leaves 1 by more than ``TRACE_TOL``."""
    times, h = sample_grid(t_final, dt)
    d = me.space.dim
    if np.shape(rho0) != (d, d):
        raise DimensionMismatchError(
            f"initial state of shape {np.shape(rho0)} does not fit a space of dim {d}")
    if t_final == 0:
        return Trajectory(me.space, times, to_real(vec(rho0), me.space)[None, :d].real, h)
    lv = vectorize(me) if isinstance(me, MasterEquation) else me
    diagonal = lv.solution(rho0, lambda v: v[:d])(times).real
    drift = float(np.abs(diagonal.sum(axis=1) - 1.0).max())
    if not drift <= TRACE_TOL:
        raise NumericalInstabilityError(
            f"trace drifted by {drift:.3e} (> {TRACE_TOL:.0e}) during evolution"
        )
    return Trajectory(me.space, times, diagonal, h)


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi| rho |psi>, clamped to [0, 1]."""
    value = complex(psi.conj() @ (rho @ psi))
    if abs(value.imag) > 1e-10:
        warnings.warn(
            f"fidelity has imaginary part {value.imag:.3e}", stacklevel=2
        )
    return float(min(1.0, max(0.0, value.real)))


def evolve_spectral(lv: LiouvillianMatrix | Mixture, rho0: np.ndarray,
                    times) -> np.ndarray:
    """States exp(L t) rho0 at the given times, shape (len(times), dim, dim),
    from ``lv.solution``."""
    return unvec(lv.solution(rho0)(times), lv.dim)


def time_to_convergence(
    lv: LiouvillianMatrix | Mixture,
    rho0: np.ndarray,
    rho_ss: np.ndarray,
) -> float:
    """First time with trace distance to the steady state <= 0.01, to 1e-3
    relative, on a grid of 160 log-spaced times up to 30 / gap.

    The distance never grows: exp(L s) is completely positive and trace
    preserving and fixes rho_ss, and the trace distance contracts under
    such maps.  So after the last grid time is checked (else no convergence
    is raised), a bisection over the grid indices finds the first time a
    scan would, and a bisection in time refines it inside that interval:
    ~15 distances, not ~166.  The evolution is set up before the gap is
    read, so the gap reuses its blocks' eigenvalues.

    The states are read from R's coordinates by T^H alone, as V^T rho V in
    the ``symmetric_basis``, and compared with V^T rho_ss V: the orthogonal
    V leaves the distance unchanged, so the modes are never rotated.
    """
    d = lv.dim
    solution = lv.solution(rho0, functools.partial(_from_coordinates, d=d))
    gap = lv.gap()
    rho_ss = _rotated(rho_ss, lv.space.labels)

    def converged(t: float) -> bool:
        w = np.linalg.eigvalsh(unvec(solution([t])[0], d) - rho_ss)
        return 0.5 * np.abs(w).sum() <= CONVERGED_DISTANCE

    t_hi = 30.0 / gap
    grid = np.geomspace(t_hi * 1e-4, t_hi, 160)
    if not converged(grid[-1]):
        raise NumericalInstabilityError(
            f"no convergence to trace distance {CONVERGED_DISTANCE} within t = {t_hi:.3e}"
        )
    below, i = -1, len(grid) - 1  # grid[i] has converged, grid[below] has not
    while i - below > 1:
        mid = (below + i) // 2
        below, i = (below, mid) if converged(grid[mid]) else (mid, i)
    lo, hi = (0.0 if i == 0 else grid[i - 1]), grid[i]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if converged(mid) else (mid, hi)
        if hi - lo <= 1e-3 * hi:
            break
    return float(hi)

