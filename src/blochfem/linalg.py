"""Complex Hermitian sparse matrices: storage, factorization, quotients.

All heavy lifting is delegated to scipy.sparse / SuperLU and numpy.fft;
this module pins the contracts the eigensolvers rely on:

* a thin CSR wrapper for matrices that are Hermitian by construction (the
  element matrices are checked in ``assembly._CellSet``, which serves both
  ``_RegionPieces`` and ``reference_pencil``), whose forms of one mesh share
  one read-only pattern, so that their sums are sums of data vectors,
* reusable factorizations with an explicit singularity signal and a
  1e-10 backward-error guarantee (one step of iterative refinement),
* inexact solves by preconditioned GMRES (:func:`gmres_solve`) to a fixed
  relative residual, which fail loudly instead of handing on a worse one,
* real Rayleigh quotients with an imaginary-residue diagnostics counter,
* dual-norm residual evaluation sqrt(r^H (K+M)^{-1} r) with K+M inverted
  once: by FFT when its builder knows from the weights that it repeats
  from cell to cell of the mesh, as the unit-weight K(k) + M does,
  otherwise by a cached factorization.
  :meth:`DualNorm.norm_and_solve` is the contract a
  preconditioner of :func:`~blochfem.eigeniter.lopcg` meets; the
  power-family reference meets it with :class:`BoundedDualNorm` instead,
  whose norms of K + M_w are upper bounds by proof: it inverts the
  cell-periodic K + w_min*M by FFT, below K + M_w, and factors nothing.
"""

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import NonConvergenceError, SingularMatrixError
from .mesh import CellPeriodicInverse, cell_stencil

__all__ = [
    "HermitianSparse",
    "matvec",
    "shared_data",
    "with_data",
    "compact",
    "Factorization",
    "gmres_solve",
    "rayleigh_quotient",
    "DualNorm",
    "BoundedDualNorm",
    "imag_residue_warnings",
    "reset_imag_residue_warnings",
    "is_positive_definite",
]

#: backward-error target for solves
SOLVE_RTOL = 1e-10
#: the conjugate gradients of :class:`BoundedDualNorm` stop once their
#: preconditioned residual is this fraction of their start's, or after
#: PCG_MAX_STEPS steps
PCG_RTOL = 1e-6
PCG_MAX_STEPS = 50
#: :func:`gmres_solve` stops once ||b - A x|| <= INNER_RTOL * ||b||, restarts
#: every GMRES_RESTART iterations and fails after GMRES_MAX_ITER
INNER_RTOL = 1e-3
GMRES_RESTART = 50
GMRES_MAX_ITER = 200

# diagnostics: number of Rayleigh quotients whose imaginary residue exceeded
# the 1e-12 relative threshold (should stay 0 for Hermitian pencils)
_imag_warnings = 0


def imag_residue_warnings():
    """Count of Rayleigh-quotient evaluations with suspicious imaginary parts."""
    return _imag_warnings


def reset_imag_residue_warnings():
    global _imag_warnings
    _imag_warnings = 0


def _bump_imag_warnings():
    global _imag_warnings
    _imag_warnings += 1


class HermitianSparse:
    """A CSR matrix that is Hermitian by construction, as ``.mat``.

    Nothing is checked here. ``assembly._CellSet`` checks the element
    matrices that both the region pieces and ``assembly.reference_pencil``
    are built from; real-weighted sums of them, the exactly Hermitian Bloch
    cross term and literal conjugate-transpose blocks stay Hermitian. Real
    symmetric matrices keep their real dtype.

    The forms of one mesh share one read-only CSR pattern (``indices``,
    ``indptr``): :func:`with_data` puts new entries on it without copying
    it, so a sum of those forms is a sum of their data vectors
    (:func:`shared_data`), and a write to the pattern raises.

    A real matrix applied to a complex vector (``@``, and the quotients of
    :func:`rayleigh_quotient`) multiplies the real and imaginary parts
    separately: the same bits as scipy's product, which would first copy
    the whole matrix to complex.
    """

    def __init__(self, mat):
        self.mat = sparse.csr_matrix(mat)
        self.n = self.mat.shape[0]

    def __matmul__(self, x):
        return matvec(self.mat, x)


def matvec(mat, x):
    """``mat @ x`` for a sparse ``mat``; a real ``mat`` takes a complex
    ``x`` part by part, the same bits as scipy's product, which would first
    copy the whole matrix to complex."""
    x = np.asarray(x)
    if mat.dtype.kind == "c" or not np.iscomplexobj(x):
        return mat @ x
    y = np.empty((mat.shape[0],) + x.shape[1:], dtype=np.result_type(mat, x))
    y.real = mat @ x.real
    y.imag = mat @ x.imag
    return y


def _as_csr(A):
    if isinstance(A, HermitianSparse):
        return A.mat
    return sparse.csr_matrix(A)


def with_data(A, data):
    """The CSR matrix with entries ``data`` on the pattern of CSR ``A``,
    whose index arrays it shares."""
    return sparse.csr_matrix((data, A.indices, A.indptr), shape=A.shape)


def compact(A):
    """A CSR copy of ``A`` without its stored zeros: the matrix that scipy's
    sparse sums, which drop exact zeros, would have built."""
    A = sparse.csr_matrix(A, copy=True)
    A.eliminate_zeros()
    return A


def _same(a, b):
    """Whether two index arrays are equal: the same buffer, or entry by
    entry."""
    return ((a.ctypes.data == b.ctypes.data and a.size == b.size)
            or np.array_equal(a, b))


def shared_data(*mats):
    """The data vectors of CSR matrices (or :class:`HermitianSparse`) that
    hold one pattern, in order: any linear combination of the matrices is
    the same combination of these vectors on that pattern.

    The forms of one mesh share the pattern's arrays, which is checked by
    address; other matrices are compared entry by entry. Raises ValueError
    when the patterns differ.
    """
    csr = [_as_csr(A) for A in mats]
    first = csr[0]
    for A in csr[1:]:
        if not (A.shape == first.shape and _same(A.indptr, first.indptr)
                and _same(A.indices, first.indices)):
            raise ValueError("matrices do not share one sparsity pattern")
    return [A.data for A in csr]


class Factorization:
    """Reusable sparse LU factorization (SuperLU) of a square matrix.

    ``solve`` enforces the 1e-10 backward-error contract with at most one
    step of iterative refinement. The original matrix is kept (sparse, cheap)
    to compute residuals.
    """

    def __init__(self, A):
        mat = _as_csr(A)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("can only factorize square matrices")
        self.mat = mat
        self.n = mat.shape[0]
        # inf-norm of A, used in the backward-error denominator
        self.norm = np.abs(mat).sum(axis=1).max() if mat.nnz else 0.0
        # the floating type splu would convert to; kept so that solves never
        # read self.lu.U, whose first access copies both factors
        self.dtype = np.result_type(mat.dtype, np.float32)
        csc = mat.tocsc().astype(self.dtype, copy=False)
        try:
            # All matrices here have symmetric sparsity (Hermitian pencils,
            # bordered systems), where the AT+A minimum-degree ordering
            # produces ~3x less fill than the default column ordering.
            self.lu = splu(
                csc,
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            # SuperLU reports exact singularity through RuntimeError
            raise SingularMatrixError(
                "sparse factorization failed (matrix singular to working "
                "precision): %s" % exc
            ) from exc
        self.refinements = 0

    def _raw_solve(self, b):
        # a real factorization handles a complex right-hand side part by
        # part (A real => re/im decouple); complex factorizations and real
        # right-hand sides go straight through
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self.lu.solve(np.ascontiguousarray(b.real)) + 1j * self.lu.solve(
                np.ascontiguousarray(b.imag)
            )
        return self.lu.solve(b.astype(self.dtype, copy=False))

    def solve(self, b):
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise ValueError(
                "right-hand side length %d does not match matrix size %d"
                % (b.shape[0], self.n)
            )
        x = self._raw_solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError(
                "solve produced non-finite entries; matrix is singular to "
                "working precision"
            )
        r = b - matvec(self.mat, x)
        nb = np.linalg.norm(b)
        denom = self.norm * np.linalg.norm(x) + nb
        if denom > 0 and np.linalg.norm(r) > SOLVE_RTOL * denom:
            x = x + self._raw_solve(r)
            self.refinements += 1
        return x


def gmres_solve(A, b, precond):
    """x with ||b - A x|| <= :data:`INNER_RTOL` * ||b|| (2-norms), by GMRES
    preconditioned with ``precond``, a callable that approximates A^{-1}.

    ``A`` is a sparse matrix: T(sigma), in residual inverse iteration.
    GMRES restarts every :data:`GMRES_RESTART` iterations; after
    :data:`GMRES_MAX_ITER` of them without the tolerance it raises
    :class:`~blochfem.errors.NonConvergenceError` instead of returning the
    inexact answer.
    """
    b = np.asarray(b)
    n = b.shape[0]
    restart = min(GMRES_RESTART, GMRES_MAX_ITER)
    x, info = gmres(A, b, rtol=INNER_RTOL, atol=0.0, restart=restart,
                    maxiter=-(-GMRES_MAX_ITER // restart),
                    M=LinearOperator((n, n), matvec=precond, dtype=b.dtype))
    if info:
        rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        raise NonConvergenceError(
            "GMRES left a relative residual of %.3e, above %g, within %d "
            "iterations" % (rel, INNER_RTOL, GMRES_MAX_ITER)
        )
    return x


class _PeriodicSolve:
    """Solves with a CSR matrix that is cell-periodic by construction,
    through its FFT inverse (:class:`~blochfem.mesh.CellPeriodicInverse`)
    and one step of iterative refinement, which is always taken. It
    factors nothing.

    The inverse symbol rounds the low-frequency modes, where K + M is
    least well conditioned, about ten times more than an LU does: on the
    final Newton residuals of the benchmark pool at L3 its dual norms read
    up to 2e-12 off their long-double-refined values (the LU's up to
    1.4e-12), and the step against the matrix itself brings them within
    2e-14, and the backward error well below SOLVE_RTOL.
    """

    def __init__(self, mat, inverse):
        self.mat = mat
        self.n = mat.shape[0]
        self._inverse = inverse

    def solve(self, b):
        b = np.asarray(b)
        x = self._inverse(b)
        return x + self._inverse(b - matvec(self.mat, x))


def rayleigh_quotient(u, A, B, Au=None, Bu=None):
    """(u^H A u) / (u^H B u) for a Hermitian pencil; returns a real number.

    ``Au`` and ``Bu`` are the products A u and B u when the caller already
    holds them. The imaginary parts of numerator and denominator are
    checked against a 1e-12 relative threshold and then discarded;
    exceedances bump the module-level diagnostics counter.
    """
    u = np.asarray(u)
    if not np.any(u):
        raise ValueError("Rayleigh quotient of the zero vector")
    num = np.vdot(u, matvec(_as_csr(A), u) if Au is None else Au)
    den = np.vdot(u, matvec(_as_csr(B), u) if Bu is None else Bu)
    if abs(num.imag) > 1e-12 * abs(num) or abs(den.imag) > 1e-12 * abs(den):
        _bump_imag_warnings()
    if den.real == 0.0:
        raise ZeroDivisionError("Rayleigh quotient denominator is zero")
    return num.real / den.real


class DualNorm:
    """Evaluator of the dual norm sqrt(r^H (K+M)^{-1} r).

    Inverts K+M, summed on the pattern K and M share, once. Its builder
    passes ``cell_periodic`` when the weights of K and M make K+M repeat
    from cell to cell of a mesh, as unit weights do in K(k) + M: K+M is
    then inverted by FFT from cell (0, 0)'s rows alone
    (:meth:`~blochfem.mesh.CellPeriodicInverse.of_cell`), and factored
    only when it is not on a mesh's DOF lattice. Otherwise it is factored.
    Meant to be constructed once per mesh (and wave vector) and reused for
    every residual of the run.

    Built from K and M, it also has ``precondition``, which applies
    (K+M)^{-1} as a preconditioner needs it: the FFT inverse without the
    refinement step that a norm takes, or the LU's solve.
    """

    def __init__(self, K, M, cell_periodic=False):
        Kd, Md = shared_data(K, M)
        A = with_data(_as_csr(K), Kd + Md)
        if cell_periodic:
            inverse = CellPeriodicInverse.of_cell(A)
            if inverse is not None:
                self.fact = _PeriodicSolve(A, inverse)
                self.precondition = inverse
                return
        try:
            self.fact = Factorization(A)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "K+M is singular; dual norm undefined (%s)" % exc
            ) from exc
        self.precondition = self.fact.solve

    @classmethod
    def from_factorization(cls, fact):
        """Wrap an existing factorization whose matrix already *is* K+M.

        Shift-by-one pencils hit this: K + 1.0*M is bitwise the shifted
        operator, so the solver factorization doubles as the dual-norm
        factorization for free.
        """
        dn = cls.__new__(cls)
        dn.fact = fact
        return dn

    def __call__(self, r):
        return self.norm_and_solve(r)[0]

    def norm_and_solve(self, r):
        """The dual norm of ``r`` and the solve (K+M)^{-1} r it is taken from."""
        r = np.asarray(r)
        if not np.any(r):
            return 0.0, np.zeros_like(r)
        z = self.fact.solve(r)
        val = np.vdot(r, z)
        # r^H (K+M)^{-1} r is real nonnegative for Hermitian positive K+M;
        # tiny negative round-off is clipped
        return float(np.sqrt(max(val.real, 0.0))), z


class BoundedDualNorm:
    """Upper bounds of the dual norm sqrt(r^H A^{-1} r) of
    A = K + w1*M1 + w2*M2, by FFT and preconditioned conjugate gradients;
    it factors nothing.

    With w = min(w1, w2), A - (K + w*M) = (w1 - w)*M1 + (w2 - w)*M2 is
    positive semidefinite, and so is K, so K + w*M <= A <= kappa (K + w*M)
    with kappa = max(w1, w2) / w. B = (K + w*M)^{-1} is therefore an upper
    bound of A^{-1}, and the spectrum of B A lies in [1, kappa]: B is a
    spectrally equivalent preconditioner of A (D'yakonov, *Optimization in
    Solving Elliptic Problems*, 1996), for LOPCG (Knyazev, *SIAM J. Sci.
    Comput.* 23:517-541, 2001) and for conjugate gradients on A.

    B is the FFT inverse of the unit-weight K + w*M
    (:class:`~blochfem.mesh.CellPeriodicInverse`), which is cell-periodic
    by construction. Its stencil is read from cell (0, 0)'s rows alone:
    the stencil of ``A`` there minus (w1 - w) times that of ``M1`` and
    (w2 - w) times that of ``M2``. ``A`` is CSR; ``M1`` and ``M2`` hold the
    region masses on at least those rows
    (:func:`~blochfem.assembly.reference_pencil` keeps no others). ``tol``
    is the tolerance of the leg it serves (see :meth:`norm_and_solve`).
    """

    def __init__(self, A, M1, M2, weights, tol):
        self.A = _as_csr(A)
        w1, w2 = weights
        w = min(w1, w2)
        self.kappa = max(w1, w2) / w
        self.tol = float(tol)
        stencils = [cell_stencil(_as_csr(X)) for X in (self.A, M1, M2)]
        self.B = None
        if all(s is not None for s in stencils):
            sA, s1, s2 = stencils
            self.B = CellPeriodicInverse.of_stencil(
                sA - (w1 - w) * s1 - (w2 - w) * s2, self.A.shape[0])
        if self.B is None:
            raise ValueError("K + w*M is not cell-periodic on a mesh's DOF lattice")

    def norm_and_solve(self, r):
        """An upper bound of the dual norm of ``r`` and the search direction
        it is taken from.

        The bound is sqrt(r^H B r), with the direction B r, where it is at
        most ``tol``, and so stops a leg soundly, or above
        sqrt(kappa) * ``tol``, where the true norm is above ``tol`` too.
        Between the two, conjugate gradients on A y = r, preconditioned by
        B and started at B r, run until the B-norm of their residual s is
        :data:`PCG_RTOL` of the start's, or for :data:`PCG_MAX_STEPS`
        steps. With the exact identity
        r^H A^{-1} r = Re(r^H y + y^H s) + s^H A^{-1} s and
        s^H A^{-1} s <= s^H B s, the bound returned there is
        sqrt(Re(r^H y + y^H s) + s^H B s), with the direction y.
        """
        r = np.asarray(r)
        if not np.any(r):
            return 0.0, np.zeros_like(r)
        z = self.B(r)
        est = float(np.sqrt(max(np.vdot(r, z).real, 0.0)))
        if est <= self.tol or est > math.sqrt(self.kappa) * self.tol:
            return est, z
        return self._pcg(r, z)

    def _pcg(self, r, y):
        s = r - matvec(self.A, y)
        w = self.B(s)
        gamma = np.vdot(s, w).real
        stop = PCG_RTOL ** 2 * gamma
        p = w
        for _ in range(PCG_MAX_STEPS):
            if gamma <= stop:
                break
            q = matvec(self.A, p)
            alpha = gamma / np.vdot(p, q).real
            y = y + alpha * p
            s = s - alpha * q
            w = self.B(s)
            gamma, gamma_prev = np.vdot(s, w).real, gamma
            p = w + (gamma / gamma_prev) * p
        sq = np.vdot(r, y).real + np.vdot(y, s).real + gamma
        return float(np.sqrt(max(sq, 0.0))), y


def is_positive_definite(A):
    """Dense Cholesky test; intended for small matrices in validation paths."""
    arr = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    try:
        np.linalg.cholesky(arr)
        return True
    except np.linalg.LinAlgError:
        return False
