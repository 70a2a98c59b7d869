"""Linearization of the rational (lossless Drude-Lorentz) eigenproblem.

The TM problem with permittivity alpha1 on the background and
eps2(lam) = alpha2 + sum_l xi2_l/(eta2_l - lam) on the disk is equivalent to
the nonlinear equation

    K(k) u + Xi*M2 u = lam*M_alpha u + s(lam)*M2 u,
    s(lam) = sum_l xi2_l*eta2_l/(eta2_l - lam),   M_alpha = alpha1*M1 + alpha2*M2,

whose strictly proper tail s(lam) can be traded for L auxiliary fields
supported on the disk. That turns the problem into one *linear* Hermitian
pencil on the extended space V x X^L:

    [[K + Xi*M2 + beta*M_alpha,  -b_1 R,        -b_2 R,       ...]
     [-b_1 R^H,                  (eta2_1+beta)*M_X,  0,       ...]   z = mu [[M_alpha,      ]
     [-b_2 R^H,                  0,             (eta2_2+beta)*M_X ]]          [  M_X, M_X, ..]] z

with mu = lam + beta. X is spanned by the V basis functions whose support
meets the disk; with that choice R (the V-to-X coupling mass on the disk)
and M_X are literally sub-blocks of M2 and the equivalence holds exactly at
the discrete level, not just in the limit. The same sub-block structure lets
every inverse power step eliminate the auxiliary blocks exactly (see
:class:`EliminatedPencil`) -- essential in floating point, where M_X is
singular to working precision on quadrature-cut cells.

The extended matrix is positive definite once beta exceeds the resonance
spread max(eta2) - min(eta2); smaller shifts are rejected up front
(ShiftBoundError) because every positivity statement downstream relies on
that bound.

:func:`build_companion` returns that pencil as one
:class:`EliminatedPencil`: the extended matrices, the subspace X, the Schur
complement its steps solve with and the nonlinear residual its rows record.
:func:`solve_linearized` takes the paper's inverse power steps on a leg of
fixed length and runs LOPCG on span{x, step(x), p} on a leg to a
tolerance. The rate of the power steps is (lam1 + beta)/(lam2 + beta), slow
for a shift just above the spread; both kinds of leg solve with the Schur
complement, never with the extended matrix, and record the nonlinear
residual. Its dual norm is that of K + M_alpha, which
:class:`~blochfem.linalg.DualNorm` inverts by FFT when alpha1 == alpha2,
one weight on both regions, and otherwise by one factorization.
"""

import numpy as np
import scipy.sparse as sparse
from dataclasses import dataclass

from . import dispersion
from .assembly import assemble_tm
from .errors import ShiftBoundError
from .eigeniter import Pencil, inverse_power_rq, lopcg
from .linalg import (DualNorm, Factorization, HermitianSparse, compact,
                     shared_data, with_data)

__all__ = [
    "CompanionSolution",
    "EliminatedPencil",
    "NonlinearResidual",
    "build_companion",
    "default_big_start",
    "lifted_big_start",
    "solve_linearized",
    "shift_lower_bound",
]


def shift_lower_bound(model):
    """Positivity threshold for the extended system: the resonance spread."""
    if not model.terms:
        return 0.0
    eta2 = [t.eta2 for t in model.terms]
    return max(eta2) - min(eta2)


class EliminatedPencil(Pencil):
    """Extended pencil whose inverse steps eliminate the auxiliary fields.

    ``xdofs`` lists the V-DOFs whose basis functions overlap the disk (the
    criterion is an exactly-positive diagonal in the disk mass M2 -- the
    diagonal is a sum of nonnegative quadrature contributions, so it is zero
    precisely for basis functions the disk quadrature never sees). ``R`` is
    M2 restricted to those columns (full V rows), and ``M_X`` is the square
    restriction; by construction ``R[xdofs, :] == M_X`` entry for entry.
    The pencil also keeps the V-space ``forms`` it was built from, the
    ``weights`` (alpha1, alpha2) and the pivot mass
    M_alpha = alpha1*M1 + alpha2*M2 it sums from them, and the model's
    ``realization``.

    Solving with the assembled extended matrix directly is numerically
    hopeless: a basis function whose support meets the disk only in a thin
    sliver carries disk mass near roundoff, and restricted to such slivers
    neighbouring basis functions are almost parallel, so M_X (and with it the
    extended mass) is singular to working precision -- condition numbers
    around 1e20 on level 1, untouched by diagonal scaling. Factoring the
    extended matrix then leaks O(1e-10) noise into the iterates through the
    near-null sliver directions.

    The cure is that no solve ever needs M_X. Since R and M_X are literal
    sub-blocks of M2 (and M2 has no nonzero column outside the X-DOFs),

        R^H v = M_X * (v restricted to X),      R * (w|_X) = M2 * w

    hold entry for entry, and eliminating the auxiliary blocks from
    A_beta z = I q turns one inverse application into a single solve with the
    V-space Schur complement

        S = K + Xi*M2 + beta*M_alpha - sum_l b_l^2/(eta2_l + beta) * M2

    (Hermitian positive definite for every admissible shift) followed by the
    closed-form update z_l = (x_l + b_l * z_u|_X) / (eta2_l + beta). In exact
    arithmetic this is the same power iteration as solving with the extended
    matrix; in floating point it is the difference between a mu-trace that
    wanders at 1e-10 near the fixed point and one that is monotone to
    working precision.

    For the same reason a row never takes the extended pencil's dual norm:
    :meth:`residual_dual` is the residual of the *nonlinear* problem, the
    quantity the linearization exists to drive down.
    """

    def __init__(self, forms, weights, realization, beta):
        w1, w2 = weights
        m1, m2 = shared_data(forms.M1, forms.M2)
        self.M_alpha = HermitianSparse(with_data(forms.M1.mat, w1 * m1 + w2 * m2))
        M2 = compact(forms.M2.mat)
        self.xdofs = np.flatnonzero(M2.diagonal().real > 0.0)
        self.R = M2.tocsc()[:, self.xdofs].tocsr()
        self.M_X = self.R[self.xdofs, :]
        self.forms = forms
        self.weights = weights
        self.realization = realization
        A00 = self._v_block(realization.Xi, beta)
        L = realization.order
        blocks = [[A00] + [-b_l * self.R for b_l in realization.b]]
        for ell in range(L):
            row = [None] * (L + 1)
            row[0] = -realization.b[ell] * self.R.conj().T
            row[ell + 1] = (realization.A[ell] + beta) * self.M_X
            blocks.append(row)
        super().__init__(
            HermitianSparse(sparse.bmat(blocks, format="csr")),
            HermitianSparse(
                sparse.block_diag([self.M_alpha.mat] + [self.M_X] * L, format="csr")
            ),
            beta,
        )
        self._residual = None
        self._schur = None

    @property
    def n_v(self):
        return self.forms.K.n

    def split(self, z):
        """Split an extended vector into (u, x) with x of shape (L, n_x)."""
        n_v, n_x = self.n_v, self.xdofs.shape[0]
        u = z[:n_v]
        L = self.realization.order
        x = z[n_v:].reshape(L, n_x) if L else np.zeros((0, n_x), dtype=z.dtype)
        return u, x

    @property
    def nonlinear_residual(self):
        """The :class:`NonlinearResidual` its rows record (built lazily)."""
        if self._residual is None:
            self._residual = NonlinearResidual(
                self.forms, self.M_alpha, self.realization, self.weights
            )
        return self._residual

    @property
    def schur(self):
        """Factorization of the V-space Schur complement S (built lazily)."""
        if self._schur is None:
            eta2, b = self.realization.A, self.realization.b
            weight = self.realization.Xi - np.sum(b * b / (eta2 + self.beta))
            self._schur = Factorization(self._v_block(weight, self.beta))
        return self._schur

    def _v_block(self, weight, beta):
        """K + weight*M2 + beta*M_alpha, on the forms' one pattern."""
        K, M2, Ma = shared_data(self.forms.K, self.forms.M2, self.M_alpha)
        return with_data(self.forms.K.mat, K + weight * M2 + beta * Ma)

    def step(self, q):
        u, x = self.split(np.asarray(q, dtype=complex))
        eta2, b = self.realization.A, self.realization.b
        rhs = self.M_alpha @ u
        if self.realization.order:
            rhs = rhs + self.R @ ((b / (eta2 + self.beta)) @ x)
        z_u = self.schur.solve(rhs)
        z_x = (x + np.outer(b, z_u[self.xdofs])) / (eta2 + self.beta)[:, None]
        return np.concatenate([z_u, z_x.ravel()])

    def residual_dual(self, q, mu):
        """Nonlinear residual of the field of ``q`` at lam = mu - beta."""
        u, _ = self.split(q)
        return self.nonlinear_residual(u, mu - self.beta)


def build_companion(mesh, k, model, alpha1=1.0, beta=None):
    """Assemble the extended Hermitian pencil for a lossless rational model.

    ``beta`` defaults to the resonance spread plus one. Shifts at or below
    the spread are rejected (ShiftBoundError): positivity of the extended
    matrix is only guaranteed above it.

    With an empty model (no resonances) the construction degenerates to the
    plain shifted pencil (K + beta*M_alpha, M_alpha) on V.
    """
    if not isinstance(model, dispersion.SimplifiedDL):
        raise TypeError(
            "the linearization needs the lossless Drude-Lorentz variant, got "
            f"{type(model).__name__}"
        )
    if alpha1 <= 0.0:
        raise ValueError(f"alpha1 must be positive, got {alpha1}")
    bound = shift_lower_bound(model)
    if beta is None:
        beta = bound + 1.0
    beta = float(beta)
    if beta <= bound:
        raise ShiftBoundError(
            f"shift beta = {beta} does not exceed the resonance spread "
            f"max(eta2) - min(eta2) = {bound}; positivity of the extended "
            "matrix is not guaranteed below that bound"
        )

    return EliminatedPencil(assemble_tm(mesh, k), (alpha1, model.alpha2),
                            dispersion.realize(model), beta)


def default_big_start(pencil):
    """All-ones on the physical field, zero on the auxiliary blocks."""
    z = np.zeros(pencil.n, dtype=complex)
    z[: pencil.n_v] = 1.0
    return z


def lifted_big_start(pencil, u, lam):
    """The physical field ``u`` with its auxiliary blocks at eigenvalue
    ``lam``, from their defining relation x_l = b_l / (eta2_l - lam) * u|_X."""
    eta2, b = pencil.realization.A, pencil.realization.b
    x = (b / (eta2 - lam))[:, None] * u[pencil.xdofs][None, :]
    return np.concatenate([u, x.ravel()])


class NonlinearResidual:
    """Dual-norm residual of the rational eigenproblem, reusable across steps.

    The dual norm lives on V with the pivot mass M_alpha of ``weights``
    (alpha1, alpha2): :class:`~blochfem.linalg.DualNorm` of K + M_alpha.
    The input u is renormalized to M_alpha-norm 1 so residual magnitudes
    are comparable across steps and meshes.
    """

    def __init__(self, forms, M_alpha, realization, weights):
        self.forms = forms
        self.M_alpha = M_alpha
        self.realization = realization
        self.dual = DualNorm(forms.K, forms.M1, forms.M2, weights)

    def __call__(self, u, lam):
        Mu = self.M_alpha @ u
        nrm = np.sqrt(np.vdot(u, Mu).real)
        if nrm <= 0.0:
            raise ValueError("residual of a zero field")
        s = dispersion.transfer(self.realization, lam)
        r = (
            self.forms.K @ u
            + (self.realization.Xi - s) * (self.forms.M2 @ u)
            - lam * Mu
        ) / nrm
        return self.dual(r)


@dataclass
class CompanionSolution:
    trace: object
    u: np.ndarray
    x: np.ndarray
    lam: float
    mu: float


def solve_linearized(pencil, z0=None, steps=None, tol=None, mesh_level=0,
                     trace=None, max_steps=10000):
    """Inverse iteration, or LOPCG to a tolerance, on the extended pencil.

    A leg of ``steps`` rows takes the paper's Rayleigh inverse power steps.
    A leg to ``tol`` runs :func:`~blochfem.eigeniter.lopcg` with the
    eliminated inverse step as its search direction; its first row is the
    start's own residual, and it fails as ``LOPCG did not reach ...``. Both
    solve with the Schur complement and never factor the extended matrix.

    Trace rows (and the ``tol`` stop) use the pencil's
    :meth:`~EliminatedPencil.residual_dual`, the dual-norm residual of the
    recovered field in the *nonlinear* problem.

    Returns a :class:`CompanionSolution` with the M_alpha-normalized field
    ``u``, the auxiliary blocks ``x`` (shape (L, n_x)) taken from the same
    extended iterate, and ``lam = mu - beta``.
    """
    if z0 is None:
        z0 = default_big_start(pencil)
    z0 = np.asarray(z0, dtype=complex)
    if not np.any(z0[: pencil.n_v]):
        raise ValueError("start vector has a zero physical component")
    # invert K + M_alpha before the first step factors the Schur complement;
    # built earlier, it raised experiment2's peak RSS by 2 MB (heap layout)
    pencil.nonlinear_residual
    if steps is None:
        trace, z = lopcg(pencil, z0, tol, max_steps=max_steps,
                         mesh_level=mesh_level, trace=trace)
    else:
        trace, z = inverse_power_rq(pencil, z0, steps=steps, tol=tol,
                                    mesh_level=mesh_level, trace=trace)
    mu = trace[-1].mu
    u, x = pencil.split(z)
    nrm = np.sqrt(np.vdot(u, pencil.M_alpha @ u).real)
    return CompanionSolution(
        trace=trace, u=u / nrm, x=x / nrm, lam=mu - pencil.beta, mu=mu
    )
