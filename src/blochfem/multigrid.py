"""Geometric multigrid for the dual-norm operator K + M_w on nested meshes.

The meshes are nested and :func:`~blochfem.mesh.prolongation_matrix` is the
exact interpolation between them, so the Galerkin operators P^T A P of
A = K + M_w come down to level 0 without any assembly. :class:`VCycle`
applies one symmetric V-cycle B ~ A^{-1}: a degree-3 Chebyshev smoother on
D^{-1} A (D the diagonal of A), the same polynomial before and after the
coarse correction, and an LU solve on level 0, the only factorization it
makes. With a smoother polynomial bounded by one on the spectrum of
D^{-1} A, the cycle is Hermitian positive definite and contracts the error
in the A-norm (Hackbusch, *Multi-Grid Methods and Applications*, 1985,
ch. 10), which makes it a preconditioner for LOPCG (Knyazev & Neymeyr,
*ETNA* 15:38-55, 2003) and for conjugate gradients.

:meth:`VCycle.norm_and_solve` has the contract of
:meth:`blochfem.linalg.DualNorm.norm_and_solve`, so
:func:`~blochfem.eigeniter.lopcg` takes either one.
"""

import math

import numpy as np

from .linalg import Factorization, matvec, with_data
from .mesh import build_mesh, prolongation_matrix

__all__ = ["CHEBYSHEV_DEGREE", "CONTRACTION_BOUND", "PCG_RTOL", "VCycle"]

#: degree of the Chebyshev smoother, before and after the coarse correction
CHEBYSHEV_DEGREE = 3
#: the smoother damps the top of the spectrum of D^{-1} A, [hi / 30, hi]
SMOOTH_RATIO = 30.0
#: power steps, and their safety factor, of the largest eigenvalue of D^{-1} A
POWER_STEPS = 10
POWER_SAFETY = 1.1
#: a verifying PCG stops once its preconditioned residual is this fraction
#: of its start's
PCG_RTOL = 1e-3
PCG_MAX_STEPS = 50
#: assumed bound on the A-norm contraction of one V-cycle, |I - BA|_A. It
#: gives lambda_min(BA) >= 1 - CONTRACTION_BOUND, and with it the upper
#: bound on the part of the dual norm a stopped PCG has not reached. The
#: cycle contracts the error by 0.30-0.34 per application at L2-L4 on
#: experiment1's disk; tests/test_multigrid.py checks the bound at L2.
CONTRACTION_BOUND = 0.5


def _largest_eigenvalue(A, dinv):
    """POWER_SAFETY times a power estimate of the top of D^{-1} A's spectrum.

    The start is the checkerboard (-1)^(x+y) on the DOF lattice, the
    sawtooth that D^{-1} A amplifies most: after POWER_STEPS steps the
    D-weighted Rayleigh quotient, which lies below the largest eigenvalue,
    reads it to within 4e-4 at L0-L3. The start is fixed, so two runs give
    the same interval.
    """
    side = math.isqrt(A.shape[0])
    y, x = np.divmod(np.arange(A.shape[0]), side)
    v = np.where((x + y) % 2 == 0, 1.0, -1.0).astype(A.dtype)
    for _ in range(POWER_STEPS):
        v = dinv * (A @ v)
        v /= np.linalg.norm(v)
    return POWER_SAFETY * np.vdot(v, A @ v).real / np.vdot(v, v / dinv).real


def _galerkin(A, P):
    """P^T A P as CSR. P is real, so a complex A goes through its real and
    imaginary parts in turn, which holds only one part's products at a
    time. scipy's sum of the two keeps every entry with a nonzero part,
    as the complex product does, with the same bits; its copy drops the
    sum's buffers, which are sized for both summands."""
    if A.dtype.kind != "c":
        return (P.T @ (A @ P)).tocsr()
    re, im = ((P.T @ (with_data(A, part) @ P)).tocsr()
              for part in (A.data.real, A.data.imag))
    return (re + 1j * im).copy()


class _Level:
    """One smoothed level: A, 1 / diag(A), the Chebyshev interval and the
    prolongation from the level below."""

    def __init__(self, A, P):
        self.A = A
        self.P = P
        self.dinv = 1.0 / A.diagonal().real
        self.hi = _largest_eigenvalue(A, self.dinv)
        self.lo = self.hi / SMOOTH_RATIO

    def smooth(self, b, x=None):
        """CHEBYSHEV_DEGREE steps of the Chebyshev semi-iteration on
        D^{-1} A x = D^{-1} b from ``x`` (zero when None); returns the new x.

        The error leaves multiplied by the residual polynomial
        T_d((theta - t) / delta) / T_d(theta / delta) of t = D^{-1} A,
        bounded by one on [0, hi] (Saad, *Iterative Methods for Sparse
        Linear Systems*, 2nd ed., alg. 12.1).
        """
        theta = 0.5 * (self.hi + self.lo)
        delta = 0.5 * (self.hi - self.lo)
        sigma = theta / delta
        rho = 1.0 / sigma
        r = b if x is None else b - self.A @ x
        d = (self.dinv * r) / theta
        x = d if x is None else x + d
        for _ in range(CHEBYSHEV_DEGREE - 1):
            r = r - self.A @ d
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / delta) * (self.dinv * r)
            rho = rho_next
            x = x + d
        return x


class VCycle:
    """One symmetric V-cycle B ~ A^{-1} for A = K + M_w on ``mesh``.

    ``A`` is the CSR matrix of K + M_w on ``mesh`` (Hermitian positive
    definite). The coarse operators are P^T A P down to level 0, where A is
    factorized. ``tol`` is the tolerance of the leg the cycle serves (see
    :meth:`norm_and_solve`).
    """

    def __init__(self, A, mesh, tol):
        self.tol = float(tol)
        self.A = A
        self.levels = []
        for level in range(mesh.level - 1, -1, -1):
            P = prolongation_matrix(build_mesh(level))
            self.levels.append(_Level(A, P))
            A = _galerkin(A, P)
        self.coarse = Factorization(A)
        self.levels.reverse()   # coarsest smoothed level first

    def apply(self, r):
        """B r, one V-cycle from a zero start."""
        return self._cycle(len(self.levels), np.asarray(r))

    def _cycle(self, depth, b):
        if depth == 0:
            return self.coarse.solve(b)
        lv = self.levels[depth - 1]
        x = lv.smooth(b)
        # P is real: complex vectors move between levels part by part
        coarse = self._cycle(depth - 1, matvec(lv.P.T, b - lv.A @ x))
        x = x + matvec(lv.P, coarse)
        return lv.smooth(b, x)

    def norm_and_solve(self, r):
        """A dual norm of ``r`` and the search direction it is taken from.

        Above ``tol`` the norm is the V-cycle's sqrt(r^H B r), which reads
        about 0.9 of sqrt(r^H A^{-1} r), so it never stops a leg by itself.
        At or below ``tol`` it is replaced by the dual norm from conjugate
        gradients on A y = r, preconditioned by the cycle and started at
        B r, once their preconditioned residual s has fallen to
        :data:`PCG_RTOL` of the start's. With the exact identity
        r^H A^{-1} r = Re(r^H y + y^H s) + s^H A^{-1} s, and
        s^H A^{-1} s <= s^H B s / (1 - :data:`CONTRACTION_BOUND`), the norm
        returned there is an upper bound of the true one, and y is the
        search direction. A PCG that has not reached :data:`PCG_RTOL` within
        PCG_MAX_STEPS steps returns the same bound, only less tight.
        """
        r = np.asarray(r)
        if not np.any(r):
            return 0.0, np.zeros_like(r)
        z = self.apply(r)
        est = float(np.sqrt(max(np.vdot(r, z).real, 0.0)))
        if est > self.tol:
            return est, z
        return self._verified(r, z)

    def _verified(self, r, y):
        s = r - self.A @ y
        w = self.apply(s)
        gamma = np.vdot(s, w).real
        stop = PCG_RTOL ** 2 * gamma
        p = w
        for _ in range(PCG_MAX_STEPS):
            if gamma <= stop:
                break
            q = self.A @ p
            alpha = gamma / np.vdot(p, q).real
            y = y + alpha * p
            s = s - alpha * q
            w = self.apply(s)
            gamma, gamma_prev = np.vdot(s, w).real, gamma
            p = w + (gamma / gamma_prev) * p
        sq = np.vdot(r, y).real + np.vdot(y, s).real + gamma / (1.0 - CONTRACTION_BOUND)
        return float(np.sqrt(max(sq, 0.0))), y
