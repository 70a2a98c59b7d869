"""Newton-type iterations for the dispersive nonlinear eigenproblem.

The unknown pair is (u, lam) with lam = omega^2: every supported
permittivity is even in omega, so the problem is rational in lam and the
omega <-> -omega sign ambiguity never enters. The residual map is

    T(lam) u = [K - lam*(alpha1*M1 + eps2(lam)*M2)] u.

Two iterations solve T(lam) u = 0:

* **Bordered Newton** (:func:`newton_step`, :func:`newton_solve`). Every
  step is closed by one normalization: with u the iterate it starts from,
  mass-normalized (u^H M u = 1, M the plain, unweighted mass), it solves
  the bordered Hermitian-plus-border system

      [[T(lam), dT(lam) u], [u^H M, 0]] (s, nu) = (-T(lam) u, 0)

  as one system -- T(lam) itself turns singular at convergence, so
  eliminating through it is exactly the wrong move, while the bordered
  matrix stays well conditioned. The constraint row forces u^H M s = 0, so
  the update is M-orthogonal to the iterate and the border follows the
  eigenvector even from a start as far off as a warm start; dividing the
  new field by its component along u removes roundoff drift. Each step
  factors the sparse (n+1) x (n+1) matrix, and converges quadratically
  from a good enough start. It is the leg of level 0, and of the only
  level of a ``fine_only`` run.
* **Residual inverse iteration** (:func:`residual_inverse_iteration`;
  Neumaier, SIAM J. Numer. Anal. 22(5), 1985) for a start that comes with
  a good shift sigma, such as a coarse mesh's eigenpair; it is the only
  leg of a refined level. Each step takes lam from the scalar Rayleigh
  functional u^H T(lam) u = 0 and updates u <- u - T(sigma)^{-1} T(lam) u,
  converging linearly at a rate proportional to |lam - sigma|. It factors
  nothing: the solve with T(sigma) is GMRES
  (:func:`~blochfem.linalg.gmres_solve`) to a residual of
  :data:`~blochfem.linalg.INNER_RTOL` = 1e-3 of the right-hand side's,
  preconditioned by the FFT inverse of K + M that the dual norms use, which
  keeps the linear rate (Szyld & Xue, Numer. Math. 123, 2013). A GMRES
  solve that misses its tolerance within
  :data:`~blochfem.linalg.GMRES_MAX_ITER` iterations raises
  NonConvergenceError, and so does a leg that stops on the rounding floor
  or runs out of steps; no partial answer is handed on. The rows record
  the exact dual norm of T(lam) u.

Every dual norm here is that of K + M, M = M1 + M2 the pivot mass with
the weights (1, 1): one weight on both regions, so
:class:`~blochfem.linalg.DualNorm` inverts K + M by FFT on a mesh.

Each row multiplies its field u once by K, M1 and M2 (:class:`Products`).
T(lam) u is the sum K u - lam*alpha1*M1 u - lam*eps2(lam)*M2 u of those
products, for the row's residual and for the right-hand side of the next
solve; an assembled T(lam) would round away the cancellation of its
entries near an eigenvalue. T is assembled only as the operator of a
solve: T(sigma), and T(lam) inside the bordered matrix.

Both are generators of trace rows (:func:`_newton_rows`, :func:`_rii_rows`)
run by :func:`~blochfem.eigeniter.iterate`, which times and records the
rows and applies the stop rules.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import dispersion
from .assembly import AssembledForms
from .eigeniter import Pencil, inverse_power_rq, iterate
from .errors import NonConvergenceError, SingularMatrixError
from .linalg import (DualNorm, Factorization, gmres_solve, rayleigh_quotient,
                     shared_data, with_data)

__all__ = [
    "NonlinearPencil",
    "NewtonState",
    "Products",
    "newton_step",
    "newton_solve",
    "rayleigh_functional",
    "residual_inverse_iteration",
    "warm_start",
    "decay_exponent",
]


# rayleigh_functional stops once its scalar Newton step is at most
# FUNCTIONAL_RTOL relative, and gives up after FUNCTIONAL_MAXIT steps
FUNCTIONAL_RTOL = 1e-14
FUNCTIONAL_MAXIT = 50


@dataclass
class NonlinearPencil:
    """T(lam) = K - lam*(alpha1*M1 + eps2(lam)*M2) and its lam-derivative.

    ``forms`` holds K, M1 and M2 on one pattern, so T(lam) is a sum of
    their data vectors. The derivative is only applied, summed from
    products (:meth:`apply_derivative`).
    """

    forms: AssembledForms
    model: object
    alpha1: float = 1.0

    def __post_init__(self):
        if self.alpha1 <= 0.0:
            raise ValueError(f"alpha1 must be positive, got {self.alpha1}")
        self._dual = None

    @property
    def n(self):
        return self.forms.K.n

    @property
    def dual(self):
        """The :class:`~blochfem.linalg.DualNorm` of K + M, M = M1 + M2,
        built once; it is an FFT inverse on a mesh. Its ``precondition``
        also preconditions the GMRES solves of the refined levels."""
        if self._dual is None:
            f = self.forms
            self._dual = DualNorm(f.K, f.M1, f.M2, (1.0, 1.0))
        return self._dual

    def products(self, u):
        """The :class:`Products` of the field ``u``: one pass of K, M1 and
        M2. Products are returned as they are."""
        if isinstance(u, Products):
            return u
        f = self.forms
        return Products(u, f.K @ u, f.M1 @ u, f.M2 @ u)

    def T(self, lam):
        """The assembled T(lam): the operator of a solve. A residual sums
        products instead (:meth:`apply`)."""
        lam = float(lam)
        eps2 = dispersion.eval_lambda(self.model, lam)
        f = self.forms
        K, M1, M2 = shared_data(f.K, f.M1, f.M2)
        return with_data(f.K.mat, K - lam * self.alpha1 * M1 - lam * eps2 * M2)

    def apply(self, p, lam):
        """T(lam) u = K u - (lam*alpha1) M1 u - (lam*eps2) M2 u from u's
        :class:`Products` ``p``.

        Near an eigenvalue the entries of an assembled T(lam) cancel, and
        rounding them leaves T(lam) @ u an error above tol = 1e-12 on L3;
        the sum of the products keeps the error of K u, M1 u and M2 u.
        """
        lam = float(lam)
        eps2 = dispersion.eval_lambda(self.model, lam)
        return p.Ku - (lam * self.alpha1) * p.M1u - (lam * eps2) * p.M2u

    def apply_derivative(self, p, lam):
        """dT(lam) u = -alpha1 M1 u - (eps2 + lam*eps2') M2 u from u's
        :class:`Products` ``p``."""
        lam = float(lam)
        eps2 = dispersion.eval_lambda(self.model, lam)
        deps2 = dispersion.eval_dlambda(self.model, lam)
        return -self.alpha1 * p.M1u - (eps2 + lam * deps2) * p.M2u

    def residual_dual(self, u, lam):
        """Dual norm sqrt(r^H (K+M)^{-1} r) of r = T(lam) u, u the
        mass-normalized field, through :attr:`dual`.

        ``u`` is a field or its :class:`Products`; r is summed from the
        products (:meth:`apply`), and no T(lam) is assembled.
        """
        p = self.products(u)
        return self.dual(self.apply(p, lam) / p.mass_norm())


@dataclass
class Products:
    """A field u with K u, M1 u and M2 u, the one product pass from which a
    Newton row takes its mass norm, its Rayleigh functional, T(lam) u and
    dT(lam) u (:meth:`NonlinearPencil.products`)."""

    u: np.ndarray
    Ku: np.ndarray
    M1u: np.ndarray
    M2u: np.ndarray

    @property
    def Mu(self):
        """M u with M = M1 + M2, the plain mass."""
        return self.M1u + self.M2u

    def mass_norm(self):
        nrm = math.sqrt(max(np.vdot(self.u, self.Mu).real, 0.0))
        if not nrm > 0.0:
            raise ValueError("cannot normalize a zero field")
        return nrm

    def normalized(self):
        """The products of u / ||u||_M, scaled from these."""
        s = 1.0 / self.mass_norm()
        return Products(s * self.u, s * self.Ku, s * self.M1u, s * self.M2u)


@dataclass
class NewtonState:
    """One Newton iterate: field u and eigenvalue lam, with u's
    :class:`Products` when the row that made it took them."""

    u: np.ndarray
    lam: float
    products: Products = field(default=None, repr=False, compare=False)


def newton_step(pencil, state):
    """One bordered Newton update from ``state``; returns the new state,
    with the products of its field.

    The step normalizes against its start: u is ``state.u`` mass-normalized,
    and the new field u' has u^H M u' = 1. Its right-hand side -T(lam) u,
    border column dT(lam) u and border row M u come from u's products; the
    bordered matrix holds the assembled T(lam) and is factored.

    Raises SingularMatrixError if the bordered matrix cannot be factored,
    which means the current (u, lam) sits where the border fails to control
    the nullspace -- restart closer to the eigenpair.
    """
    p = pencil.products(state.u if state.products is None else state.products)
    p = p.normalized()
    c = pencil.apply_derivative(p, state.lam)
    w = p.Mu  # the border row is w^H
    n = pencil.n
    rhs = np.concatenate([-pencil.apply(p, state.lam), [0.0]])
    bordered = sparse.bmat(
        [[pencil.T(state.lam), c.reshape(n, 1)], [w.conj().reshape(1, n), None]],
        format="csr",
    )
    try:
        sol = Factorization(bordered).solve(rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "bordered Newton matrix is singular at lam = %r; restart from "
            "a better (u, lam) (%s)" % (state.lam, exc)
        ) from exc
    u = p.u + sol[:n]
    # nu is real up to roundoff (Hermitian T, real lam); keep lam real
    lam = state.lam + sol[n].real
    pu = np.vdot(w, u)
    if abs(pu) < 1e-300:
        raise ValueError("updated field is orthogonal to the iterate it "
                         "was updated from")
    u = u / pu
    return NewtonState(u=u, lam=lam, products=pencil.products(u))


def newton_solve(pencil, u0, lam0, *, steps=None, tol=None, max_steps=30,
                 mesh_level=0, trace=None):
    """Bordered Newton from (u0, lam0): ``steps`` steps, or until the dual
    residual reaches ``tol``.

    The start field is mass-normalized, and lam0 is taken as it is, as
    :func:`warm_start` returns it. Each step normalizes against the iterate it starts from
    (:func:`newton_step`). A tolerance leg records the residual of the
    *start* as its first row, which ``max_steps`` does not count, then one
    row per step, so decay diagnostics see the full history. Divergence
    (three consecutive residual increases), a stall on the rounding floor
    and running out of steps all raise NonConvergenceError with the trace
    attached (:func:`~blochfem.eigeniter.iterate`).

    Returns the last :class:`NewtonState`.
    """
    p = pencil.products(np.asarray(u0, dtype=complex)).normalized()
    state = NewtonState(u=p.u, lam=float(lam0), products=p)
    start_row = tol is not None
    return iterate(_newton_rows(pencil, state, start_row), pencil.n, trace,
                   mesh_level, steps=steps, tol=tol, max_steps=max_steps,
                   start_row=start_row, name="Newton")[1]


def _newton_rows(pencil, state, start_row=False):
    """Rows of bordered Newton steps from ``state`` (:func:`newton_step`);
    ``state`` carries its products, and each row takes its residual from
    those of its field.

    With ``start_row`` the residual of ``state`` comes first, as tolerance
    legs have it, and the rows raise NonConvergenceError once it grew three
    rows in a row; they test it on resuming, after the row's ``tol``.
    """
    res = None
    if start_row:
        res = pencil.residual_dual(state.products, state.lam)
        yield state, state.lam, state.lam, res
    worse = 0
    while True:
        state = newton_step(pencil, state)
        new_res = pencil.residual_dual(state.products, state.lam)
        yield state, state.lam, state.lam, new_res
        if res is None:
            continue
        worse = worse + 1 if new_res > res else 0
        if worse >= 3:
            raise NonConvergenceError(
                "Newton residual grew three steps in a row (last %.3e); "
                "the start is outside the attraction basin" % new_res
            )
        res = new_res


def rayleigh_functional(pencil, u, lam):
    """The root of the scalar equation u^H T(lam) u = 0 next to ``lam``.

    With a = u^H K u, b1 = u^H M1 u and b2 = u^H M2 u (real, the matrices
    being Hermitian) the equation reads a = lam*(alpha1*b1 + eps2(lam)*b2);
    scalar Newton from ``lam`` solves it. For a constant permittivity this
    is the Rayleigh quotient. ``u`` is a field or its :class:`Products`.
    Raises NonConvergenceError if the scalar iteration does not settle.
    """
    p = pencil.products(u)
    a = np.vdot(p.u, p.Ku).real
    b1 = pencil.alpha1 * np.vdot(p.u, p.M1u).real
    b2 = np.vdot(p.u, p.M2u).real
    lam = float(lam)
    for _ in range(FUNCTIONAL_MAXIT):
        eps2 = dispersion.eval_lambda(pencil.model, lam)
        deps2 = dispersion.eval_dlambda(pencil.model, lam)
        slope = b1 + (eps2 + lam * deps2) * b2
        step = (lam * (b1 + eps2 * b2) - a) / slope
        if not math.isfinite(step):
            break
        lam -= step
        if abs(step) <= FUNCTIONAL_RTOL * abs(lam):
            return lam
    raise NonConvergenceError(
        "Rayleigh functional found no root next to lam = %r" % lam
    )


def residual_inverse_iteration(pencil, u0, sigma, steps=None, tol=None,
                               max_steps=30, mesh_level=0, trace=None):
    """Residual inverse iteration from ``u0`` with the shift ``sigma``.

    Each step updates u <- u - T(sigma)^{-1} T(lam) u, normalizes u in the
    plain mass and takes lam from :func:`rayleigh_functional`; the start
    gets its lam the same way. The solve with T(sigma) factors nothing: it
    is :func:`~blochfem.linalg.gmres_solve`, to a residual of
    :data:`~blochfem.linalg.INNER_RTOL` of the right-hand side's,
    preconditioned by :attr:`NonlinearPencil.dual`'s inverse of K + M. Runs
    ``steps`` steps, or iterates until the dual residual reaches ``tol``;
    the tolerance run records the start's residual as its first row, which
    ``max_steps`` does not count, as :func:`newton_solve` does. A stall on
    the rounding floor, ``max_steps`` steps without reaching ``tol``, and a
    GMRES solve that misses its tolerance raise NonConvergenceError with the
    trace so far (:func:`~blochfem.eigeniter.iterate`).

    Each step multiplies its iterate once by K, M1 and M2 (:class:`Products`):
    the mass norm, the Rayleigh functional, the row's residual and the next
    right-hand side T(lam) u all come from those products. The one T built
    is T(sigma), the operator of the solves.

    Returns the last :class:`NewtonState`, u mass-normalized.
    """
    start_row = tol is not None
    return iterate(_rii_rows(pencil, u0, sigma, start_row), pencil.n, trace,
                   mesh_level, steps=steps, tol=tol, max_steps=max_steps,
                   start_row=start_row, name="residual inverse iteration")[1]


def _rii_rows(pencil, u0, sigma, start_row):
    """Rows of residual inverse iteration; with ``start_row`` the residual of
    the start comes first."""
    p = pencil.products(np.asarray(u0, dtype=complex)).normalized()
    lam = rayleigh_functional(pencil, p, sigma)
    if start_row:
        yield (NewtonState(u=p.u, lam=lam, products=p), lam, lam,
               pencil.residual_dual(p, lam))
    T_sigma = pencil.T(sigma)
    precond = pencil.dual.precondition
    while True:
        u = p.u - gmres_solve(T_sigma, pencil.apply(p, lam), precond)
        p = pencil.products(u).normalized()
        lam = rayleigh_functional(pencil, p, lam)
        yield (NewtonState(u=p.u, lam=lam, products=p), lam, lam,
               pencil.residual_dual(p, lam))


def warm_start(mesh, k, const_eps2=2.0, rq_steps=8, alpha1=1.0):
    """Start pair from Rayleigh iteration on a constant-permittivity proxy.

    Freezes the dispersive permittivity at ``const_eps2``, runs ``rq_steps``
    Rayleigh-quotient inverse-power steps on the resulting linear pencil
    (unit shift), and returns that iterate and its eigenvalue lam.
    ``rq_steps = 0`` skips the iteration and returns the all-ones start with
    its raw Rayleigh value.
    """
    if const_eps2 <= 0.0:
        raise ValueError(f"const_eps2 must be positive, got {const_eps2}")
    if rq_steps < 0:
        raise ValueError(f"rq_steps must be >= 0, got {rq_steps}")
    pencil = Pencil.on_mesh(mesh, k, (alpha1, const_eps2), 1.0)
    u = np.ones(pencil.n, dtype=complex)
    if rq_steps == 0:
        lam = rayleigh_quotient(u, pencil.A_beta, pencil.M_w) - 1.0
    else:
        tr, u = inverse_power_rq(pencil, u, steps=rq_steps)
        lam = tr[-1].lam
    if lam <= 0.0:
        raise NonConvergenceError(
            f"warm start produced a non-positive eigenvalue {lam}"
        )
    return pencil.normalized(u), lam


def decay_exponent(residuals, transitions=3, saturation=5.0):
    """Fitted p in r_{j+1} ~ C * r_j^p over the last ``transitions`` decreases.

    Only strictly decreasing consecutive pairs count, and pairs whose
    endpoint lands within ``saturation`` times the smallest residual of the
    whole sequence are dropped: those steps crashed into the floating-point
    residual floor (a quadratic step from 1e-9 "reaches" 1e-13 instead of
    1e-18, reading as sublinear) and measure the floor, not the method.
    Needs at least two surviving pairs; quadratic convergence shows up as p
    close to 2.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size < 2:
        raise ValueError("need at least two residuals to fit an exponent")
    floor = r.min()
    pairs = [
        (r[i], r[i + 1])
        for i in range(len(r) - 1)
        if r[i] > r[i + 1] > saturation * floor
    ]
    pairs = pairs[-transitions:]
    if len(pairs) < 2:
        raise ValueError(
            "need at least two decreasing residual steps above the "
            "saturation floor to fit an exponent"
        )
    lo = np.log([p[0] for p in pairs])
    hi = np.log([p[1] for p in pairs])
    slope, _ = np.polyfit(lo, hi, 1)
    return float(slope)
