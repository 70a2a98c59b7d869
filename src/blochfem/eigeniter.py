"""Inverse power iterations, LOPCG and a Krylov accelerator for shifted Hermitian pencils.

The solvers here operate on a :class:`Pencil` (A_beta, M_w) with
A_beta = K + beta*M_w positive definite and M_w the (positive definite) mass
that defines the working inner product. One step of either power variant is

    solve   A_beta w = M_w q          (q = current iterate, M_w-normalized)
    scale   u = mu_prev * w           (Rayleigh variant; plain keeps w)
    value   mu = Rayleigh quotient of the new iterate in (A_beta, M_w)

The two variants produce the same normalized iterates and the same mu
sequence; they differ only in the length of the raw vectors (the Rayleigh
scaling keeps them O(1), the plain variant converges to a vector of M_w-norm
1/mu). Residuals are always evaluated on the normalized iterate and measured
in the dual norm induced by K + M_w. A row records :meth:`Pencil.residual_dual`,
a solve with K + M_w, except where that operator is A_beta itself
(beta == 1): there a row whose step is sure to be used takes the next
row's step first and its residual from that step, so it solves once. Such
a row records an estimate within about 1e-5 relative of the norm; the row
that stops a leg and every row on the rounding floor record the exact norm
(:func:`_power_rows`).

:func:`lopcg` iterates a good start (a coarser mesh's eigenvector) down to a
tolerance, a three-vector Rayleigh-Ritz projection taking the place of the
power step. On the plain pencil it runs on a dual-norm preconditioner it is
given, the exact :class:`~blochfem.linalg.DualNorm` or, in the
power-family reference, the FFT bound
:class:`~blochfem.linalg.BoundedDualNorm`: one application per step gives
both the residual and the next search direction. Without one its search
direction is the pencil's inverse step, taken after the row records
:meth:`Pencil.residual_dual` (which the linearized rational pencil
overrides with the nonlinear residual).

Every solver leg, those of :mod:`blochfem.newton` too, is a generator of
trace rows run by :func:`iterate`, which times and records the rows and
owns the step count, tolerance, step budget and rounding-floor stop.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import assemble_tm
from .errors import NonConvergenceError
from .linalg import (DualNorm, Factorization, rayleigh_quotient,
                     shared_data, with_data)
from .trace import IterationTrace

__all__ = [
    "BREAKDOWN_TOL",
    "DROP_TOL",
    "Pencil",
    "iterate",
    "inverse_power_rq",
    "inverse_power_plain",
    "lopcg",
    "ArnoldiResult",
    "arnoldi",
]

# An orthogonalized Krylov direction with M_w-norm below this (iterates are
# kept at norm one, so the scale is absolute) means the subspace is invariant
# to working precision.
BREAKDOWN_TOL = 1e-12

# lopcg drops a search direction that Gram-Schmidt shrinks below this
# fraction of its length: what is left is a few ulps of rounding. Anything
# longer still points somewhere. The inverse step on the companion pencil
# is parallel to x up to the residual, so a drop at 1e-12 stopped those legs
# at a nonlinear residual of 3.6e-12 on level 1, where the power steps go
# below 1e-13.
DROP_TOL = 1e-15

# A run that iterates to a tolerance stops with NonConvergenceError once its
# residual is within FLOOR_FACTOR of tol and has not halved over the last
# FLOOR_STEPS steps: it sits on the rounding floor of its mesh, and the rest
# of its step budget would not move it.
FLOOR_FACTOR = 100.0
FLOOR_STEPS = 5

# A power row that takes its dual residual from the next step
# (_dual_from_step) takes the exact norm instead where the square it
# estimates is at most LOOK_AHEAD_GUARD times the size of its rounding
# error, ||A_beta|| (eps (||q|| + |mu| ||w||))^2. That error lowers the
# square by about twice the size, 2e-5 relative at the guard. The row's r
# is summed from the products of the raw iterate, not rounded as the exact
# norm's is, which moves the square by as much again on the last rows of
# a leg. Measured on one BLAS thread: the look-ahead rows of experiment1's
# schedule and of its fine_only variant, and of experiment1's settings at
# test_linalg.K_POINTS, read 5.3e6 to 1.4e27 times that size, and their
# estimates were within 8.1e-6 relative of the LU dual norm (3.1e-7 at
# experiment1's own k). The rows of the homogeneous cell (homogeneous,
# L0-L4, and all nine points of sweep_gamma_x), whose legs sit on the
# rounding floor, read -0.63 to 0.054, where the estimate carries nothing
# of a norm of 7e-15 to 2e-13.
LOOK_AHEAD_GUARD = 1e5


class Pencil:
    """Shifted positive definite pencil (A_beta, M_w) with cached solvers.

    The factorization of A_beta and the dual-norm factorization of
    K + M_w = A_beta + (1-beta) M_w are built lazily and reused for every
    step. For beta == 1 the two matrices coincide bitwise, so one
    factorization serves both purposes, and a power row can take its
    residual from the next step instead of a solve of its own
    (:func:`_power_rows`). A_beta and M_w are
    :class:`HermitianSparse`, Hermitian by construction; built by
    :meth:`on_mesh` they share the mesh's one pattern, so the dual
    operator is a sum of their data vectors, and neither K(k) nor the
    plain mass is ever held whole.
    """

    def __init__(self, A_beta, M_w, beta):
        beta = float(beta)
        if not (beta >= 0.0 and np.isfinite(beta)):
            raise ValueError(f"shift beta must be finite and >= 0, got {beta}")
        self.A_beta = A_beta
        self.M_w = M_w
        if self.A_beta.n != self.M_w.n:
            raise ValueError("pencil matrices differ in size")
        self.beta = beta
        self._fact = None
        self._dual = None

    @classmethod
    def on_mesh(cls, mesh, k, weights, beta):
        """The pencil (K(k) + beta*M_w, M_w) of ``mesh``, with M_w =
        w1*M1 + w2*M2 for ``weights`` = (w1, w2), summed a block at a time
        from the mesh's region pieces
        (:func:`~blochfem.assembly.assemble_tm` with ``shift``)."""
        return cls(*assemble_tm(mesh, k, shift=(weights, beta)), beta)

    @property
    def n(self):
        return self.A_beta.n

    @property
    def factorization(self):
        if self._fact is None:
            self._fact = Factorization(self.A_beta)
        return self._fact

    def dual_operator(self):
        """K + M_w as CSR: A_beta itself for beta == 1."""
        if self.beta == 1.0:
            return self.A_beta.mat
        Ad, Md = shared_data(self.A_beta, self.M_w)
        return with_data(self.A_beta.mat, Ad + (1.0 - self.beta) * Md)

    @property
    def dual(self):
        """The :class:`~blochfem.linalg.DualNorm` of K + M_w: the
        factorization of A_beta itself for beta == 1. The rows of a power
        leg on such a pencil take most of their residuals from their next
        step and call it only where that estimate would not do."""
        if self._dual is None:
            if self.beta == 1.0:
                fact = self.factorization
            else:
                fact = Factorization(self.dual_operator())
            self._dual = DualNorm.from_factorization(fact)
        return self._dual

    def norm_m(self, u, Mu=None):
        """M_w-norm of a coefficient vector; ``Mu`` is M_w u if already known."""
        val = np.vdot(u, self.M_w @ u if Mu is None else Mu).real
        return float(np.sqrt(max(val, 0.0)))

    def normalized(self, u):
        nrm = self.norm_m(u)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("cannot normalize a zero (or non-finite) vector")
        return u / nrm

    def residual_dual(self, q, mu):
        """Dual norm of (K - lam*M_w) q = (A_beta - mu*M_w) q.

        This is the residual a LOPCG row records and a leg stops on, and
        the residual of a power row, which records it exactly wherever its
        step leaves it no estimate (:func:`_power_rows`). Like
        :meth:`step`, a subclass may override it (the rational
        linearization reports the residual of the nonlinear problem), and
        its power rows then record it on every row.
        """
        r = self.A_beta @ q - mu * (self.M_w @ q)
        return self.dual(r)

    def step(self, q):
        """One inverse application w = A_beta^{-1} (M_w q).

        Subclasses may override this with a structurally equivalent but
        better-conditioned application (the rational linearization does, to
        keep its numerically singular auxiliary mass out of every solve).
        """
        return self.factorization.solve(self.M_w @ q)


def _start_vector(pencil, u0):
    u = np.asarray(u0, dtype=complex)
    if u.shape != (pencil.n,):
        raise ValueError(f"start vector has shape {u.shape}, expected ({pencil.n},)")
    if not np.all(np.isfinite(u)) or not np.any(u):
        raise ValueError("start vector must be finite and nonzero")
    return u


def iterate(rows, n, trace, mesh_level, steps=None, tol=None, max_steps=None,
            start_row=False, name="dual residual"):
    """Run one solver leg: time and record the rows of ``rows`` until a stop.

    ``rows`` yields ``(state, mu, lam, residual)`` once per solver step;
    each becomes a row of ``trace`` (new when None) timed over its yield. A
    leg takes exactly ``steps`` rows, or runs until a residual is at most
    ``tol`` within ``max_steps`` rows, not counting a first ``start_row``
    (the start's own residual). A tolerance leg raises
    :class:`NonConvergenceError` when its budget runs out (``<name> did not
    reach ...``), or on the rounding floor: a residual within
    :data:`FLOOR_FACTOR` of ``tol`` and above half the one
    :data:`FLOOR_STEPS` rows earlier in the leg. ``rows`` resumes only
    after its last row missed every stop. Any NonConvergenceError raised
    under it carries the partial trace, and ``rows`` is closed on the way
    out, freeing what its frame holds. Returns ``(trace, state)``.
    """
    if (steps is None) == (tol is None):
        raise ValueError("need exactly one of a step count and a tolerance")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if trace is None:
        trace = IterationTrace()
    history = []
    try:
        for _ in range((steps or max_steps) + start_row):
            t0 = time.perf_counter()
            state, mu, lam, res = next(rows)
            trace.record(mesh_level, n, mu, lam, res, time.perf_counter() - t0)
            if steps is not None:
                continue
            if res <= tol:
                return trace, state
            if (res <= FLOOR_FACTOR * tol and len(history) >= FLOOR_STEPS
                    and res > 0.5 * history[-FLOOR_STEPS]):
                raise NonConvergenceError(
                    f"dual residual stalled at {res:.3g}, within "
                    f"{FLOOR_FACTOR:g}x of {tol:g}, and has not halved in "
                    f"{FLOOR_STEPS} steps"
                )
            history.append(res)
        if steps is None:
            raise NonConvergenceError(
                f"{name} did not reach {tol:g} within {max_steps} steps"
            )
        return trace, state
    except NonConvergenceError as err:
        if err.trace is None:
            err.trace = trace
        raise
    finally:
        rows.close()


def _looks_ahead(pencil):
    """Whether a power row can take its residual from the next step: its
    dual operator K + M_w is A_beta itself (beta == 1,
    :meth:`Pencil.dual_operator`) and it records :meth:`Pencil.residual_dual`,
    not a residual a subclass or the instance puts in its place."""
    return (pencil.beta == 1.0 and getattr(pencil.residual_dual, "__func__", None)
            is Pencil.residual_dual)


def _dual_from_step(pencil, r, q, mu, w):
    """The dual norm of a row's residual ``r`` = A_beta q - mu M_w q,
    taken from the next step w = A_beta^{-1} M_w q, for a pencil whose
    dual operator is A_beta.

    Then d = q - mu w is A_beta^{-1} r, and of all y, y = d gives the
    largest 2 Re(r^H y) - y^H A_beta y, which is r^H A_beta^{-1} r. So at
    the computed d, a rounding error e of w and of the difference lowers
    the square by e^H A_beta e only, where r^H d would carry r^H e.
    Returns None where the square is at most :data:`LOOK_AHEAD_GUARD`
    times ||A_beta|| (eps (||q|| + |mu| ||w||))^2, the size of e^H A_beta e
    for a difference rounded entry by entry: there the square carries
    nothing of the norm, and only a solve with r gives it.
    """
    d = q - mu * w
    sq = 2.0 * np.vdot(r, d).real - np.vdot(d, pencil.A_beta @ d).real
    rounding = np.finfo(float).eps * (np.linalg.norm(q) + abs(mu) * np.linalg.norm(w))
    if not sq > LOOK_AHEAD_GUARD * pencil.factorization.norm * rounding ** 2:
        return None
    return float(np.sqrt(sq))


def _power_rows(pencil, u0, scale_by_mu, steps=None, tol=None, max_steps=None):
    """The rows of a power leg of ``steps`` rows, or of at most ``max_steps``
    rows to ``tol``.

    Where a row's dual operator is A_beta itself (:func:`_looks_ahead`),
    a row whose step is sure to be used takes the next row's step before it
    yields, and its residual from that step (:func:`_dual_from_step`): in a
    fixed-step leg every row but the last, in a tolerance leg a row whose
    predecessor recorded a residual above ``FLOOR_FACTOR * tol``. It takes
    the exact :meth:`Pencil.residual_dual` instead where that estimate sits
    at its rounding level or within ``2 * tol``, so the row that stops a
    leg records its exact residual. Every other row records the exact
    residual and leaves its step to the next row.
    """
    ahead = _looks_ahead(pencil)
    last = steps or max_steps
    u = _start_vector(pencil, u0)
    mu = rayleigh_quotient(u, pencil.A_beta, pencil.M_w)
    q = pencil.normalized(u)
    w, prev = None, 0.0
    for row in itertools.count(1):
        if w is None:
            w = pencil.step(q)
        raw = mu * w if scale_by_mu else w
        Araw, Mraw = pencil.A_beta @ raw, pencil.M_w @ raw
        nrm = pencil.norm_m(raw, Mraw)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise NonConvergenceError(
                "iterate collapsed to zero (start vector numerically "
                "orthogonal to the whole spectrum?)"
            )
        mu = rayleigh_quotient(raw, pencil.A_beta, pencil.M_w, Au=Araw, Bu=Mraw)
        q = raw / nrm
        w = res = None
        if ahead and row != last and (tol is None or prev > FLOOR_FACTOR * tol):
            w = pencil.step(q)
            res = _dual_from_step(pencil, (Araw - mu * Mraw) / nrm, q, mu, w)
            if res is not None and tol is not None and res <= 2.0 * tol:
                res = None
        if res is None:
            res = pencil.residual_dual(q, mu)
        prev = res
        yield raw, mu, mu - pencil.beta, res


def inverse_power_rq(pencil, u0, steps=None, tol=None, mesh_level=0, trace=None,
                     max_steps=10000):
    """Shifted inverse iteration with Rayleigh-quotient scaling.

    Runs ``u_j = mu_{j-1} * A_beta^{-1} M_w q_{j-1}`` starting from ``u0``
    and appends one :class:`TraceRow` per step (to ``trace`` if given).
    Takes ``steps`` solves, or iterates until the dual residual drops to
    ``tol`` under the budget and floor stop of :func:`iterate`, which raise
    :class:`NonConvergenceError` with the partial trace attached. Rows
    record the dual residual of the normalized iterate: exactly,
    :meth:`Pencil.residual_dual`, on the row that stops a tolerance leg, on
    the rounding floor and wherever beta != 1 or a subclass records its
    own residual; otherwise estimated from the next step, within about
    1e-5 relative (:func:`_power_rows`).

    Returns ``(trace, u)`` with ``u`` the raw (unnormalized) last iterate.
    """
    leg = dict(steps=steps, tol=tol, max_steps=max_steps)
    return iterate(_power_rows(pencil, u0, True, **leg), pencil.n, trace,
                   mesh_level, **leg)


def inverse_power_plain(pencil, v0, steps=None, tol=None, mesh_level=0,
                        trace=None, max_steps=10000):
    """Inverse iteration without the Rayleigh scaling: ``v_j = A_beta^{-1} M_w q_{j-1}``.

    Same mu/residual trace as :func:`inverse_power_rq` from the same start;
    only the raw iterate lengths differ (their M_w-norms converge to 1/mu).
    """
    leg = dict(steps=steps, tol=tol, max_steps=max_steps)
    return iterate(_power_rows(pencil, v0, False, **leg), pencil.n, trace,
                   mesh_level, **leg)


def lopcg(pencil, u0, tol, max_steps=10000, mesh_level=0, trace=None,
          dual=None):
    """Locally optimal preconditioned conjugate gradient from ``u0`` to ``tol``.

    Knyazev's LOPCG (SIAM J. Sci. Comput. 23(2):517-541, 2001) for the
    smallest eigenpair of the pencil. Each step takes fresh products
    A_beta x and M_w x of the iterate x and its Rayleigh quotient mu, then
    moves to the lowest Ritz vector on span{x, z, p}, p being the previous
    move, orthonormalized column by column in M_w with two Gram-Schmidt
    passes; a direction that the passes shrink below :data:`DROP_TOL` of
    its length is dropped. The products of p are carried along from the
    previous projection, so a step applies A_beta and M_w to x and z only.

    ``dual``, when given, is a preconditioner for K + M_w with the contract
    of :meth:`~blochfem.linalg.DualNorm.norm_and_solve`: the exact
    :class:`~blochfem.linalg.DualNorm`, or
    :class:`~blochfem.linalg.BoundedDualNorm`, the FFT inverse of
    K + w_min*M, whose norms are upper bounds by proof: the row that stops
    the leg records an upper bound of its residual. One call on the
    residual r = A_beta x - mu M_w x gives both the residual the row
    records and the search direction z; this branch factorizes nothing
    itself.

    Without ``dual`` the row records ``pencil.residual_dual(x, mu)`` (the
    linearized rational pencil reports the residual of the *nonlinear*
    problem) and the search direction is the inverse step
    z = ``pencil.step(x)``: span{x, A_beta^{-1} M_w x, p} equals
    span{x, A_beta^{-1} r, p}. The step is taken after the row is recorded,
    so the row that meets ``tol`` costs no solve.

    The first row is the start's own residual. Stops once the residual is at
    most ``tol``; a stall on the rounding floor and ``max_steps`` rows
    without reaching ``tol`` raise :class:`NonConvergenceError` (``LOPCG did
    not reach ...``) with the partial trace attached (:func:`iterate`).

    Returns ``(trace, x)``; the last row is the residual of x as returned.
    """
    return iterate(_lopcg_rows(pencil, u0, dual), pencil.n, trace,
                   mesh_level, tol=tol, max_steps=max_steps, name="LOPCG")


def _lopcg_rows(pencil, u0, dual):
    x = pencil.normalized(_start_vector(pencil, u0))
    p = None
    while True:
        Ax, Mx = pencil.A_beta @ x, pencil.M_w @ x
        mu = np.vdot(x, Ax).real / np.vdot(x, Mx).real
        if dual is None:
            yield x, mu, mu - pencil.beta, pencil.residual_dual(x, mu)
            z = pencil.step(x)
        else:
            res, z = dual.norm_and_solve(Ax - mu * Mx)
            yield x, mu, mu - pencil.beta, res
        x, p = _ritz_step(pencil, x, Ax, Mx, z, p)


def _ritz_step(pencil, x, Ax, Mx, z, p):
    """Lowest Ritz vector on span{x, z, p} and the move that reaches it.

    x is M_w-normalized, with the products ``Ax`` and ``Mx``; ``p`` is None
    or the previous move with its products ``(p, A_beta p, M_w p)``, which
    Gram-Schmidt updates with the coefficients it applies to p, so that
    only z is multiplied. Returns the new iterate and the new move with its
    products.

    The basis and its products are held once, as the columns of three
    arrays, each written as its direction is normalized. Gram-Schmidt reads
    contiguous vectors instead (a strided ``vdot`` sums in another order),
    so z's columns are copied out while p is orthogonalized against them.
    """
    directions = [(z, None, None)] + ([p] if p is not None else [])
    shape = (x.size, 1 + len(directions))
    dtype = np.result_type(x, Ax, Mx, z)
    V, AV, MV = (np.empty(shape, dtype=dtype) for _ in range(3))
    V[:, 0], AV[:, 0], MV[:, 0] = x, Ax, Mx
    basis = [(x, Ax, Mx)]
    m = 1
    for i, direction in enumerate(directions, 1):
        columns = (V[:, m], AV[:, m], MV[:, m])
        if not _orthonormalize(pencil, basis, direction, columns):
            continue
        if i < len(directions):
            basis.append(tuple(col.copy() for col in columns))
        m += 1
    del basis, columns
    if m < shape[1]:
        V, AV, MV = (np.ascontiguousarray(B[:, :m]) for B in (V, AV, MV))
    Vh = V.conj().T
    K_small = Vh @ AV
    M_small = Vh @ MV
    del Vh
    _, vecs = scipy.linalg.eigh(
        0.5 * (K_small + K_small.conj().T), 0.5 * (M_small + M_small.conj().T),
        subset_by_index=[0, 0],
    )
    y = vecs[:, 0]
    return V @ y, tuple(B[:, 1:] @ y[1:] for B in (V, AV, MV))


def _orthonormalize(pencil, basis, direction, columns):
    """Writes ``direction``, a vector w with A_beta w and M_w w (both None
    to be taken afresh), M_w-orthonormalized against ``basis`` by two
    Gram-Schmidt passes, into ``columns``. Returns False, and writes
    nothing, when the passes shrink w below :data:`DROP_TOL` of its
    length. Copies are updated in place: bitwise w = w - v * c, with no
    second copy."""
    w, Aw, Mw = (None if u is None else u.copy() for u in direction)
    length = np.linalg.norm(w)
    for _pass in range(2):
        for v, Av, Mv in basis:
            c = np.vdot(Mv, w)
            w -= v * c
            if Aw is not None:
                Aw -= Av * c
                Mw -= Mv * c
    if not np.linalg.norm(w) > DROP_TOL * length:
        return False
    if Aw is None:
        Aw, Mw = pencil.A_beta @ w, pencil.M_w @ w
    nrm = np.sqrt(np.vdot(w, Mw).real)
    for col, u in zip(columns, (w, Aw, Mw)):
        np.divide(u, nrm, out=col)
    return True


@dataclass
class ArnoldiResult:
    mu: float
    vector: np.ndarray
    basis: np.ndarray
    breakdown: bool
    beta: float

    @property
    def lam(self):
        return self.mu - self.beta

    @property
    def dim(self):
        return self.basis.shape[1]


def arnoldi(pencil, u0, m):
    """Galerkin projection onto the m-dimensional inverse Krylov subspace.

    Builds span{u0, A_beta^{-1} M_w u0, ...} by repeated solves,
    M_w-orthonormalized by classical Gram-Schmidt with one
    reorthogonalization pass, projects the pencil onto the basis, and solves
    the small dense Hermitian problem. Returns the smallest Ritz value with
    its lifted (M_w-normalized) vector.

    If an orthogonalized direction falls below :data:`BREAKDOWN_TOL` the
    subspace is invariant to working precision; the projection is solved on
    the basis built so far and the result is flagged ``breakdown=True``.
    """
    if m < 1:
        raise ValueError(f"subspace dimension must be >= 1, got {m}")
    q = pencil.normalized(_start_vector(pencil, u0))
    V = np.empty((pencil.n, m), dtype=complex)
    V[:, 0] = q
    dim = 1
    breakdown = False
    for _ in range(m - 1):
        w = pencil.step(V[:, dim - 1])
        # classical Gram-Schmidt in the M_w inner product, plus one
        # reorthogonalization pass (enough at these subspace sizes)
        for _pass in range(2):
            coeffs = V[:, :dim].conj().T @ (pencil.M_w @ w)
            w = w - V[:, :dim] @ coeffs
        nrm = pencil.norm_m(w)
        if nrm < BREAKDOWN_TOL:
            breakdown = True
            break
        V[:, dim] = w / nrm
        dim += 1
    V = V[:, :dim]

    AV = np.column_stack([pencil.A_beta @ V[:, i] for i in range(dim)])
    MV = np.column_stack([pencil.M_w @ V[:, i] for i in range(dim)])
    K_small = V.conj().T @ AV
    M_small = V.conj().T @ MV
    K_small = 0.5 * (K_small + K_small.conj().T)
    M_small = 0.5 * (M_small + M_small.conj().T)
    vals, vecs = scipy.linalg.eigh(K_small, M_small)
    lifted = V @ vecs[:, 0]
    lifted = pencil.normalized(lifted)
    return ArnoldiResult(
        mu=float(vals[0]),
        vector=lifted,
        basis=V,
        breakdown=breakdown,
        beta=pencil.beta,
    )
