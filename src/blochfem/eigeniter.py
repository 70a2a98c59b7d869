"""Inverse power iterations and a Krylov accelerator for shifted Hermitian pencils.

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
in the dual norm induced by K + M_w.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError, SingularMatrixError
from .linalg import DualNorm, Factorization, HermitianSparse, rayleigh_quotient
from .trace import IterationTrace

__all__ = [
    "BREAKDOWN_TOL",
    "Pencil",
    "default_start",
    "inverse_power_rq",
    "inverse_power_plain",
    "shifted_inverse_steps",
    "ArnoldiResult",
    "arnoldi",
]

# An orthogonalized Krylov direction with M_w-norm below this (iterates are
# kept at norm one, so the scale is absolute) means the subspace is invariant
# to working precision.
BREAKDOWN_TOL = 1e-12

# A run that iterates to a tolerance stops with NonConvergenceError once its
# residual is within FLOOR_FACTOR of tol and has not halved over the last
# FLOOR_STEPS steps: it sits on the rounding floor of its mesh, and the rest
# of its step budget would not move it.
FLOOR_FACTOR = 100.0
FLOOR_STEPS = 5

# shifted_inverse_steps takes at most SHIFT_STEPS steps, and stops once mu
# moves by no more than SHIFT_STALL relative
SHIFT_STEPS = 4
SHIFT_STALL = 1e-13


class Pencil:
    """Shifted positive definite pencil (A_beta, M_w) with cached solvers.

    The factorization of A_beta and the dual-norm factorization of
    K + M_w = A_beta + (1-beta) M_w are built lazily and reused for every
    step. For beta == 1 the two matrices coincide bitwise, so one
    factorization serves both purposes. A_beta and M_w are
    :class:`HermitianSparse`, Hermitian by construction.
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
    def from_stiffness(cls, K, M_w, beta):
        """Build (K + beta*M_w, M_w) from the unshifted stiffness."""
        shifted = (K.mat + float(beta) * M_w.mat).tocsr()
        return cls(HermitianSparse(shifted), M_w, beta)

    @property
    def n(self):
        return self.A_beta.n

    @property
    def factorization(self):
        if self._fact is None:
            self._fact = Factorization(self.A_beta)
        return self._fact

    @property
    def dual(self):
        if self._dual is None:
            if self.beta == 1.0:
                fact = self.factorization
            else:
                KM = (self.A_beta.mat + (1.0 - self.beta) * self.M_w.mat).tocsr()
                fact = Factorization(KM)
            self._dual = DualNorm.from_factorization(fact)
        return self._dual

    def norm_m(self, u):
        """M_w-norm of a coefficient vector."""
        val = np.vdot(u, self.M_w @ u).real
        return float(np.sqrt(max(val, 0.0)))

    def normalized(self, u):
        nrm = self.norm_m(u)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("cannot normalize a zero (or non-finite) vector")
        return u / nrm

    def residual_dual(self, q, mu):
        """Dual norm of (K - lam*M_w) q = (A_beta - mu*M_w) q."""
        r = self.A_beta @ q - mu * (self.M_w @ q)
        return self.dual(r)

    def step(self, q):
        """One inverse application w = A_beta^{-1} (M_w q).

        Subclasses may override this with a structurally equivalent but
        better-conditioned application (the rational linearization does, to
        keep its numerically singular auxiliary mass out of every solve).
        """
        return self.factorization.solve(self.M_w @ q)


def default_start(n, seed=None):
    """All-ones start (overlaps the sign-definite ground mode), or seeded noise."""
    if seed is None:
        return np.ones(n, dtype=complex)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _stop_at_floor(res, history, tol, trace):
    """Raise NonConvergenceError once ``res`` sits on the rounding floor.

    ``history`` holds the residuals of the steps before this one. The floor
    is reached when ``res`` is within :data:`FLOOR_FACTOR` of ``tol`` and
    above half the residual :data:`FLOOR_STEPS` steps earlier.
    """
    if (res <= FLOOR_FACTOR * tol and len(history) >= FLOOR_STEPS
            and res > 0.5 * history[-FLOOR_STEPS]):
        raise NonConvergenceError(
            f"dual residual stalled at {res:.3g}, within {FLOOR_FACTOR:g}x "
            f"of {tol:g}, and has not halved in {FLOOR_STEPS} steps",
            trace=trace,
        )


def _power_loop(pencil, u0, steps, tol, scale_by_mu, mesh_level, trace,
                max_steps, residual_fn=None):
    if residual_fn is None:
        residual_fn = pencil.residual_dual
    if steps is None and tol is None:
        raise ValueError("need a step count, a tolerance, or both")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    u = np.asarray(u0, dtype=complex)
    if u.shape != (pencil.n,):
        raise ValueError(f"start vector has shape {u.shape}, expected ({pencil.n},)")
    if not np.all(np.isfinite(u)) or not np.any(u):
        raise ValueError("start vector must be finite and nonzero")
    if trace is None:
        trace = IterationTrace()

    mu = rayleigh_quotient(u, pencil.A_beta, pencil.M_w)
    q = pencil.normalized(u)
    raw = u
    budget = steps if steps is not None else max_steps
    converged = tol is None
    history = []
    for _ in range(budget):
        t0 = time.perf_counter()
        w = pencil.step(q)
        raw = mu * w if scale_by_mu else w
        nrm = pencil.norm_m(raw)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise NonConvergenceError(
                "iterate collapsed to zero (start vector numerically "
                "orthogonal to the whole spectrum?)",
                trace=trace,
            )
        mu = rayleigh_quotient(raw, pencil.A_beta, pencil.M_w)
        q = raw / nrm
        res = residual_fn(q, mu)
        trace.record(mesh_level, pencil.n, mu, mu - pencil.beta, res,
                     time.perf_counter() - t0)
        if tol is not None and res <= tol:
            converged = True
            break
        if steps is None:
            _stop_at_floor(res, history, tol, trace)
        history.append(res)
    if not converged and steps is None:
        raise NonConvergenceError(
            f"dual residual did not reach {tol:g} within {max_steps} steps",
            trace=trace,
        )
    return trace, raw


def inverse_power_rq(pencil, u0, steps=None, tol=None, mesh_level=0, trace=None,
                     max_steps=10000, residual_fn=None):
    """Shifted inverse iteration with Rayleigh-quotient scaling.

    Runs ``u_j = mu_{j-1} * A_beta^{-1} M_w q_{j-1}`` starting from ``u0``
    and appends one :class:`TraceRow` per step (to ``trace`` if given).
    Stops after ``steps`` solves, or once the dual residual drops to ``tol``,
    whichever is requested (both: whichever comes first). A pure-tolerance
    run that exhausts ``max_steps``, or stalls within :data:`FLOOR_FACTOR`
    of ``tol`` without halving its residual in :data:`FLOOR_STEPS` steps,
    raises :class:`NonConvergenceError` with the partial trace attached.

    ``residual_fn(q, mu)`` overrides the traced (and tol-checked) residual;
    the linearized rational solver uses this to report residuals of the
    *nonlinear* problem instead of the extended linear one.

    Returns ``(trace, u)`` with ``u`` the raw (unnormalized) last iterate.
    """
    return _power_loop(pencil, u0, steps, tol, True, mesh_level, trace,
                       max_steps, residual_fn)


def inverse_power_plain(pencil, v0, steps=None, tol=None, mesh_level=0,
                        trace=None, max_steps=10000, residual_fn=None):
    """Inverse iteration without the Rayleigh scaling: ``v_j = A_beta^{-1} M_w q_{j-1}``.

    Same mu/residual trace as :func:`inverse_power_rq` from the same start;
    only the raw iterate lengths differ (their M_w-norms converge to 1/mu).
    """
    return _power_loop(pencil, v0, steps, tol, False, mesh_level, trace,
                       max_steps, residual_fn)


def shifted_inverse_steps(pencil, u0, sigma):
    """Up to SHIFT_STEPS inverse steps with K - sigma*M_w, from ``u0``.

    With sigma a coarse eigenvalue just above lambda1 these converge at
    |lambda1 - sigma| / |lambda2 - sigma| per step instead of
    (lambda1 + beta) / (lambda2 + beta): shift-and-invert with a
    Rayleigh-quotient shift. They stop when mu moves by at most SHIFT_STALL
    relative; a step that raises mu is dropped, and a singular shifted
    matrix leaves the iterate as it is. The shifted factorization is freed
    on return, before the caller factors the pencil itself, so only one
    factorization of this size is alive at a time.

    Returns the M_w-normalized iterate.
    """
    q = pencil.normalized(np.asarray(u0, dtype=complex))
    mu = rayleigh_quotient(q, pencil.A_beta, pencil.M_w)
    try:
        fact = Factorization(pencil.A_beta.mat - (pencil.beta + sigma) * pencil.M_w.mat)
        for _ in range(SHIFT_STEPS):
            w = fact.solve(pencil.M_w @ q)
            new_mu = rayleigh_quotient(w, pencil.A_beta, pencil.M_w)
            if new_mu > mu:
                break
            q, moved, mu = pencil.normalized(w), abs(new_mu - mu), new_mu
            if moved <= SHIFT_STALL * abs(mu):
                break
    except SingularMatrixError:
        pass
    return q


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
    u = np.asarray(u0, dtype=complex)
    if not np.all(np.isfinite(u)) or not np.any(u):
        raise ValueError("start vector must be finite and nonzero")

    q = pencil.normalized(u)
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
