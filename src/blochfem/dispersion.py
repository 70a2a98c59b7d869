"""Frequency-dependent permittivity models and their rational realization.

Three model variants cover the material laws we solve with:

* :class:`Constant` -- dispersion-free, eps(omega) = c.
* :class:`SimplifiedDL` -- lossless Drude-Lorentz sum
  ``alpha2 + sum_l xi2_l / (eta2_l - omega^2)``.  This is the only variant
  that admits the exact rational :class:`Realization` consumed by the
  companion linearization.
* :class:`RealDL` -- real part of the damped Drude-Lorentz sum,
  ``alpha + sum_l xi2_l (eta2_l - omega^2) / ((eta2_l - omega^2)^2
  + gamma_l^2 omega^2)``.

Every variant is even in omega.  We hard-wire that by evaluating all models
in the variable ``lam = omega**2``; ``eval(model, -w) == eval(model, w)``
holds bitwise, not just to roundoff.  Derivatives are taken in lam too.

Evaluation is refused within a small relative guard of any real pole, and
at the omega = 0 pole of a damped Drude term (``NearPoleError``), instead of
letting values silently blow up or divide by zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NearPoleError

__all__ = [
    "LorentzTerm",
    "Constant",
    "SimplifiedDL",
    "RealDL",
    "Realization",
    "POLE_GUARD",
    "eval",
    "eval_lambda",
    "eval_dlambda",
    "real_poles",
    "realize",
    "transfer",
]

# Relative half-width of the exclusion window around each real pole,
# measured in lam = omega^2.  A pole at lam = p rejects evaluation for
# |lam - p| < POLE_GUARD * max(1, |p|); the max(1, .) floor keeps the
# window non-empty for poles at (or near) zero.
POLE_GUARD = 1e-8


def _check_finite_real(value, name):
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class LorentzTerm:
    """One oscillator: strength xi2 = xi^2, resonance eta2 = eta^2, damping gamma.

    eta2 and gamma must be non-negative.  xi2 may be negative: fitted
    real-part models (the silver data used by :class:`RealDL`) carry
    negative oscillator strengths, and nothing in the evaluation formulas
    requires a sign.  The variants that *do* need xi2 >= 0 (the lossless
    sum feeding the Hermitian linearization) enforce it themselves.
    """

    xi2: float
    eta2: float
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "xi2", _check_finite_real(self.xi2, "xi2"))
        eta2 = _check_finite_real(self.eta2, "eta2")
        gamma = _check_finite_real(self.gamma, "gamma")
        if eta2 < 0.0:
            raise ValueError(f"eta2 must be >= 0, got {eta2}")
        if gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        object.__setattr__(self, "eta2", eta2)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class Constant:
    """eps(omega) = c for all omega."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", _check_finite_real(self.c, "c"))


@dataclass(frozen=True)
class SimplifiedDL:
    """Lossless Drude-Lorentz model alpha2 + sum xi2/(eta2 - omega^2).

    All gamma must be exactly zero and all xi2 >= 0: those two conditions
    are what make lam*eps(lam) a strictly proper rational function with a
    symmetric positive realization, so the companion linearization stays
    Hermitian.  Real poles sit exactly at lam = eta2_l.
    """

    alpha2: float
    terms: tuple = ()

    def __post_init__(self):
        alpha2 = _check_finite_real(self.alpha2, "alpha2")
        if alpha2 <= 0.0:
            raise ValueError(f"alpha2 must be > 0, got {alpha2}")
        object.__setattr__(self, "alpha2", alpha2)
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, LorentzTerm):
                raise TypeError(f"terms must be LorentzTerm, got {type(t).__name__}")
            if t.gamma != 0.0:
                raise ValueError("SimplifiedDL requires gamma == 0 in every term")
            if t.xi2 < 0.0:
                raise ValueError("SimplifiedDL requires xi2 >= 0 in every term")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class RealDL:
    """Real part of the damped Drude-Lorentz sum.

    For gamma_l = 0 a term degenerates to the lossless xi2/(eta2 - lam)
    with a real pole at eta2_l; damped terms have no real pole.
    """

    alpha: float
    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_finite_real(self.alpha, "alpha"))
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, LorentzTerm):
                raise TypeError(f"terms must be LorentzTerm, got {type(t).__name__}")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class Realization:
    """Diagonal state-space realization of the strictly proper part of
    lam * eps(lam) for a :class:`SimplifiedDL` model.

    ``A`` holds the diagonal (the eta2_l), ``b`` the input vector entries
    xi_l * eta_l, and ``Xi = sum xi2_l`` the feed-through correction, so
    that  b^T (A - lam I)^{-1} b  =  sum xi2_l eta2_l / (eta2_l - lam).
    """

    A: np.ndarray
    b: np.ndarray
    Xi: float

    def __post_init__(self):
        A = np.atleast_1d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.ndim != 1 or b.shape != A.shape:
            raise ValueError("A and b must be matching 1-d arrays")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "Xi", float(self.Xi))

    @property
    def order(self):
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# evaluation (internally in lam = omega^2)


def _parts(model):
    """(offset, terms): eps(lam) is the offset plus one summand per term."""
    if isinstance(model, Constant):
        return model.c, ()
    if isinstance(model, SimplifiedDL):
        return model.alpha2, model.terms
    if isinstance(model, RealDL):
        return model.alpha, model.terms
    raise TypeError(f"not a dispersion model: {type(model).__name__}")


def real_poles(model):
    """Real poles of the model in the variable lam = omega^2, as a sorted array.

    Only undamped terms have one; the lossless variant has no other kind.
    """
    _, terms = _parts(model)
    return np.sort(np.asarray([t.eta2 for t in terms if t.gamma == 0.0], dtype=float))


def _guard_poles(poles, lam):
    for p in poles:
        if abs(lam - p) < POLE_GUARD * max(1.0, abs(p)):
            raise NearPoleError(
                f"evaluation at omega^2 = {lam!r} is within the guard window "
                f"of the real pole at {p!r}"
            )


def _damped_denominator(term, s, lam):
    """(eta2 - lam)^2 + gamma^2 lam of a damped term, refused where it is zero.

    It vanishes at lam = eta2 = 0, the pole of a Drude term (eta2 = 0) at
    omega = 0, where the real part is 0/0.
    """
    den = s * s + term.gamma * term.gamma * lam
    if den == 0.0:
        raise NearPoleError(
            f"evaluation at omega^2 = {lam!r} hits the pole of the damped term "
            f"with eta2 = {term.eta2!r}, gamma = {term.gamma!r}"
        )
    return den


def eval(model, omega):
    """eps(omega).  Raises NearPoleError inside the guard window of a real pole."""
    return eval_lambda(model, float(omega) ** 2)


def eval_lambda(model, lam):
    """eps evaluated at lam = omega^2 directly (no square root round trip)."""
    lam = float(lam)
    acc, terms = _parts(model)
    _guard_poles(real_poles(model), lam)
    for t in terms:
        s = t.eta2 - lam
        if t.gamma == 0.0:
            # undamped term: evaluate without squaring s, which both avoids
            # needless rounding and makes the gamma -> 0 limit agree bitwise
            # with the lossless model
            acc += t.xi2 / s
        else:
            acc += t.xi2 * s / _damped_denominator(t, s, lam)
    return acc


def eval_dlambda(model, lam):
    """d eps / d lam at lam = omega^2 (what the Newton residual actually needs)."""
    lam = float(lam)
    _, terms = _parts(model)
    _guard_poles(real_poles(model), lam)
    acc = 0.0
    for t in terms:
        s = t.eta2 - lam
        if t.gamma == 0.0:
            acc += t.xi2 / (s * s)
        else:
            den = _damped_denominator(t, s, lam)
            # d/dlam [xi2*s/den]; the numerator collapses to s^2 - gamma^2*eta2
            acc += t.xi2 * (s * s - t.gamma * t.gamma * t.eta2) / (den * den)
    return acc


# ---------------------------------------------------------------------------
# realization of the simplified model


def realize(model):
    """Diagonal realization (A, b, Xi) of a :class:`SimplifiedDL` model.

    A = diag(eta2_l), b_l = xi_l * eta_l = sqrt(xi2_l * eta2_l), and
    Xi = sum xi2_l, so the strictly proper part of lam*eps(lam) is the
    scalar transfer function b^T (A - lam I)^{-1} b.
    """
    if not isinstance(model, SimplifiedDL):
        raise TypeError(
            "only the lossless Drude-Lorentz variant admits this realization; "
            f"got {type(model).__name__}"
        )
    eta2 = np.array([t.eta2 for t in model.terms], dtype=float)
    xi2 = np.array([t.xi2 for t in model.terms], dtype=float)
    return Realization(A=eta2, b=np.sqrt(xi2 * eta2), Xi=float(np.sum(xi2)))


def transfer(realization, lam):
    """Scalar transfer function b^T (A - lam I)^{-1} b of a realization.

    A is stored as its diagonal, so the resolvent apply is elementwise.
    Raises NearPoleError when lam sits in the guard window of a diagonal
    entry (those are exactly the poles).
    """
    lam = float(lam)
    _guard_poles(realization.A, lam)
    return float(np.sum(realization.b ** 2 / (realization.A - lam)))
