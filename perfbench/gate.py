"""Correctness gate: every lambda1 against the value stored for its k.

The stored values (``expected/<workload>.json``) were produced by the same
settings and public calls at the commit that added the benchmark.

* ``linear`` and ``dl_linearized`` solves agree to 1e-12
  relative, the repository's rule for eigenvalues of unchanged settings.
  These iterations stop on the dual residual, and an eigenvalue's error is
  quadratic in that residual, so two correct solves agree far below 1e-12.
* ``linear_refined`` also checks the reference eigenvalue of the same run,
  recovered from the trace's ``rel_err`` column, to 1e-12 relative.
* ``newton`` solves stop at an absolute dual residual ``tol`` near the
  float64 floor, and the Newton eigenvalue is not a Rayleigh quotient: its
  error is first order in the residual, |dlam| <= ||u||_(K+M) ||r||_* /
  |u^H T'(lam) u|. For a mass-normalized u the numerator grows like
  sqrt(1 + lam) and the denominator is an effective permittivity of order
  one, so each solve is within about sqrt(1 + lam) * tol of the exact
  discrete eigenvalue, and two solves with different normalization vectors
  (the config seed) are within twice that. The gate allows
  NEWTON_FACTOR * (1 + lam) * max(tol, stored residual): a factor 10 over
  the estimate, because the stored value of a point where Newton stalled
  sits at its plateau residual rather than at tol. Different seeds moved
  lambda by up to about 1.2e-12 at lambda ~ 0.013 when this was measured,
  against an allowance of about 1e-11 there.
"""

REL_TOL = 1e-12
NEWTON_FACTOR = 10.0


def _rel_ok(value, expected):
    return abs(value - expected) <= REL_TOL * abs(expected)


def check(workload, tol, record, point):
    """Return None if ``record`` matches ``point``, else the reason it fails.

    ``record`` holds the solve's ``lam1`` (and, for ``linear_refined``,
    ``mu`` and ``rel_err`` of its last trace row); ``point`` is the pool
    entry with the stored ``lam1`` (and ``mu_ref``).
    """
    lam, exp = record["lam1"], point["lam1"]
    if workload == "lossy_newton":
        allowed = NEWTON_FACTOR * (1.0 + abs(exp)) * max(tol, point.get("residual", tol))
        if abs(lam - exp) > allowed:
            return "lambda1 %r differs from stored %r by %.3g > %.3g" % (
                lam, exp, abs(lam - exp), allowed)
        return None
    if not _rel_ok(lam, exp):
        return "lambda1 %r differs from stored %r (relative %.3g > %g)" % (
            lam, exp, abs(lam - exp) / abs(exp), REL_TOL)
    if "mu_ref" in point:
        mu, rel = record["mu"], record["rel_err"]
        # rel_err = |mu - mu_ref| / mu_ref; the finer reference lies below mu
        # for this conforming discretization, but accept either side
        candidates = (mu / (1.0 + rel), mu / (1.0 - rel))
        if not any(_rel_ok(c, point["mu_ref"]) for c in candidates):
            return "reference mu %r does not match stored %r" % (
                candidates[0], point["mu_ref"])
    return None
