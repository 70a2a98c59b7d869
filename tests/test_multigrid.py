"""The stop row of the power-family reference, whose LOPCG leg the FFT bound
of ``linalg.BoundedDualNorm`` now preconditions in place of a V-cycle."""

import pytest

from blochfem import driver
from blochfem import linalg as lin
from blochfem.eigeniter import lopcg
from blochfem.mesh import build_mesh

from test_linalg import K_POINTS, bounded, experiment1


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("k", K_POINTS)
def test_stop_row_never_reads_below_the_exact_dual_norm(level, k):
    # from the start experiment1's schedule hands to the reference
    cfg = experiment1(level, k)
    mesh = build_mesh(level)
    pencil, u = driver._power_pencil(cfg, mesh, driver.run_schedule(cfg).final)
    tol = driver.REFERENCE_TOL
    trace, x = lopcg(pencil, u, tol, dual=bounded(pencil, mesh, k))
    last = trace[-1]
    r = pencil.A_beta @ x - last.mu * (pencil.M_w @ x)
    assert isinstance(pencil.dual.fact, lin.Factorization)
    assert pencil.dual(r) <= last.residual_dual <= tol
