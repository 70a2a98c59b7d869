"""The V-cycle preconditioner of the power-family reference."""

import math

import numpy as np
import pytest

from blochfem import dispersion, driver
from blochfem.eigeniter import lopcg
from blochfem.mesh import build_mesh, prolongation_matrix
from blochfem.multigrid import CONTRACTION_BOUND, VCycle, _galerkin

K_POINTS = [(math.pi / 2, math.pi), (2.1967727806945763, 1.8971541259255482), (0.3, 0.0)]


def reference_pencil(level, k):
    """experiment1's beta-pencil at ``k`` on ``level``, with the start its
    schedule hands to the reference."""
    cfg = driver.RunConfig(
        experiment="linear", kx=k[0], ky=k[1], model=dispersion.Constant(8.0),
        steps_per_mesh=7, max_level=level - 1, tol=1e-10,
    )
    final = driver.run_schedule(cfg).final
    return driver._power_pencil(cfg, build_mesh(level), final)


def _noise(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("k", K_POINTS)
def test_galerkin_operator_part_by_part_is_the_complex_product(k):
    # real and imaginary parts in turn: the bytes of scipy's complex product
    pencil, _ = reference_pencil(2, k)
    A = pencil.dual_operator()
    P = prolongation_matrix(build_mesh(1))
    want = (P.T @ (A @ P)).tocsr()
    got = _galerkin(A, P)
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", K_POINTS)
def test_vcycle_is_hermitian_positive_definite_at_L2(k):
    pencil, _ = reference_pencil(2, k)
    A = pencil.dual_operator()
    B = VCycle(A, build_mesh(2), tol=0.0)
    rng = np.random.default_rng(3)
    X = [_noise(pencil.n, rng) for _ in range(6)]
    BX = [B.apply(x) for x in X]
    for x, bx in zip(X, BX):
        quad = np.vdot(x, bx)
        assert quad.real > 0.0
        assert abs(quad.imag) <= 1e-13 * quad.real
        for y, by in zip(X, BX):
            assert abs(np.vdot(y, bx) - np.conj(np.vdot(x, by))) <= 1e-13 * abs(np.vdot(y, bx))
    # the error of the cycle as a stationary iteration contracts in the
    # A-norm by less than the bound the verified dual norm relies on
    exact = pencil.dual.fact.solve(X[0])
    y, err = np.zeros_like(X[0]), []
    for _ in range(6):
        y = y + B.apply(X[0] - A @ y)
        e = exact - y
        err.append(math.sqrt(np.vdot(e, A @ e).real))
    assert max(b / a for a, b in zip(err, err[1:])) < CONTRACTION_BOUND


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("k", K_POINTS)
def test_stop_row_never_reads_below_the_exact_dual_norm(level, k):
    pencil, u = reference_pencil(level, k)
    tol = driver.REFERENCE_TOL
    trace, x = lopcg(pencil, u, tol, dual=VCycle(pencil.dual_operator(), build_mesh(level), tol))
    last = trace[-1]
    r = pencil.A_beta @ x - last.mu * (pencil.M_w @ x)
    exact = pencil.dual(r)
    assert last.residual_dual <= tol
    assert exact <= last.residual_dual <= exact * (1.0 + 1e-6)
