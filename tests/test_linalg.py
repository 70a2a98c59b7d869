"""Hermitian wrappers, factorization contracts, Rayleigh quotients, dual norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from blochfem import dispersion, driver
from blochfem import linalg as lin
from blochfem.assembly import assemble_tm, reference_pencil
from blochfem.eigeniter import Pencil, lopcg
from blochfem.errors import SingularMatrixError
from blochfem.mesh import CellPeriodicInverse, build_mesh
from test_mesh import cell_periodic

RNG = np.random.default_rng(91)


def random_hpd(n, seed=0, complex_=True):
    """Random Hermitian positive definite CSR matrix (dense fill, small n)."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    if complex_:
        B = B + 1j * rng.standard_normal((n, n))
    A = B @ B.conj().T + n * np.eye(n)
    A = (A + A.conj().T) / 2
    return sparse.csr_matrix(A)


# --- HermitianSparse ----------------------------------------------------------


def test_hermitian_wrapper_basics():
    A = random_hpd(6, seed=1)
    H = lin.HermitianSparse(A)
    assert H.n == 6
    assert (H.mat != A).nnz == 0
    x = RNG.standard_normal(6)
    assert np.allclose(H @ x, A @ x)
    assert np.array_equal(H.mat.toarray(), A.toarray())


def test_real_matrix_applies_to_a_complex_vector_bitwise():
    # real and imaginary parts go through the real matrix one by one: the
    # bytes of scipy's product with the matrix copied to complex
    A = sparse.random(300, 300, density=0.05, random_state=7, format="csr")
    A = (A + A.T).tocsr()
    B = (A + 300.0 * sparse.eye(300)).tocsr()
    x = RNG.standard_normal(300) + 1j * RNG.standard_normal(300)
    H = lin.HermitianSparse(A)
    assert H.mat.dtype.kind == "f"
    assert (H @ x).tobytes() == (A.astype(complex) @ x).tobytes()
    assert (H @ x.real).tobytes() == (A @ x.real).tobytes()
    num = np.vdot(x, A.astype(complex) @ x)
    den = np.vdot(x, B.astype(complex) @ x)
    assert lin.rayleigh_quotient(x, H, B) == num.real / den.real


def test_real_symmetric_keeps_real_dtype():
    H = lin.HermitianSparse(random_hpd(5, seed=2, complex_=False))
    assert H.mat.dtype.kind == "f"


def test_nonsquare_rejected():
    with pytest.raises(ValueError, match="square"):
        lin.Factorization(sparse.csr_matrix(np.ones((2, 3))))


# --- factorization and solve ---------------------------------------------------


def test_solve_meets_backward_error_contract():
    A = random_hpd(40, seed=3)
    F = lin.Factorization(A)
    b = RNG.standard_normal(40) + 1j * RNG.standard_normal(40)
    x = F.solve(b)
    r = np.linalg.norm(b - A @ x)
    assert r <= lin.SOLVE_RTOL * (F.norm * np.linalg.norm(x) + np.linalg.norm(b))
    assert F.refinements == 0  # well-conditioned: no refinement needed


def test_complex_rhs_over_real_factorization():
    # a real factorization must handle complex right-hand sides part by part
    A = random_hpd(15, seed=4, complex_=False)
    F = lin.Factorization(A)
    b = RNG.standard_normal(15) + 1j * RNG.standard_normal(15)
    x = F.solve(b)
    assert np.iscomplexobj(x)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_refinement_recovers_a_bad_first_solve():
    class Sloppy(lin.Factorization):
        def __init__(self, A):
            super().__init__(A)
            self.polluted = False

        def _raw_solve(self, b):
            x = super()._raw_solve(b)
            if not self.polluted:
                self.polluted = True
                return x * (1.0 + 1e-6)
            return x

    A = random_hpd(12, seed=5)
    F = Sloppy(A)
    b = RNG.standard_normal(12)
    x = F.solve(b)
    assert F.refinements == 1
    r = np.linalg.norm(b - A @ x)
    assert r <= lin.SOLVE_RTOL * (F.norm * np.linalg.norm(x) + np.linalg.norm(b))


class _SolveOnly:
    """A SuperLU stand-in that exposes nothing but ``solve``."""

    def __init__(self, lu):
        self.solve = lu.solve


@pytest.mark.parametrize("complex_matrix", [False, True])
@pytest.mark.parametrize("complex_rhs", [False, True])
def test_solve_uses_nothing_of_the_factors_but_solve(complex_matrix, complex_rhs):
    # reading lu.L or lu.U makes scipy copy both factors; a solve must not
    A = random_hpd(20, seed=7, complex_=complex_matrix)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(20)
    if complex_rhs:
        b = b + 1j * rng.standard_normal(20)
    expected = lin.Factorization(A).solve(b)
    F = lin.Factorization(A)
    F.lu = _SolveOnly(F.lu)
    x = F.solve(b)
    assert x.dtype == expected.dtype
    assert np.array_equal(x, expected)


def test_singular_matrix_reported():
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        lin.Factorization(A)


def test_rhs_length_mismatch():
    F = lin.Factorization(random_hpd(4, seed=6))
    with pytest.raises(ValueError, match="length"):
        F.solve(np.ones(7))


# --- Rayleigh quotient ----------------------------------------------------------


def test_rayleigh_quotient_matches_dense():
    A = random_hpd(8, seed=7)
    B = random_hpd(8, seed=8)
    u = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    rq = lin.rayleigh_quotient(u, A, B)
    expect = (u.conj() @ (A @ u)).real / (u.conj() @ (B @ u)).real
    assert isinstance(rq, float)
    assert rq == pytest.approx(expect, rel=1e-14)


def test_rayleigh_quotient_zero_vector():
    A = random_hpd(3, seed=9)
    with pytest.raises(ValueError, match="zero vector"):
        lin.rayleigh_quotient(np.zeros(3), A, A)


def test_rayleigh_quotient_zero_denominator():
    A = random_hpd(3, seed=10)
    Z = sparse.csr_matrix((3, 3))
    with pytest.raises(ZeroDivisionError):
        lin.rayleigh_quotient(np.ones(3), A, Z)


def test_imag_residue_counter():
    lin.reset_imag_residue_warnings()
    A = random_hpd(5, seed=11)
    lin.rayleigh_quotient(np.ones(5), A, A)
    assert lin.imag_residue_warnings() == 0
    # a frankly non-Hermitian numerator trips the diagnostics counter
    N = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    lin.rayleigh_quotient(np.array([1.0, 1j]), N, sparse.identity(2, format="csr"))
    assert lin.imag_residue_warnings() == 1
    lin.reset_imag_residue_warnings()
    assert lin.imag_residue_warnings() == 0


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(1e-6, 1e6),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_rayleigh_quotient_scale_invariance(scale, phase):
    A = random_hpd(6, seed=12)
    B = random_hpd(6, seed=13)
    u = np.arange(1.0, 7.0) + 1j * np.linspace(-1, 1, 6)
    base = lin.rayleigh_quotient(u, A, B)
    scaled = lin.rayleigh_quotient(scale * np.exp(1j * phase) * u, A, B)
    assert scaled == pytest.approx(base, rel=1e-10)


# --- dual norm -------------------------------------------------------------------


def dual_norm(K, M):
    """The DualNorm of K + M, with M the one region mass of weight 1."""
    return lin.DualNorm(K, M, M, (1.0, 0.0))


def test_dual_norm_matches_dense():
    K = random_hpd(10, seed=14)
    M = random_hpd(10, seed=15)
    r = RNG.standard_normal(10) + 1j * RNG.standard_normal(10)
    dn = dual_norm(K, M)
    dense = (K + M).toarray()
    expect = np.sqrt((r.conj() @ np.linalg.solve(dense, r)).real)
    assert dn(r) == pytest.approx(expect, rel=1e-12)


def test_dual_norm_of_zero_is_zero():
    K = random_hpd(4, seed=16)
    assert dual_norm(K, K)(np.zeros(4)) == 0.0


def test_dual_norm_from_existing_factorization():
    K = random_hpd(7, seed=17)
    M = random_hpd(7, seed=18)
    F = lin.Factorization(sparse.csr_matrix(K + M))
    dn = lin.DualNorm.from_factorization(F)
    r = RNG.standard_normal(7)
    assert dn(r) == pytest.approx(dual_norm(K, M)(r), rel=1e-12)


def test_dual_norm_singular_sum():
    K = sparse.diags([1.0, -1.0]).tocsr()
    M = sparse.diags([-1.0, 1.0]).tocsr()
    with pytest.raises(SingularMatrixError, match="dual norm"):
        dual_norm(K, M)


@pytest.mark.parametrize("weights", [(1.0, 1.0), (2.0, 2.0), (1.0, 8.0)])
def test_dual_norm_takes_the_fft_iff_the_weights_are_equal(weights, monkeypatch):
    # on a mesh lattice, one weight on both regions makes K + M_w repeat
    # from cell to cell, and nothing is factored for it; (1, 8) is factored
    factored = []
    init = lin.Factorization.__init__
    monkeypatch.setattr(lin.Factorization, "__init__",
                        lambda self, A: factored.append(A.shape) or init(self, A))
    forms = assemble_tm(build_mesh(2), K_POINTS[1])
    dual = lin.DualNorm(forms.K, forms.M1, forms.M2, weights)
    w1, w2 = weights
    A = lin.with_data(forms.K.mat, forms.K.mat.data
                      + (w1 * forms.M1.mat.data + w2 * forms.M2.mat.data))
    assert dual.fact.mat.data.tobytes() == A.data.tobytes()
    assert cell_periodic(A) == (w1 == w2)
    assert factored == ([] if w1 == w2 else [A.shape])
    r = np.random.default_rng(5).standard_normal(A.shape[0]) + 0.5j
    lu = lin.Factorization(A).solve(r)
    assert dual(r) == pytest.approx(np.sqrt(np.vdot(r, lu).real), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_pencil_dual_norm_preconditions_with_its_factorization(beta):
    # from_factorization gives a Pencil's dual norm the precondition of a
    # DualNorm built from the forms: the LU's solve of K + M_w
    pencil = Pencil.on_mesh(build_mesh(1), K_POINTS[0], (1.0, 8.0), beta)
    dual = pencil.dual
    assert dual.precondition == dual.fact.solve
    assert (dual.fact is pencil.factorization) == (beta == 1.0)
    r = np.random.default_rng(3).standard_normal(pencil.n) + 0.5j
    K_Mw = pencil.dual_operator()
    z = dual.precondition(r)
    assert np.linalg.norm(K_Mw @ z - r) <= 1e-10 * np.linalg.norm(r)


# --- the FFT bound of the power-family reference -------------------------------

# (pi/2, pi) as experiment1, benchmark pool point 34, and a point near Gamma
K_POINTS = [(math.pi / 2, math.pi), (2.1967727806945763, 1.8971541259255482), (0.3, 0.0)]


def experiment1(level, k):
    """experiment1's settings at ``k``, its schedule ending below ``level``."""
    return driver.RunConfig(
        experiment="linear", kx=k[0], ky=k[1], model=dispersion.Constant(8.0),
        steps_per_mesh=7, max_level=level - 1, tol=1e-10,
    )


def bounded(pencil, mesh, k, tol=driver.REFERENCE_TOL):
    """The reference's bounded dual norm of experiment1's pencil on ``mesh``
    at ``k``, on the region masses of cell (0, 0)'s rows that
    ``reference_pencil`` keeps."""
    masses = reference_pencil(mesh, k, (1.0, 8.0), pencil.beta)[1]
    return lin.BoundedDualNorm(pencil.dual_operator(), *masses, (1.0, 8.0), tol)


@pytest.mark.parametrize("k", K_POINTS)
def test_fft_bound_brackets_the_dual_norm_at_L2(k):
    # r^H B r >= r^H (K + M_w)^{-1} r >= r^H B r / kappa, kappa = 8
    mesh = build_mesh(2)
    pencil, _ = driver._power_pencil(experiment1(2, k), mesh, None)
    dual = bounded(pencil, mesh, k)
    assert dual.kappa == 8.0
    rng = np.random.default_rng(7)
    for _ in range(4):
        r = rng.standard_normal(pencil.n) + 1j * rng.standard_normal(pencil.n)
        upper = np.vdot(r, dual.B(r)).real
        exact = np.vdot(r, pencil.dual.fact.solve(r)).real
        assert upper >= exact * (1.0 - 1e-12)
        assert exact >= upper / dual.kappa * (1.0 - 1e-12)


@pytest.mark.parametrize("k", K_POINTS)
def test_conjugate_gradients_bound_the_dual_norm_between_the_thresholds(k):
    # tol = half the FFT estimate puts it between tol and sqrt(8) tol
    mesh = build_mesh(2)
    pencil, _ = driver._power_pencil(experiment1(2, k), mesh, None)
    r = np.random.default_rng(11).standard_normal(pencil.n) + 0.5j
    est = bounded(pencil, mesh, k).norm_and_solve(r)[0]
    val, y = bounded(pencil, mesh, k, tol=est / 2).norm_and_solve(r)
    exact, z = pencil.dual.norm_and_solve(r)
    # an upper bound in exact arithmetic; PCG run to 1e-6 leaves a gap
    # below the rounding of the two inner products (2e-14 measured)
    assert exact * (1.0 - 1e-12) <= val <= exact * (1.0 + 1e-9) and val < est
    assert np.linalg.norm(y - z) <= 1e-5 * np.linalg.norm(z)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("k", K_POINTS)
def test_cell_reader_applies_the_checked_inverse_bitwise(level, k):
    # B from cell (0, 0)'s rows of K + M_w - 7 M2 against the inverse of the
    # assembled K + M, checked entry by entry to be cell-periodic
    mesh = build_mesh(level)
    pencil, _ = driver._power_pencil(experiment1(level, k), mesh, None)
    forms = assemble_tm(mesh, k)
    K = forms.K.mat
    A = lin.with_data(K, K.data + 1.0 * (forms.M1.mat.data + forms.M2.mat.data))
    assert cell_periodic(A)
    checked = CellPeriodicInverse.of_cell(A)
    r = np.array([1.0, 1j]) @ np.random.default_rng(level).standard_normal((2, pencil.n))
    assert bounded(pencil, mesh, k).B(r).tobytes() == checked(r).tobytes()


# the stop row of the power-family reference, whose LOPCG leg the FFT bound
# preconditions
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


def test_bounded_dual_norm_needs_a_mesh_lattice():
    K = random_hpd(6, seed=20)
    M1 = lin.with_data(K, np.ones(K.nnz))
    with pytest.raises(ValueError, match="cell-periodic"):
        lin.BoundedDualNorm(K, M1, M1, (1.0, 2.0), 1e-12)


# --- misc ------------------------------------------------------------------------


def test_is_positive_definite():
    assert lin.is_positive_definite(random_hpd(5, seed=19))
    assert not lin.is_positive_definite(sparse.diags([1.0, -2.0, 3.0]).tocsr())
