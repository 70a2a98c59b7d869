"""Bordered Newton and residual inverse iteration: scalar oracles,
normalization, agreement, failure policies, decay diagnostics."""

import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from blochfem import dispersion, driver, linalg, newton
from blochfem.assembly import AssembledForms, assemble_tm, weighted_mass
from blochfem.eigeniter import Pencil, inverse_power_rq
from blochfem.errors import NonConvergenceError, SingularMatrixError
from blochfem.linalg import HermitianSparse, shared_data, with_data
from blochfem.mesh import build_mesh, prolongate
from blochfem.trace import IterationTrace
from blochfem.newton import (
    NewtonState,
    NonlinearPencil,
    decay_exponent,
    newton_solve,
    newton_step,
    rayleigh_functional,
    residual_inverse_iteration,
    warm_start,
)
from test_dispersion import silver
from test_mesh import cell_periodic

K_POINT = (np.pi / 2, np.pi)
REPO = pathlib.Path(__file__).resolve().parent.parent


def diag_forms(k, m1, m2):
    """Diagonal forms K, M = M1 + M2, M1 and M2 on one pattern."""
    n = len(k)
    K = HermitianSparse(sp.csr_matrix(
        (np.asarray(k, dtype=float), np.arange(n), np.arange(n + 1)), shape=(n, n)))
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    M, M1, M2 = (HermitianSparse(linalg.with_data(K.mat, m))
                 for m in (m1 + m2, m1, m2))
    return AssembledForms(K=K, M=M, M1=M1, M2=M2)


def toy_pencil():
    # K = diag(1, 3), plain mass, no disk: linear in lam
    return NonlinearPencil(
        diag_forms([1.0, 3.0], [1.0, 1.0], [0.0, 0.0]),
        model=dispersion.Constant(1.0),
    )


def rational_1x1():
    # T(lam) = 2 - lam*(2 + 1/(4 - lam)); ground root (11 - sqrt(57))/4
    model = dispersion.SimplifiedDL(
        alpha2=1.0, terms=(dispersion.LorentzTerm(xi2=1.0, eta2=4.0, gamma=0.0),)
    )
    return NonlinearPencil(
        diag_forms([2.0], [1.0], [1.0]),
        model=model,
    )


@pytest.fixture(scope="module")
def level1():
    mesh = build_mesh(1)
    return mesh, assemble_tm(mesh, K_POINT)


@pytest.fixture(scope="module")
def silver_run(level1):
    mesh, forms = level1
    p = NonlinearPencil(assemble_tm(mesh, K_POINT), silver())
    u0, lam0 = warm_start(mesh, K_POINT, const_eps2=2.0, rq_steps=8)
    tr = IterationTrace()
    state = newton_solve(p, u0, lam0, tol=1e-12, mesh_level=1, trace=tr)
    return p, state, tr, (u0, lam0)


# ---------------------------------------------------------------------------
# hand-checkable toys


def test_linear_toy_converges_in_one_exact_step():
    # with lam as the unknown the constant-model problem is linear, so the
    # first Newton step lands on the eigenvalue exactly
    p = toy_pencil()
    state = NewtonState(u=np.array([1.0, 0.0], dtype=complex), lam=0.81)
    new = newton_step(p, state)
    assert new.lam == pytest.approx(1.0, abs=5e-15)
    assert np.allclose(new.u, [1.0, 0.0], atol=5e-15)


def test_linear_toy_solve_and_omega():
    p = toy_pencil()
    tr = IterationTrace()
    state = newton_solve(p, np.array([1.0, 0.0]), 0.81, tol=1e-14, trace=tr)
    assert math.sqrt(state.lam) == pytest.approx(1.0, abs=1e-14)
    assert len(tr) - 1 <= 2
    assert tr[-1].residual_dual <= 1e-14


def test_fixed_point_at_eigenpair():
    p = toy_pencil()
    state = NewtonState(u=np.array([1.0, 0.0], dtype=complex), lam=1.0)
    new = newton_step(p, state)
    assert new.lam == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(new.u - state.u) <= 1e-12


def test_rational_toy_matches_scalar_newton():
    # 1x1 bordered Newton with the normalization pinning u *is* scalar
    # Newton on the rational function; check iterates and the exact root
    p = rational_1x1()
    tr = IterationTrace()
    state = newton_solve(p, np.array([1.0]), 0.5, tol=1e-15, trace=tr)
    lam_seq = [row.lam for row in tr][1:]
    lam = 0.5
    for got in lam_seq:
        T = 2 - lam * (2 + 1 / (4 - lam))
        dT = -(2 + 1 / (4 - lam)) - lam / (4 - lam) ** 2
        lam = lam - T / dT
        assert got == pytest.approx(lam, rel=1e-13)
    assert state.lam == pytest.approx((11 - math.sqrt(57)) / 4, rel=1e-14)
    assert len(tr) - 1 <= 6
    assert decay_exponent(tr.residuals()) == pytest.approx(2.0, abs=0.2)


def test_singular_bordered_matrix_reported():
    # K = I at lam = 1: T vanishes identically and the multiplicity-2
    # eigenvalue defeats the border -- the advertised failure mode
    p = NonlinearPencil(
        diag_forms([1.0, 1.0], [1.0, 1.0], [0.0, 0.0]),
        model=dispersion.Constant(1.0),
    )
    state = NewtonState(u=np.array([1.0, 0.0], dtype=complex), lam=1.0)
    with pytest.raises(SingularMatrixError,
                       match=r"singular at lam = 1\.0; restart from a better"):
        newton_step(p, state)


# ---------------------------------------------------------------------------
# the dual norm of K + M: by FFT, because unit weights build K + M
# cell-periodic, and by LU for forms off a mesh lattice; the entry-by-entry
# oracle (test_mesh.cell_periodic) checks that the weights tell the truth

# (pi/2, pi) as experiment3, the origin, and benchmark pool point 38
DUAL_K_POINTS = [K_POINT, (0.0, 0.0), (3.0557955062589977, 1.9657217236799707)]
MIB = 2 ** 20


@pytest.fixture
def factor_sizes(monkeypatch):
    """Sizes of the factorizations made while the test runs."""
    sizes = []
    real_init = linalg.Factorization.__init__

    def counting_init(self, A):
        real_init(self, A)
        sizes.append(self.n)

    monkeypatch.setattr(linalg.Factorization, "__init__", counting_init)
    return sizes


@pytest.mark.parametrize("k", DUAL_K_POINTS)
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_dual_norm_of_k_plus_m_takes_the_fft(level, k, factor_sizes):
    p = NonlinearPencil(assemble_tm(build_mesh(level), k), silver())
    dual = p.dual
    assert factor_sizes == []
    A = (p.forms.K.mat + p.mass.mat).tocsr()
    rng = np.random.default_rng(level)
    r = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    val, z = dual.norm_and_solve(r)
    # the backward-error contract of Factorization.solve
    norm = np.abs(A).sum(axis=1).max()
    assert np.linalg.norm(r - A @ z) <= linalg.SOLVE_RTOL * (
        norm * np.linalg.norm(z) + np.linalg.norm(r))
    lu = linalg.Factorization(A).solve(r)
    assert val == pytest.approx(np.sqrt(np.vdot(r, lu).real), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", DUAL_K_POINTS)
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_unit_weights_build_k_plus_m_cell_periodic(level, k):
    forms = assemble_tm(build_mesh(level), k)
    K, M = forms.K.mat, forms.M.mat
    assert cell_periodic(linalg.with_data(K, K.data + M.data))


@pytest.mark.parametrize("weights", [(1.0, 2.0), (2.0, 2.0)])
def test_only_one_weight_builds_k_plus_m_alpha_cell_periodic(weights):
    # the companion's K + M_alpha is inverted by FFT iff alpha1 == alpha2
    mesh = build_mesh(2)
    K = assemble_tm(mesh, K_POINT).K.mat
    M_alpha = weighted_mass(mesh, *weights).mat
    A = linalg.with_data(K, K.data + M_alpha.data)
    assert cell_periodic(A) == (weights[0] == weights[1])


def test_dual_norm_off_a_mesh_lattice_factors(factor_sizes):
    toy_pencil().dual
    assert factor_sizes == [2]


def test_l4_dual_norm_set_up_peaks_within_16_mib_of_k_plus_m():
    # the FFT inverse reads cell (0, 0)'s rows; nothing nnz-long is built
    # beyond the sum K + M that the solve keeps
    p = NonlinearPencil(assemble_tm(build_mesh(4), K_POINT), silver())
    tracemalloc.start()
    try:
        dual = p.dual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - dual.fact.mat.data.nbytes <= 16 * MIB


@pytest.mark.parametrize("k", DUAL_K_POINTS)
def test_gmres_solve_meets_its_tolerance_on_t_sigma(k, factor_sizes):
    # sigma half a unit above the warm start's lam: T(sigma) is indefinite,
    # with lam1 below sigma, and off the spectrum. GMRES on the FFT inverse
    # of K + M brings its residual to INNER_RTOL of the right-hand side's,
    # in the 2-norm it stops on, and factors nothing
    sigma = warm_start(build_mesh(0), k)[1] + 0.5
    p = NonlinearPencil(assemble_tm(build_mesh(2), k), silver())
    T = p.T(sigma)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    x = linalg.gmres_solve(T, b, p.dual.precondition)
    assert np.linalg.norm(b - T @ x) <= linalg.INNER_RTOL * np.linalg.norm(b)
    assert factor_sizes == [256]  # the warm start's L0 LU only


# ---------------------------------------------------------------------------
# operator structure


def dT(p, lam):
    """The assembled d/dlam of ``p``'s T(lam), -alpha1*M1 -
    (eps2 + lam*eps2')*M2: the oracle of ``apply_derivative``."""
    lam = float(lam)
    eps2 = dispersion.eval_lambda(p.model, lam)
    deps2 = dispersion.eval_dlambda(p.model, lam)
    M1, M2 = shared_data(p.forms.M1, p.forms.M2)
    return with_data(p.forms.M1.mat, -p.alpha1 * M1 - (eps2 + lam * deps2) * M2)


def test_t_and_dt_hermitian(level1):
    _, forms = level1
    p = NonlinearPencil(forms, model=silver(), alpha1=1.0)
    for lam in (0.5, 6.0, 20.0):
        for mat in (p.T(lam), dT(p, lam)):
            scale = np.abs(mat.data).max()
            asym = np.abs((mat - mat.conj().T).data)
            worst = asym.max() if asym.size else 0.0
            assert worst <= 1e-13 * scale


def test_products_apply_the_assembled_t_and_dt(level1):
    # T(lam) u and dT(lam) u summed from the products K u, M1 u and M2 u
    # are the assembled operators applied to u, up to rounding
    _, forms = level1
    p = NonlinearPencil(forms, model=silver(), alpha1=1.3)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    prod = p.products(v)
    assert p.products(prod) is prod
    for lam in (0.5, 6.0, 20.0):
        for summed, mat in ((p.apply(prod, lam), p.T(lam)),
                            (p.apply_derivative(prod, lam), dT(p, lam))):
            want = mat @ v
            assert np.linalg.norm(summed - want) <= 1e-13 * np.linalg.norm(want)


def test_dt_is_directional_derivative(level1):
    _, forms = level1
    p = NonlinearPencil(forms, model=silver(), alpha1=1.0)
    lam = 6.0
    rng = np.random.default_rng(3)
    v = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    errs = {}
    for h in (1e-3, 1e-4):
        lhs = (p.T(lam + h) - p.T(lam)) @ v
        errs[h] = np.linalg.norm(lhs - h * (dT(p, lam) @ v)) / np.linalg.norm(v)
    # second-order remainder: shrinking h by 10 shrinks the error by ~100
    assert errs[1e-4] <= 3e-2 * errs[1e-3]
    assert errs[1e-3] <= 10.0 * 1e-3 ** 2


def test_alpha1_validated(level1):
    _, forms = level1
    with pytest.raises(ValueError):
        NonlinearPencil(forms, model=dispersion.Constant(1.0), alpha1=0.0)


def test_plain_mass_is_unweighted_sum(level1):
    _, forms = level1
    p = NonlinearPencil(forms, model=dispersion.Constant(2.0))
    assert p.mass is forms.M
    assert (p.mass.mat != (forms.M1.mat + forms.M2.mat).tocsr()).nnz == 0


# ---------------------------------------------------------------------------
# agreement with the linear solver stack


def test_constant_model_matches_inverse_power(level1):
    mesh, forms = level1
    pencil = Pencil.on_mesh(mesh, K_POINT, (1.0, 8.0), 1.0)
    tr, _ = inverse_power_rq(pencil, np.ones(pencil.n, complex), tol=1e-12)
    lam_pow = tr[-1].lam

    p = NonlinearPencil(forms, model=dispersion.Constant(8.0))
    u0, lam0 = warm_start(mesh, K_POINT, const_eps2=8.0, rq_steps=3)
    state = newton_solve(p, u0, lam0, tol=1e-13)
    assert state.lam == pytest.approx(lam_pow, abs=1e-10)


# ---------------------------------------------------------------------------
# the dispersive run


def test_silver_run_superlinear(silver_run):
    _, state, tr, _ = silver_run
    assert len(tr) - 1 <= 6
    assert tr[-1].residual_dual <= 1e-12
    assert decay_exponent(tr.residuals()) >= 1.7
    # regression pin; correctness oracles are the toy/scalar tests above
    assert state.lam == pytest.approx(6.308083803256, abs=1e-7)


def test_normalization_persists_across_steps(silver_run):
    # each step's field has (M q)^H u = 1, q the iterate it started from,
    # mass-normalized
    p, _, _, (u0, lam0) = silver_run
    state = NewtonState(u=np.asarray(u0, complex), lam=lam0)
    for _ in range(4):
        q = state.u / math.sqrt(np.vdot(state.u, p.mass @ state.u).real)
        state = newton_step(p, state)
        assert abs(np.vdot(p.mass @ q, state.u) - 1.0) <= 1e-12


def test_warm_start_lands_near_newton_answer(silver_run):
    _, state, _, (u0, lam0) = silver_run
    om, om0 = math.sqrt(state.lam), math.sqrt(lam0)
    assert abs(om0 - om) / om <= 0.25
    assert np.vdot(u0, u0).real > 0


def test_warm_start_degenerate_and_validation(level1):
    mesh, forms = level1
    u0, lam0 = warm_start(mesh, K_POINT, const_eps2=2.0, rq_steps=0)
    # rq_steps = 0: the all-ones start with its raw Rayleigh value
    assert np.allclose(u0, u0[0])
    assert lam0 > 0
    with pytest.raises(ValueError):
        warm_start(mesh, K_POINT, const_eps2=0.0)
    with pytest.raises(ValueError):
        warm_start(mesh, K_POINT, rq_steps=-1)


# ---------------------------------------------------------------------------
# residual inverse iteration


def test_rayleigh_functional_scalar_oracles():
    # 1x1: u^H T(lam) u = 0 is the rational equation itself
    root = rayleigh_functional(rational_1x1(), np.array([1.0]), 0.5)
    assert root == pytest.approx((11 - math.sqrt(57)) / 4, rel=1e-15)
    # constant model: the Rayleigh quotient (1 + 3) / 2
    assert rayleigh_functional(toy_pencil(), np.array([1.0, 1.0]), 0.3) == 2.0


def test_residual_inverse_iteration_converges_on_toy():
    p = toy_pencil()
    state = residual_inverse_iteration(
        p, np.array([1.0, 0.3]), 0.9, tol=1e-14, max_steps=40
    )
    assert state.lam == pytest.approx(1.0, abs=1e-14)
    assert abs(state.u[1]) <= 1e-13
    assert np.vdot(state.u, p.mass @ state.u).real == pytest.approx(1.0)


def _prolongated_coarse(level):
    """Field and lam of a converged Newton solve one level below ``level``."""
    coarse, fine = build_mesh(level - 1), build_mesh(level)
    p = NonlinearPencil(assemble_tm(coarse, K_POINT), silver())
    u0, lam0 = warm_start(coarse, K_POINT, const_eps2=2.0, rq_steps=8)
    state = newton_solve(p, u0, lam0, tol=1e-12)
    return fine, prolongate(state.u, coarse, fine), state.lam


@pytest.mark.parametrize("level", [1, 2])
def test_residual_inverse_iteration_agrees_with_bordered_newton(level):
    fine, u, sigma = _prolongated_coarse(level)
    p = NonlinearPencil(assemble_tm(fine, K_POINT), silver())
    tol = 1e-12
    rii = residual_inverse_iteration(p, u, sigma, tol=tol, max_steps=40)
    lam = newton_solve(p, u, sigma, tol=tol, max_steps=40).lam
    # the benchmark gate's Newton allowance (perfbench/gate.py)
    assert abs(rii.lam - lam) <= 10.0 * (1.0 + lam) * tol
    assert p.residual_dual(rii.u, rii.lam) <= tol


def test_residual_dual_is_accurate_at_experiment3s_final_state():
    # the residual is an exact dual norm only if T(lam) u is: on
    # experiment3's L3 state it must agree with T(lam) u formed in
    # clongdouble from the same float64 forms, u and lam. An assembled
    # T(lam) rounds its cancelling entries and misses by 4e-13 there
    cfg = driver.RunConfig.from_ini(REPO / "configs" / "experiment3.ini")
    mesh, state = driver.run_schedule(cfg).final
    p = NonlinearPencil(assemble_tm(mesh, cfg.k), cfg.model, alpha1=cfg.alpha1)
    u = state.u.astype(np.clongdouble)
    lam = np.longdouble(state.lam)
    eps2 = np.longdouble(dispersion.eval_lambda(cfg.model, state.lam))
    Ku, M1u, M2u = (A.mat.astype(np.clongdouble) @ u
                    for A in (p.forms.K, p.forms.M1, p.forms.M2))
    r = Ku - lam * np.longdouble(cfg.alpha1) * M1u - lam * eps2 * M2u
    r /= np.sqrt(np.vdot(u, M1u + M2u).real)
    exact = p.dual(r.astype(complex))
    assert abs(p.residual_dual(state.u, state.lam) - exact) <= 1e-13


def test_residual_inverse_iteration_below_its_floor_fails_loudly(monkeypatch):
    # tol far below the rounding floor: the shifted iteration runs out its
    # budget and raises with every row, and nothing else takes the leg over
    fine, u, sigma = _prolongated_coarse(1)
    p = NonlinearPencil(assemble_tm(fine, K_POINT), silver())
    sizes = []
    newton_steps = []
    real_init, real_step = linalg.Factorization.__init__, newton.newton_step

    def counting_init(self, A):
        real_init(self, A)
        sizes.append(self.n)

    def counting_step(pencil, state, **kw):
        newton_steps.append(state.lam)
        return real_step(pencil, state, **kw)

    monkeypatch.setattr(linalg.Factorization, "__init__", counting_init)
    monkeypatch.setattr(newton, "newton_step", counting_step)
    with pytest.raises(NonConvergenceError, match="residual inverse iteration "
                       "did not reach 1e-18 within 30 steps") as info:
        residual_inverse_iteration(p, u, sigma, tol=1e-18, max_steps=30)
    assert len(info.value.trace) == 31  # start row + 30 steps
    assert newton_steps == []
    # T(sigma) is solved by GMRES on the FFT inverse of K + M, which
    # factors nothing either
    assert sizes == []


def test_residual_inverse_iteration_to_tol_has_a_default_budget():
    # experiment3's model at L1 from the warm start, with no max_steps: the
    # warm start's lam is too poor a shift to converge from, and the leg
    # runs out newton_solve's default budget of 30 steps
    cfg = driver.RunConfig.from_ini(REPO / "configs" / "experiment3.ini")
    mesh = build_mesh(1)
    p = NonlinearPencil(assemble_tm(mesh, cfg.k), cfg.model, alpha1=cfg.alpha1)
    u0, lam0 = warm_start(mesh, cfg.k)
    with pytest.raises(NonConvergenceError, match="residual inverse iteration "
                       "did not reach 1e-12 within 30 steps") as info:
        residual_inverse_iteration(p, u0, lam0, tol=1e-12)
    assert len(info.value.trace) == 31  # start row + 30 steps


# ---------------------------------------------------------------------------
# failure policies and diagnostics


def test_maxit_exhaustion_raises_with_trace():
    p = rational_1x1()
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(p, np.array([1.0]), 0.5, tol=0.0, max_steps=3)
    assert len(info.value.trace) == 4  # start row + 3 steps


def test_three_rising_residuals_abort():
    scripted = iter([0.5, 1.0, 2.0, 3.0, 4.0])

    class Rigged(NonlinearPencil):
        def residual_dual(self, u, lam):
            return next(scripted)

    p = Rigged(
        diag_forms([1.0, 3.0], [1.0, 1.0], [0.0, 0.0]),
        model=dispersion.Constant(1.0),
    )
    with pytest.raises(NonConvergenceError, match="three steps"):
        newton_solve(p, np.array([1.0, 0.0]), 0.81, tol=1e-16, max_steps=10)


def test_newton_stops_on_the_floor():
    # within 100x of tol and not halved in 5 steps: stop there instead of
    # running out the 30-step budget
    scripted = iter([5e-11, 4e-11, 3e-11, 3e-11, 2.9e-11, 2.8e-11, 2.7e-11])

    class Rigged(NonlinearPencil):
        def residual_dual(self, u, lam):
            return next(scripted)

    p = Rigged(
        diag_forms([1.0, 3.0], [1.0, 1.0], [0.0, 0.0]),
        model=dispersion.Constant(1.0),
    )
    with pytest.raises(NonConvergenceError, match="stalled at 2.8e-11") as info:
        newton_solve(p, np.array([1.0, 0.0]), 0.81, tol=1e-12, max_steps=30)
    assert len(info.value.trace) == 6  # start row + 5 steps


def test_slow_newton_far_above_tol_is_not_a_floor_stall():
    # the same stagnation 1000x above tol runs out the budget instead
    p = rational_1x1()
    p.residual_dual = lambda u, lam: 1e-9
    with pytest.raises(NonConvergenceError, match="within 8 steps"):
        newton_solve(p, np.array([1.0]), 0.5, tol=1e-12, max_steps=8)


def test_zero_start_against_y_rejected():
    # every step is normalized against its own start, so only the zero
    # field is orthogonal to its normalization functional
    p = toy_pencil()
    with pytest.raises(ValueError, match="zero field"):
        newton_solve(p, np.array([0.0, 0.0]), 0.81, tol=1e-13)


def test_decay_exponent_quadratic_and_linear():
    quad = [1e-1, 1e-2, 1e-4, 1e-8, 2e-13, 3e-13]
    assert decay_exponent(quad) == pytest.approx(2.0, abs=0.05)
    lin = [1.0 * 0.5 ** j for j in range(8)]
    assert decay_exponent(lin) == pytest.approx(1.0, abs=0.05)


def test_decay_exponent_excludes_floor_saturated_steps():
    # the quadratic step from 1e-8 crashes into the 2e-13 floor; with that
    # truncated pair included the fit misreads a clean quadratic as sublinear
    seq = [1e-1, 1e-2, 1e-4, 1e-8, 2e-13, 1.8e-13]
    assert decay_exponent(seq) == pytest.approx(2.0, abs=0.05)
    assert decay_exponent(seq, saturation=0.0) < 1.7


def test_decay_exponent_needs_enough_decreases():
    with pytest.raises(ValueError):
        decay_exponent([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        decay_exponent([1.0])
