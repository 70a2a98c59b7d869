"""Rational linearization: block structure, exact elimination, scalar oracle."""

import dataclasses
import pathlib

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

from blochfem import dispersion, driver, linalg
from blochfem.companion import (
    EliminatedPencil,
    NonlinearResidual,
    build_companion,
    default_big_start,
    shift_lower_bound,
    solve_linearized,
)
from blochfem.eigeniter import arnoldi, inverse_power_rq
from blochfem.errors import ShiftBoundError
from blochfem.mesh import build_mesh

EXPERIMENT2 = pathlib.Path(__file__).resolve().parent.parent / "configs" / "experiment2.ini"
K_POINT = (np.pi / 2, np.pi)
ETA2 = (55.2698, 63.1655)
XI2 = (98.6960, 197.3921)


def two_oscillator():
    return dispersion.SimplifiedDL(
        alpha2=2.0,
        terms=tuple(
            dispersion.LorentzTerm(xi2=x, eta2=e, gamma=0.0)
            for x, e in zip(XI2, ETA2)
        ),
    )


@pytest.fixture(scope="module")
def sys0():
    return build_companion(build_mesh(0), K_POINT, two_oscillator())


@pytest.fixture(scope="module")
def sys1():
    return build_companion(build_mesh(1), K_POINT, two_oscillator())


@pytest.fixture(scope="module")
def sol0(sys0):
    return solve_linearized(sys0, tol=1e-10, mesh_level=0)


@pytest.fixture(scope="module")
def sol1(sys1):
    return solve_linearized(sys1, tol=1e-10, mesh_level=1)


# ---------------------------------------------------------------------------
# block structure


def test_xspace_blocks_are_m2_subblocks(sys1):
    dense = sys1.forms.M2.mat.toarray()
    assert np.array_equal(sys1.R.toarray(), dense[:, sys1.xdofs])
    assert np.array_equal(sys1.M_X.toarray(), dense[np.ix_(sys1.xdofs, sys1.xdofs)])
    # the square block really is the X-rows of R
    assert (sys1.R[sys1.xdofs, :] != sys1.M_X).nnz == 0


def test_m2_has_no_mass_outside_xspace(sys1):
    # every nonzero column of M2 belongs to X: this is what makes the
    # auxiliary elimination exact rather than approximate (M2 stores zeros
    # on the mesh's pattern wherever its cells miss the disk)
    mat = sys1.forms.M2.mat.tocsc()
    outside = np.setdiff1d(np.arange(sys1.n_v), sys1.xdofs)
    assert mat[:, outside].count_nonzero() == 0
    assert np.all(mat.diagonal().real[sys1.xdofs] > 0)


def test_extended_dimensions_and_split(sys1):
    L = sys1.realization.order
    assert L == 2
    n_x = sys1.xdofs.size
    assert sys1.n == sys1.n_v + L * n_x
    z = np.arange(sys1.n, dtype=complex)
    u, x = sys1.split(z)
    assert u.shape == (sys1.n_v,)
    assert x.shape == (L, n_x)
    assert np.array_equal(np.concatenate([u, x.ravel()]), z)


def test_extended_matrices_hermitian(sys1):
    for H in (sys1.A_beta, sys1.M_w):
        delta = (H.mat - H.mat.conj().T).tocoo()
        worst = np.abs(delta.data).max() if delta.nnz else 0.0
        assert worst <= 1e-14 * max(np.abs(H.mat.data).max(), 1.0)


def test_shift_bound_enforced():
    model = two_oscillator()
    spread = max(ETA2) - min(ETA2)
    assert shift_lower_bound(model) == pytest.approx(spread, rel=1e-15)
    mesh = build_mesh(0)
    for beta in (spread, spread - 1.0, 0.0):
        with pytest.raises(ShiftBoundError):
            build_companion(mesh, K_POINT, model, beta=beta)
    # just above the spread is admissible
    cs = build_companion(mesh, K_POINT, model, beta=spread * (1 + 1e-3))
    assert cs.beta > spread


def test_default_shift_is_spread_plus_one(sys1):
    assert sys1.beta == pytest.approx(max(ETA2) - min(ETA2) + 1.0, rel=1e-14)


def test_rejects_wrong_model_or_weight():
    mesh = build_mesh(0)
    lossy = dispersion.RealDL(
        alpha=2.0,
        terms=(dispersion.LorentzTerm(xi2=1.0, eta2=4.0, gamma=0.5),),
    )
    with pytest.raises(TypeError):
        build_companion(mesh, K_POINT, lossy)
    with pytest.raises(ValueError):
        build_companion(mesh, K_POINT, two_oscillator(), alpha1=0.0)


def test_empty_model_degenerates_to_plain_pencil():
    mesh = build_mesh(0)
    model = dispersion.SimplifiedDL(alpha2=2.0, terms=())
    cs = build_companion(mesh, K_POINT, model, beta=1.0)
    assert cs.n == cs.n_v
    expected = cs.forms.K.mat + 1.0 * cs.M_alpha.mat
    assert abs(cs.A_beta.mat - expected).max() == 0.0
    assert (cs.M_w.mat != cs.M_alpha.mat).nnz == 0
    sol = solve_linearized(cs, tol=1e-10, mesh_level=0)
    assert sol.lam > 0
    assert sol.x.shape == (0, cs.xdofs.size)


# ---------------------------------------------------------------------------
# the eliminated inverse application


def test_step_satisfies_extended_system(sys1):
    assert isinstance(sys1, EliminatedPencil)
    q = sys1.normalized(default_big_start(sys1))
    z = sys1.step(q)
    r = sys1.A_beta @ z - sys1.M_w @ q
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(sys1.M_w @ q)
    # the auxiliary rows cancel by construction, not just to solver accuracy
    assert np.abs(r[sys1.n_v:]).max() <= 1e-15


def test_schur_solve_inverts_nonlinear_operator_at_shift(sys1):
    # the Schur complement is the V-space rational operator frozen at
    # lam = -beta; verify through its action against an independent assembly
    real = sys1.realization
    weight = real.Xi - dispersion.transfer(real, -sys1.beta)
    S = (
        sys1.forms.K.mat
        + weight * sys1.forms.M2.mat
        + sys1.beta * sys1.M_alpha.mat
    )
    rng = np.random.default_rng(7)
    v = rng.standard_normal(sys1.n_v) + 1j * rng.standard_normal(sys1.n_v)
    w = sys1.schur.solve(S @ v)
    assert np.linalg.norm(w - v) <= 1e-10 * np.linalg.norm(v)


def test_a_power_leg_factors_the_dual_norm_before_the_schur_complement(monkeypatch):
    # the first row's step needs the Schur complement before its residual
    # needs K + M_alpha; the leg factors them in the other order, which
    # keeps the process's heap layout, and with it its peak RSS
    factored = []
    init = linalg.Factorization.__init__
    monkeypatch.setattr(linalg.Factorization, "__init__",
                        lambda self, A: factored.append(A) or init(self, A))
    cs = build_companion(build_mesh(0), K_POINT, two_oscillator())
    solve_linearized(cs, steps=2)
    K, Ma = cs.forms.K.mat, cs.M_alpha.mat
    assert [A.data.tobytes() for A in factored] == [
        (K.data + Ma.data).tobytes(), cs.schur.mat.data.tobytes()]


@pytest.mark.parametrize("alpha1", [1.0, 2.0])
def test_k_plus_m_alpha_is_inverted_by_fft_iff_alpha1_is_alpha2(alpha1, monkeypatch):
    # alpha2 = 2: one weight on both regions makes K + M_alpha cell-periodic
    factored = []
    init = linalg.Factorization.__init__
    monkeypatch.setattr(linalg.Factorization, "__init__",
                        lambda self, A: factored.append(A.shape) or init(self, A))
    cs = build_companion(build_mesh(1), K_POINT, two_oscillator(), alpha1=alpha1)
    dual = cs.nonlinear_residual.dual
    A = (cs.forms.K.mat + cs.M_alpha.mat).tocsr()
    assert factored == ([] if alpha1 == 2.0 else [A.shape])
    r = np.random.default_rng(5).standard_normal(cs.n_v) + 0.5j
    lu = linalg.Factorization(A).solve(r)
    assert dual(r) == pytest.approx(np.sqrt(np.vdot(r, lu).real), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha1", [1.0, 2.0])
def test_m_alpha_is_the_weighted_sum_of_the_region_masses(alpha1):
    # alpha1*M1 + alpha2*M2 summed on the forms' pattern, alpha2 = 2
    cs = build_companion(build_mesh(1), K_POINT, two_oscillator(), alpha1=alpha1)
    M1, M2 = cs.forms.M1.mat, cs.forms.M2.mat
    assert cs.weights == (alpha1, 2.0)
    assert np.shares_memory(cs.M_alpha.mat.indices, M1.indices)
    assert cs.M_alpha.mat.data.tobytes() == (alpha1 * M1.data + 2.0 * M2.data).tobytes()


def test_mu_trace_monotone_to_working_precision(sol1):
    assert sol1.trace.is_monotone_per_level()
    assert sol1.trace.monotone_mu_violation() <= 1e-13


# ---------------------------------------------------------------------------
# the converged pair


def test_defining_relation_per_block(sys1, sol1):
    for l in range(sys1.realization.order):
        lhs = (sys1.realization.A[l] - sol1.lam) * (sys1.M_X @ sol1.x[l])
        rhs = sys1.realization.b[l] * (sys1.R.conj().T @ sol1.u)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_auxiliary_fields_are_scaled_field_restrictions(sys1, sol1):
    # the elimination pins the representative x_l = b_l/(eta2_l - lam) u|_X
    # pointwise, a stronger statement than the M_X-weighted relation above
    uX = sol1.u[sys1.xdofs]
    for l in range(sys1.realization.order):
        pred = sys1.realization.b[l] / (sys1.realization.A[l] - sol1.lam) * uX
        assert np.linalg.norm(sol1.x[l] - pred) <= 1e-9 * np.linalg.norm(pred)


def test_nonlinear_residual_small_and_sharp(sys1, sol1):
    resid = sys1.nonlinear_residual
    at_pair = resid(sol1.u, sol1.lam)
    assert at_pair <= 1e-8
    assert resid(sol1.u, sol1.lam + 0.1) > 100 * at_pair


def test_eigenvalue_window_and_shift_bookkeeping(sol1, sys1):
    assert -sys1.beta < sol1.lam < min(ETA2)
    assert sol1.mu == pytest.approx(sol1.lam + sys1.beta, rel=1e-14)
    nrm = np.vdot(sol1.u, sys1.M_alpha @ sol1.u).real
    assert nrm == pytest.approx(1.0, rel=1e-12)


def test_scalar_oracle_level0(sys0, sol0):
    # independent algorithm: lam solves lam_min(K + (Xi - s(lam)) M2, M_a) = lam,
    # found by dense eigh plus scalar root bracketing -- no extended space
    K = sys0.forms.K.mat.toarray()
    M2 = sys0.forms.M2.mat.toarray()
    Ma = sys0.M_alpha.mat.toarray()
    real = sys0.realization

    def gap(lam):
        s = dispersion.transfer(real, lam)
        vals = sla.eigh(
            K + (real.Xi - s) * M2, Ma, eigvals_only=True, subset_by_index=[0, 0]
        )
        return vals[0] - lam

    lam = brentq(gap, 1e-3, min(ETA2) - 1e-3, xtol=1e-13, rtol=8.9e-16)
    assert sol0.lam == pytest.approx(lam, abs=1e-10)


def test_level1_eigenvalue_regression_pin(sol1):
    # regression guard only; correctness is anchored by the level-0 oracle
    assert sol1.lam == pytest.approx(2.7957488301278595, abs=5e-9)


# ---------------------------------------------------------------------------
# interplay with the Krylov accelerator


def test_arnoldi_runs_through_elimination(sys1, sol1):
    coarse = arnoldi(sys1, default_big_start(sys1), 8)
    fine = arnoldi(sys1, default_big_start(sys1), 14)
    assert not coarse.breakdown and not fine.breakdown
    assert fine.mu <= coarse.mu + 1e-12
    assert fine.mu == pytest.approx(sol1.mu, abs=1e-10)
    assert sys1.norm_m(fine.vector) == pytest.approx(1.0, rel=1e-12)


def test_zero_physical_start_rejected(sys1):
    z0 = np.zeros(sys1.n, dtype=complex)
    z0[sys1.n_v:] = 1.0
    with pytest.raises(ValueError):
        solve_linearized(sys1, z0=z0)


def test_default_start_layout(sys1):
    z = default_big_start(sys1)
    assert z.shape == (sys1.n,)
    assert np.all(z[: sys1.n_v] == 1.0)
    assert np.all(z[sys1.n_v:] == 0.0)


def test_residual_dual_is_the_nonlinear_residual_of_the_field(sys1):
    # a row records the nonlinear residual of split(z)[0] at mu - beta, not
    # the extended linear residual
    rng = np.random.default_rng(3)
    z = rng.standard_normal(sys1.n) + 1j * rng.standard_normal(sys1.n)
    resid = NonlinearResidual(sys1.forms, sys1.M_alpha, sys1.realization,
                              sys1.weights)
    for mu in (sys1.beta + 1.5, sys1.beta + 30.0):
        expect = resid(sys1.split(z)[0], mu - sys1.beta)
        assert sys1.residual_dual(z, mu) == expect


# ---------------------------------------------------------------------------
# LOPCG on the tolerance legs


def experiment2_config(**changes):
    cfg = driver.RunConfig.from_ini(EXPERIMENT2)
    return dataclasses.replace(cfg, out=None, **changes)


@pytest.fixture(scope="module")
def exp2_sys1():
    cfg = experiment2_config()
    return build_companion(
        build_mesh(1), cfg.k, cfg.model, alpha1=cfg.alpha1, beta=cfg.resolved_beta()
    )


def test_lopcg_leg_matches_the_power_leg_on_experiment2_level1(exp2_sys1):
    cs = exp2_sys1
    sol = solve_linearized(cs, tol=1e-10, mesh_level=1)
    power, _ = inverse_power_rq(cs, default_big_start(cs), tol=1e-10)
    assert sol.trace[-1].residual_dual <= 1e-10
    assert sol.lam == pytest.approx(power[-1].lam, rel=1e-12)
    assert 2 * len(sol.trace) < len(power)
    mus = sol.trace.mus()
    assert np.all(np.diff(mus) <= 1e-12 * np.abs(mus[1:]))


def test_lopcg_leg_reaches_the_power_floor(exp2_sys1):
    # the inverse step is parallel to x up to the residual; dropping it at
    # 1e-12 of its length stopped this leg at a residual of 3.6e-12
    sol = solve_linearized(exp2_sys1, tol=1e-13, mesh_level=1)
    assert sol.trace[-1].residual_dual <= 1e-13


def test_schedule_never_builds_the_extended_dual(monkeypatch):
    # factoring the extended matrix would take in its near-singular M_X blocks
    def refuse(self):
        raise AssertionError("the extended pencil's dual norm was built")

    monkeypatch.setattr(EliminatedPencil, "dual", property(refuse))
    tr = driver.run_schedule(experiment2_config(max_level=1))
    assert tr[-1].residual_dual <= 1e-10


def test_the_converged_row_makes_no_solve(monkeypatch):
    # coarse power rows make one step each; the LOPCG leg steps after every
    # row but its last, and its first row is the start's own residual
    steps = []
    step = EliminatedPencil.step
    monkeypatch.setattr(
        EliminatedPencil, "step", lambda self, q: steps.append(1) or step(self, q)
    )
    tr = driver.run_schedule(experiment2_config(max_level=1))
    assert len(steps) == len(tr) - 1


def test_fine_only_from_the_default_start_converges():
    cfg = experiment2_config(max_level=1)
    fine = driver.run_schedule(dataclasses.replace(cfg, fine_only=True))
    sched = driver.run_schedule(cfg)
    assert set(fine.levels()) == {1}
    assert fine[-1].residual_dual <= cfg.tol
    assert fine.monotone_mu_violation() <= 1e-12
    assert fine[-1].lam == pytest.approx(sched[-1].lam, rel=1e-12)
