"""Power iterations and Arnoldi: hand oracles, dense oracles, exact identities."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from blochfem import dispersion, driver, eigeniter
from blochfem.assembly import assemble_tm
from blochfem.companion import EliminatedPencil, build_companion
from blochfem.eigeniter import (
    FLOOR_FACTOR,
    FLOOR_STEPS,
    ArnoldiResult,
    Pencil,
    arnoldi,
    inverse_power_plain,
    inverse_power_rq,
    iterate,
    _ritz_step,
    lopcg,
)
from blochfem.errors import NonConvergenceError
from blochfem.linalg import Factorization, HermitianSparse, rayleigh_quotient
from blochfem.mesh import build_mesh
from blochfem.trace import IterationTrace

from test_linalg import K_POINTS, experiment1

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
K_POINT = (np.pi / 2, np.pi)
ANALYTIC_HOMOG = (np.pi / 2) ** 2 + np.pi ** 2  # smallest |k+2*pi*n|^2


def _noise(n, seed):
    """A seeded complex random start vector."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def diag_pencil():
    A = HermitianSparse(sp.diags([1.0, 2.0]).tocsr())
    M = HermitianSparse(sp.identity(2, format="csr"))
    return Pencil(A, M, beta=0.0)


@pytest.fixture(scope="module")
def level0():
    mesh = build_mesh(0)
    forms = assemble_tm(mesh, K_POINT)
    return mesh, forms


@pytest.fixture(scope="module")
def disk_pencil(level0):
    # experiment-style pencil: disk permittivity 8, unit shift
    mesh, _ = level0
    return Pencil.on_mesh(mesh, K_POINT, (1.0, 8.0), 1.0)


# ---------------------------------------------------------------------------
# hand-iterated diagonal example


def test_first_rayleigh_step_hand_value():
    # u1 ~ (1, 1/2), mu1 = (1 + 2/4)/(1 + 1/4) = 1.2
    tr, _ = inverse_power_rq(diag_pencil(), np.array([1.0, 1.0]), steps=1)
    assert tr[0].mu == pytest.approx(1.2, rel=1e-14)


def test_convergence_to_smallest_pair():
    tr, u = inverse_power_rq(diag_pencil(), np.array([1.0, 1.0]), steps=50)
    assert tr[-1].mu == pytest.approx(1.0, rel=1e-12)
    q = u / np.linalg.norm(u)
    assert abs(q[1]) < 1e-12


def test_eigenvector_start_is_fixed_point():
    p = diag_pencil()
    tr, _ = inverse_power_rq(p, np.array([1.0, 0.0]), steps=3)
    for row in tr:
        assert row.mu == pytest.approx(1.0, rel=1e-14)
        assert row.residual_dual < 1e-13


def test_plain_variant_norm_limit():
    # raw plain iterates converge to a vector of M-norm 1/mu; here mu = 1
    p = diag_pencil()
    _, v = inverse_power_plain(p, np.array([1.0, 1.0]), steps=60)
    assert p.norm_m(v) == pytest.approx(1.0, rel=1e-12)


def test_plain_and_rayleigh_share_the_mu_trace():
    p = diag_pencil()
    u0 = np.array([1.0, 0.7])
    tr_rq, _ = inverse_power_rq(p, u0, steps=8)
    tr_pl, _ = inverse_power_plain(p, u0, steps=8)
    assert np.allclose(tr_rq.mus(), tr_pl.mus(), rtol=1e-13)
    assert np.allclose(tr_rq.residuals(), tr_pl.residuals(), rtol=1e-10, atol=1e-15)


def test_scaled_iterate_identity():
    # with a shared M-normalized start, u^j = mu^{j-1} v^j
    p = diag_pencil()
    u0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for j in (1, 2, 5, 10):
        tr_u, uj = inverse_power_rq(p, u0, steps=j)
        _, vj = inverse_power_plain(p, u0, steps=j)
        mu_prev = tr_u[j - 2].mu if j >= 2 else 1.5  # RQ of u0
        assert np.linalg.norm(uj - mu_prev * vj) <= 1e-10 * np.linalg.norm(uj)


# ---------------------------------------------------------------------------
# FE pencils


def test_homogeneous_cell_reaches_fourier_value():
    p = Pencil.on_mesh(build_mesh(1), K_POINT, (1.0, 1.0), 1.0)
    tr, _ = inverse_power_rq(p, np.ones(p.n, dtype=complex), tol=1e-10)
    assert tr[-1].lam == pytest.approx(ANALYTIC_HOMOG, rel=1e-10)
    assert tr.is_monotone_per_level()


def test_disk_pencil_monotone_and_converges(disk_pencil):
    tr, _ = inverse_power_rq(disk_pencil, np.ones(disk_pencil.n, dtype=complex),
                             tol=1e-10)
    assert tr.is_monotone_per_level()
    assert tr[-1].residual_dual <= 1e-10
    # residuals of the tail decrease at the two-eigenvalue rate, i.e. the
    # iteration made progress every step; just assert overall decay here
    assert tr[-1].residual_dual < tr[0].residual_dual * 1e-6


def test_scaling_invariance_of_mu(disk_pencil):
    u0 = _noise(disk_pencil.n, 5)
    tr1, _ = inverse_power_rq(disk_pencil, u0, steps=6)
    tr2, _ = inverse_power_rq(disk_pencil, (0.3 - 2.2j) * u0, steps=6)
    assert np.allclose(tr1.mus(), tr2.mus(), rtol=1e-12)


def test_trace_bookkeeping(disk_pencil):
    tr, _ = inverse_power_rq(
        disk_pencil, np.ones(disk_pencil.n, dtype=complex), steps=4, mesh_level=3,
    )
    assert [r.j for r in tr] == [1, 2, 3, 4]
    assert all(r.mesh_level == 3 for r in tr)
    assert all(r.dofs == disk_pencil.n for r in tr)
    assert all(r.lam == r.mu - 1.0 for r in tr)
    assert all(r.wall_seconds >= 0 for r in tr)
    # appending to an existing trace continues the global step numbering
    tr2, _ = inverse_power_rq(
        disk_pencil, np.ones(disk_pencil.n, dtype=complex), steps=2, trace=tr
    )
    assert tr2 is tr and [r.j for r in tr][-2:] == [5, 6]


# ---------------------------------------------------------------------------
# property: monotone mu and scaling invariance on random PD pencils


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_monotone_mu_random_pencils(seed, n):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    C = rng.standard_normal((n, n))
    A = HermitianSparse(sp.csr_matrix(B.conj().T @ B + np.eye(n)))
    M = HermitianSparse(sp.csr_matrix(C.T @ C + np.eye(n)))
    p = Pencil(A, M, beta=0.0)
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tr, _ = inverse_power_rq(p, u0, steps=12)
    assert tr.is_monotone_per_level()


# ---------------------------------------------------------------------------
# Arnoldi


def test_arnoldi_m1_is_rayleigh_quotient(disk_pencil):
    u0 = _noise(disk_pencil.n, 3)
    from blochfem.linalg import rayleigh_quotient

    res = arnoldi(disk_pencil, u0, m=1)
    assert res.mu == pytest.approx(
        rayleigh_quotient(u0, disk_pencil.A_beta, disk_pencil.M_w), rel=1e-13
    )
    assert res.dim == 1 and not res.breakdown


def test_arnoldi_full_space_matches_dense_oracle(disk_pencil):
    res = arnoldi(disk_pencil, np.ones(disk_pencil.n, dtype=complex),
                  m=disk_pencil.n)
    dense = sla.eigh(
        disk_pencil.A_beta.mat.toarray(), disk_pencil.M_w.mat.toarray(), eigvals_only=True
    )
    assert abs(res.mu - dense[0]) <= 1e-10


def test_arnoldi_sandwich(disk_pencil):
    u0 = np.ones(disk_pencil.n, dtype=complex)
    tr_pow, _ = inverse_power_rq(disk_pencil, u0, steps=9)
    mus_pow = tr_pow.mus()
    tr_conv, _ = inverse_power_rq(disk_pencil, u0, tol=1e-12)
    mu1 = tr_conv[-1].mu
    for m in range(2, 9):
        res = arnoldi(disk_pencil, u0, m)
        assert mu1 <= res.mu + 1e-12
        assert res.mu <= mus_pow[m - 2] + 1e-12


def test_arnoldi_ritz_residual_galerkin_orthogonality(disk_pencil):
    res = arnoldi(disk_pencil, _noise(disk_pencil.n, 1), m=6)
    r = disk_pencil.A_beta @ res.vector - res.mu * (disk_pencil.M_w @ res.vector)
    assert np.abs(res.basis.conj().T @ r).max() <= 1e-10


def test_arnoldi_breakdown_on_invariant_subspace():
    # 2-dimensional problem: the Krylov space saturates at dim 2 and the
    # projection is already exact
    res = arnoldi(diag_pencil(), np.array([1.0, 1.0]), m=7)
    assert res.breakdown and res.dim == 2
    assert res.mu == pytest.approx(1.0, rel=1e-12)


def test_arnoldi_lam_property(disk_pencil):
    res = arnoldi(disk_pencil, np.ones(disk_pencil.n, dtype=complex), m=3)
    assert res.lam == res.mu - 1.0


# ---------------------------------------------------------------------------
# argument and failure handling


def test_rejects_zero_start(disk_pencil):
    with pytest.raises(ValueError):
        inverse_power_rq(disk_pencil, np.zeros(disk_pencil.n), steps=1)
    with pytest.raises(ValueError):
        arnoldi(disk_pencil, np.zeros(disk_pencil.n), m=2)
    with pytest.raises(ValueError, match="shape"):
        arnoldi(disk_pencil, np.ones(disk_pencil.n + 1), m=2)


def test_rejects_bad_step_requests(disk_pencil):
    u0 = np.ones(disk_pencil.n, dtype=complex)
    with pytest.raises(ValueError):
        inverse_power_rq(disk_pencil, u0)  # neither steps nor tol
    with pytest.raises(ValueError):
        inverse_power_rq(disk_pencil, u0, steps=0)
    with pytest.raises(ValueError):
        arnoldi(disk_pencil, u0, m=0)


def test_nonconvergence_attaches_partial_trace(disk_pencil):
    with pytest.raises(NonConvergenceError) as err:
        inverse_power_rq(
            disk_pencil, np.ones(disk_pencil.n, dtype=complex), tol=1e-14, max_steps=3
        )
    assert err.value.trace is not None
    assert len(err.value.trace) == 3


def test_stall_at_the_floor_raises_within_a_few_steps(disk_pencil):
    # the level-0 residual floor is about 3e-15; a tol of 1e-15 is below it
    tol = 1e-15
    with pytest.raises(NonConvergenceError, match="has not halved") as err:
        inverse_power_rq(
            disk_pencil, np.ones(disk_pencil.n, dtype=complex), tol=tol, max_steps=2000
        )
    res = err.value.trace.residuals()
    near = int(np.argmax(res <= FLOOR_FACTOR * tol))
    assert res[near] <= FLOOR_FACTOR * tol
    assert len(res) - near <= FLOOR_STEPS + 10


def unit_shift_diag_pencil(lams):
    """Diagonal pencil with eigenvalues ``lams`` and beta = 1, M_w = I."""
    A = HermitianSparse(sp.diags(np.asarray(lams, dtype=float) + 1.0).tocsr())
    M = HermitianSparse(sp.identity(len(lams), format="csr"))
    return Pencil(A, M, beta=1.0)


def test_lopcg_takes_fewer_steps_than_inverse_power():
    p = unit_shift_diag_pencil(np.arange(1.0, 31.0))
    trace, x = lopcg(p, np.ones(p.n), tol=1e-10, dual=p.dual)
    power, _ = inverse_power_rq(p, np.ones(p.n), tol=1e-10)
    assert trace[-1].residual_dual <= 1e-10
    assert trace[-1].lam == pytest.approx(1.0, rel=1e-12)
    assert 2 * len(trace) < len(power)


def test_lopcg_rows_are_the_residuals_of_their_iterates(disk_pencil):
    u0 = np.ones(disk_pencil.n, dtype=complex)
    full, _ = lopcg(disk_pencil, u0, tol=1e-12, dual=disk_pencil.dual)
    for row in full:
        # stopping at a row's residual returns that row's iterate
        trace, x = lopcg(disk_pencil, u0, tol=row.residual_dual, dual=disk_pencil.dual)
        assert np.array_equal(trace.mus(), full.mus()[:row.j])
        assert np.array_equal(trace.residuals(), full.residuals()[:row.j])
        assert trace[-1].residual_dual == disk_pencil.residual_dual(x, trace[-1].mu)


@pytest.mark.parametrize("level", [0, 1])
def test_lopcg_mu_never_rises(level):
    p = Pencil.on_mesh(build_mesh(level), K_POINT, (1.0, 8.0), 1.0)
    trace, _ = lopcg(p, np.ones(p.n, dtype=complex), tol=1e-13, dual=p.dual)
    mus = trace.mus()
    assert trace[-1].residual_dual <= 1e-13
    assert np.all(np.diff(mus) <= 1e-12 * np.abs(mus[1:]))


def test_lopcg_without_dual_steps_with_the_inverse(disk_pencil):
    # the rows record residual_dual and the search direction is step(x)
    u0 = np.ones(disk_pencil.n, dtype=complex)
    stepped, _ = lopcg(disk_pencil, u0, tol=1e-11)
    dual, _ = lopcg(disk_pencil, u0, tol=1e-11, dual=disk_pencil.dual)
    assert stepped[-1].residual_dual <= 1e-11
    assert stepped[-1].lam == pytest.approx(dual[-1].lam, rel=1e-12)


def test_lopcg_eigenvector_start_returns_after_its_first_row():
    # the residual, and so the search direction, is exactly zero
    p = unit_shift_diag_pencil([1.0, 2.0, 3.0])
    trace, x = lopcg(p, np.array([0.0, 3.0, 0.0]), tol=1e-14, dual=p.dual)
    assert len(trace) == 1
    assert trace[0].residual_dual == 0.0 and trace[0].lam == 2.0
    # a rotated pencil leaves a rounding-level residual
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag(np.arange(2.0, 8.0)) @ Q.T
    p = Pencil(HermitianSparse(sp.csr_matrix(0.5 * (A + A.T))),
               HermitianSparse(sp.identity(6, format="csr")), beta=1.0)
    trace, x = lopcg(p, Q[:, 0], tol=1e-13, dual=p.dual)
    assert len(trace) == 1 and trace[0].lam == pytest.approx(1.0, rel=1e-14)


def test_ritz_step_carries_the_products_of_the_move(disk_pencil):
    p = disk_pencil
    x, move = p.normalized(np.ones(p.n, dtype=complex)), None
    for _ in range(4):
        Ax, Mx = p.A_beta @ x, p.M_w @ x
        z = p.step(x)
        x, move = _ritz_step(p, x, Ax, Mx, z, move)
        w, Aw, Mw = move
        assert np.linalg.norm(Aw - p.A_beta @ w) <= 1e-13 * np.linalg.norm(Aw)
        assert np.linalg.norm(Mw - p.M_w @ w) <= 1e-13 * np.linalg.norm(Mw)


def test_lopcg_drops_a_dependent_direction():
    # on two unknowns span{x, z} is the whole space after one step, so from
    # the second step on the previous move lies in span{x, z}
    p = unit_shift_diag_pencil([1.0, 2.0])
    with pytest.raises(NonConvergenceError, match="LOPCG did not reach") as err:
        lopcg(p, np.array([1.0, 1.0]), tol=0.0, max_steps=6, dual=p.dual)
    trace = err.value.trace
    assert len(trace) == 6
    assert np.all(trace.residuals()[1:] < 1e-15)
    assert [r.lam for r in trace][1:] == pytest.approx([1.0] * 5, rel=1e-15)


def test_lopcg_below_the_floor_raises_with_the_partial_trace(disk_pencil):
    # the level-0 residual floor is about 2e-15
    u0 = np.ones(disk_pencil.n, dtype=complex)
    with pytest.raises(NonConvergenceError, match="has not halved") as err:
        lopcg(disk_pencil, u0, tol=1e-16, max_steps=200, dual=disk_pencil.dual)
    assert FLOOR_STEPS < len(err.value.trace) < 200
    with pytest.raises(NonConvergenceError, match="within 3 steps") as err:
        lopcg(disk_pencil, u0, tol=1e-16, max_steps=3, dual=disk_pencil.dual)
    assert len(err.value.trace) == 3


def test_on_mesh_shifts_correctly(level0):
    mesh, forms = level0
    p = Pencil.on_mesh(mesh, K_POINT, (1.0, 1.0), 2.5)
    M = forms.M1.mat + forms.M2.mat
    diff = (p.A_beta.mat - (forms.K.mat + 2.5 * M)).toarray()
    assert np.abs(diff).max() == 0.0


def test_beta_one_reuses_solver_factorization(level0):
    mesh, _ = level0
    p = Pencil.on_mesh(mesh, K_POINT, (1.0, 1.0), 1.0)
    _ = p.factorization
    assert p.dual.fact is p.factorization


# ---------------------------------------------------------------------------
# power rows that take their residual from the next step


class RowSpy:
    """Counts ``Factorization.solve`` calls and exact residuals
    (``Pencil.residual_dual``), and records every power row as
    ``(pencil, raw, mu, residual, exact)``, ``exact`` telling whether the
    row took the exact norm itself."""

    def __init__(self, monkeypatch):
        self.solves = self.exact_norms = 0
        self.rows = []
        solve, residual_dual = Factorization.solve, Pencil.residual_dual
        power_rows = eigeniter._power_rows

        def counting_solve(fact, b):
            self.solves += 1
            return solve(fact, b)

        def counting_residual(pencil, q, mu):
            self.exact_norms += 1
            return residual_dual(pencil, q, mu)

        def recording_rows(pencil, *args, **kwargs):
            before = self.exact_norms
            for raw, mu, lam, res in power_rows(pencil, *args, **kwargs):
                self.rows.append((pencil, raw, mu, res, self.exact_norms > before))
                yield raw, mu, lam, res
                before = self.exact_norms

        monkeypatch.setattr(Factorization, "solve", counting_solve)
        monkeypatch.setattr(Pencil, "residual_dual", counting_residual)
        monkeypatch.setattr(eigeniter, "_power_rows", recording_rows)
        self._residual_dual = residual_dual

    def exact(self, pencil, raw, mu):
        """The exact dual residual of a row's iterate, uncounted: the row
        normalizes ``raw`` to the same bits."""
        return self._residual_dual(pencil, pencil.normalized(raw), mu)


def test_experiment1_schedule_solves_once_per_row(monkeypatch):
    # one step per row, plus one solve per row that takes the exact norm:
    # the first row of the fine leg, the rows after a residual within
    # FLOOR_FACTOR of tol, and the last row of each coarse leg; two solves
    # per row, 78, before rows took their residual from the next step
    spy = RowSpy(monkeypatch)
    trace = driver.run_schedule(driver.RunConfig.from_ini(CONFIGS / "experiment1.ini"))
    assert len(spy.rows) == len(trace) == 39
    assert spy.exact_norms == sum(row[4] for row in spy.rows) == 10
    assert spy.solves == len(trace) + spy.exact_norms == 49


@pytest.mark.parametrize("k", K_POINTS)
def test_look_ahead_rows_are_the_dual_norm_and_the_stop_row_is_exact(monkeypatch, k):
    spy = RowSpy(monkeypatch)
    trace = driver.run_schedule(experiment1(4, k))
    ahead = 0
    for (pencil, raw, mu, res, exact), row in zip(spy.rows, trace):
        assert row.residual_dual == res
        if not exact and row.mesh_level >= 1:
            want = spy.exact(pencil, raw, mu)
            assert abs(res - want) <= 1e-4 * want, (row.j, res, want)
            ahead += 1
    assert ahead >= 10
    # the row that stops the fine leg records the exact norm, bitwise
    pencil, raw, mu, res, exact = spy.rows[-1]
    assert exact and res == spy.exact(pencil, raw, mu) <= 1e-10


def test_rows_on_the_rounding_floor_take_the_exact_norm(monkeypatch):
    # the homogeneous cell's legs sit on the rounding floor, where
    # r^H (q - mu w) cancels: every row takes the exact norm, none reads 0
    cfg = replace(driver.RunConfig.from_ini(CONFIGS / "homogeneous.ini"), max_level=3)
    spy = RowSpy(monkeypatch)
    trace = driver.run_schedule(cfg)
    assert spy.solves == 2 * len(trace)
    assert all(exact for *_, exact in spy.rows)
    for pencil, raw, mu, res, _ in spy.rows:
        assert res == spy.exact(pencil, raw, mu) > 0.0


def test_shifted_and_eliminated_pencils_solve_twice_per_row(monkeypatch):
    mesh = build_mesh(1)
    shifted = Pencil.on_mesh(mesh, K_POINT, (1.0, 8.0), 2.5)
    spy = RowSpy(monkeypatch)
    trace, _ = inverse_power_rq(shifted, np.ones(shifted.n, dtype=complex), steps=5)
    assert spy.solves == 2 * len(trace) == 10
    # beta = 1 on the companion pencil, whose rows record the nonlinear
    # residual: one step and one such residual per row
    model = dispersion.SimplifiedDL(
        alpha2=2.0, terms=(dispersion.LorentzTerm(xi2=98.696, eta2=55.2698),))
    pencil = build_companion(mesh, K_POINT, model, beta=1.0)
    calls = []
    for name in ("step", "residual_dual"):
        method = getattr(EliminatedPencil, name)
        monkeypatch.setattr(EliminatedPencil, name,
                            lambda self, *a, _m=method, _n=name: calls.append(_n) or _m(self, *a))
    trace, _ = inverse_power_rq(pencil, np.ones(pencil.n, dtype=complex), steps=5)
    assert calls == ["step", "residual_dual"] * 5


# ---------------------------------------------------------------------------
# iterate on scripted rows


def scripted(residuals, closed=None):
    """Rows with the given residuals; a row's state is its index."""
    try:
        for i, res in enumerate(residuals):
            yield i, 2.0, 1.0, res
    finally:
        if closed is not None:
            closed.append(True)


def test_iterate_steps_mode_takes_exactly_steps_rows():
    # a zero residual would stop a tolerance leg at its first row
    closed = []
    trace, state = iterate(scripted([0.0] * 7, closed), 2, None, 3, steps=6)
    assert state == 5 and len(trace) == 6
    assert [r.j for r in trace] == [1, 2, 3, 4, 5, 6]
    assert all(r.mesh_level == 3 and r.dofs == 2 and r.mu == 2.0 and r.lam == 1.0
               for r in trace)
    assert all(r.wall_seconds >= 0.0 for r in trace)
    assert closed == [True]


def test_iterate_stops_at_the_first_row_within_tol():
    closed = []
    trace, state = iterate(scripted([1.0, 0.5, 1e-3, 1e-4], closed), 2, None, 0,
                           tol=1e-3, max_steps=10)
    assert state == 2 and trace.residuals().tolist() == [1.0, 0.5, 1e-3]
    assert closed == [True]


@pytest.mark.parametrize("start_row", [False, True])
def test_iterate_budget_leaves_out_the_start_row(start_row):
    closed = []
    with pytest.raises(NonConvergenceError,
                       match="^Newton did not reach 1e-12 within 3 steps$") as err:
        iterate(scripted([1.0] * 10, closed), 2, None, 0, tol=1e-12, max_steps=3,
                start_row=start_row, name="Newton")
    assert len(err.value.trace) == 3 + start_row
    assert closed == [True]


def test_iterate_floor_stop_sees_the_whole_leg():
    # a switch of solver inside the rows keeps the leg's residual history:
    # no part alone has the FLOOR_STEPS earlier rows the stop compares with
    def switching(closed):
        yield from scripted([4e-11, 3e-11, 3e-11])
        yield from scripted([2.9e-11, 2.8e-11, 2.7e-11, 2.6e-11], closed)

    closed = []
    with pytest.raises(NonConvergenceError, match="stalled at 2.7e-11") as err:
        iterate(switching(closed), 2, None, 0, tol=1e-12, max_steps=30)
    assert len(err.value.trace) == FLOOR_STEPS + 1
    assert closed == [True]
    # 1000x above tol the same stagnation runs out the budget instead
    with pytest.raises(NonConvergenceError, match="within 8 steps"):
        iterate(scripted([1e-9] * 10), 2, None, 0, tol=1e-12, max_steps=8)


def test_iterate_attaches_the_partial_trace_to_a_failure_in_the_rows():
    def failing():
        yield from scripted([1.0, 0.5])
        raise NonConvergenceError("gave up")

    trace = IterationTrace()
    trace.record(0, 2, 3.0, 2.0, 1.0, 0.0)
    with pytest.raises(NonConvergenceError, match="gave up") as err:
        iterate(failing(), 2, trace, 1, tol=1e-12, max_steps=10)
    assert err.value.trace is trace and len(trace) == 3


def test_iterate_needs_steps_or_tol():
    for leg in ({}, dict(steps=2, tol=1e-3, max_steps=5), dict(steps=0)):
        with pytest.raises(ValueError):
            iterate(scripted([1.0] * 5), 2, None, 0, **leg)
