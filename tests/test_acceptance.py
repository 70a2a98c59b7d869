"""End-to-end acceptance checks, one numbered test per criterion.

Every test prints a single verdict line

    [c05] linearization equivalence: PASS -- residual 8.4e-11 <= 1e-8, ...

so a verbose run shows one pass/fail per criterion and the measured numbers
survive in the captured output.

One clause fails by measurement on this implementation and is asserted at
its stated threshold anyway (an honest red is worth more than a test bent
until it passes): the 0.67x wall ratio in [c08] is out of reach once direct
sparse factorizations dominate both protocols. The test prints the
measurements behind that claim. The absolute 1e-13 Newton residual in
[c07b] is met on the 16384-DOF fine mesh: the residual sums T(lam) u from
the products K u, M1 u and M2 u, where an assembled T(lam) rounded it to a
floor of about 4.5e-13.
"""

import dataclasses
import pathlib
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from blochfem import dispersion, driver
from blochfem.assembly import assemble_tm
from blochfem.companion import build_companion, shift_lower_bound, solve_linearized
from blochfem.eigeniter import (
    Pencil,
    arnoldi,
    inverse_power_plain,
    inverse_power_rq,
)
from blochfem.linalg import is_positive_definite, rayleigh_quotient
from blochfem.mesh import build_mesh
from blochfem.newton import decay_exponent

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
K_POINT = (np.pi / 2, np.pi)
ANALYTIC_HOMOG = (np.pi / 2) ** 2 + np.pi ** 2

XI2 = (98.6960, 197.3921)
ETA2 = (55.2698, 63.1655)

SILVER_XI2 = (416.6166, 352.7054, -339.9124, 492.5687, -19.6143, -527.5597, 98.0101)
SILVER_ETA2 = (92.1086, 71.6269, 71.4552, 227.8301, 47.4923, 93.5605, 121.3762)
SILVER_GAMMA = (2.7820, 0.9597, 0.9500, 13.1508, 9.2697, 3.2624, 2.2712)


def two_oscillator():
    return dispersion.SimplifiedDL(
        alpha2=2.0,
        terms=tuple(
            dispersion.LorentzTerm(xi2=x, eta2=e, gamma=0.0)
            for x, e in zip(XI2, ETA2)
        ),
    )


def silver():
    return dispersion.RealDL(
        alpha=1.143,
        terms=tuple(
            dispersion.LorentzTerm(xi2=x, eta2=e, gamma=g)
            for x, e, g in zip(SILVER_XI2, SILVER_ETA2, SILVER_GAMMA)
        ),
    )


def verdict(tag, name, ok, detail):
    line = "[%s] %s: %s -- %s" % (tag, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


# --- shared expensive runs ----------------------------------------------------


@pytest.fixture(scope="module")
def exp1_cfg():
    cfg = driver.RunConfig.from_ini(CONFIGS / "experiment1.ini")
    return dataclasses.replace(cfg, out=None, use_reference=False)


@pytest.fixture(scope="module")
def exp1_run(exp1_cfg):
    ref = driver.compute_reference(exp1_cfg)
    trace = driver.run_schedule(exp1_cfg)
    trace.fill_rel_err(ref.mu_ref)
    return trace, ref


@pytest.fixture(scope="module")
def exp2_run():
    cfg = driver.RunConfig.from_ini(CONFIGS / "experiment2.ini")
    return driver.run_schedule(dataclasses.replace(cfg, out=None))


@pytest.fixture(scope="module")
def disk_pencil1():
    return Pencil.on_mesh(build_mesh(1), K_POINT, (1.0, 8.0), 1.0)


@pytest.fixture(scope="module")
def companion1():
    mesh = build_mesh(1)
    cs = build_companion(mesh, K_POINT, two_oscillator())
    return cs, solve_linearized(cs, tol=1e-10, mesh_level=1)


@pytest.fixture(scope="module")
def exp3_cfg():
    cfg = driver.RunConfig.from_ini(CONFIGS / "experiment3.ini")
    return dataclasses.replace(cfg, out=None)


@pytest.fixture(scope="module")
def newton_fine(exp3_cfg):
    return driver.run_schedule(dataclasses.replace(exp3_cfg, fine_only=True))


# --- criteria -----------------------------------------------------------------


def test_c01_homogeneous_fourier_convergence():
    t0 = time.perf_counter()
    # (a) the package's own solver at level 4 against the analytic value.
    cfg = driver.RunConfig(
        experiment="linear",
        model=dispersion.Constant(1.0),
        fine_only=True,
        max_level=4,
        tol=1e-10,
    )
    tr = driver.run_schedule(cfg)
    rel = abs(tr[-1].lam - ANALYTIC_HOMOG) / ANALYTIC_HOMOG

    # (b) the convergence-ratio clause. The smallest eigenvalue itself cannot
    # carry it: the lowest Bloch mode of the empty cell is the constant
    # field, which the periodic FE space represents exactly at every level
    # (K(k) 1 = |k|^2 M 1 identically), so its error is roundoff noise on
    # every mesh. At this k the same analytic value is attained a second
    # time, by the e^{-2pi i y} mode; that discretized partner carries the
    # genuine O(h^4) rate, measured here with an independent eigensolver.
    errs = []
    for level in range(4):
        forms = assemble_tm(build_mesh(level), K_POINT)
        vals = np.sort(
            eigsh(
                forms.K.mat.tocsc(),
                k=2,
                M=(forms.M1.mat + forms.M2.mat).tocsc(),
                sigma=12.0,
                which="LM",
                return_eigenvectors=False,
            )
        )
        assert abs(vals[0] - ANALYTIC_HOMOG) <= 1e-9  # exact mode, all levels
        errs.append(vals[1] - ANALYTIC_HOMOG)
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    wall = time.perf_counter() - t0

    ok = rel <= 1e-5 and all(r >= 8.0 for r in ratios) and wall <= 60.0
    line = verdict(
        "c01",
        "homogeneous analytic check",
        ok,
        "level-4 rel err %.2e <= 1e-5; second-mode error ratios %s >= 8; %.1fs"
        % (rel, ",".join("%.1f" % r for r in ratios), wall),
    )
    assert ok, line


def test_c02_monotone_rayleigh_quotients(exp1_run, exp2_run):
    tr1, _ = exp1_run
    v1 = tr1.monotone_mu_violation()
    v2 = exp2_run.monotone_mu_violation()
    ok = v1 <= 1e-12 and v2 <= 1e-12
    line = verdict(
        "c02",
        "monotone Rayleigh quotients",
        ok,
        "worst within-level mu increase: %.1e (linear), %.1e (linearized) <= 1e-12"
        % (v1, v2),
    )
    assert ok, line


def test_c03_scaled_iterate_identity(disk_pencil1):
    p = disk_pencil1
    u0 = p.normalized(np.ones(p.n, dtype=complex))
    worst = 0.0
    for j in range(1, 11):
        tr_u, uj = inverse_power_rq(p, u0, steps=j)
        _, vj = inverse_power_plain(p, u0, steps=j)
        mu_prev = (
            tr_u[j - 2].mu if j >= 2 else rayleigh_quotient(u0, p.A_beta, p.M_w)
        )
        worst = max(
            worst, np.linalg.norm(uj - mu_prev * vj) / np.linalg.norm(uj)
        )
    ok = worst <= 1e-10
    line = verdict(
        "c03",
        "scaled-iterate identity",
        ok,
        "max ||u_j - mu_{j-1} v_j|| / ||u_j|| over 10 steps: %.1e <= 1e-10" % worst,
    )
    assert ok, line


def test_c04_krylov_dominates_power(disk_pencil1):
    p = disk_pencil1
    u0 = np.ones(p.n, dtype=complex)
    mus_pow = inverse_power_rq(p, u0, steps=9)[0].mus()
    mu1 = inverse_power_rq(p, u0, tol=1e-12)[0][-1].mu
    sandwich_ok = True
    for m in range(2, 9):
        res = arnoldi(p, u0, m)
        sandwich_ok &= mu1 <= res.mu + 1e-12 <= mus_pow[m - 2] + 2e-12

    p0 = Pencil.on_mesh(build_mesh(0), K_POINT, (1.0, 8.0), 1.0)
    full = arnoldi(p0, np.ones(p0.n, dtype=complex), m=p0.n)
    dense = sla.eigh(p0.A_beta.mat.toarray(), p0.M_w.mat.toarray(), eigvals_only=True)
    gap = abs(full.mu - dense[0])

    ok = sandwich_ok and gap <= 1e-10
    line = verdict(
        "c04",
        "Krylov dominance",
        ok,
        "mu_1 <= mu_Arnoldi^m <= mu_pow^{m-1} for m=2..8: %s; "
        "full-space vs dense oracle gap %.1e <= 1e-10" % (sandwich_ok, gap),
    )
    assert ok, line


def test_c05_linearization_equivalence(companion1):
    cs, sol = companion1
    resid = cs.nonlinear_residual(sol.u, sol.lam)

    worst_blk = 0.0
    for l in range(cs.realization.order):
        lhs = (cs.realization.A[l] - sol.lam) * (cs.M_X @ sol.x[l])
        rhs = cs.realization.b[l] * (cs.R.conj().T @ sol.u)
        worst_blk = max(
            worst_blk, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        )

    # independent level-0 oracle: scalar root of the dense eigenvalue gap
    cs0 = build_companion(build_mesh(0), K_POINT, two_oscillator())
    sol0 = solve_linearized(cs0, tol=1e-10, mesh_level=0)
    K0 = cs0.forms.K.mat.toarray()
    M2 = cs0.forms.M2.mat.toarray()
    Ma = cs0.M_alpha.mat.toarray()
    real = cs0.realization

    def eig_gap(lam):
        s = dispersion.transfer(real, lam)
        low = sla.eigh(
            K0 + (real.Xi - s) * M2, Ma, eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        return low - lam

    lam_oracle = brentq(eig_gap, 1e-3, min(ETA2) - 1e-3, xtol=1e-13, rtol=8.9e-16)
    oracle_gap = abs(sol0.lam - lam_oracle)

    ok = resid <= 1e-8 and worst_blk <= 1e-8 and oracle_gap <= 1e-10
    line = verdict(
        "c05",
        "linearization equivalence",
        ok,
        "nonlinear dual residual %.1e <= 1e-8; defining relation worst block "
        "%.1e <= 1e-8; level-0 scalar-oracle gap %.1e <= 1e-10"
        % (resid, worst_blk, oracle_gap),
    )
    assert ok, line


def test_c06_companion_shift_positivity():
    model = two_oscillator()
    bound = shift_lower_bound(model)
    mesh0 = build_mesh(0)
    results = []
    for beta in (8.8957, bound + 1e-3):
        cs = build_companion(mesh0, K_POINT, model, beta=beta)
        z = cs.step(np.ones(cs.n))  # forces the Schur factorization
        assert np.all(np.isfinite(z))
        results.append((beta, is_positive_definite(cs.schur.mat.toarray())))
    ok = all(pd for _, pd in results)
    line = verdict(
        "c06",
        "companion shift positivity",
        ok,
        "Schur factorization + dense Cholesky at beta=%.4f: %s; at bound+1e-3="
        "%.4f: %s" % (results[0][0], results[0][1], results[1][0], results[1][1]),
    )
    assert ok, line


def test_c07a_newton_decay_exponent(newton_fine):
    res = newton_fine.residuals()
    exponent = decay_exponent(res)
    floor_at = int(np.argmin(res)) + 1
    ok = exponent >= 1.7 and floor_at <= 8
    line = verdict(
        "c07a",
        "Newton decay exponent",
        ok,
        "fitted exponent %.2f >= 1.7 over the final decreasing steps; residual "
        "floor reached at iteration %d <= 8" % (exponent, floor_at),
    )
    assert ok, line


def test_c07b_newton_absolute_residual(exp3_cfg, newton_fine):
    # measure the residual floor across fine-mesh sizes next to the
    # absolute threshold: with T(lam) u summed from the products of the
    # iterate it grows about 2x per level and stays below 1e-13 at the
    # 16384-DOF level this configuration pins (an assembled T(lam) put it
    # at 4.5e-13 there)
    floors = {}
    for level in (1, 2):
        tr = driver.run_schedule(
            dataclasses.replace(exp3_cfg, fine_only=True, max_level=level)
        )
        floors[level] = tr.residuals().min()
    res = newton_fine.residuals()
    floors[exp3_cfg.max_level] = res.min()
    reached = res[:8].min()
    ok = reached <= 1e-13
    line = verdict(
        "c07b",
        "Newton absolute residual",
        ok,
        "min dual residual over 8 fine-mesh iterations: %.2e vs 1e-13; "
        "measured residual floors by level: %s (the exponent clause above "
        "measures the method itself)"
        % (
            reached,
            ", ".join("L%d=%.1e" % (L, floors[L]) for L in sorted(floors)),
        ),
    )
    assert ok, line


def test_c08_refinement_speedup(exp1_cfg):
    # warm the shared form cache so both protocols pay only solver costs
    for level in range(exp1_cfg.max_level + 1):
        assemble_tm(build_mesh(level), exp1_cfg.k)
    cfg_f = dataclasses.replace(exp1_cfg, fine_only=True, steps_per_mesh=7)
    cfg_s = dataclasses.replace(exp1_cfg, steps_per_mesh=7)
    t_fine, t_sched = np.inf, np.inf
    for _ in range(3):  # min-of-3 to strip scheduler noise
        t0 = time.perf_counter()
        tr_f = driver.run_schedule(cfg_f)
        t_fine = min(t_fine, time.perf_counter() - t0)
        t0 = time.perf_counter()
        tr_s = driver.run_schedule(cfg_s)
        t_sched = min(t_sched, time.perf_counter() - t0)
    assert abs(tr_f[-1].lam - tr_s[-1].lam) <= 1e-8 * abs(tr_f[-1].lam)
    fine_steps_saved = len(tr_f) - int((tr_s.levels() == exp1_cfg.max_level).sum())
    ratio = t_sched / t_fine
    ok = ratio <= 0.67
    line = verdict(
        "c08",
        "refinement speedup",
        ok,
        "schedule %.2fs vs fine-only %.2fs: ratio %.2f vs required <= 0.67 "
        "(the schedule saves %d of %d fine steps, but pays %d extra "
        "factorizations and arrives at the fine level with the residual "
        "already pinned near 2e-4 by the between-level eigenpair gap of this "
        "discretization, so the savings cannot compound)"
        % (
            t_sched,
            t_fine,
            ratio,
            fine_steps_saved,
            len(tr_f),
            exp1_cfg.max_level,
        ),
    )
    assert ok, line


def test_c09_error_saturation(exp1_run):
    tr, ref = exp1_run
    fine = [r for r in tr if r.mesh_level == tr.levels().max()]
    plateau = fine[-1].rel_err
    last5 = [r.rel_err for r in fine[-5:]]
    flat = max(last5) / min(last5)
    entry = next(r for r in fine if r.rel_err <= 2 * plateau)
    drop = entry.residual_dual / fine[-1].residual_dual
    ok = 1e-6 < plateau < 1e-3 and flat < 1.02 and drop >= 1e6
    line = verdict(
        "c09",
        "error saturation",
        ok,
        "rel err plateaus at %.2e (flat to %.1e over the last 5 steps, "
        "reference level %d vs run level %d) while the residual falls another "
        "%.1e-fold >= 1e6" % (plateau, flat - 1.0, ref.level, fine[-1].mesh_level, drop),
    )
    assert ok, line


def test_c10_dispersion_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    osc, ag = two_oscillator(), silver()

    even_worst = 0.0
    for model in (osc, ag):
        ws = rng.uniform(0.1, 30.0, 200)
        vals = np.array([dispersion.eval(model, w) for w in ws])
        mirr = np.array([dispersion.eval(model, -w) for w in ws])
        even_worst = max(even_worst, np.abs(vals - mirr).max() / np.abs(vals).max())

    real = dispersion.realize(osc)
    poles = np.array(ETA2)
    transfer_worst, count = 0.0, 0
    while count < 1000:
        lam = rng.uniform(-100.0, 120.0)
        if np.abs(poles - lam).min() < 1e-2:
            continue
        count += 1
        direct = sum(x * e / (e - lam) for x, e in zip(XI2, ETA2))
        t = dispersion.transfer(real, lam)
        transfer_worst = max(
            transfer_worst, abs(t - direct) / max(abs(direct), 1.0)
        )

    fd_worst = 0.0
    for model, lams in ((osc, (1.0, 10.0, 30.0, 80.0)), (ag, (0.5, 3.0, 20.0, 40.0))):
        for lam in lams:
            h = 1e-5 * max(1.0, abs(lam))
            fd = (
                dispersion.eval_lambda(model, lam + h)
                - dispersion.eval_lambda(model, lam - h)
            ) / (2 * h)
            d = dispersion.eval_dlambda(model, lam)
            fd_worst = max(fd_worst, abs(fd - d) / max(abs(d), 1.0))

    probe = (1.0, 10.0, 30.0, 80.0)
    diffs = []
    for g in (1e-1, 1e-2, 1e-3, 0.0):
        damped = dispersion.RealDL(
            alpha=2.0,
            terms=tuple(
                dispersion.LorentzTerm(xi2=x, eta2=e, gamma=g)
                for x, e in zip(XI2, ETA2)
            ),
        )
        diffs.append(
            max(
                abs(dispersion.eval_lambda(damped, lam) - dispersion.eval_lambda(osc, lam))
                for lam in probe
            )
        )
    reduction_ok = diffs[0] > diffs[1] > diffs[2] and diffs[3] <= 1e-12
    wall = time.perf_counter() - t0

    ok = (
        even_worst <= 1e-13
        and transfer_worst <= 1e-10
        and fd_worst <= 1e-6
        and reduction_ok
        and wall <= 5.0
    )
    line = verdict(
        "c10",
        "dispersion property suite",
        ok,
        "evenness %.1e; realization identity at 1000 points %.1e <= 1e-10; "
        "derivative vs finite differences %.1e <= 1e-6; damped model "
        "collapses onto the undamped one as gamma->0 (%.0e -> %.0e -> %.0e, "
        "exact at 0); %.2fs <= 5s"
        % (even_worst, transfer_worst, fd_worst, diffs[0], diffs[1], diffs[2], wall),
    )
    assert ok, line
