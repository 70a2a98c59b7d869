"""Schedule plumbing: level hand-offs, CSV persistence, sweeps, configs."""

import math
import pathlib
from dataclasses import fields, replace

import numpy as np
import pytest

from blochfem import assembly as asm, dispersion, driver, linalg, newton
from blochfem.errors import NonConvergenceError
from blochfem.mesh import MAX_LEVEL, build_mesh
from blochfem.trace import CSV_HEADER, IterationTrace

from test_dispersion import silver

K_POINT = (math.pi / 2, math.pi)
REPO = pathlib.Path(__file__).resolve().parent.parent


def fourier_lambda1(k):
    return min(
        (k[0] + 2 * math.pi * a) ** 2 + (k[1] + 2 * math.pi * b) ** 2
        for a in range(-3, 4)
        for b in range(-3, 4)
    )


def linear_config(**kw):
    base = dict(
        experiment="linear",
        model=dispersion.Constant(8.0),
        steps_per_mesh=3,
        max_level=1,
        tol=1e-10,
    )
    base.update(kw)
    return driver.RunConfig(**base)


def two_oscillator():
    return dispersion.SimplifiedDL(
        alpha2=2.0,
        terms=(
            dispersion.LorentzTerm(xi2=98.6960, eta2=55.2698),
            dispersion.LorentzTerm(xi2=197.3921, eta2=63.1655),
        ),
    )


# ---------------------------------------------------------------------------
# the schedule


def test_levels_increment_every_s_steps():
    cfg = linear_config(steps_per_mesh=3, max_level=2)
    tr = driver.run_schedule(cfg)
    levels = tr.levels()
    assert list(levels[:6]) == [0, 0, 0, 1, 1, 1]
    assert set(levels[6:]) == {2}
    assert np.all(np.diff(levels) >= 0)
    assert [r.j for r in tr] == list(range(1, len(tr) + 1))
    assert tr[-1].residual_dual <= cfg.tol


def test_fine_only_stays_on_one_level():
    cfg = linear_config(fine_only=True, max_level=1)
    tr = driver.run_schedule(cfg)
    assert set(tr.levels()) == {1}
    assert tr[-1].residual_dual <= cfg.tol


def test_max_level_zero_equals_fine_only():
    a = driver.run_schedule(linear_config(max_level=0, steps_per_mesh=50))
    b = driver.run_schedule(linear_config(max_level=0, fine_only=True))
    assert np.array_equal(a.mus(), b.mus())


def test_runs_are_deterministic():
    cfg = linear_config(max_level=1)
    a = driver.run_schedule(cfg)
    b = driver.run_schedule(cfg)
    assert np.array_equal(a.mus(), b.mus())
    assert [r.lam for r in a] == [r.lam for r in b]
    assert np.array_equal(a.residuals(), b.residuals())


def test_reference_fills_rel_err_column():
    cfg = linear_config(max_level=1)
    ref = driver.compute_reference(cfg)
    tr = driver.run_schedule(cfg)
    tr.fill_rel_err(ref.mu_ref)
    expected = abs(tr[0].mu - ref.mu_ref) / abs(ref.mu_ref)
    assert tr[0].rel_err == pytest.approx(expected, rel=1e-12)
    assert np.all(np.isfinite([r.rel_err for r in tr]))


def test_budget_exhaustion_raises_and_annotates():
    cfg = linear_config(max_level=0, tol=1e-13, max_fine_steps=3)
    with pytest.raises(NonConvergenceError) as info:
        driver.run_schedule(cfg)
    assert len(info.value.trace) == 3
    assert any("aborted" in note for note in info.value.trace.notes)


def test_companion_schedule_levels_and_monotonicity():
    cfg = driver.RunConfig(
        experiment="dl_linearized", model=two_oscillator(),
        steps_per_mesh=5, max_level=1, tol=1e-8,
    )
    tr = driver.run_schedule(cfg)
    assert list(tr.levels()[:5]) == [0] * 5
    assert set(tr.levels()[5:]) == {1}
    assert tr.monotone_mu_violation() <= 1e-13
    assert tr[-1].residual_dual <= 1e-8
    assert tr[-1].lam == pytest.approx(2.79574883, abs=1e-6)


def test_newton_schedule_reaches_fine_tolerance():
    cfg = driver.RunConfig(
        experiment="newton", model=silver(),
        steps_per_mesh=3, max_level=1, tol=1e-12, seed=0,
    )
    tr = driver.run_schedule(cfg)
    assert any("warm start" in note for note in tr.notes)
    assert list(tr.levels()[:3]) == [0] * 3
    assert tr[-1].residual_dual <= 1e-12
    assert tr[-1].lam == pytest.approx(6.3080838, abs=1e-6)


def test_fine_only_newton_hands_on_its_last_rows_lam():
    # the state is newton_solve's own, not a round trip through omega; at
    # this point the round trip lands one ulp off the row
    cfg = driver.RunConfig(
        experiment="newton", model=silver(), max_level=0, fine_only=True,
        tol=1e-12,
    )
    tr = driver.run_schedule(cfg)
    assert tr.final[1].lam == tr[-1].lam


def test_newton_solve_steps_is_the_schedules_level0_leg(monkeypatch):
    cfg = driver.RunConfig(
        experiment="newton", model=silver(), steps_per_mesh=3, max_level=1,
        tol=1e-12,
    )
    level0 = [r for r in driver.run_schedule(cfg) if r.mesh_level == 0]
    mesh = build_mesh(0)
    pencil = newton.NonlinearPencil(asm.assemble_tm(mesh, cfg.k), cfg.model)
    u0, lam0 = newton.warm_start(mesh, cfg.k)
    tr = IterationTrace()
    states = []
    real_step = newton.newton_step

    def recording_step(pencil, state, **kw):
        new = real_step(pencil, state, **kw)
        states.append((state.u, new.u))
        return new

    monkeypatch.setattr(newton, "newton_step", recording_step)
    newton.newton_solve(pencil, u0, lam0, steps=3, trace=tr)
    assert len(level0) == len(tr) == len(states) == 3
    for a, b in zip(level0, tr):
        assert (a.mu, a.lam, a.residual_dual) == (b.mu, b.lam, b.residual_dual)
    # every step is normalized against the iterate it starts from,
    # mass-normalized
    for old, new in states:
        M = pencil.forms.M1.mat + pencil.forms.M2.mat
        q = old / math.sqrt(np.vdot(old, M @ old).real)
        assert abs(np.vdot(M @ q, new) - 1.0) <= 1e-12


def test_refined_newton_levels_factor_nothing(monkeypatch):
    # L0 pays the warm start's LU and one bordered LU per step; the refined
    # levels solve T(sigma) by GMRES on the FFT inverse of K + M, which
    # factors nothing either
    sizes = []
    real_init = linalg.Factorization.__init__

    def counting_init(self, A):
        real_init(self, A)
        sizes.append(self.n)

    monkeypatch.setattr(linalg.Factorization, "__init__", counting_init)
    cfg = driver.RunConfig(
        experiment="newton", model=silver(),
        steps_per_mesh=3, max_level=2, tol=1e-12,
    )
    tr = driver.run_schedule(cfg)
    assert tr[-1].residual_dual <= 1e-12
    assert sorted(sizes) == [256, 257, 257, 257]


def test_experiment3_factors_nothing_above_level_0(monkeypatch):
    # the schedule factors on L0 only, and the L4 reference not at all
    sizes = []
    real_init = linalg.Factorization.__init__

    def counting_init(self, A):
        real_init(self, A)
        sizes.append(self.n)

    monkeypatch.setattr(linalg.Factorization, "__init__", counting_init)
    cfg = replace(driver.RunConfig.from_ini(REPO / "configs" / "experiment3.ini"),
                  out=None)
    final = driver.run_schedule(cfg).final
    assert sizes and max(sizes) == 257
    sizes.clear()
    ref = driver.compute_reference(cfg, final)
    assert ref.level == 4 and ref.residual_dual <= driver.REFERENCE_TOL
    assert sizes == []


def test_experiment3_builds_t_only_as_a_solve_operator(monkeypatch):
    # residuals and right-hand sides sum T(lam) u from the products K u,
    # M1 u and M2 u; T is built only for a solve: T(sigma) once per refined
    # level, sigma the lam the level below ended on, and T(lam) in each
    # bordered matrix, which only level 0 builds: every refined level and
    # the reference run residual inverse iteration and nothing else
    builds, steps = [], []
    real_T, real_step = newton.NonlinearPencil.T, newton.newton_step

    def counting_T(self, lam):
        builds.append((self.n, float(lam)))
        return real_T(self, lam)

    def counting_step(pencil, state, **kw):
        steps.append((pencil.n, float(state.lam)))
        return real_step(pencil, state, **kw)

    monkeypatch.setattr(newton.NonlinearPencil, "T", counting_T)
    monkeypatch.setattr(newton, "newton_step", counting_step)
    cfg = replace(driver.RunConfig.from_ini(REPO / "configs" / "experiment3.ini"),
                  out=None)
    tr = driver.run_schedule(cfg)
    ref = driver.compute_reference(cfg, tr.final)
    ends = {r.mesh_level: (r.dofs, r.lam) for r in tr}
    sigmas = [(ends[level + 1][0], ends[level][1]) for level in range(cfg.max_level)]
    sigmas.append((ref.dofs, tr.final[1].lam))
    assert [n for n, _ in steps] == [256] * cfg.steps_per_mesh
    assert sorted(builds) == sorted(steps + sigmas)


def test_a_missed_gmres_tolerance_aborts_with_the_partial_trace(monkeypatch):
    monkeypatch.setattr(linalg, "GMRES_MAX_ITER", 1)
    cfg = driver.RunConfig(
        experiment="newton", model=silver(), steps_per_mesh=3, max_level=1,
        tol=1e-12,
    )
    with pytest.raises(NonConvergenceError, match="GMRES") as info:
        driver.run_schedule(cfg)
    tr = info.value.trace
    # the L0 leg, then the L1 rows before the solve that failed
    levels = [r.mesh_level for r in tr]
    assert levels[:3] == [0, 0, 0] and set(levels[3:]) <= {1}
    assert len(levels) < 6
    assert tr.notes[-1].startswith("aborted: GMRES")


def test_newton_seed_does_not_pick_the_band():
    # pool point 38 of the benchmark: normalized against a seeded random
    # vector, seed 3 sent the first L0 step to 9.0 and the run to the
    # lambda = 10.95 band
    cfg = driver.RunConfig(
        experiment="newton", model=silver(), kx=3.0557955062589977,
        ky=1.9657217236799707, steps_per_mesh=3, max_level=3, tol=1e-12,
        max_fine_steps=40, seed=3,
    )
    tr = driver.run_schedule(cfg)
    assert tr[-1].lam == pytest.approx(6.8962117599558015, abs=1e-10)
    assert tr[-1].residual_dual <= 1e-12


# ---------------------------------------------------------------------------
# references


def test_reference_brackets_analytic_value():
    # the discrete L4 solve of the empty cell (homogeneous_check itself takes
    # the analytic value as its reference)
    cfg = driver.RunConfig(
        experiment="linear", model=dispersion.Constant(1.0),
        max_level=3, tol=1e-10,
    )
    ref = driver.compute_reference(cfg)
    exact = fourier_lambda1(K_POINT) + 1.0  # mu = lambda + beta
    assert ref.level == 4
    assert exact < ref.mu_ref < exact * (1.0 + 1e-6)
    assert ref.residual_dual <= driver.REFERENCE_TOL


def test_reference_levels_pin_exact_mode_and_disk_converges():
    # empty cell: the constant field is an exact discrete eigenvector at
    # every level, so references sit on the analytic value up to solver
    # noise instead of decreasing (see the decision ledger on nestedness)
    exact = fourier_lambda1(K_POINT) + 1.0
    for max_level in (1, 2):
        cfg = driver.RunConfig(
            experiment="linear", model=dispersion.Constant(1.0),
            max_level=max_level, tol=1e-10,
        )
        assert driver.compute_reference(cfg).mu_ref == pytest.approx(exact, abs=1e-9)
    # the disk problem does discretize: consecutive references approach
    # each other (the interface quadrature makes them oscillate, not
    # decrease, around the limit)
    mus = []
    for max_level in (1, 2, 3):
        cfg = driver.RunConfig(
            experiment="linear", model=dispersion.Constant(8.0),
            max_level=max_level, tol=1e-10,
        )
        mus.append(driver.compute_reference(cfg).mu_ref)
    assert abs(mus[2] - mus[1]) < 0.2 * abs(mus[1] - mus[0])


def test_homogeneous_reference_is_the_fourier_value(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the analytic reference solves nothing")

    monkeypatch.setattr(driver, "run_schedule", no_solve)
    monkeypatch.setattr(driver, "build_mesh", no_solve)
    for k, eps in ((K_POINT, 1.0), ((5.0, -4.0), 2.5)):
        cfg = driver.RunConfig(
            experiment="homogeneous_check", kx=k[0], ky=k[1], alpha1=eps,
            model=dispersion.Constant(eps), beta=2.0,
        )
        ref = driver.compute_reference(cfg)
        assert ref.lam_ref == pytest.approx(fourier_lambda1(k) / eps, rel=1e-14)
        assert ref.mu_ref == ref.lam_ref + 2.0
        assert ref.level is None and ref.dofs is None


def test_homogeneous_check_needs_a_homogeneous_cell():
    with pytest.raises(ValueError, match="alpha1 == eps2"):
        driver.RunConfig(
            experiment="homogeneous_check", model=dispersion.Constant(8.0)
        ).validate()


def test_reference_from_the_final_state_matches_the_standalone_one():
    cfg = linear_config(max_level=1)
    trace = driver.run_schedule(cfg)
    mesh, state = trace.final
    assert mesh.level == 1 and state.lam == trace[-1].lam
    ref = driver.compute_reference(cfg, trace.final)
    assert ref == driver.compute_reference(cfg)
    assert ref.level == 2 and ref.residual_dual <= driver.REFERENCE_TOL


@pytest.mark.parametrize("cfg", [
    linear_config(max_level=1),
    driver.RunConfig(experiment="newton", model=silver(), steps_per_mesh=3,
                     max_level=0, tol=1e-10),
    driver.RunConfig(experiment="dl_linearized", model=two_oscillator(),
                     steps_per_mesh=5, max_level=0, tol=1e-8),
], ids=["linear", "newton", "dl_linearized"])
def test_reference_releases_every_level_and_a_later_schedule_builds_each_once(
        monkeypatch, cfg):
    monkeypatch.setattr(asm, "_PIECES_CACHE", {})
    trace = driver.run_schedule(cfg)
    driver.compute_reference(cfg, trace.final)
    assert asm._PIECES_CACHE == {}
    builds, build = [], asm._RegionPieces
    monkeypatch.setattr(asm, "_RegionPieces",
                        lambda mesh: builds.append(mesh.level) or build(mesh))
    driver.run_schedule(cfg)
    assert builds == list(range(cfg.max_level + 1))


def test_power_reference_factors_nothing_and_converges_from_a_stalling_start(monkeypatch):
    # pool point 34 of the linear_refined benchmark workload: a reference
    # that drops every step raising mu by rounding stalled here at 1.16e-12
    cfg = driver.RunConfig.from_ini(REPO / "configs" / "experiment1.ini")
    cfg = replace(cfg, kx=2.1967727806945763, ky=1.8971541259255482, out=None)
    final = driver.run_schedule(cfg).final
    sizes = []
    real_init = linalg.Factorization.__init__

    def counting_init(self, A):
        real_init(self, A)
        sizes.append(self.n)

    monkeypatch.setattr(linalg.Factorization, "__init__", counting_init)
    ref = driver.compute_reference(cfg, final)
    assert ref.level == 4 and ref.residual_dual <= driver.REFERENCE_TOL
    # the FFT bound of K + w_min*M preconditions the L4 leg: no LU at all
    assert sizes == []
    assert ref.lam_ref == pytest.approx(final[1].lam, rel=1e-4)


def test_power_reference_builds_no_region_pieces_and_factors_nothing(monkeypatch):
    # experiment1: the L4 pencil comes from reference_pencil, which caches
    # nothing; the schedule's pieces are released, none are built at L4
    cfg = replace(driver.RunConfig.from_ini(REPO / "configs" / "experiment1.ini"),
                  out=None)
    final = driver.run_schedule(cfg).final
    builds, sizes = [], []
    build, factor = asm._RegionPieces, linalg.Factorization.__init__
    monkeypatch.setattr(asm, "_RegionPieces",
                        lambda mesh: builds.append(mesh.level) or build(mesh))
    monkeypatch.setattr(linalg.Factorization, "__init__",
                        lambda self, A: factor(self, A) or sizes.append(self.n))
    ref = driver.compute_reference(cfg, final)
    assert ref.level == cfg.max_level + 1 == 4
    assert builds == [] and sizes == []
    assert asm._PIECES_CACHE == {}


# ---------------------------------------------------------------------------
# persistence


def test_emit_csv_roundtrip(tmp_path):
    cfg = linear_config(max_level=1)
    tr = driver.run_schedule(cfg)
    path = tmp_path / "run.csv"
    driver.emit_csv(tr, path)
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(tr) + 1
    for line, row in zip(lines[1:], tr):
        parts = line.split(",")
        assert int(parts[0]) == row.j
        assert int(parts[1]) == row.mesh_level
        # 17 significant digits survive the float round trip exactly
        assert float(parts[3]) == row.mu
        assert float(parts[4]) == row.lam
        assert float(parts[6]) == row.residual_dual


def test_emit_csv_empty_trace_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    driver.emit_csv(IterationTrace(), path)
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def test_emit_csv_bad_path_reports_context(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        driver.emit_csv(IterationTrace(), tmp_path / "no" / "such" / "dir.csv")


def test_same_seed_same_csv_columns(tmp_path):
    cfg = linear_config(max_level=1)
    cols = []
    for name in ("a.csv", "b.csv"):
        driver.emit_csv(driver.run_schedule(cfg), tmp_path / name)
        lines = (tmp_path / name).read_text().splitlines()[1:]
        cols.append([tuple(l.split(",")[3:5]) for l in lines])
    assert cols[0] == cols[1]


# ---------------------------------------------------------------------------
# sweeps


def test_homogeneous_sweep_matches_plane_waves():
    cfg = driver.RunConfig(
        experiment="k_sweep", model=dispersion.Constant(1.0),
        steps_per_mesh=5, max_level=1, tol=1e-8,
    )
    path = driver.linear_k_path((0.0, 0.0), (math.pi, 0.0), 3)
    points = driver.k_sweep(cfg, path)
    assert len(points) == 3
    assert all(p.error is None for p in points)
    assert abs(points[0].lam1) <= 1e-8
    for p in points[1:]:
        assert p.lam1 == pytest.approx(fourier_lambda1((p.kx, p.ky)), rel=1e-5)


def test_sweep_k_and_minus_k_agree():
    cfg = driver.RunConfig(
        experiment="k_sweep", model=dispersion.Constant(1.0),
        steps_per_mesh=5, max_level=1, tol=1e-10,
    )
    k = (1.1, 0.7)
    pts = driver.k_sweep(cfg, [k, (-k[0], -k[1])])
    assert pts[0].lam1 == pytest.approx(pts[1].lam1, abs=1e-11)


def test_single_point_sweep_equals_direct_run():
    cfg = driver.RunConfig(
        experiment="k_sweep", model=dispersion.Constant(1.0),
        kx=K_POINT[0], ky=K_POINT[1],
        steps_per_mesh=5, max_level=1, tol=1e-10,
    )
    direct = driver.run_schedule(cfg)
    pts = driver.k_sweep(cfg, [K_POINT])
    assert pts[0].lam1 == direct[-1].lam


def test_sweep_records_failures_and_continues():
    # with the disk present, Gamma still converges instantly (the constant
    # field is the exact zero mode) while the zone-edge point cannot finish
    # inside the tiny budget
    cfg = driver.RunConfig(
        experiment="k_sweep", model=dispersion.Constant(8.0),
        steps_per_mesh=5, max_level=0, tol=1e-10, max_fine_steps=6,
    )
    pts = driver.k_sweep(cfg, [(0.0, 0.0), (math.pi, 0.0)])
    assert pts[0].error is None and np.isfinite(pts[0].lam1)
    assert pts[1].error is not None and math.isnan(pts[1].lam1)


def test_sweep_csv_format(tmp_path):
    points = [
        driver.SweepPoint(kx=0.0, ky=0.0, lam1=0.5),
        driver.SweepPoint(kx=1.0, ky=0.0, lam1=math.nan, error="x"),
    ]
    path = tmp_path / "sweep.csv"
    driver.emit_sweep_csv(points, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "kx,ky,lambda1"
    assert lines[1] == "0,0,0.5"
    assert "nan" in lines[2]


def test_empty_k_path_rejected():
    with pytest.raises(ValueError):
        driver.k_sweep(linear_config(), [])


def test_linear_k_path_endpoints():
    path = driver.linear_k_path((0.0, 0.0), (1.0, 2.0), 5)
    assert path[0] == (0.0, 0.0)
    assert path[-1] == (1.0, 2.0)
    assert len(path) == 5
    assert driver.linear_k_path((0.3, 0.4), (9.9, 9.9), 1) == [(0.3, 0.4)]


# ---------------------------------------------------------------------------
# configuration


def test_shipped_configs_parse_and_validate():
    for ini in sorted((REPO / "configs").glob("*.ini")):
        cfg = driver.RunConfig.from_ini(ini)
        assert cfg.experiment in driver.EXPERIMENTS, ini


def test_from_ini_reads_model_and_shift():
    cfg = driver.RunConfig.from_ini(REPO / "configs" / "experiment2.ini")
    assert cfg.experiment == "dl_linearized"
    assert isinstance(cfg.model, dispersion.SimplifiedDL)
    assert [t.eta2 for t in cfg.model.terms] == [55.2698, 63.1655]
    assert cfg.resolved_beta() == pytest.approx(8.8957, abs=1e-10)
    assert cfg.out == "traces/experiment2.csv"


def test_unknown_keys_rejected(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nexperiment = linear\ntypo_key = 1\n")
    with pytest.raises(ValueError, match="typo_key"):
        driver.RunConfig.from_ini(bad)
    bad.write_text("[run]\nexperiment = linear\n[sweep]\nnonsense = 1\n")
    with pytest.raises(ValueError, match="nonsense"):
        driver.RunConfig.from_ini(bad)


def test_every_run_field_round_trips_through_ini(tmp_path):
    # one value per [run] key, none of them the default; the [run] keys are
    # the fields of RunConfig but the model and the [sweep] ones
    values = dict(
        experiment="k_sweep", kx=0.25, ky=-0.5, alpha1=2.5, beta=1.5,
        steps_per_mesh=3, max_level=2, fine_only=True, tol=3e-9,
        max_fine_steps=50, seed=7, use_reference=True, warm_eps2=3.5,
        warm_rq_steps=4, out="traces/out.csv",
    )
    assert sorted(values) == sorted(
        f.name for f in fields(driver.RunConfig)
        if f.name != "model" and not f.name.startswith("sweep_")
    )
    ini = tmp_path / "all.ini"
    ini.write_text("[run]\n" + "".join("%s = %s\n" % kv for kv in values.items()))
    cfg = driver.RunConfig.from_ini(ini)
    default = driver.RunConfig()
    for key, value in values.items():
        assert getattr(default, key) != value, key
        assert getattr(cfg, key) == value, key
        assert type(getattr(cfg, key)) is type(value), key


def test_missing_config_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        driver.RunConfig.from_ini(tmp_path / "missing.ini")


def test_validate_rejects_bad_values():
    with pytest.raises(ValueError, match="experiment"):
        driver.RunConfig(experiment="warp_drive").validate()
    with pytest.raises(ValueError, match="steps_per_mesh"):
        linear_config(steps_per_mesh=0).validate()
    with pytest.raises(ValueError, match="tol"):
        linear_config(tol=0.0).validate()
    with pytest.raises(ValueError, match="constant model"):
        driver.RunConfig(experiment="linear", model=two_oscillator()).validate()
    with pytest.raises(ValueError, match="shift bound"):
        driver.RunConfig(
            experiment="dl_linearized", model=two_oscillator(), beta=1.0
        ).validate()


def test_max_level_is_bounded_by_the_finest_mesh(tmp_path):
    # a reference solves one level above max_level
    linear_config(max_level=MAX_LEVEL).validate()
    linear_config(max_level=MAX_LEVEL - 1, use_reference=True).validate()
    for bad in (dict(max_level=-1), dict(max_level=MAX_LEVEL + 1),
                dict(max_level=MAX_LEVEL, use_reference=True)):
        with pytest.raises(ValueError, match="max_level"):
            linear_config(**bad).validate()
    ini = tmp_path / "deep.ini"
    for text in ("max_level = %d\n" % (MAX_LEVEL + 1),
                 "max_level = %d\nuse_reference = true\n" % MAX_LEVEL):
        ini.write_text("[run]\nexperiment = linear\n" + text)
        with pytest.raises(ValueError, match="max_level"):
            driver.RunConfig.from_ini(ini)


@pytest.mark.parametrize("experiment", ["linear", "newton"])
def test_reference_above_the_finest_mesh_builds_no_mesh(experiment, monkeypatch):
    built = []
    monkeypatch.setattr(driver, "build_mesh", lambda level: built.append(level))
    cfg = replace(linear_config(max_level=MAX_LEVEL), experiment=experiment,
                  model=silver() if experiment == "newton" else dispersion.Constant(8.0))
    for final in (None, (None, None)):
        with pytest.raises(ValueError, match="max_level"):
            driver.compute_reference(cfg, final)
    assert built == []


def test_default_beta_per_experiment():
    assert linear_config().resolved_beta() == 1.0
    dl = driver.RunConfig(experiment="dl_linearized", model=two_oscillator())
    assert dl.resolved_beta() == pytest.approx(8.8957, abs=1e-10)
