"""Tests of the benchmark's own parts: inputs, gate, spans, metric lists."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_bytes(tmp_path, workload):
    a = inputs.write_inputs(workload, 7, 12, tmp_path / "a")
    b = inputs.write_inputs(workload, 7, 12, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [(x["kx"], x["ky"]) for x in a] == [(x["kx"], x["ky"]) for x in b]
    c = inputs.write_inputs(workload, 8, 12, tmp_path / "c")
    assert [x["pool_index"] for x in a] != [x["pool_index"] for x in c]


def test_klist_round_trips_exactly(tmp_path):
    ks = [(math.pi / 3, 0.1), (2.0000000000000004, 1e-17)]
    path = tmp_path / "k.txt"
    path.write_text(inputs.klist_text(ks))
    assert inputs.read_klist(path) == ks


@pytest.mark.parametrize("side", [1, 2, 3])
def test_strata_tile_the_zone_with_equal_areas(side):
    tris = inputs.strata(side)
    assert len(tris) == side * side

    def area(t):
        (ax, ay), (bx, by), (cx, cy) = t
        return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2

    areas = [area(t) for t in tris]
    assert sum(areas) == pytest.approx(math.pi ** 2 / 2)
    assert max(areas) == pytest.approx(min(areas))


def test_pool_points_lie_in_their_strata():
    pool = inputs.make_pool(5, 50)
    tris = inputs.strata()
    for p in pool:
        assert 0.0 <= p["ky"] <= p["kx"] <= math.pi
        (ax, ay), (bx, by), (cx, cy) = tris[p["stratum"]]
        # barycentric coordinates of the point in its triangle
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        u = ((p["kx"] - ax) * (cy - ay) - (cx - ax) * (p["ky"] - ay)) / det
        v = ((bx - ax) * (p["ky"] - ay) - (p["kx"] - ax) * (by - ay)) / det
        assert min(u, v, 1 - u - v) >= -1e-12


def test_each_pass_takes_one_point_per_cost_bin():
    pool = inputs.make_pool(5, 6)
    for i, p in enumerate(pool):
        p["steps"] = (i * 7) % 11
    nbins = 4
    bins = inputs.cost_bins(pool, nbins)
    assert sorted(bins) == sorted(list(range(nbins)) * (len(pool) // nbins))
    ranked = sorted(range(len(pool)), key=lambda i: pool[i]["steps"])
    assert [bins[i] for i in ranked] == sorted(bins)
    idx = inputs.order(pool, 11, 5 * nbins, nbins)
    for start in range(0, len(idx), nbins):
        assert sorted(bins[i] for i in idx[start:start + nbins]) == list(range(nbins))
    # a bin's points are all used before any repeats
    first = idx[: (len(pool) // nbins) * nbins]
    assert len(set(first)) == len(first)


def test_cost_ranks_reference_steps_first():
    points = [{"steps": 40, "reference_steps": 9},
              {"steps": 25, "reference_steps": 20},
              {"steps": 30, "reference_steps": 9},
              {"steps": 99}]
    assert inputs.cost_bins(points, 4) == [2, 3, 1, 0]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_pass_length_fits_the_pool(workload):
    # every bin holds at least two points, so seeds differ within a pass
    n = len(inputs.load_pool(workload)["points"])
    assert 2 * inputs.PASS_LENGTH[workload] <= n


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_stored_pool_matches_generator(workload):
    import make_expected

    doc = inputs.load_pool(workload)
    master, per = make_expected.POOLS[workload]
    fresh = inputs.make_pool(master, per, doc["strata_side"])
    assert [(p["kx"], p["ky"]) for p in doc["points"]] == [(p["kx"], p["ky"]) for p in fresh]
    assert all("lam1" in p and "steps" in p for p in doc["points"])
    if inputs.WORKLOADS[workload]["run"].get("use_reference") == "true":
        assert all("reference_steps" in p for p in doc["points"])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_ini_parses_with_the_workload_settings(tmp_path, workload):
    from blochfem.driver import RunConfig

    ini = tmp_path / "k.ini"
    ini.write_text(inputs.ini_text(workload, 3, (2.0, 0.5)))
    cfg = RunConfig.from_ini(str(ini))
    run = inputs.WORKLOADS[workload]["run"]
    assert (cfg.kx, cfg.ky, cfg.seed) == (2.0, 0.5, 3)
    assert cfg.experiment == run["experiment"]
    assert cfg.max_level == int(run["max_level"])
    assert cfg.tol == float(run["tol"])


def test_gate_relative_rule():
    point = {"lam1": 2.0}
    assert gate.check("rational_companion", 1e-10, {"lam1": 2.0 * (1 + 5e-13)}, point) is None
    assert gate.check("rational_companion", 1e-10, {"lam1": 2.0 * (1 + 2e-12)}, point) is not None


def test_gate_checks_the_reference_through_rel_err():
    mu_ref, mu = 1.5, 1.5 * (1 + 3e-6)
    point = {"lam1": mu - 1.0, "mu_ref": mu_ref}
    rec = {"lam1": mu - 1.0, "mu": mu, "rel_err": (mu - mu_ref) / mu_ref}
    assert gate.check("linear_refined", 1e-10, rec, point) is None
    rec["rel_err"] *= 1.001
    assert "reference" in gate.check("linear_refined", 1e-10, rec, point)


def test_gate_newton_bound_scales_with_tol():
    point = {"lam1": 0.013, "residual": 8e-13}
    assert gate.check("lossy_newton", 1e-12, {"lam1": 0.013 + 1.2e-12}, point) is None
    assert gate.check("lossy_newton", 1e-12, {"lam1": 0.013 + 1e-10}, point) is not None


def test_level_of_size():
    assert [spans.level_of_size(256 * 4 ** lv) for lv in range(5)] == list(range(5))
    assert spans.level_of_size(16384 + 1) == 3          # bordered Newton system
    assert spans.level_of_size(int(4096 * 1.7)) == 2    # companion system


def test_self_time_subtracts_children():
    s = [["driver.schedule", 0, 100, -1, 0, 1, None],
         ["linalg.factorize", 10, 40, 0, 0, 1, {"lu_nnz": 50, "a_nnz": 10}],
         ["linalg.solve", 50, 60, 0, 0, 1, None]]
    m = spans.layer_metrics(s, 1)
    assert m["driver.schedule_s"] == pytest.approx(100e-9)
    assert m["driver.schedule_self_s"] == pytest.approx(60e-9)
    assert m["linalg.factorize_s.L1"] == pytest.approx(30e-9)
    assert m["linalg.lu_fill_ratio"] == 5.0
    assert m["linalg.solves_per_factorization"] == 1.0
    # spans of two workers: parents are indices into each worker's own list
    both = spans.layer_metrics(spans.merge([s, s]), 2)
    assert both["driver.schedule_self_s"] == pytest.approx(60e-9)


def test_tracer_sees_every_layer_and_restores_names():
    from dataclasses import replace

    from blochfem import assembly, driver, eigeniter, linalg

    orig = (driver.assemble_tm, linalg.Factorization.__init__, eigeniter.Pencil.step)
    cfg = replace(driver.RunConfig(), experiment="linear", max_level=1,
                  steps_per_mesh=2, tol=1e-8)
    tracer = spans.Tracer()
    tracer.install()
    try:
        driver.run_schedule(cfg)
    finally:
        tracer.uninstall()
    assert (driver.assemble_tm, linalg.Factorization.__init__, eigeniter.Pencil.step) == orig
    assert assembly.assemble_tm is driver.assemble_tm
    m = spans.layer_metrics(tracer.spans, 1)
    assert m["driver.schedule_calls"] == 1
    assert m["assembly.assemble_calls"] == 2
    assert m["linalg.factorize_calls.L1"] == 1
    assert m["eigeniter.steps"] == m["driver.fine_steps"] + m["driver.coarse_steps"]
    assert m["driver.coarse_steps"] == 2
    assert 1.0 < m["linalg.lu_fill_ratio"] < 20.0


def test_benchmark_json_lists_what_run_prints():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)


def test_failed_solves_rank_above_every_success():
    import run

    ok = [{"status": "ok", "solve_s": t} for t in (1.0, 2.0, 3.0)]
    failed = [{"status": "failed", "solve_s": 0.5}]
    outs = [{"setup_s": 0.4}]
    s = run._summarize(ok + failed, outs, 0)
    assert s["solve_s.p50"] == 2.5
    assert (s["solve_samples"], s["failed"], s["failed_frac"]) == (4, 1, 0.25)
    assert s["wall_s"] == 6.5
    s = run._summarize(ok[:2] + failed * 2, outs, 0)
    assert s["solve_s.p50"] is None



@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_solve_count_is_whole_passes_set_by_seconds(workload):
    import run

    length = inputs.PASS_LENGTH[workload]
    counts = [run.solve_count(workload, s) for s in (1, 10, 20, 60)]
    assert all(c % length == 0 and c >= length for c in counts)
    assert counts == sorted(counts)
    assert run.solve_count(workload, 20) == 2 * run.solve_count(workload, 10)
    assert run.solve_count(workload, 10, trace=True) == max(1, counts[1] // 2)


def test_tracer_skips_a_boundary_the_package_lacks(monkeypatch):
    from blochfem import driver

    missing = [("gone.fn", "blochfem.driver", "no_such_function", None, None),
               ("gone.method", "blochfem.linalg", "solve", "NoSuchClass", None)]
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + missing)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert not hasattr(driver, "no_such_function")
