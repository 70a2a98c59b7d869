"""The committed traces are what the schedules compute now.

Each ``traces/*.csv`` is rerun from its config: the same rows, levels and
DOF counts, with mu and lambda within 1e-12 relative (BLAS thread counts
move the last bits only).
"""

import csv
import pathlib
from dataclasses import replace

import pytest

from blochfem import driver

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: trace file -> (config file, RunConfig overrides)
TRACES = {
    "experiment1_s3": ("experiment1", {"steps_per_mesh": 3}),
    "experiment1_s5": ("experiment1", {"steps_per_mesh": 5}),
    "experiment1_s7": ("experiment1", {"steps_per_mesh": 7}),
    "experiment1_fine_only": ("experiment1_fine_only", {}),
    "experiment2": ("experiment2", {}),
    "experiment3": ("experiment3", {}),
    "experiment3_fine_only": ("experiment3", {"fine_only": True}),
}


def test_every_committed_trace_is_covered():
    assert sorted(p.stem for p in (ROOT / "traces").glob("*.csv")) == sorted(TRACES)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_a_fresh_run(name):
    config, overrides = TRACES[name]
    cfg = driver.RunConfig.from_ini(ROOT / "configs" / (config + ".ini"))
    trace = driver.run_schedule(replace(cfg, out=None, **overrides))
    with open(ROOT / "traces" / (name + ".csv"), newline="", encoding="utf-8") as fh:
        stored = list(csv.DictReader(fh))
    assert [(r.j, r.mesh_level, r.dofs) for r in trace] == [
        (int(s["j"]), int(s["mesh_level"]), int(s["dofs"])) for s in stored
    ]
    for row, s in zip(trace, stored):
        assert row.mu == pytest.approx(float(s["mu"]), rel=1e-12, abs=0.0)
        assert row.lam == pytest.approx(float(s["lambda"]), rel=1e-12, abs=0.0)
