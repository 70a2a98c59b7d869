"""Iteration trace records: CSV fidelity and per-level monotonicity checks."""

import math

import numpy as np
import pytest

from blochfem.trace import CSV_HEADER, IterationTrace, TraceRow


def row(j=1, level=0, mu=2.0, lam=1.0, res=1e-3, wall=0.01, **kw):
    return TraceRow(
        j=j,
        mesh_level=level,
        dofs=256 * 4 ** level,
        mu=mu,
        lam=lam,
        residual_dual=res,
        wall_seconds=wall,
        **kw,
    )


def test_csv_row_roundtrips_at_full_precision():
    r = row(j=3, level=1, mu=1.0 / 3.0, lam=1.0 / 3.0 - 1.0, res=np.pi * 1e-9)
    parts = r.as_csv().split(",")
    assert len(parts) == len(CSV_HEADER.split(","))
    assert [int(parts[0]), int(parts[1]), int(parts[2])] == [3, 1, 1024]
    # %.17g preserves doubles exactly
    assert float(parts[3]) == r.mu
    assert float(parts[4]) == r.lam
    assert float(parts[6]) == r.residual_dual
    assert float(parts[7]) == r.wall_seconds


def test_rel_err_defaults_to_nan():
    r = row()
    assert math.isnan(r.rel_err)
    assert "nan" in r.as_csv().split(",")[5]
    assert float(row(rel_err=2.5e-4).as_csv().split(",")[5]) == 2.5e-4


def steps(*mus):
    """A level-0 trace with one row per mu."""
    tr = IterationTrace()
    for mu in mus:
        tr.record(0, 256, mu, mu - 1.0, 1e-3, 0.01)
    return tr


def test_trace_accessors():
    tr = IterationTrace()
    assert len(tr) == 0
    assert tr.next_j == 1
    tr.record(0, 256, 3.0, 2.0, 1e-2, 0.5)
    tr.record(1, 1024, 2.5, 1.5, 1e-4, 0.25)
    assert tr.next_j == 3
    assert len(tr) == 2
    assert tr[0].j == 1
    assert [r.j for r in tr] == [1, 2]
    assert np.allclose(tr.mus(), [3.0, 2.5])
    assert [r.lam for r in tr] == [2.0, 1.5]
    assert np.allclose(tr.residuals(), [1e-2, 1e-4])
    assert np.array_equal(tr.levels(), [0, 1])


def test_notes_are_kept_out_of_rows():
    tr = IterationTrace()
    tr.note("warm start at level 0")
    tr.note(123)
    assert tr.notes == ["warm start at level 0", "123"]
    assert len(tr) == 0


def test_monotone_violation_within_level():
    tr = steps(5.0, 4.0, 4.2)  # increase inside level 0
    assert tr.monotone_mu_violation() == pytest.approx(0.2 / 4.0)
    assert not tr.is_monotone_per_level()


def test_increase_across_refinement_not_counted():
    tr = steps(4.0)
    tr.record(1, 1024, 9.0, 8.0, 1e-3, 0.01)  # space changed: allowed to jump
    tr.record(1, 1024, 8.0, 7.0, 1e-3, 0.01)
    assert tr.monotone_mu_violation() == 0.0
    assert tr.is_monotone_per_level()


def test_violation_slack():
    tr = steps(1.0, 1.0 + 5e-13)
    assert tr.is_monotone_per_level()          # below the default slack
    assert not tr.is_monotone_per_level(slack=1e-13)


def test_small_mu_uses_absolute_scale():
    # near mu = 0 the violation is measured against scale 1, not |mu|
    tr = steps(1e-8, 3e-8)
    assert tr.monotone_mu_violation() == pytest.approx(2e-8)


def test_record_numbers_rows_across_calls():
    tr = steps(3.0, 2.5)
    tr.record(1, 1024, 2.4, 1.4, 1e-5, 0.125)
    assert [r.j for r in tr] == [1, 2, 3]
    r = tr[2]
    assert (r.mesh_level, r.dofs, r.mu, r.lam, r.residual_dual, r.wall_seconds) == (
        1, 1024, 2.4, 1.4, 1e-5, 0.125
    )
    assert all(math.isnan(r.rel_err) for r in tr)


def test_fill_rel_err_against_reference_mu():
    tr = steps(4.0, 3.6, 3.5)
    tr.fill_rel_err(3.5)
    assert [r.rel_err for r in tr] == [0.5 / 3.5, abs(3.6 - 3.5) / 3.5, 0.0]
    assert [r.mu for r in tr] == [4.0, 3.6, 3.5]
    assert all(np.isfinite(r.rel_err) for r in tr)
