"""Periodic Q2 mesh: DOF identification, nested prolongation, point evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochfem import mesh as msh

MESH0 = msh.build_mesh(0)
RNG = np.random.default_rng(20240517)
COEFFS0 = RNG.standard_normal(MESH0.dof_count)


def test_counts_level0():
    m = MESH0
    assert m.ncell_side == msh.BASE_RESOLUTION == 8
    assert m.h == pytest.approx(1.0 / 8)
    assert m.nodes.shape == (17 * 17, 2)
    assert m.dof_count == 256
    assert m.cells.shape == (64, 4)
    assert m.cell_dofs.shape == (64, 9)


def test_dof_count_grows_fourfold():
    assert [msh.build_mesh(L).dof_count for L in range(3)] == [256, 1024, 4096]


def test_level_validation():
    with pytest.raises(ValueError):
        msh.PeriodicMesh(-1)
    with pytest.raises(ValueError):
        msh.PeriodicMesh(msh.MAX_LEVEL + 1)


def test_refine_increments_level():
    m = msh.build_mesh(1)
    f = msh.build_mesh(m.level + 1)
    assert f.level == 2
    assert f.ncell_side == 2 * m.ncell_side


def test_periodic_identification():
    m = MESH0
    assert m.periodic_map, "boundary map should not be empty"
    for src, dst in m.periodic_map.items():
        assert m.dof_of_node[src] == m.dof_of_node[dst]
        # partners sit a whole period apart in each direction
        gap = np.abs(m.nodes[src] - m.nodes[dst])
        assert np.all((gap == 0.0) | (gap == 1.0))
    g = 2 * m.ncell_side + 1
    assert m.dof_of_node[g * g - 1] == 0  # far corner collapses onto the origin


def test_dof_coords_match_wrapped_nodes():
    m = MESH0
    assert np.array_equal(m.dof_coords[m.dof_of_node], np.mod(m.nodes, 1.0))


def test_cell_center_dof_coordinates():
    # local index 4 is the cell-interior node, at origin + (h/2, h/2)
    m = MESH0
    centers = m.dof_coords[m.cell_dofs[:, 4]]
    assert np.allclose(centers, m.cell_origin() + m.h / 2.0, atol=1e-15)


# --- material classification -------------------------------------------------


def test_classify_center_and_corner():
    assert msh.DISK.classify(np.array([0.5, 0.5])) == msh.OMEGA2
    assert msh.DISK.classify(np.array([0.0, 0.0])) == msh.OMEGA1


def test_classify_interface_tie_goes_to_inclusion():
    # (0.5, 0.8) sits exactly on the circle; the absolute guard keeps it inside
    assert msh.DISK.classify(np.array([0.5, 0.8])) == msh.OMEGA2
    assert msh.DISK.classify(np.array([0.8, 0.5])) == msh.OMEGA2
    assert msh.DISK.classify(np.array([0.5, 0.8 + 1e-5])) == msh.OMEGA1


def test_classify_vectorized_and_chi2():
    pts = RNG.random((7, 5, 2))
    tags = msh.DISK.classify(pts)
    assert tags.shape == (7, 5)
    chi = msh.DISK.chi2(pts)
    assert set(np.unique(chi)) <= {0.0, 1.0}
    assert np.array_equal(chi == 1.0, tags == msh.OMEGA2)


# --- point evaluation --------------------------------------------------------


def test_evaluate_is_nodal_interpolation():
    # evaluating at the DOF coordinates must return the coefficients themselves
    vals = msh.evaluate(MESH0, COEFFS0, MESH0.dof_coords)
    assert np.allclose(vals, COEFFS0, rtol=0, atol=1e-13)


def test_evaluate_complex_coefficients():
    u = RNG.standard_normal(MESH0.dof_count) + 1j * RNG.standard_normal(
        MESH0.dof_count
    )
    pts = RNG.random((20, 2))
    vals = msh.evaluate(MESH0, u, pts)
    assert vals.dtype == np.complex128
    re = msh.evaluate(MESH0, u.real, pts)
    im = msh.evaluate(MESH0, u.imag, pts)
    assert np.allclose(vals, re + 1j * im, atol=1e-14)


def test_evaluate_single_point_returns_scalar():
    v = msh.evaluate(MESH0, np.ones(MESH0.dof_count), np.array([0.37, 0.81]))
    assert np.ndim(v) == 0
    assert v == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(0.0, 1.0, exclude_max=True),
    y=st.floats(0.0, 1.0, exclude_max=True),
    sx=st.integers(-3, 3),
    sy=st.integers(-3, 3),
)
def test_evaluate_periodic_wrapping(x, y, sx, sy):
    v0 = msh.evaluate(MESH0, COEFFS0, np.array([x, y]))
    v1 = msh.evaluate(MESH0, COEFFS0, np.array([x + sx, y + sy]))
    assert v1 == pytest.approx(v0, rel=1e-11, abs=1e-11)


# --- prolongation ------------------------------------------------------------


def test_prolongation_reproduces_the_function():
    coarse = MESH0
    fine = msh.build_mesh(coarse.level + 1)
    uf = msh.prolongate(COEFFS0, coarse, fine)
    assert uf.shape == (fine.dof_count,)
    pts = RNG.random((40, 2))
    assert np.allclose(
        msh.evaluate(fine, uf, pts),
        msh.evaluate(coarse, COEFFS0, pts),
        rtol=0,
        atol=1e-12,
    )


def test_prolongation_preserves_constants():
    coarse = MESH0
    fine = msh.build_mesh(coarse.level + 1)
    uf = msh.prolongate(np.ones(coarse.dof_count), coarse, fine)
    # stencil weights are dyadic rationals summing to one, so this is exact
    assert np.array_equal(uf, np.ones(fine.dof_count))


def test_prolongation_matrix_shape_and_cache():
    coarse = MESH0
    P = msh.prolongation_matrix(coarse)
    assert P.shape == (msh.build_mesh(1).dof_count, coarse.dof_count)
    assert msh.prolongation_matrix(coarse) is P


def test_prolongate_validation():
    coarse = MESH0
    with pytest.raises(ValueError, match="refinement"):
        msh.prolongate(np.ones(coarse.dof_count), coarse, msh.build_mesh(2))
    with pytest.raises(ValueError, match="length"):
        msh.prolongate(np.ones(5), coarse, msh.build_mesh(1))
