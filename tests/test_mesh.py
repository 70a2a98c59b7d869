"""Periodic Q2 mesh: DOF identification, nested prolongation, point
evaluation, and an entry-by-entry oracle of cell periodicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochfem import mesh as msh
from blochfem.assembly import assemble_tm
from blochfem.linalg import with_data

MESH0 = msh.build_mesh(0)
RNG = np.random.default_rng(20240517)
COEFFS0 = RNG.standard_normal(MESH0.dof_count)


def test_counts_level0():
    m = MESH0
    assert m.ncell_side == msh.BASE_RESOLUTION == 8
    assert m.h == pytest.approx(1.0 / 8)
    assert m.dof_count == 256
    assert m.dof_coords.shape == (256, 2)
    assert m.cell_dofs.shape == (64, 9)
    assert m.cell_corners().shape == (64, 4, 2)


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
    N = m.ncell_side
    # [J, I, b, a]: node (a, b) of cell (I, J)
    c = m.cell_dofs.reshape(N, N, 3, 3)
    # a cell's right node column is its right neighbour's left one, the last
    # cell of each row wrapping to the first; likewise top row to bottom row
    assert np.array_equal(c[:, :, :, 2], np.roll(c, -1, axis=1)[:, :, :, 0])
    assert np.array_equal(c[:, :, 2, :], np.roll(c, -1, axis=0)[:, :, 0, :])
    assert np.array_equal(np.unique(m.cell_dofs), np.arange(m.dof_count))


def test_dof_coords_match_cell_origins():
    m = MESH0
    assert np.array_equal(m.dof_coords[m.cell_dofs[:, 0]], m.cell_origin())


def test_cell_corners_are_lattice_points():
    m = msh.build_mesh(1)
    N = m.ncell_side
    I, J = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    I, J = I.ravel(), J.ravel()
    expected = np.stack([np.column_stack([(I + a) / N, (J + b) / N])
                         for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1)
    assert np.array_equal(m.cell_corners(), expected)
    assert np.array_equal(m.cell_corners()[:, 0], m.cell_origin())


def test_cell_center_dof_coordinates():
    # local index 4 is the cell-interior node, at origin + (h/2, h/2)
    m = MESH0
    centers = m.dof_coords[m.cell_dofs[:, 4]]
    assert np.allclose(centers, m.cell_origin() + m.h / 2.0, atol=1e-15)


# --- disk indicator ----------------------------------------------------------


def test_chi2_center_and_corner():
    assert msh.DISK.chi2(np.array([0.5, 0.5])) == 1.0
    assert msh.DISK.chi2(np.array([0.0, 0.0])) == 0.0


def test_chi2_interface_tie_goes_to_inclusion():
    # (0.5, 0.8) sits exactly on the circle; the absolute guard keeps it inside
    assert msh.DISK.chi2(np.array([0.5, 0.8])) == 1.0
    assert msh.DISK.chi2(np.array([0.8, 0.5])) == 1.0
    assert msh.DISK.chi2(np.array([0.5, 0.8 + 1e-5])) == 0.0


def test_chi2_vectorized():
    pts = RNG.random((7, 5, 2))
    chi = msh.DISK.chi2(pts)
    assert chi.shape == (7, 5)
    assert set(np.unique(chi)) <= {0.0, 1.0}
    r2 = ((pts - 0.5) ** 2).sum(axis=-1)
    assert np.array_equal(chi == 1.0, r2 <= 0.3 * 0.3 + 1e-12)


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


# ---------------------------------------------------------------------------
# the oracle of cell periodicity: the program inverts K + M by FFT because
# its weights make it repeat from cell to cell; these tests check every entry

#: each entry within this fraction of cell (0, 0)'s largest entry of its
#: counterpart there
PERIODIC_RTOL = 1e-12


def _largest_parts(a):
    """The larger of the absolute real and imaginary part of each entry."""
    return np.maximum(np.abs(a.real), np.abs(a.imag))


def cell_periodic(A, rtol=PERIODIC_RTOL):
    """Whether CSR ``A``, on the DOF lattice of a mesh, repeats cell
    (0, 0)'s rows over the cells: every row stores the slots its
    counterpart in cell (0, 0) stores (a slot: the type of the row's DOF
    and the lattice offset to the column's), and each real and imaginary
    part of every entry is within ``rtol`` times the largest such part in
    cell (0, 0)'s rows of its counterpart there."""
    n = A.shape[0]
    d = math.isqrt(n)
    assert A.shape == (n, n) and d * d == n
    counts = np.diff(A.indptr)
    rows = np.repeat(np.arange(n), counts)
    x, y = rows % d, rows // d
    dx = (A.indices % d - x + 2) % d
    dy = (A.indices // d - y + 2) % d
    if max(dx.max(), dy.max()) > 4:
        return False
    kind = 2 * (y % 2) + x % 2
    slot = 25 * kind + 5 * dy + dx
    first = (x < 2) & (y < 2)
    stencil = np.zeros(100, dtype=A.dtype)
    stencil[slot[first]] = A.data[first]
    stored = np.zeros(100, dtype=bool)
    stored[slot[first]] = True
    # a row of each type in cell (0, 0), in type order
    first_counts = counts[[0, 1, d, d + 1]]
    every_row = 2 * (np.arange(n) // d % 2) + np.arange(n) % 2
    tol = rtol * _largest_parts(A.data[first]).max()
    return bool(np.array_equal(counts, first_counts[every_row])
                and stored[slot].all()
                and _largest_parts(A.data - stencil[slot]).max() <= tol)


@pytest.mark.parametrize("on_diagonal", [True, False])
def test_oracle_rejects_a_perturbed_copy(on_diagonal):
    # one entry of K + M moved by 1e-9 of its largest entry, far inside the
    # disk: on the diagonal, or the last entry of its row
    forms = assemble_tm(msh.build_mesh(2), (math.pi / 2, math.pi))
    K = forms.K.mat
    A = with_data(K, K.data + (forms.M1.mat.data + forms.M2.mat.data))
    assert cell_periodic(A)
    row = A.shape[0] // 2 + 3
    start, stop = A.indptr[row], A.indptr[row + 1]
    idx = start + np.flatnonzero(A.indices[start:stop] == row)[0]
    if not on_diagonal:
        idx = stop - 1
    data = A.data.copy()
    data[idx] += 1e-9 * np.abs(A.data).max()
    assert not cell_periodic(with_data(A, data))
