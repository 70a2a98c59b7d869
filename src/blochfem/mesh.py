"""Periodic quadrilateral meshes of the unit cell (0,1)^2.

The unit cell carries a disk inclusion (region 2) inside a background
(region 1). Meshes are uniform axis-aligned square grids with n0 * 2^level
cells per side. Degree-2 (Q2) nodes live on a half-step grid taken modulo
the period, so the DOFs form a (2N) x (2N) periodic lattice and a cell's
right / top nodes are the left / bottom nodes of its neighbour, the last
cell of a row or column wrapping round to the first.

The circular interface is *not* meshed: the disk indicator is evaluated
pointwise (at quadrature points during assembly), so cells stay perfect
squares at every level and refinement is exactly nested.
"""

import numpy as np
from scipy import sparse

from .q2 import PROLONG_STENCILS, q2_values

__all__ = [
    "BASE_RESOLUTION",
    "MAX_LEVEL",
    "MaterialMap",
    "DISK",
    "PeriodicMesh",
    "build_mesh",
    "prolongate",
    "evaluate",
]

#: cells per side on the coarsest mesh
BASE_RESOLUTION = 8

#: refinement guard (memory)
MAX_LEVEL = 10

#: lattice offsets of a cell's corners, counterclockwise from the lower left
_CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


class MaterialMap:
    """A disk inclusion in the unit cell.

    chi2(x) is 1.0 iff |x - center| <= radius (boundary ties go to region
    2), else 0.0. The squared-distance comparison carries a 1e-12 absolute
    guard so that points constructed to sit exactly on the interface (e.g.
    (0.5, 0.8) for the default disk) count as region 2 despite roundoff.
    """

    def __init__(self, center=(0.5, 0.5), radius=0.3):
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def chi2(self, points):
        """Indicator of region 2 at points (..., 2), as floats 0.0 / 1.0."""
        points = np.asarray(points, dtype=float)
        dx = points[..., 0] - self.center[0]
        dy = points[..., 1] - self.center[1]
        return (dx * dx + dy * dy <= self.radius * self.radius + 1e-12).astype(float)


#: the default geometry used throughout: disk of radius 0.3 at the center
DISK = MaterialMap()


def _lattice(n):
    """(n*n, 2) integer points (i, j) of an n x n lattice, id j*n + i."""
    j, i = np.divmod(np.arange(n * n), n)
    return np.column_stack([i, j])


class PeriodicMesh:
    """Uniform N x N periodic quad mesh of the unit cell with Q2 DOFs.

    Attributes
    ----------
    level : int
        refinement level; N = BASE_RESOLUTION * 2**level cells per side.
    ncell_side : int
        N.
    h : float
        cell side length 1/N.
    dof_count : int
        number of DOFs, (2N)^2.
    cell_dofs : (N*N, 9) int array
        the 9 DOF ids of each cell's Q2 nodes, local index 3*b + a for the
        node at (2I+a, 2J+b) mod 2N on the DOF lattice; cell id = J*N + I
        for cell (I, J), DOF id = y*2N + x for lattice point (x, y).
    dof_coords : (dof_count, 2) float array
        coordinates of every DOF, (x, y) / 2N.
    """

    def __init__(self, level):
        if level < 0 or level > MAX_LEVEL:
            raise ValueError(
                "refinement level must be in [0, %d], got %r" % (MAX_LEVEL, level)
            )
        self.level = int(level)
        N = BASE_RESOLUTION * 2 ** self.level
        self.ncell_side = N
        self.h = 1.0 / N
        d = 2 * N            # DOF lattice points per side
        self.dof_count = d * d
        node = (2 * _lattice(N)[:, None, :] + _lattice(3)[None, :, :]) % d
        self.cell_dofs = node[..., 1] * d + node[..., 0]
        self.dof_coords = _lattice(d) / d

    def cell_origin(self):
        """(ncell, 2) lower-left corner coordinates of every cell."""
        return _lattice(self.ncell_side) / self.ncell_side

    def cell_corners(self):
        """(ncell, 4, 2) corner coordinates of every cell, counterclockwise
        from the lower left."""
        N = self.ncell_side
        return (_lattice(N)[:, None, :] + _CORNERS) / N


def build_mesh(level):
    """Build the uniform periodic mesh at the given refinement level."""
    return PeriodicMesh(level)


def _prolong_1d(coarse_n):
    """Sparse 1D interpolation from a periodic coarse DOF line (2N points)
    onto the next level's line (4N points)."""
    d_c = coarse_n          # 2N coarse DOF grid points
    d_f = 2 * coarse_n      # 4N fine points
    rows, cols, vals = [], [], []
    for ixf in range(d_f):
        I = ixf // 4                      # owning coarse cell
        t = ixf % 4                       # fine offset within it
        stencil = PROLONG_STENCILS[t]
        for j in range(3):
            c = (2 * I + j) % d_c
            if stencil[j] != 0.0:
                rows.append(ixf)
                cols.append(c)
                vals.append(stencil[j])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(d_f, d_c))


_PROLONG_CACHE = {}


def prolongation_matrix(coarse):
    """Sparse DOF prolongation matrix from level L to level L+1 (cached)."""
    key = coarse.ncell_side
    if key not in _PROLONG_CACHE:
        p1 = _prolong_1d(2 * coarse.ncell_side)
        _PROLONG_CACHE[key] = sparse.kron(p1, p1).tocsr()
    return _PROLONG_CACHE[key]


def prolongate(coeffs, coarse, fine):
    """Transfer a coarse DOF vector to the fine mesh by exact interpolation.

    The FE spaces are nested, so the prolongated coefficients represent the
    *same* function on the fine mesh.
    """
    if fine.level != coarse.level + 1:
        raise ValueError("fine mesh must be the refinement of the coarse mesh")
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (coarse.dof_count,):
        raise ValueError(
            "coefficient vector has length %d, expected %d"
            % (coeffs.size, coarse.dof_count)
        )
    return prolongation_matrix(coarse) @ coeffs


def evaluate(mesh, coeffs, points):
    """Evaluate the FE function given by DOF coefficients at arbitrary points.

    Points are wrapped periodically into [0,1)^2. Returns an array of the
    same dtype promotion as coeffs.
    """
    coeffs = np.asarray(coeffs)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    N = mesh.ncell_side
    xy = np.mod(pts, 1.0)
    I = np.minimum((xy[:, 0] * N).astype(np.int64), N - 1)
    J = np.minimum((xy[:, 1] * N).astype(np.int64), N - 1)
    tx = xy[:, 0] * N - I
    ty = xy[:, 1] * N - J
    Lx = q2_values(tx)      # (npts, 3)
    Ly = q2_values(ty)
    dofs = mesh.cell_dofs[J * N + I]    # (npts, 9), local index 3*b + a
    vals = np.zeros(pts.shape[0], dtype=coeffs.dtype)
    for b in range(3):
        for a in range(3):
            vals = vals + coeffs[dofs[:, 3 * b + a]] * Lx[:, a] * Ly[:, b]
    return vals if np.asarray(points).ndim > 1 else vals[0]
