"""Periodic quadrilateral meshes of the unit cell (0,1)^2.

The unit cell carries a disk inclusion (region 2) inside a background
(region 1). Meshes are uniform axis-aligned square grids with n0 * 2^level
cells per side. Degree-2 (Q2) nodes live on a half-step grid; periodic
identification glues the right/top boundary nodes to their left/bottom
partners, so the independent DOFs form a (2N) x (2N) periodic lattice.

The circular interface is *not* meshed: material queries happen pointwise
(at quadrature points during assembly), so cells stay perfect squares at
every level and refinement is exactly nested.
"""

import numpy as np
from scipy import sparse

from .q2 import PROLONG_STENCILS, q2_values

__all__ = [
    "OMEGA1",
    "OMEGA2",
    "BASE_RESOLUTION",
    "MAX_LEVEL",
    "MaterialMap",
    "DISK",
    "PeriodicMesh",
    "build_mesh",
    "prolongate",
    "evaluate",
]

#: material tags
OMEGA1 = 1
OMEGA2 = 2

#: cells per side on the coarsest mesh
BASE_RESOLUTION = 8

#: refinement guard (memory)
MAX_LEVEL = 10


class MaterialMap:
    """Pointwise material classifier: a disk inclusion in the unit cell.

    classify(x) returns OMEGA2 iff |x - center| <= radius (boundary ties go
    to region 2), else OMEGA1. The squared-distance comparison carries a
    1e-12 absolute guard so that points constructed to sit exactly on the
    interface (e.g. (0.5, 0.8) for the default disk) classify as region 2
    despite roundoff.
    """

    def __init__(self, center=(0.5, 0.5), radius=0.3):
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def classify(self, points):
        """Vectorized classification; points is (..., 2). Returns int tags."""
        points = np.asarray(points, dtype=float)
        dx = points[..., 0] - self.center[0]
        dy = points[..., 1] - self.center[1]
        inside = dx * dx + dy * dy <= self.radius * self.radius + 1e-12
        return np.where(inside, OMEGA2, OMEGA1)

    def chi2(self, points):
        """Indicator of region 2 at points, as floats 0.0 / 1.0."""
        return (self.classify(points) == OMEGA2).astype(float)


#: the default geometry used throughout: disk of radius 0.3 at the center
DISK = MaterialMap()


class PeriodicMesh:
    """Uniform N x N periodic quad mesh of the unit cell with Q2 node layout.

    Attributes
    ----------
    level : int
        refinement level; N = BASE_RESOLUTION * 2**level cells per side.
    h : float
        cell side length 1/N.
    nodes : (n_geo, 2) float array
        geometric Q2 node coordinates on the closed square, a
        (2N+1) x (2N+1) grid with spacing h/2; node id = iy*(2N+1) + ix.
    cells : (N*N, 4) int array
        corner geometric node ids per cell, counterclockwise from the
        lower-left; cell id = J*N + I for cell (I, J).
    periodic_map : dict
        geometric node id on the right/top boundary -> partner id on the
        left/bottom boundary (unit-square corners all collapse to node 0).
    dof_of_node : (n_geo,) int array
        geometric node id -> independent DOF id after identification.
    dof_count : int
        number of independent DOFs, (2N)^2.
    cell_dofs : (N*N, 9) int array
        the 9 DOF ids of each cell's Q2 nodes, local index 3*b + a for the
        node at (2I+a, 2J+b) on the DOF grid.
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
        d = 2 * N            # DOF grid points per side
        g = 2 * N + 1        # geometric grid points per side

        ix, iy = np.meshgrid(np.arange(g), np.arange(g), indexing="xy")
        self.nodes = np.column_stack([ix.ravel() / d, iy.ravel() / d])

        # DOF id of each geometric node: wrap the closed grid onto the torus
        self.dof_of_node = ((iy % d) * d + (ix % d)).ravel()
        self.dof_count = d * d

        # periodic partners for right/top boundary nodes
        self.periodic_map = {}
        for j in range(g):
            self.periodic_map[j * g + (g - 1)] = j * g            # right -> left
        for i in range(g):
            self.periodic_map[(g - 1) * g + i] = i                # top -> bottom
        self.periodic_map[(g - 1) * g + (g - 1)] = 0              # far corner

        # cells and their corner / Q2 node ids
        I, J = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
        I = I.ravel()
        J = J.ravel()
        ll = 2 * J * g + 2 * I
        self.cells = np.column_stack([ll, ll + 2, ll + 2 * g + 2, ll + 2 * g])

        local = np.empty((N * N, 9), dtype=np.int64)
        for b in range(3):
            for a in range(3):
                gx = (2 * I + a) % d
                gy = (2 * J + b) % d
                local[:, 3 * b + a] = gy * d + gx
        self.cell_dofs = local

        # coordinates of every independent DOF (row-major on the open grid)
        dx, dy = np.meshgrid(np.arange(d), np.arange(d), indexing="xy")
        self.dof_coords = np.column_stack([dx.ravel() / d, dy.ravel() / d])

    def cell_origin(self):
        """(ncell, 2) lower-left corner coordinates of every cell."""
        return self.nodes[self.cells[:, 0]]


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
    d = 2 * N
    xy = np.mod(pts, 1.0)
    I = np.minimum((xy[:, 0] * N).astype(np.int64), N - 1)
    J = np.minimum((xy[:, 1] * N).astype(np.int64), N - 1)
    tx = xy[:, 0] * N - I
    ty = xy[:, 1] * N - J
    Lx = q2_values(tx)      # (npts, 3)
    Ly = q2_values(ty)
    vals = np.zeros(pts.shape[0], dtype=coeffs.dtype)
    for b in range(3):
        gy = (2 * J + b) % d
        for a in range(3):
            gx = (2 * I + a) % d
            vals = vals + coeffs[gy * d + gx] * Lx[:, a] * Ly[:, b]
    return vals if np.asarray(points).ndim > 1 else vals[0]
