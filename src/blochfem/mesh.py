"""Periodic quadrilateral meshes of the unit cell (0,1)^2.

The unit cell carries a disk inclusion (region 2) inside a background
(region 1). Meshes are uniform axis-aligned square grids with n0 * 2^level
cells per side. Degree-2 (Q2) nodes live on a half-step grid taken modulo
the period, so the DOFs form a (2N) x (2N) periodic lattice and a cell's
right / top nodes are the left / bottom nodes of its neighbour, the last
cell of a row or column wrapping round to the first.

The circular interface is *not* meshed: the disk indicator is evaluated
pointwise (at quadrature points during assembly), so cells stay perfect
squares at every level and refinement is exactly nested. An operator
assembled with one weight on both regions then repeats from cell to cell,
and :class:`CellPeriodicInverse` inverts it by FFT from the stencil of cell
(0, 0): the weights it is built with say that it repeats, and nothing
scans its other rows.
"""

import math

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
    "CellPeriodicInverse",
    "cell_stencil",
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


class CellPeriodicInverse:
    """Exact inverse of an operator that repeats from cell to cell.

    On the DOF lattice of :class:`PeriodicMesh`, the DOF (x, y) has type
    (x mod 2, y mod 2) and lies in cell (x // 2, y // 2), so a cell holds
    one DOF of each of the four types. An operator whose rows of one type
    are the same stencil shifted by whole cells is block-circulant with
    4 x 4 blocks over the N x N cells: a 2-D DFT over the cells turns it
    into one 4 x 4 matrix per frequency, the symbol, and its inverse is a
    DFT, one 4 x 4 product per frequency and the inverse DFT (Buzbee,
    Golub & Nielson, *SIAM J. Numer. Anal.* 7:627-656, 1970). The Q2
    operators assembled with one weight on both regions are such operators
    up to quadrature rounding: K(k), M and their sums.

    Build it with :meth:`of_cell`, which reads cell (0, 0)'s rows alone,
    or with :meth:`of_stencil` from such rows' stencil. Nothing is checked
    against the other rows: whoever builds the operator knows from its
    weights that it repeats. Calling it applies the inverse
    of the operator's cell-(0, 0) stencil.
    """

    def __init__(self, stencil, N, real):
        self.N = N
        self.real = real
        # (4, 4, N, N): the inverse symbol, block entry (s, t) per frequency
        inv = np.linalg.inv(_symbol(stencil, N))
        self.inv = np.ascontiguousarray(inv.transpose(2, 3, 0, 1))

    @classmethod
    def of_cell(cls, A):
        """The inverse of the operator that repeats cell (0, 0)'s rows of
        CSR ``A`` over the cells, or None when ``A`` is not on the DOF
        lattice of a mesh, couples a DOF of cell (0, 0) beyond lattice
        offset 2, or its symbol is singular. Only those rows, at most 100
        entries, are read."""
        return cls.of_stencil(cell_stencil(A), A.shape[0])

    @classmethod
    def of_stencil(cls, stencil, n):
        """The inverse of the operator that repeats ``stencil``, a
        :func:`cell_stencil`, over the cells of the ``n``-DOF lattice, or
        None when ``stencil`` is None or its symbol is singular."""
        if stencil is None:
            return None
        try:
            return cls(stencil.reshape(4, 5, 5), math.isqrt(n) // 2,
                       real=stencil.dtype.kind != "c")
        except np.linalg.LinAlgError:
            return None

    def __call__(self, r):
        """The stencil's inverse applied to ``r``, a vector on the DOF
        lattice; real for a real operator and a real ``r``."""
        r = np.asarray(r)
        N = self.N
        # (4, N, N): DOF type 2 * (y mod 2) + (x mod 2), then cell (J, I)
        cells = r.reshape(N, 2, N, 2).transpose(1, 3, 0, 2).reshape(4, N, N)
        rhat = np.fft.fft2(cells)
        # the sum over t of inv[s, t] * rhat[t], term by term in t: the bits
        # of summing the (4, 4, N, N) product over t, without that product
        zhat = self.inv[:, 0] * rhat[0]
        for t in range(1, 4):
            zhat += self.inv[:, t] * rhat[t]
        z = np.fft.ifft2(zhat).reshape(2, 2, N, N).transpose(2, 0, 3, 1)
        z = z.reshape(r.shape)
        return z.real.copy() if self.real and not np.iscomplexobj(r) else z


def cell_stencil(A):
    """The stencil of cell (0, 0)'s rows of CSR ``A``, or None when ``A`` is
    not on the DOF lattice of a mesh or couples there beyond lattice offset
    2.

    The stencil is 100 long, 0 where the rows store nothing: slot
    25 * (type of the row's DOF) + 5 * (dy + 2) + (dx + 2) holds the entry
    at lattice offset (dx, dy), modulo the lattice side, from the row's DOF
    to the column's. No other row of ``A`` is read.
    """
    n = A.shape[0]
    d = math.isqrt(n)
    # a mesh's DOF lattice has a power-of-two side, 2N >= 16, on which
    # lattice offsets of -2..2 stay distinct
    if A.shape != (n, n) or d * d != n or d < 16 or d & (d - 1):
        return None
    # cell (0, 0): the DOFs (0, 0), (1, 0), (0, 1) and (1, 1), types 0..3
    rows = np.array([0, 1, d, d + 1])
    pos = np.concatenate([np.arange(A.indptr[i], A.indptr[i + 1]) for i in rows])
    kind = np.repeat(np.arange(4), A.indptr[rows + 1] - A.indptr[rows])
    cols = A.indices[pos]
    dx = (cols % d - kind % 2 + 2) % d
    dy = (cols // d - kind // 2 + 2) % d
    if max(dx.max(initial=0), dy.max(initial=0)) > 4:
        return None
    stencil = np.zeros(100, dtype=A.dtype)
    stencil[25 * kind + 5 * dy + dx] = A.data[pos]
    return stencil


def _symbol(stencil, N):
    """(N, N, 4, 4) symbol of the cell-periodic operator whose row of DOF
    type s reads ``stencil[s, dy + 2, dx + 2]`` at lattice offset (dx, dy).

    The entry at offset (dx, dy) from a DOF of type (sx, sy) couples to the
    DOF of type ((sx + dx) mod 2, (sy + dy) mod 2) in the cell
    ((sx + dx) // 2, (sy + dy) // 2) away, which puts the phase
    exp(2 pi i (p ox + q oy) / N) on frequency (p, q). Near frequency 0 the
    stiffness entries cancel down to the mass, so the symbol is summed as
    its value at 0, taken exactly, plus terms in exp(i theta) - 1. The
    dual norms of random vectors at L3 read up to 1.6e-12 off their exact
    values with plain phases, and up to 4e-13 with these (an LU: 1.8e-13).
    """
    # C[s, t, oy + 1, ox + 1]: the block coefficients per cell offset
    C = np.zeros((4, 4, 3, 3), dtype=complex)
    for s in range(4):
        sx, sy = s % 2, s // 2
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                tx, ty = sx + dx, sy + dy
                C[s, (ty % 2) * 2 + tx % 2, ty // 2 + 1, tx // 2 + 1] = \
                    stencil[s, dy + 2, dx + 2]
    at_zero = np.array([[complex(math.fsum(c.real.ravel()), math.fsum(c.imag.ravel()))
                         for c in row] for row in C])
    theta = 2 * np.pi * np.outer(np.arange(N), np.arange(-1, 2)) / N
    e = -2.0 * np.sin(theta / 2) ** 2 + 1j * np.sin(theta)    # exp(i theta) - 1
    # exp(i (a + b)) - 1 = e_a e_b + e_a + e_b; indices q, s, t, p
    both = np.tensordot(np.tensordot(e, C, axes=(1, 2)), e, axes=(3, 1))
    along_y = np.tensordot(e, C.sum(axis=3), axes=(1, 2))
    along_x = np.tensordot(e, C.sum(axis=2), axes=(1, 2))
    return (both.transpose(0, 3, 1, 2) + along_y[:, None] + along_x[None, :]
            + at_zero)


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
