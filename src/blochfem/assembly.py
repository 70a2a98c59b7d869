"""Assembly of Bloch-shifted stiffness and weighted mass matrices (Q2).

For a wave vector k, the TM sesquilinear form expands as

    a(u, v) = int grad(u).grad(conj(v)) + |k|^2 u conj(v)
              + i k . (u grad(conj(v)) - conj(v) grad(u))

which discretizes (row = test function) to

    K(k) = K0 + |k|^2 M + i kx (Cx^T - Cx) + i ky (Cy^T - Cy),

with convection matrices Cx[a, b] = int phi_a d/dx phi_b. The i-times-
antisymmetric cross term makes K(k) Hermitian *by construction* in floating
point. The permittivity enters only through the weighted mass.

Every matrix is built from region-restricted pieces (chi_1- and chi_2-
weighted), assembled once per mesh level and kept for every level a process
touches, with the disk indicator evaluated at quadrature points: 3x3 Gauss
per cell, upgraded to 4x4 on interface-cut cells (cells whose corners
disagree on chi_2). Only the cells whose Gauss points straddle the
interface run the weighted quadrature; a cell wholly on one side takes its
rule's reference element there. Each of the two cell sets is scattered in
the entry order of scipy's COO -> CSR conversion, captured once per mesh,
so its sums are bitwise the ones that conversion builds.

Every mesh has one read-only CSR pattern, the full Q2 coupling pattern
(the union of the two cell sets' patterns, which is K0's). Each
k-independent piece, the region masses M1 and M2 and the sums K0,
Dx = Cx^T - Cx and Dy = Cy^T - Cy, is a float64 data vector on it, with
0.0 where the piece has no entry. The position of each cell-set slot in
the mesh pattern comes from one scipy sum of the two sets' patterns, each
carrying its own slot numbers, worked out once per mesh; a set then
scatters straight into those positions, still in its own captured order
(scipy's per-row sort is not stable, so two sets' orders differ). The
mirror map of the symmetric pattern comes from one transpose of an arange
on it. So every per-k form, K(k), M, the weighted mass and the shifted
and nonlinear operators built from them, is one numpy expression on data
vectors, and all of them share the pattern's arrays. Adding 0.0 where a
summand has no entry is exact, so those sums are bitwise scipy's sparse
sums. scipy's would also drop an entry that cancels to exactly 0.0, which
stays here as a stored zero; the tests find none in K, M, M_w or A_beta
at four wave vectors on L0-L3.

Quadrature rounding is the one place where symmetry can break, so the
stiffness and mass element matrices are checked once per build. The scatter
adds (i, j) and (j, i) from the same cells in the same order, so nothing
built from those elements is checked again.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import HermitianViolationError
from .linalg import HermitianSparse, compact
from .mesh import DISK
from .q2 import tensor_rule

__all__ = [
    "AssembledForms",
    "assemble_tm",
    "weighted_mass",
    "region_masses",
    "max_asymmetry",
]

#: quadrature orders: plain cells / interface-cut cells
QUAD_PLAIN = 3
QUAD_CUT = 4

#: relative entrywise tolerance for the symmetry check of the elements
HERMITIAN_RTOL = 1e-13


@dataclass
class AssembledForms:
    """Assembled matrices of one Bloch problem on one mesh: K (Hermitian
    stiffness at the given k), M (plain mass) and M1 / M2 (masses restricted
    to regions 1 / 2; M = M1 + M2 exactly), all on the mesh's one pattern,
    where M1 and M2 store zeros outside their regions."""

    K: HermitianSparse
    M: HermitianSparse
    M1: HermitianSparse
    M2: HermitianSparse


def max_asymmetry(A):
    """max |A - A^H| over the entries of a sparse matrix."""
    diff = A - A.getH()
    return np.abs(diff.data).max() if diff.nnz else 0.0


def _element_matrices(wq, h, B, Gx, Gy):
    """Stiffness, mass, x- and y-convection element matrices, (c, 9, 9)
    each, of c cells whose quadrature weights are the rows of ``wq``."""
    # physical scalings: mass h^2, stiffness h^2 * h^-2, convection h^2 * h^-1
    return (np.einsum("cq,qa,qb->cab", wq, Gx, Gx)
            + np.einsum("cq,qa,qb->cab", wq, Gy, Gy),
            h * h * np.einsum("cq,qa,qb->cab", wq, B, B),
            h * np.einsum("cq,qa,qb->cab", wq, B, Gx),
            h * np.einsum("cq,qa,qb->cab", wq, B, Gy))


class _CellSet:
    """One quadrature rule's cells: their element matrices, checked for
    symmetry, and the order in which those scatter into CSR.

    A cell whose chi_2 is 0 (or 1) at every Gauss point takes the reference
    element, the same quadrature with the plain weights, in region 1 (or
    2) and nothing in the other region; only the mixed cells, which meet
    the interface, run the batched quadrature.

    ``coo_matrix(...).tocsr()`` orders the entries by a counting sort on the
    row and ``csr_sort_indices`` on the column, then adds duplicates left to
    right. That order depends only on the indices, so it is captured once,
    by converting the entry numbers 0..nnz-1 with the summing switched off.
    A piece is then one gather into that order and one ``np.bincount``,
    which also adds left to right: bitwise the matrix scipy would build,
    up to the sign of exact zeros, which the compact pieces drop.
    """

    def __init__(self, mesh, cells, rule_pts):
        pts, w, B, Gx, Gy = tensor_rule(rule_pts)
        phys = mesh.cell_origin()[cells][:, None, :] + pts[None, :, :] * mesh.h
        chi2 = DISK.chi2(phys)                           # (nc, nq)
        inside = chi2.all(axis=1)
        # within[r]: the cells whose every Gauss point lies in region r
        self.within = (~(inside | chi2.any(axis=1)), inside)
        self.mixed = ~(self.within[0] | self.within[1])
        self.reference = _element_matrices(w[None, :], mesh.h, B, Gx, Gy)
        mixed = chi2[self.mixed]
        self.batch = tuple(
            _element_matrices(chi * w[None, :], mesh.h, B, Gx, Gy)
            for chi in (1.0 - mixed, mixed))
        for el in (els[kind] for els in (self.reference,) + self.batch
                   for kind in (0, 1)):
            worst = np.abs(el - el.transpose(0, 2, 1)).max(initial=0.0)
            scale = np.abs(el).max(initial=0.0)
            if worst > HERMITIAN_RTOL * scale:
                raise HermitianViolationError(
                    "element matrices violate symmetry: "
                    "max|A - A^T| = %.3e vs max|A| = %.3e" % (worst, scale))

        dofs = mesh.cell_dofs[cells]                     # (nc, 9)
        rows = np.repeat(dofs[:, :, None], 9, axis=2).ravel()
        cols = np.repeat(dofs[:, None, :], 9, axis=1).ravel()
        n = mesh.dof_count
        order = sparse.coo_matrix((np.arange(rows.size), (rows, cols)),
                                  shape=(n, n))
        order.has_canonical_format = True                # order, do not sum
        order = order.tocsr()
        order.sort_indices()
        self.perm = order.data
        # an entry opens a new (row, column) slot where its column changes;
        # row starts need no mark of their own, because the pattern is
        # symmetric and holds the diagonal, so no row ends on the column
        # that the next nonempty row starts with
        ip, cols = order.indptr, order.indices
        first = np.ones(cols.size, dtype=bool)
        first[1:] = cols[1:] != cols[:-1]
        starts = np.flatnonzero(first)
        self.slot = np.cumsum(first)
        self.slot -= 1
        self.indices = cols[starts]
        self.indptr = np.searchsorted(starts, ip).astype(ip.dtype)
        self.size = self.indices.size

    def piece(self, kind, region):
        """The CSR sum of element matrices ``kind`` (0 K, 1 M, 2 Cx, 3 Cy)
        over these cells, weighted by region ``region`` (0 or 1), as a data
        vector on the pattern the slots point into."""
        el = np.zeros(self.mixed.shape + (9, 9))
        el[self.within[region]] = self.reference[kind]
        el[self.mixed] = self.batch[region][kind]
        return np.bincount(self.slot, weights=el.ravel()[self.perm],
                           minlength=self.size)


def _mesh_pattern(sets, n):
    """The mesh's CSR pattern, the union of its cell sets' patterns; points
    each set's slots at their positions in it.

    One scipy sum of the two sets' patterns, with data 1 on the first and
    2 on the second, does the merge. Both patterns and their union are
    sorted by row and column, so a set's slots are, in order, the entries
    of the union that carry its bit. A set's scatter then adds in its own
    order, straight into the mesh's positions: bitwise its own sum.
    """
    flags = [sparse.csr_matrix((np.full(s.size, 1 << i, dtype=np.int8),
                                s.indices, s.indptr), shape=(n, n))
             for i, s in enumerate(sets)]
    union = flags[0] + flags[1]
    for i, s in enumerate(sets):
        s.slot = np.flatnonzero(union.data & (1 << i))[s.slot]
        s.size = union.nnz
    return union.indices, union.indptr


class _RegionPieces:
    """The k-independent matrices of one mesh (chi-weighted quadrature), as
    data vectors on the mesh's one read-only CSR pattern.

    K1/K2 (stiffness), Cx1/Cx2, Cy1/Cy2 (convection) and M1/M2 (mass) are
    each restricted to region 1 / region 2; the TM forms keep the region
    masses m1, m2 and the sums k0 = K1 + K2, dx = Cx^T - Cx and
    dy = Cy^T - Cy, with Cx = Cx1 + Cx2 and Cy = Cy1 + Cy2. Each region
    piece is the sum of a plain-cell and a cut-cell piece. A vector holds
    0.0 where its matrix has no entry; adding it there is exact, so every
    sum is bitwise scipy's. ``M1``, ``M2``, ``K0``, ``Dx`` and ``Dy`` are
    the compact CSR matrices, without those zeros, built on first read.
    """

    def __init__(self, mesh):
        corners = DISK.chi2(mesh.cell_corners())             # (ncell, 4)
        cut = np.any(corners != corners[:, :1], axis=1)
        sets = [_CellSet(mesh, np.flatnonzero(~cut), QUAD_PLAIN),
                _CellSet(mesh, np.flatnonzero(cut), QUAD_CUT)]
        n = mesh.dof_count
        self.shape = (n, n)
        self.indices, self.indptr = _mesh_pattern(sets, n)
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False

        def region(kind, r):
            data = sets[0].piece(kind, r)
            data += sets[1].piece(kind, r)
            return data

        def total(kind):
            data = region(kind, 0)
            data += region(kind, 1)
            return data

        self.m1, self.m2 = region(1, 0), region(1, 1)
        self.k0 = total(0)
        cx, cy = total(2), total(3)
        del sets
        # the Q2 coupling pattern is symmetric: entry p of the transposed
        # arange sits at the position of p's mirror
        mirror = self._csr(np.arange(self.indices.size)).T.tocsr().data
        self.dx = cx[mirror] - cx
        del cx
        self.dy = cy[mirror] - cy

    def _csr(self, data):
        return sparse.csr_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)

    def form(self, data):
        """The Hermitian matrix with entries ``data`` on the mesh's pattern."""
        return HermitianSparse(self._csr(data))

    def __getattr__(self, name):
        if name not in ("M1", "M2", "K0", "Dx", "Dy"):
            raise AttributeError(name)
        A = compact(self._csr(getattr(self, name.lower())))
        setattr(self, name, A)
        return A


#: region pieces by mesh level, kept for every level a process touches
_PIECES_CACHE = {}


def _pieces(mesh):
    if mesh.level not in _PIECES_CACHE:
        _PIECES_CACHE[mesh.level] = _RegionPieces(mesh)
    return _PIECES_CACHE[mesh.level]


def assemble_tm(mesh, k):
    """TM-mode forms: M = M1 + M2 and the Bloch stiffness

        K = K0 + |k|^2 M + i kx Dx + i ky Dy,

    Hermitian by construction. The permittivity enters TM problems only
    through the weighted mass (pivot inner product), built by weighted_mass.
    """
    kx, ky = float(k[0]), float(k[1])
    if not (np.isfinite(kx) and np.isfinite(ky)):
        raise ValueError("wave vector components must be finite")
    p = _pieces(mesh)
    M = p.m1 + p.m2
    K = p.k0 + (kx * kx + ky * ky) * M
    if kx != 0.0 or ky != 0.0:
        K = K.astype(complex)
        # i kx Dx is imaginary: scipy's complex sum adds zeros to the real
        # part, so adding kx Dx to the imaginary part gives its bits
        if kx != 0.0:
            K.imag += kx * p.dx
        if ky != 0.0:
            K.imag += ky * p.dy
    return AssembledForms(K=p.form(K), M=p.form(M), M1=p.form(p.m1),
                          M2=p.form(p.m2))


def weighted_mass(mesh, w1, w2):
    """w1 * M1 + w2 * M2 (the weighted pivot inner product), from the
    mesh's cached region masses, on the mesh's pattern."""
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise ValueError("mass weights must be finite")
    p = _pieces(mesh)
    return p.form(w1 * p.m1 + w2 * p.m2)


def region_masses(mesh):
    """M1 and M2, the mesh's cached region masses, on its pattern."""
    p = _pieces(mesh)
    return p.form(p.m1), p.form(p.m2)
