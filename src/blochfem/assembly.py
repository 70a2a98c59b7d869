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
weighted), assembled once per mesh level and kept until
:func:`release_pieces` drops them, with the disk indicator evaluated at
quadrature points: 3x3 Gauss per cell, upgraded to 4x4 on interface-cut
cells (cells whose corners disagree on chi_2). Only the cells whose Gauss
points straddle the interface run the weighted quadrature; a cell wholly
on one side takes its rule's reference element there. Each of the two
cell sets is scattered in the entry order of scipy's COO -> CSR
conversion, captured once per mesh as an int32 slot and a uint8 key per
entry, so its sums are bitwise the ones that conversion builds; the
pieces are summed :data:`BLOCK` pattern positions at a time, so no
nnz-long scratch array is made.

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
vectors, and all of them share the pattern's arrays; a power level's
pencil (A_beta, M_w) is summed from the pieces a block at a time
(``assemble_tm`` with ``shift``), without K(k) or M held whole. A mesh
whose forms are built once, a power reference's, keeps no pieces:
:func:`reference_pencil` sums its pencil straight from the scatter, in
the same order, and keeps of M1 and M2 only cell (0, 0)'s rows. Adding
0.0 where a summand has no entry is exact, so those sums are bitwise
scipy's sparse sums. scipy's would also drop an entry that cancels to
exactly 0.0, which stays here as a stored zero; the tests find none in K,
M, M_w or A_beta at four wave vectors on L0-L4.

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
    "reference_pencil",
    "release_pieces",
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
    by converting codes of the entries with the summing switched off: 81 *
    region + local index for a cell within a region, 162 + 81 * rank +
    local index for the rank-th mixed cell. Per region it is kept lean, in
    that order: the entries that region weighs (its own cells' and the
    mixed cells'), each with an int32 slot and a uint8 key, its index in
    its element matrix. The other cells weigh 0.0 there, and adding 0.0 to
    a bincount's sum, which is never -0.0, changes no bit, so they are
    left out. A piece is then one take from the reference element, the
    mixed cells' entries put in their places, and ``np.bincount``, which
    also adds left to right: bitwise the matrix scipy would build, up to
    the sign of exact zeros, which the compact pieces drop.
    """

    def __init__(self, mesh, cells, rule_pts):
        pts, w, B, Gx, Gy = tensor_rule(rule_pts)
        phys = mesh.cell_origin()[cells][:, None, :] + pts[None, :, :] * mesh.h
        chi2 = DISK.chi2(phys)                           # (nc, nq)
        inside = chi2.all(axis=1)
        mixed = chi2.any(axis=1) & ~inside
        self.reference = _element_matrices(w[None, :], mesh.h, B, Gx, Gy)
        chi2 = chi2[mixed]
        self.batch = tuple(
            _element_matrices(chi * w[None, :], mesh.h, B, Gx, Gy)
            for chi in (1.0 - chi2, chi2))
        for el in (els[kind] for els in (self.reference,) + self.batch
                   for kind in (0, 1)):
            worst = np.abs(el - el.transpose(0, 2, 1)).max(initial=0.0)
            scale = np.abs(el).max(initial=0.0)
            if worst > HERMITIAN_RTOL * scale:
                raise HermitianViolationError(
                    "element matrices violate symmetry: "
                    "max|A - A^T| = %.3e vs max|A| = %.3e" % (worst, scale))

        cell_code = np.where(mixed, 162 + 81 * (np.cumsum(mixed) - 1),
                             81 * inside).astype(np.int32)
        dofs = mesh.cell_dofs[cells].astype(np.int32)    # (nc, 9)
        n = mesh.dof_count
        order = sparse.coo_matrix(
            ((cell_code[:, None] + np.arange(81, dtype=np.int32)).ravel(),
             (np.repeat(dofs[:, :, None], 9, axis=2).ravel(),
              np.repeat(dofs[:, None, :], 9, axis=1).ravel())),
            shape=(n, n))
        order.has_canonical_format = True                # order, do not sum
        order = order.tocsr()
        order.sort_indices()
        # an entry opens a new (row, column) slot where its column changes;
        # row starts need no mark of their own, because the pattern is
        # symmetric and holds the diagonal, so no row ends on the column
        # that the next nonempty row starts with
        ip, cols, code = order.indptr, order.indices, order.data
        del order
        first = np.empty(cols.size, dtype=bool)
        first[:1] = True
        np.not_equal(cols[1:], cols[:-1], out=first[1:])
        slot = np.cumsum(first, dtype=np.int32)
        slot -= 1
        starts = np.flatnonzero(first)
        self.indices = cols[starts]
        self.indptr = np.searchsorted(starts, ip).astype(ip.dtype)
        del first, starts, ip, cols

        # per region: the entries it weighs, the mixed ones among them and
        # their entries in the batch
        self.slot, self.key, self.mixed, self.source = [], [], [], []
        for weighs in ((code < 81) | (code >= 162), code >= 81):
            code_r = code[weighs]
            self.slot.append(slot[weighs])
            self.key.append((code_r % 81).astype(np.uint8))
            at = np.flatnonzero(code_r >= 162)
            self.mixed.append(at)
            self.source.append(code_r[at] - 162)

    def scatter(self, lo, hi, acc, kinds):
        """Adds to ``acc[region, i]`` the sums, at the positions lo to
        hi - 1 of the pattern the slots point into, of element matrices
        ``kinds[i]`` (0 K, 1 M, 2 Cx, 3 Cy) over these cells, weighted by
        region 1 (``region`` 0) or region 2 (1)."""
        for region in (0, 1):
            slot = self.slot[region]
            a, b = np.searchsorted(slot, np.array((lo, hi), dtype=slot.dtype))
            if a == b:
                continue
            at = np.subtract(slot[a:b], lo, dtype=np.intp)
            keys = self.key[region][a:b].astype(np.intp)
            mixed = self.mixed[region]
            i, j = np.searchsorted(mixed, (a, b))
            mixed = mixed[i:j] - a
            source = self.source[region][i:j]
            for c, kind in enumerate(kinds):
                weights = self.reference[kind].reshape(-1).take(keys)
                weights[mixed] = self.batch[region][kind].reshape(-1)[source]
                acc[region, c] += np.bincount(at, weights, minlength=hi - lo)


def _cell_sets(mesh):
    """The mesh's two cell sets (3x3 Gauss on plain cells, 4x4 on cells
    whose corners disagree on chi_2) and its CSR pattern, the union of
    theirs, read-only; each set's slots point at their positions in it.

    One scipy sum of the two sets' patterns, with data 1 on the first and
    2 on the second, does the merge. Both patterns and their union are
    sorted by row and column, so a set's slots are, in order, the entries
    of the union that carry its bit. A set's scatter then adds in its own
    order, straight into the mesh's positions: bitwise its own sum.
    """
    corners = DISK.chi2(mesh.cell_corners())             # (ncell, 4)
    cut = np.any(corners != corners[:, :1], axis=1)
    sets = [_CellSet(mesh, np.flatnonzero(~cut), QUAD_PLAIN),
            _CellSet(mesh, np.flatnonzero(cut), QUAD_CUT)]
    n = mesh.dof_count
    flags = [sparse.csr_matrix((np.full(s.indices.size, 1 << i, dtype=np.int8),
                                s.indices, s.indptr), shape=(n, n))
             for i, s in enumerate(sets)]
    union = flags[0] + flags[1]
    del flags
    for i, s in enumerate(sets):
        where = np.flatnonzero(union.data & (1 << i)).astype(np.int32)
        s.slot = [where.take(slot) for slot in s.slot]
        del s.indices, s.indptr
    union.indices.flags.writeable = False
    union.indptr.flags.writeable = False
    return sets, union.indices, union.indptr


def _scattered(sets, nnz, kinds):
    """Per block of :data:`BLOCK` pattern positions, its slice and the
    region 1 and region 2 sums there of element matrices ``kinds``
    (``acc[region, i]`` of kind ``kinds[i]``), the plain cells' then the
    cut cells' added in."""
    for lo in range(0, nnz, BLOCK):
        hi = min(lo + BLOCK, nnz)
        acc = np.zeros((2, len(kinds), hi - lo))
        for s in sets:
            s.scatter(lo, hi, acc, kinds)
        yield slice(lo, hi), acc


def _csr(data, indices, indptr):
    n = indptr.size - 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _mirror(indices, indptr):
    """The position of each entry's mirror (j, i) on a symmetric pattern:
    entry p of the transposed arange sits at the position of p's mirror."""
    return _csr(np.arange(indices.size, dtype=np.int32), indices,
                indptr).T.tocsr().data


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
        sets, self.indices, self.indptr = _cell_sets(mesh)
        nnz = self.indices.size
        self.m1, self.m2, self.k0, cx, cy = (np.empty(nnz) for _ in range(5))
        for s, acc in _scattered(sets, nnz, range(4)):
            self.m1[s], self.m2[s] = acc[:, 1]
            for kind, data in ((0, self.k0), (2, cx), (3, cy)):
                np.add(acc[0, kind], acc[1, kind], out=data[s])
        del sets, acc
        mirror = _mirror(self.indices, self.indptr)
        self.dx = cx[mirror]
        self.dx -= cx
        del cx
        self.dy = cy[mirror]
        self.dy -= cy

    def form(self, data):
        """The Hermitian matrix with entries ``data`` on the mesh's pattern."""
        return HermitianSparse(_csr(data, self.indices, self.indptr))

    def __getattr__(self, name):
        if name not in ("M1", "M2", "K0", "Dx", "Dy"):
            raise AttributeError(name)
        A = compact(_csr(getattr(self, name.lower()), self.indices, self.indptr))
        setattr(self, name, A)
        return A


#: region pieces by mesh level, kept for every level a process touches
#: until :func:`release_pieces` drops them
_PIECES_CACHE = {}

#: entries per block: the cold scatter sums its slots, and the shifted
#: forms of :func:`assemble_tm` their entries, a block at a time
BLOCK = 1 << 16


def _pieces(mesh):
    if mesh.level not in _PIECES_CACHE:
        _PIECES_CACHE[mesh.level] = _RegionPieces(mesh)
    return _PIECES_CACHE[mesh.level]


def release_pieces():
    """Drops the region pieces of every level. The forms already built
    keep the data vectors they share; a later form rebuilds its level."""
    _PIECES_CACHE.clear()


def _check_weights(w1, w2):
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise ValueError("mass weights must be finite")


def _wave_vector(k):
    kx, ky = float(k[0]), float(k[1])
    if not (np.isfinite(kx) and np.isfinite(ky)):
        raise ValueError("wave vector components must be finite")
    return kx, ky


def _real_tm(m1, m2, k0, k2):
    """The data of K0 + |k|^2 M, the real part of K(k), and of M, from
    those of M1, M2 and K0, with |k|^2 = ``k2``."""
    M = m1 + m2
    return k0 + k2 * M, M


def _tm(p, s, kx, ky):
    """The data of K(k) and M on the entries ``s`` of the pattern."""
    K, M = _real_tm(p.m1[s], p.m2[s], p.k0[s], kx * kx + ky * ky)
    if kx != 0.0 or ky != 0.0:
        K = K.astype(complex)
        # i kx Dx is imaginary: scipy's complex sum adds zeros to the real
        # part, so adding kx Dx to the imaginary part gives its bits
        if kx != 0.0:
            K.imag += kx * p.dx[s]
        if ky != 0.0:
            K.imag += ky * p.dy[s]
    return K, M


def _shift(K, m1, m2, weights, beta, A, Mw):
    """Writes M_w = w1 * M1 + w2 * M2 into ``Mw`` and A_beta = K + beta * M_w
    into ``A``, on the entries of the data ``K``, ``m1`` and ``m2``."""
    w1, w2 = weights
    np.add(w1 * m1, w2 * m2, out=Mw)
    np.add(K, beta * Mw, out=A)


def _stiffness_dtype(kx, ky):
    """The dtype of K(k) and A_beta: real at k = 0 only."""
    return complex if kx != 0.0 or ky != 0.0 else float


def assemble_tm(mesh, k, shift=None):
    """TM-mode forms: M = M1 + M2 and the Bloch stiffness

        K = K0 + |k|^2 M + i kx Dx + i ky Dy,

    Hermitian by construction. The permittivity enters TM problems only
    through the weighted mass (pivot inner product), built by weighted_mass.

    With ``shift = (weights, beta)`` it returns instead the pair
    (A_beta, M_w) of a power level's pencil: M_w = w1 * M1 + w2 * M2 for
    ``weights`` = (w1, w2), and A_beta = K + beta * M_w. Both are summed
    from the cached pieces :data:`BLOCK` entries at a time, with the
    expressions of K, M and :func:`weighted_mass`: bitwise the sum of those
    forms, but neither K nor M is ever held whole.
    """
    kx, ky = _wave_vector(k)
    p = _pieces(mesh)
    if shift is not None:
        return _shifted_forms(p, kx, ky, *shift)
    K, M = _tm(p, slice(None), kx, ky)
    return AssembledForms(K=p.form(K), M=p.form(M), M1=p.form(p.m1),
                          M2=p.form(p.m2))


def _shifted_forms(p, kx, ky, weights, beta):
    _check_weights(*weights)
    beta = float(beta)
    A = np.empty(p.indices.size, dtype=_stiffness_dtype(kx, ky))
    Mw = np.empty(A.size)
    for lo in range(0, A.size, BLOCK):
        s = slice(lo, lo + BLOCK)
        K = _tm(p, s, kx, ky)[0]
        _shift(K, p.m1[s], p.m2[s], weights, beta, A[s], Mw[s])
        del K
    return p.form(A), p.form(Mw)


def reference_pencil(mesh, k, weights, beta):
    """The pencil (A_beta, M_w) of ``assemble_tm(mesh, k, shift=(weights,
    beta))``, bitwise, built without the region pieces, and the region
    masses M1 and M2 on cell (0, 0)'s rows alone.

    For a mesh whose forms are built once, as a reference's finer mesh
    is: nothing is cached, and the scatter of the region pieces runs
    :data:`BLOCK` positions at a time, once per convection element whose
    wave-vector component is nonzero, then once for the stiffness and mass
    elements together. A convection pass sums Cx (or Cy) whole and adds
    kx Dx (or ky Dy) into the imaginary part of A_beta, in
    :func:`assemble_tm`'s order; the last pass writes the real part of
    A_beta and M_w block by block, with its expressions. Besides the cell
    sets, the pattern, A_beta and M_w, the build holds at most one of Cx
    and Cy and the mirror map; K0, M1, M2, Dx and Dy are never whole.

    Returns ``((A_beta, M_w), (M1, M2))``: A_beta and M_w
    :class:`HermitianSparse` on the mesh's pattern, M1 and M2 CSR matrices
    that store the rows of the DOFs of cell (0, 0) only, which is what
    :class:`~blochfem.linalg.BoundedDualNorm` reads of them.
    """
    kx, ky = _wave_vector(k)
    _check_weights(*weights)
    beta = float(beta)
    sets, indices, indptr = _cell_sets(mesh)
    n, nnz = mesh.dof_count, indices.size
    A = np.empty(nnz, dtype=_stiffness_dtype(kx, ky))
    if A.dtype.kind == "c":
        A.imag = 0.0
        mirror = _mirror(indices, indptr)
        for kind, component in ((2, kx), (3, ky)):
            if component == 0.0:
                continue
            c = np.empty(nnz)
            for s, acc in _scattered(sets, nnz, (kind,)):
                np.add(acc[0, 0], acc[1, 0], out=c[s])
            for lo in range(0, nnz, BLOCK):
                s = slice(lo, lo + BLOCK)
                A.imag[s] += component * (c[mirror[s]] - c[s])
            del c
        del mirror

    # cell (0, 0): the DOFs (0, 0), (1, 0), (0, 1) and (1, 1) of the lattice
    d = 2 * mesh.ncell_side
    rows = np.array([0, 1, d, d + 1])
    cell = np.concatenate([np.arange(indptr[i], indptr[i + 1]) for i in rows])
    masses = np.empty((2, cell.size))
    Mw = np.empty(nnz)
    for s, acc in _scattered(sets, nnz, (0, 1)):
        m1, m2 = acc[:, 1]
        K = _real_tm(m1, m2, np.add(acc[0, 0], acc[1, 0]), kx * kx + ky * ky)[0]
        if A.dtype.kind == "c":
            K = K.astype(complex)
            K.imag = A.imag[s]
        _shift(K, m1, m2, weights, beta, A[s], Mw[s])
        i, j = np.searchsorted(cell, (s.start, s.stop))
        masses[:, i:j] = acc[:, 1, cell[i:j] - s.start]
    del sets, acc, K
    counts = np.zeros(n + 1, dtype=indptr.dtype)
    counts[rows + 1] = indptr[rows + 1] - indptr[rows]
    cell_indptr = np.cumsum(counts, dtype=indptr.dtype)
    return ((HermitianSparse(_csr(A, indices, indptr)),
             HermitianSparse(_csr(Mw, indices, indptr))),
            tuple(_csr(m, indices[cell], cell_indptr) for m in masses))


def weighted_mass(mesh, w1, w2):
    """w1 * M1 + w2 * M2 (the weighted pivot inner product), from the
    mesh's cached region masses, on the mesh's pattern."""
    _check_weights(w1, w2)
    p = _pieces(mesh)
    return p.form(w1 * p.m1 + w2 * p.m2)
