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
weighted), assembled once per mesh with the disk indicator evaluated at
quadrature points: 3x3 Gauss per cell, upgraded to 4x4 on interface-cut
cells (cells whose corners disagree on classification). The k-independent
sums K0, Dx = Cx^T - Cx and Dy = Cy^T - Cy are formed once per mesh too,
so a call at a new k only adds the k-dependent terms.

Quadrature rounding can make only the stiffness and mass pieces
non-Hermitian, so they are checked once, when they are built; everything
combined from them is Hermitian by construction and not checked again.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import HermitianViolationError
from .linalg import HermitianSparse
from .mesh import DISK
from .q2 import tensor_rule

__all__ = [
    "AssembledForms",
    "assemble_tm",
    "weighted_mass",
    "max_asymmetry",
]

#: quadrature orders: plain cells / interface-cut cells
QUAD_PLAIN = 3
QUAD_CUT = 4

#: relative entrywise tolerance for the Hermiticity check of the pieces
HERMITIAN_RTOL = 1e-13


@dataclass
class AssembledForms:
    """Assembled matrices of one Bloch problem on one mesh: K (Hermitian
    stiffness at the given k), M (plain mass) and M1 / M2 (masses restricted
    to regions 1 / 2; M = M1 + M2 exactly)."""

    K: HermitianSparse
    M: HermitianSparse
    M1: HermitianSparse
    M2: HermitianSparse


def _scatter(mesh, cells_idx, el):
    """Accumulate a batch of 9x9 element matrices into a global CSR matrix."""
    dofs = mesh.cell_dofs[cells_idx]                     # (nc, 9)
    rows = np.repeat(dofs[:, :, None], 9, axis=2).ravel()
    cols = np.repeat(dofs[:, None, :], 9, axis=1).ravel()
    n = mesh.dof_count
    return sparse.coo_matrix((el.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def max_asymmetry(A):
    """max |A - A^H| over the entries of a sparse matrix."""
    diff = A - A.getH()
    return np.abs(diff.data).max() if diff.nnz else 0.0


def _check_hermitian(pieces):
    """Raise HermitianViolationError unless every piece is Hermitian to
    HERMITIAN_RTOL relative to its largest entry."""
    for A in pieces:
        scale = np.abs(A.data).max() if A.nnz else 0.0
        worst = max_asymmetry(A)
        if scale > 0 and worst > HERMITIAN_RTOL * scale:
            raise HermitianViolationError(
                "region piece violates symmetry: "
                "max|A - A^H| = %.3e vs max|A| = %.3e" % (worst, scale)
            )


class _RegionPieces:
    """The k-independent matrices of one mesh (chi-weighted quadrature).

    K1/K2 (stiffness), Cx1/Cx2, Cy1/Cy2 (convection) and M1/M2 (mass) are
    each restricted to region 1 / region 2; the TM forms keep the region
    masses M1, M2 and the sums K0 = K1 + K2, Dx = Cx^T - Cx and
    Dy = Cy^T - Cy, with Cx = Cx1 + Cx2 and Cy = Cy1 + Cy2.
    """

    def __init__(self, mesh):
        corner_tags = DISK.classify(mesh.nodes[mesh.cells])   # (ncell, 4)
        cut = np.any(corner_tags != corner_tags[:, :1], axis=1)
        h = mesh.h
        origins = mesh.cell_origin()

        n = mesh.dof_count
        acc = {name: [sparse.csr_matrix((n, n)), sparse.csr_matrix((n, n))]
               for name in ("K", "M", "Cx", "Cy")}
        for rule_pts, idx in ((QUAD_PLAIN, np.flatnonzero(~cut)),
                              (QUAD_CUT, np.flatnonzero(cut))):
            if idx.size == 0:
                continue
            pts, w, B, Gx, Gy = tensor_rule(rule_pts)
            phys = origins[idx][:, None, :] + pts[None, :, :] * h  # (nc, nq, 2)
            chi2 = DISK.chi2(phys)                                 # (nc, nq)
            for slot, chi in ((0, 1.0 - chi2), (1, chi2)):
                wq = chi * w[None, :]
                # physical scalings: mass h^2, stiffness h^2 * h^-2,
                # convection h^2 * h^-1
                kel = (np.einsum("cq,qa,qb->cab", wq, Gx, Gx)
                       + np.einsum("cq,qa,qb->cab", wq, Gy, Gy))
                mel = h * h * np.einsum("cq,qa,qb->cab", wq, B, B)
                cxel = h * np.einsum("cq,qa,qb->cab", wq, B, Gx)
                cyel = h * np.einsum("cq,qa,qb->cab", wq, B, Gy)
                acc["K"][slot] = acc["K"][slot] + _scatter(mesh, idx, kel)
                acc["M"][slot] = acc["M"][slot] + _scatter(mesh, idx, mel)
                acc["Cx"][slot] = acc["Cx"][slot] + _scatter(mesh, idx, cxel)
                acc["Cy"][slot] = acc["Cy"][slot] + _scatter(mesh, idx, cyel)
        _check_hermitian(acc["K"] + acc["M"])
        # drop each pair as soon as its sum exists, so that the next sum can
        # reuse its memory (holding every pair to the end put about 30 MB on
        # the peak RSS of an experiment1 run)
        self.M1, self.M2 = acc.pop("M")
        self.K0 = _region_sum(acc.pop("K"))
        self.Dx = _antisymmetric(_region_sum(acc.pop("Cx")))
        self.Dy = _antisymmetric(_region_sum(acc.pop("Cy")))


def _region_sum(pair):
    return pair[0] + pair[1]


def _antisymmetric(C):
    """C^T - C, the convection part of the Bloch cross term."""
    return (C.T - C).tocsr()


_PIECES_CACHE = {}
_PIECES_CACHE_CAP = 4


def _pieces(mesh):
    if mesh.level not in _PIECES_CACHE:
        if len(_PIECES_CACHE) >= _PIECES_CACHE_CAP:
            _PIECES_CACHE.pop(next(iter(_PIECES_CACHE)))
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
    M = p.M1 + p.M2
    K = p.K0 + (kx * kx + ky * ky) * M
    if kx != 0.0 or ky != 0.0:
        K = K.astype(complex)
        if kx != 0.0:
            K = K + (1j * kx) * p.Dx
        if ky != 0.0:
            K = K + (1j * ky) * p.Dy
    return AssembledForms(
        K=HermitianSparse(K),
        M=HermitianSparse(M),
        M1=HermitianSparse(p.M1),
        M2=HermitianSparse(p.M2),
    )


def weighted_mass(mesh, w1, w2, forms=None):
    """w1 * M1 + w2 * M2 (the weighted pivot inner product).

    Reuses the region masses of ``forms`` when given; otherwise takes them
    from the mesh's cached pieces.
    """
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise ValueError("mass weights must be finite")
    if forms is not None:
        M1, M2 = forms.M1.mat, forms.M2.mat
    else:
        p = _pieces(mesh)
        M1, M2 = p.M1, p.M2
    if w1 == 1.0 and w2 == 1.0:
        return HermitianSparse(M1 + M2)
    return HermitianSparse(w1 * M1 + w2 * M2)
