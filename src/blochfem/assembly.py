"""Assembly of Bloch-shifted stiffness and weighted mass matrices (Q2).

For a wave vector k, the TM sesquilinear form expands as

    a(u, v) = int grad(u).grad(conj(v)) + |k|^2 u conj(v)
              + i k . (u grad(conj(v)) - conj(v) grad(u))

which discretizes (row = test function) to

    K(k) = K0 + |k|^2 M + i kx (Cx^T - Cx) + i ky (Cy^T - Cy),

with convection matrices Cx[a, b] = int phi_a d/dx phi_b. The i-times-
antisymmetric cross term makes K(k) Hermitian *by construction* in floating
point. The TE form carries the weight 1/eps(x) in every term and an
unweighted mass as pivot.

Since eps is piecewise constant on the two regions, every matrix is a linear
combination of region-restricted pieces (chi_1- and chi_2-weighted), which
are assembled once per mesh with the material indicator evaluated at
quadrature points: 3x3 Gauss per cell, upgraded to 4x4 on interface-cut
cells (cells whose corners disagree on classification).

Quadrature rounding can make only the stiffness and mass pieces
non-Hermitian, so they are checked once, when they are built; everything
combined from them is Hermitian by construction and not checked again.
"""

import numpy as np
from scipy import sparse

from .errors import HermitianViolationError
from .linalg import HermitianSparse
from .mesh import DISK
from .q2 import tensor_rule

__all__ = [
    "AssembledForms",
    "assemble_tm",
    "assemble_te",
    "weighted_mass",
    "max_asymmetry",
]

#: quadrature orders: plain cells / interface-cut cells
QUAD_PLAIN = 3
QUAD_CUT = 4

#: relative entrywise tolerance for the Hermiticity check of the pieces
HERMITIAN_RTOL = 1e-13


class AssembledForms:
    """Assembled matrices of one Bloch problem on one mesh.

    Fields: K (Hermitian stiffness at the given k), M (plain mass),
    M1 / M2 (masses restricted to regions 1 / 2; M = M1 + M2 exactly),
    dof_count; the mesh and k are kept for provenance.
    """

    def __init__(self, K, M, M1, M2, mesh, k):
        self.K = K
        self.M = M
        self.M1 = M1
        self.M2 = M2
        self.dof_count = mesh.dof_count
        self.mesh = mesh
        self.k = (float(k[0]), float(k[1]))


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
    """Region-restricted raw matrices of one mesh (chi-weighted quadrature).

    K1/K2: stiffness, C{x,y}{1,2}: convection, M1/M2: mass, each restricted
    to region 1 / region 2. Everything downstream is a linear combination.
    """

    def __init__(self, mesh, material):
        corner_tags = material.classify(mesh.nodes[mesh.cells])   # (ncell, 4)
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
            chi2 = material.chi2(phys)                             # (nc, nq)
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
        self.K = tuple(acc["K"])
        self.M = tuple(acc["M"])
        self.Cx = tuple(acc["Cx"])
        self.Cy = tuple(acc["Cy"])
        _check_hermitian(self.K + self.M)


_PIECES_CACHE = {}
_PIECES_CACHE_CAP = 4


def _pieces(mesh, material):
    key = (mesh.ncell_side, material.center, material.radius)
    if key not in _PIECES_CACHE:
        if len(_PIECES_CACHE) >= _PIECES_CACHE_CAP:
            _PIECES_CACHE.pop(next(iter(_PIECES_CACHE)))
        _PIECES_CACHE[key] = _RegionPieces(mesh, material)
    return _PIECES_CACHE[key]


def _combine(pieces, w1, w2):
    """w1 * piece_region1 + w2 * piece_region2 for every matrix kind."""
    def mix(pair):
        if w1 == 1.0 and w2 == 1.0:
            return pair[0] + pair[1]
        return w1 * pair[0] + w2 * pair[1]
    return mix(pieces.K), mix(pieces.Cx), mix(pieces.Cy), mix(pieces.M)


def _bloch_stiffness(K0, Cx, Cy, Mw, k):
    """K0 + |k|^2 Mw + i kx (Cx^T - Cx) + i ky (Cy^T - Cy), exact Hermitian."""
    kx, ky = float(k[0]), float(k[1])
    if not (np.isfinite(kx) and np.isfinite(ky)):
        raise ValueError("wave vector components must be finite")
    K = K0 + (kx * kx + ky * ky) * Mw
    if kx == 0.0 and ky == 0.0:
        return K.tocsr()
    K = K.astype(complex)
    if kx != 0.0:
        K = K + (1j * kx) * (Cx.T - Cx)
    if ky != 0.0:
        K = K + (1j * ky) * (Cy.T - Cy)
    return K.tocsr()


def assemble_tm(mesh, k, material=DISK):
    """TM-mode forms: unweighted Bloch stiffness, plain and region masses.

    The permittivity enters TM problems only through the weighted mass
    (pivot inner product), built separately via weighted_mass.
    """
    p = _pieces(mesh, material)
    M1 = p.M[0]
    M2 = p.M[1]
    M = M1 + M2
    K0, Cx, Cy, _ = _combine(p, 1.0, 1.0)
    K = _bloch_stiffness(K0, Cx, Cy, M, k)
    return AssembledForms(
        K=HermitianSparse(K),
        M=HermitianSparse(M),
        M1=HermitianSparse(M1),
        M2=HermitianSparse(M2),
        mesh=mesh,
        k=k,
    )


def assemble_te(mesh, k, eps1, eps2, material=DISK):
    """TE-mode forms: every stiffness term carries the weight 1/eps(x);
    the mass (pivot) is unweighted."""
    if eps1 <= 0 or eps2 <= 0:
        raise ValueError("permittivities must be positive, got (%r, %r)" % (eps1, eps2))
    p = _pieces(mesh, material)
    M1 = p.M[0]
    M2 = p.M[1]
    M = M1 + M2
    K0, Cx, Cy, Minv_eps = _combine(p, 1.0 / eps1, 1.0 / eps2)
    K = _bloch_stiffness(K0, Cx, Cy, Minv_eps, k)
    return AssembledForms(
        K=HermitianSparse(K),
        M=HermitianSparse(M),
        M1=HermitianSparse(M1),
        M2=HermitianSparse(M2),
        mesh=mesh,
        k=k,
    )


def weighted_mass(mesh, w1, w2, forms=None, material=DISK):
    """w1 * M1 + w2 * M2 (the weighted pivot inner product).

    Reuses the region masses of ``forms`` when given; otherwise assembles
    them for the mesh.
    """
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise ValueError("mass weights must be finite")
    if forms is not None:
        M1, M2 = forms.M1.mat, forms.M2.mat
    else:
        p = _pieces(mesh, material)
        M1, M2 = p.M
    if w1 == 1.0 and w2 == 1.0:
        return HermitianSparse(M1 + M2)
    return HermitianSparse(w1 * M1 + w2 * M2)
