"""Tensor-product Q2 (biquadratic) reference element on the unit square.

1D nodes sit at t = 0, 1/2, 1. The 2D basis on [0,1]^2 is the tensor product
phi_{3b+a}(x, y) = L_a(x) L_b(y), i.e. the local index runs x-fastest. All
element-level quantities in the assembly module are built from the 1D pieces
here.
"""

import numpy as np


def q2_values(t):
    """Values of the three 1D quadratic Lagrange functions at points ``t``.

    Returns an array of shape ``t.shape + (3,)``:
    L0 = (1-t)(1-2t), L1 = 4t(1-t), L2 = t(2t-1).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (3,))
    out[..., 0] = (1.0 - t) * (1.0 - 2.0 * t)
    out[..., 1] = 4.0 * t * (1.0 - t)
    out[..., 2] = t * (2.0 * t - 1.0)
    return out


def q2_derivs(t):
    """Derivatives of the 1D basis at points ``t`` (same layout as q2_values)."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (3,))
    out[..., 0] = 4.0 * t - 3.0
    out[..., 1] = 4.0 - 8.0 * t
    out[..., 2] = 4.0 * t - 1.0
    return out


def gauss_rule(npts):
    """Gauss-Legendre rule on [0, 1]: (points, weights), each length npts."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_rule(npts):
    """Tensor Gauss rule on [0,1]^2.

    Returns (pts, w, B, Gx, Gy) where pts is (nq, 2), w is (nq,), and
    B/Gx/Gy are (nq, 9) arrays of basis values and *reference* derivatives
    (no mesh scaling) at the quadrature points, in the local x-fastest
    ordering.
    """
    g, w1 = gauss_rule(npts)
    gx, gy = np.meshgrid(g, g, indexing="xy")   # gy varies slowest
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = np.outer(w1, w1).ravel()                # matches (gy, gx) raveling
    vx = q2_values(pts[:, 0])                   # (nq, 3)
    vy = q2_values(pts[:, 1])
    dx = q2_derivs(pts[:, 0])
    dy = q2_derivs(pts[:, 1])
    # local index 3*b + a  ->  value L_a(x) * L_b(y)
    B = (vy[:, :, None] * vx[:, None, :]).reshape(-1, 9)
    Gx = (vy[:, :, None] * dx[:, None, :]).reshape(-1, 9)
    Gy = (dy[:, :, None] * vx[:, None, :]).reshape(-1, 9)
    return pts, w, B, Gx, Gy


# 1D prolongation stencils for nested uniform refinement: a fine 1D node at
# local coordinate t in {0, 1/4, 1/2, 3/4} of a coarse cell interpolates the
# coarse quadratic through the cell's three nodes with these weights.
PROLONG_STENCILS = {
    0: np.array([1.0, 0.0, 0.0]),
    1: np.array([0.375, 0.75, -0.125]),
    2: np.array([0.0, 1.0, 0.0]),
    3: np.array([-0.125, 0.75, 0.375]),
}
