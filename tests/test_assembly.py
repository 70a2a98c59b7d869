"""Bloch FEM forms: Hermiticity, exact algebraic identities, quadrature area.

The strongest checks here are the ones that hold to machine precision by
construction and would catch sign or transpose mistakes immediately:
M_w = M1 + M2 bitwise for unit weights, K(-k) = conj(K(k)) and
K(k) 1 = |k|^2 M 1.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import sparse

from blochfem import assembly as asm, linalg as lin, mesh as msh
from blochfem.eigeniter import Pencil
from blochfem.errors import HermitianViolationError
from blochfem.linalg import rayleigh_quotient, shared_data, with_data
from blochfem.q2 import tensor_rule

K_GENERIC = (np.pi / 2, np.pi)


def fourier_lambda1(k, window=3):
    k = np.asarray(k, dtype=float)
    return min(
        (k[0] + 2 * np.pi * a) ** 2 + (k[1] + 2 * np.pi * b) ** 2
        for a in range(-window, window + 1)
        for b in range(-window, window + 1)
    )


def plain_mass(forms):
    """M = M1 + M2, the plain mass, as scipy's sum of the region masses."""
    return (forms.M1.mat + forms.M2.mat).tocsr()


@pytest.fixture(scope="module")
def level1():
    mesh = msh.build_mesh(1)
    return mesh, asm.assemble_tm(mesh, K_GENERIC)


def test_stiffness_is_hermitian(level1):
    _, forms = level1
    K = forms.K.mat
    diff = np.abs((K - K.getH()).data)
    assert (diff.max() if diff.size else 0.0) <= 1e-13 * np.abs(K.data).max()


def _skewing(elements, call=None, kind=None):
    """``elements`` with entry (0, 1) of every cell raised by 1e-6 of the
    batch's largest entry: in output ``kind`` of the ``call``-th call only,
    or everywhere when both are None."""
    calls = itertools.count()

    def skewed(*args):
        out, n = list(elements(*args)), next(calls)
        for i, el in enumerate(out):
            if call is None or (n, i) == (call, kind):
                out[i] = el.copy()
                out[i][:, 0, 1] += 1e-6 * np.abs(el).max(initial=0.0)
        return tuple(out)
    return skewed


def test_hermitian_validation_rejects_asymmetry(monkeypatch):
    # an element matrix that comes out of quadrature asymmetric is refused
    # when the pieces are built
    monkeypatch.setattr(asm, "_element_matrices", _skewing(asm._element_matrices))
    with pytest.raises(HermitianViolationError, match="symmetry"):
        asm._RegionPieces(msh.build_mesh(0))


#: a disk whose plain and cut cell sets both hold mixed cells at L0 (1 and 5)
BOTH_SETS_MIXED = msh.MaterialMap(center=(0.5625, 0.67), radius=0.1)


def test_pieces_are_checked_once_per_build(monkeypatch):
    monkeypatch.setattr(asm, "DISK", BOTH_SETS_MIXED)
    monkeypatch.setattr(asm, "_PIECES_CACHE", {})
    mesh = msh.build_mesh(0)
    elements, batches = asm._element_matrices, []
    monkeypatch.setattr(asm, "_element_matrices",
                        lambda wq, *a: batches.append(len(wq)) or elements(wq, *a))
    monkeypatch.setattr(asm, "max_asymmetry",
                        lambda A: pytest.fail("an assembled matrix was checked"))
    asm.assemble_tm(mesh, K_GENERIC)
    # per cell set: the reference element, then the mixed cells per region
    assert batches == [1, 1, 1, 1, 5, 5]
    asm.assemble_tm(mesh, (0.3, -1.1))
    Pencil.on_mesh(mesh, (0.3, -1.1), (1.0, 8.0), 1.0)
    Pencil.on_mesh(mesh, (0.3, -1.1), (2.0, 3.0), 2.5)
    assert len(batches) == 6
    # the stiffness and the mass of each of the six batches are checked;
    # the convection elements are not symmetric, so they cannot be
    for call in range(6):
        for kind in (0, 1):
            monkeypatch.setattr(asm, "_element_matrices",
                                _skewing(elements, call, kind))
            with pytest.raises(HermitianViolationError, match="symmetry"):
                asm._RegionPieces(mesh)


def test_pieces_are_kept_for_every_level(monkeypatch):
    builds = []
    monkeypatch.setattr(asm, "_RegionPieces", lambda mesh: builds.append(mesh.level))
    monkeypatch.setattr(asm, "_PIECES_CACHE", {})
    for _ in range(2):
        for level in range(5):
            asm._pieces(msh.build_mesh(level))
    assert builds == [0, 1, 2, 3, 4]


def _oracle_pieces(mesh):
    """The region pieces as one COO -> CSR scatter per cell set and piece
    built them: every cell of a set through one batched quadrature."""
    N, n, h = mesh.ncell_side, mesh.dof_count, mesh.h
    I, J = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    origin = np.column_stack([I.ravel(), J.ravel()])
    corners = asm.DISK.chi2(np.stack([(origin + ab) / N for ab in
                                      ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1))
    cut = np.any(corners != corners[:, :1], axis=1)
    acc = [[sparse.csr_matrix((n, n)), sparse.csr_matrix((n, n))] for _ in range(4)]
    for rule_pts, idx in ((asm.QUAD_PLAIN, np.flatnonzero(~cut)),
                          (asm.QUAD_CUT, np.flatnonzero(cut))):
        if idx.size == 0:
            continue
        pts, w, B, Gx, Gy = tensor_rule(rule_pts)
        chi2 = asm.DISK.chi2((origin[idx] / N)[:, None, :] + pts[None] * h)
        dofs = mesh.cell_dofs[idx]
        rows = np.repeat(dofs[:, :, None], 9, axis=2).ravel()
        cols = np.repeat(dofs[:, None, :], 9, axis=1).ravel()
        for region, chi in enumerate((1.0 - chi2, chi2)):
            wq = chi * w[None, :]
            els = (np.einsum("cq,qa,qb->cab", wq, Gx, Gx)
                   + np.einsum("cq,qa,qb->cab", wq, Gy, Gy),
                   h * h * np.einsum("cq,qa,qb->cab", wq, B, B),
                   h * np.einsum("cq,qa,qb->cab", wq, B, Gx),
                   h * np.einsum("cq,qa,qb->cab", wq, B, Gy))
            for kind, el in enumerate(els):
                coo = sparse.coo_matrix((el.ravel(), (rows, cols)), shape=(n, n))
                acc[kind][region] = acc[kind][region] + coo.tocsr()
    (K1, K2), (M1, M2), Cx, Cy = acc
    Cx, Cy = Cx[0] + Cx[1], Cy[0] + Cy[1]
    return dict(M1=M1, M2=M2, K0=K1 + K2, Dx=(Cx.T - Cx).tocsr(), Dy=(Cy.T - Cy).tocsr())


def _assert_pieces_match_the_oracle(mesh):
    pieces = asm._RegionPieces(mesh)
    for name, want in _oracle_pieces(mesh).items():
        got = getattr(pieces, name)
        assert type(got) is type(want), name
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, attr)


@pytest.mark.parametrize("level, disk", [
    (0, None), (1, None), (2, None), (3, None),
    # inside one level-0 cell: one cell meets the disk at a Gauss point
    # only, no cell corner disagrees, so the cut set is empty
    (0, msh.MaterialMap(center=(0.5625, 0.5625), radius=0.03)),
    (4, None), (0, BOTH_SETS_MIXED),
])
def test_pieces_match_the_coo_scatter_bitwise(monkeypatch, level, disk):
    if disk is not None:
        monkeypatch.setattr(asm, "DISK", disk)
    _assert_pieces_match_the_oracle(msh.build_mesh(level))


@pytest.mark.parametrize("level, disk", [
    (0, None), (1, None), (2, None), (0, BOTH_SETS_MIXED),
])
def test_pieces_in_short_blocks_match_the_coo_scatter_bitwise(monkeypatch, level, disk):
    # blocks far shorter than a level's pattern: every block edge falls
    # mid-row, and many blocks hold no cut cell, or no cell of a region
    if disk is not None:
        monkeypatch.setattr(asm, "DISK", disk)
    monkeypatch.setattr(asm, "BLOCK", 97)
    _assert_pieces_match_the_oracle(msh.build_mesh(level))


#: the four wave vectors of the pattern tests: generic (complex K), one
#: component zero each way, and k = 0 (real K)
K_PATTERN = ((np.pi / 2, np.pi), (0.3, 0.0), (0.0, 0.0), (0.0, 1.1))
#: the weights of the weighted mass in the pattern tests
W_PATTERN = (1.0, 8.0)


def _scipy_forms(pieces, k, beta):
    """K, M, M_w and A_beta as scipy's sparse sums of the compact pieces
    build them: the construction the shared pattern replaces."""
    kx, ky = k
    M = pieces.M1 + pieces.M2
    K = pieces.K0 + (kx * kx + ky * ky) * M
    if kx != 0.0 or ky != 0.0:
        K = K.astype(complex)
        if kx != 0.0:
            K = K + (1j * kx) * pieces.Dx
        if ky != 0.0:
            K = K + (1j * ky) * pieces.Dy
    Mw = W_PATTERN[0] * pieces.M1 + W_PATTERN[1] * pieces.M2
    return dict(K=K, M=M, M_w=Mw, A_beta=(K + beta * Mw).tocsr())


def _assert_same_bytes(got, want, name):
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, attr)


@pytest.mark.parametrize("level", range(5))
def test_forms_on_the_pattern_match_scipy_sums_bitwise(level, monkeypatch):
    mesh = msh.build_mesh(level)
    pieces = asm._pieces(mesh)
    for k in K_PATTERN:
        pencil = Pencil.on_mesh(mesh, k, W_PATTERN, 1.0)
        got = dict(K=asm.assemble_tm(mesh, k).K,
                   M=Pencil.on_mesh(mesh, k, (1.0, 1.0), 1.0).M_w,
                   M_w=pencil.M_w, A_beta=pencil.A_beta)
        for name, want in _scipy_forms(pieces, k, 1.0).items():
            _assert_same_bytes(got[name].mat, want, (k, name))
    # the dual operator K + M_w of a shifted pencil, at the last k
    want = _scipy_forms(pieces, k, 2.5)
    shifted = Pencil.on_mesh(mesh, k, W_PATTERN, 2.5)
    _assert_same_bytes(shifted.dual_operator(),
                       (want["A_beta"] + (1.0 - 2.5) * want["M_w"]).tocsr(),
                       "dual_operator")
    # blocks shorter than the pattern, whose edges fall mid-row
    monkeypatch.setattr(asm, "BLOCK", 999)
    for k in K_PATTERN:
        for beta in (1.0, 2.5):
            want = _scipy_forms(pieces, k, beta)
            pencil = Pencil.on_mesh(mesh, k, W_PATTERN, beta)
            _assert_same_bytes(pencil.A_beta.mat, want["A_beta"], (k, beta, "A_beta"))
            _assert_same_bytes(pencil.M_w.mat, want["M_w"], (k, beta, "M_w"))


@pytest.mark.parametrize("level", range(4))
def test_nonlinear_forms_on_the_pattern_match_scipy_sums_bitwise(level):
    from test_dispersion import silver
    from test_newton import dT

    from blochfem import dispersion
    from blochfem.newton import NonlinearPencil

    mesh = msh.build_mesh(level)
    pieces = asm._pieces(mesh)
    p = NonlinearPencil(asm.assemble_tm(mesh, K_PATTERN[0]), silver(), alpha1=1.3)
    K = p.forms.K.mat
    _assert_same_bytes(p.dual.fact.mat, K + (pieces.M1 + pieces.M2), "K + M")
    for lam in (0.5, 6.0, 20.0):
        eps2 = dispersion.eval_lambda(p.model, lam)
        deps2 = dispersion.eval_dlambda(p.model, lam)
        T = (K - lam * p.alpha1 * pieces.M1 - lam * eps2 * pieces.M2).tocsr()
        dT_want = (-p.alpha1 * pieces.M1 - (eps2 + lam * deps2) * pieces.M2).tocsr()
        _assert_same_bytes(p.T(lam), T, ("T", lam))
        _assert_same_bytes(dT(p, lam), dT_want, ("dT", lam))


def test_forms_of_one_mesh_share_one_read_only_pattern():
    from blochfem.newton import NonlinearPencil

    mesh = msh.build_mesh(2)
    forms = asm.assemble_tm(mesh, K_PATTERN[0])
    pencil = Pencil.on_mesh(mesh, K_PATTERN[0], (1.0, 8.0), 2.5)
    nonlinear = NonlinearPencil(forms, model=None)
    mats = [forms.K.mat, forms.M1.mat, forms.M2.mat,
            asm.assemble_tm(mesh, K_PATTERN[1]).K.mat, pencil.A_beta.mat,
            pencil.M_w.mat, pencil.dual_operator(), nonlinear.dual.fact.mat]
    for A in mats:
        for attr in ("indices", "indptr"):
            assert np.shares_memory(getattr(A, attr), getattr(mats[0], attr))
    with pytest.raises(ValueError, match="read-only"):
        forms.K.mat.indices[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        forms.M1.mat.indptr[1] = 0
    # a matrix of another pattern is refused, not summed
    with pytest.raises(ValueError, match="pattern"):
        shared_data(forms.K, asm.assemble_tm(msh.build_mesh(1), K_PATTERN[0]).M1)


def test_shifted_operator_holds_exactly_its_entries():
    # a scipy sum keeps buffers sized for both summands; a sum of data
    # vectors allocates nnz entries
    mesh = msh.build_mesh(4)
    pencil = Pencil.on_mesh(mesh, K_PATTERN[0], (1.0, 8.0), 1.0)
    A = pencil.A_beta.mat
    buffer = A.data
    while buffer.base is not None:
        buffer = buffer.base
    assert buffer.nbytes == A.nnz * A.data.itemsize
    assert A.nnz == A.indices.size


MIB = 2 ** 20


def _traced(build):
    """``build()``, the memory it holds on return and its peak, both
    traced by tracemalloc from the call on."""
    tracemalloc.start()
    try:
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_cold_l4_pieces_peak_within_32_mib_of_what_they_keep():
    # the scatter keeps an int32 slot and a uint8 key per entry and sums a
    # block at a time: no nnz-long scratch array
    mesh = msh.build_mesh(4)
    _, held, peak = _traced(lambda: asm._RegionPieces(mesh))
    assert peak - held <= 32 * MIB


def test_l4_power_pencil_peaks_within_a_block_of_its_forms():
    # neither K(k) nor M is held whole: the build holds A_beta, M_w and
    # one block's scratch
    mesh = msh.build_mesh(4)
    asm._pieces(mesh)
    pencil, _, peak = _traced(
        lambda: Pencil.on_mesh(mesh, K_PATTERN[0], (1.0, 8.0), 1.0))
    forms = pencil.A_beta.mat.data.nbytes + pencil.M_w.mat.data.nbytes
    assert peak <= forms + asm.BLOCK * 16 + 2 * MIB


#: the wave vectors of the one-shot pencil tests: real A_beta at k = 0,
#: then kx Dx alone, ky Dy alone and both
K_ONE_SHOT = ((0.0, 0.0), (0.7, 0.0), (0.0, 1.3), (0.7, 1.3))


def _bound_on_the_pieces(pencil, mesh, weights):
    """The inverse symbol of ``BoundedDualNorm``'s B as it was read with the
    cached region masses whole: from the entries A - (w1 - w) M1 - (w2 - w) M2
    of the dual operator A's cell-(0, 0) rows, w = min(w1, w2)."""
    p = asm._pieces(mesh)
    A = pencil.dual_operator()
    (w1, w2), w = weights, min(weights)
    stencil = msh.cell_stencil(
        with_data(A, A.data - (w1 - w) * p.m1 - (w2 - w) * p.m2))
    return msh.CellPeriodicInverse.of_stencil(stencil, pencil.n).inv


@pytest.mark.parametrize("level", [1, 2, 3])
def test_reference_pencil_is_the_cached_pencil_bitwise(level):
    mesh = msh.build_mesh(level)
    for k, weights, beta in itertools.product(
            K_ONE_SHOT, ((1.0, 8.0), (1.0, 1.0)), (1.0, 2.5)):
        case = (k, weights, beta)
        (A, Mw), masses = asm.reference_pencil(mesh, k, weights, beta)
        want = Pencil.on_mesh(mesh, k, weights, beta)
        _assert_same_bytes(A.mat, want.A_beta.mat, (case, "A_beta"))
        _assert_same_bytes(Mw.mat, want.M_w.mat, (case, "M_w"))
        got = lin.BoundedDualNorm(Pencil(A, Mw, beta).dual_operator(), *masses,
                                  weights, 1e-12)
        oracle = _bound_on_the_pieces(want, mesh, weights)
        assert got.B.inv.tobytes() == oracle.tobytes(), case


def test_reference_pencil_keeps_only_cell_zero_rows_of_the_masses():
    mesh = msh.build_mesh(2)
    d = 2 * mesh.ncell_side
    p = asm._pieces(mesh)
    _, masses = asm.reference_pencil(mesh, K_ONE_SHOT[-1], (1.0, 8.0), 1.0)
    for got, data in zip(masses, (p.m1, p.m2)):
        rows = np.flatnonzero(np.diff(got.indptr))
        assert rows.tolist() == [0, 1, d, d + 1]
        for i in rows:
            want = slice(p.indptr[i], p.indptr[i + 1])
            assert got.indices[got.indptr[i]:got.indptr[i + 1]].tolist() == \
                p.indices[want].tolist()
            assert got.data[got.indptr[i]:got.indptr[i + 1]].tobytes() == \
                data[want].tobytes()


def test_l4_reference_pencil_peaks_within_18_mib_of_what_it_keeps():
    # beyond A_beta, M_w and the pattern, the build holds the cell sets and
    # at most one of Cx and Cy, the mirror map and a block's scratch: 16.7
    # MiB measured at k = (pi/2, pi), against 61 MiB for the cold pieces
    # alone
    mesh = msh.build_mesh(4)
    (forms, _), held, peak = _traced(
        lambda: asm.reference_pencil(mesh, K_PATTERN[0], (1.0, 8.0), 1.0))
    A, Mw = forms[0].mat, forms[1].mat
    kept = A.data.nbytes + Mw.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert held <= kept + MIB
    assert peak <= kept + 18 * MIB


def test_mass_splits_exactly(level1):
    # M_w of unit weights is the plain mass M1 + M2, bitwise
    mesh, forms = level1
    M = Pencil.on_mesh(mesh, K_GENERIC, (1.0, 1.0), 1.0).M_w.mat
    assert M.data.tobytes() == plain_mass(forms).data.tobytes()


def test_total_measure_is_one(level1):
    mesh, forms = level1
    ones = np.ones(mesh.dof_count)
    assert float(ones @ (plain_mass(forms) @ ones)) == pytest.approx(1.0, rel=1e-13)


def test_constant_is_exact_bloch_mode(level1):
    # K(k) 1 = |k|^2 M 1: the gradient terms annihilate constants and the
    # convection blocks telescope to zero over the torus.
    mesh, forms = level1
    ones = np.ones(mesh.dof_count)
    k2 = K_GENERIC[0] ** 2 + K_GENERIC[1] ** 2
    r = forms.K.mat @ ones - k2 * (plain_mass(forms) @ ones)
    assert np.abs(r).max() <= 1e-12


def test_conjugate_wave_vector(level1):
    mesh, forms = level1
    Km = asm.assemble_tm(mesh, (-K_GENERIC[0], -K_GENERIC[1])).K.mat
    assert np.abs(Km - forms.K.mat.conj()).max() == 0.0


def test_gamma_point_is_real():
    mesh = msh.build_mesh(0)
    K = asm.assemble_tm(mesh, (0.0, 0.0)).K.mat
    assert K.dtype.kind == "f"


def test_nonfinite_wave_vector_rejected():
    mesh = msh.build_mesh(0)
    with pytest.raises(ValueError, match="finite"):
        asm.assemble_tm(mesh, (np.nan, 0.0))


@settings(max_examples=20, deadline=None)
@given(
    kx=st.floats(-10.0, 10.0, allow_nan=False),
    ky=st.floats(-10.0, 10.0, allow_nan=False),
)
def test_stiffness_hermitian_for_any_k(kx, ky):
    mesh = msh.build_mesh(0)
    K = asm.assemble_tm(mesh, (kx, ky)).K.mat
    diff = np.abs((K - K.getH()).data)
    scale = np.abs(K.data).max()
    assert (diff.max() if diff.size else 0.0) <= 1e-13 * scale


# --- plane-wave Rayleigh quotients (homogeneous medium oracle) ---------------


def test_plane_wave_rayleigh_quotients(level1):
    mesh, forms = level1
    x, y = mesh.dof_coords[:, 0], mesh.dof_coords[:, 1]
    for G, tol in [((0, 0), 1e-12), ((1, 0), 1e-3), ((0, -1), 1e-3), ((-1, 1), 1e-3)]:
        u = np.exp(2j * np.pi * (G[0] * x + G[1] * y))
        rq = rayleigh_quotient(u, forms.K, plain_mass(forms))
        exact = (K_GENERIC[0] + 2 * np.pi * G[0]) ** 2 + (
            K_GENERIC[1] + 2 * np.pi * G[1]
        ) ** 2
        assert rq == pytest.approx(exact, rel=tol)
        assert rq >= fourier_lambda1(K_GENERIC) * (1 - 1e-12)


# --- weighted masses and region measure --------------------------------------


def test_weighted_mass_combination(level1):
    mesh, forms = level1
    W = Pencil.on_mesh(mesh, K_GENERIC, (2.0, 3.0), 1.0).M_w
    expect = 2.0 * forms.M1.mat + 3.0 * forms.M2.mat
    assert np.abs(W.mat - expect).max() == 0.0


def test_weighted_mass_unit_shortcut(level1):
    mesh, forms = level1
    W = Pencil.on_mesh(mesh, K_GENERIC, (1.0, 1.0), 1.0).M_w
    assert (W.mat - plain_mass(forms)).nnz == 0


def test_weighted_mass_rejects_nonfinite():
    mesh = msh.build_mesh(0)
    with pytest.raises(ValueError, match="finite"):
        asm.assemble_tm(mesh, K_GENERIC, shift=((np.inf, 1.0), 1.0))


def test_region2_area_converges_to_disk_area():
    exact = np.pi * 0.3 ** 2
    errs = []
    for L in range(4):
        mesh = msh.build_mesh(L)
        ones = np.ones(mesh.dof_count)
        forms = asm.assemble_tm(mesh, K_GENERIC)
        errs.append(abs(ones @ (forms.M2 @ ones) - exact))
    # interface quadrature on uniform cells: first-order-ish, but steady
    assert errs[2] < errs[1] < errs[0]
    assert errs[3] < 3e-4
    assert errs[2] < 1e-3


def test_cut_cells_use_the_finer_rule():
    assert asm.QUAD_CUT > asm.QUAD_PLAIN
