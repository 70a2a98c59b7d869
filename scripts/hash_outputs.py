#!/usr/bin/env python3
"""SHA-256 of the matrices and permittivity values the solvers consume.

    python3 scripts/hash_outputs.py > hashes.txt

Prints one ``name sha256`` line per item, so two trees that should compute
the same bits can be compared with ``diff``:

* the region pieces M1, M2, K0, Dx and Dy (data, indices, indptr) at L0-L5,
  the mesh's cell_dofs, dof_coords and cell origins;
* ``assemble_tm`` at k = (0.7, 0.3), then at L2 the shifted operator
  A_beta (beta = 1) and the dual operator K + M_w of a beta = 2.5 pencil
  on M_w = M1 + 8 M2, and ``build_companion`` for an empty and a two-pole
  model;
* the L2 and L4 power references of ``configs/experiment1.ini`` (its
  schedule ending on L1, and as shipped), as ``driver.compute_reference``
  builds them: A_beta, M_w, the inverse symbol of the FFT bound B, the
  lifted start, and ``mu_ref``;
* ``eval``, ``eval_lambda``, ``eval_dlambda``, ``real_poles`` and
  ``transfer`` for seven models over a lambda grid that enters every pole's
  guard window. A refused evaluation (or a division by zero, as a damped
  Drude term gives at lambda = 0) hashes as its exception type; the
  messages are hashed on a line of their own.

BLAS runs on one thread.
"""

import hashlib
import os
import pathlib
import sys
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from blochfem import assembly, companion, driver, mesh as msh  # noqa: E402
from blochfem import dispersion as dp  # noqa: E402
from blochfem.eigeniter import Pencil  # noqa: E402

K = (0.7, 0.3)
LEVELS = range(6)
TWO_POLES = (dp.LorentzTerm(xi2=98.696, eta2=55.2698),
             dp.LorentzTerm(xi2=197.3921, eta2=63.1655))
MODELS = {
    "constant": dp.Constant(8.0),
    "simplified_empty": dp.SimplifiedDL(alpha2=2.0),
    "simplified_two": dp.SimplifiedDL(alpha2=2.0, terms=TWO_POLES),
    "simplified_drude": dp.SimplifiedDL(
        alpha2=1.0, terms=(dp.LorentzTerm(xi2=3.0, eta2=0.0),)),
    "real_lossless": dp.RealDL(alpha=2.0, terms=TWO_POLES),
    "real_damped": dp.RealDL(alpha=1.143, terms=(
        dp.LorentzTerm(xi2=416.0, eta2=0.0, gamma=0.6),
        dp.LorentzTerm(xi2=-30.0, eta2=40.0, gamma=2.5))),
    "real_mixed": dp.RealDL(alpha=1.5, terms=(
        dp.LorentzTerm(xi2=50.0, eta2=30.0),
        dp.LorentzTerm(xi2=-20.0, eta2=70.0, gamma=1.0),
        dp.LorentzTerm(xi2=5.0, eta2=0.0))),
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sparse(A):
    A = A.tocsr()
    return _digest(A.data, A.indices, A.indptr)


def _reference_lines():
    """The power reference of experiment1 above a schedule ending on L1,
    and above its own (L3), as ``compute_reference`` hands it to LOPCG."""
    cfg = replace(driver.RunConfig.from_ini(ROOT / "configs" / "experiment1.ini"),
                  out=None)
    lopcg, lines = driver.lopcg, []
    for max_level in (1, cfg.max_level):
        seen = {}

        def spy(pencil, u, dual=None, **kw):
            seen.update(pencil=pencil, u=u, dual=dual)
            return lopcg(pencil, u, dual=dual, **kw)
        driver.lopcg = spy
        try:
            ref = driver.compute_reference(replace(cfg, max_level=max_level))
        finally:
            driver.lopcg = lopcg
        name = "L%d.reference" % (max_level + 1)
        lines += [(name + ".A_beta", _sparse(seen["pencil"].A_beta.mat)),
                  (name + ".M_w", _sparse(seen["pencil"].M_w.mat)),
                  (name + ".B", _digest(seen["dual"].B.inv)),
                  (name + ".start", _digest(seen["u"])),
                  (name + ".mu_ref", float(ref.mu_ref).hex())]
    return lines


def _lambda_grid():
    base = np.linspace(-5.0, 120.0, 3001)
    near = []
    for p in (0.0, 30.0, 40.0, 55.2698, 63.1655, 70.0):
        half = dp.POLE_GUARD * max(1.0, p)
        near.extend(p + half * np.linspace(-2.0, 2.0, 161))
        near.extend(np.nextafter(p + s * half, p + s * 2 * half) for s in (-1, 1))
        near.extend((p - half, p + half))
    return np.concatenate([base, np.asarray(near)])


def _values(fn, args):
    out, messages = [], []
    for a in args:
        try:
            out.append(float(fn(a)).hex())
        except (dp.NearPoleError, ZeroDivisionError) as err:
            out.append(type(err).__name__)
            messages.append(str(err))
    return hashlib.sha256("\n".join(out).encode()).hexdigest(), messages


def main():
    lines = []
    for level in LEVELS:
        mesh = msh.build_mesh(level)
        lines.append(("L%d.mesh" % level, _digest(
            mesh.cell_dofs, mesh.dof_coords, mesh.cell_origin())))
        p = assembly._RegionPieces(mesh)
        for name in ("M1", "M2", "K0", "Dx", "Dy"):
            lines.append(("L%d.%s" % (level, name), _sparse(getattr(p, name))))
        if level > 4:
            continue
        forms = assembly.assemble_tm(mesh, K)
        lines.append(("L%d.assemble_tm" % level, _sparse(forms.K.mat)))
    mesh = msh.build_mesh(2)
    lines.append(("L2.A_beta(beta=1)", _sparse(
        Pencil.on_mesh(mesh, K, (1.0, 8.0), 1.0).A_beta.mat)))
    lines.append(("L2.dual_operator(beta=2.5)", _sparse(
        Pencil.on_mesh(mesh, K, (1.0, 8.0), 2.5).dual_operator())))
    for name in ("simplified_empty", "simplified_two"):
        cs = companion.build_companion(mesh, K, MODELS[name])
        lines.append(("L2.companion.%s" % name,
                      _sparse(cs.A_beta.mat) + _sparse(cs.M_w.mat)))

    lines += _reference_lines()

    lams = _lambda_grid()
    omegas = np.concatenate([np.sqrt(lams[lams >= 0.0]), -np.sqrt(lams[lams >= 0.0])])
    messages = []
    for name, model in MODELS.items():
        lines.append(("%s.real_poles" % name, _digest(dp.real_poles(model))))
        for fn_name, fn, args in (
                ("eval", lambda w: dp.eval(model, w), omegas),
                ("eval_lambda", lambda x: dp.eval_lambda(model, x), lams),
                ("eval_dlambda", lambda x: dp.eval_dlambda(model, x), lams)):
            digest, msgs = _values(fn, args)
            lines.append(("%s.%s" % (name, fn_name), digest))
            messages += msgs
        if isinstance(model, dp.SimplifiedDL):
            real = dp.realize(model)
            digest, msgs = _values(lambda x: dp.transfer(real, x), lams)
            lines.append(("%s.transfer" % name, digest))
            lines.append(("%s.transfer_messages" % name,
                          hashlib.sha256("\n".join(msgs).encode()).hexdigest()))
    lines.append(("points", "%d lambda, %d omega" % (lams.size, omegas.size)))
    lines.append(("model_messages",
                  hashlib.sha256("\n".join(messages).encode()).hexdigest()))
    for name, value in lines:
        print(name, value)


if __name__ == "__main__":
    main()
